"""Words on a RIM and the code of words whose local views are RS codewords.

A word stores one field value per edge class, as one element array of its
field, so the two slots of a shared edge cannot disagree by construction;
the (v, l) accessor resolves through the graph's canonical class index,
whose tables are int64 arrays.  Restricting a word to a prepared cut is one
gather through the cut's fold plan, the same class map the fold uses;
cut_word restricts to an arbitrary vertex set through the class index of
the cut graph.  A value that leaves a word (at, local_view, to_json) is a
plain Python int.  Distances are exact Fractions: the bound checks built on
them compare exact rationals, never floats.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from . import linalg
from .errors import FloweringError, TooLargeError
from .field import PrimeField, exact_int
from .reed_solomon import RSCode
from .rim_graph import RIM, FloweringCut, cut_graph

ENUM_CAP = 10**6  # codewords min_distance_bruteforce enumerates
MATRIX_CAP = 10**7  # parity-check entries


class GraphMismatchError(FloweringError):
    pass


class Word:
    """A function from the edge classes of a RIM to a prime field.

    values is field.array(values): reduced elements, each in [0, p), so a
    word has one representation; an array at field.dtype is used as is, not
    copied.
    """

    __slots__ = ("graph", "field", "values")

    def __init__(self, graph: RIM, field: PrimeField, values):
        values = field.array(values)
        if values.shape != (graph.classes.num_classes,):
            raise FloweringError(
                f"expected {graph.classes.num_classes} class values, got {values.size}"
            )
        self.graph = graph
        self.field = field
        self.values = values

    @classmethod
    def _of(cls, graph: RIM, field: PrimeField, values: np.ndarray) -> Word:
        """The word of an element array that is reduced by construction, a
        fold or a gather of a word's values; unchecked, as on small words
        the check costs as much as the fold."""
        word = cls.__new__(cls)
        word.graph, word.field, word.values = graph, field, values
        return word

    @classmethod
    def constant(cls, graph: RIM, field: PrimeField, c: int) -> Word:
        return cls(graph, field, np.full(graph.classes.num_classes, field.reduce(c), field.dtype))

    @classmethod
    def zero(cls, graph: RIM, field: PrimeField) -> Word:
        return cls.constant(graph, field, 0)

    @classmethod
    def from_index_values(cls, graph: RIM, field: PrimeField, y: list[int]) -> Word:
        """The word f(v, l) = y[l]; both slots of a class share l, so any
        index-only assignment is automatically consistent."""
        if len(y) != graph.n:
            raise FloweringError(f"expected {graph.n} index values, got {len(y)}")
        reduced = field.array([field.reduce(c) for c in y])
        return cls(graph, field, reduced[graph.classes.reps[1]])

    def at(self, v: int, l: int) -> int:
        if not (0 <= v < self.graph.num_vertices and 0 <= l < self.graph.n):
            raise FloweringError(f"slot ({v}, {l}) not in graph")
        return self.values.item(self.graph.classes.id_of(v, l))

    def local_view(self, v: int) -> list[int]:
        """The incident values (f(v,1), ..., f(v,n)) in index order."""
        if not 0 <= v < self.graph.num_vertices:
            raise FloweringError(f"vertex {v} not in graph")
        return self.values[self.graph.classes.class_of[v]].tolist()

    def replace(self, class_id: int, value: int) -> Word:
        """The word with class class_id set to value mod p."""
        if not 0 <= class_id < self.values.size:
            raise FloweringError(f"class {class_id} not in 0..{self.values.size - 1}")
        values = self.values.copy()
        values[class_id] = self.field.reduce(value)
        return Word(self.graph, self.field, values)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Word)
            and other.graph == self.graph
            and other.field == self.field
            and np.array_equal(other.values, self.values)
        )

    def to_json(self) -> dict:
        return {
            "p": str(self.field.p),
            "graph_hash": self.graph.digest().hex(),
            "values": [str(v) for v in self.values.tolist()],
        }

    @classmethod
    def from_json(cls, graph: RIM, field: PrimeField, data: dict) -> Word:
        """The word of a JSON object; p and each value a decimal string or a
        plain int, as in an instance file: a bool or a float is refused, not
        truncated."""
        if exact_int(data["p"], "p") != field.p:
            raise FloweringError("word field does not match the file header field")
        if data.get("graph_hash") not in (None, graph.digest().hex()):
            raise FloweringError("word graph_hash does not match the graph")
        if not isinstance(data["values"], list):
            raise FloweringError("values must be a list")
        return cls(graph, field, [exact_int(v, "a word value") for v in data["values"]])


def _same_graph(f: Word, g: Word) -> None:
    if f.graph != g.graph or f.field != g.field:
        raise GraphMismatchError("words live on different graphs or fields")


def vertex_distance(f: Word, g: Word) -> Fraction:
    """Fraction of vertices whose local views differ."""
    _same_graph(f, g)
    graph = f.graph
    differs = f.values != g.values
    differing = np.count_nonzero(differs[graph.classes.class_of].any(axis=1))
    return Fraction(int(differing), graph.num_vertices)


def hamming_distance(f: Word, g: Word) -> Fraction:
    """Fraction of edge classes on which the words differ."""
    _same_graph(f, g)
    diff = np.count_nonzero(f.values != g.values)
    return Fraction(int(diff), f.graph.classes.num_classes)


def relative_weight(f: Word) -> Fraction:
    return Fraction(int(np.count_nonzero(f.values)), f.graph.classes.num_classes)


def cut_word(f: Word, vertices) -> Word:
    """Restriction of a word to a cut graph; cross-edge values survive on the
    petals the cut creates."""
    child, kept = cut_graph(f.graph, vertices)
    vc, l = child.classes.reps
    return Word._of(child, f.field, f.values[f.graph.classes.class_of[kept[vc], l]])


def cut_word_on(f: Word, cut: FloweringCut) -> Word:
    """Like cut_word but on a prepared cut: each child class takes the value
    of the first class of its fold-plan pair, its kept representative (the
    fold at alpha = 0)."""
    return Word._of(cut.child, f.field, f.values[cut.fold_plan[0]])


class GraphCode:
    """The code of words on a graph whose every local view lies in RS[n, k]."""

    def __init__(self, graph: RIM, rs: RSCode):
        if rs.n != graph.n:
            raise FloweringError(f"RS length {rs.n} != graph regularity {graph.n}")
        self.graph = graph
        self.rs = rs

    @property
    def field(self) -> PrimeField:
        return self.rs.field

    def _check_word(self, f: Word) -> None:
        if f.graph != self.graph or f.field != self.field:
            raise GraphMismatchError("word does not live on this code's graph/field")

    def is_codeword(self, f: Word) -> bool:
        return self.invalid_views(f) == 0

    def invalid_views(self, f: Word) -> int:
        """Number of vertices whose local view fails the RS membership test."""
        self._check_word(f)
        return sum(
            not self.rs.is_codeword(f.local_view(v)) for v in range(self.graph.num_vertices)
        )

    def local_view_distance(self, f: Word) -> Fraction:
        """Fraction of vertices with invalid local views; a lower bound on the
        vertex distance from f to the code."""
        return Fraction(self.invalid_views(f), self.graph.num_vertices)

    # linear-algebra view ----------------------------------------------------

    def parity_check_matrix(self) -> np.ndarray:
        """H, a (n-k)|V| x |classes| array at the field's dtype: the RS
        parity rows of every vertex, composed with the slot-to-class
        projection.  H f = 0 exactly characterizes membership."""
        classes = self.graph.classes
        num_vertices = self.graph.num_vertices
        num_rows = (self.rs.n - self.rs.k) * num_vertices
        if num_rows * classes.num_classes > MATRIX_CAP:
            raise TooLargeError(
                f"parity matrix would have {num_rows * classes.num_classes} entries "
                f"(cap {MATRIX_CAP})"
            )
        dual = self.field.array(self.rs.parity_rows()).reshape(-1, self.rs.n)
        h = np.zeros((num_vertices, len(dual), classes.num_classes), dtype=self.field.dtype)
        # a vertex's n slots lie in n distinct classes, so no entry is
        # written twice
        h[np.arange(num_vertices)[:, None, None], np.arange(len(dual))[:, None],
          classes.class_of[:, None, :]] = dual
        return h.reshape(num_rows, classes.num_classes)

    def dimension(self) -> int:
        h = self.parity_check_matrix()
        return self.graph.classes.num_classes - linalg.rank(h, self.field)

    def dimension_lower_bound(self) -> int:
        """(k - n/2)|V| + |petals|/2, in integer form k|V| - |classes| + |petals|."""
        classes = self.graph.classes
        return (
            self.rs.k * self.graph.num_vertices
            - classes.num_classes
            + classes.num_petals
        )

    def codeword_basis(self) -> list[list[int]]:
        """Kernel basis of the parity-check matrix, as class-value vectors."""
        return linalg.nullspace(self.parity_check_matrix(), self.field)

    def min_distance_bruteforce(self) -> Fraction:
        """Minimum relative weight over all nonzero codewords, by enumerating
        the kernel of the parity-check matrix.  An oracle for the distance
        bounds, not a feature: refuses to enumerate more than ENUM_CAP codewords."""
        basis = self.codeword_basis()
        dim = len(basis)
        p = self.field.p
        if dim == 0:
            raise FloweringError("code is trivial; no nonzero codewords")
        if p**dim > ENUM_CAP:
            raise TooLargeError(f"would enumerate {p**dim} codewords (cap {ENUM_CAP})")
        num_classes = self.graph.classes.num_classes
        mul_add = self.field.mul_add
        best = None
        for coeffs in itertools.product(range(p), repeat=dim):
            if not any(coeffs):
                continue
            vec = [0] * num_classes
            for c, b in zip(coeffs, basis):
                if c:
                    for i, x in enumerate(b):
                        vec[i] = mul_add(vec[i], c, x)
            w = sum(1 for x in vec if x)
            if best is None or w < best:
                best = w
        return Fraction(best, num_classes)
