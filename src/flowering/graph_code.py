"""Words on a RIM and the code of words whose local views are RS codewords.

A word stores one field value per edge class, so the two slots of a shared
edge cannot disagree by construction; the (v, l) accessor resolves through
the graph's canonical class index.  Restricting a word to a prepared cut
reads the cut's fold plan, the same class map the fold uses; cut_word
restricts to an arbitrary vertex set through the (v, l) accessor.
Distances are exact Fractions: the bound checks built on them compare exact
rationals, never floats.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import linalg
from .errors import FloweringError, TooLargeError
from .field import PrimeField
from .reed_solomon import RSCode
from .rim_graph import RIM, FloweringCut, cut_graph

DEFAULT_ENUM_CAP = 10**6
DEFAULT_MATRIX_CAP = 10**7  # parity-check entries


class GraphMismatchError(FloweringError):
    pass


class Word:
    """A function from the edge classes of a RIM to a prime field."""

    __slots__ = ("graph", "field", "values")

    def __init__(self, graph: RIM, field: PrimeField, values: list[int]):
        if len(values) != graph.classes.num_classes:
            raise FloweringError(
                f"expected {graph.classes.num_classes} class values, got {len(values)}"
            )
        self.graph = graph
        self.field = field
        self.values = list(values)

    @classmethod
    def constant(cls, graph: RIM, field: PrimeField, c: int) -> Word:
        return cls(graph, field, [c % field.p] * graph.classes.num_classes)

    @classmethod
    def zero(cls, graph: RIM, field: PrimeField) -> Word:
        return cls.constant(graph, field, 0)

    @classmethod
    def from_index_values(cls, graph: RIM, field: PrimeField, y: list[int]) -> Word:
        """The word f(v, l) = y[l]; both slots of a class share l, so any
        index-only assignment is automatically consistent."""
        if len(y) != graph.n:
            raise FloweringError(f"expected {graph.n} index values, got {len(y)}")
        return cls(graph, field, [y[l] % field.p for _, l in graph.classes.reps])

    def at(self, v: int, l: int) -> int:
        return self.values[self.graph.classes.class_of[v * self.graph.n + l]]

    def local_view(self, v: int) -> list[int]:
        """The incident values (f(v,1), ..., f(v,n)) in index order."""
        if not 0 <= v < self.graph.num_vertices:
            raise FloweringError(f"vertex {v} not in graph")
        cls_of = self.graph.classes.class_of
        base = v * self.graph.n
        vals = self.values
        return [vals[cls_of[base + l]] for l in range(self.graph.n)]

    def replace(self, class_id: int, value: int) -> Word:
        out = Word(self.graph, self.field, self.values)
        out.values[class_id] = value % self.field.p
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Word)
            and other.graph == self.graph
            and other.field == self.field
            and other.values == self.values
        )

    def to_json(self) -> dict:
        return {
            "p": str(self.field.p),
            "graph_hash": self.graph.hash_hex(),
            "values": [str(v) for v in self.values],
        }

    @classmethod
    def from_json(cls, graph: RIM, field: PrimeField, data: dict) -> Word:
        if int(data["p"]) != field.p:
            raise FloweringError("word field does not match the file header field")
        if data.get("graph_hash") not in (None, graph.hash_hex()):
            raise FloweringError("word graph_hash does not match the graph")
        return cls(graph, field, [int(v) for v in data["values"]])


def _same_graph(f: Word, g: Word) -> None:
    if f.graph != g.graph or f.field != g.field:
        raise GraphMismatchError("words live on different graphs or fields")


def vertex_distance(f: Word, g: Word) -> Fraction:
    """Fraction of vertices whose local views differ."""
    _same_graph(f, g)
    graph = f.graph
    cls_of = graph.classes.class_of
    fv, gv = f.values, g.values
    n = graph.n
    differing = 0
    for v in range(graph.num_vertices):
        base = v * n
        for l in range(n):
            c = cls_of[base + l]
            if fv[c] != gv[c]:
                differing += 1
                break
    return Fraction(differing, graph.num_vertices)


def hamming_distance(f: Word, g: Word) -> Fraction:
    """Fraction of edge classes on which the words differ."""
    _same_graph(f, g)
    diff = sum(1 for a, b in zip(f.values, g.values) if a != b)
    return Fraction(diff, f.graph.classes.num_classes)


def relative_weight(f: Word) -> Fraction:
    return Fraction(
        sum(1 for v in f.values if v), f.graph.classes.num_classes
    )


def cut_word(f: Word, vertices) -> Word:
    """Restriction of a word to a cut graph; cross-edge values survive on the
    petals the cut creates."""
    child, kept = cut_graph(f.graph, vertices)
    values = [f.at(kept[vc], l) for vc, l in child.classes.reps]
    return Word(child, f.field, values)


def cut_word_on(f: Word, cut: FloweringCut) -> Word:
    """Like cut_word but on a prepared cut: each child class takes the value
    of the first class of its fold-plan pair, its kept representative (the
    fold at alpha = 0)."""
    vals = f.values
    return Word(cut.child, f.field, [vals[a] for a, _ in cut.fold_plan])


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
        self._check_word(f)
        return all(
            self.rs.is_codeword(f.local_view(v)) for v in range(self.graph.num_vertices)
        )

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

    def parity_check_matrix(self, cap: int = DEFAULT_MATRIX_CAP) -> list[list[int]]:
        """H with (n-k)|V| rows and one column per edge class: the RS parity
        rows of every vertex, composed with the slot-to-class projection.
        H f = 0 exactly characterizes membership."""
        classes = self.graph.classes
        n = self.graph.n
        rows_per_vertex = self.rs.parity_rows()
        num_rows = len(rows_per_vertex) * self.graph.num_vertices
        if num_rows * classes.num_classes > cap:
            raise TooLargeError(
                f"parity matrix would have {num_rows * classes.num_classes} entries (cap {cap})"
            )
        p = self.field.p
        out = []
        for v in range(self.graph.num_vertices):
            base = v * n
            for prow in rows_per_vertex:
                row = [0] * classes.num_classes
                for l in range(n):
                    c = classes.class_of[base + l]
                    row[c] = (row[c] + prow[l]) % p
                out.append(row)
        return out

    def dimension(self, cap: int = DEFAULT_MATRIX_CAP) -> int:
        h = self.parity_check_matrix(cap)
        return self.graph.classes.num_classes - linalg.rank(h, self.field.p)

    def dimension_lower_bound(self) -> int:
        """(k - n/2)|V| + |petals|/2, in integer form k|V| - |classes| + |petals|."""
        classes = self.graph.classes
        return (
            self.rs.k * self.graph.num_vertices
            - classes.num_classes
            + classes.num_petals
        )

    def codeword_basis(self, cap: int = DEFAULT_MATRIX_CAP) -> list[list[int]]:
        """Kernel basis of the parity-check matrix, as class-value vectors."""
        h = self.parity_check_matrix(cap)
        num = self.graph.classes.num_classes
        if not h:  # k = n: no parity constraints, the code is the full space
            return [[int(i == j) for j in range(num)] for i in range(num)]
        return linalg.nullspace(h, self.field.p)

    def min_distance_bruteforce(self, cap: int = DEFAULT_ENUM_CAP) -> Fraction:
        """Minimum relative weight over all nonzero codewords, by enumerating
        the kernel of the parity-check matrix.  An oracle for the distance
        bounds, not a feature: refuses to enumerate more than cap codewords."""
        basis = self.codeword_basis()
        dim = len(basis)
        p = self.field.p
        if dim == 0:
            raise FloweringError("code is trivial; no nonzero codewords")
        if p**dim > cap:
            raise TooLargeError(f"would enumerate {p**dim} codewords (cap {cap})")
        num_classes = self.graph.classes.num_classes
        best = None
        for coeffs in itertools.product(range(p), repeat=dim):
            if not any(coeffs):
                continue
            vec = [0] * num_classes
            for c, b in zip(coeffs, basis):
                if c:
                    for i, x in enumerate(b):
                        vec[i] = (vec[i] + c * x) % p
            w = sum(1 for x in vec if x)
            if best is None or w < best:
                best = w
        return Fraction(best, num_classes)
