import itertools
import json
import random
from fractions import Fraction

import pytest

from conftest import random_word
from flowering.cayley import cayley_rim
from flowering.errors import TooLargeError
from flowering.field import PrimeField
from flowering.graph_code import (
    GraphCode,
    GraphMismatchError,
    Word,
    cut_word,
    hamming_distance,
    relative_weight,
    vertex_distance,
)
from flowering.reed_solomon import RSCode
from flowering.rim_graph import RIM


@pytest.fixture(scope="module")
def petal_square():
    """4 vertices, n=3: two matchings plus an all-petal index."""
    return RIM(3, [[1, 2, 0], [0, 3, 1], [3, 0, 2], [2, 1, 3]])


def test_local_views(t1):
    graph = t1["seq"].graphs[0]
    const = Word.constant(graph, t1["field"], 4)
    assert const.local_view(2) == [4, 4, 4]

    w = Word.from_index_values(graph, t1["field"], [1, 2, 3])
    for v in range(4):
        assert w.local_view(v) == [1, 2, 3]


def test_petal_value_is_local(petal_square):
    field = PrimeField(7)
    w = Word.zero(petal_square, field)
    petal_cid = petal_square.classes.id_of(0, 2)
    w = w.replace(petal_cid, 5)
    assert w.local_view(0) == [0, 0, 5]
    for v in (1, 2, 3):
        assert 5 not in w.local_view(v)


def test_is_graph_codeword(t1):
    graph = t1["seq"].graphs[0]
    code = t1["code"]
    assert code.is_codeword(Word.constant(graph, t1["field"], 3))
    assert code.is_codeword(Word.from_index_values(graph, t1["field"], [1, 2, 3]))
    assert not code.is_codeword(Word.from_index_values(graph, t1["field"], [1, 1, 2]))
    other = Word.constant(cayley_rim(3, list(range(1, 8))), t1["field"], 1)
    with pytest.raises(GraphMismatchError):
        code.is_codeword(other)


def test_distances_on_cut_graph(t1):
    g1 = t1["seq"].graphs[1]
    field = t1["field"]
    f = Word.zero(g1, field)
    assert vertex_distance(f, f) == 0
    assert hamming_distance(f, f) == 0

    petal_cid = next(c for c in g1.classes.petals if g1.classes.reps[0][c] == 0)
    g = f.replace(petal_cid, 1)
    assert vertex_distance(f, g) == Fraction(1, 2)
    assert hamming_distance(f, g) == Fraction(1, 5)

    edge_cid = next(c for c, s in enumerate(g1.classes.sizes) if s == 2)
    h = f.replace(edge_cid, 1)
    assert vertex_distance(f, h) == 1  # both endpoint views change
    assert hamming_distance(f, h) == Fraction(1, 5)


def test_local_view_distance(petal_square):
    field = PrimeField(7)
    rs = RSCode.with_default_points(field, 3, 2)
    code = GraphCode(petal_square, rs)

    w = Word.from_index_values(petal_square, field, [1, 2, 3])  # P(X) = X
    assert code.local_view_distance(w) == 0

    # corrupting one petal invalidates exactly its own vertex's view
    w2 = w.replace(petal_square.classes.id_of(0, 2), (w.at(0, 2) + 1) % 7)
    assert code.local_view_distance(w2) == Fraction(1, 4)

    rng = random.Random(0)
    bad = w
    for v in range(4):
        bad = bad.replace(petal_square.classes.id_of(v, 2), (w.at(v, 2) + rng.randrange(1, 7)) % 7)
    assert code.local_view_distance(bad) == 1


def test_local_view_distance_lower_bounds_vertex_distance(t1):
    # against every enumerable codeword, not just the nearest
    code = t1["code"]
    graph = t1["seq"].graphs[0]
    basis = code.codeword_basis()
    rng = random.Random(1)
    p = 5
    words = [random_word(rng, graph, t1["field"]) for _ in range(10)]
    for f in words:
        lv = code.local_view_distance(f)
        best = min(
            vertex_distance(f, _combine(graph, t1["field"], basis, coeffs, p))
            for coeffs in itertools.product(range(p), repeat=len(basis))
        )
        assert lv <= best


def _combine(graph, field, basis, coeffs, p):
    vec = [0] * graph.classes.num_classes
    for c, b in zip(coeffs, basis):
        if c:
            for i, x in enumerate(b):
                vec[i] = (vec[i] + c * x) % p
    return Word(graph, field, vec)


def test_parity_matrix_t1(t1):
    code = t1["code"]
    h = code.parity_check_matrix()
    assert len(h) == 4 and len(h[0]) == 6
    assert code.dimension() == 2
    assert code.dimension_lower_bound() == 2


def test_parity_matrix_characterizes_membership(t1, petal_square):
    rng = random.Random(2)
    cases = [(t1["code"], t1["seq"].graphs[0], t1["field"])]
    f7 = PrimeField(7)
    cases.append((GraphCode(petal_square, RSCode.with_default_points(f7, 3, 2)),
                  petal_square, f7))
    for code, graph, field in cases:
        h = code.parity_check_matrix()
        p = field.p
        for _ in range(100):
            w = random_word(rng, graph, field)
            in_kernel = all(
                sum(c * x for c, x in zip(row, w.values)) % p == 0 for row in h
            )
            assert in_kernel == code.is_codeword(w)


def test_flower_code_is_rs():
    field = PrimeField(5)
    flower = RIM(3, [[0, 0, 0]])
    code = GraphCode(flower, RSCode.with_default_points(field, 3, 2))
    assert code.dimension() == 2
    assert code.dimension_lower_bound() == 2  # k - n/2 + n/2 = k
    assert code.min_distance_bruteforce() == Fraction(2, 3)  # MDS: n-k+1 of n

    full = GraphCode(flower, RSCode.with_default_points(field, 3, 3))
    assert full.min_distance_bruteforce() == Fraction(1, 3)


def test_flower_min_distance_against_direct_enumeration():
    field = PrimeField(5)
    flower = RIM(3, [[0, 0, 0]])
    rs = RSCode.with_default_points(field, 3, 2)
    best = min(
        sum(1 for v in rs.evaluate(c) if v)
        for c in itertools.product(range(5), repeat=2)
        if any(c)
    )
    code = GraphCode(flower, rs)
    assert code.min_distance_bruteforce() == Fraction(best, 3)


def test_dimension_bound_cay3():
    field = PrimeField(2147483647)
    graph = cayley_rim(3, list(range(1, 8)))
    code = GraphCode(graph, RSCode.with_default_points(field, 7, 6))
    assert code.dimension_lower_bound() == 20  # (6 - 7/2) * 8
    assert code.dimension() >= 20


def test_min_distance_cap():
    field = PrimeField(2147483647)
    flower = RIM(3, [[0, 0, 0]])
    code = GraphCode(flower, RSCode.with_default_points(field, 3, 2))
    with pytest.raises(TooLargeError):
        code.min_distance_bruteforce()


def test_cut_word(t1):
    graph = t1["seq"].graphs[0]
    field = t1["field"]
    w = Word.from_index_values(graph, field, [1, 2, 3])

    same = cut_word(w, range(4))
    assert same.values.tolist() == w.values.tolist()

    # the {00,10} edge at index 1 survives as the petal (00, index 1)
    restricted = cut_word(w, [0, 1])
    assert graph.adj[0][1] == 2
    assert w.at(0, 1) == restricted.at(0, 1) == 2

    single = cut_word(w, [2])
    assert single.graph.num_vertices == 1
    assert single.local_view(0) == w.local_view(2)


def test_word_json_round_trip(t1):
    graph = t1["seq"].graphs[0]
    w = Word.from_index_values(graph, t1["field"], [1, 2, 3])
    data = json.loads(json.dumps(w.to_json()))
    again = Word.from_json(graph, t1["field"], data)
    assert again == w
    assert relative_weight(w) == 1
