import random

import pytest

from flowering.cayley import blossoming_cayley, gen_set_full
from flowering.field import PrimeField
from flowering.graph_code import GraphCode, Word
from flowering.reed_solomon import RSCode
from flowering.rim_graph import RIM


@pytest.fixture(scope="session")
def t1():
    """The tiny canonical instance: Cay(F_2^2, {01,10,11}), RS[3,2] over F_5."""
    field = PrimeField(5)
    gens = gen_set_full(2)
    seq = blossoming_cayley(gens)
    rs = RSCode.with_default_points(field, 3, 2)
    return {
        "field": field,
        "gens": gens,
        "seq": seq,
        "rs": rs,
        "code": GraphCode(seq.graphs[0], rs),
    }


def replay(challenges):
    """A challenge source for prover_commit that sends the given challenges
    in order, whatever the words."""
    sent = iter(challenges)
    return lambda word: next(sent)


def random_rim(rng: random.Random, num_vertices: int, n: int, petal_prob: float = 0.3) -> RIM:
    """Random valid RIM: each index is a random involution on the vertices
    (a matching with fixed points, i.e. petals)."""
    adj = [[0] * n for _ in range(num_vertices)]
    for l in range(n):
        order = list(range(num_vertices))
        rng.shuffle(order)
        while order:
            v = order.pop()
            if not order or rng.random() < petal_prob:
                adj[v][l] = v
            else:
                w = order.pop()
                adj[v][l] = w
                adj[w][l] = v
    return RIM(n, adj)


def planted_cut(rng: random.Random, half: int, n: int):
    """A random graph on 2*half vertices with a flowering cut (V', phi):
    both halves copy one random RIM through phi, and some of its petals
    become random edges across the cut."""
    h = random_rim(rng, half, n)
    order = list(range(2 * half))
    rng.shuffle(order)
    kept, other = order[:half], order[half:]
    phi = dict(zip(kept, other))
    adj = [[v] * n for v in range(2 * half)]
    for l in range(n):
        crossing = ([], [])
        for u in range(half):
            x, y, w = kept[u], other[u], h.adj[u][l]
            if w == u:
                crossing[0].append(x)
                crossing[1].append(y)
            else:
                adj[x][l], adj[y][l] = kept[w], other[w]
        for side in crossing:
            rng.shuffle(side)
        for x, y in zip(*crossing):
            if rng.random() < 0.5:
                adj[x][l], adj[y][l] = y, x
    return RIM(n, adj), kept, phi


def scrambled(rng: random.Random, phi: dict[int, int]) -> dict[int, int]:
    """phi with the images of two random vertices swapped."""
    keys = sorted(phi)
    a, b = rng.sample(keys, 2)
    out = dict(phi)
    out[a], out[b] = phi[b], phi[a]
    return out


def random_word(rng: random.Random, graph: RIM, field: PrimeField):
    return Word(graph, field, [field.sample(rng) for _ in range(graph.classes.num_classes)])
