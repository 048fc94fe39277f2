"""Crafted far words and adversarial prover strategies.

The soundness statements quantify over all provers, so the experiments need
concrete representative cheaters; the two registered here are documented as
representative, not exhaustive.

An adversary is a far word plus a response rule, the prover shape of
iopp.prover_commit.  far-word-honest-fold: the honest rule, fold, started
from a word at a prescribed fraction of invalid local views.  lazy-copy:
same start, but its rule skips the fold and sends bare restrictions.

Far words are built by corrupting whole edge classes of a base codeword:
corrupting a matching edge invalidates exactly its two endpoint views, which
controls the invalid-view fraction precisely.  On petal-bearing graphs,
petal corruptions steer single views, and paired petal corruptions at
matched vertices make the fold recover validity at exactly one chosen
challenge, giving the commit-soundness experiments their nontrivial events.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import FloweringError
from .folding import fold
from .graph_code import GraphCode, Word, cut_word_on
from .rim_graph import FloweringCut


def far_word(code: GraphCode, delta, rng: random.Random) -> tuple[Word, Fraction]:
    """A word whose invalid-view fraction is the smallest achievable value
    >= delta: a random codeword with ceil(delta |V| / 2) corrupted classes of
    an index-0 perfect matching.  Returns (word, achieved fraction)."""
    graph = code.graph
    n, k = code.rs.n, code.rs.k
    if k >= n:
        raise FloweringError("far words need k < n (full-space codes have no invalid views)")
    matching = [
        cid for cid, (v, l) in enumerate(graph.classes.reps)
        if l == 0 and graph.classes.sizes[cid] == 2
    ]
    if 2 * len(matching) != graph.num_vertices:
        raise FloweringError("index 0 is not a perfect matching on this graph")
    target = Fraction(delta)
    pairs = -(-(target.numerator * graph.num_vertices) // (target.denominator * 2))
    if pairs > len(matching):
        raise FloweringError(f"cannot reach invalid-view fraction {delta}")
    base = Word.from_index_values(graph, code.field, code.rs.random_codeword(rng))
    p = code.field.p
    for cid in rng.sample(matching, pairs):
        base.values[cid] = (base.values[cid] + rng.randrange(1, p)) % p
    return base, Fraction(2 * pairs, graph.num_vertices)


def _common_petal_indices(graph) -> list[int]:
    return [
        l for l in range(graph.n)
        if all(graph.adj[v][l] == v for v in range(graph.num_vertices))
    ]


def revivable_word(
    code: GraphCode,
    cut: FloweringCut,
    groups: list[tuple[int, list[int]]],
    rng: random.Random,
    corrupt_rest: bool = True,
) -> Word:
    """A word on the cut's parent that every listed challenge partially heals.

    groups maps nonzero challenges to disjoint sets of kept-half vertices;
    each vertex v in a group gets petal corruptions at v and phi(v) tuned so
    Fold[f, alpha](v, .) is a codeword exactly at that group's challenge.
    With corrupt_rest the remaining kept-half pairs get unmatched petal noise
    so every local view starts invalid.
    """
    graph = code.graph
    p = code.field.p
    petal_idx = _common_petal_indices(graph)
    if len(petal_idx) < 2:
        raise FloweringError("need at least two shared petal indices")
    l0, l1 = petal_idx[0], petal_idx[1]
    word = Word.from_index_values(graph, code.field, code.rs.random_codeword(rng))
    classes = graph.classes
    touched: set[int] = set()
    for alpha_star, members in groups:
        if alpha_star % p == 0:
            raise FloweringError("revival challenges must be nonzero")
        for v in members:
            if v in touched:
                raise FloweringError("groups must be vertex-disjoint")
            touched.add(v)
            w = cut.phi[v]
            eta = rng.randrange(1, p)
            cv = classes.id_of(v, l0)
            cw = classes.id_of(w, l0)
            word.values[cv] = (word.values[cv] + eta) % p
            word.values[cw] = (word.values[cw] - eta * code.field.inv(alpha_star)) % p
    if corrupt_rest:
        for v in cut.v_prime:
            if v in touched:
                continue
            w = cut.phi[v]
            cv = classes.id_of(v, l0)
            cw = classes.id_of(w, l1)
            word.values[cv] = (word.values[cv] + rng.randrange(1, p)) % p
            word.values[cw] = (word.values[cw] + rng.randrange(1, p)) % p
    return word


ADVERSARIES = ("far-word-honest-fold", "lazy-copy")


def lazy_copy(cut: FloweringCut, f: Word, alpha: int) -> Word:
    """The lazy-copy response rule: the bare restriction of f to the cut
    graph, ignoring the challenge; a cheap deviation the query phase should
    catch."""
    return cut_word_on(f, cut)


def build_adversary(name: str, code: GraphCode, delta, rng: random.Random):
    """Instantiate a registered strategy at the given invalid-view fraction.

    Returns (far word, response rule, achieved fraction)."""
    word, achieved = far_word(code, delta, rng)
    if name == "far-word-honest-fold":
        return word, fold, achieved
    if name == "lazy-copy":
        return word, lazy_copy, achieved
    raise FloweringError(f"unknown adversary {name!r}; known: {', '.join(ADVERSARIES)}")
