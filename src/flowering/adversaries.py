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

import numpy as np

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
    classes = graph.classes
    matching = np.flatnonzero((classes.reps[1] == 0) & (classes.sizes == 2)).tolist()
    if 2 * len(matching) != graph.num_vertices:
        raise FloweringError("index 0 is not a perfect matching on this graph")
    target = Fraction(delta)
    pairs = -(-(target.numerator * graph.num_vertices) // (target.denominator * 2))
    if pairs > len(matching):
        raise FloweringError(f"cannot reach invalid-view fraction {delta}")
    field = code.field
    base = Word.from_index_values(graph, field, code.rs.random_codeword(rng))
    values = base.values
    for cid in rng.sample(matching, pairs):
        values[cid] = field.add(values.item(cid), rng.randrange(1, field.p))
    return base, Fraction(2 * pairs, graph.num_vertices)


def _common_petal_indices(graph) -> list[int]:
    petal = graph.adj == np.arange(graph.num_vertices)[:, None]
    return np.flatnonzero(petal.all(axis=0)).tolist()


def revivable_word(
    code: GraphCode,
    cut: FloweringCut,
    groups: list[tuple[int, list[int]]],
    rng: random.Random,
) -> Word:
    """A word on the cut's parent that every listed challenge partially heals.

    groups maps nonzero challenges to disjoint sets of kept-half vertices;
    each vertex v in a group gets petal corruptions at v and phi(v) tuned so
    Fold[f, alpha](v, .) is a codeword exactly at that group's challenge.
    The remaining kept-half pairs get unmatched petal noise, so every local
    view starts invalid.
    """
    graph = code.graph
    field = code.field
    petal_idx = _common_petal_indices(graph)
    if len(petal_idx) < 2:
        raise FloweringError("need at least two shared petal indices")
    l0, l1 = petal_idx[0], petal_idx[1]
    word = Word.from_index_values(graph, field, code.rs.random_codeword(rng))
    values = word.values
    classes, phi = graph.classes, cut.phi
    touched: set[int] = set()
    for alpha_star, members in groups:
        if field.reduce(alpha_star) == 0:
            raise FloweringError("revival challenges must be nonzero")
        for v in members:
            if v in touched:
                raise FloweringError("groups must be vertex-disjoint")
            touched.add(v)
            w = phi[v]
            eta = rng.randrange(1, field.p)
            cv = classes.id_of(v, l0)
            cw = classes.id_of(w, l0)
            values[cv] = field.add(values.item(cv), eta)
            values[cw] = field.sub(values.item(cw), eta * field.inv(alpha_star))
    for v in cut.v_prime:
        if v in touched:
            continue
        w = phi[v]
        cv = classes.id_of(v, l0)
        cw = classes.id_of(w, l1)
        values[cv] = field.add(values.item(cv), rng.randrange(1, field.p))
        values[cw] = field.add(values.item(cw), rng.randrange(1, field.p))
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
