"""The acceptance gate: ten go/no-go checks over a fixed corpus.

Every check is exact; distances are Fractions end to end and equality
means equality, not closeness.  Each test prints a single verdict line
(visible under ``pytest -s``) before asserting, so a run reads as a
checklist.  The corpus is every connected spanning subgraph of the
complete graphs on up to six vertices, labeled by a seeded RNG, which
keeps runs reproducible without storing 27k graphs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest

import oracles
from oracles import bucket_by_distance_set
from conftest import LABEL_POOL, POSITIVE_POOL, names_for, path_graph, star_graph
from ultragraph import (
    PSEUDOULTRAMETRIC,
    ULTRAMETRIC,
    DistanceMatrix,
    LabeledGraph,
    SearchConfig,
    WeightedGraph,
    are_isometric,
    canonical_form,
    check_edge_bound,
    check_gomory_hu,
    classify_metric,
    dendrogram,
    distance_matrix,
    distance_set,
    edge_weights,
    enumerate_trees,
    gh_labeling,
    gh_report,
    is_gh,
    is_gh_complete,
    is_nondegenerate,
    is_tree,
    is_weight_realizable,
    level_labeling,
    search_conjecture,
    spanning_tree,
    tree_gh_report,
    zero_quotient,
)

SKELETON_COUNTS = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}
TREE_COUNTS = {1: 1, 2: 1, 3: 3, 4: 16, 5: 125, 6: 1296}


def _verdict(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {number:2d} [{name}]: {'pass' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} [{name}] failed: {detail}"


@pytest.fixture(scope="module")
def corpus() -> list[LabeledGraph]:
    graphs: list[LabeledGraph] = []
    for n in range(1, 7):
        names = names_for(n)
        subsets = oracles.connected_edge_subsets(n)
        assert len(subsets) == SKELETON_COUNTS[n]
        for k, subset in enumerate(subsets):
            rng = random.Random(f"corpus:{n}:{k}")
            graphs.append(
                LabeledGraph(
                    names,
                    tuple((names[i], names[j]) for i, j in subset),
                    {v: rng.choice(LABEL_POOL) for v in names},
                )
            )
    assert len(graphs) == 27476
    return graphs


@pytest.fixture(scope="module")
def matrices(corpus) -> list[DistanceMatrix]:
    return [distance_matrix(g) for g in corpus]


def test_criterion_01_distance_exactness(corpus, matrices):
    mismatches = 0
    for g, dm in zip(corpus, matrices):
        slow = oracles.path_enumeration_distances(g)
        index = {v: i for i, v in enumerate(g.vertices)}
        for x, y, d in dm.pairs():
            if slow[(index[x], index[y])] != d:
                mismatches += 1
    _verdict(
        1,
        "distance-exactness",
        mismatches == 0,
        f"{len(corpus)} graphs, sweep vs path enumeration, {mismatches} mismatches",
    )


def test_criterion_02_gomory_hu_inequality(matrices):
    ultra = 0
    violations = 0
    for dm in matrices:
        if len(distance_set(dm)) > len(dm.vertices):
            violations += 1
        if classify_metric(dm) == ULTRAMETRIC:
            ultra += 1
            if not check_gomory_hu(dm):
                violations += 1
    assert ultra > 0 and ultra < len(matrices)
    _verdict(
        2,
        "gomory-hu-inequality",
        violations == 0,
        f"{len(matrices)} spaces ({ultra} ultrametric), {violations} violations",
    )


def test_criterion_03_edge_bound(corpus, matrices):
    broken = 0
    equality_on_non_tree = 0
    equality_on_tree = 0
    for g, dm in zip(corpus, matrices):
        bound = check_edge_bound(g, dm)
        if not bound.holds:
            broken += 1
        if bound.equality:
            if is_tree(g):
                equality_on_tree += 1
            else:
                equality_on_non_tree += 1
    assert sum(1 for g in corpus if not is_tree(g)) > 0
    ok = broken == 0 and equality_on_non_tree == 0 and equality_on_tree > 0
    _verdict(
        3,
        "edge-bound",
        ok,
        f"{broken} violations, equality on {equality_on_tree} trees "
        f"and {equality_on_non_tree} non-trees",
    )


def test_criterion_04_tree_equivalence():
    pool = tuple(Fraction(k) for k in range(1, 7))
    total_trees = 0
    checked = 0
    disagreements = 0
    for n in range(1, 7):
        trees = list(enumerate_trees(n))
        assert len(trees) == TREE_COUNTS[n]
        total_trees += len(trees)
        if n == 1:
            continue
        names = trees[0].vertices
        for t_index, skeleton in enumerate(trees):
            if n <= 4:
                labelings = product(pool, repeat=n)
            else:
                rng = random.Random(f"fourway:{n}:{t_index}")
                labelings = (
                    tuple(rng.choice(pool) for _ in range(n)) for _ in range(200)
                )
            for labeling in labelings:
                report = tree_gh_report(skeleton.with_labels(dict(zip(names, labeling))))
                checked += 1
                if len(set(report)) != 1:
                    disagreements += 1
    assert total_trees == 1442
    assert checked == 305620
    _verdict(
        4,
        "tree-equivalence",
        disagreements == 0,
        f"{checked} labeled trees, 4 criteria each, {disagreements} disagreements",
    )


def test_criterion_05_labeling_constructions(corpus):
    rooted = 0
    bad_rooted = 0
    for n in range(1, 7):
        for skeleton in enumerate_trees(n):
            for root in skeleton.vertices:
                labels = level_labeling(skeleton, root)
                dm = distance_matrix(skeleton.with_labels(labels))
                rooted += 1
                if not is_gh(dm):
                    bad_rooted += 1
                    continue
                if any(d != max(labels[x], labels[y]) for x, y, d in dm.pairs()):
                    bad_rooted += 1
    assert rooted == 8477

    bad_general = 0
    for g in corpus:
        relabeled = g.with_labels(gh_labeling(g))
        dm = distance_matrix(relabeled)
        if dm != distance_matrix(spanning_tree(relabeled)) or not is_gh(dm):
            bad_general += 1
    ok = bad_rooted == 0 and bad_general == 0
    _verdict(
        5,
        "labeling-constructions",
        ok,
        f"{rooted} rooted trees, {len(corpus)} spanning-tree relabelings, "
        f"{bad_rooted + bad_general} failures",
    )


def test_criterion_06_weight_realizability(corpus):
    with_edges = [g for g in corpus if g.edges]
    mismatches = 0
    yes = no = 0
    for k in range(1000):
        rng = random.Random(f"realize:{k}")
        g = with_edges[rng.randrange(len(with_edges))]
        wg = WeightedGraph(
            g.vertices, g.edges, {e: rng.choice(LABEL_POOL) for e in g.edges}
        )
        fast = is_weight_realizable(wg).realizable
        if fast:
            yes += 1
        else:
            no += 1
        if fast != oracles.cycle_criterion_realizable(wg):
            mismatches += 1
    assert yes > 0 and no > 0

    induced_failures = sum(
        1 for g in with_edges if not is_weight_realizable(edge_weights(g)).realizable
    )
    ok = mismatches == 0 and induced_failures == 0
    _verdict(
        6,
        "weight-realizability",
        ok,
        f"1000 random weightings ({yes} yes / {no} no, {mismatches} oracle "
        f"mismatches), {induced_failures} label-induced failures",
    )


def test_criterion_07_canonical_isometry(corpus):
    eligible = [g for g in corpus if len(g.vertices) >= 2]
    spaces: list[DistanceMatrix] = []
    for k in range(500):
        rng = random.Random(f"iso:{k}")
        g = eligible[rng.randrange(len(eligible))]
        spaces.append(
            distance_matrix(
                g.with_labels({v: rng.choice(POSITIVE_POOL) for v in g.vertices})
            )
        )

    mismatches = 0
    agree_true = agree_false = 0
    for i in range(len(spaces)):
        for j in range(i + 1, len(spaces)):
            fast = are_isometric(spaces[i], spaces[j])
            if fast != oracles.bijection_isometric(spaces[i], spaces[j]):
                mismatches += 1
            elif fast:
                agree_true += 1
            else:
                agree_false += 1
    assert agree_true > 0 and agree_false > 0

    unstable = 0
    for s_index, dm in enumerate(spaces):
        base = canonical_form(dendrogram(dm))
        rng = random.Random(f"isoperm:{s_index}")
        n = len(dm.vertices)
        for _ in range(20):
            perm = list(range(n))
            rng.shuffle(perm)
            shuffled = DistanceMatrix(
                tuple(f"w{k}" for k in range(n)),
                tuple(
                    tuple(dm.entries[perm[i]][perm[j]] for j in range(n))
                    for i in range(n)
                ),
            )
            if canonical_form(dendrogram(shuffled)) != base:
                unstable += 1
    ok = mismatches == 0 and unstable == 0
    _verdict(
        7,
        "canonical-isometry",
        ok,
        f"124750 pairs vs bijection search ({agree_true} isometric), "
        f"10000 relabelings, {mismatches + unstable} failures",
    )


def test_criterion_08_zero_quotient(corpus):
    with_edges = [g for g in corpus if g.edges]
    failures = 0
    for k in range(1000):
        rng = random.Random(f"quotient:{k}")
        g = with_edges[rng.randrange(len(with_edges))]
        u, v = g.edges[rng.randrange(len(g.edges))]
        labels = dict(g.labels)
        labels[u] = Fraction(0)
        labels[v] = Fraction(0)
        dm = distance_matrix(g.with_labels(labels))
        assert classify_metric(dm) == PSEUDOULTRAMETRIC
        reps, quotient = zero_quotient(dm)
        if classify_metric(quotient) != ULTRAMETRIC:
            failures += 1
        elif distance_set(quotient) != distance_set(dm):
            failures += 1
        elif len(reps) >= len(dm.vertices):
            failures += 1
    _verdict(
        8,
        "zero-quotient",
        failures == 0,
        f"1000 degenerate labelings collapsed, {failures} failures",
    )


def test_criterion_09_explorer_determinism():
    small = search_conjecture(SearchConfig(n_max=3, universe=(1, 2, 3)))
    stats = [
        (r.n, r.trees_examined, r.labelings_examined, r.gh_spaces, r.pairs_tested)
        for r in small.runs
    ]
    assert stats == [(2, 1, 9, 9, 13), (3, 3, 81, 30, 183)]
    assert small.counterexamples == ()

    cfg = SearchConfig(n_max=4, universe=(1, 2, 3, 4))
    first = search_conjecture(cfg)
    repeat = search_conjecture(cfg).to_json()
    wide = search_conjecture(SearchConfig(n_max=4, universe=(1, 2, 3, 4), jobs=8)).to_json()
    deterministic = first.to_json() == repeat == wide
    # frozen from the first verified run; the n<=3 rows are re-derived
    # from scratch in test_explore
    counts = [(r.labelings_examined, r.gh_spaces) for r in first.runs]
    assert counts == [(16, 16), (192, 84), (4096, 432)]

    p4 = distance_matrix(path_graph(1, 2, 3, 4))
    s4 = distance_matrix(star_graph(1, 2, 3, 4))
    buckets = bucket_by_distance_set([p4, s4])
    collision_ok = (
        set(buckets) == {(0, 2, 3, 4)}
        and len(buckets[(0, 2, 3, 4)]) == 2
        and are_isometric(p4, s4)
    )
    ok = deterministic and not first.counterexamples and collision_ok
    _verdict(
        9,
        "explorer-determinism",
        ok,
        f"jobs 1 vs 8 byte-identical={deterministic}, "
        f"counterexamples={len(first.counterexamples)}, shared-bucket pair isometric",
    )


def test_criterion_10_complete_graph_criterion():
    # n-1 distinct labels are not enough: 1, 2, 2 has two distinct
    # values on three vertices yet only two distances ever arise.
    names = ("1", "2", "3")
    k3 = LabeledGraph(
        names,
        (("1", "2"), ("1", "3"), ("2", "3")),
        {"1": Fraction(1), "2": Fraction(2), "3": Fraction(2)},
    )
    dset = distance_set(distance_matrix(k3))
    pinned = (
        dset == (Fraction(0), Fraction(2))
        and len(dset) == 2 < 3
        and is_gh_complete([1, 2, 2]) is False
        and len({1, 2, 2}) == 2
    )
    contrast = (
        is_gh_complete([1, 2, 3]) is True
        and is_gh_complete([1, 1, 2]) is True
        and is_gh_complete([5]) is True
        and is_gh_complete([0, 1]) is True
    )
    _verdict(
        10,
        "complete-graph-criterion",
        pinned and contrast,
        "labels 1,2,2 pinned non-GH with |D|=2; injective and 1,1,2 cases GH",
    )


# -- beyond the ten criteria ------------------------------------------------------


def test_report_reads_every_corpus_tree_without_adjacency(corpus, monkeypatch):
    # check reads all four tree criteria off |D|: on every tree of the
    # corpus it still answers, and agrees with the matrix route, when no
    # adjacency can be built.
    trees = [g for g in corpus if len(g.edges) == len(g.vertices) - 1]
    assert len(trees) == sum(TREE_COUNTS.values())
    expected = [
        tree_gh_report(t) if len(t.vertices) >= 2 and is_nondegenerate(t) else None
        for t in trees
    ]

    def no_adjacency(self):
        raise AssertionError("an adjacency was built")

    monkeypatch.setattr(LabeledGraph, "_adjacency", property(no_adjacency))
    assert [gh_report(t).tree_equivalences for t in trees] == expected
    assert sum(e is not None for e in expected) > 0
