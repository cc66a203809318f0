"""The count of GH spaces per distance set over small labeled trees."""

import concurrent.futures
import gc
import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import islice, product
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from oracles import bucket_by_distance_set
from conftest import path_graph, star_graph
from ultragraph import (
    EXHAUSTIVE,
    SAMPLED,
    CapExceededError,
    InternalCheckError,
    LabeledGraph,
    Leaf,
    Merge,
    SearchConfig,
    canonical_form,
    dendrogram,
    distance_matrix,
    enumerate_trees,
    graph_dendrogram,
    is_gh,
    search_conjecture,
    tree_from_pruefer,
    tree_gh_report,
)
from ultragraph import analysis, dendrograms, explore, graphs, metrics
from ultragraph.analysis import _tree_criteria
from ultragraph.cli import main
from ultragraph.explore import _gh_patterns, _labelings, _pruefer_block, _scan_shard

U123 = (Fraction(1), Fraction(2), Fraction(3))


def test_config_normalizes_universe():
    cfg = SearchConfig(n_max=2, universe=("3", 1, "1/2"))
    assert cfg.universe == (Fraction(1, 2), Fraction(1), Fraction(3))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_max=1, universe=U123),
        dict(n_max=3, universe=()),
        dict(n_max=3, universe=(0, 1)),
        dict(n_max=3, universe=(-1, 2)),
        dict(n_max=3, universe=(1, 1, 2)),
        dict(n_max=3, universe=U123, mode="guess"),
        dict(n_max=3, universe=U123, jobs=0),
        dict(n_max=3, universe=U123, mode=SAMPLED, samples_per_tree=0),
        dict(n_max=3, universe="12"),
        dict(n_max=3, universe=b"12"),
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SearchConfig(**kwargs)


def test_reports_keep_the_retired_reduce_symmetry_key():
    # The option is gone; its report key stays, always false, so reports
    # match earlier ones byte for byte.
    with pytest.raises(TypeError):
        SearchConfig(n_max=2, universe=U123, reduce_symmetry=True)
    report = search_conjecture(SearchConfig(n_max=2, universe=U123))
    assert report.to_json_dict()["reduce_symmetry"] is False


def test_mode_caps():
    with pytest.raises(CapExceededError):
        search_conjecture(SearchConfig(n_max=8, universe=U123))
    with pytest.raises(CapExceededError):
        search_conjecture(SearchConfig(n_max=9, universe=U123, mode=SAMPLED))


def test_two_point_run_counts_by_hand():
    report = search_conjecture(SearchConfig(n_max=2, universe=U123))
    (run,) = report.runs
    assert run.trees_examined == 1
    assert run.labelings_examined == 9
    # every 2-point space is GH; buckets by largest label have sizes
    # 1, 3, 5, so 0 + 3 + 10 pairs get compared
    assert run.gh_spaces == 9
    assert run.pairs_tested == 13


def test_three_point_run_finds_no_collisions():
    report = search_conjecture(SearchConfig(n_max=3, universe=U123))
    assert report.counterexamples == ()
    run = report.runs[1]
    assert run.n == 3
    assert run.trees_examined == 3
    assert run.labelings_examined == 81
    # Hand count for one path with center m: the two edge weights are
    # max(a, m) and max(m, c); they differ for 6 labelings when m=1,
    # 4 when m=2, 0 when m=3.  Three trees, 10 each.
    assert run.gh_spaces == 30


def test_search_accounting_matches_direct_enumeration():
    # Recompute the n=3 record with plain loops over the same universe.
    report = search_conjecture(SearchConfig(n_max=3, universe=U123))
    run = report.runs[1]

    spaces = []
    for skeleton in enumerate_trees(3):
        for labeling in product(U123, repeat=3):
            g = skeleton.with_labels(dict(zip(skeleton.vertices, labeling)))
            dm = distance_matrix(g)
            if all(d > 0 for _, _, d in dm.pairs()) and is_gh(dm):
                spaces.append(dm)
    assert len(spaces) == run.gh_spaces

    buckets = bucket_by_distance_set(spaces)
    assert sum(len(b) * (len(b) - 1) // 2 for b in buckets.values()) == run.pairs_tested
    for bucket in buckets.values():
        forms = {canonical_form(dendrogram(dm)) for dm in bucket}
        assert len(forms) == 1


def test_reports_are_deterministic_and_job_independent():
    cfg = SearchConfig(n_max=4, universe=U123)
    first = search_conjecture(cfg).to_json()
    again = search_conjecture(cfg).to_json()
    sharded = search_conjecture(SearchConfig(n_max=4, universe=U123, jobs=2)).to_json()
    assert first == again == sharded
    doc = json.loads(first)
    assert "jobs" not in doc
    assert doc["universe"] == ["1", "2", "3"]
    assert [run["n"] for run in doc["runs"]] == [2, 3, 4]


def test_sampled_mode_is_seeded_and_job_independent():
    cfg = SearchConfig(n_max=3, universe=U123, mode=SAMPLED, samples_per_tree=20, seed=7)
    first = search_conjecture(cfg).to_json()
    again = search_conjecture(cfg).to_json()
    sharded = search_conjecture(
        SearchConfig(n_max=3, universe=U123, mode=SAMPLED, samples_per_tree=20, seed=7, jobs=3)
    ).to_json()
    assert first == again == sharded
    doc = json.loads(first)
    assert doc["runs"][0]["labelings_examined"] == 20
    assert doc["runs"][1]["labelings_examined"] == 60


def test_sampled_labelings_depend_on_seed_and_position():
    a = SearchConfig(n_max=4, universe=U123, mode=SAMPLED, samples_per_tree=30)
    b = SearchConfig(n_max=4, universe=U123, mode=SAMPLED, samples_per_tree=30, seed=1)
    assert list(_labelings(a, 4, 5)) == list(_labelings(a, 4, 5))
    assert list(_labelings(a, 4, 5)) != list(_labelings(b, 4, 5))
    assert list(_labelings(a, 4, 5)) != list(_labelings(a, 4, 6))


def test_sampled_labelings_are_drawn_one_at_a_time():
    few = SearchConfig(n_max=4, universe=U123, mode=SAMPLED, samples_per_tree=30)
    huge = SearchConfig(n_max=4, universe=U123, mode=SAMPLED, samples_per_tree=10**12)
    tracemalloc.start()
    try:
        labelings = _labelings(huge, 4, 5)
        first = list(islice(labelings, 5))
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert iter(labelings) is labelings
    assert peak < 100_000
    # the same generator, seeded by position, gives the same draws in order
    assert first == list(_labelings(few, 4, 5))[:5]


# sha256 of search_conjecture(...).to_json(), recorded before the scan
# moved to label ranks (the first three), before exhaustive mode checked
# label patterns (the next two) and before it grew its trees from orders
# (the two at n = 6, also pinned in CI); the scan must reproduce them
# byte for byte.
PINNED_REPORTS = [
    (
        dict(n_max=4, universe=(1, 2, 3, 4)),
        "78242e2457b26618118d2f105976d4bd109c3115df2c04cefd3ba85f6669dc7e",
    ),
    (
        dict(n_max=5, universe=("1/2", 1, 2, 3), mode=SAMPLED, seed=7),
        "bc17ce3d455364b6f9659d1e29a93e997e6b9c4970cc11eb0fc2a9bc4f9f28e0",
    ),
    (
        dict(n_max=4, universe=("1/3", "1/2", 7)),
        "831522168c43970c9909ede63f569102673d357b9787356ab0027d5a8915b04d",
    ),
    (
        dict(n_max=5, universe=(1, 2, 3, 4)),
        "5595962628974e0f735d942d16b0ac5c81a8df65321d0ebeb762febec1c521f8",
    ),
    # more labels than vertices: patterns with n values count C(6, n) times
    (
        dict(n_max=4, universe=("1/2", 1, "3/2", 2, 5, 7)),
        "bd0ec9cf0e5dbfda2f59fb5010576e6e49d33a458c7aacea39220b400aa68099",
    ),
    # k = n - 1 checks only tied patterns at n = 6; k = n the distinct ones too
    (
        dict(n_max=6, universe=(1, 2, 3, 4, 5)),
        "53298de6e6c0abe0ad116770685a22d7fe2caf3f25a9c4ef435e15e6ac562394",
    ),
    (
        dict(n_max=6, universe=(1, 2, 3, 4, 5, 6)),
        "3f27546d6b3712aacfa205941618d937610a00704b768a75d248b828c90b6a49",
    ),
]


@pytest.mark.parametrize("kwargs, digest", PINNED_REPORTS)
def test_report_bytes_are_pinned(kwargs, digest):
    report = search_conjecture(SearchConfig(**kwargs)).to_json()
    assert hashlib.sha256(report.encode()).hexdigest() == digest


@given(st.data())
def test_rank_verdicts_match_the_fraction_route(data):
    universe = tuple(
        sorted(
            data.draw(
                st.sets(
                    st.fractions(min_value=Fraction(1, 12), max_value=9, max_denominator=12),
                    min_size=1,
                    max_size=4,
                )
            )
        )
    )
    n = data.draw(st.integers(2, 6))
    seq = tuple(data.draw(st.integers(0, n - 1)) for _ in range(n - 2))
    ranks = tuple(data.draw(st.integers(1, len(universe))) for _ in range(n))
    index_edges = tree_from_pruefer(seq, n)
    names = tuple(str(i + 1) for i in range(n))
    g = LabeledGraph(
        names,
        tuple((names[i], names[j]) for i, j in index_edges),
        {v: universe[r - 1] for v, r in zip(names, ranks)},
    )
    verdicts = _tree_criteria(names, index_edges, ranks, 2 * (n - 1), (0, *universe))
    assert verdicts == tree_gh_report(g)
    distances = set(oracles.path_enumeration_distances(g).values()) | {0}
    assert verdicts == (len(distances) == n,) * 4


def _stirling2(n, m):
    """Ways to split ``n`` things into ``m`` non-empty blocks."""
    if n == m:
        return 1
    if m == 0 or m > n:
        return 0
    return m * _stirling2(n - 1, m) + _stirling2(n - 1, m - 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_patterns_are_the_weak_orders_with_their_multiplicities(n):
    for k in range(1, 8):
        patterns = oracles.weak_orders(n, k)
        assert len(patterns) == sum(
            factorial(m) * _stirling2(n, m) for m in range(1, min(n, k) + 1)
        )
        # a pattern with m values stands for C(k, m) labelings: k**n in all
        assert sum(comb(k, max(pattern)) for pattern in patterns) == k**n
        for pattern in patterns:
            assert set(pattern) == set(range(1, max(pattern) + 1))


def _grown(n, k):
    """Every (tree, GH pattern) pair of the exhaustive shards, one per first vertex."""
    return [pair for first in range(n - 1) for pair in _gh_patterns(n, first, k)]


@pytest.mark.parametrize("n", range(2, 7))
def test_growth_orders_give_each_gh_weak_order_once(n):
    candidates = oracles.weak_orders(n, n)
    columns = list(zip(*candidates))
    # every candidate's maximum on each pair of vertices, a column per pair
    pair_maxima = {
        (i, j): list(map(max, columns[i], columns[j])) for i in range(n) for j in range(n)
    }
    gh = []
    for seq in product(range(n), repeat=n - 2):
        index_edges = tree_from_pruefer(seq, n)
        maxima = zip(*(pair_maxima[edge] for edge in index_edges))
        tree = frozenset(index_edges)
        gh.extend((tree, ranks) for ranks, m in zip(candidates, maxima) if len(set(m)) == n - 1)
    for k in (n - 1, n):
        grown = _grown(n, k)
        assert all(len(edges) == n - 1 and all(i < j for i, j in edges) for edges, _r in grown)
        expected = Counter((tree, ranks) for tree, ranks in gh if max(ranks) <= k)
        assert Counter((frozenset(edges), ranks) for edges, ranks in grown) == expected


@pytest.mark.parametrize("n", range(2, 7))
def test_grown_trees_are_the_pruefer_trees(n):
    trees = {frozenset(edges) for edges, _ranks in _grown(n, n - 1)}
    assert len(trees) == n ** (n - 2)
    assert trees == {frozenset(tree_from_pruefer(s, n)) for s in product(range(n), repeat=n - 2)}


@pytest.mark.parametrize("n", range(2, 6))
def test_check_runs_once_per_gh_pattern(monkeypatch, n):
    calls = []

    def counted(n, sweep):
        calls.append(n)
        return metrics._merge_order(n, sweep)

    monkeypatch.setattr(explore, "_merge_order", counted)
    b = factorial(n) * factorial(n - 1)
    for k, checks in ((n - 1, b // 2), (n, b // 2 + b), (n + 2, b // 2 + b)):
        calls.clear()
        cfg = SearchConfig(n_max=n, universe=range(1, k + 1))
        tallies = sum((_scan_shard((cfg, n, first)) for first in range(n - 1)), Counter())
        assert len(calls) == sum(tallies.values()) == checks


def _pattern_of(ranks):
    dense = {r: i + 1 for i, r in enumerate(sorted(set(ranks)))}
    return tuple(dense[r] for r in ranks)


@given(st.data())
def test_criteria_depend_only_on_the_label_pattern(data):
    k = data.draw(st.integers(1, 7))
    universe = (0, *(Fraction(2 * r + 1, 3) for r in range(k)))
    n = data.draw(st.integers(2, 6))
    seq = tuple(data.draw(st.integers(0, n - 1)) for _ in range(n - 2))
    ranks = tuple(data.draw(st.integers(1, k)) for _ in range(n))
    index_edges = tree_from_pruefer(seq, n)
    names = tuple(str(i + 1) for i in range(n))
    verdicts = _tree_criteria(names, index_edges, ranks, 2 * (n - 1), universe)
    assert verdicts == _tree_criteria(
        names, index_edges, _pattern_of(ranks), 2 * (n - 1), universe
    )


def _universes(max_size):
    """Label universes with at least one non-integer value."""
    return st.sets(
        st.fractions(min_value=Fraction(1, 12), max_value=9, max_denominator=12),
        min_size=1,
        max_size=max_size,
    ).filter(lambda u: any(q.denominator > 1 for q in u))


def _caterpillar_form(dset):
    """Canonical form of the chain of merges at ``dset[1:]``, each adding a leaf."""
    node = Leaf("0")
    for i, height in enumerate(dset[1:], start=1):
        node = Merge(height, (node, Leaf(str(i))))
    return canonical_form(node)


@given(st.data())
def test_pattern_scan_matches_the_labeling_scan(data):
    n = data.draw(st.integers(2, 5))
    universe = data.draw(_universes(3 if n == 5 else 6))
    mode = data.draw(st.sampled_from((EXHAUSTIVE, SAMPLED)))
    cfg = SearchConfig(
        n_max=n,
        universe=tuple(universe),
        mode=mode,
        seed=data.draw(st.integers(0, 99)),
        samples_per_tree=data.draw(st.integers(1, 30)),
    )
    k = len(cfg.universe)
    reference = Counter()
    values = Counter()
    trees = labelings = 0
    for prefix in [0] if n == 2 else range(n):
        task = (cfg, n, prefix)
        shard_trees, shard_labelings, entries = oracles.reference_scan_shard(task)
        counts = Counter(entry[3] for entry in entries)
        if mode == SAMPLED:
            # sampled tallies are keyed by the sorted edge maxima, as ranks
            label_of = (0, *cfg.universe)
            assert Counter(
                {(0, *map(label_of.__getitem__, key)): c for key, c in _scan_shard(task).items()}
            ) == counts
        trees += shard_trees
        labelings += shard_labelings
        reference += counts
        values.update(len(set(entry[1])) for entry in entries)
        for entry in entries:
            assert entry[4] == _caterpillar_form(entry[3])
    if mode == EXHAUSTIVE:
        # Exhaustive shards split by first vertex: compare the totals.  A
        # GH pattern with m values stands for its C(k, m) labelings.
        tally = sum((_scan_shard((cfg, n, first)) for first in range(n - 1)), Counter())
        assert Counter({m: c * comb(k, m) for m, c in tally.items()}) == values
    run = search_conjecture(cfg).runs[-1]
    assert (run.trees_examined, run.labelings_examined) == (trees, labelings)
    assert run.gh_spaces == sum(reference.values())
    assert run.pairs_tested == sum(comb(c, 2) for c in reference.values())


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_tallies_count_the_recursive_trees(n):
    cfg = SearchConfig(n_max=n, universe=tuple(range(1, n + 1)))
    tallies = sum((_scan_shard((cfg, n, first)) for first in range(n - 1)), Counter())
    b = factorial(n) * factorial(n - 1)
    assert tallies == Counter({n - 1: b // 2, n: b})


def _two_cherries(n, sweep):
    """The sweep at n < 4; at n = 4, d(1,2) = 1, d(3,4) = 2 and 3 across: no caterpillar."""
    if n < 4:
        return metrics._merge_order(n, sweep)
    return [0, 1, 2, 3], [1, 3, 2], 3


def _lowered_gaps(n, sweep):
    """The sweep with every gap one rank lower: ascending, but not the edge maxima."""
    order, gaps, merges = metrics._merge_order(n, sweep)
    return order, [w - 1 for w in gaps], merges


_NOT_THE_CATERPILLAR = "GH space is not the caterpillar of its distance set: tree "
_STAR4 = "(('1', '2'), ('1', '3'), ('1', '4'))"


def test_scan_checks_each_gh_space_against_its_caterpillar(monkeypatch, capsys):
    for fed, mode, message in (
        (_two_cherries, EXHAUSTIVE, f"{_STAR4} labeled (1, 1, 2, 3) has sweep gaps (1, 3, 2)"),
        (_two_cherries, SAMPLED, f"{_STAR4} labeled (1, 3, 2, 1) has sweep gaps (1, 3, 2)"),
        (_lowered_gaps, EXHAUSTIVE, "(('1', '2'),) labeled (1, 1) has sweep gaps (0)"),
        (_lowered_gaps, SAMPLED, "(('1', '2'),) labeled (3, 1) has sweep gaps (2)"),
    ):
        monkeypatch.setattr(explore, "_merge_order", fed)
        with pytest.raises(InternalCheckError) as err:
            search_conjecture(SearchConfig(n_max=4, universe=U123, mode=mode))
        assert str(err.value) == _NOT_THE_CATERPILLAR + message
        # The default labels are U123: the command stops on the same space.
        assert main(["explore", "--max-n", "4", "--mode", mode]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == f"internal check failed: {_NOT_THE_CATERPILLAR}{message}"


def test_scan_checks_that_the_gaps_ascend_strictly(monkeypatch):
    # Not a GH pattern: the star's center has rank 2, above two leaves, so
    # two edges share the maximum 2: the sweep's gaps are the sorted
    # maxima, but not strictly ascending.
    star = ((0, 1), (0, 2), (0, 3))
    monkeypatch.setattr(explore, "_gh_patterns", lambda _n, _first, _k: iter([(star, (2, 1, 1, 3))]))
    with pytest.raises(InternalCheckError) as err:
        _scan_shard((SearchConfig(n_max=4, universe=U123), 4, 0))
    assert str(err.value) == (
        f"{_NOT_THE_CATERPILLAR}{_STAR4} labeled (2, 1, 1, 3) has sweep gaps (2, 2, 3)"
    )


_SWEEP_FAULTS = [
    # d(1,2) = d(3,4) = 1 and every other distance 2: no leaf under the root.
    (
        "leaf-child",
        "_merge_order",
        lambda _n, _sweep: ([0, 1, 2, 3], [1, 2, 1], 3),
        {
            EXHAUSTIVE: f"{_NOT_THE_CATERPILLAR}{_STAR4} labeled (1, 1, 2, 3) "
            "has sweep gaps (1, 2, 1)",
            SAMPLED: f"{_NOT_THE_CATERPILLAR}{_STAR4} labeled (1, 3, 2, 1) "
            "has sweep gaps (1, 2, 1)",
        },
    ),
    (
        "merge-count",
        "_merge_order",
        lambda _n, _sweep: ([0, 1, 2, 3], [1, 2, 3], 2),
        dict.fromkeys((EXHAUSTIVE, SAMPLED), "sweep made 2 merges on 4 connected vertices"),
    ),
]
# Only sampled mode decodes Pruefer sequences; exhaustive mode grows its trees.
_TREE_FAULTS = [
    ("tree", [(0, 1), (1, 2), (0, 2), (2, 3)]),
    # n - 1 edges that do not join n points: the sweep makes n - 2 merges.
    ("tree-triangle", [(0, 1), (1, 2), (0, 2)]),
    ("tree-duplicate", [(0, 1), (1, 2), (1, 2)]),
]


@pytest.mark.parametrize(
    "mode, name, fed, message",
    [
        pytest.param(mode, name, fed, messages[mode], id=f"{case}-{mode}")
        for case, name, fed, messages in _SWEEP_FAULTS
        for mode in (EXHAUSTIVE, SAMPLED)
    ]
    + [
        pytest.param(
            SAMPLED,
            "tree_from_pruefer",
            lambda _seq, _n, edges=edges: edges,
            "Pruefer sequence (0, 0) did not decode to a tree",
            id=f"{case}-{SAMPLED}",
        )
        for case, edges in _TREE_FAULTS
    ],
)
def test_scan_checks_each_tree_and_sweep(monkeypatch, mode, name, fed, message):
    monkeypatch.setattr(explore, name, fed)
    cfg = SearchConfig(n_max=4, universe=U123, mode=mode)
    with pytest.raises(InternalCheckError) as err:
        _scan_shard((cfg, 4, 0))
    assert str(err.value) == message


def _assert_sweep_decides_the_caterpillar(names, index_edges, ranks, ordered):
    """The sweep's gaps ascend strictly exactly when ``canon``'s route gives
    the caterpillar of the distance set; returns whether they do."""
    n = len(names)
    maxima = [max(ranks[i], ranks[j]) for i, j in index_edges]
    sweep = [(w, [pair]) for w, pair in sorted(zip(maxima, index_edges))]
    _order, gaps, merges = metrics._merge_order(n, sweep)
    assert merges == n - 1
    labels = {v: ordered[r] for v, r in zip(names, ranks)}
    edges = tuple((names[i], names[j]) for i, j in index_edges)
    form = canonical_form(graph_dendrogram(LabeledGraph(names, edges, labels)))
    caterpillar = _caterpillar_form((0, *(ordered[w] for w in sorted(set(maxima)))))
    ascending = all(a < b for a, b in zip(gaps, gaps[1:]))
    assert ascending == (form == caterpillar)
    return ascending


def test_rank_route_matches_the_graph_route_on_every_gh_pattern():
    # Every pattern up to n = 5, GH or not: the sweep check is canon's verdict.
    ordered = (0, *map(Fraction, range(1, 6)))
    ascending = 0
    for n in range(2, 6):
        names = tuple(str(i + 1) for i in range(n))
        patterns = oracles.weak_orders(n, 5)
        for seq in product(range(n), repeat=n - 2):
            index_edges = tree_from_pruefer(seq, n)
            for ranks in patterns:
                gh = len({max(ranks[i], ranks[j]) for i, j in index_edges}) == n - 1
                decided = _assert_sweep_decides_the_caterpillar(names, index_edges, ranks, ordered)
                assert decided == gh
                ascending += gh
    # The counting of the explore docstring: B = n!(n - 1)! GH patterns
    # with n values and A = B / 2 with n - 1.
    b = {n: factorial(n) * factorial(n - 1) for n in range(2, 6)}
    assert ascending == sum(b[n] // 2 + b[n] for n in b)


@given(st.data())
def test_rank_route_matches_the_graph_route_on_sampled_ranks(data):
    n = data.draw(st.integers(2, 8))
    seq = tuple(data.draw(st.integers(0, n - 1)) for _ in range(n - 2))
    index_edges = tree_from_pruefer(seq, n)
    k = data.draw(st.integers(n, 400))
    step = data.draw(
        st.fractions(min_value=Fraction(1, 12), max_value=9, max_denominator=12).filter(
            lambda q: q.denominator > 1
        )
    )
    ordered = (0, *(step * r for r in range(1, k + 1)))
    names = tuple(f"v{i}" for i in range(n))
    if data.draw(st.booleans()):
        ranks = tuple(data.draw(st.integers(1, k)) for _ in range(n))
        gh = len({max(ranks[i], ranks[j]) for i, j in index_edges}) == n - 1
        assert _assert_sweep_decides_the_caterpillar(names, index_edges, ranks, ordered) == gh
        return
    # A GH labeling: grow the tree from a root, each new vertex joined to
    # one earlier vertex and labeled above every earlier one, so each
    # edge's maximum is its later end's label; the root may tie its first
    # neighbour.
    grown = [data.draw(st.integers(0, n - 1))]
    while len(grown) < n:
        frontier = sorted(
            {j for i, j in index_edges if i in grown and j not in grown}
            | {i for i, j in index_edges if j in grown and i not in grown}
        )
        grown.append(data.draw(st.sampled_from(frontier)))
    values = sorted(data.draw(st.sets(st.integers(1, k), min_size=n, max_size=n)))
    if data.draw(st.booleans()):
        values[0] = values[1]
    ranks = [0] * n
    for v, r in zip(grown, values):
        ranks[v] = r
    assert _assert_sweep_decides_the_caterpillar(names, index_edges, tuple(ranks), ordered)


def _gh_counts(n, k):
    """An exhaustive run's counts from n and k = |U| alone.

    The counting of the :mod:`ultragraph.explore` docstring, with
    B = n!(n - 1)! and A = B / 2 put in for the scan's tallies.
    """
    b = factorial(n) * factorial(n - 1)
    a = b // 2
    gh = a * comb(k, n - 1) + b * comb(k, n)
    pairs = sum(comb(k - lo, n - 2) * comb(a + b * (lo - 1), 2) for lo in range(1, k + 1))
    return n ** (n - 2), n ** (n - 2) * k**n, gh, pairs


def _assert_counting_arguments(n_max, universe):
    report = search_conjecture(SearchConfig(n_max=n_max, universe=universe))
    k = len(report.universe)
    assert [
        (r.trees_examined, r.labelings_examined, r.gh_spaces, r.pairs_tested)
        for r in report.runs
    ] == [_gh_counts(n, k) for n in range(2, n_max + 1)]
    assert report.counterexamples == ()


@pytest.mark.parametrize("n_max, k", [(5, 1), (5, 2), (5, 3), (5, 4), (4, 5), (4, 6)])
def test_exhaustive_counts_follow_the_counting_arguments(n_max, k):
    _assert_counting_arguments(n_max, tuple(range(1, k + 1)))


@given(_universes(6), st.integers(2, 4))
def test_counting_arguments_hold_on_any_universe(universe, n_max):
    _assert_counting_arguments(n_max, tuple(universe))


def _traced_peak(run):
    """The ``tracemalloc`` peak of ``run()``; call with gc disabled."""
    # CPython keeps up to 2000 freed tuples of each small size for
    # reuse, and tracemalloc counts them: fill those free lists with
    # untraced tuples first, so that the peak is the scan's own.
    sizes = [list(range(size)) for size in range(1, 20)]
    spare = [tuple(items) for items in sizes for _ in range(2000)]
    del spare
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampled_memory_does_not_grow_with_the_samples():
    def peak(samples):
        cfg = SearchConfig(n_max=4, universe=U123, mode=SAMPLED, samples_per_tree=samples)
        return _traced_peak(lambda: search_conjecture(cfg))

    gc.disable()  # a full collection empties the free lists
    try:
        peak(200)  # first-use allocations
        assert peak(200) - peak(20) < 32_000
    finally:
        gc.enable()


def test_exhaustive_cost_does_not_grow_with_the_labels():
    # Each GH pattern is checked once, whatever the number of labelings
    # it stands for: C(400, 5) of them for each 5-value pattern.
    long, short = (SearchConfig(n_max=5, universe=range(1, k + 1)) for k in (400, 5))
    start = time.perf_counter()
    report = search_conjecture(long)
    assert time.perf_counter() - start < 10
    assert [
        (r.trees_examined, r.labelings_examined, r.gh_spaces, r.pairs_tested)
        for r in report.runs
    ] == [_gh_counts(n, 400) for n in range(2, 6)]
    # Every allocation of a scan happens in its shards; trace one n = 5
    # shard of each (the whole search runs seven times slower traced).
    gc.disable()  # a full collection empties the free lists
    try:
        peaks = [_traced_peak(lambda: _scan_shard((cfg, 5, 0))) for cfg in (long, short)]
        assert peaks[0] - peaks[1] < 32_000
    finally:
        gc.enable()


def test_scan_builds_no_matrix(monkeypatch):
    # GH is decided from the edge maxima: no sweep to a matrix, no validation;
    # and the proposition is checked on the edge sweep: no dendrogram, no form.
    def no_matrix(*_args):
        raise AssertionError("the scan built a distance matrix")

    def no_dendrogram(*_args, **_kwargs):
        raise AssertionError("the scan built a dendrogram or its form")

    def no_graph(*_args):
        raise AssertionError("the scan built a graph or searched one")

    for module in (analysis, metrics):
        monkeypatch.setattr(module, "_bottleneck_rows", no_matrix)
        monkeypatch.setattr(module, "_validate_rows", no_matrix)
    monkeypatch.setattr(dendrograms, "_replay", no_dendrogram)
    monkeypatch.setattr(dendrograms, "canonical_form", no_dendrogram)
    # A tree is checked by one sweep over its index pairs: no graph, no BFS.
    monkeypatch.setattr(graphs.LabeledGraph, "_store", no_graph)
    monkeypatch.setattr(graphs, "_bfs", no_graph)
    # Nor could the scan reach them by a name of its own.
    assert not {"_replay", "canonical_form", "dendrograms", "LabeledGraph", "is_tree"} & set(
        vars(explore)
    )

    def no_decoding(*_args):
        raise AssertionError("exhaustive mode decoded a Pruefer sequence")

    # Exhaustive mode grows its trees from orders.
    monkeypatch.setattr(explore, "_pruefer_block", no_decoding)
    monkeypatch.setattr(explore, "tree_from_pruefer", no_decoding)
    kwargs, digest = PINNED_REPORTS[0]
    report = search_conjecture(SearchConfig(**kwargs)).to_json()
    assert hashlib.sha256(report.encode()).hexdigest() == digest


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_shards_split_the_pruefer_sequences_in_order(n):
    prefixes = [0] if n == 2 else range(n)
    blocks = [item for p in prefixes for item in _pruefer_block(n, p)]
    assert blocks == list(enumerate(product(range(n), repeat=n - 2)))


def test_pool_never_exceeds_shards_or_cpus(monkeypatch):
    sizes = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor; runs the shards in-process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    expected = search_conjecture(SearchConfig(n_max=4, universe=U123)).to_json()
    # Exhaustive shards, one per first vertex but the last: 2 at n = 3, 3 at n = 4.
    for cpus, pools in ((64, [2, 3]), (2, [2, 2]), (1, []), (None, [])):
        sizes.clear()
        monkeypatch.setattr(explore.os, "cpu_count", lambda: cpus)
        cfg = SearchConfig(n_max=4, universe=U123, jobs=10**6)
        assert search_conjecture(cfg).to_json() == expected
        # n=2 is a single shard and never gets a pool
        assert sizes == pools


def test_cli_import_loads_no_process_pool():
    # The pool is imported where a search first needs one, not at start-up.
    probe = (
        "import sys, ultragraph.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    )
    src = str(Path(explore.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_progress_reports_once_per_size():
    lines = []
    search_conjecture(SearchConfig(n_max=3, universe=U123), progress=lines.append)
    assert len(lines) == 2
    assert lines[0].startswith("n=2:")
    assert lines[1].startswith("n=3:")


def test_bucket_groups_by_exact_distance_set():
    p = distance_matrix(path_graph(1, 2, 3, 4))
    s = distance_matrix(star_graph(1, 2, 3, 4))
    q = distance_matrix(path_graph(1, 2, 3))
    buckets = bucket_by_distance_set([p, s, q])
    assert set(buckets) == {(0, 2, 3, 4), (0, 2, 3)}
    assert buckets[(0, 2, 3, 4)] == [p, s]


def test_bucket_refuses_non_gh_spaces():
    with pytest.raises(ValueError):
        bucket_by_distance_set([distance_matrix(path_graph(3, 2, 3))])

