"""The count of GH spaces per distance set over small labeled trees."""

import gc
import hashlib
import json
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import islice, product
from math import comb, factorial

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
    MatrixInvariantError,
    Merge,
    NotUltrametricError,
    SearchConfig,
    canonical_form,
    dendrogram,
    distance_matrix,
    enumerate_trees,
    is_gh,
    search_conjecture,
    tree_from_pruefer,
    tree_gh_report,
)
from ultragraph import analysis, explore
from ultragraph.analysis import _tree_criteria
from ultragraph.cli import main
from ultragraph.explore import _labelings, _patterns, _pruefer_block, _scan_shard

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
# moved to label ranks (the first three) and before exhaustive mode
# checked label patterns (the last two); the scan must reproduce them
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
        patterns = _patterns(n, k)
        assert len(patterns) == sum(
            factorial(m) * _stirling2(n, m) for m in range(1, min(n, k) + 1)
        )
        assert sum(count for _, count in patterns) == k**n
        for pattern, count in patterns:
            assert set(pattern) == set(range(1, max(pattern) + 1))
            assert count == comb(k, max(pattern))


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
    for prefix in [0] if n == 2 else range(n):
        task = (cfg, n, prefix)
        trees, labelings, entries = oracles.reference_scan_shard(task)
        counts = Counter(entry[3] for entry in entries)
        shard_trees, shard_labelings, tally = _scan_shard(task)
        assert (shard_trees, shard_labelings) == (trees, labelings)
        if mode == SAMPLED:
            assert tally == counts
        else:
            # a GH pattern with m values stands for its C(k, m) labelings
            assert Counter({m: c * comb(k, m) for m, c in tally.items()}) == Counter(
                len(set(entry[1])) for entry in entries
            )
        reference += counts
        for entry in entries:
            assert entry[4] == _caterpillar_form(entry[3])
    run = search_conjecture(cfg).runs[-1]
    assert run.gh_spaces == sum(reference.values())
    assert run.pairs_tested == sum(comb(c, 2) for c in reference.values())


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_tallies_count_the_recursive_trees(n):
    cfg = SearchConfig(n_max=n, universe=tuple(range(1, n + 1)))
    shards = [_scan_shard((cfg, n, prefix)) for prefix in ([0] if n == 2 else range(n))]
    b = factorial(n) * factorial(n - 1)
    assert sum((tally for _t, _l, tally in shards), Counter()) == Counter({n - 1: b // 2, n: b})


def test_scan_checks_each_gh_space_against_its_caterpillar(monkeypatch, capsys):
    monkeypatch.setattr(explore, "canonical_form", lambda _node: "(9··)")
    with pytest.raises(InternalCheckError) as err:
        search_conjecture(SearchConfig(n_max=2, universe=U123))
    assert str(err.value) == (
        "GH space is not the caterpillar of its distance set: "
        "tree (('1', '2'),) labeled (1, 1) has form (9··), not (1··)"
    )
    assert main(["explore", "--max-n", "2"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal check failed: GH space is not the caterpillar")


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
    _patterns(5, 5)  # cached outside the trace, as _patterns(5, 400) is
    gc.disable()  # a full collection empties the free lists
    try:
        peaks = [_traced_peak(lambda: _scan_shard((cfg, 5, 0))) for cfg in (long, short)]
        assert peaks[0] - peaks[1] < 32_000
    finally:
        gc.enable()


def test_rank_route_keeps_validate_and_the_ultrametric_check(monkeypatch):
    real = analysis._bottleneck_rows

    def bent(vertices, weighted):
        rows = real(vertices, weighted)
        rows[0][-1] += 1
        return rows

    monkeypatch.setattr(analysis, "_bottleneck_rows", bent)
    with pytest.raises(MatrixInvariantError):
        search_conjecture(SearchConfig(n_max=3, universe=U123))
    # all zero: a valid pseudoultrametric, but not an ultrametric
    monkeypatch.setattr(analysis, "_bottleneck_rows", lambda vs, _w: [[0] * len(vs) for _ in vs])
    with pytest.raises(NotUltrametricError):
        search_conjecture(SearchConfig(n_max=3, universe=U123))


def test_scan_checks_that_gh_patterns_have_n_minus_1_values(monkeypatch, capsys):
    # With fewer values a GH pattern would drop out of the tallies.
    monkeypatch.setattr(explore, "_tree_criteria", lambda *_args: (True,) * 4)
    with pytest.raises(InternalCheckError) as err:
        search_conjecture(SearchConfig(n_max=3, universe=U123))
    message = (
        "GH labeling with 1 < n - 1 values: "
        "tree (('1', '2'), ('1', '3')), label ranks (1, 1, 1)"
    )
    assert str(err.value) == message
    assert main(["explore", "--max-n", "3"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    # after the n = 2 progress line
    assert err.endswith(f"\ninternal check failed: {message}\n")


def test_scan_cross_checks_the_four_criteria(monkeypatch):
    monkeypatch.setattr(explore, "_tree_criteria", lambda *_args: (True, False, True, True))
    with pytest.raises(InternalCheckError, match="criteria disagree"):
        search_conjecture(SearchConfig(n_max=2, universe=U123))


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

    monkeypatch.setattr(explore, "ProcessPoolExecutor", RecordingPool)
    expected = search_conjecture(SearchConfig(n_max=4, universe=U123)).to_json()
    for cpus, pools in ((64, [3, 4]), (2, [2, 2]), (1, []), (None, [])):
        sizes.clear()
        monkeypatch.setattr(explore.os, "cpu_count", lambda: cpus)
        cfg = SearchConfig(n_max=4, universe=U123, jobs=10**6)
        assert search_conjecture(cfg).to_json() == expected
        # n=2 is a single shard and never gets a pool
        assert sizes == pools


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

