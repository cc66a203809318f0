"""The distance-set collision search over small labeled trees."""

import hashlib
import json
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import path_graph, star_graph
from ultragraph import (
    EXHAUSTIVE,
    SAMPLED,
    CapExceededError,
    Counterexample,
    InternalCheckError,
    LabeledGraph,
    MatrixInvariantError,
    NotUltrametricError,
    SearchConfig,
    SpaceWitness,
    bucket_by_distance_set,
    canonical_form,
    dendrogram,
    distance_matrix,
    distance_set,
    enumerate_trees,
    is_gh,
    reverify_counterexample,
    search_conjecture,
    tree_from_pruefer,
    tree_gh_report,
    write_counterexample_files,
)
from ultragraph import analysis, explore
from ultragraph.analysis import _tree_criteria
from ultragraph.explore import _labelings, _pruefer_block

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
    assert run.counterexamples == ()


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


# sha256 of search_conjecture(...).to_json(), recorded before the scan
# moved to label ranks; the rank route must reproduce them byte for byte.
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
        dict(n_max=4, universe=(1, 2, 3, 4), reduce_symmetry=True),
        "a99b3c9a440369e4207b41189b6a866f592d71ac5954c2d6962521a45c2b7175",
    ),
    (
        dict(n_max=4, universe=("1/3", "1/2", 7)),
        "831522168c43970c9909ede63f569102673d357b9787356ab0027d5a8915b04d",
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
    verdicts = _tree_criteria(names, index_edges, ranks, 2 * (n - 1))
    assert verdicts == tree_gh_report(g)
    distances = set(oracles.path_enumeration_distances(g).values()) | {0}
    assert verdicts == (len(distances) == n,) * 4


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


def test_symmetry_reduction_prunes_without_changing_the_verdict():
    naive = search_conjecture(SearchConfig(n_max=3, universe=U123))
    reduced = search_conjecture(SearchConfig(n_max=3, universe=U123, reduce_symmetry=True))
    assert reduced.counterexamples == ()
    naive_run = naive.runs[1]
    reduced_run = reduced.runs[1]
    # the 3-point paths have one flip each, so about half the labelings go
    assert reduced_run.labelings_examined < naive_run.labelings_examined
    assert reduced_run.gh_spaces < naive_run.gh_spaces


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


def _witness_for(g: LabeledGraph) -> SpaceWitness:
    return SpaceWitness(graph=g, canonical=canonical_form(dendrogram(distance_matrix(g))))


def test_reverification_rejects_fabricated_counterexamples():
    path = path_graph(1, 2, 3, 4)
    star = star_graph(1, 2, 3, 4)
    dset = distance_set(distance_matrix(path))

    # isometric pair: equal canonical forms
    assert not reverify_counterexample(
        Counterexample(4, dset, _witness_for(path), _witness_for(star))
    )
    # stated distance set does not match the graphs
    assert not reverify_counterexample(
        Counterexample(4, (Fraction(0), Fraction(9)), _witness_for(path), _witness_for(star))
    )
    # stated canonical form does not match the graph
    assert not reverify_counterexample(
        Counterexample(
            4,
            dset,
            SpaceWitness(graph=path, canonical="(9··)"),
            _witness_for(star),
        )
    )
    # ultrametric but not GH
    flat = path_graph(3, 2, 3)
    assert not reverify_counterexample(
        Counterexample(
            3,
            distance_set(distance_matrix(flat)),
            _witness_for(flat),
            _witness_for(flat),
        )
    )
    # A fabricated pair that would re-verify does not exist in these
    # universes; the search itself asserts re-verification on anything
    # it ever reports.


def test_counterexample_files_round_trip(tmp_path):
    report = search_conjecture(SearchConfig(n_max=3, universe=U123))
    assert write_counterexample_files(report, tmp_path) == []
    assert list(tmp_path.iterdir()) == []

    # force the writer down its real path with a fabricated report entry
    fake = Counterexample(
        4,
        distance_set(distance_matrix(path_graph(1, 2, 3, 4))),
        _witness_for(path_graph(1, 2, 3, 4)),
        _witness_for(star_graph(1, 2, 3, 4)),
    )
    from ultragraph.explore import ConjectureReport, RunRecord

    doctored = ConjectureReport(
        n_max=4,
        universe=U123,
        mode=EXHAUSTIVE,
        seed=0,
        samples_per_tree=100,
        reduce_symmetry=False,
        runs=(RunRecord(4, 16, 81, 30, 13, (fake,)),),
    )
    written = write_counterexample_files(doctored, tmp_path / "out")
    assert [p.name for p in written] == [
        "counterexample_n4_000_a.graph",
        "counterexample_n4_000_b.graph",
    ]
    from ultragraph import parse_graph

    assert parse_graph(written[0].read_text()) == fake.first.graph
    assert parse_graph(written[1].read_text()) == fake.second.graph
