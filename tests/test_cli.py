"""Drive the command-line interface end to end through main()."""

import hashlib
import json
import os
import random
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from fractions import Fraction
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import LABEL_POOL, PARSE_CASES, connected_graphs, graph_on, recursion_headroom
from ultragraph import (
    DisconnectedGraphError,
    DistanceMatrix,
    LabeledGraph,
    Leaf,
    Merge,
    WeightedGraph,
    analysis,
    canonical_form,
    cli,
    connectivity_witness,
    dendrogram,
    dendrograms,
    distance_matrix,
    metrics,
    parse_graph,
    rho_w,
    zero_quotient,
)
from ultragraph.cli import main
from ultragraph.dendrograms import to_json_dict
from ultragraph.graphs import DEFAULT_CYCLE_CAP
from ultragraph.metrics import DEFAULT_ORACLE_CAP

P3 = "v a 1\nv b 2\nv c 3\ne a b\ne b c\n"
P3_FLAT = "v a 3\nv b 2\nv c 3\ne a b\ne b c\n"
TRIANGLE = "v a 1\nv b 2\nv c 3\ne a b\ne b c\ne a c\n"
DEGENERATE = "v a 0\nv b 0\nv c 1\ne a b\ne b c\n"
DISCONNECTED = "v a 1\nv b 2\nv c 3\ne a b\n"
PATH4 = "v a 1\nv b 2\nv c 3\nv d 4\ne a b\ne b c\ne c d\n"
STAR4 = "v a 1\nv b 2\nv c 3\nv d 4\ne a b\ne a c\ne a d\n"
WEIGHTED_BAD = "v a\nv b\nv c\ne a b 1\ne b c 2\ne a c 3\n"
WEIGHTED_GOOD = "v a\nv b\nv c\ne a b 1\ne b c 3\ne a c 3\n"


@pytest.fixture
def graph_file(tmp_path):
    def write(text, name="g.graph"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


# -- dist ----------------------------------------------------------------


def test_dist_text(graph_file, capsys):
    assert main(["dist", graph_file(P3)]) == 0
    assert capsys.readouterr().out == (
        "   a  b  c\n"
        "a  0  2  3\n"
        "b  2  0  3\n"
        "c  3  3  0\n"
    )


def test_dist_csv(graph_file, capsys):
    assert main(["dist", graph_file(P3), "--format", "csv"]) == 0
    assert capsys.readouterr().out == "a,b,c\n0,2,3\n2,0,3\n3,3,0\n"


def test_dist_json_round_trips(graph_file, capsys):
    assert main(["dist", graph_file(P3), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert DistanceMatrix.from_json_dict(doc) == distance_matrix(parse_graph(P3))


def test_dist_oracle_agrees(graph_file, capsys):
    assert main(["dist", graph_file(TRIANGLE), "--oracle"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[0] == "   a  b  c"


# A 9-vertex path a .. iii labeled 3 0 5 5 2 7/2 1 5 4, with three chords.
NINE = (
    "".join(
        f"v {v} {x}\n"
        for v, x in zip(
            ("a", "bb", "ccc", "dddd", "eeeee", "ffffff", "g", "hh", "iii"),
            ("3", "0", "5", "5", "2", "7/2", "1", "5", "4"),
        )
    )
    + "e a bb\ne bb ccc\ne ccc dddd\ne dddd eeeee\ne eeeee ffffff\ne ffffff g\n"
    + "e g hh\ne hh iii\ne a eeeee\ne ccc g\ne bb iii\n"
)


def test_dist_oracle_checks_the_printed_cells(graph_file, monkeypatch, capsys):
    from ultragraph import layout

    path = graph_file(NINE)
    assert main(["dist", "--format", "csv", path]) == 0
    truth = capsys.readouterr().out

    record_chains = layout._record_chains
    calls = []

    def skipping(gaps):
        # The leaf order is a, bb, eeeee, ffffff, g, ...: from g leftwards,
        # the chain jumps from gap 3 past gap 2 to gap 0, so d(g, a) shows 3.
        # Each print takes the chains of the order, then of its mirror, where
        # gap k of the 8 is gap 7 - k: the fault is the mirror's jump 4 -> 7.
        nge, run = record_chains(gaps)
        calls.append(gaps)
        if len(calls) % 2 == 0:
            nge[4] = 7
        return nge, run

    monkeypatch.setattr(layout, "_record_chains", skipping)
    assert main(["dist", "--format", "csv", path]) == 0
    shown = capsys.readouterr().out
    wrong = [
        (i, j)
        for i, (row, good) in enumerate(zip(shown.splitlines(), truth.splitlines()))
        for j, (d, q) in enumerate(zip(row.split(","), good.split(",")))
        if d != q
    ]
    assert wrong == [(7, 0)]  # line 7 is row g, under the header
    for fmt in ("text", "csv"):
        assert main(["dist", "--oracle", "--format", fmt, path]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "oracle mismatch at (g, a): sweep=3 paths=7/2\n"


def test_dist_single_vertex(graph_file, capsys):
    assert main(["dist", graph_file("v a 0\n")]) == 0
    assert capsys.readouterr().out == "   a\na  0\n"


def test_dist_disconnected_names_a_witness_pair(graph_file, capsys):
    assert main(["dist", graph_file(DISCONNECTED)]) == 2
    assert "no path joins 'a' and 'c'" in capsys.readouterr().err


def test_disconnected_witness_is_quoted_bounded(graph_file, capsys):
    long = "x" * 1_000_000
    path = graph_file(f"v a 1\nv b 2\nv {long} 3\ne a b\n")
    for command in ("check", "dist", "quotient", "canon"):
        assert main([command, path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: graph is disconnected: no path joins 'a' and "
            f"{long[:64]!r}… (1000000 characters)\n"
        )


def test_dist_malformed_input(graph_file, capsys):
    assert main(["dist", graph_file("v a one\ne a a\n")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_dist_missing_file(tmp_path, capsys):
    assert main(["dist", str(tmp_path / "nope.graph")]) == 2
    assert capsys.readouterr().err.startswith("error:")


# -- check ---------------------------------------------------------------


def test_check_gh_tree(graph_file, capsys):
    assert main(["check", graph_file(P3)]) == 0
    assert capsys.readouterr().out == (
        "vertices: 3\n"
        "edges: 2\n"
        "classification: ultrametric\n"
        "distance set: 0 2 3\n"
        "gh: true\n"
        "gomory-hu holds: true\n"
        "edge bound holds: true\n"
        "tree equivalences: true true true true\n"
    )


def test_check_non_gh_tree(graph_file, capsys):
    assert main(["check", graph_file(P3_FLAT)]) == 1
    out = capsys.readouterr().out
    assert "distance set: 0 3\n" in out
    assert "gh: false\n" in out
    assert "tree equivalences: false false false false\n" in out


def test_check_triangle_has_no_tree_line(graph_file, capsys):
    assert main(["check", graph_file(TRIANGLE)]) == 0
    out = capsys.readouterr().out
    assert "gh: true\n" in out
    assert "tree equivalences" not in out


def test_check_degenerate(graph_file, capsys):
    assert main(["check", graph_file(DEGENERATE)]) == 1
    out = capsys.readouterr().out
    assert "classification: pseudoultrametric-only\n" in out
    assert "gh:" not in out
    assert "gomory-hu holds: true\n" in out


def test_check_json(graph_file, capsys):
    assert main(["check", graph_file(P3), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["gh"] is True
    assert doc["distance_set"] == ["0", "2", "3"]
    assert doc["tree_equivalences"] == [True, True, True, True]

    assert main(["check", graph_file(DEGENERATE), "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert "gh" not in doc
    assert "tree_equivalences" not in doc


# -- label ---------------------------------------------------------------


def test_label_output_is_gh(graph_file, capsys):
    assert main(["label", graph_file(TRIANGLE)]) == 0
    out = capsys.readouterr().out
    assert out == "v a 1\nv b 2\nv c 3\ne a b\ne b c\ne a c\n"
    assert main(["check", graph_file(out, name="relabeled.graph")]) == 0


def test_label_with_root(graph_file, capsys):
    assert main(["label", graph_file(P3), "--root", "c"]) == 0
    assert capsys.readouterr().out == "v a 3\nv b 2\nv c 1\ne a b\ne b c\n"


def test_label_unknown_root(graph_file, capsys):
    assert main(["label", graph_file(P3), "--root", "q"]) == 2


def test_label_root_needs_a_tree(graph_file, capsys):
    assert main(["label", graph_file(TRIANGLE), "--root", "a"]) == 2


# -- quotient ------------------------------------------------------------


def test_quotient_collapses_zero_classes(graph_file, capsys):
    assert main(["quotient", graph_file(DEGENERATE)]) == 0
    assert capsys.readouterr().out == (
        "representatives: a c\n"
        "   a  c\n"
        "a  0  1\n"
        "c  1  0\n"
    )


def test_quotient_identity_notice(graph_file, capsys):
    assert main(["quotient", graph_file(P3)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("representatives: a b c\n")
    assert "note: every class is a singleton" in out


def test_quotient_csv(graph_file, capsys):
    assert main(["quotient", graph_file(DEGENERATE), "--format", "csv"]) == 0
    assert capsys.readouterr().out == "a,c\n0,1\n1,0\n"


def test_quotient_json(graph_file, capsys):
    assert main(["quotient", graph_file(DEGENERATE), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["representatives"] == ["a", "c"]
    assert doc["identity"] is False
    assert doc["matrix"] == [["0", "1"], ["1", "0"]]


# -- realizable ----------------------------------------------------------


def test_realizable_no_with_witness(graph_file, capsys):
    assert main(["realizable", graph_file(WEIGHTED_BAD)]) == 1
    assert capsys.readouterr().out == (
        "realizable: no\n"
        "witness: a c weight=3 rho=2\n"
    )


def test_realizable_yes(graph_file, capsys):
    assert main(["realizable", graph_file(WEIGHTED_GOOD)]) == 0
    assert capsys.readouterr().out == "realizable: yes\n"


def test_realizable_tree_is_always_yes(graph_file, capsys):
    assert main(["realizable", graph_file("v a\nv b\nv c\ne a b 5\ne b c 1/2\n")]) == 0
    assert capsys.readouterr().out == "realizable: yes\n"


@pytest.mark.parametrize("text,rc", [(WEIGHTED_BAD, 1), (WEIGHTED_GOOD, 0)])
def test_realizable_oracle_agrees(graph_file, capsys, text, rc):
    assert main(["realizable", graph_file(text), "--oracle"]) == rc
    assert capsys.readouterr().err == ""


def test_realizable_oracle_reports_a_disagreement(graph_file, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_cycle_criterion", lambda wg: False)
    assert main(["realizable", "--oracle", graph_file(WEIGHTED_GOOD)]) == 3
    assert capsys.readouterr() == (
        "",
        "oracle mismatch: edge check says True, cycle enumeration says False\n",
    )


def test_realizable_rejects_bad_weight(graph_file, capsys):
    assert main(["realizable", graph_file("v a\nv b\ne a b x\n")]) == 2


def test_realizable_ignores_vertex_labels(graph_file, capsys):
    assert main(["realizable", graph_file("v a 7\nv b\ne a b 5\n")]) == 0


# -- canon / isometric ----------------------------------------------------


def test_canon_single(graph_file, capsys):
    assert main(["canon", graph_file(P3)]) == 0
    assert capsys.readouterr().out == "(3(2··)·)\n"


def test_canon_many_files_one_line_each(graph_file, capsys):
    a = graph_file("v a 5\nv b 5\ne a b\n", name="two.graph")
    b = graph_file(P3, name="three.graph")
    assert main(["canon", a, b]) == 0
    assert capsys.readouterr().out == "(5··)\n(3(2··)·)\n"


def test_canon_json(graph_file, capsys):
    assert main(["canon", graph_file(P3), "--format", "json"]) == 0
    (entry,) = json.loads(capsys.readouterr().out)
    assert entry["canonical_form"] == "(3(2··)·)"
    assert entry["dendrogram"]["height"] == "3"


def test_canon_degenerate_suggests_quotient(graph_file, capsys):
    assert main(["canon", graph_file(DEGENERATE)]) == 2
    assert "run 'quotient' first" in capsys.readouterr().err


def test_isometric_path_and_star(graph_file, capsys):
    a = graph_file(PATH4, name="p.graph")
    b = graph_file(STAR4, name="s.graph")
    assert main(["isometric", a, b]) == 0
    assert capsys.readouterr().out == "true\n"


def test_isometric_negative(graph_file, capsys):
    a = graph_file(P3, name="p.graph")
    b = graph_file("v a 1\nv b 2\nv c 4\ne a b\ne b c\n", name="q.graph")
    assert main(["isometric", a, b]) == 1
    assert capsys.readouterr().out == "false\n"


def test_isometric_degenerate(graph_file, capsys):
    a = graph_file(DEGENERATE, name="p.graph")
    b = graph_file(P3, name="q.graph")
    assert main(["isometric", a, b]) == 2
    assert main(["isometric", b, a]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    note = f"{a}: degenerate labeling gives only a pseudoultrametric; run 'quotient' first\n"
    assert err == note * 2


# -- explore ---------------------------------------------------------------


def test_explore_small_run(graph_file, capsys):
    assert main(["explore", "--max-n", "3"]) == 0
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert [r["n"] for r in doc["runs"]] == [2, 3]
    assert [r["gh_spaces"] for r in doc["runs"]] == [9, 30]
    assert all(r["counterexamples"] == [] for r in doc["runs"])
    assert "n=2:" in err and "n=3:" in err


def test_explore_jobs_do_not_change_the_report(capsys):
    assert main(["explore", "--max-n", "3", "--jobs", "1"]) == 0
    first = capsys.readouterr().out
    assert main(["explore", "--max-n", "3", "--jobs", "2"]) == 0
    assert capsys.readouterr().out == first


def test_explore_has_no_out_dir(capsys):
    # The caterpillar check leaves no counterexample to write out.
    with pytest.raises(SystemExit) as exit_:
        main(["explore", "--max-n", "2", "--out-dir", "witnesses"])
    assert exit_.value.code == 2
    assert "--out-dir" in capsys.readouterr().err


def test_explore_rejects_bad_universe(monkeypatch, capsys):
    # Each value is refused before any search starts, by the graph-file
    # rules for labels: one error line, exit 2, in well under a second.
    def no_search(*args, **kwargs):
        raise AssertionError("the search started")

    monkeypatch.setattr(cli, "search_conjecture", no_search)
    for labels in ("1,0,2", "2/0", "1e9999999", "1e4300", "x", "-1"):
        start = time.perf_counter()
        assert main(["explore", "--labels", labels]) == 2, labels
        assert time.perf_counter() - start < 1, labels
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (labels, err)
    assert main(["explore", "--max-n", "1"]) == 2
    capsys.readouterr()


def test_digit_separators_are_refused_on_every_version(graph_file, monkeypatch, capsys):
    # Fraction accepts "1_000" from Python 3.11 on; the grammar has no "_".
    def no_search(*args, **kwargs):
        raise AssertionError("the search started")

    monkeypatch.setattr(cli, "search_conjecture", no_search)
    for token in ("1_000", "1e1_0"):
        labeled = graph_file(f"v a {token}\nv b 1\ne a b\n", "l.graph")
        weighted = graph_file(f"v a\nv b\ne a b {token}\n", "w.graph")
        for argv, message in (
            (["check", labeled], "line 1: malformed label"),
            (["realizable", weighted], "line 3: malformed weight"),
            (["explore", "--labels", f"1,{token}"], "malformed label"),
        ):
            assert main(argv) == 2, argv
            assert capsys.readouterr() == ("", f"error: {message} {token!r}\n")


def test_unicode_decimal_digits_are_read_as_fraction_reads_them(graph_file, capsys):
    # Arabic-Indic 12 and a full-width 3: Fraction reads any Unicode decimal
    # digit, and so does the grammar.  A superscript 2 is a digit to
    # str.isdigit but not a decimal one, and is refused.
    assert main(["check", graph_file("v a ١٢\nv b ３/2\nv c 1\ne a b\ne b c\n")]) == 0
    assert capsys.readouterr() == (
        "vertices: 3\n"
        "edges: 2\n"
        "classification: ultrametric\n"
        "distance set: 0 3/2 12\n"
        "gh: true\n"
        "gomory-hu holds: true\n"
        "edge bound holds: true\n"
        "tree equivalences: true true true true\n",
        "",
    )
    assert main(["check", graph_file("v a ²\nv b 1\ne a b\n")]) == 2
    assert capsys.readouterr() == ("", "error: line 1: malformed label '²'\n")


# -- pinned outputs --------------------------------------------------------

# Label spellings with ties, zeros and one value written three ways.
_LABEL_POOLS = (
    ("0", "1", "2"),
    ("1/2", "2/4", "0.5", "1", "3"),
    ("0", "0", "1/3", "2", "7/3"),
    ("1", "2", "3", "4", "5", "6", "7", "8"),
    ("0", "1/2", "2/4", "0.5", "5/7", "10/14"),
)


def _random_edges(rng, n, extra):
    """A random spanning tree on ``range(n)`` plus each other pair with
    probability ``extra``, shuffled and randomly oriented."""
    edges = {tuple(sorted((v, rng.randrange(v)))) for v in range(1, n)}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < extra:
                edges.add((i, j))
    edges = [(j, i) if rng.random() < 0.5 else (i, j) for i, j in sorted(edges)]
    rng.shuffle(edges)
    return edges


def _graph_doc(names, tokens, edges, weights=None):
    lines = [f"v {v} {t}" for v, t in zip(names, tokens)]
    for k, (i, j) in enumerate(edges):
        w = "" if weights is None else f" {weights[k]}"
        lines.append(f"e {names[i]} {names[j]}{w}")
    return "\n".join(lines) + "\n"


def _labeled_corpus():
    """Seeded labeled documents: single vertices, a zero-labeled edge, a
    zero label with no zero edge, ``1/2 = 2/4 = 0.5``, a disconnected
    graph, a 150-vertex ascending path (a 149-level dendrogram), 60 small
    random graphs and one 45-vertex dense graph."""
    rng = random.Random(4041)
    docs = [
        "v a 0\n",
        "v solo 5/3\n",
        "v a 0\nv b 0\nv c 1\ne a b\ne b c\n",
        "v a 0\nv b 2\nv c 0\nv d 1\ne a b\ne b c\ne c d\n",
        "v a 1/2\nv b 2/4\nv c 0.5\nv d 1\ne a b\ne b c\ne c d\ne d a\n",
        DISCONNECTED,
        _graph_doc(
            [f"p{i}" for i in range(150)], range(1, 151), [(i, i + 1) for i in range(149)]
        ),
    ]
    for k in range(60):
        n = rng.randint(2, 12)
        names = [f"v{i}" for i in rng.sample(range(100), n)]
        pool = _LABEL_POOLS[k % len(_LABEL_POOLS)]
        tokens = [rng.choice(pool) for _ in range(n)]
        docs.append(_graph_doc(names, tokens, _random_edges(rng, n, rng.random() / 2)))
    n = 45
    tokens = [rng.choice(("0", "1/3", "2/6", "1", "7/2", "10", "12/5")) for _ in range(n)]
    docs.append(_graph_doc([f"n{i}" for i in range(n)], tokens, _random_edges(rng, n, 0.3)))
    return docs


def _weighted_corpus():
    """Seeded weighted documents with many tied weights, including zeros."""
    rng = random.Random(4042)
    docs = ["v a\n", WEIGHTED_BAD, WEIGHTED_GOOD]
    for k in range(40):
        n = rng.randint(2, 9)
        names = [f"w{i}" for i in range(n)]
        edges = _random_edges(rng, n, 0.4)
        pool = _LABEL_POOLS[k % len(_LABEL_POOLS)]
        weights = [rng.choice(pool) for _ in edges]
        docs.append(_graph_doc(names, [""] * n, edges, weights).replace(" \n", "\n"))
    return docs


# sha256 over every document's exit code, stdout and stderr, recorded
# before the distance sweep moved to integer ranks.
_PINNED = {
    ("dist", "text"): "3545e24cdbe46f0d04c99dae1512360a37f68b0e27e1eab1f7b36b6374818520",
    ("dist", "csv"): "157982748e38388c0296feb2d9df0b9e670ba33d9dcde18d3287b4fcc5674729",
    ("dist", "json"): "fc5bbd92cea1d3809f11f5d9681764ddb9cbef6c14261654d9c8de87b049c058",
    ("quotient", "text"): "47af30bb356d66321161a59003e4637447eaed7d759f1f6bb8158d7e465068b3",
    ("quotient", "json"): "d195c1f0bdbf554d657168ea22e10736b11464b749f6beab928ce24be8094cc2",
    ("canon", "json"): "b63c89c233f247a3b6d8b4ce6951db09cc4560b11e9bdd0501d0a9b502e1c814",
    ("check", "json"): "394af27e8c59bd98c7c0d720fddf74a4690f7db92ceb32cc1226640026c207b0",
    ("realizable", None): "116e8a47e1ad274f0f21315296c7c2138a04fcd2d37beb32cc09c6337fad859e",
}


@pytest.mark.parametrize("command,fmt", list(_PINNED))
def test_cli_output_bytes_are_pinned(tmp_path, monkeypatch, capsys, command, fmt):
    # relative paths: canon prints them
    monkeypatch.chdir(tmp_path)
    corpus = _weighted_corpus() if command == "realizable" else _labeled_corpus()
    h = hashlib.sha256()
    for k, doc in enumerate(corpus):
        name = f"g{k}.graph"
        (tmp_path / name).write_text(doc, encoding="utf-8")
        argv = [command, name]
        if fmt is not None:
            argv += ["--format", fmt]
        code = main(argv)
        out, err = capsys.readouterr()
        h.update(f"{code}\n{out}\n{err}\n".encode())
    assert h.hexdigest() == _PINNED[command, fmt]


# One sha256 per PARSE_CASES row, in table order: the exit code, stdout
# and stderr of dist, check and realizable on the row's document.
# Recorded before the per-row pins replaced one digest per command over
# the whole table, by the code those digests pinned.
_PINNED_PARSE_CASES = (
    "9bbd1d01eee371f11de3ae2ae941735ab1fe91fe208aadf02f35de3a7f11d435",
    "5f4177cbdab8abaab0d9c5317d623d9a97d9403f08db668a7304444b32246522",
    "6f817302534c22d933f0add46b657884d63ddd215a15299b81282fc5771ea851",
    "3adbcd1208db30d5218099b550975825d2c6d4751579b7db821ceed16b466698",
    "c662094ad8a5a7d4c77160e4d6e9bcdbb7546cc2a35da9b18ba0ab5dbbe6a5fd",
    "716947dfea8fcefc2ecb9822e18d0d0fc745991f0ff155bda7f58436d9f5b39f",
    "2e6cb1cc66a584c6640a91447a3da316a671bed49a0da31f7cbed8b9e1227821",
    "50cc0d225680a3d725aaed95294ccc39bcc7614703717a9344a7be2ee9b9f254",
    "44476a748d99d2109dee5d3059516edf922273471033c6c1e0e297bd88b5abb9",
    "e9e35e0e1da3f9b08fc763174545a0a8a51f5172b3f62d5800ce9b8412678814",
    "c3a99129ac7cbb6956d3cfda17b267f97ec446b93e562aa3a030573dbccedfb8",
    "e31de386c97e168cf27ae25a725133c970acc790f7c17672d9b52ffcc4bd2772",
    "1367bcb47b3654f858728a1d80dae257ce3540f2a95279af76236a9642d8b974",
    "7bb0304dc74c12090c34c9c1d60ec46db1c63bd52aa8fadd732cfc385f8e6725",
    "f88bd635f874aae60681964435f60342ebb7e51fd787727771aae79da9ed109c",
    "2f065bf083a146e562a7d23b4cec8642080460a9f6b98d19f57396a0dac5bd4f",
    "1367bcb47b3654f858728a1d80dae257ce3540f2a95279af76236a9642d8b974",
    "ec44cde3234afc43185a65a114eb014921cbc4ac9ba925a23f44ad0fd954558e",
    "1367bcb47b3654f858728a1d80dae257ce3540f2a95279af76236a9642d8b974",
    "1367bcb47b3654f858728a1d80dae257ce3540f2a95279af76236a9642d8b974",
    "b823532c2ea49aa51108f72ce69ca13bb3eb518fb9b241157790932e19f5b4a4",
    "d054536f98ed11ef255c1254c93e5ad042a06ad9c3d54c520889ca668c7486f2",
    "4cf3688af33c9187d48f15e6fa39b8f94e4a0784f5d6bc8a1c34f690196fca52",
    "07751a811d134dce89d446583458bedf19a7981f81c52f41583e6cf4dc226f7a",
    "aaaa07ae4683120e643994ecf6f318a1426dc4812ce6e247b04cfc2fc44f7f63",
    "f9fa6bd075f1437d1b5a6313185a88f40e82d1c1cc552e82764a97fc154365b1",
    "a8336c36c87d3e64617c67264d9d2dc1de6e1b1536a9010e0439b4e3faf7823d",
    "96f5cf35104f9371d680a9ccae1263444a02fa447e3c3647c4efb77ced54d9c0",
    "94ffee10653969cae1cb6ee60b817d5644a512abe8ff52ebc147d5c01e99bab5",
    "ed5ae4685b32359f8b84d070d95d02fa10ad671d71ecf8d2f049abf947563fbd",
    "5371648e4c388246a128ba15896e6a0b1131150b3e2ab0f04a28d782f01f8fa2",
    "9520a70db25a64939d757f8856edf978faeea9269326549c29fc9b49ab5d333e",
    "ed5ae4685b32359f8b84d070d95d02fa10ad671d71ecf8d2f049abf947563fbd",
    "dcd40a7872c17509cc592c6ace652f0fbf4974fe2f8839c901c09762685a1a75",
    "dcd40a7872c17509cc592c6ace652f0fbf4974fe2f8839c901c09762685a1a75",
    "575a77f502bc6b7e91b0a8e8712c65f63e67a7a28eda3ef225d697539b30bb9c",
    "e109a98a8d48a3fc5b7b50ee7c3ae3836f7e5c39f8d414a61e4d4fcbc0bf3983",
    "a486003935a8c0a30efdd8887a71677097d60e7914f885a9ac971b5a54367bb3",
    "da6fc1a017a69c2e6ec51e2752a2afd587cc3c51d94dfb19849e0cbb2990a12b",
    "d6f035a96db2343a70bb3f924c3d55e724fff0eba3ba024e2301c82ba3849069",
    "ec056bb519fbaaf41cfb18baccba94dc97ebf1f05c79ba26c72dedaedc905c65",
)


def test_every_parse_case_is_pinned():
    assert len(_PINNED_PARSE_CASES) == len(PARSE_CASES), "pin each PARSE_CASES row"


@pytest.mark.parametrize(
    "row, doc",
    [(k, doc) for k, (doc, _labeled, _weighted) in enumerate(PARSE_CASES)],
    ids=[doc for doc, _labeled, _weighted in PARSE_CASES],
)
def test_parse_case_outputs_are_pinned(tmp_path, monkeypatch, capsys, row, doc):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "case.graph").write_bytes(doc.encode())
    h = hashlib.sha256()
    for command in ("dist", "check", "realizable"):
        code = main([command, "case.graph"])
        out, err = capsys.readouterr()
        h.update(f"{code}\n{out}\n{err}\n".encode())
    pin = _PINNED_PARSE_CASES[row] if row < len(_PINNED_PARSE_CASES) else None
    assert h.hexdigest() == pin, f"PARSE_CASES row {row}: {doc!r}"


# -- deep and oversized input ---------------------------------------------


def _ascending_path(n):
    text = "".join(f"v x{k} {k + 1}\n" for k in range(n))
    return text + "".join(f"e x{k} x{k + 1}\n" for k in range(n - 1))


@pytest.mark.parametrize(
    "command, flag, doc",
    [("dist", "--cap-paths", P3), ("realizable", "--cap-cycles", WEIGHTED_GOOD)],
    ids=["dist", "realizable"],
)
def test_oracle_caps_are_not_flags(graph_file, capsys, command, flag, doc):
    with pytest.raises(SystemExit) as exc:
        main([command, graph_file(doc), "--oracle", flag, "2000"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_oracles_refuse_large_graphs_with_one_line(graph_file, capsys):
    n = 1500
    weighted = "".join(f"v x{k}\n" for k in range(n)) + "".join(
        f"e x{k} x{k + 1} {k + 1}\n" for k in range(n - 1)
    )
    for command, doc, what, cap in (
        ("dist", _ascending_path(n), "oracle evaluation", DEFAULT_ORACLE_CAP),
        ("realizable", weighted, "cycle enumeration", DEFAULT_CYCLE_CAP),
    ):
        code = main([command, graph_file(doc), "--oracle"])
        assert (code, *capsys.readouterr()) == (
            2,
            "",
            f"error: {what} capped at {cap} vertices, got {n}\n",
        )


def test_oracles_refuse_before_any_distance_work(graph_file, capsys, monkeypatch):
    def unreachable(*_args):
        raise AssertionError("the cap is checked before any distance work")

    monkeypatch.setattr(cli, "_leaf_order", unreachable)
    monkeypatch.setattr(cli, "is_weight_realizable", unreachable)
    # disconnected too: the cap is reported, not the missing edges
    isolated = "".join(f"v x{k} 1\n" for k in range(12))
    weighted = "".join(f"v x{k}\n" for k in range(11)) + "".join(
        f"e x{k} x{k + 1} 1\n" for k in range(10)
    )
    for command, doc, what, cap, n in (
        ("dist", isolated, "oracle evaluation", DEFAULT_ORACLE_CAP, 12),
        ("realizable", weighted, "cycle enumeration", DEFAULT_CYCLE_CAP, 11),
    ):
        code = main([command, graph_file(doc), "--oracle"])
        assert (code, *capsys.readouterr()) == (
            2,
            "",
            f"error: {what} capped at {cap} vertices, got {n}\n",
        )


def test_deep_dendrogram_json_needs_no_recursion(graph_file, capsys):
    # An ascending path generates a chain dendrogram as deep as the path
    # is long; json.dumps recurses once per level.
    n = 200
    path = graph_file(_ascending_path(n))
    node = dendrogram(distance_matrix(parse_graph(_ascending_path(n))))
    doc = [
        {"path": path, "canonical_form": canonical_form(node), "dendrogram": to_json_dict(node)}
    ]
    expected = json.dumps(doc, indent=2) + "\n"

    with recursion_headroom(150):
        buf = StringIO()
        cli._json_text(doc, buf.write)
        assert buf.getvalue() == expected
        code = main(["canon", "--format", "json", path])
    out, err = capsys.readouterr()
    assert (code, out, err) == (0, expected, "")


def test_long_path_reports_without_a_matrix(tmp_path, monkeypatch, capsys):
    # check, canon and isometric read the edge sweep's leaf order; the matrix
    # sweep and its validation are quadratic in n and must not run.
    def no_matrix(*_args):
        raise AssertionError("an n^2 matrix was built")

    monkeypatch.setattr(metrics, "_bottleneck_rows", no_matrix)
    monkeypatch.setattr(metrics, "_validate_rows", no_matrix)
    n = 3000
    path = tmp_path / "path.graph"
    path.write_text(_ascending_path(n), encoding="utf-8")
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out.endswith("tree equivalences: true true true true\n")
    assert main(["isometric", str(path), str(path)]) == 0
    assert capsys.readouterr() == ("true\n", "")

    # The JSON nests 2n levels deep and its indentation makes it 144 MB:
    # compare digests, streaming json.dumps's chunks in a thread with a
    # deep stack.  The expected dendrogram is the chain built by hand.
    out = _Digest()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["canon", "--format", "json", str(path)]) == 0
    node = Leaf("x0")
    for k in range(1, n):
        node = Merge(Fraction(k + 1), (node, Leaf(f"x{k}")))
    doc = [{"path": str(path), "canonical_form": canonical_form(node)}]
    doc[0]["dendrogram"] = to_json_dict(node)
    expected = _Digest()

    def dumps():
        with recursion_headroom(4 * n):
            for chunk in json.JSONEncoder(indent=2).iterencode(doc):
                expected.write(chunk)
            expected.write("\n")

    _run_with_stack(dumps, 64 << 20)
    assert out.hexdigest() == expected.hexdigest()


# Recorded from the n^2 rank-row route; the text digests are also the
# CI's dist3000 and quotient3000, the CSV one its dist-csv3000.
_PATH3000_DIGESTS = {
    ("dist", "text"): "3ef5a3039e39e2f742c4ce0b687fc7852bc856ed0ee834676b46506c303f6ba3",
    ("dist", "csv"): "4086dc67fa72b9b0dc66f612c98679f963824489de2860a091b90e051c3cf053",
    ("dist", "json"): "655c9b1069af649d8e5753823dd01051ce18fdbaa715b435f402f3ec9d32a01a",
    ("quotient", "text"): "5475f0a8931b503f0dc420ebe0e4a14fd32839ee1d23ed1833f40048f63db859",
    ("quotient", "csv"): "4086dc67fa72b9b0dc66f612c98679f963824489de2860a091b90e051c3cf053",
    ("quotient", "json"): "7158f731c064614107bc9e64b3ce384e2bb1415726cb87c3a3293c7aa67a7206",
}


def test_long_path_prints_without_a_matrix(tmp_path, monkeypatch):
    # dist and quotient print from the leaf order in O(n) memory beyond
    # the row being written; the n^2 rows must not be built.
    def no_matrix(*_args):
        raise AssertionError("an n^2 matrix was built")

    monkeypatch.setattr(metrics, "_bottleneck_rows", no_matrix)
    monkeypatch.setattr(metrics, "_validate_rows", no_matrix)
    path = tmp_path / "path.graph"
    path.write_text(_ascending_path(3000), encoding="utf-8")
    for (command, fmt), digest in _PATH3000_DIGESTS.items():
        out = _Digest()
        monkeypatch.setattr(sys, "stdout", out)
        assert main([command, str(path), "--format", fmt]) == 0
        assert (command, fmt, out.hexdigest()) == (command, fmt, digest)


def test_dist_and_quotient_print_without_a_matrix(tmp_path, monkeypatch, capsys):
    # Both commands render the sweep's rank rows: no Fraction matrix and
    # no validation.
    def no_matrix(*_args):
        raise AssertionError("a DistanceMatrix was built or validated")

    monkeypatch.setattr(DistanceMatrix, "_from_ranks", no_matrix)
    monkeypatch.setattr(metrics, "_validate_rows", no_matrix)
    rng = random.Random(12)
    n = 300
    names = [f"v{i}" for i in range(n)]
    for tokens in (
        [rng.choice(("0", "0", "1/3", "2", "17/5")) for _ in range(n)],
        [rng.choice(("1/3", "2", "17/5", "40")) for _ in range(n)],
    ):
        path = tmp_path / "g.graph"
        path.write_text(_graph_doc(names, tokens, _random_edges(rng, n, 0.02)), encoding="utf-8")
        for command in ("dist", "quotient"):
            for fmt in ("text", "csv", "json"):
                assert main([command, str(path), "--format", fmt]) == 0
                out, err = capsys.readouterr()
                assert err == "" and out.endswith("\n")


# Vertex names of one to nine characters, so columns are set by either
# the name or the widest value; labels with several digits, and zero.
_WIDE_POOL = tuple(map(Fraction, ("0", "1/2", "7", "12", "1234/7", "100003/3", "5/1000")))


@st.composite
def _named_graphs(draw):
    g = draw(connected_graphs(max_n=7, pool=_WIDE_POOL))
    names = draw(
        st.lists(
            st.text("abxyz_019", min_size=1, max_size=9),
            min_size=len(g.vertices),
            max_size=len(g.vertices),
            unique=True,
        )
    )
    rename = dict(zip(g.vertices, names)).__getitem__
    return LabeledGraph(
        tuple(names),
        tuple((rename(u), rename(v)) for u, v in g.edges),
        {rename(v): q for v, q in g.labels.items()},
    )


def _names(draw, n):
    return draw(
        st.lists(st.text("abxyz_019", min_size=1, max_size=9), min_size=n, max_size=n, unique=True)
    )


@st.composite
def _larger_named_graphs(draw):
    """Connected graphs of up to 40 vertices: a random tree, its depth set
    by how far back each vertex may attach, plus a few extra edges."""
    n = draw(st.integers(2, 40))
    names = _names(draw, n)
    reach = draw(st.integers(1, n))
    edges = [(draw(st.integers(max(0, i - reach), i - 1)), i) for i in range(1, n)]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n // 2))
    seen = {frozenset(e) for e in edges}
    for i, j in extra:
        if i != j and frozenset((i, j)) not in seen:
            seen.add(frozenset((i, j)))
            edges.append((i, j))
    labels = draw(st.lists(st.sampled_from(_WIDE_POOL), min_size=n, max_size=n))
    return LabeledGraph(
        tuple(names),
        tuple((names[i], names[j]) for i, j in draw(st.permutations(edges))),
        dict(zip(names, labels)),
    )


def _output(tmp_path_factory, g, command, fmt):
    path = tmp_path_factory.getbasetemp() / "named.graph"
    path.write_text(g.to_text(), encoding="utf-8")
    out = StringIO()
    with redirect_stdout(out):
        assert main([command, str(path), "--format", fmt]) == 0
    return out.getvalue()


@given(_named_graphs())
def test_dist_matches_the_reference_rendering(tmp_path_factory, g):
    dm = distance_matrix(g)
    for fmt in ("text", "csv", "json"):
        got = _output(tmp_path_factory, g, "dist", fmt)
        assert got == oracles.reference_rendering(dm, fmt)


@given(_named_graphs())
def test_quotient_matches_the_reference_rendering(tmp_path_factory, g):
    reps, q = zero_quotient(distance_matrix(g))
    for fmt in ("text", "csv", "json"):
        got = _output(tmp_path_factory, g, "quotient", fmt)
        assert got == oracles.reference_quotient_rendering(reps, q, len(g.vertices), fmt)


def _assert_reference_renderings(tmp_path_factory, g):
    dm = distance_matrix(g)
    reps, q = zero_quotient(dm)
    for fmt in ("text", "csv", "json"):
        assert _output(tmp_path_factory, g, "dist", fmt) == oracles.reference_rendering(dm, fmt)
        got = _output(tmp_path_factory, g, "quotient", fmt)
        assert got == oracles.reference_quotient_rendering(reps, q, len(g.vertices), fmt)


@given(_larger_named_graphs())
def test_larger_graphs_match_the_reference_renderings(tmp_path_factory, g):
    # Enough vertices for long chains of records on both sides of a row.
    _assert_reference_renderings(tmp_path_factory, g)


def test_alternating_gap_path_matches_the_reference_renderings(tmp_path_factory):
    # Labels 0, 1, 0, 2, 0, 3, ...: every edge weight comes twice in a row.
    n = 400
    names = tuple(f"y{k}" for k in range(n))
    g = LabeledGraph(
        names,
        tuple(zip(names, names[1:])),
        {v: Fraction(k // 2 + 1 if k % 2 else 0) for k, v in enumerate(names)},
    )
    _assert_reference_renderings(tmp_path_factory, g)


@st.composite
def _leaf_orders(draw):
    """Any leaf order of 1 to 40 points with any gap ranks, in runs of equal
    gaps up to 12 long; rank 0 and ties come up freely.  A sweep's orders
    always put the larger cluster first; these need not."""
    ordered = [Fraction(0), *sorted(draw(st.sets(st.sampled_from(_WIDE_POOL[1:]), max_size=6)))]
    runs = draw(st.lists(st.tuples(st.integers(0, len(ordered) - 1), st.integers(1, 12))))
    gaps = [r for r, k in runs for _ in range(k)][:39]
    n = len(gaps) + 1
    return _names(draw, n), draw(st.permutations(range(n))), gaps, ordered


@given(_leaf_orders(), st.integers(0, 3))
@example((["a"], [0], [], [Fraction(0)]), 0)
@example((["a", "bbbbbbbbb"], [1, 0], [0], [Fraction(0)]), 1)
def test_render_order_matches_the_reference_renderings(case, merged):
    from ultragraph import layout

    names, order, gaps, ordered = case
    n = len(names)
    pos = {i: p for p, i in enumerate(order)}
    rows = [
        [ordered[max(gaps[min(pos[i], pos[j]) : max(pos[i], pos[j])], default=0)] for j in range(n)]
        for i in range(n)
    ]
    dm = DistanceMatrix(tuple(names), tuple(map(tuple, rows)))
    for fmt in ("text", "csv", "json"):
        got = "".join(layout._render_order(names, order, gaps, ordered, fmt))
        assert got == oracles.reference_rendering(dm, fmt)
    # As quotient prints it: the representatives of n + merged vertices.
    head = {"representatives": names, "identity": not merged}
    got = "".join(layout._render_order(names, order, gaps, ordered, "json", head))
    assert got == oracles.reference_quotient_rendering(tuple(names), dm, n + merged, "json")


@st.composite
def _disconnected_graphs(draw):
    """Graphs of 2 to 8 vertices in at least two components, declared in any order."""
    n = draw(st.integers(2, 8))
    parts = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    part = draw(parts.filter(lambda p: len(set(p)) > 1))
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if part[i] == part[j] and draw(st.booleans())
    ]
    labels = [draw(st.sampled_from(LABEL_POOL)) for _ in range(n)]
    return graph_on(n, draw(st.permutations(edges)), labels)


@given(_disconnected_graphs(), st.data())
def test_disconnected_witness_is_the_connectivity_witness(tmp_path_factory, g, data):
    witness = connectivity_witness(g)
    assert witness is not None
    weights = {e: data.draw(st.sampled_from(LABEL_POOL)) for e in g.edges}
    for route, arg in ((distance_matrix, g), (rho_w, WeightedGraph(g.vertices, g.edges, weights))):
        with pytest.raises(DisconnectedGraphError) as err:
            route(arg)
        assert err.value.witnesses == witness
    path = tmp_path_factory.getbasetemp() / "split.graph"
    path.write_text(g.to_text(), encoding="utf-8")
    line = "error: graph is disconnected: no path joins {!r} and {!r}\n".format(*witness)
    for command in ("dist", "quotient"):
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            assert main([command, str(path)]) == 2
        assert (out.getvalue(), err.getvalue()) == ("", line)


class _Digest:
    """A text sink that keeps only the sha256 of what it is written."""

    def __init__(self):
        self._h = hashlib.sha256()

    def write(self, text):
        self._h.update(text.encode())
        return len(text)

    def writelines(self, lines):
        for text in lines:
            self.write(text)

    def hexdigest(self):
        return self._h.hexdigest()


def _run_with_stack(fn, size, timeout=300):
    old = threading.stack_size(size)
    try:
        worker = threading.Thread(target=fn, daemon=True)
        worker.start()
    finally:
        threading.stack_size(old)
    worker.join(timeout)
    assert not worker.is_alive(), f"still running after {timeout} s"


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=20,
)


@given(_json_values)
def test_json_text_matches_json_dumps(doc):
    buf = StringIO()
    cli._json_text(doc, buf.write)
    assert buf.getvalue() == json.dumps(doc, indent=2) + "\n"


def test_deep_input_exits_3_with_one_line(graph_file, capsys, monkeypatch):
    def too_deep(node):
        raise RecursionError

    monkeypatch.setattr(cli, "canonical_form", too_deep)
    assert main(["canon", graph_file(P3)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "internal check failed: recursion limit exceeded; the input nests too deeply\n"
    )


def _without_last_vertex(g):
    order, gaps, ordered = metrics._leaf_order(g)
    return order[:-1], gaps[:-1], ordered


# Each self-check that only a bug can fail, made to fail: its message
# names the invariant and the sizes or clusters that broke it.
@pytest.mark.parametrize(
    "command, doc, module, name, fake, message",
    [
        (
            "check",
            P3,
            analysis,
            "_generated_distance_set",
            lambda _g: ((0, 1, 2, 3), True),
            "edge bound |D| <= |E|+1 failed: |D| = 4, |E| = 2",
        ),
        (
            "check",
            TRIANGLE,
            analysis,
            "_generated_distance_set",
            lambda _g: ((0, 1, 2, 3), True),
            "inequality |D| <= |X| failed: |D| = 4, |X| = 3",
        ),
        (
            "canon",
            P3,
            dendrograms,
            "_leaf_order",
            _without_last_vertex,
            "dendrogram construction covers 2 of 3 vertices",
        ),
        (
            "quotient",
            P3,
            cli,
            "_zero_runs",
            lambda order, gaps: ([0], [0], []),
            "quotient changed the distance set: |D| = 3 on 3 vertices, 1 on 1 representatives",
        ),
    ],
)
def test_internal_checks_name_the_invariant_and_the_input(
    graph_file, capsys, monkeypatch, command, doc, module, name, fake, message
):
    monkeypatch.setattr(module, name, fake)
    assert main([command, graph_file(doc)]) == 3
    assert capsys.readouterr() == ("", f"internal check failed: {message}\n")


def test_interrupt_exits_130_with_one_line(graph_file, capsys, monkeypatch):
    def interrupted(g):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_leaf_order", interrupted)
    assert main(["dist", graph_file(P3)]) == 130
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "interrupted\n"


def test_out_of_memory_exits_2_with_one_line(graph_file, capsys, monkeypatch):
    def exhausted(g):
        raise MemoryError

    monkeypatch.setattr(cli, "_leaf_order", exhausted)
    assert main(["dist", graph_file(P3)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: out of memory; the input is too large\n"


_NINES = "1e" + "9" * 2_000_000  # an exponent far longer than the int-string limit
# A refusal quotes a token's first 64 characters, then "…" and its length.
_NINES_QUOTED = f"'{_NINES[:64]}'… (2000002 characters)"


def test_huge_exponent_exits_2_at_once(graph_file, capsys):
    # Expanding 10**10000000 alone took about 12 s before exponents were bounded.
    limit = sys.get_int_max_str_digits()
    for command, doc, message in (
        ("dist", "v a 1e10000000\nv b 1\ne a b\n", "line 1: exponent of label '1e10000000'"),
        ("check", "v a 1e10000000\n", "line 1: exponent of label '1e10000000'"),
        ("realizable", "v a\nv b\ne a b 1e-9999999\n", "line 3: exponent of weight '1e-9999999'"),
        # int() refuses an exponent longer than the limit: not a malformed label.
        ("check", f"v a {_NINES}\n", f"line 1: exponent of label {_NINES_QUOTED}"),
    ):
        start = time.perf_counter()
        code = main([command, graph_file(doc)])
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert (code, out, err) == (2, "", f"error: {message} exceeds {limit}\n")
        assert len(err) < 200
        assert elapsed < 1


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="needs Python 3.10.7 or later"
)
def test_huge_exponent_exits_2_with_the_digit_limit_off(graph_file, capsys):
    # With the limit off, Python's default still bounds the exponent and the
    # digits, so 10**99999999 is never expanded.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for doc, message in (
            ("v a 1e99999999\n", "line 1: exponent of label '1e99999999' exceeds 4300"),
            ("v a 1e4300\n", "line 1: label '1e4300' has more than 4300 digits"),
            # Converting these 2,000,000 digits alone took 15 s.
            (f"v a {_NINES}\n", f"line 1: exponent of label {_NINES_QUOTED} exceeds 4300"),
        ):
            start = time.perf_counter()
            code = main(["check", graph_file(doc)])
            elapsed = time.perf_counter() - start
            out, err = capsys.readouterr()
            assert (code, out, err) == (2, "", f"error: {message}\n")
            assert len(err) < 200
            assert elapsed < 1
    finally:
        sys.set_int_max_str_digits(limit)


def test_unprintable_value_exits_2_with_its_line(graph_file, capsys):
    # 10**limit has one digit more than the interpreter will print.
    limit = sys.get_int_max_str_digits()
    for command, doc, message in (
        ("dist", f"v a 1e{limit}\nv b 1\ne a b\n", f"line 1: label '1e{limit}'"),
        ("check", f"v b 1\nv a 1e{limit}\ne a b\n", f"line 2: label '1e{limit}'"),
        ("canon", f"v a 1e-{limit}\n", f"line 1: label '1e-{limit}'"),
        ("realizable", f"v a\nv b\ne a b 7e{limit}\n", f"line 3: weight '7e{limit}'"),
    ):
        code = main([command, graph_file(doc)])
        assert (code, *capsys.readouterr()) == (
            2,
            "",
            f"error: {message} has more than {limit} digits\n",
        )


# The line format's tokens and near misses: repeated and undeclared ids,
# numbers in every accepted form, invalid and negative numbers, huge
# exponents, unknown directives, stray tokens and blank lines, after a
# well-formed prefix or none.
_FUZZ_IDS = ("a", "b", "c", "d")
_FUZZ_NUMBERS = ("0", "1", "2", "0.5", "2/4", "1/0", "-1", "1e99999999", "1e-99999999", "x")
_fuzz_ids = st.sampled_from(_FUZZ_IDS)
_fuzz_numbers = st.sampled_from(_FUZZ_NUMBERS)
_fuzz_lines = st.one_of(
    st.tuples(st.just("v"), _fuzz_ids, _fuzz_numbers),
    st.tuples(st.just("v"), _fuzz_ids),
    st.tuples(st.just("e"), _fuzz_ids, _fuzz_ids),
    st.tuples(st.just("e"), _fuzz_ids, _fuzz_ids, _fuzz_numbers),
    st.lists(st.sampled_from(("v", "e", "#", "w", *_FUZZ_IDS, *_FUZZ_NUMBERS)), max_size=5),
).map(" ".join)


# deadline: hypothesis's default, which the suite profile turns off
@settings(deadline=timedelta(milliseconds=200))
@given(
    st.builds(
        "{}{}".format,
        st.sampled_from(("", "v a 1\nv b 2\nv c 0\n", "v a\nv b\nv c\n")),
        st.lists(_fuzz_lines, max_size=6).map("\n".join),
    )
)
def test_any_document_keeps_the_exit_code_contract(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzz.graph"
    path.write_text(doc, encoding="utf-8")
    for command in ("dist", "check", "realizable"):
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, str(path)])
        assert code in (0, 1, 2, 3)
        assert err.getvalue().count("\n") <= 1
        assert "Traceback" not in err.getvalue()


# Raw bytes: invalid UTF-8, lone surrogates, NUL, and every line break
# str.splitlines honours, spliced between fragments of the line format.
_HOSTILE_CHUNKS = (
    b"\xff",
    b"\xc3",
    b"\xed\xa0\x80",
    b"\xed\xbf\xbf",
    b"\x00",
    b"\x0b",
    b"\x0c",
    b"\x1c",
    b"\x1d",
    b"\x1e",
    b"\x85",
    b"\xc2\x85",
    b"\xe2\x80\xa8",
    b"\xe2\x80\xa9",
    b"\r",
    b"\n",
    b" ",
    b"\t",
    b"v a 1",
    b"v b 2",
    b"v c",
    b"e a b",
    b"e b c 1",
    b"1/2",
    b"#",
)


@given(
    st.lists(
        st.one_of(st.binary(max_size=6), st.sampled_from(_HOSTILE_CHUNKS)), max_size=12
    ).map(b"".join)
)
def test_any_bytes_keep_the_exit_code_contract(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "hostile.graph"
    path.write_bytes(raw)
    for command in ("dist", "check", "canon", "quotient", "realizable", "label"):
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, str(path)])
        assert code in (0, 1, 2, 3)
        assert err.getvalue().count("\n") <= 1
        assert "Traceback" not in err.getvalue()


# -- parser ----------------------------------------------------------------


def test_no_arguments_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_cli_import_leaves_the_leaf_order_printer_unloaded():
    # dist and quotient import it when they run; the other commands never compile it.
    probe = "import sys, ultragraph.cli; print('ultragraph.layout' in sys.modules)"
    src = str(Path(cli.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_parser_is_built_once(graph_file, capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    # subcommands still see names patched after the parser was built
    monkeypatch.setattr(cli, "canonical_form", lambda node: "patched")
    assert main(["canon", graph_file(P3)]) == 0
    assert capsys.readouterr().out == "patched\n"


def test_unknown_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()
