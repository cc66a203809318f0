"""Drive the command-line interface end to end through main()."""

import hashlib
import json
import random
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from fractions import Fraction
from io import StringIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import PARSE_CASES, connected_graphs, recursion_headroom
from ultragraph import (
    DistanceMatrix,
    LabeledGraph,
    Leaf,
    Merge,
    analysis,
    canonical_form,
    cli,
    dendrogram,
    dendrograms,
    distance_matrix,
    metrics,
    parse_graph,
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


def test_dist_single_vertex(graph_file, capsys):
    assert main(["dist", graph_file("v a 0\n")]) == 0
    assert capsys.readouterr().out == "   a\na  0\n"


def test_dist_disconnected_names_a_witness_pair(graph_file, capsys):
    assert main(["dist", graph_file(DISCONNECTED)]) == 2
    assert "no path joins 'a' and 'c'" in capsys.readouterr().err


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


# sha256 over exit code, stdout and stderr of each PARSE_CASES document,
# recorded before the two parsers were merged.
_PINNED_PARSE_CASES = {
    "dist": "e5b210125f42fd5b88ddb9bd01c82380ca293aa8c4bc64e5734726010da7c359",
    "check": "ea131f40a52af75ea0ecfd6ed5b8b175173e650892ff9725c209fbd525a5bc45",
    "realizable": "57137f5f4e55789fc4fcabb0d09d764132997ce004e93f70335aadf1e789e03e",
}


@pytest.mark.parametrize("command", list(_PINNED_PARSE_CASES))
def test_parse_case_outputs_are_pinned(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    h = hashlib.sha256()
    for k, (doc, _labeled, _weighted) in enumerate(PARSE_CASES):
        name = f"m{k}.graph"
        (tmp_path / name).write_bytes(doc.encode())
        code = main([command, name])
        out, err = capsys.readouterr()
        h.update(f"{code}\n{out}\n{err}\n".encode())
    assert h.hexdigest() == _PINNED_PARSE_CASES[command]


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

    monkeypatch.setattr(cli, "_distance_rows", unreachable)
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
    # check, canon and isometric read the edge sweep's merges; the matrix
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


class _Digest:
    """A text sink that keeps only the sha256 of what it is written."""

    def __init__(self):
        self._h = hashlib.sha256()

    def write(self, text):
        self._h.update(text.encode())
        return len(text)

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


def _without_last_merge(g):
    merges, ordered = metrics._merge_events(g)
    return merges[:-1], ordered


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
            "check",
            P3,
            analysis,
            "_count_criteria",
            lambda *_counts: (True, False, True, True),
            "tree criteria disagree: (True, False, True, True) on |D| = 3, |V| = 3, |E| = 2, "
            "2 distinct edge maxima, degree total 4",
        ),
        (
            "canon",
            P3,
            dendrograms,
            "_merge_events",
            _without_last_merge,
            "dendrogram construction left 2 unmerged clusters, rooted at 'a', 'c'",
        ),
        (
            "quotient",
            P3,
            cli,
            "_zero_classes",
            lambda rows: ([0], [[0]]),
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

    monkeypatch.setattr(cli, "_distance_rows", interrupted)
    assert main(["dist", graph_file(P3)]) == 130
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "interrupted\n"


def test_out_of_memory_exits_2_with_one_line(graph_file, capsys, monkeypatch):
    def exhausted(g):
        raise MemoryError

    monkeypatch.setattr(cli, "_distance_rows", exhausted)
    assert main(["dist", graph_file(P3)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: out of memory; the input is too large\n"


def test_huge_exponent_exits_2_at_once(graph_file, capsys):
    # Expanding 10**10000000 alone took about 12 s before exponents were bounded.
    limit = sys.get_int_max_str_digits()
    for command, doc, message in (
        ("dist", "v a 1e10000000\nv b 1\ne a b\n", "line 1: exponent of label '1e10000000'"),
        ("check", "v a 1e10000000\n", "line 1: exponent of label '1e10000000'"),
        ("realizable", "v a\nv b\ne a b 1e-9999999\n", "line 3: exponent of weight '1e-9999999'"),
    ):
        start = time.perf_counter()
        code = main([command, graph_file(doc)])
        elapsed = time.perf_counter() - start
        assert (code, *capsys.readouterr()) == (2, "", f"error: {message} exceeds {limit}\n")
        assert elapsed < 1


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
