"""Drive the command-line interface end to end through main()."""

import hashlib
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import recursion_headroom
from ultragraph import (
    DistanceMatrix,
    canonical_form,
    cli,
    dendrogram,
    distance_matrix,
    parse_graph,
)
from ultragraph.cli import main
from ultragraph.dendrograms import to_json_dict

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


def test_explore_out_dir_left_alone_without_counterexamples(tmp_path, capsys):
    out_dir = tmp_path / "witnesses"
    assert main(["explore", "--max-n", "2", "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    assert not out_dir.exists()


def test_explore_rejects_bad_universe(capsys):
    assert main(["explore", "--labels", "1,0,2"]) == 2
    capsys.readouterr()
    assert main(["explore", "--max-n", "1"]) == 2
    capsys.readouterr()


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


# -- deep and oversized input ---------------------------------------------


def _ascending_path(n):
    text = "".join(f"v x{k} {k + 1}\n" for k in range(n))
    return text + "".join(f"e x{k} x{k + 1}\n" for k in range(n - 1))


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
        assert cli._json_text(doc) == expected
        code = main(["canon", "--format", "json", path])
    out, err = capsys.readouterr()
    assert (code, out, err) == (0, expected, "")


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=20,
)


@given(_json_values)
def test_json_text_matches_json_dumps(doc):
    assert cli._json_text(doc) == json.dumps(doc, indent=2) + "\n"


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


def test_interrupt_exits_130_with_one_line(graph_file, capsys, monkeypatch):
    def interrupted(g):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "distance_matrix", interrupted)
    assert main(["dist", graph_file(P3)]) == 130
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "interrupted\n"


def test_out_of_memory_exits_2_with_one_line(graph_file, capsys, monkeypatch):
    def exhausted(g):
        raise MemoryError

    monkeypatch.setattr(cli, "distance_matrix", exhausted)
    assert main(["dist", graph_file(P3)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: out of memory; the input is too large\n"


# -- parser ----------------------------------------------------------------


def test_no_arguments_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_unknown_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()
