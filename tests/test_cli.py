"""Drive the command-line interface end to end through main()."""

import json

import pytest

from conftest import recursion_headroom
from ultragraph import DistanceMatrix, cli, distance_matrix, parse_graph
from ultragraph.cli import main

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


# -- deep and oversized input ---------------------------------------------


def test_deep_input_exits_3_with_one_line(graph_file, capsys):
    # An ascending path generates a chain dendrogram as deep as the path
    # is long; the JSON encoder recurses once per level.
    n = 200
    text = "".join(f"v x{k} {k + 1}\n" for k in range(n))
    text += "".join(f"e x{k} x{k + 1}\n" for k in range(n - 1))
    path = graph_file(text)
    assert main(["canon", "--format", "json", path]) == 0
    assert json.loads(capsys.readouterr().out)[0]["dendrogram"]["height"] == str(n)

    with recursion_headroom(150):
        code = main(["canon", "--format", "json", path])
    out, err = capsys.readouterr()
    assert code == 3
    assert err == (
        "internal check failed: recursion limit exceeded; the input nests too deeply\n"
    )


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
