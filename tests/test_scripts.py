"""Smoke tests for the command-line scripts under scripts/."""

import importlib.util
import time
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_survey_edge_bound_runs(capsys):
    survey = _load("survey_edge_bound")
    start = time.perf_counter()
    code = survey.main(["--n", "5", "--graphs", "40", "--seed", "1"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "n=5, 40 graphs, labels {1,2,3,4,5}, seed 1"
    assert out[1] == "edges  graphs  |D| min  |D| mean  |D| max  bound  attained"
    assert out[-1].startswith("bound attained on ")
    assert out[-1].endswith(" trees and 0 non-trees")
    assert elapsed < 0.5


def test_survey_edge_bound_rejects_tiny_graphs(capsys):
    survey = _load("survey_edge_bound")
    assert survey.main(["--n", "1"]) == 2
    assert capsys.readouterr().err == "error: --n must be between 2 and 26\n"
