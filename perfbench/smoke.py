"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

Runs every workload on 8-vertex report graphs, 30-vertex dense graphs
and an n_max=3 search, untraced and traced, and asserts that every
workload reports every metric named in BENCHMARK.json with its unit and
that no operation failed.  Then it asserts that a golden file with one
altered digest is reported as a failed operation and a nonzero exit, and
that a copy holding only BENCHMARK.json and this directory exits nonzero
without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def run(*args: str, root: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--size", "tiny", "--seconds", "1", *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines()


def expect_all_metrics(spec: dict, kind: str, line: dict, prefix: str = "") -> None:
    want = {prefix + m["name"]: m["unit"] for m in spec[kind]}
    got = {name: m["unit"] for name, m in line["metrics"].items()}
    assert got == want, f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    # Seed 1 is checked against the golden digests, seed 2 by facts alone.
    for seed in ("1", "2"):
        code, lines = run("--seed", seed)
        line = json.loads(lines[-1])
        assert code == 0 and line["correct"] and line["failed"] == 0, lines[-12:]
        for w in workloads:
            expect_all_metrics(spec, "end_to_end", {"metrics": {
                k: v for k, v in line["metrics"].items() if k.startswith(w + ".")}}, w + ".")
    for w in workloads:
        code, lines = run("--workload", w, "--trace", "1")
        line = json.loads(lines[-1])
        assert code == 0 and line["correct"], lines[-12:]
        expect_all_metrics(spec, "per_layer", line)

    OUT.mkdir(exist_ok=True)
    golden = json.loads((HERE / "golden.json").read_text())
    digests = golden["tiny/report-n48"]
    digests[min(digests)] = "0" * 64
    tampered = OUT / "golden-tampered.json"
    tampered.write_text(json.dumps(golden))
    code, lines = run("--workload", "report-n48", "--golden", str(tampered))
    line = json.loads(lines[-1])
    assert code != 0 and not line["correct"] and line["failed"] >= 1, lines[-12:]

    stripped = OUT / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    shutil.copytree(HERE, stripped / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", stripped)
    try:
        code, lines = run("--workload", "report-n48", root=stripped)
        assert code != 0 and not any(x.startswith('{"correct"') for x in lines), lines[-5:]
    finally:
        shutil.rmtree(stripped)

    print("smoke: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
