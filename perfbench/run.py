"""ultragraph benchmark: one command for every workload.

    python3 perfbench/run.py                          # all workloads, default seed
    python3 perfbench/run.py --workload report-n48 --seed 7 --seconds 36 --trace 0

Each workload runs in its own fresh interpreter (``workload.py``), one
process at a time, under a wall-clock limit.  With ``--trace 0`` the
set-up is done several times in separate interpreters and ``setup_s``
is their median.  Metric names and units come from ``BENCHMARK.json``.
Figures and run metadata are written under ``perfbench/out/``; the last
stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every
operation gave a correct output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEFAULT_SEED = 1
SETUPS = 5
LIMIT_S = 170  # per workload; the whole command must end within 180 s


class ChildFailed(RuntimeError):
    """The workload process died without reporting: nothing to print."""


def _child(args: list[str], deadline: float) -> dict:
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-u", str(HERE / "workload.py"), *args, "--t0", repr(t0)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        attempted = failed = 0
        for line in out.splitlines():
            if line.startswith('{"progress"'):
                attempted, failed = json.loads(line)["progress"]
        # The operation in flight when the limit hit counts as failed.
        return {"attempted": attempted + 1, "failed": failed + 1, "metrics": {},
                "errors": [f"timed out after {LIMIT_S} s"], "timed_out": True}
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or lines[-1].startswith('{"progress"'):
        raise ChildFailed(f"workload process exited {proc.returncode}\n{err.strip()}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, size: str,
                 golden: Path, spec: dict) -> dict:
    deadline = time.monotonic() + LIMIT_S
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--size", size, "--golden", str(golden)]
    setups, walls = [], []
    if not trace:
        for _ in range(SETUPS - 1):
            doc = _child(args + ["--setup-only"], deadline)
            if doc.get("timed_out"):
                return doc
            setups.append(doc["setup_s"])
            walls.append(doc["setup_wall_s"])
    doc = _child(args, deadline)
    if doc.get("timed_out"):
        return doc
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if not trace:
        setups.append(doc["metrics"]["setup_s"])
        walls.append(doc["details"]["setup_wall_s"])
        doc["metrics"]["setup_s"] = statistics.median(setups)
        doc["details"]["setup_s_samples"] = setups
        doc["details"]["setup_wall_s"] = walls
    if sorted(doc["metrics"]) != sorted(wanted):
        raise ChildFailed(f"{name}: metrics {sorted(doc['metrics'])} do not match BENCHMARK.json")
    return doc


def _git(*args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _metadata(args: argparse.Namespace) -> dict:
    head = _git("rev-parse", "HEAD")
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_head": head,
        "git_dirty": None if head is None else bool(_git("status", "--porcelain")),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


def _print_workload(name: str, doc: dict, units: dict) -> None:
    for key, value in doc["metrics"].items():
        print(f"{name}  {key} = {value:.6g} {units[key]}")
    details = doc.get("details", {})
    for cmd, row in details.items():
        if isinstance(row, dict) and "samples" in row:
            for q in ("p50", "p90"):
                print(f"{name}  {cmd}_ms_{q} = {row['ms_' + q]:.6g} ms"
                      f"  (samples={row['samples']}, beyond p90={row['beyond_p90']})")
    if "ops" in details:
        print(f"{name}  ops = {details['ops']}, beyond op_ms_p90 = {details['ops_beyond_p90']}")
        wall = ", ".join(f"{k} = {v:.6g}" for k, v in details["wall"].items())
        print(f"{name}  wall clock: {wall},"
              f" setup_s = {statistics.median(details['setup_wall_s']):.4g}")
    print(f"{name}  failed_frac = {doc['failed'] / doc['attempted']:.6g}"
          f"  ({doc['failed']} of {doc['attempted']})")
    for err in doc.get("errors", []):
        print(f"{name}  FAILED {err}")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names, help="default: every workload in turn")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: 8-vertex graphs and n_max=3, for the smoke test")
    ap.add_argument("--golden", type=Path, default=HERE / "golden.json")
    args = ap.parse_args(argv)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    meta = _metadata(args)
    results = {}
    try:
        for name in [args.workload] if args.workload else names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace,
                                         args.size, args.golden, spec)
            _print_workload(name, results[name], units)
    except ChildFailed as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload or 'all'}-{args.size}-seed{args.seed}-trace{args.trace}"
    (OUT / f"results-{tag}.json").write_text(
        json.dumps({"metadata": meta, "units": units, "workloads": results}, indent=1) + "\n")

    failed = sum(doc["failed"] for doc in results.values())
    metrics = {(k if args.workload else f"{w}.{k}"): {"value": v, "unit": units[k]}
               for w, doc in results.items() for k, v in doc["metrics"].items()}
    line = {
        "correct": failed == 0,
        "attempted": sum(doc["attempted"] for doc in results.values()),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
