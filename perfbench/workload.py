"""Run one benchmark workload in this interpreter and print its figures.

``run.py`` starts this file in a fresh interpreter per workload.  The
last stdout line is one JSON object: either ``{"setup_s": ...}`` with
``--setup-only``, or the measured figures.  Every operation is timed
from outside the package through its public entry points (``cli.main``
and ``explore.search_conjecture``), and every output is checked.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import speed  # noqa: E402

OUT = HERE / "out"
GOLDEN = HERE / "golden.json"

SIZES = {
    "full": {"report_n": 48, "per_shape": 4, "dense_n": 300, "dense_p": 0.3,
             "dense_count": 4, "explore_n": 5},
    "tiny": {"report_n": 8, "per_shape": 1, "dense_n": 30, "dense_p": 0.3,
             "dense_count": 2, "explore_n": 3},
}
UNIVERSE = (1, 2, 3, 4)
# Per-n explorer counts over U={1,2,3,4}; the n<=4 values are the frozen
# counts of acceptance criterion 09.
EXPECTED_LABELINGS = {2: 16, 3: 192, 4: 4096, 5: 128000}
EXPECTED_GH = {2: 16, 3: 84, 4: 432, 5: 1440}


@dataclass
class Call:
    key: str  # golden key: command and input index
    cmd: str
    run: Callable[[], tuple[int, str]]
    facts: Callable[[int, str], str | None]


@dataclass
class Op:
    """One end-to-end operation: a graph's report, a dist call or a search."""

    calls: list[Call]
    units: int = 1
    marks: list[float] = field(default_factory=list)  # explore: progress times
    runs: list[tuple[int, int, int]] = field(default_factory=list)  # explore: per-n counts


def _cli(argv: list[str]) -> tuple[int, str]:
    from ultragraph import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _expect_exit(want: int):
    return lambda code, _out: None if code == want else f"exit {code}, expected {want}"


def _report_ops(seed: int, size: dict, workdir: Path) -> list[Op]:
    ops = []
    for i, g in enumerate(gen.report_corpus(seed, size["report_n"], size["per_shape"])):
        f = workdir / f"report{i}.graph"
        f.write_text(g.text())
        if g.is_tree():
            want = 0 if g.distinct_edge_weights() else 1
        else:
            want = 1  # every non-tree in the corpus is degenerate: no GH verdict
        second = "quotient" if g.degenerate() else "canon"
        ops.append(Op([
            Call(f"check:{i}", "check", lambda f=f: _cli(["check", str(f)]), _expect_exit(want)),
            Call(f"{second}:{i}", second, lambda f=f, c=second: _cli([c, str(f)]), _expect_exit(0)),
        ]))
    return ops


def _dist_facts(g: gen.Graph):
    def facts(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit {code}, expected 0"
        lines = out.splitlines()
        if lines[0].split() != list(g.names):
            return "header does not list the vertices in order"
        rows = [line.split() for line in lines[1:]]
        n = len(g.names)
        if len(rows) != n or any(len(r) != n + 1 or r[0] != g.names[i] for i, r in enumerate(rows)):
            return "matrix is not n x n"
        m = [r[1:] for r in rows]
        for i in range(n):
            if m[i][i] != "0":
                return f"nonzero diagonal at {g.names[i]}"
            for j in range(i + 1, n):
                if m[i][j] != m[j][i]:
                    return f"asymmetric at ({g.names[i]}, {g.names[j]})"
        for i, j in g.edges:
            if m[i][j] != str(max(g.labels[i], g.labels[j])):
                return f"d({g.names[i]}, {g.names[j]}) is not max(l(u), l(v))"
        return None

    return facts


def _dist_ops(seed: int, size: dict, workdir: Path) -> list[Op]:
    ops = []
    corpus = gen.dense_corpus(seed, size["dense_n"], size["dense_p"], size["dense_count"])
    for i, g in enumerate(corpus):
        f = workdir / f"dense{i}.graph"
        f.write_text(g.text())
        ops.append(Op([Call(f"dist:{i}", "dist", lambda f=f: _cli(["dist", str(f)]), _dist_facts(g))]))
    return ops


def _explore_op(n_max: int) -> Op:
    op = Op([], units=sum(EXPECTED_LABELINGS[n] for n in range(2, n_max + 1)))

    def run() -> tuple[int, str]:
        from ultragraph import explore

        cfg = explore.SearchConfig(n_max=n_max, universe=UNIVERSE)
        op.marks = [time.perf_counter()]
        report = explore.search_conjecture(cfg, progress=lambda _msg: op.marks.append(time.perf_counter()))
        op.runs = [(r.labelings_examined, r.gh_spaces, r.pairs_tested) for r in report.runs]
        return (1 if report.counterexamples else 0), report.to_json()

    def facts(code: int, out: str) -> str | None:
        runs = json.loads(out)["runs"]
        got = {r["n"]: (r["labelings_examined"], r["gh_spaces"]) for r in runs}
        want = {n: (EXPECTED_LABELINGS[n], EXPECTED_GH[n]) for n in range(2, n_max + 1)}
        return None if got == want else f"per-n (labelings, gh) {got}, expected {want}"

    op.calls.append(Call(f"explore:{n_max}", "explore", run, facts))
    return op


# name -> (seed, size, workdir) -> (ops in corpus order, warm-up op, round
# length).  A run stops only at the end of a round, so report-n48 always
# sees its four shapes in equal shares.
WORKLOADS = {
    "report-n48": lambda seed, size, workdir: (
        _report_ops(seed, size, workdir), None, 4),
    "dist-dense": lambda seed, size, workdir: (
        _dist_ops(seed, size, workdir), None, 1),
    # The search does not depend on the seed; its warm-up is the n_max=3 search.
    "explore-n5u4": lambda seed, size, workdir: (
        [_explore_op(size["explore_n"])], _explore_op(min(3, size["explore_n"])), 1),
}


class Checker:
    """Counts operations and failures; compares digests with the goldens.

    Facts are checked the first time each input is run.  Every output is
    digested (sha256 over exit code and stdout) and compared with the
    golden digest where one applies, else with the first digest of the
    same input.
    """

    def __init__(self, golden: dict[str, str] | None):
        self.golden = golden
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, op: Op, results: list) -> None:
        self.attempted += 1
        problems = []
        for call, (code, out, *_times) in zip(op.calls, results):
            if isinstance(code, BaseException):
                problems.append(f"{call.key}: {type(code).__name__}: {code}")
                continue
            digest = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
            if call.key not in self.digests:
                self.digests[call.key] = digest
                try:
                    problem = call.facts(code, out)
                except Exception as exc:  # malformed output
                    problem = f"facts check raised {exc!r}"
                if problem:
                    problems.append(f"{call.key}: {problem}")
            if self.golden is not None:
                expected = self.golden.get(call.key)
            else:
                expected = self.digests[call.key]
            if digest != expected:
                problems.append(f"{call.key}: digest {digest[:12]} != expected {str(expected)[:12]}")
        if problems:
            self.failed += 1
            self.errors.extend(problems)


def _run_op(op: Op, probe: speed.Probe, tracer=None) -> list:
    """Run each call of ``op``.  Each result holds the exit code, stdout,
    the wall time without the probe's own work, and that time at the
    reference speed."""
    results = []
    with tracer.op() if tracer else contextlib.nullcontext():
        for call in op.calls:
            spent, first = probe.spent_s, len(probe.samples)
            t = time.perf_counter()
            try:
                code, out = call.run()
            except Exception as exc:  # recorded as a failed operation
                code, out = exc, ""
            wall_ms = (time.perf_counter() - t - (probe.spent_s - spent)) * 1000
            results.append((code, out, wall_ms, wall_ms * probe.factor_since(first)))
    return results


def _measure(ops: list[Op], step: int, seconds: float, checker: Checker,
             tracer=None) -> list:
    """Closed loop, one client: run rounds of ``step`` ops in corpus order
    until the next round would likely overrun ``seconds``."""
    samples = []
    start = time.perf_counter()
    i = 0
    with speed.Probe() as probe:
        while True:
            t_round = time.perf_counter()
            for op in ops[i:i + step]:
                results = _run_op(op, probe, tracer)
                checker.check(op, results)
                samples.append((op, [(wall, norm) for _code, _out, wall, norm in results]))
                print(json.dumps({"progress": [checker.attempted, checker.failed]}), flush=True)
            i = (i + step) % len(ops)
            now = time.perf_counter()
            if now - start + (now - t_round) > seconds:
                return samples


def _pct(values: list[float]) -> tuple[float, float]:
    """Median and 90th percentile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=10, method="inclusive")
    return statistics.median(values), q[8]


WALL, NORM = 0, 1  # columns of a sample: wall clock, and at the reference speed


def _op_ms(samples: list, col: int) -> list[float]:
    """Per-op times from one column of the samples."""
    return [sum(r[col] for r in results) for _op, results in samples]


def _end_to_end(samples: list) -> tuple[dict, dict]:
    """Metrics at the reference speed; wall-clock values go to the details."""
    units = sum(op.units for op, _ in samples)
    figures = {}
    for col in (WALL, NORM):
        op_ms = _op_ms(samples, col)
        p50, p90 = _pct(op_ms)
        figures[col] = {"op_ms_p50": p50, "op_ms_p90": p90,
                        "work_per_s": units / (sum(op_ms) / 1000)}
    metrics = dict(figures[NORM], peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    op_ms = _op_ms(samples, NORM)
    details: dict = {
        "wall": figures[WALL],
        "ops": len(op_ms),
        "ops_beyond_p90": sum(1 for v in op_ms if v > metrics["op_ms_p90"]),
    }
    per_cmd: dict[str, list[float]] = {}
    for op, results in samples:
        for call, r in zip(op.calls, results):
            per_cmd.setdefault(call.cmd, []).append(r[NORM])
    for cmd, values in sorted(per_cmd.items()):
        c50, c90 = _pct(values)
        details[cmd] = {"ms_p50": c50, "ms_p90": c90, "samples": len(values),
                        "beyond_p90": sum(1 for v in values if v > c90)}
    return metrics, details


def _per_layer(tracer, traced: list, untraced: list) -> dict:
    """Per-layer figures of the traced half, scaled to the reference speed
    by the traced half's overall ratio of normalized to wall time."""
    from spans import TARGETS

    summary = tracer.summary()
    ops = summary["op"]["calls"]
    factor = sum(_op_ms(traced, NORM)) / sum(_op_ms(traced, WALL))
    ms = factor / 1e6 / ops
    metrics = {}
    for name in TARGETS:
        row = summary[name]
        metrics[f"{name}.calls_per_op"] = row["calls"] / ops
        metrics[f"{name}.busy_ms"] = row["busy_ns"] * ms
        metrics[f"{name}.self_ms"] = row["self_ns"] * ms

    explore_ops = [(op, res) for op, res in traced if op.calls[0].cmd == "explore"]
    walls = {n: 0.0 for n in (2, 3, 4, 5)}
    counts = {"labelings": 0, "gh_spaces": 0, "pairs_tested": 0}
    if explore_ops:
        for n in walls:
            gaps = [o.marks[n - 1] - o.marks[n - 2] for o, _ in explore_ops if len(o.marks) > n - 1]
            walls[n] = statistics.median(gaps) * factor if gaps else 0.0
        for labelings, gh_spaces, pairs in explore_ops[-1][0].runs:
            counts["labelings"] += labelings
            counts["gh_spaces"] += gh_spaces
            counts["pairs_tested"] += pairs
    for n, wall in walls.items():
        metrics[f"explore.n{n}.wall_s"] = wall
    for key, value in counts.items():
        metrics[f"explore.{key}"] = value
    metrics["explore.gh_yield"] = counts["gh_spaces"] / counts["labelings"] if counts["labelings"] else 0.0
    metrics["trace.overhead_frac"] = (
        statistics.fmean(_op_ms(traced, NORM)) / statistics.fmean(_op_ms(untraced, NORM)) - 1)
    return metrics


def _load_golden(path: Path, key: str, seed: int, workload: str) -> dict | None:
    doc = json.loads(path.read_text())
    if seed != doc["seed"] and workload != "explore-n5u4":
        return None
    return doc.get(key, {})


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--golden", type=Path, default=GOLDEN)
    ap.add_argument("--record-golden", type=Path, metavar="PATH",
                    help="write this run's first digests to PATH instead of checking goldens")
    args = ap.parse_args(argv)

    import ultragraph.cli  # noqa: F401  (import time belongs to set-up)

    golden_key = args.workload if args.size == "full" else f"{args.size}/{args.workload}"
    golden = None
    if not args.record_golden:
        golden = _load_golden(args.golden, golden_key, args.seed, args.workload)
    checker = Checker(golden)

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"inputs-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        ops, warmup, step = WORKLOADS[args.workload](args.seed, SIZES[args.size], workdir)
        warm = warmup or ops[0]
        checker.check(warm, _run_op(warm, speed.Probe()))
        setup_wall_s = time.monotonic() - args.t0
        setup_s = setup_wall_s * speed.burst_factor()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
            return 0

        result: dict = {"attempted": 0, "failed": 0}
        if args.trace:
            import spans

            untraced = _measure(ops, step, args.seconds / 2, checker)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = _measure(ops, step, args.seconds / 2, checker, tracer)
            finally:
                tracer.uninstall()
            result["metrics"] = _per_layer(tracer, traced, untraced)
            tracer.write(OUT / f"spans-{args.workload}-{args.size}-seed{args.seed}.tsv.gz")
        else:
            samples = _measure(ops, step, args.seconds, checker)
            result["metrics"], result["details"] = _end_to_end(samples)
            result["metrics"]["setup_s"] = setup_s
            result["details"]["setup_wall_s"] = setup_wall_s
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.record_golden:
        doc = json.loads(args.record_golden.read_text()) if args.record_golden.exists() else {}
        doc["seed"] = args.seed
        doc[golden_key] = checker.digests
        args.record_golden.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")

    result["attempted"] = checker.attempted
    result["failed"] = checker.failed
    result["errors"] = checker.errors[:20]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
