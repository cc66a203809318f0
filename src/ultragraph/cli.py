"""Command-line front end.

Exit codes are uniform across subcommands: 0 for success or an
affirmative verdict, 1 for a well-formed but negative verdict, 2 for
input errors (running out of memory included), 3 for an internal
self-check failure (a bug, not bad input) or for input nested deeper
than the interpreter's recursion limit, and 130 when interrupted.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .analysis import distance_set, gh_labeling, gh_report, level_labeling
from .dendrograms import are_isometric, canonical_form, dendrogram, to_json_dict
from .explore import (
    SearchConfig,
    search_conjecture,
    write_counterexample_files,
)
from .graphs import DEFAULT_CYCLE_CAP, enumerate_cycles, parse_graph
from .metrics import (
    DEFAULT_ORACLE_CAP,
    DistanceMatrix,
    InternalCheckError,
    NotUltrametricError,
    WeightedGraph,
    distance_matrix,
    is_weight_realizable,
    oracle_matrix,
    parse_weighted_graph,
    zero_quotient,
)


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _matrix_text(dm: DistanceMatrix) -> str:
    names = list(dm.vertices)
    rows = dm._entry_strings()
    name_w = max(len(s) for s in names)
    col_w = [max(len(name), *map(len, col)) for name, col in zip(names, zip(*rows))]
    lines = [" " * name_w + "  " + "  ".join(map(str.rjust, names, col_w))]
    for name, row in zip(names, rows):
        lines.append(name.ljust(name_w) + "  " + "  ".join(map(str.rjust, row, col_w)))
    return "\n".join(lines) + "\n"


_CONTAINERS = (dict, list, tuple)
_json_scalar = json.JSONEncoder().encode


def _json_text(doc) -> str:
    """``json.dumps(doc, indent=2)`` plus a newline, without recursion.

    The standard encoder recurses once per nesting level, which a deep
    dendrogram exceeds; this one keeps an explicit stack of text and of
    non-empty containers still to open.  Scalars and empty containers go
    through the standard encoder.  Keys must be strings.
    """
    out: list[str] = []
    stack: list = [(doc, 0)]
    while stack:
        top = stack.pop()
        if isinstance(top, str):
            out.append(top)
            continue
        value, level = top
        if not isinstance(value, _CONTAINERS) or not value:
            out.append(_json_scalar(value))
            continue
        inner = "\n" + "  " * (level + 1)
        if isinstance(value, dict):
            opener, closer = "{", "}"
            items = [(inner + _json_scalar(key) + ": ", v) for key, v in value.items()]
        else:
            opener, closer = "[", "]"
            items = [(inner, v) for v in value]
        todo = []
        pending = [opener]
        for k, (prefix, v) in enumerate(items):
            pending.append("," + prefix if k else prefix)
            if isinstance(v, _CONTAINERS) and v:
                todo.append("".join(pending))
                todo.append((v, level + 1))
                pending = []
            else:
                pending.append(_json_scalar(v))
        pending.append("\n" + "  " * level + closer)
        todo.append("".join(pending))
        stack.extend(reversed(todo))
    return "".join(out) + "\n"


def _emit_matrix(dm: DistanceMatrix, fmt: str) -> None:
    if fmt == "csv":
        sys.stdout.write(dm.to_csv())
    elif fmt == "json":
        sys.stdout.write(_json_text(dm.to_json_dict()))
    else:
        sys.stdout.write(_matrix_text(dm))


def _bool(x: bool) -> str:
    return "true" if x else "false"


def cmd_dist(args: argparse.Namespace) -> int:
    g = parse_graph(_read(args.path))
    dm = distance_matrix(g)
    if args.oracle:
        om = oracle_matrix(g, cap=args.cap_paths)
        if om.entries != dm.entries:
            for x, y, d in dm.pairs():
                if om.get(x, y) != d:
                    print(
                        f"oracle mismatch at ({x}, {y}): sweep={d} paths={om.get(x, y)}",
                        file=sys.stderr,
                    )
                    break
            return 3
    _emit_matrix(dm, args.format)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    report = gh_report(parse_graph(_read(args.path)))
    if args.format == "json":
        sys.stdout.write(_json_text(report.to_json_dict()))
    else:
        out = [
            f"vertices: {report.vertex_count}",
            f"edges: {report.edge_count}",
            f"classification: {report.classification}",
            "distance set: " + " ".join(str(q) for q in report.distance_set),
        ]
        if report.gh is not None:
            out.append(f"gh: {_bool(report.gh)}")
        out.append(f"gomory-hu holds: {_bool(report.gomory_hu_holds)}")
        out.append(f"edge bound holds: {_bool(report.edge_bound_holds)}")
        if report.tree_equivalences is not None:
            out.append(
                "tree equivalences: "
                + " ".join(_bool(b) for b in report.tree_equivalences)
            )
        sys.stdout.write("\n".join(out) + "\n")
    return 0 if report.gh else 1


def cmd_label(args: argparse.Namespace) -> int:
    g = parse_graph(_read(args.path))
    if args.root is not None:
        labels = level_labeling(g, args.root)
    else:
        labels = gh_labeling(g)
    sys.stdout.write(g.with_labels(labels).to_text())
    return 0


def cmd_quotient(args: argparse.Namespace) -> int:
    g = parse_graph(_read(args.path))
    dm = distance_matrix(g)
    reps, quotient = zero_quotient(dm)
    if distance_set(quotient) != distance_set(dm):
        raise InternalCheckError("quotient changed the distance set")
    if args.format == "csv":
        sys.stdout.write(quotient.to_csv())
    elif args.format == "json":
        doc = {
            "representatives": list(reps),
            "identity": len(reps) == len(dm.vertices),
            **quotient.to_json_dict(),
        }
        sys.stdout.write(_json_text(doc))
    else:
        sys.stdout.write("representatives: " + " ".join(reps) + "\n")
        if len(reps) == len(dm.vertices):
            sys.stdout.write("note: every class is a singleton; the quotient is the input\n")
        sys.stdout.write(_matrix_text(quotient))
    return 0


def _cycle_criterion(wg: WeightedGraph, cap: int) -> bool:
    # Realizable means every cycle attains its maximum weight at least
    # twice; kept as the slow cross-check behind --oracle.
    for cycle in enumerate_cycles(wg.skeleton, cap=cap):
        weights = [
            wg.weight(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))
        ]
        if weights.count(max(weights)) < 2:
            return False
    return True


def cmd_realizable(args: argparse.Namespace) -> int:
    wg = parse_weighted_graph(_read(args.path))
    verdict = is_weight_realizable(wg)
    if args.oracle:
        slow = _cycle_criterion(wg, cap=args.cap_cycles)
        if slow != verdict.realizable:
            print(
                f"oracle mismatch: edge check says {verdict.realizable}, "
                f"cycle enumeration says {slow}",
                file=sys.stderr,
            )
            return 3
    if verdict.realizable:
        print("realizable: yes")
        return 0
    u, v = verdict.witness
    print("realizable: no")
    print(f"witness: {u} {v} weight={wg.weight(u, v)} rho={verdict.rho}")
    return 1


def cmd_canon(args: argparse.Namespace) -> int:
    results = []
    for path in args.paths:
        dm = distance_matrix(parse_graph(_read(path)))
        try:
            node = dendrogram(dm)
        except NotUltrametricError:
            print(
                f"{path}: degenerate labeling gives only a pseudoultrametric; "
                "run 'quotient' first",
                file=sys.stderr,
            )
            return 2
        results.append((path, node))
    if args.format == "json":
        doc = [
            {
                "path": path,
                "canonical_form": canonical_form(node),
                "dendrogram": to_json_dict(node),
            }
            for path, node in results
        ]
        sys.stdout.write(_json_text(doc))
    else:
        for _path, node in results:
            print(canonical_form(node))
    return 0


def cmd_isometric(args: argparse.Namespace) -> int:
    matrices = []
    for path in (args.path_a, args.path_b):
        dm = distance_matrix(parse_graph(_read(path)))
        try:
            dendrogram(dm)
        except NotUltrametricError:
            print(
                f"{path}: degenerate labeling gives only a pseudoultrametric; "
                "run 'quotient' first",
                file=sys.stderr,
            )
            return 2
        matrices.append(dm)
    same = are_isometric(matrices[0], matrices[1])
    print(_bool(same))
    return 0 if same else 1


def cmd_explore(args: argparse.Namespace) -> int:
    universe = tuple(tok for tok in args.labels.split(",") if tok.strip())
    cfg = SearchConfig(
        n_max=args.max_n,
        universe=universe,
        mode=args.mode,
        seed=args.seed,
        jobs=args.jobs,
        samples_per_tree=args.samples,
    )
    report = search_conjecture(cfg, progress=lambda msg: print(msg, file=sys.stderr))
    sys.stdout.write(report.to_json())
    if args.out_dir is not None and report.counterexamples:
        for path in write_counterexample_files(report, args.out_dir):
            print(f"wrote {path}", file=sys.stderr)
    return 1 if report.counterexamples else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultragraph",
        description="Ultrametrics generated by vertex-labeled graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="pairwise distance matrix of a labeled graph")
    p.add_argument("path")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check the sweep against literal path enumeration",
    )
    p.add_argument("--cap-paths", type=int, default=DEFAULT_ORACLE_CAP, metavar="N")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("check", help="distance-set report and GH verdict")
    p.add_argument("path")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("label", help="emit a relabeling that makes the graph a GH space")
    p.add_argument("path")
    p.add_argument(
        "--root",
        metavar="VERTEX",
        help="label a tree by levels from this root instead of the default construction",
    )
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("quotient", help="collapse zero-distance classes")
    p.add_argument("path")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("realizable", help="can edge weights come from vertex labels?")
    p.add_argument("path", help="graph file with weighted edges: e <id> <id> <weight>")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check against exhaustive cycle enumeration",
    )
    p.add_argument("--cap-cycles", type=int, default=DEFAULT_CYCLE_CAP, metavar="N")
    p.set_defaults(func=cmd_realizable)

    p = sub.add_parser("canon", help="canonical form of the generated ultrametric")
    p.add_argument("paths", nargs="+", metavar="path")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_canon)

    p = sub.add_parser("isometric", help="are two generated spaces isometric?")
    p.add_argument("path_a")
    p.add_argument("path_b")
    p.set_defaults(func=cmd_isometric)

    p = sub.add_parser("explore", help="search trees for distance-set collisions")
    p.add_argument("--max-n", type=int, default=4, metavar="N")
    p.add_argument("--labels", default="1,2,3", metavar="Q,Q,...")
    p.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p.add_argument("--samples", type=int, default=100, metavar="K",
                   help="labelings per tree in sampled mode")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out-dir", metavar="DIR",
                   help="write counterexample pairs as graph files here")
    p.set_defaults(func=cmd_explore)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        print(
            "internal check failed: recursion limit exceeded; the input nests too deeply",
            file=sys.stderr,
        )
        return 3
    except MemoryError:
        print("error: out of memory; the input is too large", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
