"""Layer spans recorded from outside the package.

:func:`install` wraps the named functions of ``ultragraph`` and rebinds
every module attribute that holds the same function object, so calls
through ``from .metrics import distance_matrix`` copies are caught as
well.  Methods (``DistanceMatrix.validate``, ``LabeledGraph.__post_init__``)
are patched on their class.  Spans live in flat arrays until the run
ends; a recursive call of a wrapped function inside its own span is not
recorded again, so inclusive times never count the same interval twice.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import sys
import time
from array import array
from pathlib import Path

# span name -> (module, attribute path) of the wrapped callable
TARGETS = {
    "graphs.parse_graph": ("ultragraph.graphs", "parse_graph"),
    "graphs.LabeledGraph": ("ultragraph.graphs", "LabeledGraph.__post_init__"),
    "metrics.validate": ("ultragraph.metrics", "DistanceMatrix.validate"),
    "metrics.distance_matrix": ("ultragraph.metrics", "distance_matrix"),
    "metrics.edge_weights": ("ultragraph.metrics", "edge_weights"),
    "metrics.zero_quotient": ("ultragraph.metrics", "zero_quotient"),
    "analysis.distance_set": ("ultragraph.analysis", "distance_set"),
    "analysis.tree_gh_report": ("ultragraph.analysis", "tree_gh_report"),
    "analysis.gh_report": ("ultragraph.analysis", "gh_report"),
    "dendrograms.dendrogram": ("ultragraph.dendrograms", "dendrogram"),
    "dendrograms.canonical_form": ("ultragraph.dendrograms", "canonical_form"),
    "explore.search_conjecture": ("ultragraph.explore", "search_conjecture"),
    "cli.main": ("ultragraph.cli", "main"),
}

OP = "op"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [OP]
        self.name = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter_ns()
        self.stack.pop()

    @contextlib.contextmanager
    def op(self):
        """One end-to-end operation: the root span of its calls."""
        sid = self._open(0)
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        active = [False]
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            sid = open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(sid)
                active[0] = False

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for span_name, (module_name, attr) in TARGETS.items():
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self.wrap(span_name, original))
                continue
            original = getattr(module, attr)
            traced = self.wrap(span_name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "ultragraph" and not mod_name.startswith("ultragraph."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, traced)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ``busy_ns`` and ``self_ns``."""
        child_ns = [0] * len(self.start)
        for sid in range(len(self.start)):
            p = self.parent[sid]
            if p >= 0:
                child_ns[p] += self.end[sid] - self.start[sid]
        out = {name: {"calls": 0, "busy_ns": 0, "self_ns": 0} for name in self.names}
        for sid in range(len(self.start)):
            row = out[self.names[self.name[sid]]]
            dur = self.end[sid] - self.start[sid]
            row["calls"] += 1
            row["busy_ns"] += dur
            row["self_ns"] += dur - child_ns[sid]
        return out

    def write(self, path: Path) -> None:
        """One span per line: id, parent id, name, start and end in ns."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for sid in range(len(self.start)):
                fh.write(f"{sid}\t{self.parent[sid]}\t{self.names[self.name[sid]]}"
                         f"\t{self.start[sid]}\t{self.end[sid]}\n")

