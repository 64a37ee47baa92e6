"""Per-layer spans and counts, recorded from outside the program.

`Tracer.install` replaces every public function of the layer modules with a
wrapper that records one span per call: name, start, end, parent span,
query id and thread id.  A module that imported such a function by name
(``from .pathmetric import l1_path_distance``) holds its own binding, so
every binding in every module of the package is replaced, not only the
defining one.  `ExtendedMetric.distance_with_branch` is wrapped as
``extension.distance`` and also counts cache hits (a canonical key already
seen on the same instance) and the branch of each computed value.  Calls
that `extension` makes through its own binding of `l1_path_distance` are
counted as ``extension.solver_calls``.

Spans stay in memory until `write` is called at the end of the run.  The
wrappers cost time of their own; the benchmark reports that overhead
against untraced passes, and end-to-end metrics never come from a traced
pass.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import pkgutil
import threading
import time
from collections import Counter, defaultdict

LAYER_MODULES = (
    "complexes",
    "vertexmetrics",
    "pathmetric",
    "extension",
    "probes",
    "oracle",
    "checks",
)


def package_modules():
    """The metricext package and all of its submodules, imported."""
    pkg = importlib.import_module("metricext")
    subs = [
        importlib.import_module(f"metricext.{info.name}")
        for info in pkgutil.iter_modules(pkg.__path__)
    ]
    return [pkg, *subs]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent, query, thread)
        self.counts: Counter = Counter()
        self.query = "setup"  # query id for spans started outside a check thread
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple] = []
        self._seen: dict[int, tuple] = {}  # id(ExtendedMetric) -> (instance, keys seen)

    # ------------------------------------------------------------------ spans

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str) -> None:
        with self._lock:
            self.counts[key] += 1

    def wrap(self, name: str, fn, counter: str | None = None, query: str | None = None):
        """Wrapper recording a span per call; `query` names a per-thread query."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            span_id = next(self._ids)
            prev_query = getattr(self._local, "query", None)
            if query is not None:
                self._local.query = f"{self.query}/{query}"
            qid = getattr(self._local, "query", None) or self.query
            if counter is not None:
                self.count(counter)
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                self._local.query = prev_query
                self.spans.append(
                    (span_id, name, start, end, parent, qid, threading.get_ident())
                )

        return wrapper

    # ----------------------------------------------------------- installation

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = package_modules()
        by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
        originals: dict[int, tuple[str, object]] = {}
        for layer in LAYER_MODULES:
            mod = by_name[layer]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) == mod.__name__:
                    originals[id(obj)] = (f"{layer}.{attr}", obj)
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is None or hit[1] is not obj:
                    continue
                name = hit[0]
                counter = (
                    "extension.solver_calls"
                    if short == "extension" and name == "pathmetric.l1_path_distance"
                    else None
                )
                self._set(mod, attr, self.wrap(name, obj, counter=counter))

        checks = by_name["checks"]
        originals_checks = list(checks.ALL_CHECKS)
        self._undo.append((checks, "ALL_CHECKS", originals_checks))
        checks.ALL_CHECKS = []
        for fn in originals_checks:
            short = fn.__name__.removeprefix("_check_")
            checks.ALL_CHECKS.append(self.wrap(f"checks.{short}", fn, query=short))

        ext_cls = by_name["extension"].ExtendedMetric
        self._set(ext_cls, "distance_with_branch", self._wrap_distance(ext_cls.distance_with_branch))

    def _wrap_distance(self, fn):
        inner = self.wrap("extension.distance", fn)

        def distance_with_branch(metric, x, y):
            kx, ky = x.key(), y.key()
            key = (kx, ky) if kx <= ky else (ky, kx)
            with self._lock:
                _, seen = self._seen.setdefault(id(metric), (metric, set()))
                repeat = key in seen
                seen.add(key)
            result = inner(metric, x, y)
            self.count("extension.cache_hits" if repeat else f"extension.branch.{result[1]}")
            return result

        return distance_with_branch

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        self._seen.clear()

    # ------------------------------------------------------------- reporting

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls, inclusive seconds and self seconds per span name.

        Self time subtracts the child spans of the same thread; work a span
        hands to other threads is not subtracted.
        """
        child_ns: dict[int, int] = defaultdict(int)
        for _, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for span_id, name, start, end, _, _, _ in self.spans:
            row = out[name]
            row["calls"] += 1
            row["s"] += (end - start) / 1e9
            row["self_s"] += (end - start - child_ns.get(span_id, 0)) / 1e9
        return dict(out)

    def write(self, path) -> None:
        cols = ("id", "name", "start_ns", "end_ns", "parent", "query", "thread")
        with open(path, "w") as fh:
            json.dump({"columns": cols, "spans": self.spans, "counts": dict(self.counts)}, fh)
