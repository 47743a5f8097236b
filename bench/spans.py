"""Span tracing applied from outside the program.

``Tracer.instrument`` replaces every public mgrag function in each layer
module's namespace with a wrapper that records a span, so a call is traced
under the name the calling module uses for it (``mgrag.router.search_layer``
is ``memory.search_layer`` as called from the router). Spans stay in memory
as small lists and are written out once, after the measured phase.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import inspect
from pathlib import Path
from time import perf_counter_ns

LAYERS = ("corpus", "embedder", "memory", "router", "confidence", "evaluation", "generator", "cli")

# span fields, in order
SITE, START, END, PARENT, OP, LEVEL, SIZE = range(7)


def _level_getter(fn):
    """Pick the call's granularity layer (or depth) and scanned-unit count.

    ``layer``/``depth`` parameters give the level; a first parameter named
    ``mem`` (a LayerMemory) gives its layer and unit count.
    """
    params = list(inspect.signature(fn).parameters)
    for name in ("layer", "depth"):
        if name in params:
            pos = params.index(name)

            def level(args, kwargs, name=name, pos=pos):
                value = kwargs.get(name, args[pos] if pos < len(args) else None)
                return value, None

            return level
    if params[:1] == ["mem"]:

        def level(args, kwargs):
            mem = args[0] if args else kwargs["mem"]
            return mem.layer, mem.n_units

        return level
    return None


class Tracer:
    """Records spans: site, start/end (ns), parent span, operation id, level, size.

    A disabled tracer hands functions back unwrapped, so untraced runs pay
    nothing.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.sites: list[str] = []  # site name, e.g. "mgrag.router.search_layer"
        self.funcs: list[str] = []  # defining layer and name, e.g. "memory.search_layer"
        self.spans: list[list] = []
        self.op = 0  # id of the benchmark operation in flight; spans of one query share it
        self._stack: list[int] = []

    def wrap(self, site: str, fn, func: str | None = None):
        """``fn`` recording one span per call under ``site``; ``func`` names what it runs."""
        if not self.enabled:
            return fn
        sid = len(self.sites)
        self.sites.append(site)
        self.funcs.append(func or site)
        level_of = _level_getter(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            level, size = level_of(args, kwargs) if level_of else (None, None)
            rec = [sid, 0, 0, stack[-1] if stack else -1, self.op, level, size]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter_ns()
                stack.pop()

        return traced

    def instrument(self) -> None:
        """Wrap every public mgrag function in every layer module's namespace."""
        modules = [importlib.import_module(f"mgrag.{name}") for name in LAYERS]
        originals = [
            (module, name, fn)
            for module in modules
            for name, fn in vars(module).items()
            if not name.startswith("_")
            and inspect.isfunction(fn)
            and fn.__module__.startswith("mgrag.")
        ]
        for module, name, fn in originals:
            func = f"{fn.__module__.split('.')[-1]}.{fn.__name__}"
            setattr(module, name, self.wrap(f"{module.__name__}.{name}", fn, func))

    def write(self, path: Path, n_spans: int) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", newline="") as handle:
            out = csv.writer(handle)
            out.writerow(["span", "site", "start_ns", "end_ns", "parent", "query_id", "level", "size"])
            for i, rec in enumerate(self.spans[:n_spans]):
                out.writerow([i, self.sites[rec[SITE]], *rec[START:]])


class SpanIndex:
    """Read-only views over a tracer's spans: durations, self times, ancestry."""

    def __init__(self, tracer: Tracer, n_spans: int):
        self.spans = tracer.spans[:n_spans]
        self.sites = tracer.sites
        self.funcs = tracer.funcs
        self.dur = [(rec[END] - rec[START]) / 1e9 for rec in self.spans]
        child = [0.0] * len(self.spans)
        for i, rec in enumerate(self.spans):
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += self.dur[i]
        # children never overlap (one thread), so the time they cover is their sum
        self.self_time = [d - c for d, c in zip(self.dur, child)]
        self._by_site: dict[str, list[int]] = {}
        self._by_func: dict[str, list[int]] = {}
        for i, rec in enumerate(self.spans):
            self._by_site.setdefault(self.sites[rec[SITE]], []).append(i)
            self._by_func.setdefault(self.funcs[rec[SITE]], []).append(i)

    def site(self, name: str) -> list[int]:
        return self._by_site.get(name, [])

    def func(self, name: str) -> list[int]:
        return self._by_func.get(name, [])

    def ancestor(self, i: int, targets: set[int]) -> int | None:
        """Nearest enclosing span of ``i`` that is in ``targets``."""
        parent = self.spans[i][PARENT]
        while parent >= 0:
            if parent in targets:
                return parent
            parent = self.spans[parent][PARENT]
        return None

    def per_parent(self, parents: list[int], children: list[int], value) -> list[float]:
        """Sum ``value(child)`` over each parent's descendants in ``children``."""
        totals = {p: 0.0 for p in parents}
        targets = set(parents)
        for c in children:
            p = self.ancestor(c, targets)
            if p is not None:
                totals[p] += value(c)
        return [totals[p] for p in parents]
