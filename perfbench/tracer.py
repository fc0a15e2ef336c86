"""Span tracer that wraps xlmimo's public functions from outside the package.

install() replaces every public function of the traced modules with a
wrapper that records a span (name, start, end, parent) and, for a few
kernels, counts of the work done.  A name re-bound into another module by
``from .numerics import gram`` is a separate reference to the same
function object, so every xlmimo module is searched and every reference is
replaced; verify() raises if any original is left reachable.

Spans are kept in memory and turned into per-layer metrics by
layer_metrics().  Parents are tracked per thread, so spans are exact for
single-threaded sweeps (XLMIMO_THREADS unset); in pool threads the top
span has no parent.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import NamedTuple

PACKAGE = "xlmimo"
TRACED_MODULES = ("geometry", "channel", "numerics", "beamforming", "experiments", "cli")


class Span(NamedTuple):
    ident: int
    name: str
    start: float
    end: float
    parent: int | None


# Work counts recorded at a layer boundary: (args, result, error) -> {counter: increment}.
# gram's ops and bytes are computed from the matrix shape, not measured:
# M*K(K+1)/2 complex multiply-adds and 16*M*K bytes read per Gram.
def _gram_counts(args, result, error):
    m, k = args[0].shape
    return {"ops": m * k * (k + 1) // 2, "bytes": 16 * m * k}


def _elements(args, result, error):
    return {"elements": len(args[0])}


def _solve_counts(args, result, error):
    return {"failed": int(isinstance(error, sys.modules[f"{PACKAGE}.errors"].NearSingularError))}


def _scenario_counts(args, result, error):
    if result is None:
        return {}
    zf = result["zf"]
    return {"zf_feasible": int((zf > 0.0).sum()), "users": len(zf)}


def _response_bytes(args, result, error):
    return {} if result is None else {"bytes": result.nbytes}


def _csv_bytes(args, result, error):
    return {} if error is not None else {"bytes": os.path.getsize(args[0])}


COUNTERS = {
    "numerics.gram": _gram_counts,
    "numerics.compensated_sum": _elements,
    "numerics.cdot": _elements,
    "numerics.vector_power": _elements,
    "numerics.hermitian_solve": _solve_counts,
    "beamforming.evaluate_scenario": _scenario_counts,
    "beamforming.response_matrix": _response_bytes,
    "cli.write_csv": _csv_bytes,
}


class Tracer:
    """Records spans and counts for every public function of the traced modules."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._originals: dict[int, object] = {}
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    @staticmethod
    def _package_modules():
        return [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"{PACKAGE}.{short}"]
            for attr, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(fn)] = self._wrap(f"{short}.{attr}", fn)
                    self._originals[id(fn)] = fn
        for module in self._package_modules():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and value is self._originals[id(value)]:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))
        self.verify()
        return self

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []
        self._originals = {}

    def verify(self) -> None:
        """Raise if any package module still reaches an unwrapped traced function."""
        stale = [
            f"{module.__name__}.{attr}"
            for module in self._package_modules()
            for attr, value in vars(module).items()
            if self._originals.get(id(value)) is value
        ]
        if stale:
            raise RuntimeError(f"tracer missed re-bound names: {', '.join(sorted(stale))}")

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            ident = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(ident)
            result = error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(ident, name, start, end, parent))
                if counter is not None:
                    increments = counter(args, result, error)
                    with self._lock:
                        for key, value in increments.items():
                            self.counts[f"{name}.{key}"] += value

        return traced


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children[span.ident], key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.ident] = span.end - span.start - covered
    return out


# Per-layer metrics reported by the traced run: span name -> statistics.
# "calls", "self_s" and "total_s" come from spans; any other statistic is
# a count recorded at the same boundary.  cdot and vector_power sum through
# compensated_sum, so the exactly rounded summation itself is
# compensated_sum's self time, and their total_s is the whole reduction.
LAYER_STATS = {
    "numerics.gram": ("calls", "self_s", "total_s", "ops", "bytes"),
    "numerics.cdot": ("calls", "self_s", "total_s", "elements"),
    "numerics.vector_power": ("calls", "self_s", "total_s", "elements"),
    "numerics.compensated_sum": ("calls", "self_s", "elements"),
    "numerics.hermitian_solve": ("calls", "self_s", "failed"),
    "numerics.whitened_apply": ("calls", "self_s"),
    "numerics.project_orthogonal": ("calls", "self_s"),
    "channel.pnusw_response": ("calls", "self_s"),
    "channel.upw_response": ("calls", "self_s"),
    "channel.correlation": ("calls", "self_s"),
    "channel.channel_power": ("calls", "self_s"),
    "geometry.element_distances": ("calls", "self_s"),
    "beamforming.response_matrix": ("calls", "self_s", "bytes"),
    "beamforming.evaluate_scenario": ("calls", "self_s", "total_s", "zf_feasible_ratio"),
    "beamforming.sinr_closed": ("calls", "self_s"),
    "beamforming.sum_rate": ("calls", "self_s"),
    "experiments.sample_users": ("calls", "self_s"),
    "experiments.sweep": ("total_s", "self_s"),
    "cli.parse_config": ("self_s",),
    "cli.write_csv": ("self_s", "bytes"),
    "cli.run": ("self_s",),
}


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer metrics of one traced sweep, named <module>.<function>.<stat>.

    experiments.sweep is whichever experiments function cli.dispatch
    called, so its self time is the sweep loop and thread-pool overhead.
    """
    own = self_times(spans)
    by_ident = {s.ident: s for s in spans}
    agg = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    for span in spans:
        names = [span.name]
        parent = by_ident.get(span.parent)
        if parent is not None and parent.name == "cli.dispatch" and span.name.startswith("experiments."):
            names.append("experiments.sweep")
        for name in names:
            entry = agg[name]
            entry["calls"] += 1
            entry["self_s"] += own[span.ident]
            entry["total_s"] += span.end - span.start
    out = {}
    for name, stats in LAYER_STATS.items():
        for stat in stats:
            if stat in ("calls", "self_s", "total_s"):
                value = agg[name][stat] if name in agg else 0
            elif stat == "zf_feasible_ratio":
                users = counts.get(f"{name}.users", 0)
                value = counts.get(f"{name}.zf_feasible", 0) / users if users else 0.0
            else:
                value = counts.get(f"{name}.{stat}", 0)
            out[f"{name}.{stat}"] = float(value)
    return out
