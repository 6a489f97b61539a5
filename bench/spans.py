"""Span tracing around netepi's public functions, from outside the program.

Every public function of the five layer modules is wrapped at each module
that looks it up: ``cli`` calls ``dynamics.simulate`` through the
``netepi.dynamics`` namespace, while ``estimate_pipeline`` calls its own
``netepi.estimation.simulate`` binding, so the re-simulation gets a span of
its own. Spans (name, start, end, parent) are kept in flat arrays in memory
and written out once, at the end.
"""

from __future__ import annotations

import functools
import importlib
import re
import types
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("cli", "graph", "dynamics", "spectral", "estimation")

# Work counters taken at span boundaries: span name -> (counter, f(args, result)).
COUNTERS = {
    "graph.load_network": ("edges", lambda args, r: np.count_nonzero(r.adjacency)),
    "dynamics.simulate": ("states", lambda args, r: len(r)),
    "dynamics.trajectory_to_csv": ("bytes", lambda args, r: len(r)),
    "dynamics.trajectory_from_csv": ("bytes", lambda args, r: len(args[0])),
    # computed, not measured: one float64 per matrix entry
    "spectral.build_spreading_matrix": ("bytes", lambda args, r: 8 * r.m.size),
}


def group(span: str) -> str:
    """Metric group of a span: model variants (``_sir``, ``_seir_homog`` ...)
    fold into one name, and the estimation-side ``simulate`` is the
    re-simulation."""
    if span == "estimation.simulate":
        return "estimation.resimulate"
    return re.sub(r"_(sir|seir)(_homog|_hetero)?$", "", span)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.counters: dict[str, float] = defaultdict(float)
        self._stack = [-1]
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    def install(self) -> None:
        for layer in LAYERS:
            mod = importlib.import_module(f"netepi.{layer}")
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or not fn.__module__.startswith("netepi")):
                    continue
                setattr(mod, attr, self._wrap(f"{layer}.{attr}", fn))
                self._patched.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        key = f"{group(name)}.{counter[0]}" if counter else None
        stack, start, end, parent, ids = (self._stack, self.start, self.end,
                                          self.parent, self.name_id)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            ids.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    self.counters[key] += counter[1](args, result)
                except (TypeError, AttributeError, IndexError):
                    pass  # signature changed; the count is left out
            return result

        return traced

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds (inclusive
        minus the time covered by direct child spans)."""
        if not self.start:
            return {}
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        par = np.frombuffer(self.parent, dtype=np.int64)
        ids = np.frombuffer(self.name_id, dtype=np.int64)
        has = par >= 0
        child = np.bincount(par[has], weights=dur[has], minlength=dur.size)
        size = len(self.names)
        calls = np.bincount(ids, minlength=size)
        incl = np.bincount(ids, weights=dur, minlength=size)
        self_s = np.bincount(ids, weights=dur - child, minlength=size)
        return {name: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(self_s[i])}
                for i, name in enumerate(self.names) if calls[i]}

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass ``<group>.calls``, ``.s``, ``.self_s`` and counters."""
        out: dict[str, float] = defaultdict(float)
        for name, row in self.table().items():
            g = group(name)
            for field, value in row.items():
                out[f"{g}.{field}"] += value / passes
        for key, value in self.counters.items():
            out[key] += value / passes
        return dict(out)

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, dtype=np.int64),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, dtype=np.int64))
