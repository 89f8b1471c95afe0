"""Spans and counters recorded around opsyslab's module boundaries.

`Tracer.install` replaces every public function of the six package modules,
wherever a package module (or the package namespace) holds a reference to
it, with a wrapper that records a span: name, parent span, operation id,
start and end.  It also wraps a few numpy kernels, counting them only when
the direct caller is an opsyslab frame:

- ``np.linalg.norm(a, 2)`` -> span ``matrices.norm2`` (the operator norm);
- ``np.linalg.eigh`` / ``eigvalsh`` -> span ``matrices.eig``;
- ``np.linalg.inv`` from ``opsyslab.systems`` -> counter ``systems.newton_steps``;
- ``np.linalg.cholesky`` from ``opsyslab.systems`` -> counter ``systems.cholesky.calls``;

and scipy's ``minimize`` as imported by ``opsyslab.logic`` -> span
``logic.polish``, counting the evaluator's early-stop and budget exceptions
that propagate through it.  Nothing under ``src/`` is modified; `uninstall`
restores every replaced attribute.

Spans are kept in memory and written out by `save`.  Self time is a span's
duration minus the durations of its direct children (calls are sequential,
so the children never overlap).
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("matrices", "systems", "logic", "defects", "ucp", "cli")
ROOT = "bench.op"
_T0, _T1 = 3, 4


def _layer_of_module(modname) -> str:
    if isinstance(modname, str) and modname.startswith("opsyslab."):
        return modname.split(".")[1]
    return "bench"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []  # (name_id, parent, op, start_ns, end_ns)
        self.counters: Counter = Counter()
        self.op = -1
        self._stack = [-1]
        self._patched: list = []

    # -- recording ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        nid = self._name_id(name)
        idx = len(self.spans)
        parent = self._stack[-1]
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (nid, parent, self.op, start, end)

    def run_op(self, op: int, fn):
        """Run one benchmark operation under a root span tagged with its id."""
        self.op = op
        try:
            return self.call(ROOT, fn)
        finally:
            self.op = -1

    # -- installation ---------------------------------------------------------

    def _replace(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrap_public(self, name, fn):
        call = self.call

        def wrapper(*args, **kwargs):
            if name == "systems.dist_to_system":
                caller = _layer_of_module(sys._getframe(1).f_globals.get("__name__"))
                self.counters[f"systems.dist_to_system.calls.from_{caller}"] += 1
            return call(name, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_kernel(self, span_name, fn):
        call = self.call

        def wrapper(*args, **kwargs):
            modname = sys._getframe(1).f_globals.get("__name__", "")
            if not modname.startswith("opsyslab."):
                return fn(*args, **kwargs)
            return call(span_name, fn, *args, **kwargs)

        return wrapper

    def _wrap_norm(self, fn):
        call = self.call
        counters = self.counters

        def wrapper(x, ord=None, *args, **kwargs):
            if ord != 2:
                return fn(x, ord, *args, **kwargs)
            modname = sys._getframe(1).f_globals.get("__name__", "")
            if not modname.startswith("opsyslab."):
                return fn(x, ord, *args, **kwargs)
            counters[f"{_layer_of_module(modname)}.norm2.calls"] += 1
            return call("matrices.norm2", fn, x, ord, *args, **kwargs)

        return wrapper

    def _wrap_counted(self, counter, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == "opsyslab.systems":
                counters[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_polish(self, fn):
        call = self.call
        counters = self.counters

        def wrapper(*args, **kwargs):
            try:
                return call("logic.polish", fn, *args, **kwargs)
            except Exception as exc:
                kind = type(exc).__name__
                if kind == "_EarlyStop":
                    counters["logic.polish.early_stops"] += 1
                elif kind == "_BudgetExhausted":
                    counters["logic.polish.budget_exhausted"] += 1
                raise

        return wrapper

    def install(self) -> None:
        pkg = importlib.import_module("opsyslab")
        mods = {layer: importlib.import_module(f"opsyslab.{layer}") for layer in LAYERS}
        owners = [pkg, *mods.values()]
        for layer, mod in mods.items():
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr, None)
                if not callable(obj) or isinstance(obj, type):
                    continue
                wrapper = self._wrap_public(f"{layer}.{attr}", obj)
                for owner in owners:
                    for key, val in list(vars(owner).items()):
                        if val is obj:
                            self._replace(owner, key, wrapper)
        linalg = np.linalg
        self._replace(linalg, "norm", self._wrap_norm(linalg.norm))
        self._replace(linalg, "eigh", self._wrap_kernel("matrices.eig", linalg.eigh))
        self._replace(linalg, "eigvalsh", self._wrap_kernel("matrices.eig", linalg.eigvalsh))
        self._replace(linalg, "inv", self._wrap_counted("systems.newton_steps", linalg.inv))
        self._replace(linalg, "cholesky",
                      self._wrap_counted("systems.cholesky.calls", linalg.cholesky))
        self._replace(mods["logic"], "minimize", self._wrap_polish(mods["logic"].minimize))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, old = self._patched.pop()
            setattr(owner, attr, old)

    # -- persistence ----------------------------------------------------------

    def save(self, path) -> None:
        rows = np.array(self.spans, dtype=np.int64).reshape(-1, 5)
        np.savez_compressed(path, rows=rows, names=np.array(self.names, dtype=str))

    def absorb(self, rows, names, op: int, root: int) -> None:
        """Append spans recorded by another process, its top spans under span root."""
        remap = [self._name_id(str(n)) for n in names]
        base = len(self.spans)
        for nid, parent, _, start, end in rows.tolist():
            self.spans.append((remap[nid], parent + base if parent >= 0 else root,
                               op, start, end))


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def self_times(spans) -> list[int]:
    """Per-span self time in ns: duration minus the durations of direct children."""
    child = [0] * len(spans)
    for s in spans:
        if s[1] >= 0:
            child[s[1]] += s[_T1] - s[_T0]
    return [s[_T1] - s[_T0] - c for s, c in zip(spans, child)]


def summarize(tracer: Tracer) -> dict:
    """Per-name calls and inclusive seconds, per-layer self seconds, counters."""
    calls: Counter = Counter()
    inclusive: Counter = Counter()
    layer_self: Counter = Counter()
    for s, own in zip(tracer.spans, self_times(tracer.spans)):
        name = tracer.names[s[0]]
        calls[name] += 1
        inclusive[name] += s[_T1] - s[_T0]
        layer_self[name.split(".")[0]] += own
    out = dict(tracer.counters)
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = inclusive[name] / 1e9
    for layer in (*LAYERS, "bench"):
        out[f"{layer}.self_s"] = layer_self[layer] / 1e9
    return out
