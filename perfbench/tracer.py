"""Tracing from outside the package: spans and counts around its entry points.

The package imports names directly (``from .demand import v_value``), so a
traced function is rebound in every module attribute that holds it, not only
where it is defined.  Methods are wrapped on their classes.  ``uninstall``
puts every original back.

Spans are kept in memory as lists ``[name, start, end, parent, op, note]``;
the hottest calls (``value_mask``, ``marginal``, ``parse_rational``) get a
counter only, because a timer would cost more than the call.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

PKG = "combicontracts"

# Entry points that get a span, per layer module.
SPANNED = {
    "instancefile": ("loads_instance",),
    "functions": ("validate", "value_table", "cost_table"),
    "robust": ("validate_general", "optimal_linear_general"),
    "demand": ("greedy_demand", "brute_force_demand", "v_value"),
    "contract": ("succ_gs", "brute_force_critical_set", "optimal_contract"),
    "approx": ("succ_search", "fptas"),
    "cli": ("main",),
    "generators": ("sample_instance", "gen_subset_sum", "gen_exponential_coverage", "normalize"),
}
COUNTED = {"rational": ("parse_rational",)}
ORACLE = "demand.VOracle.__call__"

# What a span remembers about its call, for the per-layer ratios.
NOTES = {
    "contract.succ_gs": lambda args, kwargs, result: result is not None,
    "approx.succ_search": lambda args, kwargs, result: result is not None,
    "demand.v_value": lambda args, kwargs, result: args[1] if len(args) > 1 else kwargs["alpha"],
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list = []
        self._restore: list = []
        self._wrappers: dict = {}  # id -> wrapper, kept alive so ids stay unique
        self.bindings: Counter = Counter()

    # -------------------------------------------------------------- wrapping

    def _span(self, name, fn):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if note is not None:
                rec[5] = note(args, kwargs, result)
            return result

        return traced

    def _count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _rebind(self, name, orig, wrapper):
        """Point every package attribute that holds ``orig`` at ``wrapper``."""
        self._wrappers[id(wrapper)] = wrapper
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PKG and not mod_name.startswith(PKG + "."):
                continue
            for attr, val in list(vars(module).items()):
                if val is orig:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, orig))
                    self.bindings[name] += 1

    def _wrap_method(self, name, cls, attr, wrapper_factory):
        orig = cls.__dict__[attr]
        wrapper = wrapper_factory(name, orig)
        self._wrappers[id(wrapper)] = wrapper
        setattr(cls, attr, wrapper)
        self._restore.append((cls, attr, orig))
        self.bindings[name] += 1

    def install(self):
        for table, factory in ((SPANNED, self._span), (COUNTED, self._count)):
            for mod_name, names in table.items():
                module = sys.modules[f"{PKG}.{mod_name}"]
                for fn_name in names:
                    name = f"{mod_name}.{fn_name}"
                    orig = getattr(module, fn_name)
                    self._rebind(name, orig, factory(name, orig))
        functions = sys.modules[f"{PKG}.functions"]
        demand = sys.modules[f"{PKG}.demand"]
        self._wrap_method(ORACLE, demand.VOracle, "__call__", self._span)
        self._wrap_method("functions.marginal", functions.SuccessFunction, "marginal", self._count)
        for cls in _subclasses(functions.SuccessFunction):
            if "value_mask" in cls.__dict__:
                self._wrap_method("functions.value_mask", cls, "value_mask", self._count)

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def leftover_wrappers(self) -> list:
        """Package attributes still bound to a wrapper (should be empty)."""
        out = []
        functions = sys.modules[f"{PKG}.functions"]
        owners = [m for n, m in sys.modules.items() if n == PKG or n.startswith(PKG + ".")]
        owners += [sys.modules[f"{PKG}.demand"].VOracle, *_subclasses(functions.SuccessFunction)]
        owners.append(functions.SuccessFunction)
        for owner in owners:
            for attr, val in vars(owner).items():
                if id(val) in self._wrappers:
                    out.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return out

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, note) in enumerate(self.spans):
                note = note if isinstance(note, (bool, type(None))) else str(note)
                fh.write(json.dumps([i, name, start, end, parent, op, note]) + "\n")


def _subclasses(cls) -> list:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


# ------------------------------------------------------------------ analysis


def analyse(spans: list, ops: set) -> dict:
    """Per-name calls and self times.

    Only spans whose op is in ``ops`` count.  Self time is a span's duration
    minus the durations of its direct children (one thread, so children of
    one span never overlap).
    """
    child_time = defaultdict(float)
    for name, start, end, parent, op, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls, self_s = Counter(), defaultdict(float)
    for i, (name, start, end, parent, op, _) in enumerate(spans):
        if op in ops:
            calls[name] += 1
            self_s[name] += (end - start) - child_time[i]
    return {"calls": calls, "self_s": self_s}


def containment_errors(spans: list) -> int:
    """Child spans that start before or end after their parent."""
    bad = 0
    for name, start, end, parent, op, _ in spans:
        if parent >= 0:
            p = spans[parent]
            if start < p[1] or end > p[2] or op != p[4]:
                bad += 1
    return bad


def oracle_children(spans: list, parent_name: str) -> dict:
    """Per parent span index: the number of counted V queries made directly in it."""
    out = Counter()
    for name, _, _, parent, _, _ in spans:
        if name == ORACLE and parent >= 0 and spans[parent][0] == parent_name:
            out[parent] += 1
    return out
