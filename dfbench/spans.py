"""Spans around the calls into each layer of the library, from outside.

The library is not instrumented.  ``Tracer.install`` wraps the public
functions named in ``TARGETS`` and rebinds every name in the package's
modules that holds an original, because modules import functions by
name (``from .exact import resultant_x``); ``BinaryPlace.make`` is
wrapped on its class.  Calls between modules and calls within one
module (``find_shift`` -> ``shift_is_valid``) are both captured.

Spans stay in memory until ``summary`` aggregates them.  Times are CPU
time of the process, like the operations' latencies.  A span's self
time is its duration minus the durations of its child spans.  For the
functions of ``exact`` the tracer also counts repeats: calls whose
arguments equal those of an earlier call in the same run.
"""

from __future__ import annotations

import functools
import sys
import time

TARGETS = {
    "exact": (
        "resultant_x",
        "resultant_u",
        "gcd_b",
        "gcd_u",
        "factor_q",
        "factor_b",
        "squarefree_decomposition",
        "certify_irreducible_bivariate",
        "complex_roots",
    ),
    "charts": ("find_shift", "shift_is_valid", "fiber_divisor", "fiber_resultant", "infx_fiber_divisor"),
    "divisors": ("principal_divisor", "divisor_of_upoly", "BinaryPlace.make"),
    "pairing": ("pair",),
    "residues": ("residue_mod_degree_one", "correspondence", "residue_mod_Kp_degree_one", "different_divisor"),
    "arakelov": (
        "arch_lambda",
        "intersect",
        "deg_Kp",
        "principal_arakelov",
        "bracket",
        "residue_scalar_product",
        "principal_move",
    ),
    "cli": ("main", "parse_element", "parse_divisor_spec"),
}

REPEAT_MODULES = ("exact",)


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in a fixed order."""
    out = []
    for module, funcs in TARGETS.items():
        for func in funcs:
            out.append((f"{module}.{func}.calls", "count"))
            out.append((f"{module}.{func}.self_s", "s"))
            if module in REPEAT_MODULES:
                out.append((f"{module}.{func}.repeat_share", "1"))
    out.extend((f"{module}.self_s", "s") for module in TARGETS)
    return out


def _key(args, kwargs):
    key = (args, tuple(sorted(kwargs.items())))
    try:
        hash(key)
    except TypeError:
        return repr(key)
    return key


class Tracer:
    """Records one span per wrapped call: (function, operation, parent
    span, start, end, self time, repeated)."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[list] = []  # [span index, child time]
        self._seen: dict[int, set] = {}

    def _wrap(self, name: str, fn, count_repeats: bool):
        idx = len(self.names)
        self.names.append(name)
        seen = self._seen.setdefault(idx, set())
        spans, stack, clock = self.spans, self._stack, time.process_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            repeated = False
            if count_repeats:
                key = _key(args, kwargs)
                repeated = key in seen
                seen.add(key)
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[frame[0]] = (idx, self.op, parent, t0, t1, t1 - t0 - frame[1], repeated)
                if stack:
                    stack[-1][1] += t1 - t0

        return wrapper

    def install(self) -> list[str]:
        """Wrap every target; returns the names that were not found."""
        mods = [m for n, m in sys.modules.items() if n == "doublefield" or n.startswith("doublefield.")]
        missing = []
        for module, funcs in TARGETS.items():
            mod = sys.modules.get(f"doublefield.{module}")
            for func in funcs:
                name = f"{module}.{func}"
                owner_name, _, attr = func.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                orig = getattr(owner, attr, None) if owner is not None else None
                if orig is None:
                    missing.append(name)
                    continue
                wrapped = self._wrap(name, orig, module in REPEAT_MODULES)
                if owner_name:
                    setattr(owner, attr, staticmethod(wrapped))
                    continue
                for m in mods:
                    for k, v in list(vars(m).items()):
                        if v is orig:
                            setattr(m, k, wrapped)
        return missing

    def summary(self) -> dict[str, float]:
        """Per-layer metrics aggregated over all recorded spans."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        repeats = [0] * len(self.names)
        for idx, _op, _parent, _t0, _t1, own, repeated in self.spans:
            calls[idx] += 1
            self_s[idx] += own
            repeats[idx] += repeated
        by_name = {n: i for i, n in enumerate(self.names)}
        out: dict[str, float] = {}
        for module, funcs in TARGETS.items():
            total = 0.0
            for func in funcs:
                name = f"{module}.{func}"
                i = by_name.get(name)
                n, s, r = (calls[i], self_s[i], repeats[i]) if i is not None else (0, 0.0, 0)
                out[f"{name}.calls"] = n
                out[f"{name}.self_s"] = s
                if module in REPEAT_MODULES:
                    out[f"{name}.repeat_share"] = r / n if n else 0.0
                total += s
            out[f"{module}.self_s"] = total
        return out
