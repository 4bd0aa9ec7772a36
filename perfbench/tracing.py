"""Per-layer spans and counts, recorded by wrapping tailbound's functions.

The program is not edited: Tracer.install replaces each traced function
wherever a tailbound module (or class) holds a reference to it, so calls
between modules go through the wrapper too. A span's self time is its
duration minus the time of the traced spans it encloses.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

# layer -> the functions the workloads reach, as (module, attribute) or
# (module, class, method)
SPANS = {
    "moments.transform": [("tailbound.moments", "shift_to_origin"),
                          ("tailbound.moments", "reflect_moments"),
                          ("tailbound.moments", "restrict_order")],
    "mgf.factor": [("tailbound.mgf", "c_factor_from_moments")],
    "distributions.tilted": [("tailbound.distributions", cls, "tilted_first_second")
                             for cls in ("Uniform", "Bernoulli", "Beta")],
    "distributions.sample": [("tailbound.distributions", cls, "sample")
                             for cls in ("Uniform", "Bernoulli")],
    "special.solve": [("tailbound.special", "solve_poly_exp")],
    "hoeffding": [("tailbound.hoeffding", name) for name in
                  ("hoeffding_bound", "hoeffding_two_sided", "hoeffding_limit",
                   "sample_size_for_ci", "ci_c_bar")],
    "bennett": [("tailbound.bennett", "bennett_bound")],
    "oracle.mc": [("tailbound.oracle", "mc_tail")],
}
# counted only: the pure-Python kernel's residual, evaluated per grid point
COUNTS = {
    "special.residual": [("tailbound._kernels._pyfallback", "poly_exp_residual")],
}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.draws = 0
        self._stack: list[list[int]] = []
        self._undo: list[tuple[object, str, object]] = []

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "total_ns": dict(self.total_ns),
                "self_ns": dict(self.self_ns), "draws": self.draws}

    def _span(self, layer, fn):
        stack, calls, total, own = self._stack, self.calls, self.total_ns, self.self_ns
        clock = time.perf_counter_ns
        draws_of = _mc_draws(fn) if layer == "oracle.mc" else None

        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[layer] += 1
                total[layer] += elapsed
                own[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if draws_of is not None:
                    self.draws += draws_of(args, kwargs)

        return wrapper

    def _count(self, key, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every traced function in every loaded tailbound module."""
        for table, make in ((SPANS, self._span), (COUNTS, self._count)):
            for layer, targets in table.items():
                for target in targets:
                    owner = sys.modules[target[0]]
                    if len(target) == 3:
                        owner = getattr(owner, target[1])
                    original = vars(owner)[target[-1]]
                    wrapped = make(layer, original)
                    for holder in _holders(original, owner):
                        name = _name_in(holder, original)
                        self._undo.append((holder, name, original))
                        setattr(holder, name, wrapped)

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._undo):
            setattr(holder, name, original)
        self._undo.clear()


def _holders(fn, owner):
    """owner plus every tailbound module that imported fn under some name."""
    if isinstance(owner, type):
        return [owner]
    out = [owner]
    for mod_name, mod in list(sys.modules.items()):
        if mod is owner or mod is None or not mod_name.startswith("tailbound"):
            continue
        if any(value is fn for value in vars(mod).values()):
            out.append(mod)
    return out


def _name_in(holder, fn) -> str:
    for key, value in vars(holder).items():
        if value is fn:
            return key
    raise KeyError(fn)


def _mc_draws(fn):
    sig = inspect.signature(fn)

    def draws(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments["n"] * bound.arguments["trials"]

    return draws


def per_layer(snapshot: dict, ops: int) -> dict[str, float]:
    """Per-operation layer metrics (library layers) from a tracer snapshot."""
    calls, total, own = snapshot["calls"], snapshot["total_ns"], snapshot["self_ns"]

    def ms(table, key):
        return table.get(key, 0) / 1e6 / ops

    mc_s = total.get("oracle.mc", 0) / 1e9
    return {
        "moments.transform_calls_per_op": calls.get("moments.transform", 0) / ops,
        "moments.transform_ms_per_op": ms(total, "moments.transform"),
        "mgf.factor_calls_per_op": calls.get("mgf.factor", 0) / ops,
        "mgf.factor_ms_per_op": ms(total, "mgf.factor"),
        "distributions.tilted_ms_per_op": ms(total, "distributions.tilted"),
        "distributions.sample_ms_per_op": ms(total, "distributions.sample"),
        "special.solve_calls_per_op": calls.get("special.solve", 0) / ops,
        "special.solve_ms_per_op": ms(total, "special.solve"),
        "special.residual_evals_per_op": calls.get("special.residual", 0) / ops,
        "hoeffding.self_ms_per_op": ms(own, "hoeffding"),
        "bennett.self_ms_per_op": ms(own, "bennett"),
        "oracle.mc_ms_per_op": ms(total, "oracle.mc"),
        "oracle.draws_per_s": snapshot["draws"] / mc_s if mc_s else 0.0,
    }


def merge(snapshots) -> dict:
    out = {"calls": defaultdict(int), "total_ns": defaultdict(int),
           "self_ns": defaultdict(int), "draws": 0}
    for snap in snapshots:
        for key in ("calls", "total_ns", "self_ns"):
            for layer, value in snap[key].items():
                out[key][layer] += value
        out["draws"] += snap["draws"]
    return {k: dict(v) if isinstance(v, defaultdict) else v for k, v in out.items()}
