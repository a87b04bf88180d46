"""Span tracing of the library's layers, installed from outside the library.

``Tracer.install`` replaces each layer's public functions with a recording
wrapper wherever a module binds them (``correlation.aux_f``,
``response.response_kernel``, the package namespace, ...), so every call path
is seen without editing the library.  A span records its id, the id of the
span that caused it, the operation it belongs to, layer, function, start and
end.  Spans stay in memory (up to ``MAX_STORED_SPANS``; the aggregates keep
counting past the cap) and are written out by ``write``.

Self time is a span's duration minus the time its direct child spans cover.
Quadrature work is counted once per integral: a quadrature span counts its
evaluations only when no other quadrature span encloses it within the same
integrand call (integrate_pv -> integrate_adaptive is one integral; an oracle
integrand that itself integrates starts a new one).  Counts come from the
returned ``evals``, ``QuadratureResult.evaluations`` and
``ToleranceNotMet.evaluations``.
"""

import functools
import json
import sys
import time

import numpy as np

LAYERS = {
    "special": ("aux_f", "response_kernel", "response_kernel_direct", "response_kernel_limit",
                "faddeeva_w", "erfc_complex"),
    "quadrature": ("integrate_adaptive", "integrate_semi_infinite",
                   "integrate_semi_infinite_complex", "integrate_pv", "find_root_bracketed",
                   "find_last_sign_change", "minimize_scalar"),
    "geometry": ("f_arguments", "image_terms", "radial_pair", "coefficient_breakpoints",
                 "same_side_coefficient", "opposite_sides_coefficient"),
    "response": ("p_string", "p_boundary", "p_flat"),
    "correlation": ("x_string", "x_boundary", "x_flat", "correlation_for"),
    "entanglement": ("concurrence", "concurrence_flat", "response_pair", "d_max",
                     "opposite_sides_terminal_l", "nu_extremum", "sweep"),
    "oracle": ("p0_oracle", "p1_oracle", "p1_oracle_terms", "p2_oracle", "x0_oracle",
               "xp_oracle", "compare", "p0_epsilon_regulated", "p0_epsilon_extrapolated",
               "epsilon_extrapolation_check"),
    "verification": ("run_verification",),
    "serialize": ("sweep_to_csv", "sweep_to_dict", "csv_text"),
}

INTEGRALS = ("integrate_adaptive", "integrate_semi_infinite", "integrate_semi_infinite_complex",
             "integrate_pv")
MAX_STORED_SPANS = 200_000

PER_OP_COUNTS = ("special.points", "quadrature.integrals", "quadrature.evaluations",
                 "quadrature.budget_exhausted", "quadrature.pv_calls",
                 "quadrature.root_objective_evals", "serialize.bytes")


class _Frame:
    """An open span on the call stack."""

    __slots__ = ("span_id", "layer", "start", "child_time")

    def __init__(self, span_id, layer, start):
        self.span_id = span_id
        self.layer = layer
        self.start = start
        self.child_time = 0.0


class Tracer:
    def __init__(self):
        self.spans = []
        self.dropped = 0
        self.stack = []
        # one flag per integrand call in progress: is a quadrature span open in it?
        self.quad_open = [False]
        self.next_id = 1
        self.calls = {layer: 0 for layer in LAYERS}
        self.self_time = {layer: 0.0 for layer in LAYERS}
        self.counts = {name: 0 for name in PER_OP_COUNTS}
        self.special_calls = 0
        self.dmax_calls = 0
        self.dmax_depth = 0
        self.margin_evals = 0
        self.p_string_calls = 0
        self.p_string_distinct = 0
        self._p_string_seen = set()
        self.ops = 0     # operations begun; spans carry this as their operation id
        self._patched = []

    # -- installation ------------------------------------------------------

    def install(self, package):
        """Wrap every layer function in every loaded module of ``package``."""
        prefix = package.__name__
        wrappers = {}
        for layer, names in LAYERS.items():
            module = sys.modules[f"{prefix}.{layer}"]
            for name in names:
                fn = getattr(module, name)
                wrappers[id(fn)] = self._wrap(layer, name, fn)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched = []

    def begin_op(self):
        self.ops += 1
        self._p_string_seen = set()

    def _wrap(self, layer, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._call(layer, name, fn, args, kwargs)

        return traced

    def _integrand(self, fn, count_root=False):
        tracer = self

        def integrand(*args, **kwargs):
            tracer.quad_open.append(False)
            if count_root:
                tracer.counts["quadrature.root_objective_evals"] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.quad_open.pop()

        return integrand

    # -- recording ---------------------------------------------------------

    def _call(self, layer, name, fn, args, kwargs):
        outermost = False
        if layer == "quadrature":
            outermost = not self.quad_open[-1]
            self.quad_open[-1] = True
            if args and callable(args[0]):
                args = (self._integrand(args[0], name == "find_root_bracketed"),) + args[1:]
            if name == "integrate_pv":
                self.counts["quadrature.pv_calls"] += 1
        elif layer == "special":
            self.special_calls += 1
            if args:
                self.counts["special.points"] += int(np.size(args[0]))
        elif layer == "response" and name == "p_string":
            self.p_string_calls += 1
            key = (repr(args), repr(sorted(kwargs.items())))
            if key not in self._p_string_seen:
                self._p_string_seen.add(key)
                self.p_string_distinct += 1
        elif layer == "entanglement":
            if name == "d_max":
                self.dmax_calls += 1
                self.dmax_depth += 1
            elif name == "concurrence" and self.dmax_depth:
                self.margin_evals += 1

        parent = self.stack[-1].span_id if self.stack else 0
        frame = _Frame(self.next_id, layer, time.perf_counter())
        self.next_id += 1
        self.stack.append(frame)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as exc:
            if outermost and hasattr(exc, "evaluations"):
                self.counts["quadrature.budget_exhausted"] += 1
                self._count_integral(name, exc.evaluations)
            raise
        finally:
            end = time.perf_counter()
            self.stack.pop()
            if layer == "quadrature" and outermost:
                self.quad_open[-1] = False
                if result is not None:
                    self._count_integral(name, _evaluations(name, result))
            if layer == "entanglement" and name == "d_max":
                self.dmax_depth -= 1
            if layer == "serialize" and isinstance(result, str) and not self._stack_has("serialize"):
                self.counts["serialize.bytes"] += len(result.encode())
            duration = end - frame.start
            self.calls[layer] += 1
            self.self_time[layer] += duration - frame.child_time
            if self.stack:
                self.stack[-1].child_time += duration
            if len(self.spans) < MAX_STORED_SPANS:
                self.spans.append((frame.span_id, parent, self.ops, layer, name,
                                   frame.start, end))
            else:
                self.dropped += 1

    def _stack_has(self, layer):
        return any(f.layer == layer for f in self.stack)

    def _count_integral(self, name, evaluations):
        if name in INTEGRALS and evaluations is not None:
            self.counts["quadrature.integrals"] += 1
            self.counts["quadrature.evaluations"] += int(evaluations)

    # -- results -----------------------------------------------------------

    def metrics(self, traced_wall, overhead_frac):
        """Per-layer metrics, per operation where the name is a count.

        ``traced_wall`` is the time the traced operations took, the base of the
        self-time shares; ``overhead_frac`` is reported as trace.overhead_frac.
        """
        ops = max(self.ops, 1)
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.calls[layer] / ops, "count/op")
            out[f"{layer}.self_s"] = (self.self_time[layer] / ops, "s/op")
            out[f"{layer}.self_share"] = (self.self_time[layer] / traced_wall, "frac")
        for name in PER_OP_COUNTS:
            out[name] = (self.counts[name] / ops, "B/op" if name == "serialize.bytes" else "count/op")
        out["special.points_per_call"] = (
            self.counts["special.points"] / max(self.special_calls, 1), "count")
        out["response.p_string.distinct_ratio"] = (
            self.p_string_distinct / max(self.p_string_calls, 1), "frac")
        out["entanglement.margin_evals_per_dmax"] = (
            self.margin_evals / max(self.dmax_calls, 1), "count")
        out["quadrature.evals_per_integral"] = (
            self.counts["quadrature.evaluations"] / max(self.counts["quadrature.integrals"], 1),
            "count")
        out["trace.overhead_frac"] = (overhead_frac, "frac")
        return out

    def write(self, path):
        """Write the stored spans as JSON lines; the last line counts spans not stored."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op_id, layer, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op_id,
                                     "layer": layer, "fn": name, "start": start,
                                     "end": end}) + "\n")
            fh.write(json.dumps({"stored": len(self.spans), "dropped": self.dropped}) + "\n")


def _evaluations(name, result):
    if name in ("integrate_adaptive", "integrate_semi_infinite_complex"):
        return result[2]
    if name in ("integrate_semi_infinite", "integrate_pv"):
        return result.evaluations
    return None
