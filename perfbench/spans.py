"""Spans around hellyfit's public functions, recorded from outside the package.

Several modules bind the traced names at import time
(`from .lp import beta_fixed_rotation` in solver, nets and lab;
`nets.seidel_lp`; the `cli._SOLVERS` table), so `install` replaces every
binding of a traced function in every loaded hellyfit module, including
functions held in module-level dicts.  A span is
`[label, start, end, parent, info]`; `info` carries what the per-layer
metrics need from the call (LP rows, the canonical flag, solver counters).
Spans stay in memory until the run ends.
"""

import math
import sys
import time

CLOCK = time.perf_counter

SOLVERS = ("solver.beta_msw", "solver.beta_direct")
JSONIO = ("jsonio.read_json", "jsonio.load_body", "jsonio.load_container")
CANONICAL = "lp.beta_fixed_rotation:canonical"


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, label, fn, annotate=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [label, CLOCK(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = CLOCK()
            if annotate is not None:
                rec[4] = annotate(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def op(self, fn):
        """Run one benchmark operation under a top-level `bench.op` span."""
        return self.wrap("bench.op", fn)()


def _lp_rows(args, kwargs, out):
    inst = args[0] if args else kwargs["instance"]
    return int(inst.rows.shape[0])


def _built_rows(args, kwargs, out):
    return int(out.rows.shape[0])


def _canonical(args, kwargs, out):
    return bool(args[4] if len(args) > 4 else kwargs.get("canonical", True))


def _net_size(args, kwargs, out):
    return len(out)


def _solver_stats(args, kwargs, out):
    P = args[2] if len(args) > 2 else kwargs["P"]
    s = out.stats
    return (len(P), int(s.lp_calls), int(s.violation_tests), bool(s.fallback))


def _rotation_tries(args, kwargs, out):
    return int(out.rotation_tries)


# (module, attribute, span label, annotate)
TARGETS = (
    ("lp", "seidel_lp", "lp.seidel_lp", _lp_rows),
    ("lp", "build_beta_instance", "lp.build_beta_instance", _built_rows),
    ("lp", "beta_fixed_rotation", "lp.beta_fixed_rotation", _canonical),
    ("lp", "fit_check", "lp.fit_check", None),
    ("nets", "build_net_2d", "nets.build_net_2d", _net_size),
    ("nets", "max_angle_2d", "nets.max_angle_2d", None),
    ("solver", "beta_msw", "solver.beta_msw", _solver_stats),
    ("solver", "beta_direct", "solver.beta_direct", _solver_stats),
    ("lab", "lower_bound_demo", "lab.lower_bound_demo", None),
    ("lab", "inflation_search", "lab.inflation_search", _rotation_tries),
    ("jsonio", "read_json", "jsonio.read_json", None),
    ("jsonio", "load_body", "jsonio.load_body", None),
    ("jsonio", "load_container", "jsonio.load_container", None),
    ("cli", "main", "cli.main", None),
)


def install(tracer):
    """Replace every binding of the traced functions in loaded hellyfit modules."""
    mods = {name: m for name, m in sys.modules.items()
            if name == "hellyfit" or name.startswith("hellyfit.")}
    swap = {}
    for mod, attr, label, annotate in TARGETS:
        fn = getattr(mods["hellyfit." + mod], attr)
        swap[id(fn)] = tracer.wrap(label, fn, annotate)
    for m in mods.values():
        for key, value in list(vars(m).items()):
            if id(value) in swap:
                setattr(m, key, swap[id(value)])
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if id(v) in swap:
                        value[k] = swap[id(v)]
    VPolytope = mods["hellyfit.geometry"].VPolytope
    VPolytope.hull_halfspaces = tracer.wrap("geometry.hull_halfspaces",
                                            VPolytope.hull_halfspaces)


def _label(rec):
    if rec[0] == "lp.beta_fixed_rotation" and rec[4]:
        return CANONICAL
    return rec[0]


def _raw_sums(spans, lo, hi):
    """Per-layer sums over spans[lo:hi]; parents always precede children."""
    paths, child = {}, {}
    for i in range(lo, hi):
        p = spans[i][3]
        paths[i] = paths[p] + (_label(spans[p]),) if p in paths else ()
        if p >= 0:
            child[p] = child.get(p, 0.0) + spans[i][2] - spans[i][1]
    z = dict.fromkeys((
        "seidel_calls", "seidel_rows", "seidel_self", "bbi_rows", "bbi_self",
        "bfr_calls", "bfr_self", "fit_check_calls", "build_net_s", "max_angle_s",
        "margin_lp_calls", "rotations", "msw_s", "direct_s", "sample_s",
        "certify_s", "certify_rows", "lp_calls", "violation_tests",
        "msw_rows", "msw_n", "fallbacks", "demo_s", "inflation_calls",
        "inflation_s", "rotation_tries", "lab_fit_check_s", "boxed_solves",
        "full_fit_s", "jsonio_s", "cli_self", "hull_calls", "op_s", "op_covered"),
        0.0)
    for i in range(lo, hi):
        name, t0, t1, _, info = spans[i]
        dur = t1 - t0
        own = dur - child.get(i, 0.0)
        path = paths[i]
        solver = next((a for a in reversed(path) if a in SOLVERS), None)
        if name == "bench.op":
            z["op_s"] += dur
            z["op_covered"] += child.get(i, 0.0)
        elif name == "lp.seidel_lp":
            z["seidel_calls"] += 1
            z["seidel_rows"] += info
            z["seidel_self"] += own
            if "nets.max_angle_2d" in path:
                z["margin_lp_calls"] += 1
            if "solver.beta_msw" in path:
                z["msw_rows"] += info
            if CANONICAL in path:
                k = path.index(CANONICAL)
                if any(a in SOLVERS for a in path[:k]):
                    z["certify_rows"] += info
        elif name == "lp.build_beta_instance":
            z["bbi_rows"] += info
            z["bbi_self"] += own
        elif name == "lp.beta_fixed_rotation":
            z["bfr_calls"] += 1
            z["bfr_self"] += own
            if info and solver is not None:
                z["certify_s"] += dur
            elif not info and solver == "solver.beta_msw":
                z["sample_s"] += dur
            if info and "lab.inflation_search" in path:
                z["boxed_solves"] += 1
        elif name == "lp.fit_check":
            z["fit_check_calls"] += 1
            if "lab.inflation_search" in path:
                z["lab_fit_check_s"] += dur
        elif name == "nets.build_net_2d":
            z["build_net_s"] += dur
            z["rotations"] += info
        elif name == "nets.max_angle_2d":
            z["max_angle_s"] += dur
        elif name in SOLVERS:
            z["msw_s" if name == "solver.beta_msw" else "direct_s"] += dur
            if name == "solver.beta_msw":
                z["msw_n"] += info[0]
            if solver is None:
                z["lp_calls"] += info[1]
                z["violation_tests"] += info[2]
                z["fallbacks"] += info[3]
            if name == "solver.beta_direct" and "lab.lower_bound_demo" in path:
                z["full_fit_s"] += dur
        elif name == "lab.lower_bound_demo":
            z["demo_s"] += dur
        elif name == "lab.inflation_search":
            z["inflation_calls"] += 1
            z["inflation_s"] += dur
            z["rotation_tries"] += info
        elif name in JSONIO:
            if not any(a in JSONIO for a in path):
                z["jsonio_s"] += dur
        elif name == "cli.main":
            z["cli_self"] += own
        elif name == "geometry.hull_halfspaces":
            z["hull_calls"] += 1
    return z


# (metric name, unit, raw key); the two ratios are derived below
PER_LAYER = (
    ("lp.seidel_lp.calls", "count", "seidel_calls"),
    ("lp.seidel_lp.rows", "count", "seidel_rows"),
    ("lp.seidel_lp.self_s", "s", "seidel_self"),
    ("lp.seidel_lp.us_per_call", "us", None),
    ("lp.build_beta_instance.rows", "count", "bbi_rows"),
    ("lp.build_beta_instance.self_s", "s", "bbi_self"),
    ("lp.beta_fixed_rotation.calls", "count", "bfr_calls"),
    ("lp.beta_fixed_rotation.self_s", "s", "bfr_self"),
    ("lp.fit_check.calls", "count", "fit_check_calls"),
    ("nets.build_net_2d.s", "s", "build_net_s"),
    ("nets.max_angle_2d.s", "s", "max_angle_s"),
    ("nets.margin_lp_calls", "count", "margin_lp_calls"),
    ("nets.rotations", "count", "rotations"),
    ("solver.beta_msw.s", "s", "msw_s"),
    ("solver.beta_direct.s", "s", "direct_s"),
    ("solver.sample_s", "s", "sample_s"),
    ("solver.certify_s", "s", "certify_s"),
    ("solver.certify_rows", "count", "certify_rows"),
    ("solver.lp_calls", "count", "lp_calls"),
    ("solver.violation_tests", "count", "violation_tests"),
    ("solver.rows_per_halfspace", "rows", None),
    ("solver.fallbacks", "count", "fallbacks"),
    ("lab.lower_bound_demo.s", "s", "demo_s"),
    ("lab.inflation_search.calls", "count", "inflation_calls"),
    ("lab.inflation_search.s", "s", "inflation_s"),
    ("lab.rotation_tries", "count", "rotation_tries"),
    ("lab.fit_check.s", "s", "lab_fit_check_s"),
    ("lab.boxed_solves", "count", "boxed_solves"),
    ("lab.full_fit_s", "s", "full_fit_s"),
    ("jsonio.load_s", "s", "jsonio_s"),
    ("cli.self_s", "s", "cli_self"),
    ("geometry.hull_halfspaces.calls", "count", "hull_calls"),
)


def per_layer(spans, first_timed, rounds):
    """Per-layer metrics for one set-up plus one pass over the operation list.

    Spans before `first_timed` belong to set-up and count once; the timed
    spans are divided by the number of passes, which all do the same work.
    """
    setup = _raw_sums(spans, 0, first_timed)
    timed = _raw_sums(spans, first_timed, len(spans))
    z = {k: setup[k] + timed[k] / rounds for k in setup}
    z["us_per_call"] = 1e6 * z["seidel_self"] / z["seidel_calls"] if z["seidel_calls"] else 0.0
    z["rows_per_hs"] = z["msw_rows"] / z["msw_n"] if z["msw_n"] else 0.0
    derived = {"lp.seidel_lp.us_per_call": "us_per_call",
               "solver.rows_per_halfspace": "rows_per_hs"}
    metrics = {}
    for name, unit, key in PER_LAYER:
        value = z[key or derived[name]]
        if unit == "count" and float(value).is_integer():
            value = int(value)
        metrics[name] = {"value": value, "unit": unit}
    coverage = timed["op_covered"] / timed["op_s"] if timed["op_s"] else math.nan
    return metrics, coverage
