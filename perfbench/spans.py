"""In-memory spans around drovar's layers, recorded from outside the library.

`solver`, `robust`, `oracle`, `cli` and `dual_core` import their callees by
name, so a wrapper replaces the attribute in the *calling* module's
namespace (for example `drovar.solver.kl_reduced_objective`); replacing it in
the defining module would not be seen by the caller.  Spans nest through a
stack, so a span's parent is the wrapped call that was open when it began.
Spans of one operation share its id.  Nothing is written until the run ends.

Span layout: [id, parent id, op id, name, start ns, end ns, attrs].
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns

# Passes over n-element float64 arrays that one objective evaluation makes in
# the current dual_core code, counted from the source (each elementwise numpy operation
# reads its array operands and writes its result; `data.psi` is recomputed
# per call at 5 passes; scipy's logsumexp is modelled as 9 passes: max,
# subtract, exp, scale by the weights, sum; boolean masks and masked
# sub-arrays are counted at full length; 1-byte masks are left out).
# Multiplied by 8 bytes and n this is the computed byte count of a call.
OBJ_PASSES = {
    "kl_reduced_objective": 21,     # psi 5, nu*phi 2, psi-. 3, /lam 2, lse 9
    "alpha_reduced_objective": 17,  # gaps 12 (psi incl.), power 2, dot 2, any 1
    "dual_objective_variance": 30,  # psi 5, args 9, conj_eval(alpha>1) 13, isinf 1, dot 2
}


class Recorder:
    """Collects spans in memory; `wrap` installs a timing wrapper."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    def wrap(self, module, attr: str, name: str, info=None):
        inner = getattr(module, attr)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, self.op, name, 0, 0, None]
            spans.append(span)
            stack.append(span[0])
            span[4] = perf_counter_ns()
            try:
                out = inner(*args, **kwargs)
            finally:
                span[5] = perf_counter_ns()
                stack.pop()
            if info is not None:
                span[6] = info(args, out)
            return out

        wrapper.__wrapped__ = inner
        setattr(module, attr, wrapper)


def _atoms(i):
    return lambda args, out: {"atoms": len(args[i])}


def _size(args, out):
    return {"atoms": int(getattr(args[1], "size", 1))}


def _obj(fn, i):
    return lambda args, out: {"atoms": len(args[i]), "fn": fn}


def _solve_info(args, out):
    return {"family": args[2].label, "atoms": len(args[1]),
            "status": out.status, "iterations": out.iterations}


def install_library(rec: Recorder) -> None:
    """Wrap the calls the solver, dual core and oracle make into lower layers,
    plus the public entry points the benchmark and the robust/CLI layers call."""
    import drovar.cli as cli
    import drovar.dual_core as dual_core
    import drovar.measures as measures
    import drovar.oracle as oracle
    import drovar.robust as robust
    import drovar.solver as solver

    for fn, i in (("kl_reduced_objective", 3), ("alpha_reduced_objective", 3),
                  ("dual_objective_variance", 2)):
        rec.wrap(solver, fn, "dual_core.obj", _obj(fn, i))
    for fn, i in (("kl_reduced_gradient", 3), ("alpha_reduced_gradient", 3),
                  ("_capped_gradient", 2)):
        # _capped_gradient is defined in solver.py but is the generic path's
        # gradient kernel, so it is counted with the dual-core gradients.
        rec.wrap(solver, fn, "dual_core.grad", _atoms(i))
    for fn in ("kl_optimal_beta", "alpha_inner_lambda"):
        rec.wrap(solver, fn, "dual_core.aux", _atoms(3))
    for fn in ("tilt", "optimality_diagnostics"):
        rec.wrap(solver, fn, "dual_core.certify", _atoms(2))
    for module in (solver, dual_core):
        for fn in ("conj_eval", "conj_deriv"):
            rec.wrap(module, fn, "divergences.conj", _size)
    for module in (dual_core, oracle):
        rec.wrap(module, "f_eval", "divergences.f", _size)
    for module in (robust, cli):
        rec.wrap(module, "ProblemData", "measures.build")
    for module in (measures, oracle):
        rec.wrap(module, "EmpiricalMeasure", "measures.build")
    for module in (solver, robust, cli):
        rec.wrap(module, "variance_bound", "solver.solve", _solve_info)
    rec.wrap(oracle, "primal_sup_grid", "oracle.call", _atoms(1))
    rec.wrap(robust, "robust_minimize", "robust.minimize")
    rec.wrap(cli, "ingest_bound_csv", "cli.ingest")
    rec.wrap(cli, "render_json", "cli.render")


# ---------------------------------------------------------------------------
# Per-layer metrics from a list of spans


def _dur(s) -> int:
    return s[5] - s[4]


def _mean(xs, scale=1.0):
    xs = list(xs)
    return scale * sum(xs) / len(xs) if xs else 0.0


def _ratio(a, b):
    return a / b if b else 0.0


PER_LAYER_UNITS = {
    "measures.build_us": "us",
    "divergences.conj_calls_per_solve": "count",
    "divergences.conj_ns_per_atom": "ns",
    "dual_core.obj_calls_per_solve": "count",
    "dual_core.grad_calls_per_solve": "count",
    "dual_core.obj_us": "us",
    "dual_core.grad_us": "us",
    "dual_core.obj_ns_per_atom": "ns",
    "dual_core.bytes_per_obj_computed": "B",
    "dual_core.certify_ms": "ms",
    "solver.solve_ms.kl": "ms",
    "solver.solve_ms.alpha2": "ms",
    "solver.solve_ms.alpha0_5": "ms",
    "solver.solve_ms.scaled": "ms",
    "solver.self_ms": "ms",
    "solver.iterations_p50": "count",
    "solver.status.converged_frac": "ratio",
    "solver.status.boundary_frac": "ratio",
    "solver.status.maxiters_frac": "ratio",
    "solver.generic_fallback_frac": "ratio",
    "solver.scaled_gap_max": "1",
    "oracle.call_ms.n2": "ms",
    "oracle.call_ms.n3": "ms",
    "oracle.escalation_frac": "ratio",
    "oracle.share": "ratio",
    "oracle.points_per_call_computed": "count",
    "robust.inner_solves_per_minimize": "count",
    "robust.inner_solve_ms": "ms",
    "robust.outer_self_ms": "ms",
    "cli.import_s": "s",
    "cli.ingest_ms": "ms",
    "cli.render_ms": "ms",
    "cli.process_ms.bound_variance": "ms",
    "cli.process_ms.sweep": "ms",
    "trace.overhead_frac": "ratio",
}

FAMILY_KEYS = {"kl": "kl", "alpha:2": "alpha2", "alpha:0.5": "alpha0_5"}


def layer_metrics(spans, op_tags, op_wall_ns, extra) -> dict[str, float]:
    """Compute every per-layer metric; one that a workload never exercises is 0.

    op_tags maps op id to the operation's tags, op_wall_ns to its latency;
    extra carries the values measured outside spans (the largest duality gap
    of a scaled instance, CLI import and process times, tracing overhead).
    """
    by_name: dict[str, list] = {}
    child_ns = [0] * len(spans)
    for s in spans:
        if s[2] >= 0:  # op id -1 marks calls made by output checks
            by_name.setdefault(s[3], []).append(s)
        if s[1] >= 0:
            child_ns[s[1]] += _dur(s)

    def self_ns(s):
        return _dur(s) - child_ns[s[0]]

    def ancestor(s, name):
        while s[1] >= 0:
            s = spans[s[1]]
            if s[3] == name:
                return s
        return None

    get = lambda name: by_name.get(name, [])
    solves = get("solver.solve")
    objs, grads, conjs = get("dual_core.obj"), get("dual_core.grad"), get("divergences.conj")
    calls = get("oracle.call")
    minimizes = get("robust.minimize")
    m: dict[str, float] = {}

    m["measures.build_us"] = _mean(map(_dur, get("measures.build")), 1e-3)
    m["divergences.conj_calls_per_solve"] = _ratio(
        sum(1 for s in conjs if ancestor(s, "solver.solve")), len(solves))
    m["divergences.conj_ns_per_atom"] = _ratio(
        sum(map(_dur, conjs)), sum(s[6]["atoms"] for s in conjs))
    m["dual_core.obj_calls_per_solve"] = _ratio(len(objs), len(solves))
    m["dual_core.grad_calls_per_solve"] = _ratio(len(grads), len(solves))
    m["dual_core.obj_us"] = _mean(map(_dur, objs), 1e-3)
    m["dual_core.grad_us"] = _mean(map(_dur, grads), 1e-3)
    m["dual_core.obj_ns_per_atom"] = _ratio(
        sum(map(_dur, objs)), sum(s[6]["atoms"] for s in objs))
    m["dual_core.bytes_per_obj_computed"] = _mean(
        8.0 * OBJ_PASSES[s[6]["fn"]] * s[6]["atoms"] for s in objs)
    m["dual_core.certify_ms"] = _ratio(
        sum(map(_dur, get("dual_core.certify"))) * 1e-6, len(solves))

    scaled = [s for s in solves if op_tags[s[2]].get("c", 1.0) != 1.0]
    for label, key in FAMILY_KEYS.items():
        m[f"solver.solve_ms.{key}"] = _mean(
            (_dur(s) for s in solves
             if s[6]["family"] == label and op_tags[s[2]].get("c", 1.0) == 1.0), 1e-6)
    m["solver.solve_ms.scaled"] = _mean(map(_dur, scaled), 1e-6)
    m["solver.self_ms"] = _mean(map(self_ns, solves), 1e-6)
    m["solver.iterations_p50"] = (
        float(statistics.median(s[6]["iterations"] for s in solves)) if solves else 0.0)
    for status, key in (("Converged", "converged"), ("BoundaryLambda", "boundary"),
                        ("MaxIters", "maxiters")):
        m[f"solver.status.{key}_frac"] = _ratio(
            sum(1 for s in solves if s[6]["status"] == status), len(solves))
    # auto-mode kl / alpha<1 solves whose reduced path fell back to the 3-d dual
    reduced = [s for s in solves if s[6]["family"] in ("kl", "alpha:0.5")]
    fell_back = {ancestor(s, "solver.solve")[0] for s in objs
                 if s[6]["fn"] == "dual_objective_variance"
                 and ancestor(s, "solver.solve") is not None
                 and ancestor(s, "solver.solve")[6]["family"] in ("kl", "alpha:0.5")}
    m["solver.generic_fallback_frac"] = _ratio(len(fell_back), len(reduced))

    for n in (2, 3):
        m[f"oracle.call_ms.n{n}"] = _mean(
            (_dur(s) for s in calls if s[6]["atoms"] == n), 1e-6)
    oracle_ops = {s[2] for s in calls}
    calls_per_op = [sum(1 for s in calls if s[2] == op) for op in oracle_ops]
    m["oracle.escalation_frac"] = _ratio(sum(1 for k in calls_per_op if k > 1), len(oracle_ops))
    m["oracle.share"] = _ratio(sum(map(_dur, calls)), sum(op_wall_ns.values()))
    m["oracle.points_per_call_computed"] = _ratio(
        sum(s[6]["atoms"] / spans[s[1]][6]["atoms"]
            for s in get("divergences.f") if s[1] >= 0 and spans[s[1]][3] == "oracle.call"),
        len(calls))

    inner = [s for s in solves if ancestor(s, "robust.minimize")]
    m["robust.inner_solves_per_minimize"] = _ratio(len(inner), len(minimizes))
    m["robust.inner_solve_ms"] = _mean(map(_dur, inner), 1e-6)
    m["robust.outer_self_ms"] = _mean(map(self_ns, minimizes), 1e-6)

    m["cli.import_s"] = extra.get("cli.import_s", 0.0)
    m["cli.ingest_ms"] = _mean(map(_dur, get("cli.ingest")), 1e-6)
    m["cli.render_ms"] = _mean(map(_dur, get("cli.render")), 1e-6)
    for key in ("solver.scaled_gap_max", "cli.process_ms.bound_variance",
                "cli.process_ms.sweep", "trace.overhead_frac"):
        m[key] = extra.get(key, 0.0)
    assert set(m) == set(PER_LAYER_UNITS)
    return m
