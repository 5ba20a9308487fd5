"""Command-line front end.

Subcommands:

    bound-mean      worst-case mean of rho over the divergence ball
    bound-variance  worst-case mean-plus-variance objective
    sweep           bound-variance across an eta grid (JSON array; optional CSV)
    oracle-check    bound-variance cross-checked against the primal grid oracle
    robust          outer Nelder-Mead over decisions (box or simplex)

Input is CSV: columns rho, phi and optional weight for the bound subcommands;
columns r1..rd and optional weight for robust.  Zero weights drop the atom.
Output is JSON on stdout with floats at 12 significant digits; repeated runs
on identical inputs are byte-identical.  Exit codes: 0 success, 2 bad
input/config, 3 oracle gap beyond tolerance, 4 infeasible solver start,
5 oracle size unsupported.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from .divergences import parse_family
from .errors import InfeasibleStartError, UnsupportedSizeError, ValidationError
from .measures import EmpiricalMeasure, ProblemData, normalize, uniform_measure
from .oracle import OracleConfig, primal_sup_grid
from .robust import Box, ScenarioMatrix, Simplex, robust_bound, robust_minimize
from .solver import SolverConfig, mean_bound, variance_bound

_ORACLE_GAP_TOL = 1e-4


# ---------------------------------------------------------------------------
# JSON emission: 12 significant digits, deterministic layout


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        raise ValueError("NaN has no JSON encoding here")
    if math.isinf(x):
        return "1e999" if x > 0 else "-1e999"
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return f"{x:.12g}"


def _emit(value, out: list[str], indent: int) -> None:
    pad = "  " * indent
    if isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(_fmt_float(float(value)))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(value.items()):
            out.append(f"{pad}  {json.dumps(k)}: ")
            _emit(v, out, indent + 1)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple, np.ndarray)):
        seq = list(value)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(seq):
            out.append(pad + "  ")
            _emit(v, out, indent + 1)
            out.append(",\n" if i < len(seq) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot emit {type(value)!r}")


def render_json(value) -> str:
    out: list[str] = []
    _emit(value, out, 0)
    return "".join(out)


def bound_record(res, eta: float, family) -> dict:
    return {
        "bound": res.value,
        "dual_point": {
            "lambda": res.dual_point.lam,
            "beta": res.dual_point.beta,
            "nu": res.dual_point.nu,
        },
        "tilt_weights": [float(w) for w in res.tilt.weights],
        "diagnostics": {
            "normalization": res.diagnostics.normalization,
            "achieved_divergence": res.diagnostics.achieved_divergence,
            "mean_condition_gap": res.diagnostics.mean_condition_gap,
            "boundary": res.diagnostics.boundary_flag,
        },
        "status": res.status,
        "iterations": res.iterations,
        "eta": eta,
        "divergence": family.label,
    }


# ---------------------------------------------------------------------------
# CSV ingestion


def _read_rows(path: str) -> tuple[list[str], list[dict]]:
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ValidationError(f"cannot open input file {path!r}: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValidationError(f"input file {path!r} is empty")
        names = [n.strip() for n in reader.fieldnames]
        rows = list(reader)
    if not rows:
        raise ValidationError(f"input file {path!r} has no data rows")
    return names, rows


def _column(rows: list[dict], names: list[str], raw_names: list[str], want: str) -> np.ndarray:
    if want not in names:
        raise ValidationError(f"missing required column {want!r}")
    key = raw_names[names.index(want)]
    vals = []
    for i, row in enumerate(rows, start=1):
        cell = row.get(key)
        if cell is None or cell.strip() == "":
            raise ValidationError(f"missing value at data row {i}, column {want!r}")
        try:
            vals.append(float(cell))
        except ValueError as exc:
            raise ValidationError(
                f"non-numeric value {cell.strip()!r} at data row {i}, column {want!r}"
            ) from exc
    return np.array(vals)


def _weights_for(rows, names, raw_names, count: int):
    if "weight" in names:
        raw = _column(rows, names, raw_names, "weight")
        return normalize(raw)
    return uniform_measure(count), []


def ingest_bound_csv(path: str) -> tuple[ProblemData, EmpiricalMeasure]:
    """Read rho, phi, and optional weight; zero-weight atoms are dropped."""
    raw_names, rows = _read_rows(path)
    names = raw_names
    rho = _column(rows, names, raw_names, "rho")
    phi = _column(rows, names, raw_names, "phi")
    p, dropped = _weights_for(rows, names, raw_names, len(rows))
    if dropped:
        keep = np.setdiff1d(np.arange(len(rows)), np.array(dropped))
        rho, phi = rho[keep], phi[keep]
    return ProblemData(rho=rho, phi=phi), p


def ingest_scenario_csv(path: str) -> ScenarioMatrix:
    """Read r1..rd and optional weight into a scenario matrix."""
    raw_names, rows = _read_rows(path)
    names = raw_names
    indices = []
    for name in names:
        if len(name) > 1 and name[0] == "r" and name[1:].isdigit():
            indices.append(int(name[1:]))
    if not indices:
        raise ValidationError("missing required columns r1..rd")
    d = max(indices)
    cols = []
    for k in range(1, d + 1):
        cols.append(_column(rows, names, raw_names, f"r{k}"))
    matrix = np.column_stack(cols)
    p, dropped = _weights_for(rows, names, raw_names, len(rows))
    if dropped:
        keep = np.setdiff1d(np.arange(len(rows)), np.array(dropped))
        matrix = matrix[keep]
    return ScenarioMatrix(rows=matrix, weights=p)


# ---------------------------------------------------------------------------
# Subcommands


def _solver_config(args) -> SolverConfig:
    if args.tol is not None:
        return SolverConfig(grad_tol=args.tol)
    return SolverConfig()


def _cmd_bound_mean(args) -> int:
    data, p = ingest_bound_csv(args.input)
    family = parse_family(args.divergence)
    res = mean_bound(data.rho, p, family, args.eta, config=_solver_config(args))
    print(render_json(bound_record(res, args.eta, family)))
    return 0


def _cmd_bound_variance(args) -> int:
    data, p = ingest_bound_csv(args.input)
    family = parse_family(args.divergence)
    res = variance_bound(data, p, family, args.eta, config=_solver_config(args))
    print(render_json(bound_record(res, args.eta, family)))
    return 0


def _cmd_sweep(args) -> int:
    if args.steps < 2:
        raise ValidationError(f"--steps must be at least 2, got {args.steps}")
    if not args.eta_min < args.eta_max:
        raise ValidationError("--eta-min must be strictly below --eta-max")
    data, p = ingest_bound_csv(args.input)
    family = parse_family(args.divergence)
    cfg = _solver_config(args)
    etas = np.linspace(args.eta_min, args.eta_max, args.steps)
    records = []
    for eta in etas:
        res = variance_bound(data, p, family, float(eta), config=cfg)
        records.append(bound_record(res, float(eta), family))
    print(render_json(records))
    if args.curve_out:
        with open(args.curve_out, "w", newline="") as fh:
            fh.write("eta,bound\n")
            for rec in records:
                fh.write(f"{_fmt_float(rec['eta'])},{_fmt_float(rec['bound'])}\n")
    return 0


def _cmd_oracle_check(args) -> int:
    data, p = ingest_bound_csv(args.input)
    family = parse_family(args.divergence)
    res = variance_bound(data, p, family, args.eta, config=_solver_config(args))
    oracle_cfg = OracleConfig(grid_per_dim=args.grid) if args.grid else OracleConfig()
    oracle_value, _ = primal_sup_grid(data, p, family, args.eta, oracle_cfg)
    gap = res.value - oracle_value
    record = bound_record(res, args.eta, family)
    record["oracle_value"] = oracle_value
    record["gap"] = gap
    print(render_json(record))
    tol = args.tol if args.tol is not None else _ORACLE_GAP_TOL
    return 0 if abs(gap) <= tol else 3


def _cmd_robust(args) -> int:
    scenarios = ingest_scenario_csv(args.input)
    family = parse_family(args.divergence)
    cfg = SolverConfig(grad_tol=args.tol) if args.tol is not None else SolverConfig()
    if args.simplex:
        constraint = Simplex()
    else:
        lo, hi = args.box
        if not lo <= hi:
            raise ValidationError("--box LO must not exceed HI")
        constraint = Box(
            lo=np.full(scenarios.dim, lo), hi=np.full(scenarios.dim, hi)
        )
    x, _ = robust_minimize(scenarios, constraint, family, args.eta, config=cfg)
    res = robust_bound(x, scenarios, family, args.eta, config=cfg)
    record = bound_record(res, args.eta, family)
    record["x"] = [float(v) for v in x]
    print(render_json(record))
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="drovar",
        description="Worst-case mean/variance bounds over f-divergence neighborhoods.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, steps=False):
        sp.add_argument("--input", required=True, help="CSV input file")
        sp.add_argument("--divergence", required=True, help="'kl' or 'alpha:<value>'")
        sp.add_argument("--tol", type=float, default=None,
                        help="solver gradient tolerance (oracle-check: gap tolerance)")
        if steps:
            sp.add_argument("--eta-min", type=float, required=True)
            sp.add_argument("--eta-max", type=float, required=True)
            sp.add_argument("--steps", type=int, required=True)
        else:
            sp.add_argument("--eta", type=float, required=True)

    bm = sub.add_parser("bound-mean", help="worst-case mean of rho")
    common(bm)
    bm.set_defaults(handler=_cmd_bound_mean)

    bv = sub.add_parser("bound-variance", help="worst-case mean + variance")
    common(bv)
    bv.set_defaults(handler=_cmd_bound_variance)

    sw = sub.add_parser("sweep", help="bound-variance across an eta grid")
    common(sw, steps=True)
    sw.add_argument("--curve-out", default=None, help="write eta,bound CSV here")
    sw.set_defaults(handler=_cmd_sweep)

    oc = sub.add_parser("oracle-check", help="compare against the primal grid oracle")
    common(oc)
    oc.add_argument("--grid", type=int, default=None, help="oracle grid points per dim")
    oc.set_defaults(handler=_cmd_oracle_check)

    rb = sub.add_parser("robust", help="minimize the worst case over decisions")
    common(rb)
    region = rb.add_mutually_exclusive_group(required=True)
    region.add_argument("--box", nargs=2, type=float, metavar=("LO", "HI"))
    region.add_argument("--simplex", action="store_true")
    rb.set_defaults(handler=_cmd_robust)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(over="ignore"):
            return args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleStartError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except UnsupportedSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
