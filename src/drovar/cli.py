"""Command-line front end.

Subcommands:

    bound-mean      worst-case mean of rho over the divergence ball
    bound-variance  worst-case mean-plus-variance objective
    sweep           bound-variance across an eta grid (JSON array; optional CSV)
    oracle-check    bound-variance cross-checked against the primal slice oracle
    robust          projected-gradient minimization over decisions (box or simplex)

Input is UTF-8 CSV, a leading byte-order mark allowed: columns rho, phi and
optional weight for the bound subcommands (bound-mean reads only rho), r1..rd
and optional weight for robust.
Zero weights drop the atom.  Output is JSON on stdout with floats at 12
significant digits; repeated runs on identical inputs are byte-identical.
Exit codes: 0 success, 1 stdout closed early, 2 bad input/config, 3 oracle
gap beyond tolerance (|gap| > tol * (1 + |oracle value|)), 5 oracle size
unsupported.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys

import numpy as np

from .divergences import check_eta, parse_family
from .errors import UnsupportedSizeError, ValidationError
from .measures import EmpiricalMeasure, ProblemData, normalize, uniform_measure
from .oracle import OracleConfig, primal_sup_grid
from .robust import Box, ScenarioMatrix, Simplex, _minimize
from .solver import BOUNDARY_LAMBDA, SolverConfig, mean_bound, variance_bound

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


def _json(value, pad: str) -> str:
    """value as JSON text, its container items on lines indented pad + two spaces."""
    if isinstance(value, bool):  # before int: bool is an int
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    inner = pad + "  "
    if isinstance(value, dict):
        items = [f"{inner}{json.dumps(k)}: {_json(v, inner)}" for k, v in value.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}" if items else "{}"
    if (type(value) is list and value and all(type(v) is float for v in value)
            and math.isfinite(sum(value))):
        # finite floats, the common bulk: one format over the whole list,
        # with + 0.0 normalizing -0.0 as _fmt_float does
        sep = ",\n" + inner
        return (f"[\n{inner}" + sep.join(["%.12g"] * len(value)) + f"\n{pad}]") % tuple(
            [v + 0.0 for v in value])
    # any other iterable is a list; a value that is not one raises TypeError
    items = [inner + _json(v, inner) for v in value]
    return "[\n" + ",\n".join(items) + f"\n{pad}]" if items else "[]"


def render_json(value) -> str:
    return _json(value, "")


def bound_record(res, eta: float, family) -> dict:
    return {
        "bound": res.value,
        "dual_point": {
            "lambda": res.dual_point.lam,
            "beta": res.dual_point.beta,
            "nu": res.dual_point.nu,
        },
        "tilt_weights": res.tilt.tolist(),
        "diagnostics": {
            "normalization": res.diagnostics.normalization,
            "achieved_divergence": res.diagnostics.achieved_divergence,
            "mean_condition_gap": res.diagnostics.mean_condition_gap,
            "boundary": res.status == BOUNDARY_LAMBDA,
        },
        "status": res.status,
        "iterations": res.iterations,
        "eta": eta,
        "divergence": family.label,
    }


# ---------------------------------------------------------------------------
# CSV ingestion


def _read_rows(path: str) -> tuple[list[str], list[list[str]]]:
    """The stripped header names and the data rows, blank rows skipped."""
    try:
        # utf-8-sig drops the byte-order mark that spreadsheets write
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValidationError(f"input file {path!r} is empty")
            names = [n.strip() for n in header]
            twice = sorted({n for n in names if n and names.count(n) > 1})
            if twice:
                raise ValidationError(f"duplicate column names {twice} in {path!r}")
            rows = [row for row in reader if row]
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read input file {path!r}: {exc}") from exc
    if not rows:
        raise ValidationError(f"input file {path!r} has no data rows")
    return names, rows


def _column(rows: list[list[str]], names: list[str], want: str) -> np.ndarray:
    if want not in names:
        raise ValidationError(f"missing required column {want!r}")
    j = names.index(want)
    try:  # every cell present and numeric: one pass over the column
        return np.array([float(row[j]) for row in rows])
    except (IndexError, ValueError):
        pass  # a short row or a bad cell: the loop below raises at the first
    for i, row in enumerate(rows, start=1):
        cell = row[j].strip() if j < len(row) else ""
        if cell == "":
            raise ValidationError(f"missing value at data row {i}, column {want!r}")
        try:
            float(cell)
        except ValueError as exc:
            raise ValidationError(
                f"non-numeric value {cell!r} at data row {i}, column {want!r}"
            ) from exc


def _columns(names, rows, wanted) -> tuple[np.ndarray, EmpiricalMeasure]:
    """The wanted columns as an n x k array without the rows of weight 0, and
    the normalized measure (uniform when there is no weight column)."""
    cols = np.column_stack([_column(rows, names, want) for want in wanted])
    if "weight" not in names:
        return cols, uniform_measure(len(rows))
    raw = _column(rows, names, "weight")
    p, _ = normalize(raw)
    return cols[raw > 0.0], p


def ingest_bound_csv(path: str) -> tuple[ProblemData, EmpiricalMeasure]:
    """Read rho, phi, and optional weight; zero-weight atoms are dropped."""
    cols, p = _columns(*_read_rows(path), ("rho", "phi"))
    return ProblemData(rho=cols[:, 0], phi=cols[:, 1]), p


def ingest_scenario_csv(path: str) -> ScenarioMatrix:
    """Read r1..rd and optional weight into a scenario matrix."""
    names, rows = _read_rows(path)
    dim = max((int(name[1:]) for name in names
               if len(name) > 1 and name[0] == "r" and name[1:].isdigit()), default=0)
    if dim < 1:
        raise ValidationError("missing required columns r1..rd")
    matrix, p = _columns(names, rows, [f"r{k}" for k in range(1, dim + 1)])
    return ScenarioMatrix(rows=matrix, weights=p)


# ---------------------------------------------------------------------------
# Subcommands: each returns (record, exit code), and main renders the record


def _cmd_bound_mean(args) -> tuple[dict, int]:
    cols, p = _columns(*_read_rows(args.input), ("rho",))
    family = parse_family(args.divergence)
    res = mean_bound(cols[:, 0], p, family, args.eta, config=SolverConfig(grad_tol=args.tol))
    return bound_record(res, args.eta, family), 0


def _cmd_bound_variance(args) -> tuple[dict, int]:
    data, p = ingest_bound_csv(args.input)
    family = parse_family(args.divergence)
    res = variance_bound(data, p, family, args.eta, config=SolverConfig(grad_tol=args.tol))
    return bound_record(res, args.eta, family), 0


def _cmd_sweep(args) -> tuple[list, int]:
    if args.steps < 2:
        raise ValidationError(f"--steps must be at least 2, got {args.steps}")
    if not args.eta_min < args.eta_max:
        raise ValidationError("--eta-min must be strictly below --eta-max")
    data, p = ingest_bound_csv(args.input)
    family = parse_family(args.divergence)
    cfg = SolverConfig(grad_tol=args.tol)
    # both ends are checked before the curve file is opened and before any
    # solve, so a bad radius leaves an existing curve file intact
    check_eta(args.eta_min, family)
    check_eta(args.eta_max, family)
    etas = np.linspace(args.eta_min, args.eta_max, args.steps)
    try:  # opened before the solves, so a bad path fails before any work
        curve = open(args.curve_out, "w", newline="") if args.curve_out else None
    except OSError as exc:
        raise ValidationError(f"cannot write curve file {args.curve_out!r}: {exc}") from exc
    with curve or contextlib.nullcontext():
        records = []
        for eta in etas:
            res = variance_bound(data, p, family, float(eta), config=cfg)
            records.append(bound_record(res, float(eta), family))
        if curve is not None:
            curve.write("eta,bound\n")
            for rec in records:
                curve.write(f"{_fmt_float(rec['eta'])},{_fmt_float(rec['bound'])}\n")
    return records, 0


def _cmd_oracle_check(args) -> tuple[dict, int]:
    if not args.tol > 0.0:
        raise ValidationError(f"--tol must be positive, got {args.tol!r}")
    data, p = ingest_bound_csv(args.input)
    family = parse_family(args.divergence)
    res = variance_bound(data, p, family, args.eta)
    oracle_cfg = OracleConfig(grid_per_dim=args.grid)
    oracle_value, _ = primal_sup_grid(data, p, family, args.eta, oracle_cfg)
    gap = res.value - oracle_value
    record = bound_record(res, args.eta, family)
    record["oracle_value"] = oracle_value
    record["gap"] = gap
    return record, 0 if abs(gap) <= args.tol * (1.0 + abs(oracle_value)) else 3


def _cmd_robust(args) -> tuple[dict, int]:
    scenarios = ingest_scenario_csv(args.input)
    family = parse_family(args.divergence)
    cfg = SolverConfig(grad_tol=args.tol)
    if args.simplex:
        constraint = Simplex()
    else:
        lo, hi = args.box
        if not lo <= hi:
            raise ValidationError("--box LO must not exceed HI")
        constraint = Box(
            lo=np.full(scenarios.dim, lo), hi=np.full(scenarios.dim, hi)
        )
    x, res = _minimize(scenarios, constraint, family, args.eta, cfg)
    record = bound_record(res, args.eta, family)
    record["x"] = x.tolist()
    return record, 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="drovar",
        description="Worst-case mean/variance bounds over f-divergence neighborhoods.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, steps=False, tol=SolverConfig.grad_tol, tol_help="solver gradient tolerance"):
        sp.add_argument("--input", required=True, help="CSV input file")
        sp.add_argument("--divergence", required=True, help="'kl' or 'alpha:<value>'")
        sp.add_argument("--tol", type=float, default=tol, help=tol_help + " (default %(default)g)")
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

    oc = sub.add_parser("oracle-check", help="compare against the primal slice oracle")
    common(oc, tol=_ORACLE_GAP_TOL,
           tol_help="tolerance on |gap| / (1 + |oracle value|); "
           "the solve keeps its default settings")
    oc.add_argument("--grid", type=int, default=OracleConfig.grid_per_dim,
                    help="oracle t-grid points for 3 atoms (default %(default)s, at least 101); "
                    "2 atoms are one exact slice")
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
            record, code = args.handler(args)
            print(render_json(record))
        # flush here, so a closed pipe surfaces inside this try
        sys.stdout.flush()
        return code
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnsupportedSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except BrokenPipeError:
        # the reader closed stdout early: point it at devnull so the
        # interpreter's final flush raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
