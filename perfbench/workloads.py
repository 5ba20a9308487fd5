"""The four benchmark workloads: seeded inputs, one operation each, output checks.

Every workload is a small library of operations built before timing starts:
one to three cycles, each visiting every cell of the workload's design (family,
size, radius, scale, constraint, subcommand) once.  A run repeats the whole
library, so every run has the same mix and every instance is timed several
times.  The instances are fixed and the seed orders the operations inside
each cycle (see Draws for why).

An operation returns its raw outputs; its check turns them into a Verdict.
`ok` is False when the operation failed by the workload's rule (it raised,
or a check failed).  `sound` is False when an output is wrong rather than
merely loose: an exception, a bound below a value the primal attains,
an infeasible decision, a non-reproducible value, a nonzero exit code or
differing CLI bytes.  The one check that can fail while the output stays
sound is the duality tolerance of `duality_small`, because a dual bound
above the oracle is still a certified upper bound.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import drovar.oracle as oracle
import drovar.robust as robust
import drovar.solver as solver
from drovar import (
    Box,
    EmpiricalMeasure,
    ProblemData,
    ScenarioMatrix,
    Simplex,
    alpha_family,
    kl_family,
    mean_var_of,
)
from drovar.dual_core import DIVERGENCE_TOL, MEAN_CONDITION_TOL, NORMALIZATION_TOL

LIBRARY_SEED = 20200919

FAMILIES = (("kl", kl_family()), ("alpha:2", alpha_family(2.0)),
            ("alpha:0.5", alpha_family(0.5)))
ETAS = (0.05, 0.2, 0.5)

# duality_small: the criterion-1 oracle schedule and tolerances.
DUALITY_TOL = 1e-4
ESCALATE_GAP = 5e-5
COARSE = {2: oracle.OracleConfig(), 3: oracle.OracleConfig(grid_per_dim=401)}
FINE = {2: oracle.OracleConfig(grid_per_dim=4001, refine_rounds=5),
        3: oracle.OracleConfig(grid_per_dim=1201, refine_rounds=5)}
SCALES = (1e-6, 1e6)
DUALITY_CYCLES = 3

ATOMS_LARGE_N = 100_000
ATOMS_CYCLES = 1

ROBUST_ETA = 0.1
ROBUST_ROWS = (10, 50)
ROBUST_DIMS = (2, 4)
ROBUST_CYCLES = 1
FEAS_TOL = 1e-9

CLI_SMALL_ROWS = 3
CLI_SWEEP_ROWS = 10_000
CLI_SWEEP_STEPS = 20
MONOTONE_TOL = 1e-8


@dataclass(frozen=True)
class Verdict:
    ok: bool
    sound: bool
    why: str = ""
    gap: float = 0.0  # duality_small: (bound - oracle) / c


PASS = Verdict(True, True)


@dataclass
class Op:
    """One operation: `run` is timed, `check` judges its output afterwards."""

    tags: dict
    run: Callable[[], object]
    check: Callable[[object], Verdict]


@dataclass
class Workload:
    """`latency_tail_ms` is the mean of the latencies beyond `tail_pct`: the
    highest percentile with at least 10 samples beyond it in the shortest
    20-second baseline run.  It is fixed per workload because a run repeats
    the library a whole number of times, and letting the sample count move it
    would move the tail from one instance to another."""

    name: str
    ops: list[Op]
    tail_pct: float
    warm_up: Callable[[], None] = lambda: None
    in_process: bool = True
    extra: dict = field(default_factory=dict)


def _instance(rng, n):
    """rho, phi ~ U(-1, 1) and weights ~ U(0.1, 1), normalized."""
    rho = rng.uniform(-1.0, 1.0, size=n)
    phi = rng.uniform(-1.0, 1.0, size=n)
    w = rng.uniform(0.1, 1.0, size=n)
    return rho, phi, w / w.sum()


class Draws:
    """Workload inputs: a fixed instance library, in a seeded order.

    The solver's run time is chaotic in its input.  Re-timing the same
    48 duality_small operations after moving every input value by 0.1% (five
    such perturbations) gave totals of 3.7-7.7 s, against 4.8-5.3 s for five
    unperturbed repeats, on a 2-core Xeon.  With a few hundred operations per
    run, independent draws per seed would make a run's total depend mostly on
    which hard instances it drew; at 10^5 atoms four independent draws still
    differed by 1.8x in total solve time.  So the instances come from
    LIBRARY_SEED, the same in every run, with the distributions of the test
    suite, and the benchmark seed shuffles the operations inside each cycle.
    """

    def __init__(self, seed: int, stream: int):
        self.base = np.random.default_rng([LIBRARY_SEED, stream])
        self.order = np.random.default_rng([seed, stream])

    def instance(self, n):
        return _instance(self.base, n)

    def shuffled(self, ops):
        return [ops[i] for i in self.order.permutation(len(ops))]


# ---------------------------------------------------------------------------
# duality_small


def duality_verdict(bound: float, oracle_value: float, c: float) -> Verdict:
    """Fails when |bound - oracle| > 1e-4*c; unsound when the bound sits
    below the oracle's attained primal value by more than that."""
    if not (math.isfinite(bound) and math.isfinite(oracle_value)):
        return Verdict(False, False, f"non-finite bound {bound!r} or oracle {oracle_value!r}")
    gap = (bound - oracle_value) / c
    if gap < -DUALITY_TOL:
        return Verdict(False, False, f"bound {bound!r} below oracle {oracle_value!r}", gap)
    if gap > DUALITY_TOL:
        return Verdict(False, True, f"gap {gap:.2e} (after dividing by c) > {DUALITY_TOL:g}", gap)
    return Verdict(True, True, gap=gap)


def _duality_op(data, p, fam_name, fam, eta, c):
    n = len(p)

    def run():
        res = solver.variance_bound(data, p, fam, eta)
        value, _ = oracle.primal_sup_grid(data, p, fam, eta, COARSE[n])
        if abs(res.value - value) > ESCALATE_GAP * c:
            value, _ = oracle.primal_sup_grid(data, p, fam, eta, FINE[n])
        return res, value

    def check(out):
        res, value = out
        return duality_verdict(res.value, value, c)

    tags = {"family": fam_name, "n": n, "eta": eta, "c": c}
    return Op(tags, run, check)


def _duality_cycle(draws, k):
    """18 unscaled cells (family x n x eta) and one scaled op per (family, c),
    with n and eta rotating from cycle to cycle: 6 of 24 ops, a quarter, run
    at (c*rho, sqrt(c)*phi)."""
    unscaled, scaled = [], []
    for (name, fam) in FAMILIES:
        for n in (2, 3):
            for eta in ETAS:
                rho, phi, w = draws.instance(n)
                unscaled.append(_duality_op(ProblemData(rho=rho, phi=phi),
                                            EmpiricalMeasure(w), name, fam, eta, 1.0))
        for j, c in enumerate(SCALES):
            n = 2 + (k + j) % 2
            eta = ETAS[(k + j) % 3]
            rho, phi, w = draws.instance(n)
            scaled.append(_duality_op(ProblemData(rho=c * rho, phi=math.sqrt(c) * phi),
                                      EmpiricalMeasure(w), name, fam, eta, c))
    return draws.shuffled(unscaled + scaled)


def _warm_solves():
    rng = np.random.default_rng(0)
    for _, fam in FAMILIES:
        rho, phi, w = _instance(rng, 3)
        solver.variance_bound(ProblemData(rho=rho, phi=phi), EmpiricalMeasure(w), fam, 0.2)


def duality_small(seed: int, work: Path) -> Workload:
    draws = Draws(seed, 1)
    ops = [op for k in range(DUALITY_CYCLES) for op in _duality_cycle(draws, k)]
    return Workload("duality_small", ops, 93.0, warm_up=_warm_solves)


# ---------------------------------------------------------------------------
# atoms_large


def certificate_verdict(res, nominal: float, eta: float) -> Verdict:
    """The bound is at least the nominal value (P is feasible); a Converged
    result also meets the stationarity tolerances of dual_core."""
    if not math.isfinite(res.value) or res.value < nominal:
        return Verdict(False, False, f"bound {res.value!r} below nominal {nominal!r}")
    if res.status == solver.CONVERGED:
        d = res.diagnostics
        if abs(d.normalization - 1.0) > NORMALIZATION_TOL:
            return Verdict(False, False, f"normalization {d.normalization!r}")
        if abs(d.achieved_divergence - eta) > DIVERGENCE_TOL:
            return Verdict(False, False, f"divergence {d.achieved_divergence!r} vs eta {eta!r}")
        if abs(d.mean_condition_gap) > MEAN_CONDITION_TOL:
            return Verdict(False, False, f"mean condition gap {d.mean_condition_gap!r}")
    return PASS


def _atoms_op(data, p, fam_name, fam, eta):
    nominal = oracle.primal_value(p, data)

    def run():
        return solver.variance_bound(data, p, fam, eta)

    return Op({"family": fam_name, "n": len(p), "eta": eta, "c": 1.0}, run,
              lambda res: certificate_verdict(res, nominal, eta))


def atoms_large(seed: int, work: Path) -> Workload:
    """Each cycle: the three families at the three radii, every operation on
    its own 10^5-atom instance."""
    draws = Draws(seed, 2)
    ops = []
    for _ in range(ATOMS_CYCLES):
        cycle = []
        for eta in ETAS:
            for name, fam in FAMILIES:
                rho, phi, w = draws.instance(ATOMS_LARGE_N)
                cycle.append(_atoms_op(ProblemData(rho=rho, phi=phi), EmpiricalMeasure(w),
                                       name, fam, eta))
        ops += draws.shuffled(cycle)
    return Workload("atoms_large", ops, 77.0, warm_up=_warm_solves)


# ---------------------------------------------------------------------------
# robust_portfolio


def robust_verdict(x, value, recomputed, nominal, constraint) -> Verdict:
    """x feasible to 1e-9, value >= nominal objective at x, and re-evaluating
    robust_objective(x) reproduces the value."""
    x = np.asarray(x, dtype=float)
    if isinstance(constraint, Box):
        feasible = bool(np.all(x >= constraint.lo - FEAS_TOL) and np.all(x <= constraint.hi + FEAS_TOL))
    else:
        feasible = bool(np.all(x >= -FEAS_TOL)) and abs(math.fsum(x.tolist()) - 1.0) <= FEAS_TOL
    if not feasible:
        return Verdict(False, False, f"infeasible x {x.tolist()!r}")
    if not value >= nominal - FEAS_TOL:
        return Verdict(False, False, f"value {value!r} below nominal {nominal!r}")
    if not math.isclose(value, recomputed, rel_tol=1e-12, abs_tol=1e-15):
        return Verdict(False, False, f"value {value!r} not reproduced ({recomputed!r})")
    return PASS


def _robust_op(scen, constraint, fam_name, fam):
    def run():
        return robust.robust_minimize(scen, constraint, fam, ROBUST_ETA)

    def check(out):
        x, value = out
        recomputed = robust.robust_objective(x, scen, fam, ROBUST_ETA)
        returns = scen.rows @ np.asarray(x, dtype=float)
        mean, _ = mean_var_of(scen.weights, -returns)
        _, var = mean_var_of(scen.weights, returns)
        return robust_verdict(x, value, recomputed, mean + var, constraint)

    tags = {"family": fam_name, "n": scen.rows.shape[0], "d": scen.dim,
            "constraint": type(constraint).__name__, "c": 1.0}
    return Op(tags, run, check)


def robust_portfolio(seed: int, work: Path) -> Workload:
    """Each cycle: the three families x {Box, Simplex}, with d alternating
    between 2 and 4 so that every family meets both constraints and both
    dimensions; each operation has its own scenario matrix of 10-50 rows with
    per-asset drift and spread."""
    draws = Draws(seed, 3)
    ops = []
    for _ in range(ROBUST_CYCLES):
        cycle = []
        for i, (name, fam) in enumerate(FAMILIES):
            for j in range(2):
                d = ROBUST_DIMS[(i + j) % 2]
                constraint = Box(lo=np.zeros(d), hi=np.ones(d)) if j == 0 else Simplex()
                m = int(draws.base.integers(ROBUST_ROWS[0], ROBUST_ROWS[1] + 1))
                drift = draws.base.uniform(0.0, 0.1, size=d)
                spread = draws.base.uniform(0.1, 0.3, size=d)
                rows = drift + spread * draws.base.standard_normal((m, d))
                w = draws.base.uniform(0.1, 1.0, size=m)
                scen = ScenarioMatrix(rows=rows, weights=EmpiricalMeasure(w / w.sum()))
                cycle.append(_robust_op(scen, constraint, name, fam))
        ops += draws.shuffled(cycle)
    return Workload("robust_portfolio", ops, 58.0, warm_up=_warm_solves)


# ---------------------------------------------------------------------------
# cli_sweep


@dataclass
class CliResult:
    returncode: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int


def run_process(argv, env, cwd) -> CliResult:
    """Run one child to completion; wait4 gives its own peak RSS."""
    err_path = Path(cwd) / "stderr.txt"
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=cwd)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return CliResult(proc.returncode, out, err_path.read_bytes(), usage.ru_maxrss)


def cli_verdict(result: CliResult, first_stdout: bytes | None, sweep: bool) -> Verdict:
    """Exit code 0, stdout byte-identical to the first run of the same
    invocation, and sweep bounds nondecreasing in eta to 1e-8."""
    if result.returncode != 0:
        tail = result.stderr.decode(errors="replace").strip()[-200:]
        return Verdict(False, False, f"exit code {result.returncode}: {tail}")
    if first_stdout is not None and result.stdout != first_stdout:
        return Verdict(False, False, "stdout differs from the first run of this invocation")
    try:
        records = json.loads(result.stdout)
    except ValueError:
        return Verdict(False, False, "stdout is not JSON")
    if sweep:
        bounds = [r["bound"] for r in records]
        if len(bounds) != CLI_SWEEP_STEPS:
            return Verdict(False, False, f"{len(bounds)} sweep records")
        if any(b1 < b0 - MONOTONE_TOL for b0, b1 in zip(bounds, bounds[1:])):
            return Verdict(False, False, "sweep bounds decrease in eta")
    elif not math.isfinite(records["bound"]):
        return Verdict(False, False, "non-finite bound")
    return PASS


def _write_csv(path: Path, rho, phi, w):
    lines = ["rho,phi,weight"]
    lines += [f"{a!r},{b!r},{c!r}" for a, b, c in zip(rho.tolist(), phi.tolist(), w.tolist())]
    path.write_text("\n".join(lines) + "\n")


def cli_inputs(seed: int, work: Path) -> list[tuple[str, list[str]]]:
    """Write the CSVs and return (kind, drovar arguments) per invocation:
    bound-variance on a 3-row CSV for each family, and a 20-step KL sweep on
    a 10^4-row CSV."""
    draws = Draws(seed, 4)
    work.mkdir(parents=True, exist_ok=True)
    invocations = []
    for name, _ in FAMILIES:
        path = work / f"small_{name.replace(':', '_')}.csv"
        _write_csv(path, *draws.instance(CLI_SMALL_ROWS))
        invocations.append(("bound_variance", ["bound-variance", "--input", str(path),
                                               "--divergence", name, "--eta", "0.2"]))
    path = work / "sweep.csv"
    _write_csv(path, *draws.instance(CLI_SWEEP_ROWS))
    invocations.append(("sweep", ["sweep", "--input", str(path), "--divergence", "kl",
                                  "--eta-min", "0.05", "--eta-max", "0.5",
                                  "--steps", str(CLI_SWEEP_STEPS)]))
    return invocations


def cli_sweep(seed: int, work: Path) -> Workload:
    """Each invocation appears twice per cycle, so every cycle re-checks its bytes."""
    src = Path(solver.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    firsts: dict[int, bytes] = {}
    state = {"launcher": [sys.executable, "-m", "drovar"]}
    ops = []
    for key, (kind, args) in enumerate(cli_inputs(seed, work)):
        for _ in range(2):
            def run(args=args):
                return run_process(state["launcher"] + args, env, work)

            def check(result, key=key, kind=kind):
                verdict = cli_verdict(result, firsts.get(key), kind == "sweep")
                if result.returncode == 0:
                    firsts.setdefault(key, result.stdout)
                return verdict

            ops.append(Op({"kind": kind, "args": args, "c": 1.0}, run, check))
    ops = Draws(seed, 4).shuffled(ops)
    return Workload("cli_sweep", ops, 58.0, in_process=False,
                    extra={"state": state})


WORKLOADS = {
    "duality_small": duality_small,
    "atoms_large": atoms_large,
    "robust_portfolio": robust_portfolio,
    "cli_sweep": cli_sweep,
}


def build(name: str, seed: int, work: Path) -> Workload:
    return WORKLOADS[name](seed, work)
