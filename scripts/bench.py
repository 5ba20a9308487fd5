"""Timing and work counts for the robust outer solve, single bound solves,
the duality sweep, the CLI's cold start and a CLI sweep at 10^4 rows.

Uses only drovar's public API, so the same script measures any revision:
put that revision's src/ on PYTHONPATH and give the run a label.  Each run
writes its section into the JSON file under that label and keeps the
sections of other labels, so two revisions land side by side in one file.

    PYTHONPATH=<old>/src python scripts/bench.py --label parent --out BENCH_25.json
    PYTHONPATH=src python scripts/bench.py --label change --out BENCH_25.json

Recorded per label:

- robust: for each robust_minimize instance (acceptance criterion 11, the
  demo's four etas, four 8-asset KL boxes drawn by robust_digest.py's
  drifting_returns) the evaluations per call, counted
  by wrapping ScenarioMatrix.problem_for, which every revision calls once per
  evaluation of the search (a nested inner solve before the joint search in
  (x, nu)) and once for the final certified solve; the root steps per call,
  summed over the drovar.solver.Budget objects the call makes, which the
  solver module builds by name, one per evaluation and one per certified
  solve; the median wall time in ms over the repeats, and the value reached;
- solve: the median wall time in ms of one variance_bound at n = 10, 10^3
  and 10^5 atoms for kl, alpha:2, alpha:0.5, alpha:0.1 and alpha:8;
- faults, sys_ms: at n = 10^5, beside each of those solves, the minor page
  faults and the system CPU milliseconds per solve, from resource.getrusage
  around `repeats` solves after the warm-up: what the kernel spends mapping
  fresh pages for the solve's temporaries;
- certify: at n = 10^5, beside each of those solves, the median wall time
  in ms of one optimality_diagnostics at the solve's dual point: the tilt
  and the certificate's three exact sums;
- sweep: acceptance criterion 1's 900 instances (rng 90210), solved and
  checked by the oracle as that test does, run once, with the dual-solve
  seconds per family and the oracle seconds per atom count kept apart, the
  statuses per family and the worst |bound - oracle|;
- cli: the median wall time in ms, over 4 x repeats fresh processes each, of
  `python -c "import drovar.cli"` and of one `python -m drovar
  bound-variance` on a 3-row CSV.  The processes inherit PYTHONPATH, so
  they run the same revision;
- cli_sweep: the median wall time in ms, over 4 x repeats fresh processes,
  of a 20-step KL `python -m drovar sweep` (eta 0.05 to 0.5) on a 10^4-row
  CSV of rho, phi ~ U(-1, 1) and weights ~ U(0.1, 1), as in perfbench's
  cli_sweep workload; beside it, the in-process split of the same command
  into its CSV ingest, its 20 solves and its JSON render, each the median
  over 4 x repeats in-process runs.

BLAS is held at one thread unless the environment sets otherwise, so the
numbers measure the code, not the host's core count.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

import numpy as np

import drovar.cli as cli
import drovar.robust as robust
import drovar.solver as solver
from drovar import (
    Box,
    EmpiricalMeasure,
    OracleConfig,
    ProblemData,
    ScenarioMatrix,
    kl_family,
    optimality_diagnostics,
    parse_family,
    primal_sup_grid,
    uniform_measure,
    variance_bound,
)
from robust_digest import drifting_returns

KL = kl_family()
DEMO_RETURNS = np.array([
    [1.8, 0.4],
    [-0.9, 0.7],
    [1.2, -0.3],
    [0.5, 0.6],
    [-0.2, 0.1],
])
DEMO_ETAS = (0.01, 0.05, 0.15, 0.4)
SOLVE_FAMILIES = ("kl", "alpha:2", "alpha:0.5", "alpha:0.1", "alpha:8")
SOLVE_SIZES = (10, 1_000, 100_000)
CERTIFY_SIZE = 100_000
SWEEP_FAMILIES = ("kl", "alpha:2", "alpha:0.5")
CLI_SWEEP_ROWS = 10_000
CLI_SWEEP_GRID = ("0.05", "0.5", "20")  # --eta-min, --eta-max, --steps


def drifting_box(seed: int) -> ScenarioMatrix:
    return drifting_returns(np.random.default_rng([2026, seed]), 40, 8)


def robust_instances():
    """(name, scenarios, constraint, eta), all under KL."""
    yield ("criterion11",
           ScenarioMatrix(rows=np.array([1.5, -0.5, 0.8]), weights=uniform_measure(3)),
           Box(lo=np.zeros(1), hi=np.ones(1)), 0.15)
    demo = ScenarioMatrix(rows=DEMO_RETURNS, weights=uniform_measure(len(DEMO_RETURNS)))
    for eta in DEMO_ETAS:
        yield f"demo_eta{eta:g}", demo, Box(lo=np.zeros(2), hi=np.ones(2)), eta
    for s in range(4):
        yield f"box8_seed{s}", drifting_box(s), Box(lo=np.zeros(8), hi=np.ones(8)), 0.05


def median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def bench_robust(repeats: int) -> dict:
    problem_for = ScenarioMatrix.problem_for
    budget = solver.Budget
    calls = [0]
    budgets = []

    def counted(self, x):
        calls[0] += 1
        return problem_for(self, x)

    class Counted(budget):
        def __init__(self, limit):
            super().__init__(limit)
            budgets.append(self)

    out = {}
    for name, scen, box, eta in robust_instances():
        ScenarioMatrix.problem_for, solver.Budget = counted, Counted
        try:
            calls[0] = 0
            budgets.clear()
            _, value = robust.robust_minimize(scen, box, KL, eta)
            evals, steps = calls[0], sum(b.used for b in budgets)
        finally:
            ScenarioMatrix.problem_for, solver.Budget = problem_for, budget
        ms = median_ms(lambda: robust.robust_minimize(scen, box, KL, eta), repeats)
        out[name] = {"evaluations": evals, "root_steps": steps,
                     "median_ms": round(ms, 3), "value": value}
    return out


def per_call_rusage(fn, repeats: int) -> tuple[float, float]:
    """Minor page faults and system CPU ms per call of fn."""
    before = resource.getrusage(resource.RUSAGE_SELF)
    for _ in range(repeats):
        fn()
    after = resource.getrusage(resource.RUSAGE_SELF)
    return ((after.ru_minflt - before.ru_minflt) / repeats,
            (after.ru_stime - before.ru_stime) * 1e3 / repeats)


def bench_solves(repeats: int) -> tuple[dict, dict, dict, dict]:
    out, certify, faults, sys_ms = {}, {}, {}, {}
    for n in SOLVE_SIZES:
        rng = np.random.default_rng([4, n])
        data = ProblemData(rho=rng.uniform(-1.0, 1.0, n), phi=rng.uniform(-1.0, 1.0, n))
        w = rng.uniform(0.1, 1.0, n)
        p = EmpiricalMeasure(w / w.sum())
        for label in SOLVE_FAMILIES:
            fam = parse_family(label)
            res = variance_bound(data, p, fam, 0.1)  # warm-up
            ms = median_ms(lambda: variance_bound(data, p, fam, 0.1), repeats)
            out[f"{label}_n{n}"] = round(ms, 3)
            if n == CERTIFY_SIZE:
                flt, sys_per = per_call_rusage(lambda: variance_bound(data, p, fam, 0.1), repeats)
                faults[f"{label}_n{n}"], sys_ms[f"{label}_n{n}"] = round(flt, 1), round(sys_per, 3)
                ms = median_ms(lambda: optimality_diagnostics(res.dual_point, data, p, fam), repeats)
                certify[f"{label}_n{n}"] = round(ms, 3)
    return out, certify, faults, sys_ms


def bench_sweep() -> dict:
    """Criterion 1's sweep: the same instances, oracle grids and escalation."""
    rng = np.random.default_rng(90210)
    dual_s = dict.fromkeys(SWEEP_FAMILIES, 0.0)
    oracle_s = {"n2": 0.0, "n3": 0.0}
    statuses = {label: {} for label in SWEEP_FAMILIES}
    worst = 0.0
    for label in SWEEP_FAMILIES:
        fam = parse_family(label)
        for n in (2, 3):
            for eta in (0.05, 0.2, 0.5):
                for _ in range(50):
                    rho = rng.uniform(-1.0, 1.0, n)
                    phi = rng.uniform(-1.0, 1.0, n)
                    w = rng.uniform(0.1, 1.0, n)
                    data, p = ProblemData(rho=rho, phi=phi), EmpiricalMeasure(w / w.sum())
                    t0 = time.perf_counter()
                    res = variance_bound(data, p, fam, eta)
                    t1 = time.perf_counter()
                    cfg = OracleConfig() if n == 2 else OracleConfig(grid_per_dim=401)
                    gap = res.value - primal_sup_grid(data, p, fam, eta, cfg)[0]
                    if abs(gap) > 5e-5:
                        fine = OracleConfig(grid_per_dim=4001 if n == 2 else 1201,
                                            refine_rounds=5)
                        gap = res.value - primal_sup_grid(data, p, fam, eta, fine)[0]
                    dual_s[label] += t1 - t0
                    oracle_s[f"n{n}"] += time.perf_counter() - t1
                    statuses[label][res.status] = statuses[label].get(res.status, 0) + 1
                    worst = max(worst, abs(gap))
    return {"dual_s": {k: round(v, 3) for k, v in dual_s.items()},
            "dual_s_total": round(sum(dual_s.values()), 3),
            "oracle_s": {k: round(v, 3) for k, v in oracle_s.items()},
            "oracle_s_total": round(sum(oracle_s.values()), 3),
            "statuses": statuses, "worst_gap": worst}


def bench_cli(repeats: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        three = Path(tmp) / "three.csv"
        three.write_text("rho,phi\n0.1,0.5\n-0.2,0.1\n0.3,-0.4\n")
        commands = {
            "import_ms": [sys.executable, "-c", "import drovar.cli"],
            "bound_variance_ms": [sys.executable, "-m", "drovar", "bound-variance",
                                  "--input", str(three), "--divergence", "kl",
                                  "--eta", "0.1"],
        }
        out = {}
        for name, cmd in commands.items():
            run = partial(subprocess.run, cmd, check=True, capture_output=True)
            run()  # warm-up: file cache and .pyc files
            out[name] = round(median_ms(run, 4 * repeats), 3)
    return out


def bench_cli_sweep(repeats: int) -> dict:
    rng = np.random.default_rng(CLI_SWEEP_ROWS)
    rho, phi = rng.uniform(-1.0, 1.0, (2, CLI_SWEEP_ROWS))
    w = rng.uniform(0.1, 1.0, CLI_SWEEP_ROWS)
    lo, hi, steps = CLI_SWEEP_GRID
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sweep.csv"
        path.write_text("rho,phi,weight\n" + "".join(
            f"{a!r},{b!r},{c!r}\n" for a, b, c in zip(rho.tolist(), phi.tolist(),
                                                     (w / w.sum()).tolist())))
        run = partial(subprocess.run, [sys.executable, "-m", "drovar", "sweep",
                                       "--input", str(path), "--divergence", "kl",
                                       "--eta-min", lo, "--eta-max", hi, "--steps", steps],
                      check=True, capture_output=True)
        run()  # warm-up: file cache and .pyc files
        out = {"process_ms": round(median_ms(run, 4 * repeats), 3)}

        split = {"ingest_ms": [], "solves_ms": [], "render_ms": []}
        for _ in range(4 * repeats):
            t0 = time.perf_counter()
            data, p = cli.ingest_bound_csv(str(path))
            t1 = time.perf_counter()
            records = [cli.bound_record(variance_bound(data, p, KL, float(eta)), float(eta), KL)
                       for eta in np.linspace(float(lo), float(hi), int(steps))]
            t2 = time.perf_counter()
            cli.render_json(records)
            t3 = time.perf_counter()
            for key, dt in zip(split, (t1 - t0, t2 - t1, t3 - t2)):
                split[key].append(dt)
    out.update({key: round(statistics.median(v) * 1e3, 3) for key, v in split.items()})
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="section name, e.g. parent or change")
    ap.add_argument("--out", required=True, help="JSON file to update")
    ap.add_argument("--repeats", type=int, default=5, help="timed runs per median")
    args = ap.parse_args()

    solve_ms, certify_ms, faults, sys_ms = bench_solves(args.repeats)
    section = {
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "machine": platform.machine(), "cpus": os.cpu_count(),
                 "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])},
        "repeats": args.repeats,
        "robust": bench_robust(args.repeats),
        "solve_ms": solve_ms,
        "faults_per_solve": faults,
        "sys_ms_per_solve": sys_ms,
        "certify_ms": certify_ms,
        "sweep": bench_sweep(),
        "cli": bench_cli(args.repeats),
        "cli_sweep": bench_cli_sweep(args.repeats),
    }
    path = Path(args.out)
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc[args.label] = section
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for name, rec in section["robust"].items():
        print(f"{name:18s} {rec['evaluations']:4d} evals {rec['root_steps']:5d} steps "
              f"{rec['median_ms']:9.2f} ms")
    for name, ms in section["solve_ms"].items():
        cert = section["certify_ms"].get(name)
        print(f"{name:18s} {ms:9.2f} ms" + ("" if cert is None else
              f"  {faults[name]:7.1f} faults {sys_ms[name]:6.2f} sys ms  certify {cert:7.2f} ms"))
    sweep = section["sweep"]
    print(f"sweep dual {sweep['dual_s']} s, oracle {sweep['oracle_s']} s, "
          f"worst gap {sweep['worst_gap']:.2e}")
    print(f"cli {section['cli']} ms")
    print(f"cli_sweep {section['cli_sweep']} ms")


if __name__ == "__main__":
    main()
