"""Self-test of the benchmark harness: smoke-size runs plus planted failures.

Runs a few operations of every workload and requires them to pass, then feeds
each checker deliberately wrong outputs and requires every one to be counted
as failed.  Exit code 0 when all checks behave, 1 otherwise.

Usage (from the repository root): python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys

import run

SMOKE_OPS = {"duality_small": 3, "atoms_large": 2, "robust_portfolio": 1, "cli_sweep": 2}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import numpy as np

    import spans
    import workloads as wk

    problems = []

    def expect(label, verdict, ok, sound):
        good = verdict.ok == ok and verdict.sound == sound
        print(f"[{'ok' if good else 'BAD'}] {label}: ok={verdict.ok} sound={verdict.sound} {verdict.why}")
        if not good:
            problems.append(label)

    work = run.ROOT / ".perfbench_work" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    try:
        built = {}
        for name, count in SMOKE_OPS.items():
            wl = wk.build(name, 7, work / name)
            built[name] = wl
            records = run.drive(wl, wk, count=count)
            for r in records:
                expect(f"smoke {name} op {r['op']}", r["verdict"], True, True)

        # duality_small: a bound shifted by 1e-3 (times c) fails; shifted down it is unsound
        for c in (1.0, 1e-6, 1e6):
            expect(f"duality bound +1e-3*c (c={c:g})", wk.duality_verdict(1.0 * c + 1e-3 * c, 1.0 * c, c), False, True)
            expect(f"duality bound -1e-3*c (c={c:g})", wk.duality_verdict(1.0 * c - 1e-3 * c, 1.0 * c, c), False, False)
            expect(f"duality bound +5e-5*c (c={c:g})", wk.duality_verdict(1.0 * c + 5e-5 * c, 1.0 * c, c), True, True)

        # atoms_large: below nominal, or a Converged certificate that is off
        op = built["atoms_large"].ops[0]
        res = op.run()
        expect("atoms real result", op.check(res), True, True)
        expect("atoms bound below nominal",
               op.check(dataclasses.replace(res, value=-1e9)), False, False)
        if res.status == "Converged":
            bad = dataclasses.replace(res.diagnostics, normalization=1.0 + 1e-3)
            expect("atoms Converged with normalization 1+1e-3",
                   op.check(dataclasses.replace(res, diagnostics=bad)), False, False)

        # robust_portfolio: infeasible x, value below nominal, value not reproduced
        box = wk.Box(lo=np.zeros(2), hi=np.ones(2))
        expect("robust x outside the box", wk.robust_verdict([1.1, 0.5], 1.0, 1.0, 0.0, box), False, False)
        expect("robust x off the simplex", wk.robust_verdict([0.6, 0.6], 1.0, 1.0, 0.0, wk.Simplex()), False, False)
        expect("robust value below nominal", wk.robust_verdict([0.5, 0.5], -1.0, -1.0, 0.0, box), False, False)
        expect("robust value not reproduced", wk.robust_verdict([0.5, 0.5], 1.0, 1.0 + 1e-6, 0.0, box), False, False)
        expect("robust consistent output", wk.robust_verdict([0.5, 0.5], 1.0, 1.0, 0.0, box), True, True)

        # cli_sweep: mismatched bytes, nonzero exit, decreasing sweep
        first = json.dumps({"bound": 1.0}).encode()
        ok_result = wk.CliResult(0, first, b"", 0)
        expect("cli identical bytes", wk.cli_verdict(ok_result, first, sweep=False), True, True)
        expect("cli mismatched bytes",
               wk.cli_verdict(wk.CliResult(0, first.replace(b"1.0", b"1.1"), b"", 0), first, sweep=False),
               False, False)
        expect("cli exit code 2", wk.cli_verdict(wk.CliResult(2, b"", b"error: bad", 0), None, sweep=False),
               False, False)
        steps = [{"bound": 1.0 - 1e-6 * k} for k in range(wk.CLI_SWEEP_STEPS)]
        expect("cli sweep decreasing in eta",
               wk.cli_verdict(wk.CliResult(0, json.dumps(steps).encode(), b"", 0), None, sweep=True),
               False, False)

        # the loop counts a raising operation and a wrong answer as failed
        def boom():
            raise RuntimeError("planted")

        fake = wk.Workload("fake", [wk.Op({"c": 1.0}, boom, lambda out: wk.PASS),
                                    wk.Op({"c": 1.0}, lambda: (1.001, 1.0), lambda out: wk.duality_verdict(*out, 1.0)),
                                    wk.Op({"c": 1.0}, lambda: (1.0, 1.0), lambda out: wk.duality_verdict(*out, 1.0))],
                           50.0)
        records = run.drive(fake, wk, count=3)
        metrics = run.end_to_end(records, [1.0], fake)
        failed = sum(1 for r in records if not r["verdict"].ok)
        good = failed == 2 and abs(metrics["ok_frac"] - 1.0 / 3.0) < 1e-12
        print(f"[{'ok' if good else 'BAD'}] loop counts 2 of 3 planted failures: failed={failed}, "
              f"ok_frac={metrics['ok_frac']:.4f}")
        if not good:
            problems.append("loop failure count")

        # traced smoke: spans are recorded and every per-layer metric is computed
        rec = spans.Recorder()
        spans.install_library(rec)
        wl = built["duality_small"]
        records = run.drive(wl, wk, count=2, rec=rec)
        metrics = spans.layer_metrics(rec.spans, {r["op"]: r["tags"] for r in records},
                                      {r["op"]: int(r["latency"] * 1e9) for r in records}, {})
        good = len(rec.spans) > 0 and metrics["dual_core.obj_calls_per_solve"] > 0 \
            and metrics["oracle.points_per_call_computed"] > 0
        print(f"[{'ok' if good else 'BAD'}] traced smoke: {len(rec.spans)} spans, "
              f"{len(metrics)} per-layer metrics")
        if not good:
            problems.append("traced smoke")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("selftest:", "PASS" if not problems else f"FAIL ({', '.join(problems)})")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
