"""One line per robust search of a seeded sweep: its inputs, the number of
evaluations the search made, the status and root steps of the certified
solve at the decision it returns, and the sha256 of that decision and its
value.

The sweep draws 40 scenario rows of d assets, with per-asset drift and
spread under random weights, from one rng 2121 stream, for kl and alpha
0.1, 0.5, 2 and 8, d = 1 to 8, the box [0, 1]^d and then the simplex, in that
order: 80 searches at eta 0.1, the sweep that tests/test_robust.py draws
from.  Then come one-point boxes, at x = 0.3 and at the kink x = 0, and the
rows (1, -2), (0.5, 3), (-1, 1) scaled by 1e6 to 1e12, on the box and the
simplex.  A line reads

    index  family  d  constraint  evaluations  status  iterations  sha256

where evaluations counts the calls of drovar.robust._Evaluation, so a search
that stops at its 500-evaluation cap shows, and a search that raises
ValidationError prints its message instead of the last three fields.  The
sweep uses whatever src/ is on PYTHONPATH, so two revisions compare by a
diff of their outputs:

    PYTHONPATH=<old>/src python scripts/robust_digest.py > old.txt
    PYTHONPATH=src python scripts/robust_digest.py > new.txt
    diff old.txt new.txt

It takes about a second on one core of a 2-core x86-64 host.
"""

import hashlib
import struct

import numpy as np

import drovar.robust as robust
from drovar.divergences import alpha_family, kl_family
from drovar.errors import ValidationError
from drovar.measures import EmpiricalMeasure, uniform_measure
from drovar.robust import Box, ScenarioMatrix, Simplex, _minimize

FAMILIES = (kl_family(), *(alpha_family(a) for a in (0.1, 0.5, 2.0, 8.0)))
ETA = 0.1


def drifting_returns(rng, m, d) -> ScenarioMatrix:
    """m scenario rows of d assets with per-asset drift and spread, under
    random weights."""
    rows = rng.uniform(-0.05, 0.1, d) + rng.uniform(0.1, 0.3, d) * rng.standard_normal((m, d))
    w = rng.uniform(0.1, 1.0, m)
    return ScenarioMatrix(rows=rows, weights=EmpiricalMeasure(w / w.sum()))


def unit_box(d: int) -> Box:
    return Box(lo=np.zeros(d), hi=np.ones(d))


def instances():
    """(family, scenarios, constraint name, constraint) in digest order."""
    rng = np.random.default_rng(2121)
    for fam in FAMILIES:
        for d in range(1, 9):
            for name, constraint in (("box", unit_box(d)), ("simplex", Simplex())):
                yield fam, drifting_returns(rng, 40, d), name, constraint
    point = drifting_returns(np.random.default_rng(2122), 25, 2)
    for fam in FAMILIES:
        for at in (0.3, 0.0):
            yield fam, point, f"point:{at}", Box(lo=np.full(2, at), hi=np.full(2, at))
    rows = np.array([[1.0, -2.0], [0.5, 3.0], [-1.0, 1.0]])
    for scale in (1e6, 1e8, 1e9, 1e12):
        big = ScenarioMatrix(rows=scale * rows, weights=uniform_measure(3))
        for fam in FAMILIES[:2]:
            yield fam, big, f"box*{scale:g}", unit_box(2)
            yield fam, big, f"simplex*{scale:g}", Simplex()


def main() -> None:
    calls = []

    class CountedEvaluation(robust._Evaluation):
        def __call__(self, *args):
            calls.append(None)
            return super().__call__(*args)

    robust._Evaluation = CountedEvaluation
    for index, (fam, scenarios, name, constraint) in enumerate(instances()):
        calls.clear()
        try:
            x, res = _minimize(scenarios, constraint, fam, ETA, None)
            h = hashlib.sha256(np.ascontiguousarray(x, dtype="<f8").tobytes())
            h.update(struct.pack("<d", res.value))
            tail = f"{res.status}  {res.iterations}  {h.hexdigest()}"
        except ValidationError as exc:
            tail = f"ValidationError: {exc}"
        print(f"{index}  {fam.label}  {scenarios.dim}  {name}  {len(calls)}  {tail}")


if __name__ == "__main__":
    main()
