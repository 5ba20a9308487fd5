"""One line per library solve of a seeded sweep: its inputs, status, root
steps and the sha256 of everything else it returned.

The sweep draws 300 instances from each of the seeds 77 and 78: n cycles
through 1, 2, 3, 5, 10, 50 and 300 atoms, rho and phi are standard normal,
every third instance rounds both to a 0.5 grid (ties), every fifth gives one
atom the weight 10^U(-300, -50), and eta is 10^U(-3, 0.7).  Each instance is
solved for kl and alpha 0.1, 0.5, 0.95, 1.05, 2 and 8 with
parameterization="auto": 4,200 solves.  The first seed's instances with
n <= 10 are also solved with "generic": 1,505 more.  Then come the sizes
where the solver's array paths run (exact sums from 1,000 atoms, the 10^5-atom
kernels): seed 79 draws, for n = 2,000 and 100,000, a plain instance, one on
the 0.5 grid and one with an atom of weight 1e-300, each solved with "auto"
for the seven families at eta 0.05 and 0.5: 84 more.  A line reads

    index  family  n  eta  parameterization  status  iterations  sha256

with the hash over the value, the dual point, the tilt's bytes, the
diagnostics and whether the status is BoundaryLambda; a solve that raises
ValidationError prints its message instead of the last three fields.  The sweep uses whatever src/ is on PYTHONPATH, so
two revisions compare by a diff of their outputs:

    PYTHONPATH=<old>/src python scripts/solve_digest.py > old.txt
    PYTHONPATH=src python scripts/solve_digest.py > new.txt
    diff old.txt new.txt

It takes about 15 s on one core of a 2-core x86-64 host.
"""

import hashlib
import itertools
import struct

import numpy as np

from drovar.divergences import alpha_family, kl_family
from drovar.errors import ValidationError
from drovar.measures import EmpiricalMeasure, ProblemData
from drovar.solver import variance_bound

SEEDS = (77, 78)
INSTANCES = 300  # per seed
SIZES = (1, 2, 3, 5, 10, 50, 300)
FAMILIES = (kl_family(), *(alpha_family(a) for a in (0.1, 0.5, 0.95, 1.05, 2.0, 8.0)))
GENERIC_MAX_N = 10  # "generic" runs on the first seed's instances up to this n
LARGE_SEED, LARGE_SIZES, LARGE_ETAS = 79, (2_000, 100_000), (0.05, 0.5)


def instances():
    """(index, data, p, eta) for the seeded sweep."""
    index = 0
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        for i in range(INSTANCES):
            n = SIZES[i % len(SIZES)]
            rho, phi = rng.standard_normal((2, n))
            w = rng.uniform(0.1, 1.0, n)
            if i % 3 == 0:
                rho, phi = np.round(2.0 * rho) / 2.0, np.round(2.0 * phi) / 2.0
            if i % 5 == 0:
                w[rng.integers(n)] = 10.0 ** rng.uniform(-300.0, -50.0)
            eta = float(10.0 ** rng.uniform(-3.0, 0.7))
            yield index, ProblemData(rho=rho, phi=phi), EmpiricalMeasure(w / w.sum()), eta
            index += 1


def large_instances():
    """(index, data, p, eta) at LARGE_SIZES, numbered after instances()."""
    rng = np.random.default_rng(LARGE_SEED)
    index = len(SEEDS) * INSTANCES
    for n in LARGE_SIZES:
        for kind in ("plain", "ties", "tiny"):
            rho, phi = rng.standard_normal((2, n))
            w = rng.uniform(0.1, 1.0, n)
            if kind == "ties":
                rho, phi = np.round(2.0 * rho) / 2.0, np.round(2.0 * phi) / 2.0
            elif kind == "tiny":
                w[rng.integers(n)] = 1e-300
            data, p = ProblemData(rho=rho, phi=phi), EmpiricalMeasure(w / w.sum())
            for eta in LARGE_ETAS:
                yield index, data, p, eta
            index += 1


def digest(res) -> str:
    d, g = res.dual_point, res.diagnostics
    h = hashlib.sha256(struct.pack("<4d", res.value, d.lam, d.beta, d.nu))
    h.update(np.ascontiguousarray(res.tilt, dtype="<f8").tobytes())
    h.update(struct.pack("<3d?", g.normalization, g.achieved_divergence,
                         g.mean_condition_gap, res.status == "BoundaryLambda"))
    return f"{res.status}  {res.iterations}  {h.hexdigest()}"


def main() -> None:
    for index, data, p, eta in itertools.chain(instances(), large_instances()):
        n = len(p.weights)
        generic = index < INSTANCES and n <= GENERIC_MAX_N
        for fam in FAMILIES:
            for param in ("auto", "generic") if generic else ("auto",):
                try:
                    tail = digest(variance_bound(data, p, fam, eta, parameterization=param))
                except ValidationError as exc:
                    tail = f"ValidationError: {exc}"
                print(f"{index}  {fam.label}  {n}  {eta!r}  {param}  {tail}")


if __name__ == "__main__":
    main()
