"""One line per primal oracle call of a seeded sweep: its inputs, the value,
the sha256 of the argmax and the argmax's primal_value.

The sweep draws 240 instances from seed 31: n cycles through 2, 3, 2, 3,
1, 2, 3 and 4 atoms (the oracle rejects 1 and 4), rho and phi are standard
normal, every third instance rounds both to a 0.5 grid (ties), every fifth
gives one atom the weight 10^U(-300, -50), every seventh scales the returns
jointly by c = 1e8 to (c*rho, sqrt(c)*phi), and eta is 10^U(-3, 0.7).  Each
instance runs for kl and alpha 0.1, 0.5, 0.95, 2 and 8, at the default
OracleConfig and at grid_per_dim=101 with refine_rounds=0: 2,880 calls.  A
line reads

    index  family  n  eta  config  value  sha256  primal_value

with value and primal_value as repr() prints them; a call that raises
ValidationError or UnsupportedSizeError prints its message instead of the
last three fields.  The sweep uses whatever src/ is on PYTHONPATH, so two
revisions compare by a diff of their outputs:

    PYTHONPATH=<old>/src python scripts/oracle_digest.py > old.txt
    PYTHONPATH=src python scripts/oracle_digest.py > new.txt
    diff old.txt new.txt

It takes about 5 s on one core of a 2-core x86-64 host.
"""

import hashlib

import numpy as np

from drovar.divergences import alpha_family, kl_family
from drovar.errors import UnsupportedSizeError, ValidationError
from drovar.measures import EmpiricalMeasure, ProblemData
from drovar.oracle import OracleConfig, primal_sup_grid, primal_value

SEED = 31
INSTANCES = 240
SIZES = (2, 3, 2, 3, 1, 2, 3, 4)
SCALE = 1e8
FAMILIES = (kl_family(), *(alpha_family(a) for a in (0.1, 0.5, 0.95, 2.0, 8.0)))
CONFIGS = (("default", OracleConfig()),
           ("coarse", OracleConfig(grid_per_dim=101, refine_rounds=0)))


def instances():
    """(index, data, p, eta) for the seeded sweep."""
    rng = np.random.default_rng(SEED)
    for i in range(INSTANCES):
        n = SIZES[i % len(SIZES)]
        rho, phi = rng.standard_normal((2, n))
        w = rng.uniform(0.1, 1.0, n)
        if i % 3 == 0:
            rho, phi = np.round(2.0 * rho) / 2.0, np.round(2.0 * phi) / 2.0
        if i % 5 == 0:
            w[rng.integers(n)] = 10.0 ** rng.uniform(-300.0, -50.0)
        if i % 7 == 0:
            rho, phi = SCALE * rho, np.sqrt(SCALE) * phi
        eta = float(10.0 ** rng.uniform(-3.0, 0.7))
        yield i, ProblemData(rho=rho, phi=phi), EmpiricalMeasure(w / w.sum()), eta


def main() -> None:
    for index, data, p, eta in instances():
        for fam in FAMILIES:
            for name, cfg in CONFIGS:
                try:
                    value, q = primal_sup_grid(data, p, fam, eta, cfg)
                    h = hashlib.sha256(np.ascontiguousarray(q.weights, dtype="<f8").tobytes())
                    tail = f"{value!r}  {h.hexdigest()}  {primal_value(q, data)!r}"
                except (ValidationError, UnsupportedSizeError) as exc:
                    tail = f"{type(exc).__name__}: {exc}"
                print(f"{index}  {fam.label}  {len(p)}  {eta!r}  {name}  {tail}")


if __name__ == "__main__":
    main()
