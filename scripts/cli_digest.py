"""One line per `drovar` run: its arguments, exit code and the sha256 of
stdout and of stderr.

Writes seeded CSVs to a temporary directory and runs a fixed matrix of
`python -m drovar` commands there: bound-variance, bound-mean, sweep,
oracle-check and robust over kl, alpha:2, alpha:0.5, alpha:0.1 and alpha:8,
at n = 2, 3, 10 and 200 atoms with and without ties, plus --tol, box,
simplex and error cases, bound-variance on the n = 3 atoms jointly scaled
to (1e-14*rho, 1e-7*phi), CSVs with blank rows, short rows, extra fields,
padded cells and a byte-order mark before a padded header, and a 10-step
sweep on 2,000 rows with ties and a zero weight (1,999 tilt weights per
record); last, bound-mean on a CSV without a phi column and on one with a
non-numeric phi cell, robust --simplex on returns near 1e9, and oracle-check
on a 3-atom instance scaled to rho near 1e13 and phi near 1e6.  The runs
use whatever src/ is on PYTHONPATH, so two revisions compare by a diff of
their outputs:

    PYTHONPATH=<old>/src python scripts/cli_digest.py > old.txt
    PYTHONPATH=src python scripts/cli_digest.py > new.txt
    diff old.txt new.txt

The commands run inside the temporary directory, so the printed arguments
name files, not temporary paths.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

FAMILIES = ("kl", "alpha:2", "alpha:0.5", "alpha:0.1", "alpha:8")
SIZES = (2, 3, 10, 200)
JOBS = 2  # runs at a time


def _write(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    rows = zip(*(col.tolist() for col in columns))
    path.write_text(",".join(header) + "\n" + "".join(
        ",".join(repr(v) for v in row) + "\n" for row in rows))


def write_inputs(tmp: Path) -> list[str]:
    """The seeded bound CSVs (their names) plus the scenario and error CSVs."""
    rng = np.random.default_rng(20201)
    names = []
    for n in SIZES:
        rho, phi = rng.normal(size=(2, n))
        _write(tmp / f"n{n}.csv", ["rho", "phi"], [rho, phi])
        if n == 3:
            _write(tmp / "n3_scaled.csv", ["rho", "phi"], [1e-14 * rho, 1e-7 * phi])
        # ties: both columns on a 0.5 grid; a weight column with one zero
        weight = rng.uniform(0.5, 2.0, n)
        weight[-1] = 0.0
        _write(tmp / f"n{n}_ties.csv", ["rho", "phi", "weight"],
               [np.round(2.0 * rho) / 2.0, np.round(2.0 * phi) / 2.0, weight])
        names += [f"n{n}.csv", f"n{n}_ties.csv"]
    for n, d in ((3, 2), (10, 3), (200, 4)):
        _write(tmp / f"scen{n}.csv", [f"r{k}" for k in range(1, d + 1)],
               list(rng.normal(0.05, 0.2, (d, n))))
    texts = {
        "empty.csv": "",
        "header_only.csv": "rho,phi\n",
        "no_phi.csv": "rho\n1\n",
        "empty_cell.csv": "rho,phi\n0, \n0,1\n",
        "non_numeric.csv": "rho,phi\n0,oops\n0,1\n",
        "overflow.csv": "rho,phi\n0,2e154\n0,-2e154\n0,1\n",
        "overflow_scen.csv": "r1,r2\n2e154,1\n-2e154,3\n1e154,-2\n",
        "blank_row.csv": "rho,phi\n0,0\n\n0,1\n",
        "short_row.csv": "rho,phi\n0,0\n\n0\n",
        "extra_field.csv": "rho,phi\n0,0,7\n0,1,\n",
        "padded_cell.csv": "rho,phi\n0,0\n0, 1.5 \n",
        "bom_padded.csv": "\ufeff rho , phi \n0,0\n0,1\n",
        "non_numeric_row3.csv": "rho,phi,weight\n0,0,1\n1,1,1\n0.5,0.2,1e\n",
        "rho_only.csv": "rho,weight\n0.5,1\n-1,2\n2,0\n1.5,1\n",
        "scen_1e9.csv": "r1,r2\n1e9,-2e9\n5e8,3e9\n-1e9,1e9\n",
        "oracle_1e14.csv": "rho,phi,weight\n3e13,5e6,0.5\n-2e13,1e6,0.3\n5e13,-4e6,0.2\n",
    }
    for name, text in texts.items():
        (tmp / name).write_text(text, encoding="utf-8")
    n = 2000
    rho, phi = np.round(4.0 * rng.normal(size=(2, n))) / 4.0
    weight = rng.uniform(0.5, 2.0, n)
    weight[n // 2] = 0.0
    _write(tmp / "n2000_ties.csv", ["rho", "phi", "weight"], [rho, phi, weight])
    return names


def matrix(bound_csvs: list[str]) -> list[list[str]]:
    runs = []
    for name in bound_csvs:
        for fam in FAMILIES:
            src = ["--input", name, "--divergence", fam]
            for eta in ("0.1", "1"):
                runs.append(["bound-variance", *src, "--eta", eta])
            runs.append(["bound-mean", *src, "--eta", "0.2"])
            runs.append(["sweep", *src, "--eta-min", "0.05", "--eta-max", "0.5",
                         "--steps", "5"])
            runs.append(["oracle-check", *src, "--eta", "0.2"])
    for fam in FAMILIES:
        for n in (3, 10, 200):
            src = ["--input", f"scen{n}.csv", "--divergence", fam, "--eta", "0.1"]
            runs.append(["robust", *src, "--box", "0", "1"])
            runs.append(["robust", *src, "--simplex"])
        runs.append(["bound-variance", "--input", "n10.csv", "--divergence", fam,
                     "--eta", "0.1", "--tol", "1e-5"])
    bad = ["--divergence", "kl", "--eta", "0.1"]
    runs += [
        ["oracle-check", "--input", "n3.csv", *bad, "--tol", "1e-20"],
        ["bound-variance", "--input", "n3.csv", *bad, "--tol", "1e-2"],
        ["bound-variance", "--input", "n3.csv", "--divergence", "beta:2", "--eta", "0.1"],
        ["bound-variance", "--input", "n3.csv", "--divergence", "alpha:0.5", "--eta", "5"],
        ["sweep", "--input", "n3.csv", "--divergence", "kl", "--eta-min", "0.3",
         "--eta-max", "0.1", "--steps", "5"],
        ["robust", "--input", "scen3.csv", *bad, "--box", "1", "0"],
        ["robust", "--input", "overflow_scen.csv", *bad, "--box", "0", "1"],
        ["robust", "--input", "overflow_scen.csv", "--divergence", "alpha:2",
         "--eta", "0.1", "--box", "0", "1"],
    ]
    for name in ("empty.csv", "header_only.csv", "no_phi.csv", "empty_cell.csv",
                 "non_numeric.csv", "missing.csv", "blank_row.csv", "short_row.csv",
                 "extra_field.csv", "padded_cell.csv", "bom_padded.csv",
                 "non_numeric_row3.csv"):
        runs.append(["bound-variance", "--input", name, *bad])
    for fam in ("kl", "alpha:2", "alpha:0.5"):
        runs.append(["bound-variance", "--input", "overflow.csv", "--divergence", fam,
                     "--eta", "0.1"])
    for fam in FAMILIES:
        runs.append(["bound-variance", "--input", "n3_scaled.csv", "--divergence", fam,
                     "--eta", "0.1"])
    runs.append(["sweep", "--input", "n2000_ties.csv", "--divergence", "kl",
                 "--eta-min", "0.05", "--eta-max", "0.5", "--steps", "10"])
    for name in ("rho_only.csv", "non_numeric.csv"):
        runs.append(["bound-mean", "--input", name, "--divergence", "kl", "--eta", "0.2"])
    runs.append(["robust", "--input", "scen_1e9.csv", "--divergence", "kl", "--eta", "0.1",
                 "--simplex"])
    runs.append(["oracle-check", "--input", "oracle_1e14.csv", "--divergence", "kl",
                 "--eta", "0.2"])
    return runs


def main() -> None:
    env = dict(os.environ)
    # absolute, since the runs start in the temporary directory
    env["PYTHONPATH"] = os.pathsep.join(
        str(Path(p).resolve()) for p in env.get("PYTHONPATH", "").split(os.pathsep) if p)
    with tempfile.TemporaryDirectory() as tmp:
        runs = matrix(write_inputs(Path(tmp)))

        def digest(argv: list[str]) -> str:
            out = subprocess.run([sys.executable, "-m", "drovar", *argv], cwd=tmp, env=env,
                                 capture_output=True)
            return (f"{' '.join(argv)}  exit={out.returncode}  "
                    f"sha256={hashlib.sha256(out.stdout).hexdigest()}  "
                    f"stderr={hashlib.sha256(out.stderr).hexdigest()}")

        with ThreadPoolExecutor(JOBS) as pool:
            for line in pool.map(digest, runs):
                print(line, flush=True)


if __name__ == "__main__":
    main()
