"""CLI contract: CSV in, deterministic JSON out, documented exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

import drovar.cli as cli

BOUND_KEYS = {
    "bound", "dual_point", "tilt_weights", "diagnostics",
    "status", "iterations", "eta", "divergence",
}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "drovar", *args],
        capture_output=True, timeout=120,
    )


@pytest.fixture
def bernoulli_csv(tmp_path):
    path = tmp_path / "bernoulli.csv"
    path.write_text("rho,phi\n0,0\n0,1\n")
    return str(path)


@pytest.fixture
def skewed_csv(tmp_path):
    path = tmp_path / "skewed.csv"
    path.write_text("rho,phi,weight\n0,0,0.8\n0,1,0.2\n")
    return str(path)


# ---------------------------------------------------------------------------
# happy paths, via real subprocesses


def test_bound_variance_record_shape_and_determinism(bernoulli_csv):
    args = ("bound-variance", "--input", bernoulli_csv,
            "--divergence", "kl", "--eta", "0.1")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stderr == b""
    assert first.stdout == second.stdout  # byte-identical reruns

    rec = json.loads(first.stdout)
    assert set(rec) == BOUND_KEYS
    assert rec["bound"] == pytest.approx(0.25, abs=1e-4)
    assert rec["status"] == "BoundaryLambda"
    assert rec["divergence"] == "kl"
    assert set(rec["dual_point"]) == {"lambda", "beta", "nu"}
    assert set(rec["diagnostics"]) == {
        "normalization", "achieved_divergence", "mean_condition_gap", "boundary",
    }
    assert rec["diagnostics"]["boundary"] is True
    assert len(rec["tilt_weights"]) == 2


def test_bound_mean_matches_library(tmp_path):
    from drovar.divergences import kl_family
    from drovar.measures import uniform_measure
    from drovar.solver import mean_bound

    path = tmp_path / "mean.csv"
    path.write_text("rho,phi\n0,0\n1,0\n")
    out = run_cli("bound-mean", "--input", str(path),
                  "--divergence", "kl", "--eta", "0.1")
    assert out.returncode == 0
    rec = json.loads(out.stdout)
    direct = mean_bound([0.0, 1.0], uniform_measure(2), kl_family(), 0.1)
    # stdout floats carry 12 significant digits
    assert rec["bound"] == pytest.approx(direct.value, abs=1e-11)


def test_weight_column_normalization(tmp_path, bernoulli_csv):
    weighted = tmp_path / "weighted.csv"
    weighted.write_text("rho,phi,weight\n0,0,2\n0,1,2\n")
    a = run_cli("bound-variance", "--input", bernoulli_csv,
                "--divergence", "kl", "--eta", "0.1")
    b = run_cli("bound-variance", "--input", str(weighted),
                "--divergence", "kl", "--eta", "0.1")
    assert a.stdout == b.stdout


def test_weights_whose_sum_overflows_normalize_like_any_other(tmp_path):
    outs = []
    for w in ("1", "1e308"):
        path = tmp_path / f"w{w}.csv"
        path.write_text(f"rho,phi,weight\n0,0,{w}\n0,1,{w}\n")
        outs.append(run_cli("bound-variance", "--input", str(path),
                            "--divergence", "kl", "--eta", "0.1"))
    assert [out.returncode for out in outs] == [0, 0]
    assert outs[1].stderr == b""
    assert outs[0].stdout == outs[1].stdout


def test_zero_weight_rows_are_dropped(tmp_path, bernoulli_csv):
    padded = tmp_path / "padded.csv"
    padded.write_text("rho,phi,weight\n0,0,1\n9,9,0\n0,1,1\n")
    a = run_cli("bound-variance", "--input", bernoulli_csv,
                "--divergence", "kl", "--eta", "0.1")
    b = run_cli("bound-variance", "--input", str(padded),
                "--divergence", "kl", "--eta", "0.1")
    assert a.stdout == b.stdout


def test_sweep_emits_monotone_records_and_curve(tmp_path, skewed_csv):
    curve = tmp_path / "curve.csv"
    out = run_cli("sweep", "--input", skewed_csv, "--divergence", "kl",
                  "--eta-min", "0.05", "--eta-max", "0.5", "--steps", "10",
                  "--curve-out", str(curve))
    assert out.returncode == 0
    records = json.loads(out.stdout)
    assert len(records) == 10
    bounds = [r["bound"] for r in records]
    etas = [r["eta"] for r in records]
    assert etas == sorted(etas)
    assert all(b2 >= b1 - 1e-8 for b1, b2 in zip(bounds, bounds[1:]))

    lines = curve.read_text().strip().splitlines()
    assert lines[0] == "eta,bound"
    assert len(lines) == 11
    for line, rec in zip(lines[1:], records):
        eta_s, bound_s = line.split(",")
        assert float(eta_s) == pytest.approx(rec["eta"], rel=1e-11)
        assert float(bound_s) == pytest.approx(rec["bound"], rel=1e-11)


def test_oracle_check_exit_codes(skewed_csv):
    ok = run_cli("oracle-check", "--input", skewed_csv,
                 "--divergence", "kl", "--eta", "0.1")
    assert ok.returncode == 0
    rec = json.loads(ok.stdout)
    assert "oracle_value" in rec and "gap" in rec
    assert abs(rec["gap"]) <= 1e-4

    # --tol is the gap tolerance alone: the solve keeps its default settings,
    # so the record is the same at any --tol, and a loose one (above the
    # solver's own limit of 1e-3) is accepted.  The oracle is exact on two
    # atoms, so the gap is rounding alone; half of it is a tolerance it breaks
    tight = run_cli("oracle-check", "--input", skewed_csv, "--divergence", "kl",
                    "--eta", "0.1", "--tol", repr(abs(rec["gap"]) / 2))
    assert tight.returncode == 3
    assert tight.stdout == ok.stdout
    loose = run_cli("oracle-check", "--input", skewed_csv,
                    "--divergence", "kl", "--eta", "0.1", "--tol", "0.01")
    assert loose.returncode == 0, loose.stderr
    assert loose.stdout == ok.stdout
    bad = run_cli("oracle-check", "--input", skewed_csv,
                  "--divergence", "kl", "--eta", "0.1", "--tol", "0")
    assert bad.returncode == 2
    # a zero grid is a bad grid, not a request for the default one
    bad = run_cli("oracle-check", "--input", skewed_csv,
                  "--divergence", "kl", "--eta", "0.1", "--grid", "0")
    assert bad.returncode == 2


def test_robust_subcommand_box_and_simplex(tmp_path):
    scen = tmp_path / "scenarios.csv"
    scen.write_text("r1,r2\n1.2,-0.3\n-0.8,0.1\n0.4,0.05\n")
    box = run_cli("robust", "--input", str(scen), "--divergence", "kl",
                  "--eta", "0.1", "--box", "0", "1")
    assert box.returncode == 0
    rec = json.loads(box.stdout)
    assert len(rec["x"]) == 2
    assert all(0.0 <= v <= 1.0 for v in rec["x"])

    simplex = run_cli("robust", "--input", str(scen), "--divergence", "kl",
                      "--eta", "0.1", "--simplex")
    rec2 = json.loads(simplex.stdout)
    assert sum(rec2["x"]) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "plain, spaced, args",
    [
        ("rho,phi,weight\n0,0,1\n9,9,0\n0,1,3\n",
         "rho, phi , weight\n0,0,1\n9,9,0\n0,1,3\n",
         ("bound-variance", "--divergence", "kl", "--eta", "0.1")),
        ("r1,r2\n1.2,-0.3\n-0.8,0.1\n0.4,0.05\n",
         " r1, r2\n1.2,-0.3\n-0.8,0.1\n0.4,0.05\n",
         ("robust", "--divergence", "kl", "--eta", "0.1", "--box", "0", "1")),
    ],
    ids=["bound-variance", "robust"],
)
def test_header_names_may_carry_spaces(tmp_path, plain, spaced, args):
    # spreadsheets write UTF-8 CSV with a leading byte-order mark
    outs = []
    for name, text in (("plain.csv", plain), ("spaced.csv", spaced),
                       ("bom.csv", "\ufeff" + spaced)):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        outs.append(run_cli(*args, "--input", str(path)))
    assert (tmp_path / "bom.csv").read_bytes().startswith(b"\xef\xbb\xbf")
    for out in outs:
        assert out.returncode == 0, out.stderr
    assert outs[0].stdout == outs[1].stdout == outs[2].stdout


# ---------------------------------------------------------------------------
# documented failure exit codes


@pytest.mark.parametrize(
    "text, args, column",
    [("rho\n1\n", ("bound-variance",), b"phi"),
     # r0 is no return column, so there are none: exit 2, not a traceback
     ("r0\n1\n", ("robust", "--box", "0", "1"), b"r1..rd")],
    ids=["bound-variance", "robust"],
)
def test_missing_column_names_the_column(tmp_path, text, args, column):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    out = run_cli(*args, "--input", str(bad), "--divergence", "kl", "--eta", "0.1")
    assert out.returncode == 2
    assert out.stderr.startswith(b"error:") and column in out.stderr


def test_duplicate_column_is_rejected(tmp_path):
    # "phi" and " phi" name the same column once stripped
    bad = tmp_path / "bad.csv"
    bad.write_text("rho,phi, phi\n0,0,5\n0,1,7\n")
    out = run_cli("bound-variance", "--input", str(bad),
                  "--divergence", "kl", "--eta", "0.1")
    assert out.returncode == 2
    assert b"phi" in out.stderr


def test_non_numeric_cell_names_row_and_column(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("rho,phi\n0,oops\n0,1\n")
    out = run_cli("bound-variance", "--input", str(bad),
                  "--divergence", "kl", "--eta", "0.1")
    assert out.returncode == 2
    assert b"oops" in out.stderr and b"phi" in out.stderr


def test_empty_file_is_rejected(tmp_path):
    bad = tmp_path / "empty.csv"
    bad.write_text("")
    out = run_cli("bound-variance", "--input", str(bad),
                  "--divergence", "kl", "--eta", "0.1")
    assert out.returncode == 2


def _one_error_line(stderr: bytes) -> bool:
    return stderr.startswith(b"error:") and stderr.count(b"\n") == 1


def test_non_utf8_input_is_exit_two_without_traceback(tmp_path):
    bad = tmp_path / "latin.csv"
    bad.write_bytes(b"rho,phi\n0,0\n0,\xff1\n")
    out = run_cli("bound-variance", "--input", str(bad),
                  "--divergence", "kl", "--eta", "0.1")
    assert out.returncode == 2
    assert _one_error_line(out.stderr), out.stderr
    assert b"Traceback" not in out.stderr


def test_unwritable_curve_out_is_exit_two_without_traceback(bernoulli_csv, tmp_path):
    curve = tmp_path / "missing" / "curve.csv"
    out = run_cli("sweep", "--input", bernoulli_csv, "--divergence", "kl",
                  "--eta-min", "0.1", "--eta-max", "0.3", "--steps", "3",
                  "--curve-out", str(curve))
    assert out.returncode == 2
    assert _one_error_line(out.stderr), out.stderr
    assert b"Traceback" not in out.stderr
    assert out.stdout == b""
    assert not curve.exists()


@pytest.mark.parametrize(
    "extra",
    [
        ("--divergence", "beta:2", "--eta", "0.1"),
        ("--divergence", "kl", "--eta", "0"),
        ("--divergence", "alpha:0.5", "--eta", "5"),
    ],
)
def test_bad_configuration_is_exit_two(bernoulli_csv, extra):
    out = run_cli("bound-variance", "--input", bernoulli_csv, *extra)
    assert out.returncode == 2
    assert out.stderr.startswith(b"error:")


def test_sweep_grid_validation(bernoulli_csv, tmp_path):
    out = run_cli("sweep", "--input", bernoulli_csv, "--divergence", "kl",
                  "--eta-min", "0.3", "--eta-max", "0.1", "--steps", "5")
    assert out.returncode == 2
    out = run_cli("sweep", "--input", bernoulli_csv, "--divergence", "kl",
                  "--eta-min", "0.1", "--eta-max", "0.3", "--steps", "1")
    assert out.returncode == 2
    # a radius out of range at either end fails before the curve file is
    # opened and before any solve, so an existing curve survives intact
    curve = tmp_path / "curve.csv"
    for family, lo, hi in (("kl", "0", "0.3"), ("alpha:0.5", "1", "5")):
        curve.write_bytes(b"eta,bound\n0.1,0.5\n")
        out = run_cli("sweep", "--input", bernoulli_csv, "--divergence", family,
                      "--eta-min", lo, "--eta-max", hi, "--steps", "5",
                      "--curve-out", str(curve))
        assert out.returncode == 2
        assert out.stdout == b""
        assert curve.read_bytes() == b"eta,bound\n0.1,0.5\n"


def test_closed_stdout_is_exit_one_without_traceback(tmp_path):
    # 10^4 tilt weights overflow the 64 KiB pipe buffer, so the write that
    # meets the closed pipe happens inside the command, not at exit
    rng = np.random.default_rng(7)
    big = tmp_path / "big.csv"
    rows = "".join(f"{r},{f}\n" for r, f in rng.uniform(-1.0, 1.0, (10_000, 2)).tolist())
    big.write_text("rho,phi\n" + rows)
    proc = subprocess.Popen(
        [sys.executable, "-m", "drovar", "bound-variance", "--input", str(big),
         "--divergence", "kl", "--eta", "0.2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.read(100)
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert stderr == b""


def test_oracle_check_unsupported_size(tmp_path):
    big = tmp_path / "four.csv"
    big.write_text("rho,phi\n0,0\n0,1\n1,0\n1,1\n")
    out = run_cli("oracle-check", "--input", str(big),
                  "--divergence", "kl", "--eta", "0.1")
    assert out.returncode == 5


def test_render_json_rejects_nan():
    # a raise, not an assert, so that python -O cannot strip it and let a
    # bare nan into the JSON
    with pytest.raises(ValueError):
        cli.render_json(float("nan"))
    with pytest.raises(ValueError):
        cli.render_json({"bound": [1.0, float("nan")]})
