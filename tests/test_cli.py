"""CLI contract: CSV in, deterministic JSON out, documented exit codes."""

import json
import math
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


def test_bound_mean_reads_only_rho(tmp_path):
    outs = []
    for name, text in (("full.csv", "rho,phi,weight\n0.5,0,1\n-1,1,2\n1.5,2,1\n"),
                       ("rho.csv", "rho,weight\n0.5,1\n-1,2\n1.5,1\n"),
                       ("bad_phi.csv", "rho,phi,weight\n0.5,oops,1\n-1,,2\n1.5,2,1\n")):
        path = tmp_path / name
        path.write_text(text)
        outs.append(run_cli("bound-mean", "--input", str(path),
                            "--divergence", "kl", "--eta", "0.2"))
    for out in outs:
        assert (out.returncode, out.stderr) == (0, b"")
    assert outs[0].stdout == outs[1].stdout == outs[2].stdout


def test_tol_defaults_per_subcommand():
    from drovar.solver import SolverConfig

    parser = cli.build_parser()
    src = ["--input", "in.csv", "--divergence", "kl"]
    for argv, tol in ((["bound-mean", *src, "--eta", "0.1"], SolverConfig.grad_tol),
                      (["bound-variance", *src, "--eta", "0.1"], SolverConfig.grad_tol),
                      (["sweep", *src, "--eta-min", "0.1", "--eta-max", "0.2",
                        "--steps", "2"], SolverConfig.grad_tol),
                      (["robust", *src, "--eta", "0.1", "--simplex"], SolverConfig.grad_tol),
                      (["oracle-check", *src, "--eta", "0.1"], 1e-4)):
        assert parser.parse_args(argv).tol == tol, argv[0]


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


def test_oracle_check_tolerance_scales_with_the_oracle_value(tmp_path):
    # rho near 1e13 and phi near 1e6: the bound agrees with the oracle to a
    # few ulps, yet the gap is 1.6e-2, so only a tolerance relative to
    # 1 + |oracle value| passes it; half that relative gap still fails
    scaled = tmp_path / "scaled.csv"
    scaled.write_text("rho,phi,weight\n3e13,5e6,0.5\n-2e13,1e6,0.3\n5e13,-4e6,0.2\n")
    args = ("oracle-check", "--input", str(scaled), "--divergence", "kl", "--eta", "0.2")
    ok = run_cli(*args)
    assert (ok.returncode, ok.stderr) == (0, b"")
    rec = json.loads(ok.stdout)
    assert abs(rec["gap"]) > 1e-4
    half = abs(rec["gap"]) / (2.0 * (1.0 + abs(rec["oracle_value"])))
    tight = run_cli(*args, "--tol", repr(half))
    assert tight.returncode == 3
    assert tight.stdout == ok.stdout


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

    reversed_box = run_cli("robust", "--input", str(scen), "--divergence", "kl",
                           "--eta", "0.1", "--box", "1", "0")
    assert reversed_box.returncode == 2
    assert reversed_box.stdout == b""
    assert b"--box LO must not exceed HI" in reversed_box.stderr


def test_robust_simplex_on_returns_near_1e9(tmp_path):
    # the simplex projection of the search's gradient steps, at this scale,
    # once found no threshold and raised IndexError (exit 1)
    scen = tmp_path / "big.csv"
    scen.write_text("r1,r2\n1e9,-2e9\n5e8,3e9\n-1e9,1e9\n")
    out = run_cli("robust", "--input", str(scen), "--divergence", "kl",
                  "--eta", "0.1", "--simplex")
    assert (out.returncode, out.stderr) == (0, b"")
    assert sum(json.loads(out.stdout)["x"]) == pytest.approx(1.0, abs=1e-9)


def test_tol_sets_the_solver_tolerance_of_a_bound_command(tmp_path):
    from drovar.divergences import kl_family
    from drovar.measures import EmpiricalMeasure, ProblemData
    from drovar.solver import SolverConfig, variance_bound

    path = tmp_path / "three.csv"
    path.write_text("rho,phi,weight\n0,0,0.5\n1,1,0.3\n0.5,-1,0.2\n")
    args = ("bound-variance", "--input", str(path), "--divergence", "kl", "--eta", "0.1")
    out = run_cli(*args, "--tol", "1e-4")
    assert out.returncode == 0, out.stderr
    data = ProblemData(rho=np.array([0.0, 1.0, 0.5]), phi=np.array([0.0, 1.0, -1.0]))
    p = EmpiricalMeasure(np.array([0.5, 0.3, 0.2]))
    loose = variance_bound(data, p, kl_family(), 0.1, config=SolverConfig(grad_tol=1e-4))
    # the loose tolerance stops the solve early, so the record tells it apart
    assert loose.iterations < variance_bound(data, p, kl_family(), 0.1).iterations
    direct = cli.render_json(cli.bound_record(loose, 0.1, kl_family()))
    assert json.loads(out.stdout) == json.loads(direct)
    for tol in ("0", "1e-2"):
        bad = run_cli(*args, "--tol", tol)
        assert bad.returncode == 2
        assert bad.stdout == b""
        assert b"grad_tol must lie in (0, 1e-3)" in bad.stderr


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

    bad.write_text("rho,phi\n0, \n0,1\n")
    out = run_cli("bound-variance", "--input", str(bad),
                  "--divergence", "kl", "--eta", "0.1")
    assert out.returncode == 2
    assert b"missing value at data row 1, column 'phi'" in out.stderr


_PLAIN = "rho,phi\n0,0\n0,1\n"


@pytest.mark.parametrize(
    "text, same_as, error",
    [("rho,phi\n0,0\n\n0,1\n", _PLAIN, None),
     # the skipped blank row is not counted, so the short row is data row 2
     ("rho,phi\n0,0\n\n0\n", None, "missing value at data row 2, column 'phi'"),
     ("rho,phi\n0,0,7\n0,1,\n", _PLAIN, None),
     ("rho,phi\n0,0\n0, 1.5 \n", "rho,phi\n0,0\n0,1.5\n", None),
     ("\ufeff rho , phi \n0,0\n0,1\n", _PLAIN, None)],
    ids=["blank-row", "short-row", "extra-field", "spaced-cell", "bom-spaced-header"],
)
def test_ingest_reads_the_cells_the_header_names(tmp_path, capsys, text, same_as, error):
    def run(name, body):
        path = tmp_path / name
        path.write_text(body, encoding="utf-8")
        code = cli.main(["bound-variance", "--input", str(path),
                         "--divergence", "kl", "--eta", "0.1"])
        return code, capsys.readouterr()

    code, out = run("input.csv", text)
    if error is not None:
        assert (code, out.out, out.err) == (2, "", f"error: {error}\n")
        return
    ref_code, ref = run("reference.csv", same_as)
    assert (code, out.err) == (ref_code, ref.err) == (0, "")
    assert out.out == ref.out


def test_empty_file_is_rejected(tmp_path):
    bad = tmp_path / "empty.csv"
    for text, message in (("", b"is empty"), ("rho,phi\n", b"has no data rows")):
        bad.write_text(text)
        out = run_cli("bound-variance", "--input", str(bad),
                      "--divergence", "kl", "--eta", "0.1")
        assert out.returncode == 2
        assert out.stderr.startswith(b"error:") and message in out.stderr


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


@pytest.mark.parametrize(
    "text, args",
    [("rho,phi\n0,2e154\n0,-2e154\n0,1\n", ("bound-variance", "--divergence", "alpha:0.5")),
     ("r1,r2\n2e154,1\n-2e154,3\n1e154,-2\n", ("robust", "--divergence", "kl",
                                                 "--box", "0", "1")),
     # a finite span whose beta = max u + d overflows for alpha < 1
     ("rho,phi\n1e308,0\n0,0\n", ("bound-mean", "--divergence", "alpha:0.5"))],
    ids=["bound-variance", "robust", "beta"],
)
def test_a_payoff_that_overflows_is_exit_two(tmp_path, text, args):
    # exit 1 means a closed stdout, so an overflow must not reach it as a traceback
    bad = tmp_path / "huge.csv"
    bad.write_text(text)
    out = run_cli(*args, "--input", str(bad), "--eta", "0.1")
    assert out.returncode == 2
    assert out.stdout == b""
    assert _one_error_line(out.stderr), out.stderr
    assert b"overflows" in out.stderr


def test_a_payoff_too_small_in_scale_is_exit_two(tmp_path):
    # alpha 0.1's inner root for this light top atom puts |beta - max u| below
    # the smallest float; that is an input error, not a traceback
    tiny = tmp_path / "tiny.csv"
    tiny.write_text("rho,phi,weight\n-7.14e-84,-1.95e-42,1.15e-261\n5.78e-85,2.92e-42,1\n")
    out = run_cli("bound-variance", "--input", str(tiny), "--divergence", "alpha:0.1",
                  "--eta", "0.62")
    assert out.returncode == 2
    assert out.stdout == b""
    assert _one_error_line(out.stderr), out.stderr
    assert b"too small" in out.stderr


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


def test_render_json_layout_is_pinned():
    value = {
        "floats": [1 / 3, -0.0, float("inf"), 123456789012345.0],
        "nested": {"flag": True, "count": 7, "label": 'say "hi"'},
        "records": [{"ok": False}],
        "empty_list": [],
        "empty_dict": {},
    }
    assert cli.render_json(value) == (
        '{\n'
        '  "floats": [\n'
        '    0.333333333333,\n'
        '    0,\n'
        '    1e999,\n'
        '    1.23456789012e+14\n'
        '  ],\n'
        '  "nested": {\n'
        '    "flag": true,\n'
        '    "count": 7,\n'
        '    "label": "say \\"hi\\""\n'
        '  },\n'
        '  "records": [\n'
        '    {\n'
        '      "ok": false\n'
        '    }\n'
        '  ],\n'
        '  "empty_list": [],\n'
        '  "empty_dict": {}\n'
        '}'
    )


def test_render_json_rejects_nan():
    # a raise, not an assert, so that python -O cannot strip it and let a
    # bare nan into the JSON
    with pytest.raises(ValueError):
        cli.render_json(float("nan"))
    with pytest.raises(ValueError):
        cli.render_json({"bound": [1.0, float("nan")]})


def _per_item(values, pad=""):
    """The per-item rendering of a list: _fmt_float for each float."""
    def one(x):
        if isinstance(x, bool):
            return "true" if x else "false"
        if isinstance(x, int):
            return str(x)
        return cli._fmt_float(x)

    inner = pad + "  "
    return "[\n" + ",\n".join(inner + one(x) for x in values) + f"\n{pad}]"


def test_float_lists_render_as_the_per_item_path():
    rng = np.random.default_rng(25)
    signs = rng.choice([-1.0, 1.0], 1000)
    # magnitudes 5e-324 to 1e308; the random ones stop at 1e305, so the sum
    # stays finite and the list takes the bulk path
    wide = [5e-324, -5e-324, 1e308, -1e308, 2.2250738585072014e-308, 0.1, -1.0,
            123456789012345.0, 1e16, 1 / 3]
    wide += (signs * 10.0 ** rng.uniform(-323.3, 305.0, 1000)).tolist()
    zeros = rng.uniform(-1.0, 1.0, 50).tolist()
    zeros[3], zeros[17], zeros[-1] = -0.0, 0.0, -0.0
    assert math.isfinite(sum(wide)) and math.isfinite(sum(zeros))
    lists = {
        "wide": wide,
        "zeros": zeros,
        "one": [-0.0],
        "sum_overflows": [1e308, 1e308],
        "inf": [1.0, float("inf"), -float("inf")],
        "int": [0.5, 3, -2.25],
        "bool": [0.5, True, -2.25],
        "float64": [0.5, np.float64(-0.1), 1e-300],
    }
    for name, values in lists.items():
        assert cli.render_json(values) == _per_item(values), name
        assert cli.render_json({"w": values}) == '{\n  "w": ' + _per_item(values, "  ") + "\n}"
    # the NaN check is not lost in a long list
    with pytest.raises(ValueError):
        cli.render_json(rng.uniform(-1.0, 1.0, 10_000).tolist() + [float("nan")])
