"""Scenario matrices and the outer robust minimization over decisions."""

import numpy as np
import pytest

import drovar.robust as robust_mod
from drovar.divergences import alpha_family, kl_family
from drovar.errors import ValidationError
from drovar.measures import EmpiricalMeasure, mean_var_of, uniform_measure
from drovar.oracle import primal_sup_grid
from drovar.robust import (
    Box,
    ScenarioMatrix,
    Simplex,
    robust_bound,
    robust_minimize,
    robust_objective,
)

KL = kl_family()


def two_scenarios():
    return ScenarioMatrix(rows=np.array([1.0, -1.0]), weights=uniform_measure(2))


# ---------------------------------------------------------------------------
# construction


def test_one_dimensional_rows_are_promoted():
    s = two_scenarios()
    assert s.rows.shape == (2, 1)
    assert s.dim == 1


def test_scenario_validation():
    with pytest.raises(ValidationError):
        ScenarioMatrix(rows=np.ones((3, 2)), weights=uniform_measure(2))
    with pytest.raises(ValidationError):
        ScenarioMatrix(rows=np.array([[1.0], [np.inf]]), weights=uniform_measure(2))
    for rows in (np.empty((0, 2)), np.ones((2, 1, 1))):
        with pytest.raises(ValidationError, match="rows must be a nonempty n x d matrix"):
            ScenarioMatrix(rows=rows, weights=uniform_measure(2))
    s = ScenarioMatrix(rows=np.ones((2, 2)), weights=uniform_measure(2))
    with pytest.raises(ValidationError, match="decision has 3 entries, expected 2"):
        s.problem_for(np.ones(3))


def test_problem_for_negates_returns():
    s = ScenarioMatrix(
        rows=np.array([[1.0, 0.0], [0.0, 2.0]]), weights=uniform_measure(2)
    )
    data = s.problem_for([1.0, 0.5])
    np.testing.assert_allclose(data.rho, [-1.0, -1.0])
    np.testing.assert_allclose(data.phi, [1.0, 1.0])


def test_box_and_simplex_validation():
    Box(lo=np.zeros(2), hi=np.zeros(2))  # degenerate is allowed
    with pytest.raises(ValidationError):
        Box(lo=np.ones(2), hi=np.zeros(2))
    for lo, hi, message in [
        (np.zeros(2), np.ones(3), "lo and hi must be 1-d with the same shape"),
        (np.zeros((2, 2)), np.ones((2, 2)), "lo and hi must be 1-d with the same shape"),
        (np.zeros(2), np.array([1.0, np.inf]), "box bounds must be finite"),
        (np.array([np.nan, 0.0]), np.ones(2), "box bounds must be finite"),
    ]:
        with pytest.raises(ValidationError, match=message):
            Box(lo=lo, hi=hi)


def test_box_and_simplex_own_their_start_and_projection():
    box = Box(lo=np.array([0.0, -1.0]), hi=np.array([1.0, 3.0]))
    np.testing.assert_array_equal(box.start(2), [0.5, 1.0])
    np.testing.assert_array_equal(box.project(np.array([-2.0, 2.0])), [0.0, 2.0])
    np.testing.assert_array_equal(Simplex().start(4), np.full(4, 0.25))
    np.testing.assert_allclose(Simplex().project(np.array([2.0, 0.0, -1.0])), [1.0, 0.0, 0.0])


def test_minimize_rejects_a_constraint_of_the_wrong_size_or_kind():
    s = ScenarioMatrix(rows=np.ones((2, 2)), weights=uniform_measure(2))
    box3 = Box(lo=np.zeros(3), hi=np.ones(3))
    with pytest.raises(ValidationError, match="box has 3 coordinates, decisions have 2"):
        robust_minimize(s, box3, KL, 0.1)
    with pytest.raises(ValidationError, match="unsupported constraint"):
        robust_minimize(s, "simplex", KL, 0.1)


# ---------------------------------------------------------------------------
# objective values


def test_zero_position_has_zero_worst_case():
    s = two_scenarios()
    val = robust_objective(np.zeros(1), s, KL, 0.1)
    assert abs(val) <= 1e-9


def test_objective_matches_direct_bound_evaluation():
    s = two_scenarios()
    x = np.array([0.7])
    res = robust_bound(x, s, KL, 0.1)
    assert robust_objective(x, s, KL, 0.1) == res.value
    oracle, _ = primal_sup_grid(s.problem_for(x), s.weights, KL, 0.1)
    assert abs(res.value - oracle) <= 1e-4


def test_objective_grows_with_eta():
    s = two_scenarios()
    x = np.array([0.5])
    vals = [robust_objective(x, s, KL, eta) for eta in (0.05, 0.2, 0.5)]
    assert vals[0] <= vals[1] + 1e-8 and vals[1] <= vals[2] + 1e-8


def test_robust_dominates_nominal():
    s = two_scenarios()
    x = np.array([0.5])
    data = s.problem_for(x)
    mean, _ = mean_var_of(s.weights, data.rho)
    _, var = mean_var_of(s.weights, data.phi)
    assert robust_objective(x, s, KL, 0.1) >= mean + var - 1e-9


# ---------------------------------------------------------------------------
# outer minimization


def test_minimize_over_a_box_matches_a_grid():
    rows = np.array([0.9, -1.1, 0.4])
    s = ScenarioMatrix(rows=rows, weights=uniform_measure(3))
    x_star, val = robust_minimize(s, Box(lo=np.zeros(1), hi=np.ones(1)), KL, 0.15)
    assert 0.0 <= x_star[0] <= 1.0
    grid = min(
        robust_objective(np.array([x]), s, KL, 0.15)
        for x in np.linspace(0.0, 1.0, 201)
    )
    assert val <= grid + 1e-4
    assert val >= grid - 1e-6  # the grid cannot be beaten by more than its spacing


def test_minimize_in_a_degenerate_box_stays_put():
    s = two_scenarios()
    x_star, val = robust_minimize(s, Box(lo=np.zeros(1), hi=np.zeros(1)), KL, 0.1)
    assert x_star[0] == 0.0
    assert val == robust_objective(np.zeros(1), s, KL, 0.1)


@pytest.mark.parametrize("fam", [KL, alpha_family(2.0), alpha_family(0.5)],
                         ids=["kl", "alpha:2", "alpha:0.5"])
@pytest.mark.parametrize("d, constraint, moves", [
    (2, Box(lo=np.full(2, 0.3), hi=np.full(2, 0.3)), False),  # the start is the only point
    (1, Simplex(), False),  # so is the barycenter of a 1-asset simplex
    (2, Box(lo=np.zeros(2), hi=np.ones(2)), True),
], ids=["point-box", "one-asset-simplex", "box"])
def test_minimize_reuses_the_first_solve_when_the_search_stays_put(
        monkeypatch, fam, d, constraint, moves):
    s = _drifting_returns(np.random.default_rng([11, d]), 25, d)
    calls = {"search": 0, "certified": 0}
    solve, bound = robust_mod._solve, robust_mod.variance_bound

    def counted_solve(*args):
        calls["search"] += 1
        return solve(*args)

    def counted_bound(*args, **kwargs):
        calls["certified"] += 1
        return bound(*args, **kwargs)

    monkeypatch.setattr(robust_mod, "_solve", counted_solve)
    monkeypatch.setattr(robust_mod, "variance_bound", counted_bound)
    x_star, val = robust_minimize(s, constraint, fam, 0.1)
    assert (calls["search"] > 1) == moves
    # one final cold solve gives the value, whether or not the search moved
    assert calls["certified"] == 1
    monkeypatch.undo()
    assert val == robust_objective(x_star, s, fam, 0.1)


def test_minimize_over_the_simplex():
    rows = np.array([[1.2, -0.3], [-0.8, 0.1], [0.4, 0.05]])
    s = ScenarioMatrix(rows=rows, weights=uniform_measure(3))
    x_star, val = robust_minimize(s, Simplex(), KL, 0.1)
    assert np.all(x_star >= -1e-12)
    assert np.sum(x_star) == pytest.approx(1.0, abs=1e-9)
    # never worse than the barycenter it starts from
    start = np.full(2, 0.5)
    assert val <= robust_objective(start, s, KL, 0.1) + 1e-9


def test_minimize_is_deterministic():
    s = two_scenarios()
    box = Box(lo=np.zeros(1), hi=np.ones(1))
    a = robust_minimize(s, box, KL, 0.2)
    b = robust_minimize(s, box, KL, 0.2)
    assert a[1] == b[1]
    np.testing.assert_array_equal(a[0], b[0])


def _drifting_returns(rng, m, d):
    """m scenario rows of d assets with per-asset drift and spread, under
    random weights."""
    rows = rng.uniform(-0.05, 0.1, d) + rng.uniform(0.1, 0.3, d) * rng.standard_normal((m, d))
    w = rng.uniform(0.1, 1.0, m)
    return ScenarioMatrix(rows=rows, weights=EmpiricalMeasure(w / w.sum()))


def test_minimize_beyond_eight_assets():
    d = 12
    s = _drifting_returns(np.random.default_rng(12), 30, d)
    box = Box(lo=np.zeros(d), hi=np.ones(d))
    x_star, val = robust_minimize(s, box, KL, 0.1)
    assert np.all((x_star >= 0.0) & (x_star <= 1.0))
    assert val == robust_objective(x_star, s, KL, 0.1)
    assert val <= robust_objective(np.full(d, 0.5), s, KL, 0.1)
    again = robust_minimize(s, box, KL, 0.1)
    assert again[1] == val
    np.testing.assert_array_equal(again[0], x_star)


@pytest.mark.parametrize("fam", [alpha_family(2.0), alpha_family(0.5)],
                         ids=["alpha:2", "alpha:0.5"])
@pytest.mark.parametrize("simplex", [False, True], ids=["box", "simplex"])
@pytest.mark.parametrize("d", [2, 4])
def test_minimize_beyond_kl(fam, simplex, d):
    s = _drifting_returns(np.random.default_rng([7, d]), 25, d)
    constraint = Simplex() if simplex else Box(lo=np.zeros(d), hi=np.ones(d))
    x_star, val = robust_minimize(s, constraint, fam, 0.1)
    assert np.all(x_star >= 0.0) and np.all(x_star <= 1.0)
    if simplex:
        assert np.sum(x_star) == pytest.approx(1.0, abs=1e-9)
    assert val == robust_objective(x_star, s, fam, 0.1)
    start = np.full(d, 1.0 / d if simplex else 0.5)
    assert val <= robust_objective(start, s, fam, 0.1)
    again = robust_minimize(s, constraint, fam, 0.1)
    assert again[1] == val
    np.testing.assert_array_equal(again[0], x_star)


@pytest.mark.parametrize("seed", range(4))
def test_minimize_reaches_a_quasi_newton_reference(seed):
    # derivative-free search stalled 6.5e-5 to 1.2e-3 above this reference
    scipy_optimize = pytest.importorskip("scipy.optimize")
    d = 8
    s = _drifting_returns(np.random.default_rng([2026, seed]), 40, d)
    _, val = robust_minimize(s, Box(lo=np.zeros(d), hi=np.ones(d)), KL, 0.05)
    ref = scipy_optimize.minimize(
        lambda x: robust_objective(x, s, KL, 0.05), np.full(d, 0.5),
        method="L-BFGS-B", bounds=[(0.0, 1.0)] * d,
    )
    assert val <= ref.fun + 1e-8
