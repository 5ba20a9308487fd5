"""Scenario matrices and the outer robust minimization over decisions."""

import numpy as np
import pytest

import drovar.robust as robust_mod
import drovar.solver as solver_mod
from drovar.divergences import alpha_family, kl_family
from drovar.errors import ValidationError
from drovar.measures import mean_var_of, uniform_measure
from drovar.oracle import primal_sup_grid
from drovar.robust import (
    Box,
    ScenarioMatrix,
    Simplex,
    robust_bound,
    robust_minimize,
    robust_objective,
)

from _instances import script_module

KL = kl_family()
DIGEST = script_module("robust_digest")  # the tests draw its instances


def _digest_instance(label, d, name):
    """(family, scenarios, constraint) of the digest's search with that family
    label, that many assets and that constraint name."""
    for fam, s, kind, constraint in DIGEST.instances():
        if (fam.label, s.dim, kind) == (label, d, name):
            return fam, s, constraint
    raise AssertionError("no such digest instance")


def _counted_evaluations(monkeypatch):
    """A list that grows by one at each call of robust._Evaluation."""
    calls = []

    class CountedEvaluation(robust_mod._Evaluation):
        def __call__(self, *args):
            calls.append(None)
            return super().__call__(*args)

    monkeypatch.setattr(robust_mod, "_Evaluation", CountedEvaluation)
    return calls


def two_scenarios():
    return ScenarioMatrix(rows=np.array([1.0, -1.0]), weights=uniform_measure(2))


# ---------------------------------------------------------------------------
# construction


def test_one_dimensional_rows_are_promoted():
    s = two_scenarios()
    assert s.rows.shape == (2, 1)
    assert s.dim == 1


def test_scenario_rows_are_a_frozen_copy():
    raw = np.ones((2, 2))
    s = ScenarioMatrix(rows=raw, weights=uniform_measure(2))
    raw[0, 0] = 5.0  # the caller's array stays writable and apart
    assert s.rows[0, 0] == 1.0
    assert not s.rows.flags.writeable


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
    listed = Box(lo=[0.0, 1.0], hi=[2, 1])  # stored as float arrays
    assert listed.lo.dtype == listed.hi.dtype == float
    np.testing.assert_array_equal(listed.start(2), [1.0, 1.0])
    np.testing.assert_array_equal(Simplex().start(4), np.full(4, 0.25))
    np.testing.assert_allclose(Simplex().project(np.array([2.0, 0.0, -1.0])), [1.0, 0.0, 0.0])


@pytest.mark.parametrize("scale", [1e8, 1e12, 1e16, 1e50, 1e150, 1e300])
def test_simplex_projection_holds_at_any_magnitude(scale):
    rng = np.random.default_rng([26, int(np.log10(scale))])
    signs = rng.choice([-1.0, 1.0], 6)
    for x in (
        np.array([1.0, 2.0 / scale]),  # at 1e16 the sorted rule's first test rounded to 0
        np.array([1.0 + 3e-13, 1.0 + 1e-13]),
        np.array([1.0 + 3e-9, 1.0 + 1e-9, 1.0 - 2e-9]),
        signs * rng.uniform(0.5, 1.0, 6),
        signs * (1.0 + rng.uniform(-1e-15, 1e-15, 6)),  # near ties among one sign's entries
        -(1.0 + rng.uniform(0.0, 1e-15, 6)),
    ):
        q = Simplex().project(scale * x)
        assert np.all(q >= 0.0)
        assert abs(q.sum() - 1.0) <= 1e-12


def test_minimize_rejects_a_constraint_of_the_wrong_size_or_kind():
    s = ScenarioMatrix(rows=np.ones((2, 2)), weights=uniform_measure(2))
    box3 = Box(lo=np.zeros(3), hi=np.ones(3))
    with pytest.raises(ValidationError, match="box has 3 coordinates, decisions have 2"):
        robust_minimize(s, box3, KL, 0.1)
    with pytest.raises(ValidationError, match="unsupported constraint"):
        robust_minimize(s, "simplex", KL, 0.1)


@pytest.mark.parametrize("fam", [KL, alpha_family(2.0)], ids=["kl", "alpha:2"])
def test_minimize_rejects_returns_whose_payoff_overflows(fam):
    s = ScenarioMatrix(rows=np.array([[2e154, 1.0], [-2e154, 3.0], [1e154, -2.0]]),
                       weights=uniform_measure(3))
    box = Box(lo=np.zeros(2), hi=np.ones(2))
    with pytest.raises(ValidationError, match="overflows"):
        robust_minimize(s, box, fam, 0.1)


def test_minimize_rejects_returns_whose_gradient_overflows():
    # at x <= 1e-10 the payoff is finite, but its gradient, of order x*r^2,
    # is not; the search would stall at the start point on nan steps
    s = ScenarioMatrix(rows=np.array([[1e160, 1.0], [-1e160, 2.0], [5e159, -1.0]]),
                       weights=uniform_measure(3))
    box = Box(lo=np.zeros(2), hi=np.full(2, 1e-10))
    with pytest.raises(ValidationError, match="gradient of the robust objective overflows"):
        robust_minimize(s, box, KL, 0.1)


@pytest.mark.parametrize("eta", [0.0, -1.0, np.nan, 5.0])
def test_minimize_rejects_a_radius_out_of_range(eta):
    s = ScenarioMatrix(rows=np.array([[1.0, 1.0], [-1.0, 2.0]]), weights=uniform_measure(2))
    for constraint in (Box(lo=np.zeros(2), hi=np.ones(2)), Simplex()):
        with pytest.raises(ValidationError, match="eta must lie in"):
            robust_minimize(s, constraint, alpha_family(0.5), eta)


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


@pytest.mark.parametrize("d, constraint, moves", [
    (2, Box(lo=np.full(2, 0.3), hi=np.full(2, 0.3)), False),  # the start is the only point
    (1, Simplex(), False),  # so is the barycenter of a 1-asset simplex
    (2, Box(lo=np.zeros(2), hi=np.ones(2)), True),
], ids=["point-box", "one-asset-simplex", "box"])
@pytest.mark.parametrize("fam", [KL, alpha_family(2.0), alpha_family(0.5)],
                         ids=["kl", "alpha:2", "alpha:0.5"])
def test_minimize_ends_in_one_certified_solve_whether_or_not_it_moves(
        monkeypatch, fam, d, constraint, moves):
    s = DIGEST.drifting_returns(np.random.default_rng([11, d]), 25, d)
    search, certified = _counted_evaluations(monkeypatch), []
    bound = robust_mod.variance_bound

    def counted_bound(*args, **kwargs):
        certified.append(None)
        return bound(*args, **kwargs)

    monkeypatch.setattr(robust_mod, "variance_bound", counted_bound)
    x_star, val = robust_minimize(s, constraint, fam, 0.1)
    # the search runs on every set; on a one-point set it settles only nu
    assert len(search) > 1
    if not moves:
        np.testing.assert_array_equal(x_star, constraint.start(d))
    # one final cold solve gives the value, whether or not the search moved
    assert len(certified) == 1
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


def test_minimize_beyond_eight_assets():
    d = 12
    s = DIGEST.drifting_returns(np.random.default_rng(12), 30, d)
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
    s = DIGEST.drifting_returns(np.random.default_rng([7, d]), 25, d)
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
    s = DIGEST.drifting_returns(np.random.default_rng([2026, seed]), 40, d)
    _, val = robust_minimize(s, Box(lo=np.zeros(d), hi=np.ones(d)), KL, 0.05)
    ref = scipy_optimize.minimize(
        lambda x: robust_objective(x, s, KL, 0.05), np.full(d, 0.5),
        method="L-BFGS-B", bounds=[(0.0, 1.0)] * d,
    )
    assert val <= ref.fun + 1e-8


def test_the_search_stops_at_its_evaluation_cap(monkeypatch):
    # this instance runs into the cap; a backtracking step that went uncounted
    # would carry the search on to about 900 evaluations
    calls = _counted_evaluations(monkeypatch)
    fam, s, constraint = _digest_instance("alpha:8", 8, "simplex")
    robust_minimize(s, constraint, fam, 0.1)
    assert 0 < len(calls) <= 500


def test_the_search_does_its_work_in_few_root_steps(monkeypatch):
    # the root steps of 18 searches and their certified solves, summed over
    # every solver.Budget they make: a slower search fails the bound
    budgets = []

    class CountedBudget(solver_mod.Budget):
        def __init__(self, limit):
            super().__init__(limit)
            budgets.append(self)

    monkeypatch.setattr(solver_mod, "Budget", CountedBudget)
    for d in (2, 4, 8):
        s = DIGEST.drifting_returns(np.random.default_rng([21, d]), 40, d)
        for fam in (KL, alpha_family(2.0), alpha_family(0.5)):
            for constraint in (Box(lo=np.zeros(d), hi=np.ones(d)), Simplex()):
                robust_minimize(s, constraint, fam, 0.1)
    assert sum(b.used for b in budgets) <= 1300


@pytest.mark.parametrize("d, constraint, reference", [
    # beside the kink at x = 0: a short spectral step must not stop the search
    (2, "box", 1.1244302306269811e-10),
    # the 500-evaluation cap ends the search short of the minimum, -0.0448302516
    (8, "simplex", -0.04482923157258465),
], ids=["kink-box", "capped-simplex"])
def test_the_search_ends_no_higher_than_the_nested_search_did(d, constraint, reference):
    # reference: the value of the former search, which minimized over nu by a
    # Newton root at every point, on the same instance
    fam, s, c = _digest_instance("alpha:8", d, constraint)
    _, val = robust_minimize(s, c, fam, 0.1)
    assert val <= reference + 1e-12 * (1.0 + abs(reference))


@pytest.mark.parametrize("constraint", ["box", "simplex"])
@pytest.mark.parametrize("label", ["kl", "alpha:0.1"])
@pytest.mark.parametrize("scale", ["1e+06", "1e+08", "1e+09", "1e+12"])
def test_the_search_reaches_its_minimum_in_any_units(monkeypatch, scale, label, constraint):
    # the minimizer does not depend on the units of the returns; a spectral
    # step clamped to [1e-10, 1e10] ended these simplices 1.8e-2 to 2.4e-2 of
    # |F(x0)| high, and 11 of the 16 searches at the cap
    scipy_optimize = pytest.importorskip("scipy.optimize")
    fam, s, c = _digest_instance(label, 2, f"{constraint}*{scale}")
    calls = _counted_evaluations(monkeypatch)
    _, val = robust_minimize(s, c, fam, DIGEST.ETA)
    evaluations = len(calls)

    def objective(t):
        return robust_objective(np.array([t, 1.0 - t]), s, fam, DIGEST.ETA)

    if constraint == "box":
        # the minimum lies beside x = 0, below F(0) = 0 by under 0.003 at
        # every scale, which is under 3e-15 of |F(x0)| here
        reference = robust_objective(np.zeros(2), s, fam, DIGEST.ETA)
    else:
        grid = np.linspace(0.0, 1.0, 201)
        t = grid[int(np.argmin([objective(t) for t in grid]))]
        reference = scipy_optimize.minimize_scalar(
            objective, bounds=(max(t - 0.005, 0.0), min(t + 0.005, 1.0)),
            method="bounded", options={"xatol": 1e-12},
        ).fun
    start = robust_objective(c.project(c.start(2)), s, fam, DIGEST.ETA)
    assert abs(val - reference) <= 1e-12 * abs(start)
    assert evaluations < 500
