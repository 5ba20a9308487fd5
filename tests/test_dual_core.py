"""Dual objectives, reductions, gradients, tilts, and stationarity diagnostics.

Expected numbers here were computed independently: closed forms where the
atom count makes them tractable, dense parameter grids otherwise.
"""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.special import logsumexp

from drovar.divergences import alpha_family, f_eval, kl_family
from drovar.dual_core import (
    DualPoint,
    _kl_log_mean,
    alpha_reduced_objective,
    check_eta,
    dual_objective_mean,
    dual_objective_variance,
    gradient_variance,
    kl_optimal_beta,
    kl_reduced_objective,
    optimality_diagnostics,
    tilt,
)
from drovar.errors import DerivativeUnavailable, ValidationError
from drovar.measures import EmpiricalMeasure, ProblemData, uniform_measure

from _instances import random_instance

KL = kl_family()
A2 = alpha_family(2.0)
A_HALF = alpha_family(0.5)

BERNOULLI = ProblemData(rho=np.zeros(2), phi=np.array([0.0, 1.0]))
HALF = uniform_measure(2)


# ---------------------------------------------------------------------------
# point validation


def test_dual_point_validation():
    DualPoint(1.0, 0.0, 0.0)
    DualPoint(0.0, 0.0, 0.0)  # the boundary of the dual
    with pytest.raises(ValidationError):
        DualPoint(-1.0, 0.0, 0.0)
    with pytest.raises(ValidationError):
        DualPoint(math.inf, 0.0, 0.0)
    with pytest.raises(ValidationError):
        DualPoint(1.0, math.nan, 0.0)


def test_check_eta_bounds():
    check_eta(0.5, KL)
    with pytest.raises(ValidationError):
        check_eta(0.0, KL)
    with pytest.raises(ValidationError):
        check_eta(math.inf, KL)
    with pytest.raises(ValidationError):
        check_eta(4.0, A_HALF)  # at the cap 1/(alpha*(1-alpha))
    check_eta(3.999, A_HALF)


# ---------------------------------------------------------------------------
# objective values


def test_variance_objective_value():
    val = dual_objective_variance(DualPoint(1.0, 0.0, 0.0), BERNOULLI, HALF, KL, 0.1)
    # 0 + 0.1 + (e^{-1} + e^{0}) / 2
    assert val == pytest.approx(0.7839397205857213, abs=1e-14)


def test_variance_objective_constant_data():
    data = ProblemData(rho=np.zeros(3), phi=np.zeros(3))
    val = dual_objective_variance(
        DualPoint(1.0, 0.0, 0.0), data, uniform_measure(3), KL, 0.1
    )
    assert val == pytest.approx(0.1 + math.exp(-1.0), abs=1e-15)


def test_mean_objective_values():
    assert dual_objective_mean(1.0, 0.0, [0.0, 1.0], HALF, KL, 0.1) == pytest.approx(
        0.7839397205857213, abs=1e-14
    )
    assert dual_objective_mean(1.0, 2.0, [0.0, 1.0], HALF, KL, 0.1) == pytest.approx(
        2.1925611758022385, abs=1e-14
    )
    assert dual_objective_mean(1.0, 0.0, [0.0, 1.0], HALF, KL, 0.2) == pytest.approx(
        0.8839397205857213, abs=1e-14
    )
    assert dual_objective_mean(2.0, 1.0, [0.0, 1.0], HALF, A2, 0.1) == pytest.approx(
        2.2, abs=1e-15
    )


def test_mean_objective_validation():
    # at lam = 0 the objective is its closure: beta when max(values) <= beta
    assert dual_objective_mean(0.0, 0.0, [0.0, 1.0], HALF, KL, 0.1) == math.inf
    assert dual_objective_mean(0.0, 1.0, [0.0, 1.0], HALF, KL, 0.1) == 1.0
    with pytest.raises(ValidationError):
        dual_objective_mean(1.0, 0.0, [0.0, 1.0, 2.0], HALF, KL, 0.1)


def test_objective_is_plus_inf_outside_conjugate_domain():
    # alpha < 1 requires every conjugate argument strictly negative
    val = dual_objective_variance(
        DualPoint(1.0, 0.0, 0.0), BERNOULLI, HALF, A_HALF, 0.5
    )
    assert math.isinf(val)
    ok = dual_objective_variance(
        DualPoint(1.0, 2.0, 0.0), BERNOULLI, HALF, A_HALF, 0.5
    )
    assert math.isfinite(ok)


def test_kl_objective_is_plus_inf_where_an_argument_overflows():
    # (1e10 - 0)/1e-300 overflows to +inf: the max-shifted log mean returns
    # that +inf, where shifting by it would give inf - inf = nan
    assert dual_objective_mean(1e-300, 0.0, [1e10, 0.0], HALF, KL, 0.1) == math.inf


# ---------------------------------------------------------------------------
# the KL reduction eliminates beta exactly


def test_kl_reduced_value():
    val = kl_reduced_objective(1.0, 0.0, BERNOULLI, HALF, 0.1)
    assert val == pytest.approx(0.7201145069582776, abs=1e-14)


def _assert_log_mean_matches_scipy(args, w):
    ref = logsumexp(args, b=w)
    got = _kl_log_mean(args, w)
    # shifting by max(args) costs an ulp of the shift, so the error is
    # relative to the larger of the result and the shift
    scale = max(abs(ref), abs(float(np.max(args))))
    assert abs(got - ref) <= 1e-14 * scale


def test_kl_log_mean_matches_scipy_on_random_inputs():
    rng = np.random.default_rng(31)
    for _ in range(500):
        n = int(rng.integers(1, 40))
        spread = rng.choice([0.1, 1.0, 10.0, 100.0])
        args = rng.normal(scale=spread, size=n) + rng.normal(scale=10.0)
        w = rng.uniform(0.01, 1.0, n)
        _assert_log_mean_matches_scipy(args, w / w.sum())


def test_kl_log_mean_matches_scipy_on_extreme_inputs():
    # conjugate arguments (rho+phi^2-nu*phi)/lam reach +-1e12 at lam = 1e-12;
    # some atoms carry weights near 1e-300, the top argument among them
    rng = np.random.default_rng(37)
    lam = 1e-12
    for _ in range(200):
        n = int(rng.integers(2, 40))
        u = rng.uniform(-1.0, 1.0, n)
        w = rng.uniform(0.01, 1.0, n)
        tiny = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
        w[tiny] = 1e-300 * rng.uniform(0.5, 2.0, tiny.size)
        _assert_log_mean_matches_scipy(u / lam, w / w.sum())
    top_is_tiny = np.array([1.0, -1.0, 0.5]) / lam
    _assert_log_mean_matches_scipy(top_is_tiny, np.array([1e-300, 0.5, 0.5]))


def test_kl_reduced_objective_is_finite_at_the_lambda_floor():
    rng = np.random.default_rng(41)
    for _ in range(50):
        data, _ = random_instance(rng, 3)
        p = EmpiricalMeasure(np.array([1e-300, 0.4, 0.6 - 1e-300]))
        for nu in (-2.0, 0.0, 2.0):
            val = kl_reduced_objective(1e-12, nu, data, p, 0.2)
            assert math.isfinite(val)
            # as lam -> 0 the objective tends to nu^2/4 + max_i(psi_i - nu*phi_i)
            limit = nu * nu / 4.0 + float(np.max(data.psi - nu * data.phi))
            assert val == pytest.approx(limit, abs=1e-9)


def test_kl_optimal_beta_recovers_reduced_value():
    rng = np.random.default_rng(11)
    for _ in range(50):
        data, p = random_instance(rng, 3)
        lam = rng.uniform(0.3, 3.0)
        nu = rng.uniform(-2.0, 2.0)
        reduced = kl_reduced_objective(lam, nu, data, p, 0.2)
        beta = kl_optimal_beta(lam, nu, data, p)
        full = dual_objective_variance(DualPoint(lam, beta, nu), data, p, KL, 0.2)
        assert full == pytest.approx(reduced, rel=1e-13)


def test_kl_reduced_is_the_beta_minimum():
    rng = np.random.default_rng(13)
    for _ in range(12):
        data, p = random_instance(rng, 2)
        lam = rng.uniform(0.7, 2.0)
        nu = rng.uniform(-1.0, 1.0)
        reduced = kl_reduced_objective(lam, nu, data, p, 0.2)
        beta_star = kl_optimal_beta(lam, nu, data, p)
        betas = np.linspace(beta_star - 0.01, beta_star + 0.01, 801)
        grid = min(
            dual_objective_variance(DualPoint(lam, b, nu), data, p, KL, 0.2)
            for b in betas
        )
        assert -1e-12 <= grid - reduced <= 1e-6


# ---------------------------------------------------------------------------
# the alpha < 1 reduction eliminates lam exactly


def test_alpha_reduced_value_and_inner_lambda():
    val = alpha_reduced_objective(1.0, 2.0, BERNOULLI, HALF, 0.5, 1.0)
    assert val == pytest.approx(1.25, abs=1e-14)


def test_alpha_reduced_infeasible_point():
    assert math.isinf(alpha_reduced_objective(0.5, 0.0, BERNOULLI, HALF, 0.5, 1.0))


def test_alpha_reduced_rejects_bad_alpha_or_eta():
    with pytest.raises(ValidationError):
        alpha_reduced_objective(2.0, 0.0, BERNOULLI, HALF, 2.0, 0.5)
    with pytest.raises(ValidationError):
        alpha_reduced_objective(2.0, 0.0, BERNOULLI, HALF, 0.5, 4.5)


def test_alpha_reduced_is_the_lambda_minimum():
    rng = np.random.default_rng(19)
    for _ in range(20):
        data, p = random_instance(rng, 3)
        nu = rng.uniform(-1.0, 1.0)
        beta = float(np.max(data.psi - nu * data.phi)) + rng.uniform(0.3, 2.0)
        reduced = alpha_reduced_objective(beta, nu, data, p, 0.5, 0.7)
        best = minimize_scalar(
            lambda t: dual_objective_variance(
                DualPoint(math.exp(t), beta, nu), data, p, A_HALF, 0.7
            )
        )
        assert abs(best.fun - reduced) <= 1e-12 * (1.0 + abs(reduced))


# ---------------------------------------------------------------------------
# gradients of the full objective


def test_gradient_values():
    g = gradient_variance(DualPoint(1.0, 0.0, 0.0), BERNOULLI, HALF, KL, 0.1)
    assert g[0] == pytest.approx(0.28393972058572126, abs=1e-14)
    assert g[1] == pytest.approx(0.3160602794142787, abs=1e-14)
    assert g[2] == pytest.approx(-0.5, abs=1e-14)

    flat = ProblemData(rho=np.zeros(3), phi=np.zeros(3))
    g0 = gradient_variance(
        DualPoint(1.0, 0.0, 0.0), flat, uniform_measure(3), KL, 0.1
    )
    assert g0[0] == pytest.approx(0.1 + math.exp(-1.0), abs=1e-15)
    assert g0[1] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)
    assert g0[2] == 0.0


@pytest.mark.parametrize("fam", [KL, A2, A_HALF], ids=lambda f: f.label)
def test_gradient_matches_central_differences(fam):
    rng = np.random.default_rng(23)
    eta = 0.3
    for _ in range(10):
        data, p = random_instance(rng, 3)
        nu = rng.uniform(-0.5, 0.5)
        lam = rng.uniform(0.7, 1.5)
        beta = 0.0
        if fam.kind == "alpha" and fam.alpha < 1.0:
            beta = float(np.max(data.psi - nu * data.phi)) + rng.uniform(0.5, 1.5)
        dp = DualPoint(lam, beta, nu)
        grad = gradient_variance(dp, data, p, fam, eta)
        h = 1e-6
        for k, g_k in enumerate(grad):
            step = np.zeros(3)
            step[k] = h
            hi = dual_objective_variance(
                DualPoint(lam + step[0], beta + step[1], nu + step[2]),
                data, p, fam, eta,
            )
            lo = dual_objective_variance(
                DualPoint(lam - step[0], beta - step[1], nu - step[2]),
                data, p, fam, eta,
            )
            fd = (hi - lo) / (2 * h)
            assert g_k == pytest.approx(fd, rel=2e-5, abs=1e-7)


def test_gradient_raises_outside_domain():
    with pytest.raises(DerivativeUnavailable):
        gradient_variance(DualPoint(1.0, 0.0, 0.0), BERNOULLI, HALF, A_HALF, 0.5)


def test_kl_gradient_raises_where_the_conjugate_expectation_overflows():
    # E_P[f*] = exp(log E_P[exp(args)] - 1) with args = (u - beta)/lam up to
    # 1000, past exp's float range
    data = ProblemData(rho=np.array([1.0, 0.0]), phi=np.zeros(2))
    with pytest.raises(DerivativeUnavailable, match="overflows"):
        gradient_variance(DualPoint(1e-3, 0.0, 0.0), data, HALF, KL, 0.1)


@pytest.mark.parametrize("fam", [KL, A2, A_HALF], ids=lambda f: f.label)
def test_gradient_raises_at_lam_zero(fam):
    # J is +inf on one side of lam = 0, so it has no gradient there
    with pytest.raises(DerivativeUnavailable):
        gradient_variance(DualPoint(0.0, 1.0, 0.0), BERNOULLI, HALF, fam, 0.5)


# ---------------------------------------------------------------------------
# joint convexity (midpoint form)


@pytest.mark.parametrize("fam", [KL, A2, A_HALF], ids=lambda f: f.label)
def test_midpoint_convexity(fam):
    rng = np.random.default_rng(29)
    eta = 0.25
    checked = 0
    while checked < 50:
        data, p = random_instance(rng, 3)
        x = (rng.uniform(0.2, 3.0), rng.normal(scale=2.0), rng.normal())
        y = (rng.uniform(0.2, 3.0), rng.normal(scale=2.0), rng.normal())
        mid = tuple((a + b) / 2.0 for a, b in zip(x, y))
        vals = [
            dual_objective_variance(DualPoint(*pt), data, p, fam, eta)
            for pt in (x, y, mid)
        ]
        if not all(map(math.isfinite, vals)):
            continue
        assert vals[2] <= (vals[0] + vals[1]) / 2.0 + 1e-9
        checked += 1


# ---------------------------------------------------------------------------
# tilts and diagnostics


def test_tilt_of_constant_integrand_is_p():
    data = ProblemData(rho=np.ones(3), phi=np.zeros(3))
    p = EmpiricalMeasure(np.array([0.2, 0.3, 0.5]))
    t = tilt(DualPoint(1.0, 0.0, 0.0), data, p, KL)
    np.testing.assert_array_equal(t, p.weights)


def test_tilt_zeroes_negative_arguments_for_alpha_above_one():
    data = ProblemData(rho=np.array([-1.0, 1.0]), phi=np.zeros(2))
    t = tilt(DualPoint(1.0, 0.0, 0.0), data, HALF, A2)
    assert t[0] == 0.0
    assert t[1] == pytest.approx(0.5)


def test_tilt_raises_outside_domain():
    with pytest.raises(ValidationError):
        tilt(DualPoint(1.0, 0.0, 0.0), BERNOULLI, HALF, A_HALF)


@pytest.mark.parametrize("fam", [KL, A2, A_HALF], ids=lambda f: f.label)
def test_tilt_at_lam_zero_conditions_p_on_the_top_atoms(fam):
    # u = rho at nu = 0 with phi = 0: atoms 1 and 3 tie at the top
    data = ProblemData(rho=np.array([2.0, -1.0, 2.0]), phi=np.zeros(3))
    p = EmpiricalMeasure(np.array([0.2, 0.3, 0.5]))
    t = tilt(DualPoint(0.0, 2.0, 0.0), data, p, fam)
    np.testing.assert_array_equal(t, [0.2 / 0.7, 0.0, 0.5 / 0.7])
    diag = optimality_diagnostics(DualPoint(0.0, 2.0, 0.0), data, p, fam)
    assert diag.normalization == pytest.approx(1.0, abs=1e-15)
    assert diag.achieved_divergence == pytest.approx(
        0.7 * f_eval(fam, 1.0 / 0.7) + 0.3 * f_eval(fam, 0.0), rel=1e-14)
    # no atom reaches beta, or one passes it
    for beta in (2.5, 1.0):
        with pytest.raises(ValidationError):
            tilt(DualPoint(0.0, beta, 0.0), data, p, fam)


def test_diagnostics_at_a_stationary_point():
    # constant integrand, beta chosen so the conjugate argument is the
    # derivative fixed point: the tilt is exactly p
    data = ProblemData(rho=np.full(2, 2.0), phi=np.zeros(2))
    diag = optimality_diagnostics(DualPoint(1.0, 1.0, 0.0), data, HALF, KL)
    assert diag.normalization == pytest.approx(1.0, abs=1e-15)
    assert diag.achieved_divergence == pytest.approx(0.0, abs=1e-15)
    assert diag.mean_condition_gap == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("family, n", [
    pytest.param(f, n, id=f.label if n == 1000 else f"{f.label}-n{n}")
    for n in (1000, 100_000) for f in (KL, A2, A_HALF)
])
def test_diagnostics_sums_match_list_sums(family, n):
    # the certificate's exact sums equal math.fsum of the same doubles as a
    # list, field by field, at the fast path's crossover and far past it
    rng = np.random.default_rng(17)
    data, p = random_instance(rng, n)
    dp = DualPoint(2.0, float(np.max(data.psi)) + 1.0, 0.3)
    diag = optimality_diagnostics(dp, data, p, family)
    t = tilt(dp, data, p, family)
    dens = t / p.weights
    assert diag.normalization == math.fsum(t.tolist())
    assert diag.achieved_divergence == math.fsum(
        (p.weights * f_eval(family, dens)).tolist()
    )
    assert diag.mean_condition_gap == math.fsum((t * data.phi).tolist()) - 0.15
