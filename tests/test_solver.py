"""Dual solves: configuration, the bound front ends, and the symmetries the math guarantees."""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drovar.divergences import alpha_family, kl_family
from drovar.errors import ValidationError
from drovar.measures import (
    EmpiricalMeasure,
    ProblemData,
    mean_var_of,
    normalize,
    uniform_measure,
)
from drovar.solver import (
    BOUNDARY_LAMBDA,
    CONVERGED,
    MAX_ITERS,
    SolverConfig,
    mean_bound,
    variance_bound,
)

from _instances import random_instance

KL = kl_family()
A2 = alpha_family(2.0)
A_HALF = alpha_family(0.5)

BERNOULLI = ProblemData(rho=np.zeros(2), phi=np.array([0.0, 1.0]))
HALF = uniform_measure(2)
SKEWED = EmpiricalMeasure(np.array([0.8, 0.2]))


# ---------------------------------------------------------------------------
# configuration


def test_config_defaults():
    cfg = SolverConfig()
    assert cfg.grad_tol == 1e-9
    assert cfg.max_iters == 10000
    assert cfg.lambda_floor == 1e-12


@pytest.mark.parametrize(
    "kwargs",
    [
        {"grad_tol": 0.0},
        {"grad_tol": 1e-2},
        {"max_iters": 0},
        {"lambda_floor": 0.0},
        {"lambda_floor": 1e-5},
    ],
)
def test_config_rejects(kwargs):
    with pytest.raises(ValidationError):
        SolverConfig(**kwargs)


# ---------------------------------------------------------------------------
# solved bounds on instances with known answers


def test_interior_maximum_pins_lambda():
    # sup Var_Q over a KL ball around the symmetric Bernoulli: the
    # unconstrained maximizer is p itself, so the radius never binds and the
    # dual infimum sits on the lam -> 0 wall
    res = variance_bound(BERNOULLI, HALF, KL, 0.1)
    assert res.status == BOUNDARY_LAMBDA
    assert res.value == pytest.approx(0.25, abs=1e-4)
    assert res.diagnostics.boundary_flag is True


def test_kl_bound_binding_radius():
    res = variance_bound(BERNOULLI, SKEWED, KL, 0.1)
    assert res.status == CONVERGED
    assert res.value == pytest.approx(0.23901920393278797, abs=1e-7)
    assert abs(res.diagnostics.normalization - 1.0) <= 1e-6
    assert abs(res.diagnostics.achieved_divergence - 0.1) <= 1e-5
    assert abs(res.diagnostics.mean_condition_gap) <= 1e-6


def test_alpha_two_bound():
    res = variance_bound(BERNOULLI, SKEWED, A2, 0.08)
    assert res.value == pytest.approx(0.2304, abs=1e-6)


def test_alpha_half_bound_binding_and_vacuous():
    res = variance_bound(BERNOULLI, SKEWED, A_HALF, 0.1)
    assert res.status == CONVERGED
    assert res.value == pytest.approx(0.24058028643268625, abs=1e-7)
    # past 4 - 2*sqrt(2) the ball swallows the unconstrained maximizer
    wide = variance_bound(BERNOULLI, HALF, A_HALF, 1.3)
    assert wide.status == BOUNDARY_LAMBDA
    assert wide.value == pytest.approx(0.25, abs=1e-4)


def test_mean_bound_values():
    res = mean_bound([0.0, 1.0], HALF, KL, 0.1)
    assert res.value == pytest.approx(0.7197946261614097, abs=1e-7)
    assert res.dual_point.nu == 0.0
    assert res.diagnostics.mean_condition_gap == 0.0


def test_mean_bound_of_a_constant():
    res = mean_bound([2.2, 2.2, 2.2], uniform_measure(3), KL, 0.1)
    assert res.value == pytest.approx(2.2, abs=1e-6)
    assert res.status == BOUNDARY_LAMBDA


@pytest.mark.parametrize("fam", [KL, A2, A_HALF], ids=["kl", "alpha:2", "alpha:0.5"])
def test_spent_budget_is_max_iters_and_still_a_bound(fam):
    full = variance_bound(BERNOULLI, SKEWED, fam, 0.1)
    cut = variance_bound(BERNOULLI, SKEWED, fam, 0.1, config=SolverConfig(max_iters=2))
    assert cut.status == MAX_ITERS
    assert cut.value >= full.value - 1e-12


def test_variance_bound_validates_inputs():
    with pytest.raises(ValidationError):
        variance_bound(BERNOULLI, uniform_measure(3), KL, 0.1)
    with pytest.raises(ValidationError):
        variance_bound(BERNOULLI, HALF, KL, -0.1)
    with pytest.raises(ValidationError):
        variance_bound(BERNOULLI, HALF, A_HALF, 4.2)  # above the cap
    with pytest.raises(ValidationError):
        variance_bound(BERNOULLI, HALF, KL, 0.1, parameterization="fancy")


# ---------------------------------------------------------------------------
# structural identities


def test_zero_phi_reduces_to_mean_bound():
    rng = np.random.default_rng(31)
    for fam in (KL, A2, A_HALF):
        for _ in range(4):
            data, p = random_instance(rng, 3)
            flat = ProblemData(rho=data.rho, phi=np.zeros(3))
            v = variance_bound(flat, p, fam, 0.2).value
            m = mean_bound(data.rho, p, fam, 0.2).value
            assert abs(v - m) <= 1e-8


@pytest.mark.parametrize(
    "fam, tol", [(KL, 1e-7), (A2, 1e-6), (A_HALF, 1e-6)],
    ids=["kl", "alpha:2", "alpha:0.5"],
)
def test_reduced_and_generic_parameterizations_agree(fam, tol):
    rng = np.random.default_rng(37)
    for _ in range(8):
        data, p = random_instance(rng, rng.integers(2, 4))
        auto = variance_bound(data, p, fam, 0.2).value
        generic = variance_bound(data, p, fam, 0.2, parameterization="generic").value
        assert abs(auto - generic) <= tol


def test_translation_covariance_in_rho():
    rng = np.random.default_rng(41)
    data, p = random_instance(rng, 3)
    base = variance_bound(data, p, KL, 0.2).value
    shifted = ProblemData(rho=data.rho + 3.7, phi=data.phi)
    assert variance_bound(shifted, p, KL, 0.2).value == pytest.approx(
        base + 3.7, abs=1e-8
    )


def test_shift_invariance_in_phi():
    rng = np.random.default_rng(43)
    data, p = random_instance(rng, 3)
    for fam in (KL, A2):
        base = variance_bound(data, p, fam, 0.2).value
        shifted = ProblemData(rho=data.rho, phi=data.phi - 1.3)
        assert variance_bound(shifted, p, fam, 0.2).value == pytest.approx(
            base, abs=1e-8
        )


def test_bound_grows_with_eta_and_dominates_nominal():
    rng = np.random.default_rng(47)
    data, p = random_instance(rng, 3)
    mean_p, var_p = mean_var_of(p, data.rho)
    _, var_phi = mean_var_of(p, data.phi)
    nominal = mean_p + var_phi
    for fam in (KL, A2, A_HALF):
        prev = -math.inf
        for eta in np.linspace(0.05, 0.9, 8):
            val = variance_bound(data, p, fam, float(eta)).value
            assert val >= nominal - 1e-8
            # monotone up to solver noise at the gradient-tolerance scale
            assert val >= prev - 1e-8
            prev = val


def test_repeated_solves_are_bit_identical():
    rng = np.random.default_rng(53)
    data, p = random_instance(rng, 3)
    a = variance_bound(data, p, KL, 0.3)
    b = variance_bound(data, p, KL, 0.3)
    assert a.value == b.value
    assert a.dual_point == b.dual_point
    assert a.status == b.status
    np.testing.assert_array_equal(a.tilt.weights, b.tilt.weights)


def test_status_strings():
    assert CONVERGED == "Converged"
    assert BOUNDARY_LAMBDA == "BoundaryLambda"
    assert MAX_ITERS == "MaxIters"


def test_import_pulls_in_no_scipy():
    code = (
        "import sys, drovar, drovar.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# symmetries of the bound, on small instances drawn by hypothesis

FAMILY_CASES = pytest.mark.parametrize(
    "fam", [KL, A2, A_HALF], ids=["kl", "alpha:2", "alpha:0.5"]
)
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
_unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def instances(draw):
    n = draw(st.integers(2, 6))
    rho = np.array(draw(st.lists(_unit, min_size=n, max_size=n)))
    phi = np.array(draw(st.lists(_unit, min_size=n, max_size=n)))
    w = draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n))
    eta = draw(st.sampled_from([0.05, 0.2, 0.5]))
    p, _ = normalize(w)
    return ProblemData(rho=rho, phi=phi), p, eta


def _close(a, b, slack=0.0):
    return abs(a - b) <= 1e-9 * (1.0 + abs(b) + slack)


@FAMILY_CASES
@PROPERTY_SETTINGS
@given(inst=instances())
def test_joint_scaling_multiplies_the_bound(fam, inst):
    # (c*rho, sqrt(c)*phi) scales E_Q[rho] + Var_Q[phi] by c for every Q
    data, p, eta = inst
    base = variance_bound(data, p, fam, eta)
    for c in (1e-6, 1e6):
        scaled = ProblemData(rho=c * data.rho, phi=math.sqrt(c) * data.phi)
        res = variance_bound(scaled, p, fam, eta)
        assert _close(res.value / c, base.value)
        assert res.status == base.status


@FAMILY_CASES
@PROPERTY_SETTINGS
@given(inst=instances(), shift=st.floats(-5.0, 5.0))
def test_shifting_rho_shifts_the_bound(fam, inst, shift):
    data, p, eta = inst
    base = variance_bound(data, p, fam, eta).value
    moved = ProblemData(rho=data.rho + shift, phi=data.phi)
    assert _close(variance_bound(moved, p, fam, eta).value, base + shift, abs(shift))


@FAMILY_CASES
@PROPERTY_SETTINGS
@given(inst=instances(), seed=st.integers(0, 2**32 - 1))
def test_permuting_atoms_keeps_the_bound(fam, inst, seed):
    data, p, eta = inst
    order = np.random.default_rng(seed).permutation(len(p))
    permuted = ProblemData(rho=data.rho[order], phi=data.phi[order])
    q = EmpiricalMeasure(p.weights[order])
    assert _close(variance_bound(permuted, q, fam, eta).value,
                  variance_bound(data, p, fam, eta).value)


@FAMILY_CASES
@PROPERTY_SETTINGS
@given(inst=instances(), pick=st.integers(0, 5))
def test_splitting_an_atom_keeps_the_bound(fam, inst, pick):
    data, p, eta = inst
    j = pick % len(p)
    rho = np.append(data.rho, data.rho[j])
    phi = np.append(data.phi, data.phi[j])
    w = np.append(p.weights, p.weights[j] / 2.0)
    w[j] /= 2.0
    split, _ = normalize(w)
    assert _close(variance_bound(ProblemData(rho=rho, phi=phi), split, fam, eta).value,
                  variance_bound(data, p, fam, eta).value)
