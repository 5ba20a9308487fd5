"""Generator families: parsing, f / f* / (f*)' values, and conjugate laws."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drovar.divergences import (
    ALPHA_MAX,
    FDivergenceFamily,
    alpha_family,
    conj_deriv,
    conj_eval,
    f_eval,
    kl_family,
    parse_family,
)
from drovar.errors import ValidationError
from drovar.measures import ProblemData, uniform_measure
from drovar.solver import variance_bound

FAMILIES = [kl_family(), alpha_family(2.0), alpha_family(0.5)]


def finite_reals(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# parsing and construction


@pytest.mark.parametrize(
    "spec, kind, alpha",
    [
        ("kl", "kl", None),
        ("KL", "kl", None),
        (" kl ", "kl", None),
        ("alpha:2", "alpha", 2.0),
        ("Alpha:0.5", "alpha", 0.5),
        ("alpha:8", "alpha", 8.0),
    ],
)
def test_parse_family_accepts(spec, kind, alpha):
    fam = parse_family(spec)
    assert fam.kind == kind
    assert fam.alpha == alpha


def test_parse_family_round_trips_via_label():
    for fam in FAMILIES:
        again = parse_family(fam.label)
        assert again == fam


@pytest.mark.parametrize(
    "spec",
    ["", "kl:1", "alpha", "alpha:", "alpha:x", "beta:2",
     "alpha:1", "alpha:0", "alpha:-1", "alpha:8.5"],
)
def test_parse_family_rejects(spec):
    with pytest.raises(ValidationError):
        parse_family(spec)


def test_alpha_family_bounds():
    assert alpha_family(ALPHA_MAX).alpha == ALPHA_MAX
    with pytest.raises(ValidationError):
        alpha_family(1.0)
    with pytest.raises(ValidationError):
        FDivergenceFamily(kind="hellinger")


def test_divergence_cap():
    assert alpha_family(0.5).divergence_cap == 4.0
    # the cap follows from kind and alpha, however the family is built
    assert FDivergenceFamily(kind="alpha", alpha=0.5).divergence_cap == 4.0
    assert math.isinf(kl_family().divergence_cap)
    assert math.isinf(alpha_family(2.0).divergence_cap)


def test_family_is_kind_and_alpha():
    assert [f.name for f in dataclasses.fields(FDivergenceFamily)] == ["kind", "alpha"]
    assert FDivergenceFamily(kind="alpha", alpha=0.5) == alpha_family(0.5)


@pytest.mark.parametrize("parameterization", ["auto", "generic"])
def test_radius_beyond_the_derived_cap_is_rejected(parameterization):
    family = FDivergenceFamily(kind="alpha", alpha=0.5)
    data = ProblemData(rho=np.zeros(2), phi=np.array([0.0, 1.0]))
    with pytest.raises(ValidationError):
        variance_bound(data, uniform_measure(2), family, 10.0,
                       parameterization=parameterization)


# ---------------------------------------------------------------------------
# pointwise values


def test_f_eval_known_values():
    kl = kl_family()
    assert f_eval(kl, 1.0) == 0.0
    assert f_eval(kl, 0.0) == 0.0  # lsc limit of t*log(t)
    assert f_eval(kl, 2.0) == pytest.approx(2.0 * math.log(2.0), abs=1e-15)
    assert math.isinf(f_eval(kl, -0.5))

    a2 = alpha_family(2.0)
    assert f_eval(a2, 1.0) == 0.0
    assert f_eval(a2, 0.0) == -0.5
    assert f_eval(a2, 3.0) == pytest.approx(4.0)

    a_half = alpha_family(0.5)
    assert f_eval(a_half, 1.0) == 0.0
    assert f_eval(a_half, 0.0) == pytest.approx(4.0)
    assert f_eval(a_half, 4.0) == pytest.approx(-4.0)


def test_conj_known_values():
    kl = kl_family()
    assert conj_eval(kl, 1.0) == 1.0
    assert conj_eval(kl, 0.0) == pytest.approx(math.exp(-1.0))
    assert conj_deriv(kl, 1.0) == 1.0
    assert math.isinf(conj_eval(kl, 800.0))

    a2 = alpha_family(2.0)
    assert conj_eval(a2, -3.0) == 0.5  # constant below zero
    assert conj_eval(a2, 2.0) == pytest.approx(2.5)
    assert conj_deriv(a2, 0.0) == 0.0  # right derivative at the kink
    assert conj_deriv(a2, 2.0) == pytest.approx(2.0)

    a_half = alpha_family(0.5)
    assert conj_eval(a_half, -1.0) == pytest.approx(0.0, abs=1e-15)
    assert math.isinf(conj_eval(a_half, 0.0))
    assert math.isinf(conj_eval(a_half, 0.1))
    assert conj_deriv(a_half, -0.5) == pytest.approx(16.0)


def test_scalar_in_float_out_array_in_array_out():
    for fam in FAMILIES:
        assert isinstance(conj_eval(fam, -0.5), float)
        assert isinstance(conj_deriv(fam, -0.5), float)
        assert isinstance(f_eval(fam, 0.5), float)
        arr = conj_eval(fam, np.array([-2.0, -1.0, -0.5]))
        assert isinstance(arr, np.ndarray) and arr.shape == (3,)


# Negative, zero, positive and overflowing entries in one array: the array
# paths evaluate every entry and then patch the ones outside the domain.
MIXED = np.array([
    -np.inf, -1e300, -800.0, -3.0, -0.5, -1e-310, -0.0, 0.0, 1e-310,
    0.25, 1.0, 3.0, 701.0, 701.5, 800.0, 1e200, np.inf,
])


@pytest.mark.parametrize("fn", [f_eval, conj_eval, conj_deriv], ids=lambda f: f.__name__)
@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.label)
def test_array_path_matches_scalar_path_elementwise(fam, fn):
    out = fn(fam, MIXED)
    assert out.shape == MIXED.shape
    assert not np.isnan(out).any()
    np.testing.assert_array_equal(out, [fn(fam, float(v)) for v in MIXED])
    # the same entries in reverse order: no entry's value depends on another's
    np.testing.assert_array_equal(fn(fam, MIXED[::-1]), out[::-1])


def test_array_paths_give_extended_real_values():
    kl, a2, a_half = FAMILIES
    inf = math.inf
    t = np.array([-1.0, 0.0, 2.0, 1e200])
    np.testing.assert_allclose(f_eval(kl, t), [inf, 0.0, 2.0 * math.log(2.0), 1e200 * math.log(1e200)])
    np.testing.assert_allclose(f_eval(a2, t), [inf, -0.5, 1.5, inf])
    np.testing.assert_allclose(f_eval(a_half, t),
                               [inf, 4.0, (math.sqrt(2.0) - 1.0) / -0.25, (1e100 - 1.0) / -0.25])

    y = np.array([-2.0, 0.0, 2.0, 700.0, 702.0, 1e200])
    np.testing.assert_allclose(conj_eval(kl, y),
                               [math.exp(-3.0), math.exp(-1.0), math.e, math.exp(699.0), inf, inf])
    np.testing.assert_allclose(conj_deriv(kl, y),
                               [math.exp(-3.0), math.exp(-1.0), math.e, math.exp(699.0), inf, inf])
    np.testing.assert_allclose(conj_eval(a2, y), [0.5, 0.5, 2.5, 245000.5, 246402.5, inf])
    np.testing.assert_allclose(conj_deriv(a2, y), [0.0, 0.0, 2.0, 700.0, 702.0, 1e200])
    np.testing.assert_allclose(conj_eval(a_half, y), [-2.0, inf, inf, inf, inf, inf])
    np.testing.assert_allclose(conj_deriv(a_half, y), [1.0, inf, inf, inf, inf, inf])
    tiny = np.array([-1e-310])  # (f*)' = (y/2)^-2 overflows just below zero
    assert conj_deriv(a_half, tiny)[0] == inf
    assert conj_eval(a_half, tiny)[0] == inf


# ---------------------------------------------------------------------------
# conjugate laws, checked against a brute-force grid


def _grid_sup(fam, y, t_grid, f_vals):
    return float(np.max(t_grid * y - f_vals))


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.label)
def test_conjugate_matches_brute_force_grid(fam):
    t_grid = np.concatenate([[0.0], np.logspace(-8, 4, 200_001)])
    f_vals = f_eval(fam, t_grid)
    ys = np.linspace(-20.0, 5.0, 41)
    if fam.kind == "alpha" and fam.alpha < 1.0:
        ys = np.linspace(-20.0, -0.05, 41)
    for y in ys:
        exact = conj_eval(fam, float(y))
        brute = _grid_sup(fam, float(y), t_grid, f_vals)
        assert brute <= exact + 1e-12
        assert exact - brute <= 2e-5


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.label)
def test_conjugate_monotone_and_dominates_identity(fam):
    ys = np.linspace(-30.0, 6.0, 500)
    vals = conj_eval(fam, ys)
    derivs = conj_deriv(fam, ys)
    assert np.all(vals >= ys)  # Fenchel at t = 1, since f(1) = 0
    finite = np.isfinite(vals)
    assert np.all(np.diff(vals[finite]) >= 0.0)
    assert np.all(derivs[np.isfinite(derivs)] >= 0.0)


@settings(max_examples=200, deadline=None)
@given(t=finite_reals(0.0, 50.0), y=finite_reals(-30.0, 6.0))
def test_fenchel_young_inequality(t, y):
    for fam in FAMILIES:
        fv = f_eval(fam, t)
        cv = conj_eval(fam, y)
        if math.isinf(cv):
            continue
        assert fv + cv >= t * y - 1e-9 * (1.0 + abs(t * y))


@settings(max_examples=200, deadline=None)
@given(y=finite_reals(-30.0, 6.0))
def test_deriv_attains_fenchel_equality(y):
    # t* = (f*)'(y) turns Fenchel-Young into an equality
    for fam in FAMILIES:
        cv = conj_eval(fam, y)
        if math.isinf(cv):
            continue
        t_star = conj_deriv(fam, y)
        if not math.isfinite(t_star):
            continue  # overflow of dQ/dP just inside the domain edge
        gap = f_eval(fam, t_star) + cv - t_star * y
        assert abs(gap) <= 1e-9 * (1.0 + abs(cv) + abs(t_star * y))
