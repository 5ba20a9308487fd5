"""Measures, problem data, divergences between measures, and the variational gap."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drovar.divergences import alpha_family, f_eval, kl_family
from drovar.errors import ValidationError
from drovar.measures import (
    EmpiricalMeasure,
    ProblemData,
    check_lengths,
    divergence_of,
    mean_var_of,
    normalize,
    uniform_measure,
    variational_gap,
)

FAMILIES = [kl_family(), alpha_family(2.0), alpha_family(0.5)]


def weight_vectors(n_max=5):
    return st.lists(
        st.floats(min_value=0.05, max_value=1.0), min_size=2, max_size=n_max
    ).map(lambda ws: np.array(ws) / sum(ws))


# ---------------------------------------------------------------------------
# construction


def test_measure_accepts_simple_weights():
    m = EmpiricalMeasure(weights=np.array([0.25, 0.75]))
    assert len(m) == 2
    assert m.weights.flags.writeable is False


@pytest.mark.parametrize(
    "weights",
    [[0.5, 0.5, 0.1], [0.0, 1.0], [-0.2, 1.2], [0.5, np.nan], [0.5, np.inf], []],
)
def test_measure_rejects_bad_weights(weights):
    with pytest.raises(ValidationError):
        EmpiricalMeasure(weights=np.array(weights, dtype=float))


def test_uniform_measure():
    m = uniform_measure(4)
    np.testing.assert_allclose(m.weights, 0.25)
    with pytest.raises(ValidationError):
        uniform_measure(0)


def test_normalize_drops_zero_atoms():
    m, dropped = normalize([1.0, 0.0, 3.0])
    np.testing.assert_allclose(m.weights, [0.25, 0.75])
    assert dropped == [1]


def test_normalize_tightens_the_sum():
    raw = np.full(7, 0.1)
    m, dropped = normalize(raw)
    assert dropped == []
    assert abs(math.fsum(m.weights.tolist()) - 1.0) <= 1e-15


@pytest.mark.parametrize("raw", [[], [0.0, 0.0], [1.0, -0.5], [1.0, np.inf]])
def test_normalize_rejects(raw):
    with pytest.raises(ValidationError):
        normalize(raw)


def test_problem_data_validates_lengths():
    data = ProblemData(rho=np.array([1.0, 2.0]), phi=np.array([0.0, 1.0]))
    np.testing.assert_allclose(data.psi, [1.0, 3.0])
    assert len(data) == 2
    with pytest.raises(ValidationError):
        ProblemData(rho=np.array([1.0, 2.0]), phi=np.array([0.0]))
    with pytest.raises(ValidationError):
        check_lengths(data, uniform_measure(3))


# ---------------------------------------------------------------------------
# divergences between measures


def test_divergence_known_values():
    q = EmpiricalMeasure(np.array([0.3, 0.7]))
    p = uniform_measure(2)
    assert divergence_of(q, p, kl_family()) == pytest.approx(
        0.08228287850505178, abs=1e-15
    )
    assert divergence_of(q, p, alpha_family(2.0)) == pytest.approx(0.08, abs=1e-15)
    assert divergence_of(p, p, kl_family()) == 0.0


def test_divergence_is_positive_away_from_p():
    q = EmpiricalMeasure(np.array([0.9, 0.1]))
    p = uniform_measure(2)
    for fam in FAMILIES:
        assert divergence_of(q, p, fam) > 0.0


def test_divergence_stays_below_alpha_cap():
    fam = alpha_family(0.5)
    q = EmpiricalMeasure(np.array([1.0 - 1e-9, 1e-9]))
    p = uniform_measure(2)
    assert divergence_of(q, p, fam) < fam.divergence_cap


# ---------------------------------------------------------------------------
# moments


def test_mean_var_known_values():
    m = EmpiricalMeasure(np.array([0.7, 0.3]))
    mean, var = mean_var_of(m, [0.0, 1.0])
    assert mean == pytest.approx(0.3, abs=1e-15)
    assert var == pytest.approx(0.21, abs=1e-15)


def test_mean_var_rejects_bad_values():
    m = uniform_measure(2)
    with pytest.raises(ValidationError):
        mean_var_of(m, [1.0])
    with pytest.raises(ValidationError):
        mean_var_of(m, [1.0, np.nan])


def _buffer_cases():
    rng = np.random.default_rng(5)
    strided = rng.standard_normal(300)[::3]
    frozen = rng.uniform(-1.0, 1.0, 101)
    frozen.flags.writeable = False
    extreme = np.array([1e308, -1e308, 1e-308, 5e-324, 1.0, -1e-300, 1e300, -1e300, 3.0])
    return [strided, frozen, extreme, extreme[::-2]]


@pytest.mark.parametrize("values", _buffer_cases())
def test_compensated_sums_over_buffers_match_lists(values):
    # the library sums through memoryview(a), which must give the same
    # doubles as a.tolist() in the same order, whatever the strides and flags
    fsum_list = lambda a: math.fsum(a.tolist())
    assert math.fsum(memoryview(values)) == fsum_list(values)
    p = uniform_measure(values.size)
    v = np.clip(values, -1e150, 1e150)
    mean = fsum_list(p.weights * v)
    assert mean_var_of(p, v) == (mean, fsum_list(p.weights * (v - mean) ** 2))
    raw = np.exp(np.clip(values, -30.0, 30.0))
    q, _ = normalize(raw)
    kept = raw / fsum_list(raw)
    np.testing.assert_array_equal(q.weights, kept / fsum_list(kept))
    for fam in FAMILIES:
        expected = fsum_list(p.weights * f_eval(fam, q.weights / p.weights))
        assert divergence_of(q, p, fam) == expected


# ---------------------------------------------------------------------------
# the variational gap E_Q[g] - E_P[f*(g)]


def test_gap_at_zero_is_minus_conj_at_zero():
    q = EmpiricalMeasure(np.array([0.3, 0.7]))
    p = uniform_measure(2)
    assert variational_gap([0.0, 0.0], q, p, kl_family()) == pytest.approx(
        -math.exp(-1.0), abs=1e-15
    )


def test_gap_is_tight_at_the_log_density():
    q = EmpiricalMeasure(np.array([0.3, 0.7]))
    p = EmpiricalMeasure(np.array([0.5, 0.5]))
    g = 1.0 + np.log(q.weights / p.weights)
    gap = variational_gap(g, q, p, kl_family())
    assert gap == pytest.approx(divergence_of(q, p, kl_family()), abs=1e-12)


def test_gap_is_minus_inf_outside_domain():
    q = EmpiricalMeasure(np.array([0.3, 0.7]))
    p = uniform_measure(2)
    # alpha < 1 conjugate is +inf at nonnegative arguments
    assert variational_gap([0.5, -1.0], q, p, alpha_family(0.5)) == -math.inf


@settings(max_examples=150, deadline=None)
@given(
    qw=weight_vectors(4),
    pw=weight_vectors(4),
    scale=st.floats(min_value=0.1, max_value=3.0),
)
def test_gap_never_exceeds_divergence(qw, pw, scale):
    n = min(len(qw), len(pw))
    q = EmpiricalMeasure(weights=np.asarray(qw[:n]) / np.sum(qw[:n]))
    p = EmpiricalMeasure(weights=np.asarray(pw[:n]) / np.sum(pw[:n]))
    rng = np.random.default_rng(int(scale * 1000))
    for fam in FAMILIES:
        g = rng.uniform(-2.0, 2.0, size=n) * scale
        if fam.kind == "alpha" and fam.alpha < 1.0:
            g = -np.abs(g) - 0.05
        gap = variational_gap(g, q, p, fam)
        assert gap <= divergence_of(q, p, fam) + 1e-9
