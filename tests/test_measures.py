"""Measures, problem data, divergences between measures, and the variational gap."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drovar.divergences import alpha_family, conj_eval, f_eval, kl_family
from drovar.errors import ValidationError
from drovar.measures import (
    _FAST_SUM_MIN,
    EmpiricalMeasure,
    ProblemData,
    _exact_sum,
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


def test_measure_reports_an_overflowing_sum_as_a_bad_sum():
    with pytest.raises(ValidationError, match="weights must sum to 1 within 1e-12"):
        EmpiricalMeasure(weights=np.array([1e308, 1e308]))


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


def test_normalize_scales_by_the_largest_weight_when_the_sum_overflows():
    scaled = np.array([1.0, 0.5, 0.25, 1.0])  # exact powers of two apart
    m, dropped = normalize(1e308 * scaled)
    assert dropped == []
    np.testing.assert_array_equal(m.weights, normalize(scaled)[0].weights)


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
    small = [strided, frozen, extreme, extreme[::-2]]
    # the same doubles in strided and read-only views past the crossover of
    # the fast exact sum, and a strided view of 10^5 atoms; entries beyond
    # 1e290 are clamped to it, inside the fast path's range, since copies of
    # +-1e308 would overflow fsum's partial sums
    large = []
    for values in small:
        values = np.where(np.abs(values) > 1e290, np.sign(values) * 1e290, values)
        tiled = np.tile(values, 3 * (_FAST_SUM_MIN // values.size + 1))
        tiled.flags.writeable = False
        large += [tiled[::3], tiled[::-2]]
    return small + large + [rng.standard_normal(300_000)[::3]]


def _fsum_list(x):
    return math.fsum(x.tolist())


def _sums_match_lists(values):
    # every sum of the library equals math.fsum of the same doubles as a list,
    # whatever the strides and flags of the array
    assert math.fsum(memoryview(values)) == _fsum_list(values)
    assert _exact_sum(values) == _fsum_list(values)
    p = uniform_measure(values.size)
    v = np.clip(values, -1e150, 1e150)
    mean = _fsum_list(p.weights * v)
    assert mean_var_of(p, v) == (mean, _fsum_list(p.weights * (v - mean) ** 2))
    raw = np.exp(np.clip(values, -30.0, 30.0))
    q, _ = normalize(raw)
    kept = raw / _fsum_list(raw)
    np.testing.assert_array_equal(q.weights, kept / _fsum_list(kept))
    for fam in FAMILIES:
        expected = _fsum_list(p.weights * f_eval(fam, q.weights / p.weights))
        assert divergence_of(q, p, fam) == expected
    g = np.clip(values, -0.5, 0.5)
    assert variational_gap(g, q, p, FAMILIES[0]) == (
        _fsum_list(q.weights * g) - _fsum_list(p.weights * conj_eval(FAMILIES[0], g)))


@pytest.mark.parametrize("values", _buffer_cases())
def test_compensated_sums_over_buffers_match_lists(values):
    _sums_match_lists(values)


def _fsum_outcome(total, x):
    """repr of the sum (so -0.0 and nan compare), or the error it raised."""
    try:
        return repr(total(x))
    except (ValueError, OverflowError) as err:
        return type(err), str(err)


def _exact_sum_cases():
    rng = np.random.default_rng(31)
    cases = {}
    for n in (_FAST_SUM_MIN - 1, _FAST_SUM_MIN, 4 * _FAST_SUM_MIN + 3):
        m = (n + 1).bit_length()
        edge = math.ldexp(1.0, 1000 - m)
        half = n // 2
        pairs = rng.standard_normal(half) * 1e10
        cancel = np.concatenate([pairs, -pairs, rng.standard_normal(n - 2 * half)])
        # exact ties: 1 + 2^-53 rounds down to even, (1 + 2^-52) + 2^-53 up
        tie_down = np.concatenate([[1.0, 2.0**-53], pairs[: (n - 2) // 2],
                                   -pairs[: (n - 2) // 2]])
        tie_up = tie_down.copy()
        tie_up[0] = 1.0 + 2.0**-52
        subnormal = rng.integers(-1000, 1000, n) * 5e-324
        subnormal[:3] = (1.0, -1.0, 2.0**-1022)
        mixed = rng.standard_normal(n) * 2.0 ** rng.integers(-1074, 1000 - m, n)
        at_edge = rng.uniform(-1.0, 1.0, n) * edge
        at_edge[0] = edge
        past_edge = at_edge.copy()
        past_edge[0] = math.nextafter(edge, math.inf)
        cases.update({
            f"normal-{n}": rng.standard_normal(n),
            f"cancelling-{n}": cancel,
            f"tie-down-{n}": tie_down,
            f"tie-up-{n}": tie_up,
            f"subnormal-{n}": subnormal,
            f"mixed-scale-{n}": mixed,
            f"times-1e300-{n}": rng.standard_normal(n) * 1e300,
            f"times-1e-300-{n}": rng.standard_normal(n) * 1e-300,
            f"dirichlet-{n}": rng.dirichlet(np.ones(n)),
            f"at-edge-{n}": at_edge,
            f"past-edge-{n}": past_edge,
            f"zeros-{n}": np.where(rng.random(n) < 0.5, -0.0, 0.0),
            f"negative-zeros-{n}": np.full(n, -0.0),
        })
    return cases


EXACT_SUM_CASES = _exact_sum_cases()


@pytest.mark.parametrize("values", EXACT_SUM_CASES.values(), ids=EXACT_SUM_CASES.keys())
def test_exact_sum_is_fsum(values):
    rng = np.random.default_rng(values.size)
    expected = _fsum_outcome(_fsum_list, values)
    for x in (values, values[::-1], rng.permutation(values)):
        assert _fsum_outcome(_exact_sum, x) == expected


@pytest.mark.parametrize("n", [_FAST_SUM_MIN - 1, 2 * _FAST_SUM_MIN])
@pytest.mark.parametrize("bad", [[math.nan], [math.inf], [-math.inf], [math.inf, -math.inf],
                                 [math.nan, math.inf], [1e308, 1e308]])
def test_exact_sum_keeps_fsum_on_nonfinite_and_overflow(n, bad):
    x = np.random.default_rng(n).standard_normal(n)
    x[3: 3 + len(bad)] = bad
    assert _fsum_outcome(_exact_sum, x) == _fsum_outcome(_fsum_list, x)


def test_exact_sum_runs_numpy_passes_from_the_crossover(monkeypatch):
    # from the crossover on, finite moderate data is summed in a few numpy
    # passes and math.fsum only adds their handful of exact pass sums
    fsum = math.fsum
    args = []

    def recording(a):
        args.append(a)
        return fsum(a)

    monkeypatch.setattr(math, "fsum", recording)
    x = np.random.default_rng(3).dirichlet(np.ones(100_000))
    _exact_sum(x[:_FAST_SUM_MIN - 1])
    assert isinstance(args.pop(), memoryview)
    _exact_sum(x)
    taus = args.pop()
    assert isinstance(taus, list) and 1 <= len(taus) <= 4


# ---------------------------------------------------------------------------
# the variational gap E_Q[g] - E_P[f*(g)]


def test_divergence_and_gap_reject_mismatched_inputs():
    q, p3 = uniform_measure(2), uniform_measure(3)
    with pytest.raises(ValidationError, match="atom counts differ: 2 vs 3"):
        divergence_of(q, p3, kl_family())
    with pytest.raises(ValidationError, match="g, q, and p must share one atom set"):
        variational_gap([0.0, 0.0, 0.0], q, q, kl_family())
    with pytest.raises(ValidationError, match="g, q, and p must share one atom set"):
        variational_gap([0.0, 0.0], q, p3, kl_family())
    with pytest.raises(ValidationError, match="g must be finite"):
        variational_gap([0.0, np.nan], q, q, kl_family())


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
