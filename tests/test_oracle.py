"""The primal oracle: exact slices of the divergence ball, checked against a
dense brute-force grid and the dual bound."""

import itertools
import math

import numpy as np
import pytest

from drovar.divergences import alpha_family, f_eval, kl_family
from drovar.errors import UnsupportedSizeError, ValidationError
from drovar.measures import EmpiricalMeasure, ProblemData, divergence_of, uniform_measure
import drovar.oracle as oracle
from drovar.oracle import OracleConfig, _ends, primal_sup_grid, primal_value
from drovar.solver import variance_bound

from _instances import random_instance, script_module

KL = kl_family()
A2 = alpha_family(2.0)

BERNOULLI = ProblemData(rho=np.zeros(2), phi=np.array([0.0, 1.0]))
HALF = uniform_measure(2)
SKEWED = EmpiricalMeasure(np.array([0.8, 0.2]))


def test_primal_value_is_mean_plus_variance():
    q = EmpiricalMeasure(np.array([0.7, 0.3]))
    data = ProblemData(rho=np.array([1.0, 2.0]), phi=np.array([0.0, 1.0]))
    # mean 1.3, variance 0.21
    assert primal_value(q, data) == pytest.approx(1.51, abs=1e-15)


def test_config_validation():
    with pytest.raises(ValidationError):
        OracleConfig(grid_per_dim=50)
    with pytest.raises(ValidationError):
        OracleConfig(refine_rounds=-1)
    OracleConfig(grid_per_dim=101, refine_rounds=0)


def test_oracle_rejects_unsupported_sizes_and_radii():
    data = ProblemData(rho=np.zeros(4), phi=np.zeros(4))
    with pytest.raises(UnsupportedSizeError):
        primal_sup_grid(data, uniform_measure(4), KL, 0.1)
    with pytest.raises(ValidationError):
        primal_sup_grid(BERNOULLI, HALF, KL, 0.0)
    with pytest.raises(ValidationError):
        primal_sup_grid(BERNOULLI, HALF, alpha_family(0.5), 4.0)


def test_oracle_rejects_data_and_measure_of_different_lengths():
    # checked before anything reads the atoms: the first two of three would
    # otherwise make a 2-atom problem, sup 0.2277 here
    data = ProblemData(rho=np.array([0.3, -0.2, 0.5]), phi=np.array([0.5, 0.1, -0.4]))
    with pytest.raises(ValidationError, match="data has 3 atoms but the measure has 2"):
        primal_sup_grid(data, HALF, KL, 0.2)
    with pytest.raises(ValidationError, match="data has 3 atoms but the measure has 2"):
        primal_value(HALF, data)


@pytest.mark.parametrize("data, weights, fam", [
    (BERNOULLI, [0.8, 0.2], alpha_family(0.5)),
    (ProblemData(rho=np.zeros(3), phi=np.array([0.0, 1.0, 2.0])), [0.1, 0.2, 0.7], KL),
], ids=["two-alpha:0.5", "three-kl"])
def test_a_radius_below_the_rounding_of_the_ball_has_no_feasible_point(data, weights, fam):
    # at the slice minimum s*, the divergence of P itself evaluates to 8.9e-17
    # (two atoms) and 2.2e-16 (the first slice of three) here: at eta 1e-300
    # no point passes the test as evaluated, and the oracle says so rather
    # than return a point outside the ball
    with pytest.raises(ValidationError, match="no feasible point found"):
        primal_sup_grid(data, EmpiricalMeasure(np.array(weights)), fam, 1e-300)


def test_interior_maximum_found_exactly():
    value, argmax = primal_sup_grid(BERNOULLI, HALF, KL, 0.1)
    assert value == pytest.approx(0.25, abs=1e-6)
    np.testing.assert_allclose(argmax.weights, [0.5, 0.5], atol=1e-4)


def test_skewed_kl_instance():
    value, argmax = primal_sup_grid(BERNOULLI, SKEWED, KL, 0.1)
    assert value == pytest.approx(0.2390, abs=2e-3)
    np.testing.assert_allclose(argmax.weights, [0.605, 0.395], atol=5e-3)


def test_skewed_alpha_instance():
    value, argmax = primal_sup_grid(BERNOULLI, SKEWED, A2, 0.08)
    assert value == pytest.approx(0.2304, abs=1e-4)
    np.testing.assert_allclose(argmax.weights, [0.64, 0.36], atol=5e-3)


def test_argmax_is_feasible():
    # the grid value comes from per-atom columns; primal_value recomputes it
    # at the returned argmax by direct weighted sums
    rng = np.random.default_rng(59)
    for n in (2, 3):
        data, p = random_instance(rng, n)
        for fam in (KL, A2, alpha_family(0.5)):
            for eta in (0.05, 0.2, 0.5):
                value, argmax = primal_sup_grid(data, p, fam, eta)
                assert divergence_of(argmax, p, fam) <= eta + 1e-9
                assert primal_value(argmax, data) == pytest.approx(value, abs=1e-12)


def test_oracle_never_beats_the_dual_bound():
    rng = np.random.default_rng(61)
    for n in (2, 3):
        for fam in (KL, A2):
            data, p = random_instance(rng, n)
            bound = variance_bound(data, p, fam, 0.2).value
            oracle, _ = primal_sup_grid(data, p, fam, 0.2)
            assert oracle <= bound + 1e-8
            assert oracle >= bound - 1e-4


@pytest.mark.parametrize("n", [2, 3])
def test_oracle_ignores_the_order_of_the_atoms(n):
    # every permutation moves rho, phi and p together, so the problem is the
    # same
    rng = np.random.default_rng([71, n])
    families = (KL, A2, alpha_family(0.5))
    cfg = OracleConfig(grid_per_dim=401) if n == 3 else OracleConfig()
    for i in range(6):
        fam, eta = families[i % 3], (0.05, 0.2, 0.5)[i // 2]
        data, p = random_instance(rng, n)
        bound = variance_bound(data, p, fam, eta).value
        values = []
        for perm in itertools.permutations(range(n)):
            perm = list(perm)
            permuted = ProblemData(rho=data.rho[perm], phi=data.phi[perm])
            q = EmpiricalMeasure(p.weights[perm])
            values.append(primal_sup_grid(permuted, q, fam, eta, cfg)[0])
        assert max(values) - min(values) <= 1e-9
        assert max(values) <= bound + 1e-9


def test_more_refinement_never_loses_value():
    rng = np.random.default_rng(67)
    data, p = random_instance(rng, 2)
    coarse, _ = primal_sup_grid(data, p, KL, 0.3, OracleConfig(refine_rounds=0))
    fine, _ = primal_sup_grid(data, p, KL, 0.3, OracleConfig(refine_rounds=4))
    assert fine >= coarse - 1e-12


def test_tilt_matches_oracle_argmax_on_a_converged_instance():
    res = variance_bound(BERNOULLI, SKEWED, KL, 0.1)
    assert res.status == "Converged"
    _, argmax = primal_sup_grid(BERNOULLI, SKEWED, KL, 0.1)
    np.testing.assert_allclose(res.tilt, argmax.weights, atol=1e-2)


@pytest.mark.parametrize(
    "fam", [KL, alpha_family(0.1), alpha_family(0.5), A2, alpha_family(8.0)],
    ids=["kl", "alpha:0.1", "alpha:0.5", "alpha:2", "alpha:8"],
)
def test_slice_ends_are_feasible_as_evaluated(fam):
    # every kept end passes the same sum the oracle tests, in the same order,
    # sits on the ball's boundary unless it is an edge of [0, R], and lies on
    # the side of the divergence's minimum s* that up asks for; a mixed up
    # gives each slice the end it gives that slice alone
    rng = np.random.default_rng(89)
    pa, pb = rng.uniform(0.1, 1.0, 2) / 2.0
    R = rng.uniform(0.0, 1.0 - pa - pb, 400) + pa + pb
    base = rng.uniform(0.0, 0.3, 400)
    star = R * (pa / (pa + pb))
    mixed = rng.random(400) < 0.5
    for eta in (1e-6, 0.05, 0.5, 1.0):
        lo, hi = (_ends(fam, pa, pb, R, base, eta, np.full(400, up)) for up in (False, True))
        np.testing.assert_array_equal(_ends(fam, pa, pb, R, base, eta, mixed),
                                      np.where(mixed, hi, lo))
        np.testing.assert_array_equal(np.isnan(lo), np.isnan(hi))
        ok = ~np.isnan(lo)
        assert np.all(lo[ok] <= star[ok]) and np.all(hi[ok] >= star[ok])
        for end in (lo, hi):
            div = (base + pa * f_eval(fam, end / pa)) + pb * f_eval(fam, (R - end) / pb)
            assert np.all(div[ok] <= eta)
            inner = ok & (end > 0.0) & (end < R)
            assert np.all(div[inner] >= eta - 1e-12)


def _dense_sup(data, p, family, eta, points=801 * 801):
    """Brute-force reference: the objective's maximum over `points` evenly
    spaced weights for 2 atoms, or a square grid of about as many points on
    the simplex for 3, masked to the ball."""
    if len(p) == 2:
        s = np.linspace(0.0, 1.0, points)
        cols = (s, 1.0 - s)
    else:
        axis = np.linspace(0.0, 1.0, math.isqrt(points))
        q1, q2 = axis[:, None], axis[None, :]
        cols = (q1, q2, 1.0 - q1 - q2)
    div = sum(pk * f_eval(family, col / pk) for col, pk in zip(cols, p.weights))
    mean = sum(col * ph for col, ph in zip(cols, data.phi))
    value = sum(col * ps for col, ps in zip(cols, data.psi)) - mean * mean
    inside = (div <= eta) & (cols[-1] >= 0.0)
    return float(np.max(np.where(inside, value, -np.inf)))


@pytest.mark.parametrize("n", [2, 3])
def test_oracle_matches_a_dense_grid_and_the_dual(n):
    # the oracle's point is feasible, so it sits between the dense grid's
    # best point and the dual bound, and strong duality closes the gap to the
    # bound; the tolerances scale with c, the joint scaling
    # (c*rho, sqrt(c)*phi) that multiplies the objective by c
    rng = np.random.default_rng([83, n])
    for fam in (KL, alpha_family(0.1), alpha_family(0.5), A2, alpha_family(8.0)):
        for eta in (0.05, 0.5, 1.0):
            data, p = random_instance(rng, n)
            for c in (1e-6, 1.0, 1e6):
                scaled = ProblemData(rho=c * data.rho, phi=math.sqrt(c) * data.phi)
                value, _ = primal_sup_grid(scaled, p, fam, eta)
                bound = variance_bound(scaled, p, fam, eta).value
                assert value >= _dense_sup(scaled, p, fam, eta) - 1e-12 * c
                assert value <= bound + 1e-9 * c
                assert value >= bound - 1e-8 * c


@pytest.mark.parametrize("fam", [KL, A2], ids=["kl", "alpha:2"])
def test_oracle_reaches_a_vertex(fam):
    # the sup 1 sits at q = (0, 0, 1), so slice ends lie on the simplex edge
    data = ProblemData(rho=np.array([0.0, 0.0, 1.0]), phi=np.zeros(3))
    p = uniform_measure(3)
    value, argmax = primal_sup_grid(data, p, fam, 1.2)
    assert value == 1.0
    np.testing.assert_allclose(argmax.weights, [0.0, 0.0, 1.0], atol=1e-11)
    assert value >= _dense_sup(data, p, fam, 1.2) - 1e-12
    assert value <= variance_bound(data, p, fam, 1.2).value + 1e-9


_TWIN = ProblemData(rho=np.array([0.3, 0.3]), phi=np.array([0.5, 0.5]))
_TWIN_TAIL = ProblemData(rho=np.array([-1.0, 0.3, 0.3]), phi=np.array([0.2, 0.5, 0.5]))


@pytest.mark.parametrize("data, weights, fam", [
    (_TWIN, [0.5, 0.5], KL),
    (_TWIN_TAIL, [0.4, 0.3, 0.3], KL),
    (_TWIN_TAIL, [0.4, 0.3, 0.3], A2),
    (_TWIN_TAIL, [0.4, 0.3, 0.3], alpha_family(0.5)),
], ids=["two-kl", "three-kl", "three-alpha:2", "three-alpha:0.5"])
def test_a_slice_of_two_identical_atoms_meets_the_dual(data, weights, fam):
    # the slice's two atoms carry the same rho and phi, so the objective is
    # flat along it and has no stationary point to solve for
    p = EmpiricalMeasure(np.array(weights))
    value, _ = primal_sup_grid(data, p, fam, 0.2)
    assert abs(value - variance_bound(data, p, fam, 0.2).value) <= 1e-10


def test_the_digest_slice_takes_few_divergence_evaluations(monkeypatch):
    # values do not see a slower slice end: without the early exit once every
    # end has converged, or without the test that retires an end whose step
    # stalls on its bracket, the same values come from 272,588 or 38,354
    # calls of f_eval here, against 37,680; the bound leaves about 1%
    digest, calls = script_module("oracle_digest"), 0
    f_eval_uncounted = oracle.f_eval

    def counted(family, x):
        nonlocal calls
        calls += 1
        return f_eval_uncounted(family, x)

    monkeypatch.setattr(oracle, "f_eval", counted)
    cfg = OracleConfig(grid_per_dim=401)
    for _, data, p, eta in itertools.islice(digest.instances(), 160):
        if len(p) not in (2, 3):
            continue
        for fam in digest.FAMILIES:
            try:
                primal_sup_grid(data, p, fam, eta, cfg)
            except ValidationError:
                pass
    assert calls <= 38050
