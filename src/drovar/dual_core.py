"""Dual objectives for worst-case mean/variance bounds, gradients, tilts, diagnostics.

The worst-case value sup { E_Q[rho] + Var_Q[phi] : D_f(Q, P) <= eta } equals
the infimum over lam > 0, beta, nu of the jointly convex objective

    J(lam, beta, nu) = nu^2/4 + beta + eta*lam
                       + lam * E_P[ f*((rho + phi^2 - nu*phi - beta) / lam) ],

where nu/2 plays the role of the worst-case mean of phi.  At fixed nu the
(lam, beta) block is the worst-case mean dual (dual_objective_mean) of the
payoff u = rho + phi^2 - nu*phi, so J is that dual plus nu^2/4.

Two family-specific reductions eliminate coordinates in closed form:

  * KL: the optimal beta gives  nu^2/4 + eta*lam + lam*log E_P[exp((rho+phi^2-nu*phi)/lam)].
  * alpha in (0,1): the optimal lam gives, whenever every atom has
    rho_i + phi_i^2 - nu*phi_i - beta < 0,
        nu^2/4 + beta - alpha * ((1-alpha)/C)^((1-alpha)/alpha) * (cap - eta)^(1/alpha),
    with C = E_P[|rho+phi^2-nu*phi-beta|^(-alpha/(1-alpha))] / (alpha*(1-alpha)^(alpha/(1-alpha)))
    and cap = 1/(alpha*(1-alpha)); +inf otherwise.

KL conjugate expectations are taken in log space (max-shifted log-sum-exp) and
re-exponentiated once, so small lam cannot overflow before the final scaling.

The solver needs only the worst-case mean  M_f(u) = sup { E_Q[u] : D_f(Q, P) <= eta },
the (lam, beta) block of the dual at fixed nu, which one kernel per family (KL,
alpha) reduces to one monotone 1-D root.  Each kernel reports its own worst-case
weights, which the solver returns as the tilt, and the boundary case, where the
ball holds P restricted to A = argmax u and M_f(u) = max u.

The minimizer's tilted weights  w_i = p_i * (f*)'(Psi_i)  are the worst-case
distribution; at an interior optimum they are an exact stationarity
certificate:  sum w_i = 1,  D_f(w, p) = eta,  sum w_i phi_i = nu/2.  tilt and
optimality_diagnostics rebuild them from a DualPoint given in absolute units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .divergences import (
    EXP_ARG_CAP,
    KL,
    FDivergenceFamily,
    _conj,
    alpha_family,
    check_eta,
    conj_deriv,
    conj_eval,
    f_eval,
    kl_family,
)
from .errors import DerivativeUnavailable, ValidationError
from .measures import EmpiricalMeasure, ProblemData, check_lengths

# Stationarity-certificate tolerances used by the test suite.
NORMALIZATION_TOL = 1e-6
DIVERGENCE_TOL = 1e-5
MEAN_CONDITION_TOL = 1e-6


@dataclass(frozen=True)
class DualPoint:
    """A point (lam, beta, nu) in the dual domain; lam must be positive."""

    lam: float
    beta: float
    nu: float

    def __post_init__(self):
        _check_lam(self.lam)
        if not (math.isfinite(self.beta) and math.isfinite(self.nu)):
            raise ValidationError("beta and nu must be finite")


@dataclass(frozen=True)
class TiltResult:
    """Worst-case weights w_i = p_i * (f*)'(Psi_i), unnormalized."""

    weights: np.ndarray


@dataclass(frozen=True)
class Diagnostics:
    """Stationarity certificate values at a dual point.

    normalization      sum of tilted weights (1 at an interior optimum)
    achieved_divergence D_f(tilt, P)          (eta at an interior optimum)
    mean_condition_gap E_tilt[phi] - nu/2     (0 at an interior optimum)
    boundary_flag      True when the solve pinned lam at its floor
    """

    normalization: float
    achieved_divergence: float
    mean_condition_gap: float
    boundary_flag: bool


def _payoff(data: ProblemData, nu: float) -> np.ndarray:
    """u = psi - nu*phi, computed as rho + phi*(phi - nu) so that phi^2 and
    nu*phi do not cancel where they nearly agree."""
    return data.rho + data.phi * (data.phi - nu)


def _kl_log_mean(args: np.ndarray, w: np.ndarray) -> float:
    """log E_P[exp(args)], max-shifted."""
    top = float(args.max())
    if math.isinf(top):
        return top
    return top + math.log(float(np.dot(w, np.exp(args - top))))


def _conj_tail(lam: float, args: np.ndarray, w: np.ndarray,
               family: FDivergenceFamily) -> float:
    """lam * E_P[f*(args)], extended-real; runs under the caller's np.errstate."""
    if family.kind == KL:
        e = _kl_log_mean(args, w) - 1.0 + math.log(lam)
        return math.inf if e > EXP_ARG_CAP else math.exp(e)
    # f* is bounded below and w > 0, so an entry at +inf (outside dom f*)
    # makes the sum +inf
    return lam * float(np.dot(w, _conj(family, args)))


def _check_lam(lam: float) -> None:
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValidationError(f"lam must be positive and finite, got {lam!r}")


def dual_objective_variance(
    dp: DualPoint,
    data: ProblemData,
    p: EmpiricalMeasure,
    family: FDivergenceFamily,
    eta: float,
) -> float:
    """J(lam, beta, nu): nu^2/4 plus the worst-case mean dual at the payoff
    u = psi - nu*phi, extended-real."""
    with np.errstate(all="ignore"):
        u = _payoff(data, dp.nu)
    return dp.nu * dp.nu / 4.0 + dual_objective_mean(dp.lam, dp.beta, u, p, family, eta)


def dual_objective_mean(
    lam: float,
    beta: float,
    values,
    p: EmpiricalMeasure,
    family: FDivergenceFamily,
    eta: float,
) -> float:
    """beta + eta*lam + lam*E_P[f*((values - beta)/lam)] for the worst-case mean."""
    check_eta(eta, family)
    _check_lam(lam)
    v = np.atleast_1d(np.asarray(values, dtype=float))
    if v.size != len(p):
        raise ValidationError("values and p must share one atom set")
    with np.errstate(all="ignore"):
        args = (v - beta) / lam
        return beta + eta * lam + _conj_tail(lam, args, p.weights, family)


def kl_reduced_objective(
    lam: float, nu: float, data: ProblemData, p: EmpiricalMeasure, eta: float
) -> float:
    """KL dual with beta eliminated: nu^2/4 + eta*lam + lam*log E_P[exp((rho+phi^2-nu*phi)/lam)]."""
    check_eta(eta, kl_family())
    _check_lam(lam)
    check_lengths(data, p)
    u = _payoff(data, nu)
    return nu * nu / 4.0 + eta * lam + lam * _kl_log_mean(u / lam, p.weights)


def kl_reduced_gradient(
    lam: float, nu: float, data: ProblemData, p: EmpiricalMeasure, eta: float
) -> tuple[float, float]:
    """(d/dlam, d/dnu) of kl_reduced_objective."""
    args = _payoff(data, nu) / lam
    L = _kl_log_mean(args, p.weights)
    # softmax weights of args under p
    omega = np.exp(np.log(p.weights) + args - L)
    d_lam = eta + L - float(np.dot(omega, args))
    d_nu = nu / 2.0 - float(np.dot(omega, data.phi))
    return d_lam, d_nu


def kl_optimal_beta(
    lam: float, nu: float, data: ProblemData, p: EmpiricalMeasure
) -> float:
    """The closed-form beta minimizing the KL dual at fixed (lam, nu)."""
    return lam * (_kl_log_mean(_payoff(data, nu) / lam, p.weights) - 1.0)


def _alpha_C(gaps: np.ndarray, w: np.ndarray, alpha: float) -> float:
    """C = E_P[gaps^(-alpha/(1-alpha))] / (alpha*(1-alpha)^(alpha/(1-alpha)))."""
    r = alpha / (1.0 - alpha)
    with np.errstate(over="ignore"):
        K = float(np.dot(w, gaps ** (-r)))
    return K / (alpha * (1.0 - alpha) ** r)


def _alpha_lambda(gaps, w, alpha, slack) -> float:
    """Kernel of alpha_inner_lambda, at gaps that are all positive."""
    C = _alpha_C(gaps, w, alpha)
    return ((1.0 - alpha) * slack / C) ** ((1.0 - alpha) / alpha)


def _check_alpha01(alpha: float, eta: float) -> float:
    """Validate alpha in (0,1) and eta; return the slack cap - eta."""
    if not (0.0 < alpha < 1.0):
        raise ValidationError(f"this reduction needs alpha in (0,1), got {alpha!r}")
    family = alpha_family(alpha)
    check_eta(eta, family)
    return family.divergence_cap - eta


def alpha_reduced_objective(
    beta: float, nu: float, data: ProblemData, p: EmpiricalMeasure,
    alpha: float, eta: float,
) -> float:
    """alpha in (0,1) dual with lam eliminated; +inf unless every conjugate
    argument is strictly negative (the finite-C branch)."""
    slack = _check_alpha01(alpha, eta)
    check_lengths(data, p)
    gaps = beta - _payoff(data, nu)
    if (gaps <= 0.0).any():
        return math.inf
    C = _alpha_C(gaps, p.weights, alpha)
    # C = +inf degrades gracefully: the correction term vanishes,
    # matching the lam -> 0 limit of the dual.
    return (
        nu * nu / 4.0
        + beta
        - alpha * ((1.0 - alpha) / C) ** ((1.0 - alpha) / alpha) * slack ** (1.0 / alpha)
    )


def alpha_inner_lambda(
    beta: float, nu: float, data: ProblemData, p: EmpiricalMeasure,
    alpha: float, eta: float,
) -> float:
    """The lam recovering the full dual point from the alpha-reduced one."""
    slack = _check_alpha01(alpha, eta)
    gaps = beta - _payoff(data, nu)
    if np.any(gaps <= 0.0):
        raise ValidationError("point is outside the reduced feasible region")
    return _alpha_lambda(gaps, p.weights, alpha, slack)


def alpha_reduced_gradient(
    beta: float, nu: float, data: ProblemData, p: EmpiricalMeasure,
    alpha: float, eta: float,
) -> tuple[float, float]:
    """(d/dbeta, d/dnu) of alpha_reduced_objective, via the envelope identity.

    At the inner-optimal lam the reduced gradient equals the (beta, nu) block
    of the full dual gradient.
    """
    slack = _check_alpha01(alpha, eta)
    gaps = beta - _payoff(data, nu)
    if (gaps <= 0.0).any():
        raise DerivativeUnavailable(
            "reduced objective is +inf here; use the derivative-free path"
        )
    lam = _alpha_lambda(gaps, p.weights, alpha, slack)
    if lam <= 0.0:
        raise DerivativeUnavailable(
            "inner lam underflowed to zero; use the derivative-free path"
        )
    dens = conj_deriv(alpha_family(alpha), -gaps / lam)
    d_beta = 1.0 - float(np.dot(p.weights, dens))
    d_nu = nu / 2.0 - float(np.dot(p.weights, dens * data.phi))
    return d_beta, d_nu


def _moments(args: np.ndarray, phi: np.ndarray, p: EmpiricalMeasure,
             family: FDivergenceFamily) -> tuple[float, float, float, float]:
    """E[f*], E[(f*)'], E[(f*)'*args], E[(f*)'*phi] under P at the given arguments."""
    if family.kind == KL:
        L = _kl_log_mean(args, p.weights)
        if L - 1.0 > EXP_ARG_CAP:
            raise DerivativeUnavailable("conjugate expectation overflows at this point")
        base = math.exp(L - 1.0)
        omega = np.exp(np.log(p.weights) + args - L)
        return (
            base,
            base,
            base * float(np.dot(omega, args)),
            base * float(np.dot(omega, phi)),
        )
    fv = conj_eval(family, args)
    dv = conj_deriv(family, args)
    if np.isinf(fv).any() or np.isinf(dv).any():
        raise DerivativeUnavailable(
            "conjugate argument outside dom f*; use the derivative-free path"
        )
    w = p.weights
    return (
        float(np.dot(w, fv)),
        float(np.dot(w, dv)),
        float(np.dot(w, dv * args)),
        float(np.dot(w, dv * phi)),
    )


def gradient_variance(
    dp: DualPoint,
    data: ProblemData,
    p: EmpiricalMeasure,
    family: FDivergenceFamily,
    eta: float,
) -> tuple[float, float, float]:
    """(d/dlam, d/dbeta, d/dnu) of dual_objective_variance at a smooth finite point."""
    check_eta(eta, family)
    check_lengths(data, p)
    args = (_payoff(data, dp.nu) - dp.beta) / dp.lam
    e_f, e_d, e_da, e_dphi = _moments(args, data.phi, p, family)
    return (
        eta + e_f - e_da,
        1.0 - e_d,
        dp.nu / 2.0 - e_dphi,
    )


def tilt(
    dp: DualPoint,
    data: ProblemData,
    p: EmpiricalMeasure,
    family: FDivergenceFamily,
) -> TiltResult:
    """Worst-case weights p_i * (f*)'(Psi_i) at the dual point (unnormalized)."""
    check_lengths(data, p)
    args = (_payoff(data, dp.nu) - dp.beta) / dp.lam
    dens = conj_deriv(family, args)
    if not np.all(np.isfinite(dens)):
        raise ValidationError(
            "conjugate argument outside dom f*; no tilt exists at this point"
        )
    return TiltResult(weights=p.weights * dens)


def _certificate(weights: np.ndarray, p: EmpiricalMeasure, phi: np.ndarray, nu: float,
                 family: FDivergenceFamily, boundary: bool) -> Diagnostics:
    """The stationarity certificate of unnormalized worst-case weights."""
    return Diagnostics(
        normalization=math.fsum(memoryview(weights)),
        achieved_divergence=math.fsum(
            memoryview(p.weights * f_eval(family, weights / p.weights))),
        mean_condition_gap=math.fsum(memoryview(weights * phi)) - nu / 2.0,
        boundary_flag=bool(boundary),
    )


def optimality_diagnostics(
    dp: DualPoint,
    data: ProblemData,
    p: EmpiricalMeasure,
    family: FDivergenceFamily,
    eta: float,
    boundary: bool = False,
) -> Diagnostics:
    """Evaluate the stationarity certificate at dp (see Diagnostics)."""
    return _certificate(tilt(dp, data, p, family).weights, p, data.phi, dp.nu,
                        family, boundary)


# ---------------------------------------------------------------------------
# The worst-case mean M_f(u) = sup { E_Q[u] : D_f(Q, P) <= eta }
#
# With top = max u, v = u - top, A = argmax u and span = max u - min u, each
# family's dual reduces to one increasing 1-D function, solved in a
# dimensionless log coordinate z:
#
#   kl     t = 1/lam = exp(z)/span:  KL(omega_t || P) - eta, omega_t ~ p*exp(t*u)
#   alpha  beta = top - sg*d, d = exp(z)*span, sg = sign(alpha-1), k = alpha/(alpha-1):
#          sg times the beta-derivative of beta + sg*C*E_P[(sg*(u - beta))_+^k]^(1/k),
#          C = (1 + alpha(alpha-1)eta)^(1/alpha); for alpha < 1, k < 0 and beta > max u
#
# The boundary case, where the ball holds P restricted to A and M_f(u) = max u,
# is the limit at the end of that range: -log P(A) <= eta and
# sg*log(C*P(A)^(1/k)) >= 0 respectively.

ROOT = "root"
STALLED = "stalled"
SPENT = "spent"

_Z_RANGE = 500.0  # exp(+-500) keeps every scaled coordinate finite and nonzero


class Budget:
    """Root steps taken by one solve, outer and inner, against its limit."""

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0


def _root(fn, x, lo, hi, tol, xscale, budget):
    """Root of an increasing function by safeguarded Newton or secant steps.

    fn(x) returns (g, dg): g < 0 below the root and g > 0 above it on
    (lo, hi), dg its derivative, or None to use the secant through the last
    two points.  Toward an end no evaluated point bounds yet, the step grows
    by doubling; a step that leaves the bracket, or does not halve within
    two steps, becomes a bisection.

    Returns (x, state) with x the last point evaluated: state is ROOT when
    |g(x)| <= tol; STALLED when no float lies between x and the next step (g
    jumps there, or rounding hides the tolerance); SPENT when the budget ran
    out.  xscale is the size of the first growth step.
    """
    g, dg = fn(x)
    budget.used += 1
    seen_lo = seen_hi = False
    xp = gp = None
    step = old = math.inf
    grow = xscale
    while not abs(g) <= tol:
        if g < 0.0:
            lo, seen_lo = x, True
        else:
            hi, seen_hi = x, True
        slope = dg
        if slope is None and xp is not None and g != gp:
            slope = (g - gp) / (x - xp)
        xp, gp = x, g
        cand = x - g / slope if slope is not None and 0.0 < slope < math.inf else math.nan
        if not (lo < cand < hi) or abs(cand - x) > 0.5 * abs(old):
            if not seen_hi:
                cand, grow = min(x + grow, 0.5 * (x + hi)), 2.0 * grow
            elif not seen_lo:
                cand, grow = max(x - grow, 0.5 * (x + lo)), 2.0 * grow
            else:
                cand = 0.5 * (lo + hi)
        old, step = step, cand - x
        if not (lo < cand < hi) or cand == x:
            return x, STALLED
        if budget.used >= budget.limit:
            return x, SPENT
        x = cand
        g, dg = fn(x)
        budget.used += 1
    return x, ROOT


class WorstMean(NamedTuple):
    """One solve of M_f(u).

    value     the dual value at the root found: an upper bound on M_f(u)
              however loosely the root was solved
    q         the normalized worst-case weights
    mass      the sum of the unnormalized weights p*(f*)' at the root found,
              which q*mass recovers (1 where the kernel normalizes exactly)
    boundary  the ball holds P restricted to argmax u, so M_f(u) = max u
    lam, beta the dual point at the root (lam = 0 on the boundary)
    start     the root coordinate, to warm-start the next solve
    curv      (c, k) such that the second derivative of M_f along h is
              k * sum_i c_i r_i^2, r the c-weighted residual of h on (1, u);
              None when the kernel does not know it
    """

    value: float
    q: np.ndarray
    mass: float
    boundary: bool
    lam: float
    beta: float
    start: object
    curv: tuple | None


def _split(u: np.ndarray, w: np.ndarray):
    """top = max u, v = u - top, span = max u - min u, the mask of A = argmax u, P(A)."""
    top = float(u.max())
    v = u - top
    on_top = v == 0.0
    return top, v, -float(v.min()), on_top, float(w[on_top].sum())


def _at_top(top, w, on_top, pa, start) -> WorstMean:
    return WorstMean(top, np.where(on_top, w / pa, 0.0), 1.0, True, 0.0, top, start, None)


def _first_z(v, w, eta, root_of) -> float:
    """A starting log coordinate from the small-radius (chi-square) limit,
    where the worst case tilts P by sqrt(2*eta)/sd along u: root_of(m, r)
    maps m = E_P[v] and r = sd_P(v)/sqrt(2*eta) to the kernel's scaled root."""
    m = float(np.dot(w, v))
    sd = math.sqrt(float(np.dot(w, (v - m) ** 2)))
    x = root_of(m, sd / math.sqrt(2.0 * eta)) if sd > 0.0 else 1.0
    return math.log(x) if x > 0.0 else 0.0


def _cexp(x: float) -> float:
    return math.exp(min(x, EXP_ARG_CAP))


def _kl_mean(u, w, family, eta, tol, budget, start) -> WorstMean:
    """M_f(u) for KL: the root in t of KL(omega_t || P) = eta, where the
    dual value is lam*eta + lam*log E_P[exp(u/lam)] at lam = 1/t."""
    top, v, span, on_top, pa = _split(u, w)
    if span == 0.0 or -math.log(pa) - eta <= tol * eta:
        return _at_top(top, w, on_top, pa, start)
    v2 = v * v
    last = {}

    def fn(z):
        t = math.exp(z) / span
        we = w * np.exp(t * v)
        e = float(we.sum())
        m1 = float(np.dot(we, v)) / e
        m2 = float(np.dot(we, v2)) / e
        last.update(z=z, t=t, we=we, e=e)
        return t * m1 - math.log(e) - eta, t * t * (m2 - m1 * m1)

    if start is None:
        start = _first_z(v, w, eta, lambda m, r: span / r)
    _root(fn, start, -_Z_RANGE, _Z_RANGE, tol * eta, 1.0, budget)
    lam = span * math.exp(-last["z"])
    log_e = math.log(last["e"])
    q = last["we"] / last["e"]
    return WorstMean(top + lam * (eta + log_e), q, 1.0, False, lam,
                     top + lam * (log_e - 1.0), last["z"], (q, last["t"]))


def _alpha_mean(u, w, family, eta, tol, budget, start) -> WorstMean:
    """M_f(u) for an alpha family: with sg = sign(alpha - 1) and
    k = alpha/(alpha - 1), the minimum over beta = top - sg*d, d > 0, of
    beta + sg*C*E_P[(sg*(u - beta))_+^k]^(1/k)."""
    a = family.alpha
    sg = 1.0 if a > 1.0 else -1.0
    k = a / (a - 1.0)
    big_d = 1.0 + a * (a - 1.0) * eta
    log_c = math.log(big_d) / a
    top, v, span, on_top, pa = _split(u, w)
    if span == 0.0 or sg * (log_c + math.log(pa) / k) >= -math.log1p(tol):
        return _at_top(top, w, on_top, pa, start)
    last = {}

    def fn(z):
        # rho = (sg*(u - beta))_+ / d is 1 on A, >= 1 for alpha < 1; ck = C*E_P[rho^k]^(1/k)
        d = math.exp(z) * span
        rho = v / (sg * d) + 1.0
        if sg > 0.0:
            rho = np.maximum(rho, 0.0)
        wr1 = w * rho ** (k - 1.0)
        wr2 = (np.divide(wr1, rho, out=np.zeros_like(rho), where=rho > 0.0)
               if sg > 0.0 else wr1 / rho)
        s1, sk, s2 = float(wr1.sum()), float(np.dot(wr1, rho)), float(wr2.sum())
        ck = _cexp(log_c + math.log(sk) / k)
        last.update(z=z, d=d, wr1=wr1, wr2=wr2, s1=s1, sk=sk, ck=ck)
        return sg * (ck * s1 / sk - 1.0), sg * (k - 1.0) * ck * (s2 / sk - (s1 / sk) ** 2)

    if start is None:
        start = _first_z(v, w, eta, lambda m, r: (r / abs(a - 1.0) - sg * m) / span)
    _root(fn, start, -_Z_RANGE, _Z_RANGE, tol, 1.0, budget)
    d, s1, sk, ck = last["d"], last["s1"], last["sk"], last["ck"]
    beta = top - d if sg > 0.0 else max(top + d, math.nextafter(top, math.inf))
    # the curvature factor divides by d and s1 in turn: their product can underflow
    return WorstMean(top + sg * d * (ck - 1.0), last["wr1"] / s1, ck * s1 / sk, False,
                     abs(a - 1.0) * d * ck / big_d, beta, last["z"],
                     (last["wr2"], 1.0 / (abs(a - 1.0) * d) / s1))


def _general_mean(u, w, family, eta, tol, budget, start) -> WorstMean:
    """M_f(u) from lam*eta + beta + lam*E_P[f*((u - beta)/lam)] alone, by two
    nested secant roots on conj_eval and conj_deriv: beta = top - b/t solves
    E_P[(f*)'(t*v + b)] = 1 at each t = 1/lam, and t solves D_f(Q_t || P) = eta.
    b = exp(x) > 0, or b = -exp(-x) < 0 when dom f* is y < 0 (alpha < 1)."""
    top, v, span, on_top, pa = _split(u, w)
    excess = pa * f_eval(family, 1.0 / pa) + (1.0 - pa) * f_eval(family, 0.0) - eta
    if span == 0.0 or excess <= tol * eta:
        return _at_top(top, w, on_top, pa, start)
    sign = -1.0 if math.isfinite(family.divergence_cap) else 1.0
    if start is None:
        start = (_first_z(v, w, eta, lambda m, r: span / r), 0.0)
    last = {"x": start[1]}

    def fn(z):
        t = math.exp(z) / span
        tv = t * v

        def normalization(x):
            b = sign * math.exp(sign * x)
            return float(np.dot(w, conj_deriv(family, tv + b))) - 1.0, None

        x, _ = _root(normalization, last["x"], -_Z_RANGE, _Z_RANGE, tol, 1.0, budget)
        b = sign * math.exp(sign * x)
        y = tv + b
        ef = float(np.dot(w, conj_eval(family, y)))
        wd = w * conj_deriv(family, y)
        last.update(z=z, x=x, b=b, ef=ef, wd=wd)
        # -dJ/dlam at the optimal beta: D_f(Q_t || P) - eta when sum(wd) = 1
        return float(np.dot(wd, y)) - ef - eta, None

    _root(fn, start[0], -_Z_RANGE, _Z_RANGE, tol * eta, 1.0, budget)
    lam = span * math.exp(-last["z"])
    b = last["b"]
    beta = top - lam * b
    if sign < 0.0:
        beta = max(beta, math.nextafter(top, math.inf))
    mass = float(last["wd"].sum())
    return WorstMean(top + lam * (eta - b + last["ef"]), last["wd"] / mass, mass,
                     False, lam, beta, (last["z"], last["x"]), None)


def _curvature(c: np.ndarray, u: np.ndarray, h: np.ndarray) -> float:
    """sum_i c_i r_i^2, r the c-weighted least-squares residual of h on (1, u)."""
    total = float(c.sum())
    du = u - float(np.dot(c, u)) / total
    dh = h - float(np.dot(c, h)) / total
    cu = c * du
    suu, suh = float(np.dot(cu, du)), float(np.dot(cu, dh))
    shh = float(np.dot(c * dh, dh))
    return shh - suh * suh / suu if suu > 0.0 else shh


def _wall_beta(u: np.ndarray, w: np.ndarray, family: FDivergenceFamily, lam: float) -> float:
    """For an alpha family: the beta at which the tilt at a tiny lam puts
    density 1/P(A) on A = argmax u and nothing elsewhere."""
    top, _, _, _, pa = _split(u, w)
    a = family.alpha
    sg = 1.0 if a > 1.0 else -1.0
    beta = top - sg * lam * _cexp((1.0 - a) * math.log(pa)) / abs(a - 1.0)
    return beta if sg > 0.0 else max(beta, math.nextafter(top, math.inf))
