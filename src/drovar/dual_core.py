"""The reference layer: dual objectives, gradients, tilts and diagnostics in absolute units.

The worst-case value sup { E_Q[rho] + Var_Q[phi] : D_f(Q, P) <= eta } equals
the infimum over lam > 0, beta, nu of the jointly convex objective

    J(lam, beta, nu) = nu^2/4 + beta + eta*lam
                       + lam * E_P[ f*((rho + phi^2 - nu*phi - beta) / lam) ],

where nu/2 plays the role of the worst-case mean of phi.  At fixed nu the
(lam, beta) block is the worst-case mean dual (dual_objective_mean) of the
payoff u = rho + phi^2 - nu*phi, so J is that dual plus nu^2/4.  At lam = 0
J is its closure: lam*f*(y/lam) closes to the recession function of f*, 0 for
y <= 0 and +inf for y > 0, so J = nu^2/4 + beta if max u <= beta, else +inf.

Two family-specific reductions eliminate coordinates in closed form:

  * KL: the optimal beta gives  nu^2/4 + eta*lam + lam*log E_P[exp((rho+phi^2-nu*phi)/lam)].
  * alpha in (0,1): the optimal lam gives, whenever every atom has
    rho_i + phi_i^2 - nu*phi_i - beta < 0,
        nu^2/4 + beta - alpha * ((1-alpha)/C)^((1-alpha)/alpha) * (cap - eta)^(1/alpha),
    with C = E_P[|rho+phi^2-nu*phi-beta|^(-alpha/(1-alpha))] / (alpha*(1-alpha)^(alpha/(1-alpha)))
    and cap = 1/(alpha*(1-alpha)); +inf otherwise.

KL conjugate expectations are taken in log space (max-shifted log-sum-exp) and
re-exponentiated once, so small lam cannot overflow before the final scaling.

The minimizer's tilted weights  w_i = p_i * (f*)'(Psi_i)  are the worst-case
distribution; at an interior optimum they are an exact stationarity
certificate:  sum w_i = 1,  D_f(w, p) = eta,  sum w_i phi_i = nu/2.  tilt and
optimality_diagnostics rebuild them from a DualPoint given in absolute units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
from .measures import EmpiricalMeasure, ProblemData, _exact_sum, check_lengths

# Stationarity-certificate tolerances used by the test suite.
NORMALIZATION_TOL = 1e-6
DIVERGENCE_TOL = 1e-5
MEAN_CONDITION_TOL = 1e-6


@dataclass(frozen=True)
class DualPoint:
    """A point (lam, beta, nu) in the dual domain, lam >= 0: at lam = 0 J takes
    its closure value and the tilt is P restricted to {u = beta}."""

    lam: float
    beta: float
    nu: float

    def __post_init__(self):
        _check_lam(self.lam, zero_ok=True)
        if not (math.isfinite(self.beta) and math.isfinite(self.nu)):
            raise ValidationError("beta and nu must be finite")


@dataclass(frozen=True)
class Diagnostics:
    """Stationarity certificate values at a dual point.

    normalization      sum of tilted weights (1 at an interior optimum)
    achieved_divergence D_f(tilt, P)          (eta at an interior optimum)
    mean_condition_gap E_tilt[phi] - nu/2     (0 at an interior optimum)
    """

    normalization: float
    achieved_divergence: float
    mean_condition_gap: float


def _payoff(data: ProblemData, nu: float, out: np.ndarray | None = None) -> np.ndarray:
    """u = psi - nu*phi, computed as rho + phi*(phi - nu) so that phi^2 and
    nu*phi do not cancel where they nearly agree; written into out if given."""
    out = np.subtract(data.phi, nu, out=out)
    np.multiply(data.phi, out, out=out)
    return np.add(data.rho, out, out=out)


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


def _check_lam(lam: float, zero_ok: bool = False) -> None:
    if not (math.isfinite(lam) and (lam > 0.0 or zero_ok and lam == 0.0)):
        raise ValidationError(f"lam must be {'>=' if zero_ok else '>'} 0 and finite, got {lam!r}")


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
    """beta + eta*lam + lam*E_P[f*((values - beta)/lam)] for the worst-case mean;
    at lam = 0 its closure, beta if max(values) <= beta and +inf otherwise."""
    check_eta(eta, family)
    _check_lam(lam, zero_ok=True)
    v = np.atleast_1d(np.asarray(values, dtype=float))
    if v.size != len(p):
        raise ValidationError("values and p must share one atom set")
    if lam == 0.0:
        return beta if float(v.max()) <= beta else math.inf
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


def kl_optimal_beta(
    lam: float, nu: float, data: ProblemData, p: EmpiricalMeasure
) -> float:
    """The closed-form beta minimizing the KL dual at fixed (lam, nu)."""
    return lam * (_kl_log_mean(_payoff(data, nu) / lam, p.weights) - 1.0)


def alpha_reduced_objective(
    beta: float, nu: float, data: ProblemData, p: EmpiricalMeasure,
    alpha: float, eta: float,
) -> float:
    """alpha in (0,1) dual with lam eliminated; +inf unless every conjugate
    argument is strictly negative (the finite-C branch)."""
    if not (0.0 < alpha < 1.0):
        raise ValidationError(f"this reduction needs alpha in (0,1), got {alpha!r}")
    family = alpha_family(alpha)
    check_eta(eta, family)
    slack = family.divergence_cap - eta
    check_lengths(data, p)
    gaps = beta - _payoff(data, nu)
    if (gaps <= 0.0).any():
        return math.inf
    r = alpha / (1.0 - alpha)
    with np.errstate(over="ignore"):
        C = float(np.dot(p.weights, gaps ** (-r))) / (alpha * (1.0 - alpha) ** r)
    # C = +inf degrades gracefully: the correction term vanishes,
    # matching the lam -> 0 limit of the dual.
    return (
        nu * nu / 4.0
        + beta
        - alpha * ((1.0 - alpha) / C) ** ((1.0 - alpha) / alpha) * slack ** (1.0 / alpha)
    )


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
            "J has no gradient here: a conjugate argument lies outside dom f*"
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
    if dp.lam == 0.0:
        raise DerivativeUnavailable("J is not differentiable at lam = 0")
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
) -> np.ndarray:
    """Worst-case weights p_i * (f*)'(Psi_i) at the dual point, unnormalized;
    at lam = 0, P conditioned on {u = beta}, which needs beta = max u.

    These are rebuilt from dp in absolute units, not taken from a solve, so at
    a solver's dual_point they can differ from its BoundResult.tilt, which is
    the kernel's own tilt.  An atom of tiny weight carries a large tilt only
    through a tiny gap between beta and its payoff, which rounding in absolute
    units can lose: alpha:0.5, eta 0.2, rho (5, 0, 0.1), phi (1, 0, 0.2) and
    weights (1e-300, 0.5, 0.5) solve Converged with a normalization of
    1 - 3.8e-15, yet these weights sum to 0.903 there.
    """
    check_lengths(data, p)
    u = _payoff(data, dp.nu)
    if dp.lam == 0.0:
        if float(u.max()) != dp.beta:
            raise ValidationError("at lam = 0 the tilt needs beta = max u")
        on_top = u == dp.beta
        pa = float(p.weights[on_top].sum())
        return np.where(on_top, p.weights / pa, 0.0)
    args = (u - dp.beta) / dp.lam
    dens = conj_deriv(family, args)
    if not np.all(np.isfinite(dens)):
        raise ValidationError(
            "conjugate argument outside dom f*; no tilt exists at this point"
        )
    return p.weights * dens


def _certificate(weights: np.ndarray, p: EmpiricalMeasure, phi: np.ndarray, nu: float,
                 family: FDivergenceFamily) -> Diagnostics:
    """The stationarity certificate of unnormalized worst-case weights.

    Its three sums are exact (measures._exact_sum): each field is math.fsum
    of its array, bit for bit, at numpy speed from 1,000 atoms up.
    """
    return Diagnostics(
        normalization=_exact_sum(weights),
        achieved_divergence=_exact_sum(p.weights * f_eval(family, weights / p.weights)),
        mean_condition_gap=_exact_sum(weights * phi) - nu / 2.0,
    )


def optimality_diagnostics(
    dp: DualPoint,
    data: ProblemData,
    p: EmpiricalMeasure,
    family: FDivergenceFamily,
) -> Diagnostics:
    """Evaluate the stationarity certificate of tilt(dp, ...) (see Diagnostics).

    At a solver's dual_point it can disagree with that solve's
    BoundResult.diagnostics (see tilt).
    """
    return _certificate(tilt(dp, data, p, family), p, data.phi, dp.nu, family)
