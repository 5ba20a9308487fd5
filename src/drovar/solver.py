"""Nested 1-D solver for the dual bound problems.

The primal objective is concave in Q over a convex compact ball, so by Sion's
theorem

    sup_Q E_Q[rho] + Var_Q[phi] = min_nu F(nu),  F(nu) = nu^2/4 + M_f(psi - nu*phi),

with psi = rho + phi^2 and M_f(u) = sup { E_Q[u] : D_f(Q, P) <= eta } the
worst-case mean.  F is 1/2-strongly convex; by Danskin's theorem its
derivative is G(nu) = nu/2 - E_{Q*}[phi], Q* the worst case of M_f, so G is
increasing and its root lies in [2 min phi, 2 max phi].  The outer loop finds
that root by safeguarded Newton steps, with G' from the curvature of M_f.
Each outer step computes M_f by one monotone 1-D root in this module's kernel
for the family (KL or alpha), warm-started from the previous outer iterate of
the same solve.  Every evaluated F is a certified dual value; the tilt and its
certificate are that kernel's own worst-case weights at the final nu.  Every
root runs _root, which returns (x, state, at): where it stopped, why, and the
evaluation there.  _solve is that outer root on its own, with an optional
start for nu and the first inner root, and no certificate; variance_bound
validates, runs it cold and certifies the result.

parameterization="generic" keeps the outer loop and swaps the inner step:
it minimizes lam*eta + beta + lam*E_P[f*((u - beta)/lam)] by two nested
secant roots on conj_eval and conj_deriv alone, with no closed form, so it
cross-checks the family kernels.

Every stopping test is relative to the instance's own scale: |G| to the range
of phi, the inner roots to eta or to their dimensionless derivative.  The
statuses:

    Converged       |G(nu)| <= grad_tol * (max phi - min phi)
    BoundaryLambda  the ball holds P restricted to A = argmax u at the final
                    nu, so M_f(u) = max u is the lam -> 0 limit of the dual;
                    or the outer bracket closed on a jump of G, a kink of F
                    where atoms of u tie
    MaxIters        _MAX_STEPS root steps, outer plus inner, ran out
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
    check_eta,
    conj_deriv,
    conj_eval,
    f_eval,
)
from .dual_core import Diagnostics, DualPoint, TiltResult, _certificate, _payoff, kl_optimal_beta
# perfbench/spans.py wraps these names in this module to time the dual-core
# layer; the nested solve does not call them.
from .dual_core import (  # noqa: F401
    alpha_reduced_objective,
    dual_objective_variance,
    kl_reduced_objective,
    optimality_diagnostics,
    tilt,
)
from .errors import ValidationError
from .measures import EmpiricalMeasure, ProblemData, check_lengths

# perfbench/spans.py also wraps these names, the gradient kernels of a removed
# 3-d descent; nothing calls them.  They and the import block above go when the
# spans stop naming them (ROADMAP item 3).
kl_reduced_gradient = alpha_reduced_gradient = alpha_inner_lambda = _capped_gradient = None

CONVERGED = "Converged"
BOUNDARY_LAMBDA = "BoundaryLambda"
MAX_ITERS = "MaxIters"

# The inner roots stop three decades inside the outer tolerance, so their
# error does not move G by more than a small share of grad_tol.
_INNER_TOL_RATIO = 1e-3
# The lam reported on the boundary, where the dual infimum sits at lam -> 0.
_LAMBDA_FLOOR = 1e-12
# Root steps one solve may take, outer plus inner.
_MAX_STEPS = 10000


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

    fn(x) returns (g, dg, at): g < 0 below the root and g > 0 above it on
    (lo, hi); dg its derivative, or None to use the secant through the last
    two points; at what the caller needs from the evaluation.  Toward an end
    no evaluated point bounds yet, the step grows by doubling; a step that
    leaves the bracket, or does not halve within two steps, becomes a bisection.

    Returns (x, state, at), x the last point evaluated and at its evaluation.
    state is ROOT when |g(x)| <= tol; STALLED when no float lies between x and
    the next step (g jumps there, or rounding hides the tolerance); SPENT when
    the budget ran out.  xscale is the size of the first growth step.
    """
    g, dg, at = fn(x)
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
            return x, STALLED, at
        if budget.used >= budget.limit:
            return x, SPENT, at
        x = cand
        g, dg, at = fn(x)
        budget.used += 1
    return x, ROOT, at


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
    # at huge scales the moments overflow and x is 0, inf or nan: start at 0
    return math.log(x) if 0.0 < x < math.inf else 0.0


def _cexp(x: float) -> float:
    return math.exp(min(x, EXP_ARG_CAP))


def _kl_mean(u, w, family, eta, tol, budget, start) -> WorstMean:
    """M_f(u) for KL: the root in t of KL(omega_t || P) = eta, where the
    dual value is lam*eta + lam*log E_P[exp(u/lam)] at lam = 1/t."""
    top, v, span, on_top, pa = _split(u, w)
    if span == 0.0 or -math.log(pa) - eta <= tol * eta:
        return _at_top(top, w, on_top, pa, start)
    v2 = v * v

    def fn(z):
        t = math.exp(z) / span
        we = w * np.exp(t * v)
        e = float(we.sum())
        m1 = float(np.dot(we, v)) / e
        m2 = float(np.dot(we, v2)) / e
        return t * m1 - math.log(e) - eta, t * t * (m2 - m1 * m1), (t, we, e)

    if start is None:
        start = _first_z(v, w, eta, lambda m, r: span / r)
    z, _, (t, we, e) = _root(fn, start, -_Z_RANGE, _Z_RANGE, tol * eta, 1.0, budget)
    lam = span * math.exp(-z)
    log_e = math.log(e)
    q = we / e
    return WorstMean(top + lam * (eta + log_e), q, 1.0, False, lam,
                     top + lam * (log_e - 1.0), z, (q, t))


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
    vs = v / span
    # for alpha < 1 the density rho^(k-1) is 1 on A and about exp(z/(1-alpha))
    # elsewhere, so a light top atom puts the root near (1-alpha)*log(min w):
    # the bracket reaches twice that, as far as exp(-z) stays finite
    z_lo = max(min(-_Z_RANGE, 2.0 * (1.0 - a) * math.log(float(w.min()))), -EXP_ARG_CAP)

    def fn(z):
        # rho = (sg*(u - beta))_+ / d is 1 on A, >= 1 for alpha < 1; ck = C*E_P[rho^k]^(1/k)
        d = math.exp(z) * span
        rho = vs * (sg * math.exp(-z)) + 1.0
        if sg > 0.0:
            rho = np.maximum(rho, 0.0)
        wr1 = w * rho ** (k - 1.0)
        wr2 = (np.divide(wr1, rho, out=np.zeros_like(rho), where=rho > 0.0)
               if sg > 0.0 else wr1 / rho)
        s1, sk, s2 = float(wr1.sum()), float(np.dot(wr1, rho)), float(wr2.sum())
        ck = _cexp(log_c + math.log(sk) / k)
        return (sg * (ck * s1 / sk - 1.0), sg * (k - 1.0) * ck * (s2 / sk - (s1 / sk) ** 2),
                (d, wr1, wr2, s1, sk, ck))

    if start is None:
        start = _first_z(v, w, eta, lambda m, r: (r / abs(a - 1.0) - sg * m) / span)
    z, _, (d, wr1, wr2, s1, sk, ck) = _root(fn, start, z_lo, _Z_RANGE, tol, 1.0, budget)
    beta = top - d if sg > 0.0 else max(top + d, math.nextafter(top, math.inf))
    # the curvature factor divides by d and s1 in turn: their product can underflow
    return WorstMean(top + sg * d * (ck - 1.0), wr1 / s1, ck * s1 / sk, False,
                     abs(a - 1.0) * d * ck / big_d, beta, z,
                     (wr2, 1.0 / (abs(a - 1.0) * d) / s1))


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
    xb = start[1]  # b's log coordinate, warm-started across steps in t

    def fn(z):
        nonlocal xb
        t = math.exp(z) / span
        tv = t * v

        def normalization(x):
            b = sign * math.exp(sign * x)
            return float(np.dot(w, conj_deriv(family, tv + b))) - 1.0, None, b

        xb, _, b = _root(normalization, xb, -_Z_RANGE, _Z_RANGE, tol, 1.0, budget)
        y = tv + b
        ef = float(np.dot(w, conj_eval(family, y)))
        wd = w * conj_deriv(family, y)
        # -dJ/dlam at the optimal beta: D_f(Q_t || P) - eta when sum(wd) = 1
        return float(np.dot(wd, y)) - ef - eta, None, (b, ef, wd)

    z, _, (b, ef, wd) = _root(fn, start[0], -_Z_RANGE, _Z_RANGE, tol * eta, 1.0, budget)
    lam = span * math.exp(-z)
    beta = top - lam * b
    if sign < 0.0:
        beta = max(beta, math.nextafter(top, math.inf))
    mass = float(wd.sum())
    return WorstMean(top + lam * (eta - b + ef), wd / mass, mass,
                     False, lam, beta, (z, xb), None)


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


@dataclass(frozen=True)
class SolverConfig:
    grad_tol: float = 1e-9

    def __post_init__(self):
        if not (0.0 < self.grad_tol < 1e-3):
            raise ValidationError(f"grad_tol must lie in (0, 1e-3), got {self.grad_tol!r}")


@dataclass(frozen=True)
class BoundResult:
    """A solved bound: value, certificate point, worst-case weights, diagnostics.

    iterations counts root steps, outer (nu) plus inner (the worst-case mean).
    """

    value: float
    dual_point: DualPoint
    tilt: TiltResult
    diagnostics: Diagnostics
    status: str
    iterations: int


def _worst_mean_kernel(family: FDivergenceFamily, parameterization: str):
    if parameterization not in ("auto", "generic"):
        raise ValidationError(
            f"parameterization must be 'auto' or 'generic', got {parameterization!r}"
        )
    if parameterization == "generic":
        return _general_mean
    return _kl_mean if family.kind == KL else _alpha_mean


def _dual_point(nu, u, inner, data, p, family) -> DualPoint:
    """The full dual point behind an inner solve, with lam held at the floor
    on the boundary and a beta there at which the tilt is finite."""
    lam = max(inner.lam, _LAMBDA_FLOOR)
    if lam == inner.lam:
        beta = inner.beta
    elif family.kind == KL:
        beta = kl_optimal_beta(lam, nu, data, p)
    else:
        beta = _wall_beta(u, p.weights, family, lam)
    return DualPoint(lam, beta, nu)


def _solve(data, p, family, eta, cfg, worst_mean, start=None):
    """The outer root in nu on validated inputs, with no certificate.

    start = (nu0, z0) seeds the outer root at nu0 (clipped to the bracket) and
    the kernel's first inner root at z0; None starts from 2*E_P[phi] and the
    kernel's own guess.  Returns (value, nu, u, inner, state, steps): the dual
    value, nu, the payoff and the worst-case-mean solve behind it, the outer
    root's state and the root steps taken, outer plus inner.
    """
    phi, w = data.phi, p.weights
    budget = Budget(_MAX_STEPS)
    inner_tol = _INNER_TOL_RATIO * cfg.grad_tol
    lo, hi = 2.0 * float(phi.min()), 2.0 * float(phi.max())
    scale = (hi - lo) / 2.0
    nu0, z = (2.0 * float(np.dot(w, phi)), None) if start is None else start
    best = None

    def outer(nu):
        nonlocal z, best
        u = _payoff(data, nu)
        m = worst_mean(u, w, family, eta, inner_tol, budget, z)
        z = m.start
        at = (nu * nu / 4.0 + m.value, nu, u, m)
        if best is None or at[0] < best[0]:
            best = at
        g = nu / 2.0 - float(np.dot(m.q, phi))
        if m.boundary:
            return g, 0.5, at
        if m.curv is None:
            return g, None, at
        weights, factor = m.curv
        return g, 0.5 + factor * _curvature(weights, u, phi), at

    # near the float range the moments of u and phi overflow; _root's
    # bisection and growth steps handle the inf and nan evaluations
    with np.errstate(over="ignore", invalid="ignore"):
        if lo == hi:
            # phi is constant, so Var_Q[phi] = 0 and G vanishes at nu = 2*phi
            state, last = ROOT, outer(lo)[2]
        else:
            nu0 = min(max(nu0, lo), hi)
            _, state, last = _root(outer, nu0, lo, hi, cfg.grad_tol * scale, scale, budget)
    # at a root the last point meets the criterion; otherwise keep the lowest
    # certified value evaluated
    value, nu, u, inner = last if state == ROOT else best
    return value, nu, u, inner, state, budget.used


def _status(state: str, inner: WorstMean) -> str:
    if state == SPENT:
        return MAX_ITERS
    if state == ROOT and not inner.boundary:
        return CONVERGED
    return BOUNDARY_LAMBDA


def variance_bound(
    data: ProblemData,
    p: EmpiricalMeasure,
    family: FDivergenceFamily,
    eta: float,
    config: SolverConfig | None = None,
    parameterization: str = "auto",
) -> BoundResult:
    """Solve the dual for sup { E_Q[rho] + Var_Q[phi] : D_f(Q,P) <= eta }.

    parameterization="auto" computes the worst-case mean with the family's
    closed-form reduction; "generic" solves it from the conjugate alone, for
    cross-checks.  Both share the outer root in nu.
    """
    cfg = config or SolverConfig()
    check_lengths(data, p)
    check_eta(eta, family)
    worst_mean = _worst_mean_kernel(family, parameterization)
    value, nu, u, inner, state, steps = _solve(data, p, family, eta, cfg, worst_mean)
    status = _status(state, inner)
    weights = inner.q * inner.mass
    return BoundResult(
        value=value,
        dual_point=_dual_point(nu, u, inner, data, p, family),
        tilt=TiltResult(weights),
        diagnostics=_certificate(weights, p, data.phi, nu, family,
                                 status == BOUNDARY_LAMBDA),
        status=status,
        iterations=steps,
    )


def mean_bound(
    values,
    p: EmpiricalMeasure,
    family: FDivergenceFamily,
    eta: float,
    config: SolverConfig | None = None,
) -> BoundResult:
    """Solve the dual for sup { E_Q[values] : D_f(Q,P) <= eta }.

    This is the variance problem with phi identically zero: the bracket for
    nu collapses to 0, so one worst-case mean solve at nu = 0 settles it and
    the mean-condition diagnostic is identically zero.
    """
    v = np.atleast_1d(np.asarray(values, dtype=float))
    data = ProblemData(rho=v, phi=np.zeros_like(v))
    return variance_bound(data, p, family, eta, config=config)
