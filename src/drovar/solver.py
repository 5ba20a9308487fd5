"""Nested 1-D solver for the dual bound problems.

The primal objective is concave in Q over a convex compact ball, so by Sion's
theorem

    sup_Q E_Q[rho] + Var_Q[phi] = min_nu F(nu),  F(nu) = nu^2/4 + M_f(psi - nu*phi),

with psi = rho + phi^2 and M_f(u) = sup { E_Q[u] : D_f(Q, P) <= eta } the
worst-case mean.  F is 1/2-strongly convex; by Danskin's theorem its
derivative is G(nu) = nu/2 - E_{Q*}[phi], Q* the worst case of M_f, so G is
increasing and its root lies in [2 min phi, 2 max phi].  The outer loop finds
that root by safeguarded Newton steps, with G' from the curvature of M_f.
Each outer step decides the boundary by one rule for every kernel: with
P_A = P conditioned on A = argmax u, if max u = min u or
D_f(P_A || P) - eta <= inner_tol*eta, P_A is the worst case and
M_f(u) = max u, the lam -> 0 end of the dual.  Otherwise one monotone 1-D
root in this module's kernel for the family (KL or alpha) gives M_f,
warm-started from the previous evaluation.  Every evaluated F is a certified
dual value; the tilt, its certificate and the dual point (lam = 0 on the
boundary) are the worst case's at the final nu.  Every root runs _root, which
returns (x, state, at): where it stopped, why, and the evaluation there.
_Evaluation is one evaluation of F on the atoms of P, with no certificate:
variance_bound validates, runs the outer root on it and certifies the result,
and robust_minimize's joint search in (x, nu) calls it once per point.

Every evaluation writes its n-sized intermediates (the payoff u, the kernel's
per-atom terms, the curvature's residuals) into one scratch block that
_Evaluation allocates once, so that at 10^5 atoms the evaluations do not map
fresh pages each time.  What outlives an evaluation is a fresh
array: the worst-case weights WorstMean.q and every array of a BoundResult.

parameterization="generic" keeps the outer loop and its boundary rule and
swaps the kernel: it minimizes lam*eta + beta + lam*E_P[f*((u - beta)/lam)]
by two nested secant roots on conj_eval and conj_deriv alone, with no closed
form, so it cross-checks the family kernels.

Every stopping test is relative to the instance's own scale: |G| to the range
of phi, the inner roots to eta or to their dimensionless derivative.  The
statuses:

    Converged       |G(nu)| <= grad_tol * (max phi - min phi)
    BoundaryLambda  the boundary rule held at the final nu, so M_f(u) = max u
                    is the lam -> 0 limit of the dual; or the outer bracket
                    closed on a jump of G, a kink of F where atoms of u tie
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
)
from .dual_core import Diagnostics, DualPoint, TiltResult, _certificate, _payoff
from .errors import ValidationError
from .measures import EmpiricalMeasure, ProblemData, check_lengths

# perfbench/spans.py wraps these names in this module to time the dual-core
# layer, but the nested solve calls none of them; they go when the spans stop
# naming them (ROADMAP item 3).
alpha_reduced_objective = dual_objective_variance = kl_optimal_beta = None
kl_reduced_objective = optimality_diagnostics = tilt = None
kl_reduced_gradient = alpha_reduced_gradient = alpha_inner_lambda = _capped_gradient = None

CONVERGED = "Converged"
BOUNDARY_LAMBDA = "BoundaryLambda"
MAX_ITERS = "MaxIters"

# The inner roots stop three decades inside the outer tolerance, so their
# error does not move G by more than a small share of grad_tol.
_INNER_TOL_RATIO = 1e-3
# Root steps one solve may take, outer plus inner.
_MAX_STEPS = 10000


# ---------------------------------------------------------------------------
# The worst-case mean M_f(u) = sup { E_Q[u] : D_f(Q, P) <= eta }
#
# A kernel gets _split's top = max u, v = u - top and span = max u - min u
# where the outer loop's rule finds no boundary.  There each family's dual
# reduces to one increasing 1-D function, solved in a dimensionless log
# coordinate z:
#
#   kl     t = 1/lam = exp(z)/span:  KL(omega_t || P) - eta, omega_t ~ p*exp(t*u)
#   alpha  beta = top - sg*d, d = exp(z)*span, sg = sign(alpha-1), k = alpha/(alpha-1):
#          sg times the beta-derivative of beta + sg*C*E_P[(sg*(u - beta))_+^k]^(1/k),
#          C = (1 + alpha(alpha-1)eta)^(1/alpha); for alpha < 1, k < 0 and beta > max u

ROOT = "root"
STALLED = "stalled"
SPENT = "spent"

_Z_RANGE = 500.0  # exp(+-500) keeps every scaled coordinate finite and nonzero

# The scratch block of a solve: row 0 holds u, and the kernel gets the list of
# rows 1-5 as its rows[0:5], with v in rows[0] (_split); _curvature reuses
# rows[0:3] after the kernel returns, so a kernel keeps its curv arrays out of
# them.  One block, not an array per row: glibc returns freed arrays of 10^5
# atoms to the OS and the next evaluation faults them in again, while a block
# this size, once freed, raises glibc's mmap and trim thresholds so later
# solves reuse its heap (scripts/bench.py records the faults per solve).
_SCRATCH_ROWS = 6


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
    boundary  the outer loop's rule holds: q is P conditioned on argmax u
    lam, beta the dual point at the root (lam = 0 on the boundary)
    start     the root coordinate, to warm-start the next solve
    curv      (c, k) such that the second derivative of M_f along h is
              k * sum_i c_i r_i^2, r the c-weighted residual of h on (1, u);
              None when the kernel does not know it.  c may be a scratch row,
              valid until the next evaluation
    """

    value: float
    q: np.ndarray
    mass: float
    boundary: bool
    lam: float
    beta: float
    start: object
    curv: tuple | None


def _split(u: np.ndarray, w: np.ndarray, out: np.ndarray):
    """top = max u, v = u - top (into out), span = max u - min u, the mask of
    A = argmax u, P(A)."""
    top = float(u.max())
    v = np.subtract(u, top, out=out)
    span = -float(v.min())
    if not math.isfinite(span):
        raise ValidationError("the payoff rho + phi*(phi - nu) overflows the float range")
    on_top = v == 0.0
    return top, v, span, on_top, float(w[on_top].sum())


def _top_divergence(family: FDivergenceFamily, pa: float) -> float:
    """D_f(P_A || P) = pa*f(1/pa) + (1 - pa)*f(0), P_A = P conditioned on a set
    of mass pa: the least radius whose ball holds P_A."""
    if family.kind == KL:
        return -math.log(pa)
    a = family.alpha
    return math.expm1(min((1.0 - a) * math.log(pa), EXP_ARG_CAP)) / (a * (a - 1.0))


def _first_z(v, w, eta, root_of, tmp) -> float:
    """A starting log coordinate from the small-radius (chi-square) limit,
    where the worst case tilts P by sqrt(2*eta)/sd along u: root_of(m, r)
    maps m = E_P[v] and r = sd_P(v)/sqrt(2*eta) to the kernel's scaled root.
    tmp is a scratch row."""
    m = float(np.dot(w, v))
    dev = np.subtract(v, m, out=tmp)
    sd = math.sqrt(float(np.dot(w, np.square(dev, out=dev))))
    x = root_of(m, sd / math.sqrt(2.0 * eta)) if sd > 0.0 else 1.0
    # at huge scales the moments overflow and x is 0, inf or nan: start at 0
    return math.log(x) if 0.0 < x < math.inf else 0.0


def _cexp(x: float) -> float:
    return math.exp(min(x, EXP_ARG_CAP))


def _kl_mean(top, v, span, w, family, eta, tol, budget, start, rows) -> WorstMean:
    """M_f(u) for KL: the root in t of KL(omega_t || P) = eta, where the
    dual value is lam*eta + lam*log E_P[exp(u/lam)] at lam = 1/t."""
    v2 = np.multiply(v, v, out=rows[1])

    def fn(z):
        t = math.exp(z) / span
        we = np.multiply(v, t, out=rows[2])
        np.multiply(w, np.exp(we, out=we), out=we)
        e = float(we.sum())
        m1 = float(np.dot(we, v)) / e
        m2 = float(np.dot(we, v2)) / e
        return t * m1 - math.log(e) - eta, t * t * (m2 - m1 * m1), (t, we, e)

    if start is None:
        start = _first_z(v, w, eta, lambda m, r: span / r, rows[3])
    z, _, (t, we, e) = _root(fn, start, -_Z_RANGE, _Z_RANGE, tol * eta, 1.0, budget)
    lam = span * math.exp(-z)
    log_e = math.log(e)
    q = we / e
    return WorstMean(top + lam * (eta + log_e), q, 1.0, False, lam,
                     top + lam * (log_e - 1.0), z, (q, t))


def _alpha_mean(top, v, span, w, family, eta, tol, budget, start, rows) -> WorstMean:
    """M_f(u) for an alpha family: with sg = sign(alpha - 1) and
    k = alpha/(alpha - 1), the minimum over beta = top - sg*d, d > 0, of
    beta + sg*C*E_P[(sg*(u - beta))_+^k]^(1/k)."""
    a = family.alpha
    sg = 1.0 if a > 1.0 else -1.0
    k = a / (a - 1.0)
    big_d = 1.0 + a * (a - 1.0) * eta
    log_c = math.log(big_d) / a
    vs = np.divide(v, span, out=rows[1])
    # for alpha < 1 the density rho^(k-1) is 1 on A and about exp(z/(1-alpha))
    # elsewhere, so a light top atom puts the root near (1-alpha)*log(min w):
    # the bracket reaches twice that, as far as exp(-z) stays finite
    z_lo = max(min(-_Z_RANGE, 2.0 * (1.0 - a) * math.log(float(w.min()))), -EXP_ARG_CAP)

    def fn(z):
        # rho = (sg*(u - beta))_+ / d is 1 on A, >= 1 for alpha < 1; ck = C*E_P[rho^k]^(1/k)
        d = math.exp(z) * span
        rho = np.multiply(vs, sg * math.exp(-z), out=rows[2])
        np.add(rho, 1.0, out=rho)
        if sg > 0.0:
            np.maximum(rho, 0.0, out=rho)
        wr1 = np.multiply(w, np.power(rho, k - 1.0, out=rows[3]), out=rows[3])
        wr2 = rows[4]
        if sg > 0.0:
            wr2.fill(0.0)
            np.divide(wr1, rho, out=wr2, where=rho > 0.0)
        else:
            np.divide(wr1, rho, out=wr2)
        s1, sk, s2 = float(wr1.sum()), float(np.dot(wr1, rho)), float(wr2.sum())
        ck = _cexp(log_c + math.log(sk) / k)
        return (sg * (ck * s1 / sk - 1.0), sg * (k - 1.0) * ck * (s2 / sk - (s1 / sk) ** 2),
                (d, wr1, wr2, s1, sk, ck))

    if start is None:
        start = _first_z(v, w, eta, lambda m, r: (r / abs(a - 1.0) - sg * m) / span, rows[2])
    z, _, (d, wr1, wr2, s1, sk, ck) = _root(fn, start, z_lo, _Z_RANGE, tol, 1.0, budget)
    if d == 0.0:
        # a light top atom puts the root near (1-alpha)*log(min w), where
        # exp(z)*span is below the smallest float for a tiny span
        raise ValidationError("the scale of rho + phi*(phi - nu) is too small: "
                              "|beta - max u| underflows to 0")
    beta = top - d if sg > 0.0 else max(top + d, math.nextafter(top, math.inf))
    if not math.isfinite(beta):
        raise ValidationError("beta overflows: rho + phi*(phi - nu) nears the float range")
    # the curvature factor divides by d and s1 in turn: their product can underflow
    return WorstMean(top + sg * d * (ck - 1.0), wr1 / s1, ck * s1 / sk, False,
                     abs(a - 1.0) * d * ck / big_d, beta, z,
                     (wr2, 1.0 / (abs(a - 1.0) * d) / s1))


def _general_mean(top, v, span, w, family, eta, tol, budget, start, rows) -> WorstMean:
    """M_f(u) from lam*eta + beta + lam*E_P[f*((u - beta)/lam)] alone, by two
    nested secant roots on conj_eval and conj_deriv: beta = top - b/t solves
    E_P[(f*)'(t*v + b)] = 1 at each t = 1/lam, and t solves D_f(Q_t || P) = eta.
    b = exp(x) > 0, or b = -exp(-x) < 0 when dom f* is y < 0 (alpha < 1)."""
    sign = -1.0 if math.isfinite(family.divergence_cap) else 1.0
    if start is None:
        start = (_first_z(v, w, eta, lambda m, r: span / r, rows[1]), 0.0)
    xb = start[1]  # b's log coordinate, warm-started across steps in t

    def fn(z):
        nonlocal xb
        t = math.exp(z) / span
        tv = t * v

        def normalization(x):
            b = sign * math.exp(sign * x)
            y = tv + b
            dens = conj_deriv(family, y)
            return float(np.dot(w, dens)) - 1.0, None, (b, y, dens)

        xb, _, (b, y, dens) = _root(normalization, xb, -_Z_RANGE, _Z_RANGE, tol, 1.0, budget)
        ef = float(np.dot(w, conj_eval(family, y)))
        wd = w * dens
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


def _curvature(c: np.ndarray, u: np.ndarray, h: np.ndarray, rows) -> float:
    """sum_i c_i r_i^2, r the c-weighted least-squares residual of h on (1, u),
    with rows[0:3] as scratch."""
    total = float(c.sum())
    du = np.subtract(u, float(np.dot(c, u)) / total, out=rows[0])
    dh = np.subtract(h, float(np.dot(c, h)) / total, out=rows[1])
    cu = np.multiply(c, du, out=rows[2])
    suu, suh = float(np.dot(cu, du)), float(np.dot(cu, dh))
    shh = float(np.dot(np.multiply(c, dh, out=cu), dh))
    return shh - suh * suh / suu if suu > 0.0 else shh


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


class _Evaluation:
    """F(nu) = nu^2/4 + M_f(u), u = rho + phi*(phi - nu), on the atoms of p.

    A call applies the boundary rule or else runs the kernel, warm-started
    from the previous call's root, and returns (F, m, F'', G): m the
    worst-case-mean solve behind F, F'' = 1/2 + the curvature of M_f along
    phi, or None where the kernel gives no curvature, and by Danskin's
    theorem G = dF/dnu = nu/2 - E_Q[phi], Q = m.q.  u and rows are its
    scratch block.  The kernel's root steps count in budget, or without one
    in a Budget(_MAX_STEPS) of the call's own.
    """

    def __init__(self, p, family, eta, cfg, parameterization):
        if parameterization not in ("auto", "generic"):
            raise ValidationError(
                f"parameterization must be 'auto' or 'generic', got {parameterization!r}"
            )
        self.worst_mean = (_general_mean if parameterization == "generic"
                           else _kl_mean if family.kind == KL else _alpha_mean)
        self.w, self.family, self.eta = p.weights, family, eta
        self.tol = _INNER_TOL_RATIO * cfg.grad_tol
        self.u, *self.rows = np.empty((_SCRATCH_ROWS, len(self.w)))
        self.z = None

    def __call__(self, data, nu, budget=None):
        w, eta = self.w, self.eta
        top, v, span, on_top, pa = _split(_payoff(data, nu, out=self.u), w, self.rows[0])
        if span == 0.0 or _top_divergence(self.family, pa) - eta <= self.tol * eta:
            m = WorstMean(top, np.where(on_top, w / pa, 0.0), 1.0, True, 0.0, top, self.z, None)
        else:
            m = self.worst_mean(top, v, span, w, self.family, eta, self.tol,
                                budget or Budget(_MAX_STEPS), self.z, self.rows)
        self.z = m.start
        value, grad = nu * nu / 4.0 + m.value, nu / 2.0 - float(np.dot(m.q, data.phi))
        if m.boundary or m.curv is None:
            return value, m, 0.5 if m.boundary else None, grad
        weights, factor = m.curv
        return value, m, 0.5 + factor * _curvature(weights, self.u, data.phi, self.rows), grad


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
    evaluate = _Evaluation(p, family, eta, cfg, parameterization)
    phi = data.phi
    lo, hi = 2.0 * float(phi.min()), 2.0 * float(phi.max())
    scale = (hi - lo) / 2.0
    budget, best = Budget(_MAX_STEPS), None

    def outer(nu):
        nonlocal best
        value, m, d2, grad = evaluate(data, nu, budget)
        at = (value, nu, m)
        if best is None or value < best[0]:
            best = at
        return grad, d2, at

    # near the float range the moments of u and phi overflow; _root's
    # bisection and growth steps handle the inf and nan evaluations
    with np.errstate(over="ignore", invalid="ignore"):
        if lo == hi:
            # phi is constant, so Var_Q[phi] = 0 and G vanishes at nu = 2*phi
            state, last = ROOT, outer(lo)[2]
        else:
            _, state, last = _root(outer, 2.0 * float(np.dot(p.weights, phi)), lo, hi,
                                   cfg.grad_tol * scale, scale, budget)
    # at a root the last point meets the criterion; otherwise keep the lowest
    # certified value evaluated
    value, nu, inner = last if state == ROOT else best
    status = _status(state, inner)
    weights = inner.q * inner.mass
    return BoundResult(
        value=value,
        dual_point=DualPoint(inner.lam, inner.beta, nu),
        tilt=TiltResult(weights),
        diagnostics=_certificate(weights, p, data.phi, nu, family,
                                 status == BOUNDARY_LAMBDA),
        status=status,
        iterations=budget.used,
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
