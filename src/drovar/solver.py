"""Nested 1-D solver for the dual bound problems.

The primal objective is concave in Q over a convex compact ball, so by Sion's
theorem

    sup_Q E_Q[rho] + Var_Q[phi] = min_nu F(nu),  F(nu) = nu^2/4 + M_f(psi - nu*phi),

with psi = rho + phi^2 and M_f(u) = sup { E_Q[u] : D_f(Q, P) <= eta } the
worst-case mean.  F is 1/2-strongly convex; by Danskin's theorem its
derivative is G(nu) = nu/2 - E_{Q*}[phi], Q* the worst case of M_f, so G is
increasing and its root lies in [2 min phi, 2 max phi].  The outer loop finds
that root by safeguarded Newton steps, with G' from the curvature of M_f.
Each outer step computes M_f by one monotone 1-D root per family
(dual_core's worst-case mean kernels), warm-started from the previous outer
iterate of the same solve.  Every evaluated F is a certified dual value.

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
    MaxIters        max_iters root steps, outer plus inner, ran out
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergences import KL, FDivergenceFamily
from .dual_core import (
    ROOT,
    SPENT,
    Budget,
    Diagnostics,
    DualPoint,
    TiltResult,
    _alpha01_mean,
    _alpha_mean,
    _curvature,
    _general_mean,
    _kl_mean,
    _payoff,
    _root,
    _wall_beta,
    check_eta,
    kl_optimal_beta,
    optimality_diagnostics,
    tilt,
)
# perfbench/spans.py wraps these names in this module to time the dual-core
# layer, so they stay importable from here although the nested solve no
# longer calls most of them.
from .dual_core import (  # noqa: F401
    alpha_inner_lambda,
    alpha_reduced_gradient,
    alpha_reduced_objective,
    dual_objective_variance,
    gradient_variance,
    kl_reduced_gradient,
    kl_reduced_objective,
)
from .divergences import conj_deriv, conj_eval  # noqa: F401
from .errors import ValidationError
from .measures import EmpiricalMeasure, ProblemData, check_lengths

# Kept for perfbench/spans.py, which wraps this name as the old generic
# path's gradient kernel; nothing calls it.
_capped_gradient = gradient_variance

CONVERGED = "Converged"
BOUNDARY_LAMBDA = "BoundaryLambda"
MAX_ITERS = "MaxIters"

# The inner roots stop three decades inside the outer tolerance, so their
# error does not move G by more than a small share of grad_tol.
_INNER_TOL_RATIO = 1e-3


@dataclass(frozen=True)
class SolverConfig:
    grad_tol: float = 1e-9
    max_iters: int = 10000
    lambda_floor: float = 1e-12

    def __post_init__(self):
        if not (0.0 < self.grad_tol < 1e-3):
            raise ValidationError(f"grad_tol must lie in (0, 1e-3), got {self.grad_tol!r}")
        if self.max_iters < 1:
            raise ValidationError("max_iters must be at least 1")
        if not (0.0 < self.lambda_floor < 1e-6):
            raise ValidationError(
                f"lambda_floor must lie in (0, 1e-6), got {self.lambda_floor!r}"
            )


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
    if family.kind == KL:
        return _kl_mean
    return _alpha_mean if family.alpha > 1.0 else _alpha01_mean


def _dual_point(nu, u, inner, data, p, family, cfg) -> DualPoint:
    """The full dual point behind an inner solve, with lam held at the floor
    on the boundary and a beta there at which the tilt is finite."""
    lam = max(inner.lam, cfg.lambda_floor)
    if lam == inner.lam:
        beta = inner.beta
    elif family.kind == KL:
        beta = kl_optimal_beta(lam, nu, data, p)
    else:
        beta = _wall_beta(u, p.weights, family, lam)
    return DualPoint(lam, beta, nu)


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
    phi, w = data.phi, p.weights
    budget = Budget(cfg.max_iters)
    inner_tol = _INNER_TOL_RATIO * cfg.grad_tol
    lo, hi = 2.0 * float(phi.min()), 2.0 * float(phi.max())
    scale = (hi - lo) / 2.0
    start = None
    last = best = None

    def outer(nu):
        nonlocal start, last, best
        u = _payoff(data, nu)
        m = worst_mean(u, w, family, eta, inner_tol, budget, start)
        start = m.start
        last = (nu * nu / 4.0 + m.value, nu, u, m)
        if best is None or last[0] < best[0]:
            best = last
        g = nu / 2.0 - float(np.dot(m.q, phi))
        if m.boundary:
            return g, 0.5
        if m.curv is None:
            return g, None
        weights, factor = m.curv
        return g, 0.5 + factor * _curvature(weights, u, phi)

    if lo == hi:
        # phi is constant, so Var_Q[phi] = 0 and G vanishes at nu = 2*phi
        outer(lo)
        state = ROOT
    else:
        nu0 = min(max(2.0 * float(np.dot(w, phi)), lo), hi)
        _, state = _root(outer, nu0, lo, hi, cfg.grad_tol * scale, scale, budget)
    # at a root the last point meets the criterion; otherwise keep the lowest
    # certified value evaluated
    value, nu, u, inner = last if state == ROOT else best
    if state == SPENT:
        status = MAX_ITERS
    elif state == ROOT and not inner.boundary:
        status = CONVERGED
    else:
        status = BOUNDARY_LAMBDA
    dp = _dual_point(nu, u, inner, data, p, family, cfg)
    return BoundResult(
        value=value,
        dual_point=dp,
        tilt=tilt(dp, data, p, family),
        diagnostics=optimality_diagnostics(
            dp, data, p, family, eta, boundary=status == BOUNDARY_LAMBDA
        ),
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
