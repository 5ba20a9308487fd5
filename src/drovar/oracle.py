"""Primal oracle: the sup of E_Q[rho] + Var_Q[phi] over the divergence ball,
for 2- or 3-atom problems only, by exact 1-D slices.

The oracle shares no dual machinery: it evaluates the primal objective and
the divergence (through f_eval) directly.  A slice fixes every weight but the
last two, which are q_a = s and q_b = R - s.  On a slice the divergence is
convex in s with its minimum at s* = p_a R/(p_a + p_b), so the feasible s
form an interval [lo, hi] around s*.  The objective is a concave quadratic
in s, so its maximum over that interval is its unconstrained maximizer
clipped to [lo, hi]; the clip reaches lo only from below s* and hi only from
above, so `_ends` finds just that end, by a bracketed Newton root.

n = 2 is a single slice, R = 1.  For n = 3 the slice fixes q_1 = t.  The
slice maximum h(t) is concave (a jointly concave function maximized over the
slices of a convex set), so its maximizer lies within one spacing of the
best point of a t-grid; each refinement round regrids those two spacings.
By Jensen's inequality the feasible t are the set of the same kind with
weights (p_1, p_2 + p_3), so the first grid spans exactly them.

Every kept slice end has D_f <= eta as evaluated, so the value returned is
the objective at a feasible point.  Ties break toward the smaller first
coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergences import KL, FDivergenceFamily, check_eta, f_eval
from .errors import UnsupportedSizeError, ValidationError
from .measures import EmpiricalMeasure, ProblemData, _exact_sum, check_lengths, mean_var_of

_ARGMAX_FLOOR = 1e-12
_NEWTON_STEPS = 60
_RESIDUAL = 64.0 * np.finfo(float).eps  # per unit of divergence scale


@dataclass(frozen=True)
class OracleConfig:
    """grid_per_dim counts the t-grid points of a 3-atom problem;
    refine_rounds counts the rounds after the first that regrid the
    two spacings around the best t.  A 2-atom problem is one exact slice and
    uses neither."""

    grid_per_dim: int = 1201
    refine_rounds: int = 3

    def __post_init__(self):
        if self.grid_per_dim < 101:
            raise ValidationError(
                f"grid_per_dim must be at least 101, got {self.grid_per_dim!r}"
            )
        if self.refine_rounds < 0:
            raise ValidationError("refine_rounds must be nonnegative")


def primal_value(q: EmpiricalMeasure, data: ProblemData) -> float:
    """E_Q[rho] + Var_Q[phi] by direct weighted sums."""
    check_lengths(data, q)
    mean_rho, _ = mean_var_of(q, data.rho)
    _, var_phi = mean_var_of(q, data.phi)
    return mean_rho + var_phi


def _column_sum(cols, coefs) -> np.ndarray:
    """sum_k coefs[k] * cols[k], accumulated atom by atom."""
    total = cols[0] * coefs[0]
    for col, coef in zip(cols[1:], coefs[1:]):
        total = total + col * coef
    return total


def _value_batch(cols, data: ProblemData) -> np.ndarray:
    """E_q[rho + phi^2] - E_q[phi]^2 at every point, from the per-atom columns."""
    m1 = _column_sum(cols, data.phi)
    return _column_sum(cols, data.psi) - m1 * m1


def _argmax_measure(q: np.ndarray) -> EmpiricalMeasure:
    # slice ends on the simplex edge carry zero atoms; nudge them inside so
    # the strictly-positive measure type can hold the argmax
    w = np.maximum(q, _ARGMAX_FLOOR)
    return EmpiricalMeasure(w / _exact_sum(w))


def primal_sup_grid(
    data: ProblemData,
    p: EmpiricalMeasure,
    family: FDivergenceFamily,
    eta: float,
    config: OracleConfig | None = None,
) -> tuple[float, EmpiricalMeasure]:
    """Maximum of the primal objective over { q : D_f(q, p) <= eta }, by exact
    slices (over a refined t-grid for 3 atoms).

    Returns (value, argmax).  Only 2- or 3-atom problems are supported.
    """
    cfg = config or OracleConfig()
    check_lengths(data, p)
    check_eta(eta, family)
    n = len(p)
    if n not in (2, 3):
        raise UnsupportedSizeError(
            f"the primal oracle handles 2 or 3 atoms, got {n}"
        )
    w = p.weights
    if n == 2:
        (value,), (s,) = _slice_max(data, w, family, eta, ())
        value, q = float(value), np.array([s, 1.0 - s])
    else:
        value, q = _sup_slices(data, w, family, eta, cfg.grid_per_dim, cfg.refine_rounds)
    if value == -math.inf:
        raise ValidationError("no feasible point found")
    return value, _argmax_measure(q)


def _sup_slices(data, w, family, eta, g, rounds):
    """Max of h(t) over the feasible t, on a t-grid regridded `rounds` times
    around its best point: (value, q), value -inf when every slice is empty."""
    lo, hi = _ends(family, w[0], w[1] + w[2], np.ones(1), 0.0, eta, np.array([False, True]))
    best_v, best_q = -math.inf, None
    for _ in range(rounds + 1):
        t = np.linspace(lo, hi, g)
        vals, s = _slice_max(data, w, family, eta, (t,))
        i = int(np.argmax(vals))
        if vals[i] > best_v:
            best_v, best_q = float(vals[i]), np.array([t[i], s[i], (1.0 - t[i]) - s[i]])
        lo, hi = t[max(i - 1, 0)], t[min(i + 1, g - 1)]
    return best_v, best_q


def _slice_max(data, w, family, eta, head):
    """Maximum of the objective on each slice q = (*head, s, R - s), with
    R = 1 - sum(head): returns (values, s), -inf and nan on an empty slice.

    The divergence of the fixed weights is the base the slice's two atoms
    add to, so the feasibility test sums the atoms in index order."""
    k = len(head)
    R = 1.0 - head[0] if head else np.ones(1)
    base = w[0] * f_eval(family, head[0] / w[0]) if head else 0.0
    # E_q[phi] = m0 + s*dphi, m0 from the fixed weights and R at the last atom;
    # the objective's s-derivative is dpsi - 2*dphi*E_q[phi]
    m0 = _column_sum((*head, R), [*data.phi[:k], data.phi[k + 1]])
    dphi = data.phi[k] - data.phi[k + 1]
    dpsi = data.psi[k] - data.psi[k + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        if dphi != 0.0:
            s = (dpsi / (2.0 * dphi) - m0) / dphi
        else:
            s = np.full_like(R, math.inf if dpsi > 0.0 else -math.inf)
    # min(max(s, lo), hi) with lo <= s* <= hi: max(s, lo) where s <= s*, else min(s, hi)
    up = s > R * (w[k] / (w[k] + w[k + 1]))
    end = _ends(family, w[k], w[k + 1], R, base, eta, up)
    s = np.where(up, np.minimum(s, end), np.maximum(s, end))
    vals = _value_batch((*head, s, R - s), data)
    return np.where(np.isnan(s), -math.inf, vals), s


def _f_slope(family: FDivergenceFamily, x: np.ndarray) -> np.ndarray:
    """f'(x) for x >= 0: -inf at 0 for KL and alpha < 1."""
    if family.kind == KL:
        return np.log(x) + 1.0
    a = family.alpha
    return x ** (a - 1.0) / (a - 1.0)


def _f_curv(family: FDivergenceFamily, x: np.ndarray) -> np.ndarray:
    """f''(x) for x >= 0."""
    if family.kind == KL:
        return 1.0 / x
    return x ** (family.alpha - 2.0)


def _ends(family, pa, pb, R, base, eta, up):
    """One end of { s in [0, R] : (base + pa f(s/pa)) + pb f((R - s)/pb) <= eta },
    the upper where the bool array up is set and the lower elsewhere,
    elementwise over up broadcast with the array R and the scalar or array
    base; nan where the set is empty as evaluated.

    The left side D(s) is convex with its minimum at s* = pa R/(pa + pb), so
    each end is an edge of [0, R] or a root on its side of s*.  Each root
    keeps a bracket: a, where D - eta > 0, and b, where D - eta <= 0.  Newton
    steps start at the chi-square guess and run from the last point
    evaluated: a step from the feasible side lands on the infeasible side,
    and from there no step passes the root of a convex function.  A step
    that would not move (f' is -inf at the simplex edge for KL and
    alpha < 1) or leaves the bracket bisects instead.  Steps stop on the
    residual: once D - eta at a or b is within tol, a few roundings of the
    divergence's scale.  A chord step then moves b to within about tol of
    the root; b is the end kept, so every end is feasible as evaluated.
    """
    star = R * (pa / (pa + pb))
    edge = np.where(up, R, 0.0)

    def excess(s):
        return (base + pa * f_eval(family, s / pa)) + pb * f_eval(family, (R - s) / pb) - eta

    with np.errstate(all="ignore"):
        g_edge, g_star = excess(edge), excess(star)
        tol = _RESIDUAL * (1.0 + eta + np.abs(base))
        root = (g_edge > 0.0) & (g_star <= 0.0)
        busy = root.copy()
        a, ga, b, gb = edge, g_edge, star, g_star
        # first point: the chi-square guess, D(s) ~ D(s*) + D''(s*)(s - s*)^2/2
        curv = _f_curv(family, R / (pa + pb)) * (1.0 / pa + 1.0 / pb)
        side = np.sign(edge - star)
        x = star + side * np.sqrt(np.maximum(-2.0 * g_star / curv, 0.0))
        x = np.where(side * (x - edge) < 0.0, x, 0.5 * (edge + star))
        for _ in range(_NEWTON_STEPS):
            gx = excess(x)
            a, ga, b, gb = _narrow(busy, x, gx, a, ga, b, gb)
            busy &= np.minimum(ga, -gb) > tol
            if not busy.any():
                break
            step = x - gx / (_f_slope(family, x / pa) - _f_slope(family, (R - x) / pb))
            x = np.where((step - a) * (b - step) > 0.0, step, 0.5 * (a + b))
            busy &= (x != a) & (x != b)
        # the chord aims at D - eta = -tol, which clears the rounding in D (by
        # convexity D lies below the chord); b within tol of the root stays
        x = a + np.minimum((ga + tol) / (ga - gb), 1.0) * (b - a)
        _, _, b, _ = _narrow(root, x, excess(x), a, ga, b, gb)
    end = np.where(root, b, edge)
    return np.where(g_star <= 0.0, end, math.nan)


def _narrow(mask, x, gx, a, ga, b, gb):
    """Move the bracket end on x's side to x, where mask is set."""
    feas = gx <= 0.0
    to_b, to_a = mask & feas, mask & ~feas
    return (np.where(to_a, x, a), np.where(to_a, gx, ga),
            np.where(to_b, x, b), np.where(to_b, gx, gb))
