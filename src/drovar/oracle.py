"""Brute-force primal oracle: grid maximization of E_Q[rho] + Var_Q[phi] over
the divergence ball, for 2- or 3-atom problems only.

The oracle shares no dual machinery: it evaluates the primal objective and
the divergence constraint directly on simplex grids.  One refinement loop
serves both sizes: it grids the n - 1 free coordinates q_1..q_{n-1}, sets
q_n = 1 - their sum, and refines a shrinking window around the incumbent
(shrink capped at factor 100 per round).  The window is never shrunk past
the bounding box of the near-best feasible grid points: when the maximizer
sits on the curved constraint boundary, the near-optimal level set is an arc
of length ~ sqrt(spacing), so a fixed zoom around the single best point
routinely loses the true argmax.  Because the objective is concave and the
ball convex, that level set is connected and its bounding box brackets the
maximizer.  Ties on a grid break toward the smaller first coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .divergences import FDivergenceFamily, check_eta, f_eval
from .errors import UnsupportedSizeError, ValidationError
from .measures import EmpiricalMeasure, ProblemData, check_lengths, mean_var_of

_DEFAULT_GRID = {2: 4001, 3: 1201}
_ZOOM = 100.0
_ARGMAX_FLOOR = 1e-12


@dataclass(frozen=True)
class OracleConfig:
    """grid_per_dim counts grid points per free axis (default 4001 for n = 2,
    1201 for n = 3), so one n = 3 round evaluates grid_per_dim**2 points;
    refine_rounds counts the zoomed rounds after the first full grid."""

    grid_per_dim: int | None = None
    refine_rounds: int = 3

    def __post_init__(self):
        if self.grid_per_dim is not None and self.grid_per_dim < 101:
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


def _divergence_batch(cols, p: np.ndarray,
                      family: FDivergenceFamily) -> np.ndarray:
    """D_f(q, p) at every grid point; cols[k] holds q_k across the grid
    (the columns may be any shapes that broadcast together)."""
    return _column_sum([f_eval(family, col / pk) for col, pk in zip(cols, p)], p)


def _value_batch(cols, data: ProblemData) -> np.ndarray:
    """E_q[rho + phi^2] - E_q[phi]^2 at every grid point, from the per-atom columns."""
    m1 = _column_sum(cols, data.phi)
    return _column_sum(cols, data.psi) - m1 * m1


def _argmax_measure(q: np.ndarray) -> EmpiricalMeasure:
    # exact-boundary grid points carry zero atoms; nudge them inside so the
    # strictly-positive measure type can hold the argmax
    w = np.maximum(q, _ARGMAX_FLOOR)
    return EmpiricalMeasure(w / math.fsum(memoryview(w)))


def primal_sup_grid(
    data: ProblemData,
    p: EmpiricalMeasure,
    family: FDivergenceFamily,
    eta: float,
    config: OracleConfig | None = None,
) -> tuple[float, EmpiricalMeasure]:
    """Grid maximum of the primal objective over { q : D_f(q, p) <= eta }.

    Returns (value, argmax).  Only 2- or 3-atom problems are supported.
    """
    cfg = config or OracleConfig()
    check_lengths(data, p)
    check_eta(eta, family)
    n = len(p)
    if n not in (2, 3):
        raise UnsupportedSizeError(
            f"the grid oracle handles 2 or 3 atoms, got {n}"
        )
    g = cfg.grid_per_dim or _DEFAULT_GRID[n]
    return _sup_grid(data, p, family, eta, g, cfg.refine_rounds)


def _value_slack(data: ProblemData, spacing: float) -> float:
    """Value band that one grid spacing can hide: spacing times a sup-norm
    bound on the objective gradient rho + phi^2 - 2 E_q[phi] phi."""
    lip = float(np.max(np.abs(data.psi))
                + 2.0 * np.max(np.abs(data.phi)) ** 2)
    return 4.0 * spacing * max(lip, 1e-12)


def _sup_grid(data, p, family, eta, g, rounds):
    """Grid search over the k = n - 1 free coordinates q_1..q_k, with
    q_n = 1 - their sum; each round shrinks the window around the incumbent."""
    k = len(p) - 1
    win = [(0.0, 1.0)] * k
    others = [tuple(a for a in range(k) if a != i) for i in range(k)]
    best_v = -math.inf
    best_t = None
    for _ in range(rounds + 1):
        axes = [np.linspace(lo, hi, g) for lo, hi in win]
        spacing = max(hi - lo for lo, hi in win) / (g - 1)
        # q_i varies along grid axis i only, so the free columns stay 1-d
        # views that broadcast; only q_n is a full grid
        free = [t.reshape((g,) + (1,) * (k - 1 - i)) for i, t in enumerate(axes)]
        cols = (*free, np.maximum(reduce(np.subtract, free, 1.0), 0.0))
        feas = ((_divergence_batch(cols, p.weights, family) <= eta)
                & (reduce(np.add, free) <= 1.0 + 1e-12))
        near_box = None
        if feas.any():
            vals = np.where(feas, _value_batch(cols, data), -math.inf)
            idx = np.unravel_index(int(np.argmax(vals)), vals.shape)
            if vals[idx] > best_v:
                best_v = float(vals[idx])
                best_t = [float(t[j]) for t, j in zip(axes, idx)]
            near = vals >= vals[idx] - _value_slack(data, spacing)
            near_box = [(float(ts.min()), float(ts.max()))
                        for ts in (t[near.any(axis=o)] for t, o in zip(axes, others))]
        center = best_t if best_t is not None else [float(w) for w in p.weights[:k]]
        new_win = []
        for i in range(k):
            half = (win[i][1] - win[i][0]) / (2.0 * _ZOOM)
            lo, hi = center[i] - half, center[i] + half
            if near_box is not None:
                # never shrink past the near-best level set: the maximizer
                # hides anywhere inside it, two spacings of margin cover the
                # gridding
                lo = min(lo, near_box[i][0] - 2.0 * spacing)
                hi = max(hi, near_box[i][1] + 2.0 * spacing)
            new_win.append((max(0.0, lo), min(1.0, hi)))
        win = new_win
    if best_t is None:
        raise ValidationError("no feasible grid point found")
    q = np.array([*best_t, max(reduce(np.subtract, best_t, 1.0), 0.0)])
    return best_v, _argmax_measure(q)
