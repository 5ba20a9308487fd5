"""Distributionally robust portfolio layer: minimize the worst-case
mean-variance objective of returns <x, r> over a box or simplex of decisions.

For a decision x the inner problem uses rho = -<x, r> (negated return, so the
worst case penalizes low means) and phi = <x, r> (the return whose variance
is penalized).  The objective is convex in x, and the outer minimizer is a
deterministic spectral projected gradient method (Birgin, Martinez & Raydan
2000) on its Danskin gradient, which the inner solve's worst-case weights give.
The search's inner solves are warm-started from the previous one and build
no certificate; one cold, certified solve at the returned decision gives the
value it reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergences import FDivergenceFamily, check_eta
from .errors import ValidationError
from .measures import EmpiricalMeasure, ProblemData
from .solver import BoundResult, SolverConfig, _solve, _worst_mean_kernel, variance_bound

_MAX_SOLVES = 500
_STEP_TOL = 1e-9
_ARMIJO = 1e-4
_LAM_MIN, _LAM_MAX = 1e-10, 1e10


@dataclass(frozen=True)
class ScenarioMatrix:
    """Per-atom return rows (n x d) under an empirical scenario measure."""

    rows: np.ndarray
    weights: EmpiricalMeasure

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim == 1:
            rows = rows[:, None]
        if rows.ndim != 2 or rows.size == 0:
            raise ValidationError("rows must be a nonempty n x d matrix")
        if not np.all(np.isfinite(rows)):
            raise ValidationError("rows must be finite")
        if rows.shape[0] != len(self.weights):
            raise ValidationError(
                f"{rows.shape[0]} scenario rows for {len(self.weights)} weights"
            )
        rows = rows.copy()
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    def problem_for(self, x) -> ProblemData:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.size != self.dim:
            raise ValidationError(f"decision has {x.size} entries, expected {self.dim}")
        returns = self.rows @ x
        return ProblemData(rho=-returns, phi=returns)


@dataclass(frozen=True)
class Box:
    """Componentwise bounds lo <= x <= hi (degenerate intervals allowed)."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValidationError("lo and hi must be 1-d with the same shape")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValidationError("box bounds must be finite")
        if np.any(lo > hi):
            idx = int(np.argmax(lo > hi))
            raise ValidationError(f"empty box: lo[{idx}] > hi[{idx}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def start(self, dim: int) -> np.ndarray:
        """The center, for decisions with dim entries."""
        if self.lo.size != dim:
            raise ValidationError(f"box has {self.lo.size} coordinates, decisions have {dim}")
        return (self.lo + self.hi) / 2.0

    def project(self, x: np.ndarray) -> np.ndarray:
        """The nearest point of the box: x clipped coordinatewise."""
        return np.clip(x, self.lo, self.hi)


@dataclass(frozen=True)
class Simplex:
    """x >= 0, sum(x) = 1."""

    def start(self, dim: int) -> np.ndarray:
        """The barycenter."""
        return np.full(dim, 1.0 / dim)

    def project(self, x: np.ndarray) -> np.ndarray:
        """The Euclidean projection, by the sorted-threshold rule."""
        u = np.sort(x)[::-1]
        css = np.cumsum(u)
        idx = np.arange(1, x.size + 1)
        cond = u + (1.0 - css) / idx > 0.0
        k = int(np.nonzero(cond)[0][-1])
        theta = (1.0 - css[k]) / (k + 1)
        return np.maximum(x + theta, 0.0)


def robust_objective(
    x,
    scenarios: ScenarioMatrix,
    family: FDivergenceFamily,
    eta: float,
    config: SolverConfig | None = None,
) -> float:
    """Worst-case E_Q[-<x,r>] + Var_Q[<x,r>] over the divergence ball."""
    return robust_bound(x, scenarios, family, eta, config).value


def robust_bound(
    x,
    scenarios: ScenarioMatrix,
    family: FDivergenceFamily,
    eta: float,
    config: SolverConfig | None = None,
) -> BoundResult:
    """Full inner-solve record at the decision x."""
    data = scenarios.problem_for(x)
    return variance_bound(data, scenarios.weights, family, eta, config=config)


def robust_minimize(
    scenarios: ScenarioMatrix,
    constraint,
    family: FDivergenceFamily,
    eta: float,
    config: SolverConfig | None = None,
) -> tuple[np.ndarray, float]:
    """Monotone spectral projected gradient over the constraint set.

    F(x) = sup_Q E_Q[-<x,r>] + Var_Q[<x,r>] is a supremum of convex
    quadratics in x, so it is convex, and by Danskin's theorem its gradient
    at the worst case Q* of the inner solve is -E_Q*[r] + 2 Cov_Q*(r, <x,r>).
    Each iteration steps to the projection of a Barzilai-Borwein gradient
    step and backtracks along it (Armijo, safeguarded quadratic
    interpolation); the trial points are convex combinations of feasible
    points, so they stay feasible.  The search is monotone because F has a
    kink at x = 0, where every atom ties.

    Each inner solve but the first is warm-started from the previous one:
    the outer root from nu = 2*E_Q[<x,r>] under the previous worst case Q,
    the stationarity point of the dual in nu, and the worst-case mean from
    the previous root coordinate.  These solves build no certificate.

    Deterministic: fixed start (box center or simplex barycenter); stops when
    the projected step or the line-search step falls to 1e-9 in sup-norm, or
    after 500 warm inner solves.  One more, cold and certified, at the
    returned x gives the value, so it equals robust_objective(x) exactly.
    Returns (x, worst-case value at x).
    """
    x, res = _minimize(scenarios, constraint, family, eta, config)
    return x, res.value


def _minimize(scenarios, constraint, family, eta, config) -> tuple[np.ndarray, BoundResult]:
    """robust_minimize, returning the certified solve at x: (x, robust_bound(x, ...))."""
    cfg = config or SolverConfig()
    check_eta(eta, family)
    if not isinstance(constraint, (Box, Simplex)):
        raise ValidationError(f"unsupported constraint {constraint!r}")
    worst_mean = _worst_mean_kernel(family, "auto")
    rows, p = scenarios.rows, scenarios.weights
    last = None  # the previous inner solve's worst case and root coordinate

    def evaluate(x):
        nonlocal last
        data = scenarios.problem_for(x)
        xr = data.phi
        start = None if last is None else (2.0 * float(last[0] @ xr), last[1])
        value, _, inner, _, _ = _solve(data, p, family, eta, cfg, worst_mean, start)
        q = inner.q
        last = q, inner.start
        return value, -(q @ rows) + 2.0 * ((q * (xr - q @ xr)) @ rows)

    project = constraint.project
    x = _spg(project(constraint.start(scenarios.dim)), evaluate, project)
    return x, robust_bound(x, scenarios, family, eta, config)


def _spg(x, evaluate, project) -> np.ndarray:
    """The search loop of robust_minimize from the feasible x; evaluate(x)
    returns (F(x), gradient), project maps onto the constraint set.  Returns
    the last accepted point, or x if none was."""
    f, g = evaluate(x)
    solves = 1
    # first step: the projected gradient scaled to unit sup-norm
    first = float(np.max(np.abs(project(x - g) - x)))
    lam = min(max(1.0 / first, _LAM_MIN), _LAM_MAX) if first > 0.0 else 1.0
    while solves < _MAX_SOLVES:
        p = project(x - lam * g)
        d = p - x
        dnorm = float(np.max(np.abs(d)))
        if dnorm <= _STEP_TOL:
            break
        slope = float(g @ d)
        a = 1.0
        # the full step lands on the projection itself, exactly feasible
        trial = p
        while True:
            f_t, g_t = evaluate(trial)
            solves += 1
            if f_t <= f + _ARMIJO * a * slope:
                break
            a_star = -slope * a * a / (2.0 * (f_t - f - a * slope))
            a = min(max(a_star, 0.1 * a), 0.5 * a)
            if a * dnorm <= _STEP_TOL or solves >= _MAX_SOLVES:
                return x
            trial = x + a * d
        s, y = trial - x, g_t - g
        sy = float(s @ y)
        lam = min(max(float(s @ s) / sy, _LAM_MIN), _LAM_MAX) if sy > 0.0 else _LAM_MAX
        x, f, g = trial, f_t, g_t
    return x
