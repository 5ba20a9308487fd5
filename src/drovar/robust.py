"""Distributionally robust portfolio layer: minimize the worst-case
mean-variance objective of returns <x, r> over a box or simplex of decisions.

For a decision x the inner problem uses rho = -<x, r> (negated return, so the
worst case penalizes low means) and phi = <x, r> (the return whose variance
is penalized).  Through the dual the objective is the minimum over nu of
F(x, nu) = nu^2/4 + M_f(-<x,r> + <x,r>(<x,r> - nu)), jointly convex in (x, nu),
and the minimizer is a deterministic projected gradient method over (x, nu)
on its Danskin gradient, Newton in nu and spectral (Birgin, Martinez & Raydan
2000) in x, its step length unbounded, as the units of the returns scale it:
one evaluation of F per point, no certificate; a one-point set moves only nu.
One cold, certified solve at the returned decision gives the value it reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergences import FDivergenceFamily, check_eta
from .errors import ValidationError
from .measures import EmpiricalMeasure, ProblemData
from .solver import BoundResult, SolverConfig, _Evaluation, variance_bound

_MAX_EVALS = 500
_STEP_TOL = 1e-9
_ARMIJO = 1e-4


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
        """The Euclidean projection, by the sorted-threshold rule on x - max(x).

        Shifting every coordinate leaves the projection unchanged; after this
        shift the top entry is 0, so the rule's first test reads 1 > 0 at any
        magnitude, and its partial sums carry no rounding of large entries."""
        y = x - np.max(x)
        u = np.sort(y)[::-1]
        css = np.cumsum(u)
        idx = np.arange(1, x.size + 1)
        cond = u + (1.0 - css) / idx > 0.0
        k = int(np.nonzero(cond)[0][-1])
        theta = (1.0 - css[k]) / (k + 1)
        return np.maximum(y + theta, 0.0)


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
    """Monotone projected gradient over (x, nu), x in the constraint set.

    With c = nu/2, F(x, nu) = nu^2/4 + M_f(-<x,r> + <x,r>(<x,r> - nu)) is
    M_f(-<x,r> + (<x,r> - c)^2), and M_f is monotone and convex, so F is
    jointly convex.  Its minimum over nu is the robust objective, and by
    Danskin's theorem the worst case Q of one evaluation gives the whole
    gradient, (E_Q[(2<x,r> - nu - 1) r], nu/2 - E_Q[<x,r>]), and the
    evaluation's curvature gives d^2F/dnu^2.
    Each iteration moves x to the projection of a gradient step of unbounded
    Barzilai-Borwein length s.s/s.y (the last length when s.y <= 0) and nu by
    a Newton step, then backtracks along that direction (Armijo, safeguarded
    quadratic interpolation); the trial points are convex combinations of
    feasible points, so they stay feasible.  The search is monotone because F
    has a kink at x = 0, where every atom ties.  nu starts at 2*E_P[<x,r>].
    Each evaluation runs one warm-started kernel root and builds no certificate.

    Deterministic: fixed start (box center or simplex barycenter); stops when
    the Newton step in nu and the projected gradient step in x, at the
    spectral length and at unit length, fall to 1e-9 in sup-norm, when the
    line-search step does, or after 500 evaluations; on a one-point set it
    settles only nu.  One cold, certified solve at the returned x gives the
    value, so it equals robust_objective(x) exactly.  Returns (x, value).
    """
    x, res = _minimize(scenarios, constraint, family, eta, config)
    return x, res.value


def _minimize(scenarios, constraint, family, eta, config) -> tuple[np.ndarray, BoundResult]:
    """robust_minimize, returning the certified solve at x: (x, robust_bound(x, ...))."""
    cfg = config or SolverConfig()
    check_eta(eta, family)
    if not isinstance(constraint, (Box, Simplex)):
        raise ValidationError(f"unsupported constraint {constraint!r}")
    rows, w = scenarios.rows, scenarios.weights.weights
    evaluation = _Evaluation(scenarios.weights, family, eta, cfg, "auto")
    x = constraint.project(constraint.start(scenarios.dim))

    def evaluate(x, nu):
        data = scenarios.problem_for(x)
        value, m, d2, gnu = evaluation(data, nu)
        g = (m.q * (2.0 * data.phi - nu - 1.0)) @ rows
        if not (np.isfinite(g).all() and np.isfinite(gnu)):
            raise ValidationError("the gradient of the robust objective overflows the float range")
        return value, g, gnu, d2

    with np.errstate(over="ignore", invalid="ignore"):
        x = _spg(x, 2.0 * float(w @ (rows @ x)), evaluate, constraint.project)
    return x, robust_bound(x, scenarios, family, eta, config)


def _spg(x, nu, evaluate, project) -> np.ndarray:
    """The search loop of robust_minimize from the feasible x and any nu;
    evaluate(x, nu) returns (F, dF/dx, dF/dnu, d^2F/dnu^2), the last as a
    zero-argument callable valid until the next evaluation, so a trial the
    line search rejects never computes it; project maps x onto the
    constraint set.  Returns the last accepted x, or x if none was."""
    f, g, gnu, d2 = evaluate(x, nu)
    evals = 1
    # first step: the projected gradient scaled to unit sup-norm
    first = float(np.max(np.abs(project(x - g) - x)))
    lam = 1.0 / first if first > 0.0 else 1.0
    while evals < _MAX_EVALS:
        p = project(x - lam * g)
        d = p - x
        dnorm, dnu = float(np.max(np.abs(d))), -gnu / d2()
        # a short spectral step beside a kink is no stop while the unit one is long
        if (max(dnorm, abs(dnu)) <= _STEP_TOL
                and float(np.max(np.abs(project(x - g) - x))) <= _STEP_TOL):
            break
        slope = float(g @ d) + gnu * dnu
        a = 1.0
        # the full step lands on the projection itself, exactly feasible
        trial, trial_nu = p, nu + dnu
        while True:
            f_t, g_t, gnu_t, d2_t = evaluate(trial, trial_nu)
            evals += 1
            if f_t <= f + _ARMIJO * a * slope:
                break
            a_star = -slope * a * a / (2.0 * (f_t - f - a * slope))
            a = min(max(a_star, 0.1 * a), 0.5 * a)
            if a * dnorm <= _STEP_TOL or evals >= _MAX_EVALS:
                return x
            trial, trial_nu = x + a * d, nu + a * dnu
        s, y = trial - x, g_t - g
        sy = float(s @ y)
        # nu moves between the two gradients, so s.y <= 0 does not show F flat
        # along s: keep the last spectral step then
        if sy > 0.0:
            lam = float(s @ s) / sy
        x, nu, f, g, gnu, d2 = trial, trial_nu, f_t, g_t, gnu_t, d2_t
    return x
