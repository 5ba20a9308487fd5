"""Empirical measures on a finite atom set, problem data, and primal-side evaluations.

Summations here run index-ascending through math.fsum (compensated), so
repeated evaluations of the same inputs are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergences import FDivergenceFamily, conj_eval, f_eval
from .errors import ValidationError

_WEIGHT_SUM_TOL = 1e-12


def _frozen_array(values, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if arr.ndim != 1 or arr.size < 1:
        raise ValidationError(f"{name} must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        idx = int(np.argmax(~np.isfinite(arr)))
        raise ValidationError(f"{name}[{idx}] is not finite")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Strictly positive atom probabilities summing to one (within 1e-12)."""

    weights: np.ndarray

    def __post_init__(self):
        w = _frozen_array(self.weights, "weights")
        if np.any(w <= 0.0):
            idx = int(np.argmax(w <= 0.0))
            raise ValidationError(f"weights[{idx}] is not strictly positive")
        if abs(math.fsum(memoryview(w)) - 1.0) > _WEIGHT_SUM_TOL:
            raise ValidationError("weights must sum to 1 within 1e-12")
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.weights.size


def uniform_measure(n: int) -> EmpiricalMeasure:
    if n < 1:
        raise ValidationError("need at least one atom")
    return EmpiricalMeasure(np.full(int(n), 1.0 / int(n)))


def normalize(raw_weights) -> tuple[EmpiricalMeasure, list[int]]:
    """Scale nonnegative weights to a probability vector, dropping zero atoms.

    Returns the measure together with the indices that were dropped.
    Negative or non-finite entries and the all-zero vector are rejected.
    """
    w = np.atleast_1d(np.asarray(raw_weights, dtype=float))
    if w.size == 0:
        raise ValidationError("no weights given")
    if not np.all(np.isfinite(w)):
        idx = int(np.argmax(~np.isfinite(w)))
        raise ValidationError(f"weights[{idx}] is not finite")
    if np.any(w < 0.0):
        idx = int(np.argmax(w < 0.0))
        raise ValidationError(f"weights[{idx}] is negative")
    if not np.any(w > 0.0):
        raise ValidationError("all weights are zero")
    dropped = np.nonzero(w == 0.0)[0].tolist()
    kept = w[w > 0.0]
    kept = kept / math.fsum(memoryview(kept))
    # second pass tightens the sum to a few ulps
    kept = kept / math.fsum(memoryview(kept))
    return EmpiricalMeasure(kept), dropped


@dataclass(frozen=True)
class ProblemData:
    """Per-atom loss rho and statistic phi for the worst-case variance problem."""

    rho: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        rho = _frozen_array(self.rho, "rho")
        phi = _frozen_array(self.phi, "phi")
        if rho.size != phi.size:
            raise ValidationError(
                f"rho and phi lengths differ: {rho.size} vs {phi.size}"
            )
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "phi", phi)

    @property
    def psi(self) -> np.ndarray:
        """The combined integrand rho + phi^2."""
        return self.rho + self.phi**2

    def __len__(self) -> int:
        return self.rho.size


def check_lengths(data: ProblemData, p: EmpiricalMeasure) -> None:
    if len(data) != len(p):
        raise ValidationError(
            f"data has {len(data)} atoms but the measure has {len(p)}"
        )


def divergence_of(
    q: EmpiricalMeasure, p: EmpiricalMeasure, family: FDivergenceFamily
) -> float:
    """D_f(Q, P) = sum_i p_i f(q_i / p_i), extended-real."""
    if len(q) != len(p):
        raise ValidationError(f"atom counts differ: {len(q)} vs {len(p)}")
    terms = p.weights * f_eval(family, q.weights / p.weights)
    return math.fsum(memoryview(terms))


def variational_gap(
    g_values, q: EmpiricalMeasure, p: EmpiricalMeasure, family: FDivergenceFamily
) -> float:
    """E_Q[g] - E_P[f*(g)].  Always <= D_f(Q, P); -inf when some f*(g_i) = +inf."""
    g = np.atleast_1d(np.asarray(g_values, dtype=float))
    if g.size != len(q) or len(q) != len(p):
        raise ValidationError("g, q, and p must share one atom set")
    if not np.all(np.isfinite(g)):
        raise ValidationError("g must be finite")
    gain = math.fsum(memoryview(q.weights * g))
    cost = math.fsum(memoryview(p.weights * conj_eval(family, g)))
    return gain - cost


def mean_var_of(m: EmpiricalMeasure, values) -> tuple[float, float]:
    """Mean and (population) variance of values under m."""
    v = np.atleast_1d(np.asarray(values, dtype=float))
    if v.size != len(m):
        raise ValidationError(f"got {v.size} values for {len(m)} atoms")
    if not np.all(np.isfinite(v)):
        raise ValidationError("values must be finite")
    mean = math.fsum(memoryview(m.weights * v))
    var = math.fsum(memoryview(m.weights * (v - mean) ** 2))
    return mean, var
