"""Empirical measures on a finite atom set, problem data, and primal-side evaluations.

Every sum over atoms here, in dual_core's certificate and in the oracle,
goes through _exact_sum, which returns math.fsum of the array: the correctly
rounded sum, whatever the order of the atoms.  Below 1,000 atoms, and for
non-finite or huge entries, it is math.fsum itself; above, a few numpy
passes give the same double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergences import FDivergenceFamily, conj_eval, f_eval
from .errors import ValidationError

_WEIGHT_SUM_TOL = 1e-12
# below this many entries math.fsum is faster than the numpy passes
# (measured crossover: about 800-1,000 on a 2-core x86-64 host, numpy 2.4)
_FAST_SUM_MIN = 1000


def _exact_sum(x: np.ndarray) -> float:
    """math.fsum(x) for a 1-d float64 array, bit for bit.

    Small arrays, and arrays with a nan, an inf or an entry above
    2^(1000 - m), m = ceil(log2(n + 2)), go to math.fsum, which keeps its
    nan, inf, ValueError and OverflowError behaviour.  The rest are split by
    error-free extraction (Rump, Ogita & Oishi, "Accurate floating-point
    summation part I: faithful rounding", SIAM J. Sci. Comput. 31(1), 2008,
    ExtractVector): starting from r = x, each pass takes
    sigma = 2^(m + e), where 2^(e-1) <= max|r| < 2^e, so max|r| <= 2^-m sigma,
    and splits r = q + r' by q = (r + sigma) - sigma, r' = r - q.

    Why every step is exact (round to nearest, underflow included):
    * |r_i| <= 2^-m sigma <= sigma/4, so s_i = fl(sigma + r_i) lies in
      [sigma/2, 2 sigma] and q_i = s_i - sigma is exact (Sterbenz).  s_i is a
      float in that range, so q_i is a multiple of 2^-53 sigma (or of the
      smallest subnormal, if larger).  Since sigma +- 2^-m sigma are floats
      and rounding is monotone, |q_i| <= 2^-m sigma.
    * |r_i - q_i| <= 2^-53 sigma, the largest rounding error of a sum in
      [sigma/2, 2 sigma].  If q_i != 0 then |r_i| >= 2^-54 sigma (smaller
      r_i round back to sigma), so ulp(r_i) >= 2^-106 sigma; and
      ulp(r_i) <= 2^-55 sigma divides q_i's grid.  So r_i - q_i is a
      multiple of ulp(r_i) of size at most 2^53 ulp(r_i): a float, and
      r' = r - q is exact.
    * Every partial sum of the q_i, in any order, is a multiple of 2^-53
      sigma of size at most n 2^-m sigma < sigma, hence a float.  So numpy's
      pairwise q.sum() is the exact sum tau of the pass.
    Each pass lowers e by at least 52 - m, so the loop ends at r = 0: three
    passes on typical data, about 2100/(52 - m) at worst.  Then x = sum of the
    passes' q, sum(x) = sum(tau) exactly, and math.fsum(taus), correctly
    rounded, rounds the same real number as math.fsum(x).  An all-zero x
    also goes to math.fsum, which fixes the sign of a zero sum.
    """
    n = x.size
    if n < _FAST_SUM_MIN:
        return math.fsum(memoryview(x))
    m = (n + 1).bit_length()  # ceil(log2(n + 2))
    big = max(float(x.max()), -float(x.min()))
    if not 0.0 < big <= math.ldexp(1.0, 1000 - m):
        return math.fsum(memoryview(x))
    taus = []
    q = np.empty(n)
    r = x
    while big:
        sigma = math.ldexp(1.0, m + math.frexp(big)[1])
        np.add(r, sigma, out=q)
        q -= sigma
        taus.append(float(q.sum()))
        r = r - q if r is x else np.subtract(r, q, out=r)
        big = max(float(r.max()), -float(r.min()))
    return math.fsum(taus)


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
        try:
            total = _exact_sum(w)
        except OverflowError:  # the sum passes the float range
            total = math.inf
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
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
    try:
        kept = kept / _exact_sum(kept)
    except OverflowError:  # the sum passes the float range: scale down first
        kept = kept / kept.max()
        kept = kept / _exact_sum(kept)
    # second pass tightens the sum to a few ulps
    kept = kept / _exact_sum(kept)
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
    return _exact_sum(terms)


def variational_gap(
    g_values, q: EmpiricalMeasure, p: EmpiricalMeasure, family: FDivergenceFamily
) -> float:
    """E_Q[g] - E_P[f*(g)].  Always <= D_f(Q, P); -inf when some f*(g_i) = +inf."""
    g = np.atleast_1d(np.asarray(g_values, dtype=float))
    if g.size != len(q) or len(q) != len(p):
        raise ValidationError("g, q, and p must share one atom set")
    if not np.all(np.isfinite(g)):
        raise ValidationError("g must be finite")
    gain = _exact_sum(q.weights * g)
    cost = _exact_sum(p.weights * conj_eval(family, g))
    return gain - cost


def mean_var_of(m: EmpiricalMeasure, values) -> tuple[float, float]:
    """Mean and (population) variance of values under m."""
    v = np.atleast_1d(np.asarray(values, dtype=float))
    if v.size != len(m):
        raise ValidationError(f"got {v.size} values for {len(m)} atoms")
    if not np.all(np.isfinite(v)):
        raise ValidationError("values must be finite")
    mean = _exact_sum(m.weights * v)
    var = _exact_sum(m.weights * (v - mean) ** 2)
    return mean, var
