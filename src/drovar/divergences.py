"""f-divergence generator families: f, its convex conjugate, and the conjugate derivative.

Generators live on t >= 0, are convex, and vanish at t = 1:

    kl              f(t) = t*log(t)
    alpha (a != 1)  f(t) = (t^a - 1) / (a*(a-1))

Conjugates f*(y) = sup_{t >= 0} { t*y - f(t) }:

    kl              f*(y) = exp(y - 1)
    a > 1           f*(y) = ((a-1)*y)^(a/(a-1)) / a * 1{y>0} + 1/(a*(a-1))
    0 < a < 1       f*(y) = ((1-a)*|y|)^(-a/(1-a)) / a - 1/(a*(1-a))  for y < 0, +inf otherwise

All evaluations are extended-real: plain IEEE doubles with +inf encoding
points outside the effective domain.  At conjugate kinks the reported
derivative is the right derivative (0 at y = 0 for a > 1).  Inputs may be
scalars or arrays; arrays evaluate elementwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

KL = "kl"
ALPHA = "alpha"

ALPHA_MAX = 8.0
EXP_ARG_CAP = 700.0  # exp overflows a double past ~709.8; stay clear of it


@dataclass(frozen=True)
class FDivergenceFamily:
    """A divergence generator: kind is 'kl' or 'alpha', alpha its exponent.

    divergence_cap is sup_Q D_f(Q, P), computed from kind and alpha: finite
    only for alpha in (0, 1), where it equals 1/(alpha*(1-alpha)); radii at
    or above the cap are vacuous.
    """

    kind: str
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in (KL, ALPHA):
            raise ValidationError(f"unknown divergence kind {self.kind!r}")
        if self.kind == ALPHA:
            a = self.alpha
            if a is None or not (0.0 < a <= ALPHA_MAX) or a == 1.0:
                raise ValidationError(
                    f"alpha must lie in (0,1) or (1,{ALPHA_MAX:g}], got {a!r}"
                )

    @property
    def divergence_cap(self) -> float:
        if self.kind == ALPHA and self.alpha < 1.0:
            return 1.0 / (self.alpha * (1.0 - self.alpha))
        return math.inf

    @property
    def label(self) -> str:
        if self.kind == KL:
            return KL
        return f"alpha:{self.alpha:g}"


def kl_family() -> FDivergenceFamily:
    return FDivergenceFamily(kind=KL)


def alpha_family(alpha: float) -> FDivergenceFamily:
    return FDivergenceFamily(kind=ALPHA, alpha=float(alpha))


def check_eta(eta: float, family: FDivergenceFamily) -> None:
    """Reject radii outside (0, divergence_cap)."""
    if not (math.isfinite(eta) and 0.0 < eta < family.divergence_cap):
        raise ValidationError(
            f"eta must lie in (0, {family.divergence_cap:g}), got {eta!r}"
        )


def parse_family(spec: str) -> FDivergenceFamily:
    """Parse 'kl' or 'alpha:<value>' (case-insensitive) into a family."""
    text = str(spec).strip().lower()
    if text == KL:
        return kl_family()
    if text.startswith("alpha:"):
        try:
            value = float(text.split(":", 1)[1])
        except ValueError as exc:
            raise ValidationError(f"bad alpha value in divergence spec {spec!r}") from exc
        return alpha_family(value)
    raise ValidationError(
        f"unrecognized divergence spec {spec!r}; expected 'kl' or 'alpha:<value>'"
    )


def _shaped(raw, value):
    """Return a float for scalar input, the array otherwise."""
    if np.ndim(raw) == 0:
        return float(value[0])
    return value


def f_eval(family: FDivergenceFamily, t):
    """Generator value f(t); +inf outside [0, inf).  f(0) is the lsc limit."""
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    with np.errstate(all="ignore"):
        if family.kind == KL:
            out = arr * np.log(arr)
            # t*log(t) is nan exactly at t = 0 (lsc value 0), t < 0 and t = nan
            bad = np.isnan(out)
            if bad.any():
                out[bad] = np.where(arr[bad] == 0.0, 0.0, math.inf)
            return _shaped(t, out)
        a = family.alpha
        out = (arr**a - 1.0) / (a * (a - 1.0))
    return _shaped(t, _inf_where(out, ~(arr >= 0.0)))


def _inf_where(out: np.ndarray, bad: np.ndarray) -> np.ndarray:
    """Set the entries flagged by bad to +inf (outside the effective domain)."""
    if bad.any():
        out[bad] = math.inf
    return out


def conj_eval(family: FDivergenceFamily, y):
    """Convex conjugate f*(y); +inf outside dom f*."""
    arr = np.atleast_1d(np.asarray(y, dtype=float))
    with np.errstate(all="ignore"):
        return _shaped(y, _conj(family, arr))


def _conj(family: FDivergenceFamily, arr: np.ndarray) -> np.ndarray:
    """Kernel of conj_eval on a 1-d float array.  Runs under the caller's
    np.errstate: overflow, and powers at arguments outside dom f*, are
    expected and patched."""
    if family.kind == KL:
        e = arr - 1.0
        return _inf_where(np.exp(e), ~(e <= EXP_ARG_CAP))
    a = family.alpha
    if a > 1.0:
        # fmax maps y <= 0 (and nan) to 0, where the power term vanishes
        pos = np.fmax(arr, 0.0)
        return ((a - 1.0) * pos) ** (a / (a - 1.0)) / a + 1.0 / (a * (a - 1.0))
    out = ((1.0 - a) * (-arr)) ** (-a / (1.0 - a)) / a - 1.0 / (a * (1.0 - a))
    return _inf_where(out, ~(arr < 0.0))


def conj_deriv(family: FDivergenceFamily, y):
    """Derivative of the conjugate, (f*)'(y); right derivative at kinks,
    +inf outside dom f*.  This is the worst-case density dQ/dP at argument y."""
    arr = np.atleast_1d(np.asarray(y, dtype=float))
    with np.errstate(all="ignore"):
        if family.kind == KL:
            e = arr - 1.0
            return _shaped(y, _inf_where(np.exp(e), ~(e <= EXP_ARG_CAP)))
        a = family.alpha
        if a > 1.0:
            return _shaped(y, ((a - 1.0) * np.fmax(arr, 0.0)) ** (1.0 / (a - 1.0)))
        out = ((1.0 - a) * (-arr)) ** (-1.0 / (1.0 - a))
    return _shaped(y, _inf_where(out, ~(arr < 0.0)))
