"""Shared exception types."""


class ValidationError(ValueError):
    """Input rejected: bad shapes, signs, ranges, or domain constraints."""


class DerivativeUnavailable(RuntimeError):
    """J has no gradient here: a conjugate argument lies outside dom f*, or E_P[f*] overflows."""


class UnsupportedSizeError(ValueError):
    """The primal oracle only handles 2 or 3 atoms."""
