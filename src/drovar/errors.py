"""Shared exception types."""


class ValidationError(ValueError):
    """Input rejected: bad shapes, signs, ranges, or domain constraints."""


class DerivativeUnavailable(RuntimeError):
    """The objective is not finite and smooth at this point; use a derivative-free step."""


class UnsupportedSizeError(ValueError):
    """The primal oracle only handles 2 or 3 atoms."""
