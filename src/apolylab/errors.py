"""Error types shared across the package."""


class PolySyntaxError(SyntaxError):
    """Malformed polynomial text.  ``offset`` is the 1-based character position."""

    def __init__(self, message, text, offset):
        super().__init__(message, ("<expr>", 1, offset, text))


class DomainError(ValueError):
    """Evaluation hit a pole (negative exponent at a zero argument)."""


class DegenerateError(ArithmeticError):
    """Root count drops: the leading coefficient vanishes at this parameter."""


class NonConvergence(RuntimeError):
    """Minimum step size exhausted, or roots asked for at non-finite
    coefficients."""


class SeedError(ValueError):
    """Branch seed is off the curve or where the sheets are not separated."""


class RamificationError(RuntimeError):
    """The lift ran into a branch point; the path must be rerouted."""

    def __init__(self, message, m=None, l=None):
        super().__init__(message)
        self.m = m
        self.l = l


class MismatchError(ValueError):
    """Endpoints of concatenated paths do not agree."""


class NotClosed(ValueError):
    """A closed loop was required."""


class AmbiguousWinding(ArithmeticError):
    """Winding number is not close enough to an integer."""


class ExtrapolationUnstable(ArithmeticError):
    """Estimates of a limit on two meshes of one loop disagree beyond
    tolerance."""


class NoRational(ArithmeticError):
    """No continued-fraction convergent within tolerance.

    Carries the best candidate so callers can still report it.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class InsufficientData(ValueError):
    """Not enough points for the requested fit."""


class ConfigError(ValueError):
    """Run configuration is invalid or references unknown names."""
