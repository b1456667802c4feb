"""Exception types shared across the package, and the integer check that
raises them."""

import operator


def as_index(name, value, error):
    """``value`` as an int by ``operator.index``, so that numpy integers
    pass (and a bool reads as 0 or 1); anything else raises ``error``
    naming ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{name}: need an integer, got {value!r}") from None


class SchemeError(ValueError):
    """Invalid recurrence data or parameters."""


class ConfigError(ValueError):
    """Malformed or unknown configuration input."""


class NumericalFailure(RuntimeError):
    """A computation could not be completed at the requested accuracy."""


class OracleScaleError(ValueError):
    """Lattice-path query outside the oracle's supported scale."""


class ContinuationError(NumericalFailure):
    """A Cauchy transform of an algebraic curve could not be evaluated:
    the point is z = 0, or its subordination fixed point did not
    converge."""


class CharpolyOverflow(NumericalFailure):
    """Characteristic polynomial value exceeds the double range.

    Carries the scaled result: ``log_abs`` is the natural log of the
    magnitude and ``phase`` the complex argument of the value.
    """

    def __init__(self, log_abs, phase):
        super().__init__(
            f"characteristic polynomial overflows double range "
            f"(log|det| = {log_abs:.6g}, phase = {phase:.6g})"
        )
        self.log_abs = log_abs
        self.phase = phase
