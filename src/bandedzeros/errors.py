"""Exception types shared across the package."""


class SchemeError(ValueError):
    """Invalid recurrence data or parameters."""


class ConfigError(ValueError):
    """Malformed or unknown configuration input."""


class NumericalFailure(RuntimeError):
    """A computation could not be completed at the requested accuracy."""


class OracleScaleError(ValueError):
    """Lattice-path query outside the supported enumeration scale."""


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
