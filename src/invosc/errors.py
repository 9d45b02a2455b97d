"""Exception types shared across the package.

Every failure mode that a caller might want to catch programmatically gets
its own class here.  The CLI maps these onto stable exit codes, so the set
is a contract: add new types, never repurpose old ones.
"""


class InvoscError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(InvoscError):
    """Config file could not be parsed or validated.

    Carries ``line`` (1-based, or None when the problem is not tied to a
    single line) so messages can point at the offending input.
    """

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class OutOfDomain(InvoscError):
    """Evaluation requested outside the configured time span."""


class NonFinite(InvoscError):
    """Parameters or evaluation produced NaN or infinity."""


class ToleranceNotMet(InvoscError):
    """The adaptive integrator could not satisfy the requested tolerance."""


class BlowUp(InvoscError):
    """A solution escaped past the configured ceiling in finite time.

    ``escape_time`` is the estimated time at which the ceiling was crossed.
    """

    def __init__(self, message, escape_time=None):
        self.escape_time = escape_time
        super().__init__(message)


class ZeroCrossing(InvoscError):
    """The scale factor collapsed to (numerical) zero, making the
    downstream 1/mu^2 quantities meaningless.  ``crossing_time`` is the
    estimated time of collapse."""

    def __init__(self, message, crossing_time=None):
        self.crossing_time = crossing_time
        super().__init__(message)


class DomainTooLarge(InvoscError):
    """Bessel argument off-axis past the validated complex radius, or real
    past 2^51.  The caller should shrink the grid or the time window."""


class Overflow(InvoscError):
    """Result magnitude exceeds the double-precision range."""


class NonPositiveArgument(InvoscError):
    """A function defined only for positive real argument got x <= 0."""


class FallToCenter(InvoscError):
    """Supercritical attraction: 2C + n^2 < 0 admits no regular solution."""


class OriginUndefined(InvoscError):
    """The requested value is not defined at rho = 0 (angle ambiguous or
    radial part singular there)."""


class GridTooCoarse(InvoscError):
    """The refinement ladder is non-monotone or too short, so no
    convergence order can be claimed."""


class Inconclusive(InvoscError):
    """A convention scan could not separate the two best candidates."""


class MismatchedGrids(InvoscError):
    """Two fields that must share a grid do not."""


class Unstable(InvoscError):
    """Propagation norm drift exceeded the cumulative budget, or a
    propagation linear solve reported a singular system."""


class ZeroNorm(InvoscError):
    """H Psi vanishes on the residual's active region: no relative residual."""
