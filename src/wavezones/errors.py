"""Exception and warning types shared across the package.

Everything raised on purpose derives from :class:`WavezonesError` so callers
can catch the package's failures without masking genuine bugs.
"""


class WavezonesError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgument(WavezonesError, ValueError):
    """An argument outside the domain a function accepts; the message names the value."""


# ---------------------------------------------------------------------------
# parameter validation


class NonPositiveParameter(WavezonesError):
    """A speed, cutoff frequency, or coupling that must be > 0 (or >= 0) is not."""


class OrderingViolation(WavezonesError):
    """Parameter ordering broken (requires c1 > c2 and omega2 >= omega1)."""


class DegenerateSpeeds(WavezonesError):
    """c1 == c2: the two layer speeds must differ for the crossing to exist."""


class OverstrongCoupling(WavezonesError):
    """mu >= omega1*omega2: the static (k=0, omega=0) operator loses definiteness."""


class UnsupportedRegime(UserWarning):
    """Fast group speed at the crossing is not below the slow layer speed.

    The asymptotic zone portrait assumes v1 < c2.  Results outside that
    regime are still computed but the zone classification is untested there.
    """


# ---------------------------------------------------------------------------
# root finding / tracking


class ParameterFileError(WavezonesError):
    """Parameter file malformed: unknown key, wrong type, or unreadable JSON."""


class ExtremumNotFound(WavezonesError):
    """Group-velocity extremum search found no sign change in the window."""


class BranchPointProximity(WavezonesError):
    """Evaluation point too close to a branch point of k(omega)."""


class NoConvergence(WavezonesError):
    """Iteration or quadrature refinement stopped above tolerance.

    :param achieved: best error estimate reached before giving up.
    """

    def __init__(self, message, achieved=None):
        if achieved is not None:
            message = f"{message} (achieved error estimate {achieved:.3e})"
        super().__init__(message)
        self.achieved = achieved


# ---------------------------------------------------------------------------
# asymptotic-term preconditions


class DegenerateCurvature(WavezonesError):
    """Saddle curvature |k''| too small for a second-order descent term."""


class WrongSignCurvature(WavezonesError):
    """Extremum kind does not match the requested Airy-side form."""


class OutsideWedge(WavezonesError):
    """(t, x) lies outside the exchange-pulse wedge x/v1 <= t <= x/v2."""


class OutsideFarZone(WavezonesError):
    """Scalar far-field form requested at a phase argument that is not large."""


class UnknownLabel(WavezonesError):
    """Zone label not in the classification vocabulary."""
