"""Exception types shared across the package."""


class SwigertError(Exception):
    """Base class for all package-specific errors."""


class NonConvergent(SwigertError):
    """An iteration failed to meet its certificate within the hard cap."""


class OutOfRange(SwigertError, ValueError):
    """An argument lies outside the documented domain."""


class HypothesisViolated(SwigertError, ValueError):
    """A remainder bound was requested outside its hypothesis."""


class ZeroArgument(SwigertError, ValueError):
    """z = 0 passed where the series requires z != 0."""


class DomainTooLarge(SwigertError, ValueError):
    """Polynomial degree beyond the documented safe range for direct summation."""


class PeakOverflow(SwigertError, OverflowError):
    """The requested unnormalized evaluation would overflow double precision."""


class BadTau(SwigertError, ValueError):
    """The theta-centered split evaluator requires -2 < tau < 0."""


class NotRational(SwigertError, TypeError):
    """An exact-rational parameter is required here."""


class UnsupportedScaling(SwigertError, ValueError):
    """The scaling lies outside the seven supported regimes."""


class MissingParam(SwigertError, ValueError):
    """A case parameter required by the selected regime is absent."""


class EmptyCandidates(SwigertError, ValueError):
    """No admissible indices remain for the requested sweep."""
