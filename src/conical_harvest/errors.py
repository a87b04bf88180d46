"""Exception hierarchy shared by all modules."""


class ConicalHarvestError(Exception):
    """Base class for every library-specific error."""


class InvalidParameter(ConicalHarvestError, ValueError):
    """A parameter violates a documented precondition."""


class OverflowDomain(ConicalHarvestError):
    """Unscaled special-function evaluation would overflow; use the kernel forms."""


class DivergentArgument(ConicalHarvestError):
    """aux_f called at an argument below the divergence cutoff eps_div."""

    def __init__(self, z, message=None):
        self.z = z
        super().__init__(message or f"aux_f argument z={z!r} is at or below the divergence cutoff")


class DivergentOverlap(ConicalHarvestError):
    """A detector coincides with an image of its partner (point-model breakdown).

    Carries the offending image index (``m``, or None for the flat d->0
    divergence, whose argument is d/2) and the divergent argument so callers
    can render a labeled singularity instead of a number.
    """

    def __init__(self, argument, image_index=None):
        self.argument = argument
        self.image_index = image_index
        super().__init__(f"flat correlation diverges as d -> 0 (d={2.0 * argument!r})"
                         if image_index is None else
                         f"detector/image overlap at image m={image_index} (argument {argument!r})")


class QuadratureFailure(ConicalHarvestError):
    """An integral could not be evaluated to the requested accuracy."""


class ToleranceNotMet(QuadratureFailure):
    """Adaptive subdivision budget exhausted before reaching the tolerance."""

    def __init__(self, value, error_estimate, tol, evaluations):
        self.value = value
        self.error_estimate = error_estimate
        self.tol = tol
        self.evaluations = evaluations
        super().__init__(
            f"error estimate {error_estimate:.3e} above tolerance {tol:.3e} "
            f"after {evaluations} integrand evaluations"
        )


class PolesTooClose(QuadratureFailure):
    """Principal-value poles too close together to excise."""


class NoSignChange(ConicalHarvestError):
    """Root bracket endpoints do not have opposite signs."""


class NotUnimodal(ConicalHarvestError):
    """Post-hoc sampling found more than one local minimum in the bracket."""


class UnknownPreset(ConicalHarvestError):
    """Requested figure preset name does not exist."""
