"""Exception types shared across the package.

Numerical failures (blow-up, positivity loss, mass drift, non-positive
shifted energy) are distinct from configuration errors so the CLI can map
them to different exit codes.
"""


class RicciLabError(Exception):
    """Base class for all package-specific errors."""


class BlowUp(RicciLabError):
    """A metric parameter fell below the floor or became non-finite."""


class StepTooLarge(RicciLabError):
    """Time step exceeds the parabolic stability bound at some state."""


class PositivityLoss(RicciLabError):
    """Density lost positivity (maximum-principle violation)."""


class MassDrift(RicciLabError):
    """Density mass drifted from 1 beyond the conservation tolerance."""


class NonPositive(RicciLabError):
    """Terminal datum recipe produced a non-positive field."""


class NonPositiveOmega(RicciLabError):
    """Shifted energy a + F/4 is not positive; the adjustment a is inadmissible."""


class NoConvergence(RicciLabError):
    """Eigenvalue iteration failed to converge within the iteration cap."""


class TooFewSamples(RicciLabError):
    """Time series too short for a finite-difference derivative."""


class ConfigError(RicciLabError):
    """Malformed or inconsistent run configuration; message names the field."""


class AdmissibilityError(RicciLabError):
    """An adjustment value a violates a > -lambda0(g(0))."""
