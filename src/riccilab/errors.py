"""Exception types shared across the package.

Two families set the CLI exit code: ``InputError`` (configuration or
admissibility, exit 2) and ``NumericalError`` (blow-up, positivity loss,
mass drift, non-positive shifted energy, ..., exit 3).
"""


class RicciLabError(Exception):
    """Base class for all package-specific errors."""


class InputError(RicciLabError):
    """The requested run is invalid before any computation (exit 2)."""


class NumericalError(RicciLabError):
    """A numerical failure during a run (exit 3, partial artifacts kept)."""


class BlowUp(NumericalError):
    """A metric parameter fell below the floor or became non-finite."""


class StepTooLarge(NumericalError):
    """Time step exceeds the parabolic stability bound at some state."""


class PositivityLoss(NumericalError):
    """Density lost positivity (maximum-principle violation)."""


class MassDrift(NumericalError):
    """Density mass drifted from 1 beyond the conservation tolerance."""


class NonPositive(NumericalError):
    """Terminal datum recipe produced a non-positive field."""


class NonPositiveOmega(NumericalError):
    """Shifted energy a + F/4 is not positive; the adjustment a is inadmissible."""


class NoConvergence(NumericalError):
    """Eigenvalue iteration failed to converge within the iteration cap."""


class TooFewSamples(RicciLabError):
    """Time series too short for a finite-difference derivative."""


class ConfigError(InputError):
    """Malformed or inconsistent run configuration; message names the field."""


class AdmissibilityError(InputError):
    """An adjustment value a violates a > -lambda0(g(0))."""
