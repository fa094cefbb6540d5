"""Shared exception types."""


class LevyemError(Exception):
    """Base class for all package errors."""


class DomainError(LevyemError, ValueError):
    """A parameter is outside its admissible range."""


class UnsupportedModelError(LevyemError):
    """The requested operation is not available for this model family."""


class ShapeError(LevyemError, ValueError):
    """Array dimensions do not match the declared grid/model."""


class DensityError(LevyemError):
    """A Levy/radial density is invalid or a density quadrature failed."""


class ResolutionError(LevyemError):
    """A Fourier grid is too coarse or too narrow for the requested density."""


class StiffnessError(LevyemError):
    """The fixed-point solver failed to contract even on a shortened horizon."""


class DegenerateExactError(LevyemError):
    """All measured errors are exactly zero; no rate can be fitted."""


class ExperimentAbortedError(LevyemError):
    """Too many Monte Carlo paths were flagged as invalid."""


class ConfigError(LevyemError):
    """A run configuration file is malformed."""

    def __init__(self, section, key, message):
        self.section = section
        self.key = key
        super().__init__(f"[{section}] {key}: {message}" if key else f"[{section}]: {message}")
