"""Exception hierarchy with stable machine-readable codes.

Every error the CLI can surface carries a short ``code`` string so scripts
can match on ``<code>: <message>`` lines without parsing prose.
"""


class NvFourierError(Exception):
    code = "error"


class ValidationError(NvFourierError, ValueError):
    """A value violates a documented invariant."""

    code = "validation"


class GeometryError(NvFourierError, ValueError):
    """Field evaluation requested on or too close to the wire axis."""

    code = "degenerate-geometry"


class UnderDeterminedError(NvFourierError, ValueError):
    """Too few (or degenerate) samples for a fit."""

    code = "under-determined"


class MissingCalibrationError(NvFourierError):
    code = "missing-calibration"


class EmptyRecordError(NvFourierError, ValueError):
    code = "empty-record"


class NonUniformKError(NvFourierError, ValueError):
    """K values do not sit on a uniform grid (and cannot be expanded)."""

    code = "non-uniform-k"


class AliasAmbiguityError(NvFourierError):
    """Coarse prescan too uncertain to select an alias replica."""

    code = "alias-ambiguity"


class NoPeakError(NvFourierError):
    code = "no-peak-found"


class InsufficientSpanError(NvFourierError):
    """Record spans less than one oscillation period."""

    code = "insufficient-span"


class DegenerateFitError(NvFourierError):
    """Fit has no signal to work with (e.g. zero-amplitude record)."""

    code = "degenerate-fit"


class FitConvergenceError(NvFourierError):
    code = "fit-non-convergence"


class ConfigParseError(NvFourierError):
    code = "config-parse"


class ConfigError(NvFourierError, ValueError):
    code = "config-validation"


class DataFormatError(NvFourierError, ValueError):
    """Malformed input file (CSV row, missing column, ...)."""

    code = "data-format"


class MetadataError(NvFourierError):
    """Record sidecar missing or inconsistent."""

    code = "metadata"
