"""Exception hierarchy shared across the package."""


class CsafmError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(CsafmError):
    """Tensor shapes are incompatible with the requested operation."""


class ParameterError(CsafmError):
    """A scalar argument is out of its valid range or missing."""


class ConfigError(CsafmError):
    """A run configuration failed validation."""


class NumericalError(CsafmError):
    """A non-finite value appeared where a finite one is required."""


class DataError(CsafmError):
    """Base class for dataset ingestion problems."""


class PgmFormatError(DataError):
    """A PGM file is not binary 8-bit P5 with maxval 255."""


class PairingError(DataError):
    """A fingerprint file has no finger-vein twin (or vice versa)."""


class EmptyClassError(DataError):
    """A class directory contains no image pairs."""


class WeightFileError(CsafmError):
    """Base class for weight-file problems."""


class WeightFileMagicError(WeightFileError):
    """The file does not start with the expected magic bytes."""


class WeightFileVersionError(WeightFileError):
    """The file declares an unsupported format version."""


class WeightFileTruncatedError(WeightFileError):
    """The file ends before all declared bytes could be read."""


class WeightFileShapeError(WeightFileError):
    """A tensor blob's stored dims disagree with the header entry."""


class WeightFileStructureError(WeightFileError):
    """The header is malformed, inconsistent, or leaves trailing data."""


class WeightFileValueError(WeightFileError):
    """A tensor holds NaN or an infinity, or a running variance is negative."""
