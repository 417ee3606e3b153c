"""Exception types shared across the package."""


class MkgeError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatch(MkgeError):
    """Arrays of inconsistent shapes or dtypes: operands of different element
    widths or lengths, id arrays that are not integer ids or are of two
    shapes, or tables that do not fit the parameter store."""


class NonFiniteLoss(MkgeError):
    """Training loss became NaN or Inf."""


class ParseError(MkgeError):
    """Malformed line in a triple file or config file."""


class MissingFile(MkgeError):
    """Dataset, checkpoint or config file not readable, or output directory not creatable."""


class DuplicateTriple(MkgeError):
    """The same triple appears twice within one split."""


class BadMagic(MkgeError):
    """Checkpoint file does not start with the expected magic bytes."""


class VersionUnsupported(MkgeError):
    """Checkpoint format version not handled by this build."""


class DigestMismatch(MkgeError):
    """Checkpoint config digest does not match the current setup."""
