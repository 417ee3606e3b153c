"""Exception types shared across the package."""


class MkgeError(Exception):
    """Base class for all package-specific errors."""


class TagMismatch(MkgeError):
    """Binary operation on module elements of different kinds."""


class LengthMismatch(MkgeError):
    """Tuple operands of different lengths."""


class ShapeMismatch(MkgeError):
    """Array shapes inconsistent with the parameter store."""


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
