"""Exception types shared across the package."""


class GrafError(Exception):
    """Base class for errors raised by this package."""


class DimensionMismatch(GrafError):
    """Operands live over different signatures or incompatible sizes."""


class UnsupportedSignature(GrafError, ValueError):
    """The requested signature is outside the supported range."""


class StructureError(GrafError):
    """A representation-level structure map could not be constructed."""


class NotASpinor(GrafError):
    """Covariant data violates the identity every genuine spinor satisfies."""


class FormParseError(GrafError, ValueError):
    """A serialized form or rational value could not be parsed."""
