"""Shared exception types."""


class PcgError(Exception):
    """Base class for all errors raised by this package."""


class GuardError(PcgError):
    """A size or parameter guard was exceeded."""


class CapError(GuardError):
    """Closure enumeration exceeded its element cap."""


class ConstructionError(PcgError):
    """A named constructor failed its validation contract."""


class SpecParseError(PcgError):
    """A group spec string could not be parsed."""


class CertificateError(PcgError):
    """A certificate file is malformed or fails re-verification."""
