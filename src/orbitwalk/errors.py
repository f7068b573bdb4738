"""Exception hierarchy shared across the package."""


class OrbitwalkError(Exception):
    """Base class for all orbitwalk-specific errors."""


class DomainError(OrbitwalkError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class RepresentationError(OrbitwalkError, ValueError):
    """A representation is incompatible with the requested orbit space."""


class ConfigError(OrbitwalkError, ValueError):
    """A run configuration is malformed or inconsistent."""


class PrecisionError(OrbitwalkError, ArithmeticError):
    """A computed value lost its digits to cancellation or overflow."""
