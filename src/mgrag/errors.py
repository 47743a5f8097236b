"""Exception types shared across the package, and the exact-type rule for settings."""


class MgragError(Exception):
    """Base class for all package errors."""


class ParseError(MgragError):
    """Malformed input file. Carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ConfigError(MgragError):
    """Invalid configuration value."""


def require_type(name: str, value: object, kind: str) -> None:
    """A ``ConfigError`` naming ``name`` unless ``value``'s type is exactly ``kind``.

    Exact, not ``isinstance``: a bool is an int and would alias 0 or 1, and a
    float in an int setting would fail far from its cause.
    """
    if type(value).__name__ != kind:
        raise ConfigError(f"{name} must be {kind}, got {value!r}")


class BuildError(MgragError):
    """Hierarchy construction failed."""


class IndexFormatError(MgragError):
    """Index file is unreadable: bad magic, version or header, bad size, non-finite vectors."""


class RoutingError(MgragError):
    """No layer produced a usable score for a query."""


class EvalError(MgragError):
    """Evaluation could not produce a report."""
