"""Exception types shared across the package, and the configs' count check."""

import operator


class SigmineError(Exception):
    """Base class for all errors raised by this package."""


class IngestionError(SigmineError):
    """A CSV file is structurally malformed (wrong arity, empty cell, ...)."""


class SchemaError(SigmineError):
    """Column values contradict the declared or inferred schema."""


class ConfigError(SigmineError):
    """A run/language configuration is invalid; `field` names the setting
    it refuses, when there is one (the CLI maps it to a flag)."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class OracleError(SigmineError):
    """A test oracle refused to run (e.g. enumeration guard exceeded)."""


def integer(config, field: str) -> int:
    """Store `config.<field>` as an int (numpy integers pass) and return it,
    else raise a `ConfigError` naming `field`."""
    value = getattr(config, field)
    try:
        object.__setattr__(config, field, operator.index(value))
    except TypeError:
        raise ConfigError(f"{field} must be an integer, got {value!r}", field) from None
    return getattr(config, field)
