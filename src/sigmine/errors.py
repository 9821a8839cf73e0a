"""Exception types shared across the package."""


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


class ComputationError(SigmineError):
    """A bound formula was evaluated outside its numeric domain."""


class OracleError(SigmineError):
    """A test oracle refused to run (e.g. enumeration guard exceeded)."""
