"""The errors that mark malformed or mismatched input.

The command line maps each of them to exit code 2.  They live in one
module of their own, so that it can name them without importing the
layers that raise them; each layer re-exports its own.
"""


class AlgebraError(ValueError):
    """Mismatched algebras or malformed correspondence data."""


class BackendError(ValueError):
    """Configuration problem: mismatched backends, missing tables, bad data."""


class IncompleteDataError(ValueError):
    """A required multiplication tensor is missing from the functor data."""


class ActionError(ValueError):
    """Malformed action data."""


class CocycleError(ValueError):
    """Non-invertible or structurally malformed cocycle data."""


class SchemaError(ValueError):
    """Malformed or mislabeled input file."""


class InputError(Exception):
    """A command-line input that is missing, unreadable or out of range."""
