"""Exception hierarchy shared across the package."""

from __future__ import annotations


class RepodocError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(RepodocError):
    """Bad invocation or bad input that the user can fix."""


class ConfigError(UsageError):
    """Invalid or malformed configuration."""


class AuthenticationError(ConfigError):
    """Provider rejected the API credentials; retrying cannot help."""


class NotAGitRepoError(UsageError):
    """A Git-backed command was run outside a Git work tree."""


class LockError(UsageError):
    """The run lock is held by another generate, update or publish, or cannot be taken."""


class InternalError(RepodocError):
    """Contract violation inside the package; indicates a bug."""


class SchedulingError(InternalError):
    """A prompt was assembled before its prerequisites were generated."""


class OverBudgetError(RepodocError):
    """Prompt does not fit the largest model tier even after reduction."""


class ProviderError(RepodocError):
    """Completion provider failed after exhausting retries."""


class CorruptStoreError(RepodocError):
    """The persisted doc store cannot be read or decoded."""


class StoreWriteError(RepodocError):
    """The doc store or its pages could not be written to disk."""
