"""Exception hierarchy for the toolkit.

Every error raised on bad data (as opposed to programming mistakes) derives
from ToolkitError so the CLI can map them to exit code 1 uniformly.
"""

from __future__ import annotations


class ToolkitError(Exception):
    """Base class for all data-level errors raised by this package."""


class CodecError(ToolkitError):
    """Raised for malformed or inconsistent codec files."""


class RuleSetError(ToolkitError):
    """Raised for malformed rule files or rules that violate constraints."""


class ConvergenceError(RuleSetError):
    """Raised when repeated rule application fails to reach a fixpoint."""


class NormalizationError(ToolkitError):
    """Raised when normalized text still contains characters outside the
    codec and no replacement was given, or when a replacement is not a codec
    character."""


class PairingError(ToolkitError):
    """Raised when ground-truth and prediction lines cannot be matched up."""


class VotingError(ToolkitError):
    """Raised for unusable voter sets or inconsistent confidence data.

    line is the index of the rejected line among those voting.vote_lines
    was given, or None when the error is not a line's."""

    def __init__(self, message: str, line: int | None = None) -> None:
        super().__init__(message)
        self.line = line


class ManifestError(ToolkitError):
    """Raised for unreadable corpora or inconsistent manifest data."""


class ReportError(ToolkitError):
    """Raised when a report cannot be built or emitted."""
