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
    """Raised when normalized text still contains characters outside the codec.

    Carries the offending positions so callers can apply a replacement policy
    instead of failing.
    """

    def __init__(self, message: str, violations: list[tuple[int, str]]):
        super().__init__(message)
        self.violations = violations


class PairingError(ToolkitError):
    """Raised when ground-truth and prediction lines cannot be matched up."""


class VotingError(ToolkitError):
    """Raised for unusable voter sets or inconsistent confidence data."""


class ManifestError(ToolkitError):
    """Raised for unreadable corpora or inconsistent manifest data."""


class ReportError(ToolkitError):
    """Raised when a report cannot be built or emitted."""
