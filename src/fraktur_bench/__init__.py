"""fraktur-bench: evaluation and data engineering for historical OCR.

The package covers the measurement side of an OCR experiment on 19th
century blackletter prints: normalizing transcriptions into a closed
codec, character-error-rate evaluation across engines, error analytics,
alignment-based ensemble voting, and staged training-corpus manifests.
"""

__version__ = "0.1.0"

from .align import AlignmentResult, levenshtein
from .analytics import (
    ConfusionEntry,
    EvaluationReport,
    WhitespaceSummary,
    classify_whitespace_errors,
    confusion_stats,
    emit_report,
    top_k_error_share,
)
from .codec import Codec, codec_coverage_report, default_codec, load_codec, validate_against_codec
from .errors import ToolkitError
from .lines import LineKind, TranscriptionLine
from .manifests import (
    BookEntry,
    TrainingSchedule,
    TrainingStage,
    build_schedule,
    refinement_sample,
    scan_corpus,
    verify_counts,
)
from .normalize import NormalizationRuleSet, default_rules, load_rules, normalize_line
from .voting import VoterOutput, VotingConfig, vote_line

__all__ = [
    "AlignmentResult",
    "BookEntry",
    "Codec",
    "ConfusionEntry",
    "EvaluationReport",
    "LineKind",
    "NormalizationRuleSet",
    "ToolkitError",
    "TrainingSchedule",
    "TrainingStage",
    "TranscriptionLine",
    "VoterOutput",
    "VotingConfig",
    "WhitespaceSummary",
    "build_schedule",
    "classify_whitespace_errors",
    "codec_coverage_report",
    "confusion_stats",
    "default_codec",
    "default_rules",
    "emit_report",
    "levenshtein",
    "load_codec",
    "load_rules",
    "normalize_line",
    "refinement_sample",
    "scan_corpus",
    "top_k_error_share",
    "validate_against_codec",
    "verify_counts",
    "vote_line",
    "__version__",
]
