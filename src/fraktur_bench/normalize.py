"""Transcription regularization.

Raw transcriptions of historical prints arrive with typographic variety a
recognition codec cannot (and should not) represent: presentation-form
ligatures, the r rotunda, circumflexed or superscript-e umlauts, curly
quotes, a zoo of dash widths. Normalization rewrites these into codec
characters so that ground truth and predictions live in the same closed
alphabet. Two letterforms are deliberately preserved rather than folded:
the long s and the eszett.

Rules file format: UTF-8 TSV, one rule per line as ``source<TAB>target``,
applied top to bottom. An empty target deletes the source sequence. Both
fields accept the escapes ``\\s`` (space), ``\\\\`` and ``\\uXXXX``. Lines
starting with ``#`` and blank lines are skipped.

All text is converted to composed canonical form (NFC) before rules run,
so codec characters such as a-umlaut are single scalars for membership
tests. One normalization pass is NFC followed by the full rule list; the
pass repeats until a fixpoint, which makes normalization idempotent even
when a rewrite exposes new rule sources at sequence boundaries.
"""

from __future__ import annotations

import hashlib
import unicodedata
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .codec import Codec, unescape_entry
from .errors import CodecError, ConvergenceError, NormalizationError, RuleSetError
from .lines import TranscriptionLine

_DEFAULT_RULES_RESOURCE = "rules_default.tsv"

# A rewrite loop that survives this many full passes is treated as divergent.
_MAX_PASSES = 8

DEFAULT_KEEP = ("ſ", "ß")  # long s, eszett


@dataclass(frozen=True)
class Rule:
    source: str
    target: str

    def __post_init__(self):
        if not self.source:
            raise RuleSetError("rule with empty source")


@dataclass(frozen=True)
class NormalizationRuleSet:
    """Ordered rewrite rules plus the characters exempt from rewriting."""

    rules: tuple[Rule, ...]
    keep: tuple[str, ...] = DEFAULT_KEEP
    name: str = "rules"
    _checksum: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for rule in self.rules:
            for kept in self.keep:
                if kept in rule.source:
                    raise RuleSetError(
                        f"rule {rule.source!r} -> {rule.target!r} rewrites kept "
                        f"character {kept!r} (U+{ord(kept):04X})"
                    )
        digest = hashlib.sha256()
        for rule in self.rules:
            digest.update(rule.source.encode("utf-8"))
            digest.update(b"\x00")
            digest.update(rule.target.encode("utf-8"))
            digest.update(b"\x01")
        digest.update("|".join(self.keep).encode("utf-8"))
        object.__setattr__(self, "_checksum", digest.hexdigest())

    @property
    def checksum(self) -> str:
        """Stable content hash, recorded in reports to pin the rule set used."""
        return self._checksum

    def noncodec_targets(self, codec: Codec) -> list[Rule]:
        """Rules whose target contains characters outside the codec."""
        return [r for r in self.rules if any(ch not in codec for ch in r.target)]

    def require_codec_closed(self, codec: Codec) -> None:
        bad = self.noncodec_targets(codec)
        if bad:
            shown = ", ".join(f"{r.source!r}->{r.target!r}" for r in bad[:5])
            raise RuleSetError(
                f"{len(bad)} rule target(s) fall outside codec {codec.name!r}: {shown}"
            )


def _parse_rules_text(content: str, source_name: str, keep: tuple[str, ...]) -> NormalizationRuleSet:
    rules: list[Rule] = []
    for lineno, raw in enumerate(content.splitlines(), start=1):
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        if "\t" not in raw:
            raise RuleSetError(f"{source_name}:{lineno}: rule line has no tab separator: {raw!r}")
        src_tok, _, tgt_tok = raw.partition("\t")
        try:
            src = unescape_entry(src_tok, lineno, source_name)
            tgt = unescape_entry(tgt_tok, lineno, source_name)
        except CodecError as exc:
            raise RuleSetError(str(exc)) from None
        if not src:
            raise RuleSetError(f"{source_name}:{lineno}: rule with empty source")
        rules.append(Rule(src, tgt))
    return NormalizationRuleSet(tuple(rules), keep=keep, name=source_name)


def load_rules(path: str | Path, keep: tuple[str, ...] = DEFAULT_KEEP) -> NormalizationRuleSet:
    p = Path(path)
    try:
        content = p.read_bytes().decode("utf-8")
    except OSError as exc:
        raise RuleSetError(f"cannot read rules file {p}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise RuleSetError(f"{p}: rules file is not valid UTF-8: {exc}") from exc
    return _parse_rules_text(content, str(p), keep)


def default_rules() -> NormalizationRuleSet:
    content = (
        resources.files("fraktur_bench").joinpath("data", _DEFAULT_RULES_RESOURCE).read_text("utf-8")
    )
    return _parse_rules_text(content, _DEFAULT_RULES_RESOURCE, DEFAULT_KEEP)


def _one_pass(text: str, rules: NormalizationRuleSet) -> str:
    text = unicodedata.normalize("NFC", text)
    for rule in rules.rules:
        if rule.source in text:
            text = text.replace(rule.source, rule.target)
    return unicodedata.normalize("NFC", text)


def normalize_text(text: str, rules: NormalizationRuleSet) -> str:
    """Apply the rule set to a fixpoint. Raises ConvergenceError on rewrite loops."""
    current = text
    for _ in range(_MAX_PASSES):
        nxt = _one_pass(current, rules)
        if nxt == current:
            return current
        current = nxt
    raise ConvergenceError(
        f"rule set {rules.name!r} did not converge after {_MAX_PASSES} passes on {text!r}"
    )


def require_replacement_in_codec(on_unmapped: str, replacement: str | None, codec: Codec) -> None:
    """Under the ``replace`` policy, check the replacement once, before any
    line is read, so the outcome does not depend on whether some line
    needs it."""
    if on_unmapped == "replace" and (
        replacement is None or len(replacement) != 1 or replacement not in codec
    ):
        raise NormalizationError(
            f"replacement {replacement!r} is not a single codec character", []
        )


def normalize_line(
    line: TranscriptionLine,
    rules: NormalizationRuleSet,
    codec: Codec,
    on_unmapped: str = "fail",
    replacement: str | None = None,
) -> TranscriptionLine:
    """Normalize one line and enforce codec closure.

    Characters that remain outside the codec after all rules are handled by
    policy: ``fail`` raises NormalizationError listing character, code point
    and line id; ``drop`` deletes them; ``replace`` substitutes
    ``replacement`` (which must be a single codec character).

    Ids, kind and engine are preserved; only the text changes. The operation
    is idempotent for any text it accepts.
    """
    text = normalize_text(line.text, rules)
    if codec.covers(text):
        return line if text == line.text else line.with_text(text)
    violations = [(i, ch) for i, ch in enumerate(text) if ch not in codec]

    if on_unmapped == "fail":
        shown = ", ".join(f"{ch!r} (U+{ord(ch):04X}) at {i}" for i, ch in violations[:10])
        more = "" if len(violations) <= 10 else f" and {len(violations) - 10} more"
        raise NormalizationError(
            f"line {line.line_id!r}: {len(violations)} character(s) outside codec "
            f"{codec.name!r} after normalization: {shown}{more}",
            violations,
            line_id=line.line_id,
        )
    if on_unmapped == "drop":
        bad = {i for i, _ in violations}
        return line.with_text("".join(ch for i, ch in enumerate(text) if i not in bad))
    if on_unmapped == "replace":
        if replacement is None or len(replacement) != 1 or replacement not in codec:
            raise NormalizationError(
                f"replacement {replacement!r} is not a single codec character",
                violations,
                line_id=line.line_id,
            )
        bad = {i for i, _ in violations}
        return line.with_text(
            "".join(replacement if i in bad else ch for i, ch in enumerate(text))
        )
    raise ValueError(f"unknown on_unmapped policy {on_unmapped!r}")


def parse_unmapped_policy(spec: str) -> tuple[str, str | None]:
    """Parse a CLI policy spec: ``fail``, ``drop`` or ``replace=<char>``."""
    if spec in ("fail", "drop"):
        return spec, None
    if spec.startswith("replace="):
        ch = spec[len("replace="):]
        if len(ch) != 1:
            raise ValueError(f"replace policy needs exactly one character, got {ch!r}")
        return "replace", ch
    raise ValueError(f"unknown policy {spec!r}; want fail, drop or replace=<char>")


def check_target_stability(rules: NormalizationRuleSet) -> list[Rule]:
    """Rules whose target is itself rewritten by the rule set.

    An unstable target does not break normalization (the fixpoint loop
    absorbs it) but it usually indicates an ordering mistake in the file.
    """
    return [r for r in rules.rules if _one_pass(r.target, rules) != r.target]
