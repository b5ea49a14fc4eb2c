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

import os
import unicodedata
from collections import namedtuple

from .codec import Codec, unescape_entry, validate_against_codec
from .errors import CodecError, ConvergenceError, NormalizationError, RuleSetError
from .lines import TranscriptionLine, posix_path, read_utf8

# The default file sits next to the sources.
_DEFAULT_RULES_FILE = os.path.join(os.path.dirname(__file__), "data", "rules_default.tsv")

# A rewrite loop that survives this many full passes is treated as divergent.
_MAX_PASSES = 8
_last_stop = (None, None, None)  # _stop_codec's rules, codec and answer for the last pair

DEFAULT_KEEP = ("ſ", "ß")  # long s, eszett


class NormalizationRuleSet(namedtuple("NormalizationRuleSet", "rules name", defaults=("rules",))):
    """Ordered (source, target) rewrite rules; no source may be empty or
    contain a DEFAULT_KEEP character."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for source, target in self.rules:
            if not source:
                raise RuleSetError("rule with empty source")
            for kept in DEFAULT_KEEP:
                if kept in source:
                    raise RuleSetError(
                        f"rule {source!r} -> {target!r} rewrites kept "
                        f"character {kept!r} (U+{ord(kept):04X})"
                    )
        return self

    @property
    def checksum(self) -> str:
        """Stable content hash, recorded in reports to pin the rule set used."""
        import hashlib  # here, not at set-up: normalize and vote hash nothing

        digest = hashlib.sha256()
        for source, target in self.rules:
            digest.update(source.encode("utf-8"))
            digest.update(b"\x00")
            digest.update(target.encode("utf-8"))
            digest.update(b"\x01")
        # still hashed, so that recorded rules_sha256 values stay comparable
        digest.update("|".join(DEFAULT_KEEP).encode("utf-8"))
        return digest.hexdigest()

    def noncodec_targets(self, codec: Codec) -> list[tuple[str, str]]:
        """Rules whose target contains characters outside the codec."""
        return [(s, t) for s, t in self.rules if any(ch not in codec for ch in t)]

    def require_codec_closed(self, codec: Codec) -> None:
        bad = self.noncodec_targets(codec)
        if bad:
            shown = ", ".join(f"{source!r}->{target!r}" for source, target in bad[:5])
            raise RuleSetError(
                f"{len(bad)} rule target(s) fall outside codec {codec.name!r}: {shown}"
            )


def _parse_rules_text(content: str, source_name: str) -> NormalizationRuleSet:
    rules: list[tuple[str, str]] = []
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
        rules.append((src, tgt))
    return NormalizationRuleSet(tuple(rules), name=source_name)


def load_rules(path: str | os.PathLike) -> NormalizationRuleSet:
    p = posix_path(path)
    return _parse_rules_text(read_utf8(p, RuleSetError), p)


def default_rules() -> NormalizationRuleSet:
    content = read_utf8(_DEFAULT_RULES_FILE, RuleSetError)
    return _parse_rules_text(content, os.path.basename(_DEFAULT_RULES_FILE))


def _one_pass(text: str, rules: NormalizationRuleSet) -> str:
    text = unicodedata.normalize("NFC", text)
    for source, target in rules.rules:
        if source in text:
            text = text.replace(source, target)
    return unicodedata.normalize("NFC", text)


def _fixpoint(text: str, rules: NormalizationRuleSet, stop: Codec | None) -> tuple[str, bool]:
    """The fixpoint, and whether stop covers it. Stop is tried before each
    pass, so the result of the last pass is never taken for a fixpoint."""
    current = text
    for _ in range(_MAX_PASSES):
        if stop is not None and stop.covers(current) and unicodedata.is_normalized("NFC", current):
            return current, True
        nxt = _one_pass(current, rules)
        if nxt == current:
            return current, False
        current = nxt
    raise ConvergenceError(
        f"rule set {rules.name!r} did not converge after {_MAX_PASSES} passes on {text!r}"
    )


def normalize_text(text: str, rules: NormalizationRuleSet) -> str:
    """Apply the rule set to a fixpoint. Raises ConvergenceError on rewrite loops."""
    return _fixpoint(text, rules, None)[0]


def _stop_codec(rules: NormalizationRuleSet, codec: Codec) -> Codec | None:
    """The codec when each rule source holds a character outside it, else None:
    then an NFC text the codec covers holds no source, so is its own fixpoint."""
    global _last_stop
    if _last_stop[0] is not rules or _last_stop[1] is not codec:
        closed = not any(codec.covers(source) for source, _ in rules.rules)
        _last_stop = (rules, codec, codec if closed else None)
    return _last_stop[2]


def require_replacement_in_codec(replacement: str | None, codec: Codec) -> None:
    """Check a replacement once, before any line is read, so the outcome
    does not depend on whether some line needs it. ``None`` (fail) and
    ``""`` (drop) always pass."""
    if replacement and replacement not in codec:
        raise NormalizationError(f"replacement {replacement!r} is not a single codec character")


def normalize_line(
    line: TranscriptionLine,
    rules: NormalizationRuleSet,
    codec: Codec,
    replacement: str | None = None,
) -> TranscriptionLine:
    """Normalize one line and enforce codec closure.

    Characters that remain outside the codec after all rules are each
    replaced by ``replacement``: ``""`` drops them, a single codec
    character stands in for them. With ``None`` they raise
    NormalizationError listing character, code point and position, book,
    line and engine (or ground truth).

    Book, line and engine are preserved; only the text changes. The operation
    is idempotent for any text it accepts.
    """
    text, covered = _fixpoint(line.text, rules, _stop_codec(rules, codec))
    if covered or codec.covers(text):
        if text == line.text:
            return line
        return TranscriptionLine(line.book_id, line.line_id, text, line.engine_id)
    if replacement is not None:
        require_replacement_in_codec(replacement, codec)
        text = "".join(ch if ch in codec else replacement for ch in text)
        return TranscriptionLine(line.book_id, line.line_id, text, line.engine_id)
    violations = validate_against_codec(text, codec)
    shown = ", ".join(f"{ch!r} (U+{ord(ch):04X}) at {i}" for i, ch in violations[:10])
    more = "" if len(violations) <= 10 else f" and {len(violations) - 10} more"
    side = "ground truth" if line.engine_id is None else f"engine {line.engine_id!r}"
    raise NormalizationError(
        f"book {line.book_id!r}, line {line.line_id!r} ({side}): {len(violations)} "
        f"character(s) outside codec {codec.name!r} after normalization: {shown}{more}"
    )


def parse_unmapped_policy(spec: str) -> str | None:
    """Parse a CLI policy spec into the replacement for unmapped characters:
    ``fail`` gives ``None``, ``drop`` gives ``""`` (replacement by nothing)
    and ``replace=<char>`` gives that one character."""
    if spec == "fail":
        return None
    if spec == "drop":
        return ""
    if spec.startswith("replace="):
        ch = spec[len("replace="):]
        if len(ch) != 1:
            raise ValueError(f"replace policy needs exactly one character, got {ch!r}")
        return ch
    raise ValueError(f"unknown policy {spec!r}; want fail, drop or replace=<char>")

