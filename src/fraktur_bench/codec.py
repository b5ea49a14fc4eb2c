"""Codec loading and membership checks.

A codec is the closed set of characters a recognition model can emit.
Ground truth has to be normalized into the codec before it is usable for
training or scoring, so everything downstream (alignment, analytics,
voting) assumes codec-clean text.

Codec file format: UTF-8 text, one entry per line. An entry is a single
character, or one of the escapes ``\\s`` (space), ``\\\\`` (backslash) and
``\\uXXXX`` (4-digit hex code point). Duplicate entries are hard errors:
a codec with hidden duplicates would silently skew coverage statistics.

The shipped default codec (see ``data/codec_default.txt``) covers 19th
century German Fraktur transcription practice: a small set of specials,
digits, the lowercase alphabet plus the eszett and the long s, uppercase
without I (I and J are merged on the J side by the default rules), the
umlauts and accented vowels used in period printing, and the space.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable

from .errors import CodecError
from .lines import TranscriptionLine

_DEFAULT_CODEC_RESOURCE = "codec_default.txt"


@dataclass(frozen=True)
class Codec:
    """Immutable, ordered character set.

    Order is the file order; it matters only for reporting, membership is
    what the rest of the toolkit relies on.
    """

    characters: tuple[str, ...]
    name: str = "codec"
    version: str = "1"
    _members: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        members = frozenset(self.characters)
        if len(members) != len(self.characters):
            dupes = sorted({c for c, n in Counter(self.characters).items() if n > 1})
            raise CodecError(f"codec {self.name!r} has duplicate characters: {dupes!r}")
        if " " not in members:
            raise CodecError(
                f"codec {self.name!r} does not contain the space character; "
                "lines contain inter-word gaps"
            )
        object.__setattr__(self, "_members", members)

    def __contains__(self, ch: str) -> bool:
        return ch in self._members

    def __len__(self) -> int:
        return len(self.characters)

    def covers(self, text: str) -> bool:
        """True when every character of text is in the codec."""
        return self._members.issuperset(text)


def unescape_entry(token: str, lineno: int, path: str) -> str:
    """Decode one escaped codec/rule token into its literal text."""
    out: list[str] = []
    i = 0
    while i < len(token):
        ch = token[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= len(token):
            raise CodecError(f"{path}:{lineno}: dangling backslash in entry {token!r}")
        nxt = token[i + 1]
        if nxt == "s":
            out.append(" ")
            i += 2
        elif nxt == "\\":
            out.append("\\")
            i += 2
        elif nxt == "u":
            hexpart = token[i + 2 : i + 6]
            if len(hexpart) != 4:
                raise CodecError(f"{path}:{lineno}: truncated \\u escape in {token!r}")
            try:
                out.append(chr(int(hexpart, 16)))
            except ValueError:
                raise CodecError(f"{path}:{lineno}: bad \\u escape in {token!r}") from None
            i += 6
        else:
            raise CodecError(f"{path}:{lineno}: unknown escape \\{nxt} in {token!r}")
    return "".join(out)


def _parse_codec_text(content: str, source: str, name: str, version: str) -> Codec:
    characters: list[str] = []
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(content.splitlines(), start=1):
        if raw == "":
            raise CodecError(f"{source}:{lineno}: empty codec entry")
        entry = unescape_entry(raw, lineno, source)
        if len(entry) != 1:
            raise CodecError(
                f"{source}:{lineno}: codec entries must be single characters, "
                f"got {entry!r} ({len(entry)} characters)"
            )
        if entry in seen:
            raise CodecError(
                f"{source}:{lineno}: duplicate codec character {entry!r} "
                f"(U+{ord(entry):04X}), first seen on line {seen[entry]}"
            )
        seen[entry] = lineno
        characters.append(entry)
    if not characters:
        raise CodecError(f"{source}: empty codec")
    return Codec(tuple(characters), name=name, version=version)


def load_codec(path: str | Path, name: str | None = None, version: str = "1") -> Codec:
    """Load a codec file.

    Raises CodecError for unreadable files, undecodable bytes, empty files,
    malformed entries and duplicates (naming character and line).
    """
    p = Path(path)
    try:
        raw = p.read_bytes()
    except OSError as exc:
        raise CodecError(f"cannot read codec file {p}: {exc}") from exc
    try:
        content = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError(f"{p}: codec file is not valid UTF-8: {exc}") from exc
    return _parse_codec_text(content, str(p), name or p.stem, version)


def default_codec() -> Codec:
    """The codec shipped with the package.

    The file enumerates 91 symbols including the space. Codec files are
    authoritative: nothing in the toolkit assumes a fixed cardinality, and
    loaders report the actual count.
    """
    content = (
        resources.files("fraktur_bench").joinpath("data", _DEFAULT_CODEC_RESOURCE).read_text("utf-8")
    )
    return _parse_codec_text(content, _DEFAULT_CODEC_RESOURCE, "default", "1")


def validate_against_codec(line: TranscriptionLine, codec: Codec) -> list[tuple[int, str]]:
    """Return (position, character) for every character outside the codec.

    Positions are character indices, not byte offsets. Total function: an
    empty result means the line is codec-clean.
    """
    return [(i, ch) for i, ch in enumerate(line.text) if ch not in codec]


@dataclass(frozen=True)
class CoverageReport:
    """Character frequencies partitioned by codec membership.

    Both tables are sorted by frequency descending, ties by code point, so
    a report is deterministic for a given input.
    """

    in_codec: tuple[tuple[str, int], ...]
    out_of_codec: tuple[tuple[str, int], ...]
    total_chars: int


def codec_coverage_report(lines: Iterable[TranscriptionLine], codec: Codec) -> CoverageReport:
    counts: Counter[str] = Counter()
    for line in lines:
        counts.update(line.text)

    def ordered(items: Iterable[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
        return tuple(sorted(items, key=lambda kv: (-kv[1], ord(kv[0]))))

    inside = ordered((c, n) for c, n in counts.items() if c in codec)
    outside = ordered((c, n) for c, n in counts.items() if c not in codec)
    return CoverageReport(inside, outside, sum(counts.values()))
