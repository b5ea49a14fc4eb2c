"""Seeded synthetic corpus generator for the benchmark.

Ground truth is drawn from the characters of the shipped codec, so the
normalized ground truth is known exactly: it is the clean text the
generator drew. The raw ground truth written to disk is that clean text
"rawified" with typography the default rules fold back (circumflex and
superscript-e umlauts, typographic quotes, dashes, r rotunda, ligatures,
space variants, zero-width characters), so normalization fires at a
controlled density.

Engine predictions are the clean text with substitution, insertion,
deletion and space-insertion noise at per-engine rates. The generator
counts the edits it injected: every distance the program reports must
lie between the summed length differences and that count.

Line lengths are stratified over the band (one length per equal slice,
jittered within it, then shuffled), so the total work of a corpus barely
depends on the seed while its content does.

The same seed gives byte-identical trees.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path

# Clean sequence -> raw spellings the default rules fold back to it.
# Longest keys are matched first.
RAW_VARIANTS: dict[str, tuple[str, ...]] = {
    "ffi": ("ﬃ",),
    "ffl": ("ﬄ",),
    "ſt": ("ﬅ",),
    "ff": ("ﬀ",),
    "fi": ("ﬁ",),
    "fl": ("ﬂ",),
    "st": ("ﬆ",),
    "tz": ("ꜩ",),
    "Tz": ("Ꜩ",),
    "ch": ("",),
    "ck": ("",),
    "ä": ("â", "aͤ"),
    "ö": ("ô", "oͤ"),
    "ü": ("û", "uͤ"),
    "Ä": ("Â", "Aͤ"),
    "Ö": ("Ô", "Oͤ"),
    "Ü": ("Û", "Uͤ"),
    "r": ("ꝛ",),
    "R": ("Ꝛ",),
    "J": ("I",),
    '"': ("„", "“", "”", "‟", "»", "«", "‹", "›"),
    "'": ("‚", "‘", "’", "‛", "ʼ"),
    "-": ("‐", "‑", "‒", "–", "—", "―", "­"),
    "=": ("⸗",),
    " ": (" ", " ", " ", " ", " "),
}
_RAW_KEYS = sorted(RAW_VARIANTS, key=len, reverse=True)
_ZERO_WIDTH = ("​", "﻿")

_SYLLABLES = (
    "ch", "ſch", "ſt", "st", "tz", "ck", "ff", "fi", "fl", "ffi", "ei", "ie",
    "en", "er", "un", "an", "de", "ge", "be", "ver", "ung", "äu", "ö", "ü",
    "ß", "au", "in", "re", "ra", "ri", "or", "ar", "te", "al", "li", "mi",
    "no", "ſe", "ſi", "da", "wo", "ha", "zu", "ne", "ho", "ja", "ä", "ſo",
    "lich", "keit", "mann", "wir", "sie", "fel", "gen", "ten", "mö", "kü",
)
_PUNCT_AFTER = ((",", 0.08), (".", 0.04), (";", 0.01), (":", 0.01), ("!", 0.005), ("?", 0.005))


@dataclass(frozen=True)
class EngineNoise:
    """Per-character noise rates of one synthetic engine."""

    name: str
    sub: float
    ins: float
    dele: float
    space: float


@dataclass(frozen=True)
class CorpusSpec:
    """The dimensions a corpus is generated along.

    layout is "eval" (a ground-truth tree plus a prediction tree), "vote"
    (a prediction tree only) or "prep" (one raw ground-truth tree with image
    siblings per corpus id, plus the expected counts).
    """

    layout: str
    corpora: tuple[str, ...]
    books_per_corpus: int
    lines_per_book: int
    length_band: tuple[int, int]
    engines: tuple[EngineNoise, ...] = ()
    raw_density: float = 0.3
    conf_sidecars: bool = False

    @property
    def line_count(self) -> int:
        return len(self.corpora) * self.books_per_corpus * self.lines_per_book


@dataclass(frozen=True)
class Prediction:
    text: str
    edits: int
    confidences: tuple[float, ...] | None


@dataclass(frozen=True)
class LineRecord:
    corpus: str
    book: str
    line_id: str
    clean: str
    raw: str
    preds: dict[str, Prediction]


@dataclass
class Corpus:
    spec: CorpusSpec
    root: Path
    lines: list[LineRecord]
    stats: dict[str, float] = field(default_factory=dict)

    @property
    def gt_root(self) -> Path:
        return self.root / "gt"

    @property
    def pred_root(self) -> Path:
        return self.root / "pred"

    def corpus_root(self, corpus_id: str) -> Path:
        return self.root / "raw" / corpus_id


def _capitalize(word: str, codec_chars: frozenset[str]) -> str:
    head = word[0].upper()
    if len(head) != 1 or head not in codec_chars:
        return word
    return head + word[1:]


def _clean_line(rng: random.Random, length: int, codec_chars: frozenset[str]) -> str:
    parts: list[str] = []
    size = 0
    while size < length + 1:
        if rng.random() < 0.03:
            word = str(rng.randint(1, 1899))
        else:
            word = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(1, 4)))
            if rng.random() < 0.15:
                word = _capitalize(word, codec_chars)
        roll = rng.random()
        if roll < 0.03:
            word = f'"{word}"'
        elif roll < 0.05:
            word = f"'{word}'"
        elif roll < 0.08:
            word = word + "-" + "".join(rng.choice(_SYLLABLES) for _ in range(2))
        for mark, p in _PUNCT_AFTER:
            if rng.random() < p:
                word += mark
                break
        parts.append(word)
        size += len(word) + 1
    text = " ".join(parts)[:length]
    if text.endswith(" "):
        text = text[:-1] + "="
    return text


def rawify(rng: random.Random, clean: str, density: float) -> str:
    """Respell a clean line with raw typography the default rules fold back."""
    out: list[str] = []
    i = 0
    while i < len(clean):
        for key in _RAW_KEYS:
            if clean.startswith(key, i):
                break
        else:
            key = clean[i]
        if key in RAW_VARIANTS and rng.random() < density:
            out.append(rng.choice(RAW_VARIANTS[key]))
        else:
            out.append(key)
        if rng.random() < density * 0.02:
            out.append(rng.choice(_ZERO_WIDTH))
        i += len(key)
    return "".join(out)


def add_noise(
    rng: random.Random, clean: str, noise: EngineNoise, alphabet: tuple[str, ...], with_conf: bool
) -> Prediction:
    """Apply per-character noise; count every injected edit."""
    out: list[str] = []
    conf: list[float] = []
    edits = 0

    def emit(ch: str, noisy: bool) -> None:
        out.append(ch)
        conf.append(round(rng.uniform(0.3, 0.7) if noisy else rng.uniform(0.6, 1.0), 3))

    for ch in clean:
        roll = rng.random()
        if roll < noise.dele:
            edits += 1
        elif roll < noise.dele + noise.sub:
            sub = rng.choice(alphabet)
            while sub == ch:
                sub = rng.choice(alphabet)
            emit(sub, True)
            edits += 1
        else:
            emit(ch, False)
        if rng.random() < noise.ins:
            emit(rng.choice(alphabet), True)
            edits += 1
        if rng.random() < noise.space:
            emit(" ", True)
            edits += 1
    if not out:
        emit(rng.choice(alphabet), True)
        edits += 1
    return Prediction("".join(out), edits, tuple(conf) if with_conf else None)


def stratified_lengths(rng: random.Random, count: int, band: tuple[int, int]) -> list[int]:
    lo, hi = band
    lengths = [round(lo + (hi - lo) * (i + rng.random()) / count) for i in range(count)]
    rng.shuffle(lengths)
    return lengths


def _write(path: Path, text: str) -> int:
    data = text.encode("utf-8")
    path.write_bytes(data)
    return len(data)


def generate(spec: CorpusSpec, seed: int, root: Path, codec_chars: tuple[str, ...]) -> Corpus:
    """Write the corpus for spec and seed under root (which must not exist)."""
    start = time.perf_counter()
    rng = random.Random(f"fraktur-bench corpus:{seed}")
    alphabet = tuple(c for c in codec_chars if c != " ")
    members = frozenset(codec_chars)
    lengths = stratified_lengths(rng, spec.line_count, spec.length_band)
    lines: list[LineRecord] = []
    n = 0
    for c_idx, corpus in enumerate(spec.corpora):
        for b in range(spec.books_per_corpus):
            book = f"{corpus}-{1700 + 7 * b + c_idx}"
            for k in range(spec.lines_per_book):
                clean = _clean_line(rng, lengths[n], members)
                n += 1
                raw = rawify(rng, clean, spec.raw_density)
                preds = {
                    e.name: add_noise(rng, clean, e, alphabet, spec.conf_sidecars)
                    for e in spec.engines
                }
                lines.append(LineRecord(corpus, book, f"{k + 1:04d}", clean, raw, preds))

    files = 0
    size = 0
    made: set[Path] = set()
    for rec in lines:
        if spec.layout == "eval":
            dirs = {"gt": root / "gt" / rec.book, "pred": root / "pred" / rec.book}
        elif spec.layout == "vote":
            dirs = {"pred": root / "pred" / rec.book}
        else:
            dirs = {"gt": root / "raw" / rec.corpus / rec.book}
        for d in dirs.values():
            if d not in made:
                d.mkdir(parents=True, exist_ok=True)
                made.add(d)
        if "gt" in dirs:
            size += _write(dirs["gt"] / f"{rec.line_id}.gt.txt", rec.raw + "\n")
            files += 1
        if spec.layout == "prep":
            size += _write(dirs["gt"] / f"{rec.line_id}.png", "")
            files += 1
        for engine, pred in rec.preds.items():
            size += _write(dirs["pred"] / f"{rec.line_id}.pred.{engine}.txt", pred.text + "\n")
            files += 1
            if pred.confidences is not None:
                conf = " ".join(f"{v:.3f}" for v in pred.confidences)
                size += _write(dirs["pred"] / f"{rec.line_id}.pred.{engine}.conf", conf + "\n")
                files += 1
    if spec.layout == "prep":
        rows = ["corpus_id,books,lines"]
        for corpus in spec.corpora:
            rows.append(f"{corpus},{spec.books_per_corpus},{spec.books_per_corpus * spec.lines_per_book}")
        size += _write(root / "counts.csv", "\n".join(rows) + "\n")
        files += 1

    stats = {
        "lines": len(lines),
        "gt_chars": sum(len(r.clean) for r in lines),
        "raw_changed_lines": sum(r.raw != r.clean for r in lines),
        "pred_chars": sum(len(p.text) for r in lines for p in r.preds.values()),
        "injected_edits": sum(p.edits for r in lines for p in r.preds.values()),
        "files": files,
        "bytes": size,
        "generate_s": time.perf_counter() - start,
    }
    return Corpus(spec, root, lines, stats)
