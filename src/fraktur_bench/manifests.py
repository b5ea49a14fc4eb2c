"""Book-level corpus manifests and the staged training plan.

Corpora live on disk in the line-pair layout::

    <root>/<book_id>/<line_id>.gt.txt      # UTF-8 ground truth
    <root>/<book_id>/<line_id>.png         # sibling line image
                     <line_id>.bin.png     # (or binarized / normalized)
                     <line_id>.nrm.png
    <root>/<book_id>/<line_id>.pred.<engine_id>.txt   # engine outputs

Scanning produces one BookEntry per book directory. The training plan has
four stages run in a fixed order (pretraining on older material, synthetic
line data, real period data, refinement); the refinement stage samples a
capped number of lines per book so that books with huge amounts of ground
truth do not dominate the final model. Sampling is seeded and uniform:
nothing suggests the first N lines of a book are representative of it.

Manifests serialize to versioned JSON holding ids only (no absolute
paths), so corpora can relocate freely.
"""

from __future__ import annotations

import hashlib
import json
import logging
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import ManifestError
from .lines import GT_SUFFIX, IMAGE_SUFFIXES, list_books, strip_suffix

logger = logging.getLogger(__name__)

MANIFEST_SCHEMA_VERSION = 1
SCHEDULE_SCHEMA_VERSION = 1

STAGE_ORDER = ("pretraining", "synthetic", "real", "refinement")


@dataclass(frozen=True)
class BookEntry:
    book_id: str
    corpus_id: str
    line_ids: tuple[str, ...]
    century: int | None = None
    language: str | None = None

    def __post_init__(self):
        if len(set(self.line_ids)) != len(self.line_ids):
            raise ManifestError(f"book {self.book_id!r}: duplicate line ids")

    @property
    def line_count(self) -> int:
        return len(self.line_ids)


@dataclass(frozen=True)
class TrainingStage:
    name: str
    corpora: tuple[str, ...]
    cap_per_book: int | None = None

    def __post_init__(self):
        if self.name not in STAGE_ORDER:
            raise ManifestError(
                f"unknown stage {self.name!r}, expected one of {', '.join(STAGE_ORDER)}"
            )
        if self.name == "refinement":
            if self.cap_per_book is None or self.cap_per_book < 1:
                raise ManifestError("refinement stage requires a positive cap_per_book")
        elif self.cap_per_book is not None:
            raise ManifestError(f"stage {self.name!r} must not set cap_per_book")


@dataclass(frozen=True)
class TrainingSchedule:
    """Ordered stages plus the seed that drives refinement sampling.

    Stages must follow the canonical order (pretraining, synthetic, real,
    refinement) without repeats; stages may be omitted when a corpus class
    is unavailable.
    """

    stages: tuple[TrainingStage, ...]
    seed: int = 0

    def __post_init__(self):
        if not self.stages:
            raise ManifestError("schedule has no stages")
        positions = [STAGE_ORDER.index(s.name) for s in self.stages]
        if positions != sorted(positions) or len(set(positions)) != len(positions):
            given = " -> ".join(s.name for s in self.stages)
            raise ManifestError(
                f"stages must follow {' -> '.join(STAGE_ORDER)} without repeats, got {given}"
            )


def scan_corpus(root: str | Path, corpus_id: str) -> list[BookEntry]:
    """Scan a line-pair tree into one BookEntry per book directory.

    Lines missing either the ground-truth file or the image sibling are
    logged as warnings and excluded. An unreadable root or a root without
    book directories is an error.
    """
    root = Path(root)
    books: list[BookEntry] = []
    for book_dir, names in list_books(root, "corpus root"):
        present = set(names)
        line_ids: list[str] = []
        for name in names:
            if not name.endswith(GT_SUFFIX):
                continue
            line_id = name[: -len(GT_SUFFIX)]
            if present.isdisjoint([line_id + suffix for suffix in IMAGE_SUFFIXES]):
                logger.warning(
                    "%s/%s: line %r has ground truth but no image sibling, excluded",
                    corpus_id,
                    book_dir.name,
                    line_id,
                )
                continue
            line_ids.append(line_id)
        for name in names:
            if name.endswith(IMAGE_SUFFIXES) and (
                strip_suffix(name, IMAGE_SUFFIXES) + GT_SUFFIX not in present
            ):
                logger.warning(
                    "%s/%s: image %r has no ground-truth sibling, excluded",
                    corpus_id,
                    book_dir.name,
                    name,
                )
        books.append(BookEntry(book_dir.name, corpus_id, tuple(line_ids)))
    if not books:
        raise ManifestError(f"corpus root {root} contains no book directories")
    total = sum(b.line_count for b in books)
    logger.info("%s: %d book(s), %d line(s)", corpus_id, len(books), total)
    return books


def refinement_sample(book: BookEntry, cap: int, seed: int) -> list[str]:
    """Uniform sample without replacement of at most cap line ids.

    Deterministic for a fixed seed: the per-book generator is derived from
    the seed and the book identity, so results do not depend on scan order.
    Returned ids are sorted.
    """
    if cap < 1:
        raise ManifestError(f"cap must be >= 1, got {cap}")
    if book.line_count <= cap:
        return sorted(book.line_ids)
    material = f"{seed}:{book.corpus_id}:{book.book_id}".encode("utf-8")
    book_seed = int.from_bytes(hashlib.sha256(material).digest()[:8], "big")
    rng = random.Random(book_seed)
    # sample from the sorted population: manifests listing the same lines
    # in a different order must produce the same subset
    return sorted(rng.sample(sorted(book.line_ids), cap))


def build_schedule(
    manifests: Sequence[BookEntry], schedule: TrainingSchedule
) -> dict[str, list[tuple[str, str]]]:
    """Expand a schedule into per-stage (book_id, line_id) lists.

    Stages draw from the same pool: a line can appear in both the real and
    the refinement stage. Unknown corpus references are errors.
    """
    by_corpus: dict[str, list[BookEntry]] = {}
    for entry in manifests:
        by_corpus.setdefault(entry.corpus_id, []).append(entry)

    out: dict[str, list[tuple[str, str]]] = {}
    for stage in schedule.stages:
        unknown = [c for c in stage.corpora if c not in by_corpus]
        if unknown:
            raise ManifestError(
                f"stage {stage.name!r} references unknown corpora: {', '.join(unknown)}"
            )
        items: list[tuple[str, str]] = []
        for corpus in stage.corpora:
            for book in by_corpus[corpus]:
                if stage.name == "refinement":
                    chosen = refinement_sample(book, stage.cap_per_book, schedule.seed)
                else:
                    chosen = list(book.line_ids)
                items.extend((book.book_id, line_id) for line_id in chosen)
        out[stage.name] = items
        logger.info("stage %s: %d line(s)", stage.name, len(items))
    return out


@dataclass(frozen=True)
class CountExpectation:
    corpus_id: str
    books: int
    lines: int


@dataclass(frozen=True)
class Discrepancy:
    corpus_id: str
    field: str
    expected: int
    actual: int


def verify_counts(
    manifest: Sequence[BookEntry], expected: Iterable[CountExpectation]
) -> list[Discrepancy]:
    """Compare scanned book/line counts against an expectation table.

    Discrepancies are data, not errors: an empty list means all expectations
    hold. Corpora absent from the manifest count as zero.
    """
    books_by_corpus: dict[str, int] = {}
    lines_by_corpus: dict[str, int] = {}
    for entry in manifest:
        books_by_corpus[entry.corpus_id] = books_by_corpus.get(entry.corpus_id, 0) + 1
        lines_by_corpus[entry.corpus_id] = (
            lines_by_corpus.get(entry.corpus_id, 0) + entry.line_count
        )
    problems: list[Discrepancy] = []
    for exp in expected:
        actual_books = books_by_corpus.get(exp.corpus_id, 0)
        actual_lines = lines_by_corpus.get(exp.corpus_id, 0)
        if actual_books != exp.books:
            problems.append(Discrepancy(exp.corpus_id, "books", exp.books, actual_books))
        if actual_lines != exp.lines:
            problems.append(Discrepancy(exp.corpus_id, "lines", exp.lines, actual_lines))
    return problems


def manifest_to_json(books: Sequence[BookEntry]) -> bytes:
    payload = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "books": [
            {
                "book_id": b.book_id,
                "corpus_id": b.corpus_id,
                "lines": list(b.line_ids),
                "metadata": {"century": b.century, "language": b.language},
            }
            for b in books
        ],
    }
    return (json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n").encode("utf-8")


def manifest_from_json(data: bytes | str) -> list[BookEntry]:
    try:
        payload = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ManifestError(f"manifest is not valid UTF-8: {exc}") from exc
    if not isinstance(payload, dict):
        raise ManifestError("manifest is not a JSON object")
    if payload.get("schema_version") != MANIFEST_SCHEMA_VERSION:
        raise ManifestError(
            f"unsupported manifest schema_version {payload.get('schema_version')!r}"
        )
    if not isinstance(payload.get("books"), list):
        raise ManifestError("manifest has no books list")
    books = []
    try:
        for item in payload["books"]:
            meta = item.get("metadata", {})
            book_id, corpus_id, lines = item["book_id"], item["corpus_id"], item["lines"]
            where = f"malformed manifest: book {book_id!r}"
            if not isinstance(book_id, str) or not isinstance(corpus_id, str):
                raise ManifestError(f"{where}: book_id and corpus_id must be strings")
            if not isinstance(lines, list) or not all(isinstance(i, str) for i in lines):
                raise ManifestError(f"{where}: lines must be a list of strings")
            if not isinstance(meta, dict):
                raise ManifestError(f"{where}: metadata is not a JSON object")
            books.append(
                BookEntry(book_id, corpus_id, tuple(lines), meta.get("century"), meta.get("language"))
            )
    except KeyError as exc:
        raise ManifestError(f"malformed manifest: book without member {exc}") from exc
    except (AttributeError, TypeError) as exc:
        raise ManifestError(f"malformed manifest: {exc}") from exc
    return books


def schedule_to_json(
    schedule: TrainingSchedule, expanded: Mapping[str, Sequence[tuple[str, str]]]
) -> bytes:
    payload = {
        "schema_version": SCHEDULE_SCHEMA_VERSION,
        "seed": schedule.seed,
        "stages": [
            {
                "name": stage.name,
                "corpora": list(stage.corpora),
                "cap_per_book": stage.cap_per_book,
                "count": len(expanded[stage.name]),
                "items": [list(pair) for pair in expanded[stage.name]],
            }
            for stage in schedule.stages
        ],
    }
    return (json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n").encode("utf-8")
