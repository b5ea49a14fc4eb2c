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

import os
import re
import sys
from collections import Counter, namedtuple
from collections.abc import Iterable, Mapping, Sequence

from .errors import ManifestError
from .jsonout import INTEGER, OBJECT, STRING, STRINGS, checked, dump_json, load_json, or_null, utf8
from .lines import GT_SUFFIX, IMAGE_SUFFIXES, list_books

MANIFEST_SCHEMA_VERSION = 1
SCHEDULE_SCHEMA_VERSION = 1

STAGE_ORDER = ("pretraining", "synthetic", "real", "refinement")

# What an image's line ids carry after the id its longest suffix leaves:
# l1.bin.png is the sibling of l1 and of l1.bin.
_IMAGE_TAILS = {
    suffix: tuple(suffix[: -len(other)] for other in IMAGE_SUFFIXES if suffix.endswith(other))
    for suffix in IMAGE_SUFFIXES
}


class BookEntry(
    namedtuple("BookEntry", "book_id corpus_id line_ids century language", defaults=(None, None))
):
    """One book directory of a corpus: its line ids, a tuple of distinct
    strings, and its optional integer century and string language."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if len(set(self.line_ids)) != len(self.line_ids):
            raise ManifestError(f"book {self.book_id!r}: duplicate line ids")
        return self

    @property
    def line_count(self) -> int:
        return len(self.line_ids)


def scan_corpus(root: str | os.PathLike, corpus_id: str) -> list[BookEntry]:
    """Scan a line-pair tree into one BookEntry per book directory.

    Lines missing either the ground-truth file or the image sibling are
    reported on stderr and excluded. An unreadable root and a root without
    book directories are errors.
    """
    # A line file's name: its line id, then the longest suffix it ends with
    # (the shortest id that leaves a whole suffix). Other names do not match.
    line_file = re.compile(
        "(.*?)(" + "|".join(map(re.escape, (GT_SUFFIX, *IMAGE_SUFFIXES))) + ")", re.DOTALL
    ).fullmatch
    books: list[BookEntry] = []
    for book_id, _, names in list_books(root, "corpus root"):
        gt_ids: list[str] = []
        images: list[tuple[str, str, str]] = []  # (name, line id, suffix)
        for match in filter(None, map(line_file, names)):
            line_id, suffix = match.groups()
            if suffix == GT_SUFFIX:
                gt_ids.append(line_id)
            else:
                images.append((match.string, line_id, suffix))
        # Every line id an image can be the sibling of.
        imaged = {line_id + tail for _, line_id, suffix in images for tail in _IMAGE_TAILS[suffix]}
        line_ids = [line_id for line_id in gt_ids if line_id in imaged]
        if len(line_ids) < len(gt_ids):
            for line_id in gt_ids:
                if line_id not in imaged:
                    print(
                        f"{corpus_id}/{book_id}: line {line_id!r} has ground truth"
                        " but no image sibling, excluded",
                        file=sys.stderr,
                    )
        with_gt = set(gt_ids)
        # An image belongs to the line its longest suffix leaves; when every
        # line id any image serves has ground truth, so does that one.
        if not with_gt.issuperset(imaged):
            for name, line_id, _ in images:
                if line_id not in with_gt:
                    print(
                        f"{corpus_id}/{book_id}: image {name!r} has no ground-truth"
                        " sibling, excluded",
                        file=sys.stderr,
                    )
        books.append(BookEntry(book_id, corpus_id, tuple(line_ids)))
    if not books:
        raise ManifestError(f"corpus root {root} contains no book directories")
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
    import hashlib  # here, not at set-up: only refine and schedule sample
    import random

    material = b":".join(map(utf8, (str(seed), book.corpus_id, book.book_id)))
    book_seed = int.from_bytes(hashlib.sha256(material).digest()[:8], "big")
    rng = random.Random(book_seed)
    # sample from the sorted population: manifests listing the same lines
    # in a different order must produce the same subset
    return sorted(rng.sample(sorted(book.line_ids), cap))


def build_schedule(
    books: Sequence[BookEntry],
    stages: Sequence[tuple[str, Sequence[str]]],
    cap: int,
    seed: int,
) -> dict[str, list[tuple[str, str]]]:
    """Expand (stage name, corpus ids) pairs into per-stage (book_id,
    line_id) lists.

    Stages must follow the canonical order (pretraining, synthetic, real,
    refinement) without repeats; stages may be omitted when a corpus class
    is unavailable. The refinement stage samples at most cap lines per book
    with the seed; the others take every line. Stages draw from the same
    pool: a line can appear in both the real and the refinement stage.
    Unknown corpus references are errors.
    """
    if not stages:
        raise ManifestError("schedule has no stages")
    for name, _ in stages:
        if name not in STAGE_ORDER:
            raise ManifestError(
                f"unknown stage {name!r}, expected one of {', '.join(STAGE_ORDER)}"
            )
    positions = [STAGE_ORDER.index(name) for name, _ in stages]
    if positions != sorted(positions) or len(set(positions)) != len(positions):
        given = " -> ".join(name for name, _ in stages)
        raise ManifestError(
            f"stages must follow {' -> '.join(STAGE_ORDER)} without repeats, got {given}"
        )
    by_corpus: dict[str, list[BookEntry]] = {}
    for entry in books:
        by_corpus.setdefault(entry.corpus_id, []).append(entry)

    out: dict[str, list[tuple[str, str]]] = {}
    for name, corpora in stages:
        unknown = [c for c in corpora if c not in by_corpus]
        if unknown:
            raise ManifestError(
                f"stage {name!r} references unknown corpora: {', '.join(unknown)}"
            )
        items: list[tuple[str, str]] = []
        for corpus in corpora:
            for book in by_corpus[corpus]:
                if name == "refinement":
                    chosen = refinement_sample(book, cap, seed)
                else:
                    chosen = list(book.line_ids)
                items.extend((book.book_id, line_id) for line_id in chosen)
        out[name] = items
    return out


def verify_counts(
    manifest: Sequence[BookEntry], expected: Iterable[tuple[str, int, int]]
) -> list[dict[str, object]]:
    """Compare scanned book/line counts against an expectation table of
    (corpus_id, books, lines) rows.

    Discrepancies are data, not errors: each is a row
    ``{"corpus_id", "field", "expected", "actual"}`` with field "books" or
    "lines", and an empty list means all expectations hold. Corpora
    absent from the manifest count as zero.
    """
    books_by_corpus = Counter(entry.corpus_id for entry in manifest)
    lines_by_corpus: Counter[str] = Counter()
    for entry in manifest:
        lines_by_corpus[entry.corpus_id] += entry.line_count
    problems: list[dict[str, object]] = []
    for corpus_id, books, lines in expected:
        for field, want, actual in (
            ("books", books, books_by_corpus[corpus_id]),
            ("lines", lines, lines_by_corpus[corpus_id]),
        ):
            if actual != want:
                problems.append(
                    {"corpus_id": corpus_id, "field": field, "expected": want, "actual": actual}
                )
    return problems


def manifest_to_json(books: Sequence[BookEntry]) -> bytes:
    payload = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "books": [
            {
                "book_id": b.book_id,
                "corpus_id": b.corpus_id,
                "lines": b.line_ids,
                "metadata": {"century": b.century, "language": b.language},
            }
            for b in books
        ],
    }
    return dump_json(payload)


# The manifest's own kinds.
_IDS = ((lambda ids: {*map(type, ids)} <= {str}, "{what}: book_id and corpus_id must be strings"),)
_CENTURY = or_null(INTEGER)
_LANGUAGE = or_null(STRING)


def manifest_from_json(data: bytes | str) -> list[BookEntry]:
    payload = load_json(data, "manifest", MANIFEST_SCHEMA_VERSION, ManifestError)
    if not isinstance(payload.get("books"), list):
        raise ManifestError("manifest has no books list")
    books = []
    try:
        for i, item in enumerate(payload["books"]):
            checked(item, OBJECT, f"book at index {i}", ValueError)
            meta = item.get("metadata", {})
            book_id, corpus_id, lines = item["book_id"], item["corpus_id"], item["lines"]
            where = f"book {book_id!r}"
            checked((book_id, corpus_id), _IDS, where, ValueError)
            checked(lines, STRINGS, f"{where}: lines", ValueError)
            checked(meta, OBJECT, f"{where}: metadata", ValueError)
            century = checked(meta.get("century"), _CENTURY, f"{where}: century", ValueError)
            language = checked(meta.get("language"), _LANGUAGE, f"{where}: language", ValueError)
            if len(set(lines)) < len(lines):
                repeated = [n for n, count in Counter(lines).items() if count > 1]
                raise ValueError(f"{where}: lines repeat {', '.join(map(repr, repeated))}")
            books.append(BookEntry(book_id, corpus_id, tuple(lines), century, language))
    except KeyError as exc:
        raise ManifestError(f"malformed manifest: book without member {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:  # ValueError: a bad member
        raise ManifestError(f"malformed manifest: {exc}") from exc
    return books


def schedule_to_json(
    stages: Sequence[tuple[str, Sequence[str]]],
    cap: int,
    seed: int,
    expanded: Mapping[str, Sequence[tuple[str, str]]],
) -> bytes:
    """The schedule as JSON; a stage's cap_per_book is cap for refinement
    and null for every other stage."""
    payload = {
        "schema_version": SCHEDULE_SCHEMA_VERSION,
        "seed": seed,
        "stages": [
            {
                "name": name,
                "corpora": list(corpora),
                "cap_per_book": cap if name == "refinement" else None,
                "count": len(expanded[name]),
                "items": expanded[name],
            }
            for name, corpora in stages
        ],
    }
    return dump_json(payload)
