"""One member of a valid stored report or manifest is mutated at a time:
a value of another JSON type (a container swapped for a scalar or for the
other container type among them), a negative number, an empty string or
container, a list with its first item repeated, or an object keyed by
engine with an unknown engine added. Reading the file back must then do
one of three things:

- reject it with a ReportError or ManifestError whose message names the
  member: one of the keys or list indexes on its path, a key it lost, or
  the string it became;
- read it, so that emitting it again gives the mutated value unchanged,
  besides the defaults the README documents for a missing member;
- for a member that is written but never read (aggregates, whitespace
  buckets, the derived parts of a top-k share or a cell), read it so that
  emitting it again gives the unmutated file's bytes.

The spec below says which outcome each mutation must have. A mutation
that is never valid (another type, a negative count, a repeated id or
class, an engine missing from engines, a metadata value made a container)
must be rejected; the others may be rejected or kept.
"""

from __future__ import annotations

import json
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from fraktur_bench.analytics import (
    DICTIONARY_CORPUS,
    CerCell,
    ConfusionEntry,
    build_report,
    report_from_json,
    report_to_json,
)
from fraktur_bench.errors import ManifestError, ReportError
from fraktur_bench.manifests import BookEntry, manifest_from_json, manifest_to_json

# One value of each JSON type; a mutation puts each one whose type differs
# from the member's in its place.
OTHER_TYPES = (None, True, 3, 1.5, "x", [], {}, ["x"], {"x": 1})
ENGINES = ("e1", "e|2", "e3")
DATASETS = ("N-1", "N-2", "S-1", "O-1")
# Members written but never read back; the key under a cell or a top-k share.
DERIVED_CELL = {"micro_cer", "macro_cer", "micro_pct", "macro_pct"}
DERIVED_SHARE = {"numerator", "denominator", "value"}
# A book's metadata members, each of one JSON type or null.
OR_NULL = {"century": "int", "language": "str"}


def json_type(value) -> str:
    return "bool" if isinstance(value, bool) else type(value).__name__


def mutations(value, engines):
    """(kind, mutated value) pairs for one member."""
    for other in OTHER_TYPES:
        if json_type(other) != json_type(value):
            yield "type", other
    if json_type(value) in ("int", "float"):
        yield "negative", -value - 1
    if isinstance(value, (str, list, dict)) and value:
        yield "empty", type(value)()
    if isinstance(value, list) and value:
        yield "repeated", value + value[:1]
    if isinstance(value, dict) and value and set(value) <= set(engines):
        yield "unknown engine", {**value, "zzz": next(iter(value.values()))}


def members(payload, path=()):
    """(path, value) of every member under payload, depth first."""
    items = payload.items() if isinstance(payload, dict) else enumerate(payload)
    for key, value in items:
        yield (*path, key), value
        if isinstance(value, (dict, list)):
            yield from members(value, (*path, key))


def at(payload, path):
    for key in path:
        payload = payload[key]
    return payload


def with_member(payload, path, value):
    copy = json.loads(json.dumps(payload))
    at(copy, path[:-1])[path[-1]] = value
    return copy


def report_outcome(payload, path, kind, new) -> str:
    """The outcome a report mutation must have: write-only, keep, reject or either."""
    top = path[0]
    if top in ("aggregates", "whitespace") or (top == "top_share" and not payload["confusion"]):
        return "write-only"
    if (top == "cells" and path[3:4] and path[3] in DERIVED_CELL) or (
        top == "top_share" and path[2:3] and path[2] in DERIVED_SHARE
    ):
        return "write-only"
    if kind == "unknown engine":
        return "reject" if top == "confusion" else "write-only"  # a cell of no engine is not read
    if top == "metadata" and path[1:] and path[1] != "dictionary_corpus":
        # metadata holds any scalar besides the dictionary corpus, no container
        return "reject" if isinstance(new, (dict, list)) else "keep"
    if kind == "type" and path[-1] == "cer_sum" and json_type(new) in ("int", "float"):
        return "either"
    return "reject" if kind in ("type", "negative", "repeated") else "either"


def manifest_outcome(path, kind, new) -> str:
    """The outcome a manifest mutation must have: reject or either."""
    if kind == "type" and path[-1] in OR_NULL and (new is None or json_type(new) == OR_NULL[path[-1]]):
        return "either"
    if (kind == "negative" and path[-1] == "century") or (kind == "repeated" and path == ("books",)):
        return "either"  # a book listed twice is refused by the commands, not the reader
    return "reject" if kind in ("type", "negative", "repeated") else "either"


def names_member(message: str, path, old, new) -> bool:
    names = [f"index {key}" if isinstance(key, int) else key for key in path]
    if isinstance(old, dict):
        names += map(repr, old)
    if isinstance(new, str):
        names.append(repr(new))
    return any(re.search(rf"(?<!\w){re.escape(name)}(?!\w)", message) for name in names)


def check(data: bytes, read, emit, error, outcome, path, kind, new):
    payload = json.loads(data)
    old = at(payload, path)
    mutated = with_member(payload, path, new)
    try:
        again = emit(read(json.dumps(mutated)))
    except error as exc:
        assert outcome in ("reject", "either"), (path, kind, new, str(exc))
        assert names_member(str(exc), path, old, new), (path, kind, new, str(exc))
        return
    assert outcome != "reject", (path, kind, new, again)
    if outcome == "write-only":
        assert again == data, (path, kind, new)
        return
    expected = new
    if path == ("metadata",) and isinstance(new, dict):
        expected = {"dictionary_corpus": DICTIONARY_CORPUS, **new}
    if path[-1] == "metadata" and path[0] == "books":
        expected = {"century": None, "language": None, **new}
    assert at(json.loads(again), path) == expected, (path, kind, new)


@st.composite
def reports(draw) -> bytes:
    engines = draw(st.lists(st.sampled_from(ENGINES), min_size=1, max_size=2, unique=True))
    datasets = draw(st.lists(st.sampled_from(DATASETS), min_size=1, max_size=2, unique=True))
    cells = {}
    for ds in datasets:
        cells[ds] = {}
        for eng in engines:
            lines = draw(st.integers(0, 3))
            macro_lines = draw(st.integers(0, lines))
            gt_chars, distance = draw(st.integers(0, 9)), draw(st.integers(0, 9))
            # a line's CER is at most its distance
            cer_sum = draw(st.floats(0, distance)) if macro_lines else 0
            cells[ds][eng] = CerCell(lines, gt_chars, distance, macro_lines, cer_sum)
    sides = st.tuples(st.sampled_from(["", "a", "ſ "]), st.sampled_from(["", "b", " "]))
    confusion = {}
    for eng in draw(st.lists(st.sampled_from(engines), unique=True)):
        classes = draw(st.lists(sides.filter(any), max_size=3, unique=True))
        confusion[eng] = [ConfusionEntry(g, p, draw(st.integers(1, 4))) for g, p in classes]
    report = build_report(
        datasets,
        engines,
        cells,
        confusion=confusion,
        k=draw(st.integers(1, 3)),
        metadata={"seed": 7, "merge_runs": False},
        dictionary_corpus=draw(st.sampled_from([DICTIONARY_CORPUS, "N"])),
    )
    return report_to_json(report)


@st.composite
def manifests(draw) -> bytes:
    books = []
    book_ids = draw(st.lists(st.sampled_from(["N-1", "N-2", "O-1"]), min_size=1, max_size=2, unique=True))
    for book_id in book_ids:
        line_ids = draw(st.lists(st.sampled_from(["l1", "l2", "l3"]), max_size=3, unique=True))
        century = draw(st.none() | st.integers(15, 20))
        language = draw(st.none() | st.sampled_from(["de", "la"]))
        books.append(BookEntry(book_id, book_id[0], tuple(line_ids), century, language))
    return manifest_to_json(books)


@settings(max_examples=15, deadline=None)
@given(reports())
def test_report_member_mutations(data):
    payload = json.loads(data)
    for path, value in members(payload):
        for kind, new in mutations(value, payload["engines"]):
            outcome = report_outcome(payload, path, kind, new)
            check(data, report_from_json, report_to_json, ReportError, outcome, path, kind, new)


@settings(max_examples=20, deadline=None)
@given(manifests())
def test_manifest_member_mutations(data):
    for path, value in members(json.loads(data)):
        for kind, new in mutations(value, ()):
            outcome = manifest_outcome(path, kind, new)
            check(data, manifest_from_json, manifest_to_json, ManifestError, outcome, path, kind, new)
