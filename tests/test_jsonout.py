"""dump_json against json.dumps(sort_keys=True, indent=2), byte for byte;
load_json's envelope; every emitter's check that its output is UTF-8."""

from __future__ import annotations

import json
import json.encoder
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraktur_bench.analytics import CerCell, ConfusionEntry, build_report, emit_errors_report, emit_report
from fraktur_bench.errors import ManifestError, ReportError
from fraktur_bench.jsonout import dump_json, load_json
from fraktur_bench.manifests import BookEntry, manifest_to_json, refinement_sample


def reference(value: object, ascii: bool) -> bytes | None:
    """json.dumps's bytes, or None where strict JSON refuses a NaN or an
    infinite float."""
    try:
        text = json.dumps(value, sort_keys=True, ensure_ascii=ascii, indent=2, allow_nan=False)
    except ValueError:
        return None
    return (text + "\n").encode("utf-8")


def dumped(value: object, ascii: bool) -> bytes | None:
    """dump_json's bytes, or None where it refuses a NaN or an infinite float."""
    try:
        return dump_json(value, ascii=ascii)
    except ManifestError as exc:
        assert str(exc) == "output holds NaN or Infinity, which JSON cannot hold"
        return None


# Quotes, backslashes, line breaks, control, non-ASCII and astral
# characters, and the characters JSON lays out with.
text = st.text(st.sampled_from('"\\\n\r\t\x00\x1f\x7f aäſ \U0001F600[]{},:'), max_size=6)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([10**40, -(10**40), 0.0, -0.0, float("nan"), float("inf"), float("-inf")]),
    st.floats(allow_nan=True, allow_infinity=True),
    text,
)
leaf_list = st.lists(scalars, min_size=1, max_size=4)
leaf_dict = st.dictionaries(text, scalars, min_size=1, max_size=4)


@st.composite
def leaf_rows(draw):
    """A list of non-empty scalar-only lists or dicts, one kind, in which
    one item may be empty, nested, of the other kind or a scalar."""
    rows = draw(st.lists(st.one_of(leaf_list, st.tuples(scalars, scalars)), min_size=1, max_size=5)
                if draw(st.booleans()) else st.lists(leaf_dict, min_size=1, max_size=5))
    odd = st.one_of(
        st.sampled_from([[], {}, ()]),
        leaf_list.map(lambda row: [row]),
        leaf_dict.map(lambda row: {"k": row}),
        leaf_list,
        leaf_dict,
        scalars,
    )
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), draw(odd))
    return rows


@st.composite
def deep(draw):
    """Leaves at depth 4 or more, under dicts and lists."""
    value = draw(st.one_of(leaf_dict, leaf_rows()))
    for _ in range(draw(st.integers(4, 6))):
        value = draw(st.one_of(
            st.dictionaries(text, st.just(value) | scalars, min_size=1, max_size=3),
            st.lists(st.just(value) | scalars, min_size=1, max_size=3),
        ))
    return value


base = st.one_of(scalars, st.sampled_from([[], {}, ()]), leaf_list, leaf_dict, leaf_rows())
payloads = st.one_of(
    st.recursive(
        base,
        lambda children: st.lists(children, max_size=4) | st.dictionaries(text, children, max_size=4),
        max_leaves=12,
    ),
    deep(),
)


@pytest.mark.parametrize("c_encoder", [True, False], ids=["c-encoder", "python-encoder"])
@settings(max_examples=150, deadline=None)
@given(payloads)
def test_bytes_of_json_dumps(c_encoder, value):
    with mock.patch.object(json.encoder, "c_make_encoder", json.encoder.c_make_encoder if c_encoder else None):
        for ascii in (False, True):
            assert dumped(value, ascii) == reference(value, ascii)


keys = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), text)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(keys, st.one_of(scalars, leaf_list, leaf_rows()), max_size=4))
def test_other_keys_give_the_same_bytes_or_type_error(value):
    """json.dumps writes int, float, bool and None keys as strings; a dict
    that dump_json lays out itself refuses them rather than differ."""
    try:
        got = dumped(value, False)
    except TypeError:
        return
    assert got == reference(value, False)


@pytest.mark.parametrize(
    "member, loaded",
    [
        (r'"\ud83d\ude00"', "\U0001F600"),
        (r'"\uD83D\uDE00"', "\U0001F600"),
        (r'"\\ud800"', "\\ud800"),
        (r'"\u00e4\u0064"', "äd"),
    ],
    ids=["pair", "pair-upper-case", "escaped-backslash", "not-a-surrogate"],
)
@pytest.mark.parametrize("as_bytes", [True, False], ids=["bytes", "str"])
def test_load_json_keeps_what_is_not_a_lone_surrogate(member, loaded, as_bytes):
    """A surrogate pair is one character, and a backslash escaped before
    'ud800' leaves it text; neither is a lone surrogate."""
    data = '{"schema_version": 1, "x": [%s]}' % member
    payload = load_json(data.encode("utf-8") if as_bytes else data, "report", 1, ReportError)
    assert payload == {"schema_version": 1, "x": [loaded]}


@pytest.mark.parametrize(
    "member, escape",
    [
        (r'"\ud800"', r"\ud800"),
        (r'"a\uDBFFb"', r"\udbff"),
        (r'"\ude00\ud83d"', r"\ude00"),
        (r'"\ud83d\u0041"', r"\ud83d"),
        (r'{"\udfff": 1}', r"\udfff"),
    ],
    ids=["high", "high-inside", "reversed-pair", "high-then-other", "key"],
)
@pytest.mark.parametrize("as_bytes", [True, False], ids=["bytes", "str"])
def test_load_json_rejects_a_lone_surrogate(member, escape, as_bytes):
    data = '{"schema_version": 1, "x": [%s]}' % member
    with pytest.raises(ReportError) as err:
        load_json(data.encode("utf-8") if as_bytes else data, "report", 1, ReportError)
    assert str(err.value) == f"report holds a lone surrogate escape {escape}"


def json_error(text: str) -> str:
    """json's message for text, or '' when it loads."""
    try:
        json.loads(text)
    except (ValueError, RecursionError) as exc:
        return str(exc)
    return ""


BOM = '\ufeff{"schema_version": 1}'
DEEP_LIST, DEEP_OBJECT = "[" * 100_000, '{"a": ' * 100_000
NOT_UTF8 = (
    "report is not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
)


@pytest.mark.parametrize(
    "data, message",
    [
        ('{"schema_version": 1}'.encode("utf-16"), NOT_UTF8),
        ('{"schema_version": 1}'.encode("utf-32"), NOT_UTF8),
        (BOM.encode("utf-8"), f"report is not valid JSON: {json_error(BOM)}"),
        (BOM, f"report is not valid JSON: {json_error(BOM)}"),
        (DEEP_LIST.encode("utf-8"), f"report is not valid JSON: {json_error(DEEP_LIST)}"),
        (DEEP_OBJECT, f"report is not valid JSON: {json_error(DEEP_OBJECT)}"),
    ],
    ids=["utf-16", "utf-32", "bom-bytes", "bom-str", "deep-list-bytes", "deep-object-str"],
)
def test_load_json_reads_strict_utf8_json_only(data, message):
    """Bytes are decoded as UTF-8, not by json's encoding detection, so a
    UTF-16 file or a BOM is a data error; so is nesting that json cannot
    follow without running out of recursion depth."""
    assert json_error(BOM) and json_error(DEEP_LIST) and json_error(DEEP_OBJECT)
    with pytest.raises(ReportError) as err:
        load_json(data, "report", 1, ReportError)
    assert str(err.value) == message


def report_naming(dataset: str, engine: str):
    return build_report(
        [dataset],
        [engine],
        {dataset: {engine: CerCell(1, 2, 1, 1, 0.5)}},
        confusion={engine: [ConfusionEntry("a", "b", 1)]},
    )


# Each emitter, given a function of the name to write.
EMITTERS = {
    **{
        f"report-{fmt}": (lambda name, fmt=fmt: emit_report(report_naming(name, "e"), fmt))
        for fmt in ("json", "csv", "markdown")
    },
    **{
        f"errors-{fmt}": (lambda name, fmt=fmt: emit_errors_report(report_naming("N-1", name), fmt))
        for fmt in ("json", "csv", "markdown")
    },
    "dump-json": lambda name: dump_json({"names": ["a", name]}),
    "manifest": lambda name: manifest_to_json([BookEntry(name, "N", ("l1",))]),
    "refinement-sample": lambda name: refinement_sample(BookEntry(name, "N", ("l1", "l2")), 1, 0),
}


@pytest.mark.parametrize("emit", EMITTERS.values(), ids=EMITTERS.keys())
@pytest.mark.parametrize(
    "name, message",
    [
        ("b\udce4", "name b'b\\xe4' is not valid UTF-8"),
        ("b\ud800", "name b'b\\\\ud800' is not valid UTF-8"),
    ],
    ids=["byte-not-utf8", "lone-surrogate"],
)
def test_emitter_names_what_is_not_utf8(emit, name, message):
    """A name read from the file system holds a surrogate from U+DC80 to
    U+DCFF for each byte that is not UTF-8, named as that byte; any other
    lone surrogate, which only a library caller can pass, is named by its
    escape. Either is a data error, not a UnicodeEncodeError."""
    emit("ok")
    with pytest.raises(ManifestError) as err:
        emit(name)
    assert str(err.value) == message
