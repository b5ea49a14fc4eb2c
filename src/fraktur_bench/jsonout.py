"""The bytes of every report, coverage table and manifest, made by ``utf8``,
the one place that rejects a name that is not valid UTF-8; their indented
strict JSON, by json's C encoder, which refuses NaN and Infinity; the
envelope of each stored JSON file; and the kinds its members are checked
against, by ``checked``.

``json.dumps`` with ``indent`` runs the pure-Python encoder. The C encoder
writes the same bytes, with a level's line break and indent as its item
separator, for a container of scalars and for a list of such containers of
one kind; one ``str.replace`` re-indents the boundaries between those, as an
encoded string holds no raw newline and no scalar ends in ``]`` or ``}``.
"""

from __future__ import annotations

import os
import re
from functools import cache
from itertools import chain, repeat

from .errors import ManifestError

_SCALARS = (str, int, float, type(None))
_LISTS = (list, tuple)
# How a \uD800-\uDFFF escape starts.
_SURROGATE_ESCAPES = ("\\ud", "\\uD")


# A kind: the (test, message) steps a member of a stored file must pass, in
# order; a message names the member as {what} and shows it as {value}.
STRING = ((lambda v: type(v) is str, "{what} is {value!r}, not a string"),)
STRINGS = (
    (lambda v: type(v) is list and {*map(type, v)} <= {str}, "{what} must be a list of strings"),
)
INTEGER = ((lambda v: type(v) is int, "{what} is {value!r}, not an integer"),)
OBJECT = ((lambda v: type(v) is dict, "{what} is not a JSON object"),)
LIST = ((lambda v: type(v) is list, "{what} is not a JSON list"),)


def checked(value, kind, what: str, error: type[Exception]):
    """value, if it passes every step of kind; else error with the message
    of the first step it fails."""
    for test, message in kind:
        if not test(value):
            raise error(message.format(what=what, value=value))
    return value


def or_null(kind):
    """kind, with null passing too: each message ends in "or null"."""
    return tuple((lambda v, test=test: v is None or test(v), m + " or null") for test, m in kind)


def utf8(text: str) -> bytes:
    """text as UTF-8. A name read from the file system or the command line
    holds a surrogate for each byte that is not UTF-8: the first such
    character raises ManifestError naming the bytes of its field, trimmed
    of spaces and a Markdown heading's #."""
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:
        # A field of an output: what lies between a JSON string's quotes,
        # CSV commas, Markdown bars and line breaks.
        fields = re.finditer('[^",|\n]+', text)
        field = next(m[0] for m in fields if m.end() > exc.start).strip(" #")
        try:
            name = os.fsencode(field)
        except UnicodeEncodeError:  # a surrogate below U+DC80 or above U+DCFF
            name = field.encode("utf-8", "backslashreplace")
        raise ManifestError(f"name {name!r} is not valid UTF-8") from None


def dump_json(value: object, ascii: bool = False) -> bytes:
    """``(json.dumps(value, sort_keys=True, ensure_ascii=ascii, indent=2, allow_nan=False)
    + "\\n").encode()`` exactly; a dict that holds a container must have str keys
    (else TypeError). A NaN or infinite float raises ManifestError, as strict
    JSON cannot hold it."""
    try:
        text = _layout(value, 0, ascii)
    except ValueError:  # the encoder's "Out of range float values are not JSON compliant"
        raise ManifestError("output holds NaN or Infinity, which JSON cannot hold") from None
    return utf8(text + "\n")


def load_json(data: bytes | str, kind: str, version: int, error: type[Exception]) -> dict:
    """The JSON object of a stored file of the given kind (report,
    manifest), whose schema_version must be version; raises error, naming
    the kind, for anything else: bytes not UTF-8, nesting too deep, or a
    surrogate escape outside a pair, which json decodes to a lone surrogate
    that no UTF-8 output can hold."""
    import json  # here, not at set-up: vote and normalize read no JSON

    try:
        data = data.decode("utf-8") if isinstance(data, bytes) else data
        payload = json.loads(data)
    except UnicodeDecodeError as exc:
        raise error(f"{kind} is not valid UTF-8: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also an integer over int_max_str_digits
        raise error(f"{kind} is not valid JSON: {exc}") from exc
    if any(escape in data for escape in _SURROGATE_ESCAPES):
        try:
            json.dumps(payload, ensure_ascii=False).encode("utf-8")  # NaN as json reads it
        except UnicodeEncodeError as exc:
            code = ord(exc.object[exc.start])
            raise error(f"{kind} holds a lone surrogate escape \\u{code:04x}") from None
    checked(payload, OBJECT, kind, error)
    found = payload.get("schema_version")
    if found != version or type(found) is not int:  # true and 1.0 equal 1
        raise error(f"unsupported {kind} schema_version {found!r}")
    return payload


@cache
def _encoder(ascii: bool, depth: int):
    from json import JSONEncoder  # here, not at set-up: vote and normalize write no JSON

    separators = (",\n" + "  " * depth, ": ")
    return JSONEncoder(
        sort_keys=True, ensure_ascii=ascii, separators=separators, allow_nan=False
    ).encode


def _layout(value: object, depth: int, ascii: bool) -> str:
    """value as json.dumps lays it out at indent depth."""
    encode = _encoder(ascii, depth + 1)
    is_dict = isinstance(value, dict)
    if not (is_dict or isinstance(value, _LISTS)) or not value:
        return encode(value)
    pad = "\n" + "  " * depth
    inner = pad + "  "
    if all(map(isinstance, value.values() if is_dict else value, repeat(_SCALARS))):
        text = encode(value)
        return text[0] + inner + text[1:-1] + pad + text[-1]
    if is_dict:
        if not all(map(isinstance, value, repeat(str))):
            raise TypeError("dump_json lays out dicts with str keys only")
        members = [f"{encode(k)}: {_layout(v, depth + 1, ascii)}" for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(members) + pad + "}"
    kind = _LISTS if isinstance(value[0], _LISTS) else dict
    if all(map(isinstance, value, repeat(kind))) and all(value):
        leaves = chain.from_iterable(value if kind is _LISTS else map(dict.values, value))
        if all(map(isinstance, leaves, repeat(_SCALARS))):
            text, deeper = _encoder(ascii, depth + 2)(value), inner + "  "
            first, last = text[1], text[-2]
            body = text[2:-2].replace(f"{last},{deeper}{first}", f"{inner}{last},{inner}{first}{deeper}")
            return f"[{inner}{first}{deeper}{body}{inner}{last}{pad}]"
    members = [_layout(v, depth + 1, ascii) for v in value]
    return "[" + inner + ("," + inner).join(members) + pad + "]"
