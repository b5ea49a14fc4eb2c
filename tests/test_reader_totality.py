"""Every file kind a command reads, as arbitrary bytes or as a valid file
with one edit, must give exit 0 or 1 and never a traceback.

The kinds are the codec, the rules, a ground-truth and a prediction line
file, a confidence sidecar, a manifest, a report and the expected-counts
CSV of ``prepare verify``. An edit inserts a NUL, adds a BOM, turns the
line ends into CRs, repeats a line (a repeated key, entry, rule or row),
or replaces one word of the file with 1e308, ``Infinity``, a 5,000-digit
integer, the lone surrogate escape ``\\ud800``, a list nested 600 deep
(which json reads and a recursive writer cannot write) or 100,000 deep,
or a 200,000-character field. Line files stay short: eval aligns them,
so the two longest edits go only to files that are not aligned.

Each example runs the command that reads the file in process, plain and
under ``--error-json``. On exit 1 stderr is one line, a JSON object under
``--error-json``; on exit 0 a JSON output parses as strict JSON.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraktur_bench.analytics import CerCell, ConfusionEntry, build_report, report_to_json
from fraktur_bench.cli import run
from fraktur_bench.codec import _DEFAULT_CODEC_FILE
from fraktur_bench.manifests import BookEntry, manifest_to_json
from fraktur_bench.normalize import _DEFAULT_RULES_FILE

from trees import make_gt_tree, make_pred_tree, strict_json

LINE = "Das Jahr"
EVAL = ("eval", "--gt", "{root}/gt", "--pred", "{root}/pred", "--engine", "e", "--out", "{out}.json")
# kind -> (file under the tree root, the command that reads it, whether it writes JSON)
KINDS = {
    "codec": ("codec.txt", (*EVAL, "--codec", "{bad}"), True),
    "rules": ("rules.tsv", (*EVAL, "--rules", "{bad}"), True),
    "gt": ("gt/N-1781/l1.gt.txt", EVAL, True),
    "pred": ("pred/N-1781/l1.pred.e.txt", EVAL, True),
    "confidences": (
        "pred/N-1781/l1.pred.e.conf",
        ("vote", "--pred", "{root}/pred", "--engine", "e", "--engine", "f",
         "--tie-break", "confidence", "--out", "{out}"),
        False,
    ),
    "manifest": ("m.json", ("prepare", "refine", "--manifest", "{bad}", "--cap", "1",
                            "--out", "{out}.json"), True),
    "report": ("r.json", ("report", "--in", "{bad}", "--format", "json", "--out", "{out}.json"), True),
    "expected": ("e.csv", ("prepare", "verify", "--manifest", "{root}/m.json", "--expected", "{bad}",
                           "--out", "{out}.json"), True),
}
LINE_KINDS = ("gt", "pred")

# Replacements for one word of a file.
WORDS = {
    "float-max": "1e308",
    "infinity": "Infinity",
    "huge-integer": "1" * 5000,
    "surrogate": "\\ud800",
    "nested": "[" * 600 + "]" * 600,
    "deep": "[" * 100_000 + "]" * 100_000,
    "long-field": "x" * 200_000,
}
EDITS = ("bytes", "nul", "bom", "cr-only", "repeated-line", *WORDS)


def valid_files() -> dict[str, str]:
    report = build_report(
        ["N-1781"], ["e"], {"N-1781": {"e": CerCell(1, 8, 1, 1, 0.125)}},
        confusion={"e": [ConfusionEntry("a", "b", 1)]}, metadata={"seed": 7},
    )
    return {
        "codec": Path(_DEFAULT_CODEC_FILE).read_text(encoding="utf-8"),
        "rules": Path(_DEFAULT_RULES_FILE).read_text(encoding="utf-8"),
        "gt": LINE + "\n",
        "pred": "Dos Jahr\n",
        "confidences": " ".join(["0.5"] * len(LINE)) + "\n",
        "manifest": manifest_to_json([BookEntry("N-1781", "N", ("l1",))]).decode("utf-8"),
        "report": report_to_json(report).decode("utf-8"),
        "expected": "corpus_id,books,lines\nN,1,1\n",
    }


VALID = valid_files()


@pytest.fixture(scope="module")
def root(tmp_path_factory) -> Path:
    """A one-line tree read by eval and by a two-engine vote, beside every
    other file kind, each valid."""
    root = tmp_path_factory.mktemp("kinds")
    make_gt_tree(root / "gt", {"N-1781": {"l1": LINE}})
    make_pred_tree(root / "pred", "f", {"N-1781": {"l1": LINE}})
    (root / "pred" / "N-1781" / "l1.pred.f.conf").write_text(VALID["confidences"], encoding="utf-8")
    for kind, (name, _, _) in KINDS.items():
        (root / name).write_text(VALID[kind], encoding="utf-8")
    return root


def edited(draw, edit: str, text: str) -> bytes:
    """text with one edit, at a drawn place."""
    if edit == "bytes":
        return draw(st.binary(max_size=40))
    if edit == "nul":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + "\0" + text[at:]
    elif edit == "bom":
        text = "\ufeff" + text
    elif edit == "cr-only":
        text = text.replace("\n", "\r")
    elif edit == "repeated-line":
        lines = text.splitlines(keepends=True)
        at = draw(st.integers(0, len(lines) - 1))
        text = "".join(lines[: at + 1] + lines[at:])
    else:
        words = list(re.finditer(r"[\w.]+", text))
        word = words[draw(st.integers(0, len(words) - 1))]
        text = text[: word.start()] + WORDS[edit] + text[word.end() :]
    return text.encode("utf-8")


def run_reader(root: Path, kind: str, flags: list[str]) -> tuple[int, str]:
    """The exit code and stderr of the command that reads kind's file. A
    JSON output of an exit 0 must parse as strict JSON; every output is
    removed after."""
    name, argv, writes_json = KINDS[kind]
    paths = {"root": root, "bad": root / name, "out": root / "out"}
    stderr = io.StringIO()
    try:
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run([*flags, *(a.format(**paths) for a in argv)])  # a traceback raises here
        if code == 0 and writes_json:
            strict_json((root / "out.json").read_bytes())
    finally:
        shutil.rmtree(root / "out", ignore_errors=True)
        (root / "out.json").unlink(missing_ok=True)
    return code, stderr.getvalue()


@pytest.mark.parametrize("kind", KINDS)
def test_valid_files_are_read(root, kind):
    assert run_reader(root, kind, []) == (0, "")


CASES = [
    (kind, edit)
    for kind in KINDS
    for edit in EDITS
    if not (kind in LINE_KINDS and edit in ("deep", "long-field"))
]


@pytest.mark.parametrize("kind, edit", CASES, ids=[f"{k}-{e}" for k, e in CASES])
@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_every_reader_is_total(root, kind, edit, data):
    bad = root / KINDS[kind][0]
    bad.write_bytes(edited(data.draw, edit, VALID[kind]))
    try:
        for flags in ([], ["--error-json"]):
            code, err = run_reader(root, kind, flags)
            assert code in (0, 1), (flags, code, err)
            if code == 1:
                assert err.endswith("\n") and err.count("\n") == 1, err
                if flags:
                    assert set(json.loads(err)["error"]) == {"type", "message"}
                else:
                    assert err.startswith("error: ")
    finally:
        bad.write_text(VALID[kind], encoding="utf-8")
