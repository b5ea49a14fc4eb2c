from __future__ import annotations

import argparse
import csv
import errno
import inspect
import itertools
import json
import os
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import fraktur_bench
import fraktur_bench.align as align_module
import fraktur_bench.cli as cli_module
from fraktur_bench.analytics import (
    DEFAULT_TOP_K,
    DICTIONARY_CORPUS,
    CerCell,
    ConfusionEntry,
    build_report,
    report_to_json,
)
from fraktur_bench.cli import build_parser, run
from fraktur_bench.errors import ToolkitError
from fraktur_bench.pipeline import eval_pipeline
from fraktur_bench.manifests import BookEntry, manifest_to_json

from trees import make_gt_tree, make_pred_tree, package_env, strict_json


@pytest.fixture
def corpus(tmp_path: Path):
    gt = make_gt_tree(
        tmp_path / "gt",
        {
            "N-1781": {"l1": "Das Jahr", "l2": "gut und ſchön"},
            "N-1803": {"l1": "mehr Zeit"},
        },
    )
    make_pred_tree(
        tmp_path / "pred",
        "abbyy",
        {
            "N-1781": {"l1": "Das Jahr", "l2": "gut nnd ſchön"},
            "N-1803": {"l1": "mehr Zeit"},
        },
    )
    make_pred_tree(
        tmp_path / "pred",
        "tess",
        {
            "N-1781": {"l1": "Das Jahr", "l2": "gut und ſchön"},
            "N-1803": {"l1": "mehrZeit"},
        },
    )
    return tmp_path


def report_with(edit) -> str:
    """A valid one-cell report with one member changed in place by edit."""
    report = build_report(
        ["N-1"],
        ["e"],
        {"N-1": {"e": CerCell(1, 2, 1, 1, 0.5)}},
        confusion={"e": [ConfusionEntry("a", "b", 1)]},
    )
    payload = json.loads(report_to_json(report))
    edit(payload)
    return json.dumps(payload)


def manifest_with(edit) -> str:
    """A valid one-book manifest with one member changed in place by edit."""
    payload = json.loads(manifest_to_json([BookEntry("N-1", "N", ("l1",))]))
    edit(payload)
    return json.dumps(payload)


# CPython 3.11 bounds the digits of an int read from text; 0 is no bound.
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
INT_DIGITS_BOUNDED = pytest.mark.skipif(INT_DIGITS == 0, reason="int digits are not bounded")
HUGE_INT = "1" * (INT_DIGITS + 1)


def int_error(digits: str) -> str:
    """int's message for digits, or '' when they make an int."""
    try:
        int(digits)
    except ValueError as exc:
        return str(exc)
    return ""


def json_error(text: str) -> str:
    """json's message for text, or '' when it loads."""
    try:
        json.loads(text)
    except (ValueError, RecursionError) as exc:
        return str(exc)
    return ""


DEEP_LIST, DEEP_OBJECT = "[" * 100_000, '{"a": ' * 100_000
# A metadata value json reads, nested deeper than the JSON writer can recurse.
DEEP_METADATA = report_with(lambda r: r["metadata"].update(x=0)).replace(
    '"x": 0', '"x": ' + "[" * 600 + "]" * 600
)
NOT_SCALAR = "not a string, number, boolean or null"


def rename_dataset(report: dict) -> None:
    """Rewrite the dataset id N-1 to a lone surrogate, which json.dumps
    writes as the escape \\ud800."""
    report["datasets"] = ["\ud800"]
    report["cells"] = {"\ud800": report["cells"]["N-1"]}


EVAL_ARGS = ("--gt", "{root}/gt", "--pred", "{root}/pred", "--engine", "abbyy", "--out", "{out}")
REPORT_CSV = ("report", "--in", "{bad}", "--format", "csv", "--out", "{out}")
REPORT_JSON = ("report", "--in", "{bad}", "--format", "json", "--out", "{out}")
REPORT_MARKDOWN = ("report", "--in", "{bad}", "--format", "markdown", "--out", "{out}")
REFINE = ("prepare", "refine", "--manifest", "{bad}", "--cap", "1", "--out", "{out}")
SCHEDULE = ("prepare", "schedule", "--manifest", "{bad}", "--stage", "real=N", "--out", "{out}")
VERIFY = ("prepare", "verify", "--manifest", "{manifest}", "--expected", "{bad}", "--out", "{out}")


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert run(["eval", "--bogus"]) == 2
        capsys.readouterr()

    def test_no_command_is_2(self, capsys):
        assert run([]) == 2
        capsys.readouterr()

    def test_data_error_is_1(self, tmp_path, capsys):
        code = run(
            [
                "eval",
                "--gt", str(tmp_path / "missing"),
                "--pred", str(tmp_path / "missing"),
                "--engine", "e",
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_error_json(self, tmp_path, capsys):
        code = run(
            [
                "--error-json",
                "eval",
                "--gt", str(tmp_path / "missing"),
                "--pred", str(tmp_path / "missing"),
                "--engine", "e",
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"]["type"]
        assert payload["error"]["message"]

    @pytest.mark.parametrize(
        "argv, error_type, message",
        [
            (["report", "--in", "{missing}", "--format", "csv", "--out", "{out}"], "ReportError",
             "cannot read {missing}: No such file or directory"),
            (["prepare", "refine", "--manifest", "{missing}", "--cap", "1", "--out", "{out}"],
             "ManifestError", "cannot read {missing}: No such file or directory"),
            (
                ["prepare", "schedule", "--manifest", "{missing}", "--stage", "real=N", "--out", "{out}"],
                "ManifestError", "cannot read {missing}: No such file or directory",
            ),
            (
                ["prepare", "verify", "--manifest", "{missing}", "--expected", "{missing}", "--out", "{out}"],
                "ManifestError", "cannot read {missing}: No such file or directory",
            ),
            (
                ["prepare", "verify", "--manifest", "{manifest}", "--expected", "{missing}", "--out", "{out}"],
                "ManifestError", "cannot read {missing}: No such file or directory",
            ),
            (["normalize", "--in", "{missing}", "--out", "{out}"], "ManifestError",
             "input {missing} is neither file nor directory"),
            (
                ["eval", "--gt", "{missing}", "--pred", "{missing}", "--engine", "e",
                 "--rules", "{missing}", "--out", "{out}"],
                "RuleSetError",
                "cannot read {missing}: No such file or directory",
            ),
        ],
        ids=["report", "refine", "schedule", "verify-manifest", "verify-expected", "normalize-in",
             "rules"],
    )
    def test_missing_input_file(self, tmp_path, capsys, argv, error_type, message):
        manifest = tmp_path / "m.json"
        manifest.write_bytes(manifest_to_json([BookEntry("N-1781", "N", ("l1",))]))
        paths = {"missing": tmp_path / "missing.json", "manifest": manifest, "out": tmp_path / "o"}
        argv = [a.format(**paths) for a in argv]
        message = message.format(**paths)

        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

        assert run(["--error-json", *argv]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload == {"error": {"type": error_type, "message": message}}
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv, content, error_type, message",
        [
            (REPORT_CSV, "[]", "ReportError", "report is not a JSON object"),
            (REPORT_CSV, '{"schema_version": 1}', "ReportError", "malformed report: no member 'engines'"),
            (REPORT_CSV,
             '{"schema_version": 1, "engines": ["e"], "datasets": ["N-1"], "aggregates": []}',
             "ReportError", "malformed report: no member 'cells'"),
            (REPORT_CSV, '{"schema_version": 1, "engines": ["e"], "datasets": [], "cells": {}}',
             "ReportError", "nothing to emit: report has no datasets or no engines"),
            (REFINE, '{"schema_version": 1}', "ManifestError", "manifest has no books list"),
            (REFINE, '[{"schema_version": 1}]', "ManifestError", "manifest is not a JSON object"),
            (REFINE, '{"schema_version": 1, "books": [{"corpus_id": "N", "lines": []}]}',
             "ManifestError", "malformed manifest: book without member 'book_id'"),
            (VERIFY, "corpus,count\nN,1\n", "ManifestError",
             "{bad}: header lacks corpus_id, books, lines (want corpus_id,books,lines)"),
            (VERIFY, "", "ManifestError",
             "{bad}: header lacks corpus_id, books, lines (want corpus_id,books,lines)"),
            (VERIFY, "corpus_id,books,lines\nN,one,1\n", "ManifestError",
             "{bad}:2: books and lines must be counts written in the digits 0-9, got 'one' and '1'"),
            (VERIFY, "corpus_id,books,lines\nN,1\n", "ManifestError",
             "{bad}:2: books and lines must be counts written in the digits 0-9, got '1' and None"),
            (VERIFY, "corpus_id,books,lines\nN,1_0,1\n", "ManifestError",
             "{bad}:2: books and lines must be counts written in the digits 0-9, got '1_0' and '1'"),
            (VERIFY, "corpus_id,books,lines\nN,\u0663,1\n", "ManifestError",
             "{bad}:2: books and lines must be counts written in the digits 0-9, got '\u0663' and '1'"),
            (VERIFY, "corpus_id,books,lines\nN,1,-1\n", "ManifestError",
             "{bad}:2: books and lines must be counts written in the digits 0-9, got '1' and '-1'"),
            (VERIFY, b"corpus_id,books,lines\nN\xff,1,1\n", "ManifestError",
             "{bad} is not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 23: "
             "invalid start byte"),
            (REPORT_CSV, b'{"schema_version": 1, "engines": ["\xff"]}', "ReportError",
             "{bad} is not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 35: "
             "invalid start byte"),
            (REFINE, b'{"schema_version": 1, "books": ["\xff"]}', "ManifestError",
             "{bad} is not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 33: "
             "invalid start byte"),
            (REPORT_CSV, report_with(lambda r: r["confusion"]["e"][0].update(count=1.9)),
             "ReportError", "malformed report: confusion 'e' count is 1.9, not an integer >= 1"),
            (REPORT_CSV, report_with(lambda r: r["confusion"]["e"][0].update(count=-4)),
             "ReportError", "malformed report: confusion 'e' count is -4, not an integer >= 1"),
            (REPORT_CSV, report_with(lambda r: r["confusion"]["e"][0].update(count=True)),
             "ReportError", "malformed report: confusion 'e' count is True, not an integer >= 1"),
            (REPORT_CSV, report_with(lambda r: r["top_share"]["e"].update(k="3")),
             "ReportError", "malformed report: top_share 'e' k is '3', not an integer >= 1"),
            (REPORT_CSV, report_with(lambda r: r["top_share"]["e"].update(k=0)),
             "ReportError", "malformed report: top_share 'e' k is 0, not an integer >= 1"),
            (REPORT_CSV, report_with(lambda r: r["cells"]["N-1"]["e"].update(distance=10**400)),
             "ReportError", f"malformed report: cell 'N-1'/'e': distance is {10**400}, not below 2**53"),
            (REPORT_CSV, report_with(lambda r: r["cells"]["N-1"]["e"].update(cer_sum="0.5")),
             "ReportError", "malformed report: cell 'N-1'/'e': cer_sum is '0.5', not a number"),
            (REPORT_CSV, report_with(lambda r: r["cells"]["N-1"]["e"].update(cer_sum=False)),
             "ReportError", "malformed report: cell 'N-1'/'e': cer_sum is False, not a number"),
            (REPORT_JSON,
             report_with(lambda r: r.update(metadata=[["seed", 7], ["dictionary_corpus", "O"]])),
             "ReportError", "malformed report: metadata is not a JSON object"),
            (REPORT_JSON, report_with(lambda r: r.update(metadata=[])),
             "ReportError", "malformed report: metadata is not a JSON object"),
            (REPORT_CSV, "{", "ReportError",
             "report is not valid JSON: Expecting property name enclosed in double quotes: "
             "line 1 column 2 (char 1)"),
            (REFINE, '{"schema_version": 1,', "ManifestError",
             "manifest is not valid JSON: Expecting property name enclosed in double quotes: "
             "line 1 column 22 (char 21)"),
            pytest.param(
                REPORT_CSV, report_with(lambda r: r["cells"]["N-1"]["e"].update(distance=0)).replace(
                    '"distance": 0', f'"distance": {HUGE_INT}'
                ),
                "ReportError", f"report is not valid JSON: {int_error(HUGE_INT)}", marks=INT_DIGITS_BOUNDED,
            ),
            pytest.param(
                REFINE, manifest_with(lambda m: m["books"][0]["metadata"].update(century=0)).replace(
                    '"century": 0', f'"century": {HUGE_INT}'
                ),
                "ManifestError", f"manifest is not valid JSON: {int_error(HUGE_INT)}",
                marks=INT_DIGITS_BOUNDED,
            ),
            (REPORT_CSV, '{"schema_version": 2}', "ReportError", "unsupported report schema_version 2"),
            (REPORT_JSON, report_with(rename_dataset), "ReportError",
             "report holds a lone surrogate escape \\ud800"),
            (REPORT_CSV, report_with(rename_dataset), "ReportError",
             "report holds a lone surrogate escape \\ud800"),
            (REPORT_MARKDOWN, report_with(rename_dataset), "ReportError",
             "report holds a lone surrogate escape \\ud800"),
            (REPORT_CSV, report_with(lambda r: r["metadata"].update({"\udc00x": 1})), "ReportError",
             "report holds a lone surrogate escape \\udc00"),
            (REFINE, manifest_with(lambda m: m["books"][0].update(book_id="\ud800")), "ManifestError",
             "manifest holds a lone surrogate escape \\ud800"),
            (SCHEDULE, manifest_with(lambda m: m["books"][0].update(book_id="\ud800")), "ManifestError",
             "manifest holds a lone surrogate escape \\ud800"),
            (SCHEDULE, manifest_with(lambda m: m["books"][0]["lines"].append("l\udfff\ud800")),
             "ManifestError", "manifest holds a lone surrogate escape \\udfff"),
            (REFINE, '{"books": []}', "ManifestError", "unsupported manifest schema_version None"),
            (REPORT_CSV, '{"schema_version": true}', "ReportError", "unsupported report schema_version True"),
            (REFINE, '{"schema_version": 1.0, "books": []}', "ManifestError",
             "unsupported manifest schema_version 1.0"),
            (REPORT_CSV,
             report_with(lambda r: r["cells"]["N-1"].update(
                 e={"lines": -1, "gt_chars": 2, "distance": 1, "macro_lines": 1})),
             "ReportError", "malformed report: no member 'cer_sum'"),
            (SCHEDULE, manifest_with(lambda m: m["books"][0]["lines"].append("l1")), "ManifestError",
             "malformed manifest: book 'N-1': lines repeat 'l1'"),
            (["eval", *EVAL_ARGS, "--pred", "{root}/pred", "--engine", "tess", "--engine", "x"], "",
             "ToolkitError",
             "2 --pred path(s) for 3 --engine id(s); give one --pred per engine or a single shared tree"),
            (["eval", *EVAL_ARGS, "--engine", "abbyy"], "", "ToolkitError", "duplicate --engine ids"),
            (["eval", *EVAL_ARGS, "--datasets", "N-1781,X-1"], "", "ManifestError",
             "datasets not present under {root}/gt: X-1"),
            (["normalize", "--in", "{bad}", "--out", "{out}"], b"Das \xff\n", "ManifestError",
             "{bad} is not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 4: "
             "invalid start byte"),
            (["vote", "--pred", "{root}/pred", "--engine", "abbyy", "--engine", "tess", "--out", "{out}"],
             ("pred/N-1803/l1.pred.abbyy.conf", "0.9 0.9 0.9 0.9 x 0.9 0.9 0.9 0.9\n"),
             "VotingError", "{bad}: malformed confidence value: could not convert string to float: 'x'"),
            (["vote", "--pred", "{root}/gt", "--engine", "abbyy", "--engine", "tess", "--out", "{out}"],
             "", "VotingError", "no predictions found for any engine"),
            (["normalize", "--in", "{root}/gt", "--out", "{out}", "--pattern", "*.xml"], "",
             "ManifestError", "no files matching '*.xml' under {root}/gt"),
            (["coverage", "--in", "{root}/gt", "--pattern", "*.xml", "--out", "{out}"], "",
             "ManifestError", "no files matching '*.xml' under {root}/gt"),
            (REPORT_CSV, DEEP_LIST, "ReportError",
             f"report is not valid JSON: {json_error(DEEP_LIST)}"),
            (REFINE, DEEP_OBJECT, "ManifestError",
             f"manifest is not valid JSON: {json_error(DEEP_OBJECT)}"),
            (REPORT_JSON, report_with(lambda r: r["cells"]["N-1"]["e"].update(cer_sum=1e308)),
             "ReportError", "malformed report: cell 'N-1'/'e': cer_sum 1e+308 exceeds distance 1"),
            (REPORT_CSV, report_with(lambda r: None).encode("utf-16"), "ReportError",
             "{bad} is not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: "
             "invalid start byte"),
            (REPORT_CSV, "\ufeff" + report_with(lambda r: None), "ReportError",
             "report is not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
             "line 1 column 1 (char 0)"),
            (["vote", "--pred", "{root}/pred", "--engine", "abbyy", "--engine", "tess", "--out", "{out}"],
             ("pred/N-1803/l1.pred.abbyy.conf", "0.9 0.9 0.9 0.9 0.5_0 0.9 0.9 0.9 0.9\n"),
             "VotingError",
             "{bad}: malformed confidence value: could not convert string to float: '0.5_0'"),
            (["vote", "--pred", "{root}/pred", "--engine", "abbyy", "--engine", "tess", "--out", "{out}"],
             ("pred/N-1803/l1.pred.abbyy.conf", "0.9 0.9 0.9 0.9 \u0660.\u0669 0.9 0.9 0.9 0.9\n"),
             "VotingError",
             "{bad}: malformed confidence value: could not convert string to float: '\u0660.\u0669'"),
            (REPORT_JSON, DEEP_METADATA, "ReportError",
             f"malformed report: metadata 'x' is a JSON list, {NOT_SCALAR}"),
            (REPORT_CSV, DEEP_METADATA, "ReportError",
             f"malformed report: metadata 'x' is a JSON list, {NOT_SCALAR}"),
            (REPORT_JSON, report_with(lambda r: r["metadata"].update(x=float("nan"))), "ReportError",
             "malformed report: metadata 'x' is not a finite number"),
            (REPORT_JSON, report_with(lambda r: r["metadata"].update(x=float("inf"))), "ReportError",
             "malformed report: metadata 'x' is not a finite number"),
            (REPORT_JSON, report_with(lambda r: r["metadata"].update(x={"seed": 7})), "ReportError",
             f"malformed report: metadata 'x' is a JSON object, {NOT_SCALAR}"),
            (REPORT_JSON,
             report_with(lambda r: (rename_dataset(r), r["metadata"].update(x=float("nan")))),
             "ReportError", "report holds a lone surrogate escape \\ud800"),
            (VERIFY, "corpus_id,books,lines\n" + "x" * 200_000 + ",1,1\n", "ManifestError",
             f"{{bad}}:2: field larger than field limit ({csv.field_size_limit()})"),
            (VERIFY, "h" * 140_000 + ",corpus_id,books,lines\nN,1,1\n", "ManifestError",
             f"{{bad}}:1: field larger than field limit ({csv.field_size_limit()})"),
        ],
        ids=[
            "report-not-object", "report-no-engines", "report-no-cells", "report-no-aggregates",
            "manifest-no-books", "manifest-not-object", "manifest-book-without-id",
            "expected-no-columns", "expected-empty", "expected-not-integer", "expected-short-row",
            "expected-underscore", "expected-arabic-indic-digit", "expected-sign",
            "expected-not-utf8", "report-not-utf8", "manifest-not-utf8",
            "report-count-float", "report-count-negative", "report-count-bool",
            "report-k-string", "report-k-zero", "report-distance-past-float",
            "report-cer-sum-string", "report-cer-sum-bool",
            "report-metadata-pairs", "report-metadata-empty-list",
            "report-not-json", "manifest-not-json", "report-int-too-long", "manifest-int-too-long",
            "report-schema-version",
            "report-json-surrogate", "report-csv-surrogate", "report-markdown-surrogate",
            "report-key-surrogate", "refine-surrogate", "schedule-surrogate",
            "schedule-reversed-pair",
            "manifest-schema-version", "report-schema-version-true", "manifest-schema-version-float",
            "report-cell-member-missing-before-bad", "manifest-lines-repeated", "pred-engine-count", "engine-repeated",
            "datasets-unknown", "line-not-utf8", "confidence-malformed", "vote-no-predictions",
            "normalize-no-match", "coverage-no-match", "report-too-deep", "manifest-too-deep",
            "report-cer-sum-over-distance", "report-utf16", "report-bom", "confidence-underscore",
            "confidence-arabic-indic-digits", "report-json-metadata-too-deep",
            "report-csv-metadata-too-deep", "report-metadata-nan", "report-metadata-infinity",
            "report-metadata-object", "report-nan-and-surrogate", "expected-field-too-long",
            "expected-header-too-long",
        ],
    )
    def test_malformed_input(self, corpus, capsys, argv, content, error_type, message):
        """content goes to bad.in, or to the path in corpus that a
        (path, content) pair names; the message names it as {bad}."""
        manifest = corpus / "m.json"
        manifest.write_bytes(manifest_to_json([BookEntry("N-1781", "N", ("l1",))]))
        name, content = content if isinstance(content, tuple) else ("bad.in", content)
        bad = corpus / name
        bad.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
        paths = {"bad": bad, "manifest": manifest, "out": corpus / "o", "root": corpus}
        argv = [a.format(**paths) for a in argv]
        message = message.format(**paths)

        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

        assert run(["--error-json", *argv]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload == {"error": {"type": error_type, "message": message}}
        assert not (corpus / "o").exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["normalize", "--in", "{line}", "--out", "{out}", "--on-unmapped", "bogus"], "--on-unmapped"),
            (["normalize", "--in", "{line}", "--out", "{out}", "--on-unmapped", "replace=ab"], "--on-unmapped"),
            (["eval", *EVAL_ARGS, "--on-unmapped", "replace="], "--on-unmapped"),
            (["eval", *EVAL_ARGS, "--k", "0"], "--k"),
            (["errors", *EVAL_ARGS, "--k", "three"], "--k"),
            (["vote", "--pred", "{root}/pred", "--engine", "abbyy", "--engine", "tess",
              "--out", "{out}", "--min-voters", "1"], "--min-voters"),
            (["prepare", "refine", "--manifest", "{manifest}", "--cap", "0", "--out", "{out}"], "--cap"),
            (["prepare", "schedule", "--manifest", "{manifest}", "--stage", "real=N",
              "--cap", "-1", "--out", "{out}"], "--cap"),
            (["prepare", "refine", "--manifest", "{manifest}", "--cap", "1_0", "--out", "{out}"], "--cap"),
            (["errors", *EVAL_ARGS, "--k", "\u0663"], "--k"),
            (["vote", "--pred", "{root}/pred", "--engine", "abbyy", "--engine", "tess",
              "--out", "{out}", "--min-voters", "+2"], "--min-voters"),
            (["eval", *EVAL_ARGS, "--datasets", "N-1781,N-1781"], "--datasets"),
            (["errors", *EVAL_ARGS, "--datasets", "N-1781,N-1803,N-1781"], "--datasets"),
            (["eval", *EVAL_ARGS, "--datasets", ",N-1781"], "--datasets"),
            (["eval", *EVAL_ARGS, "--datasets", ""], "--datasets"),
            (["--seed", "1_0", "prepare", "schedule", "--manifest", "{manifest}", "--stage", "real=N",
              "--out", "{out}"], "--seed"),
            (["--seed", "\u0661_\u0660", "prepare", "schedule", "--manifest", "{manifest}",
              "--stage", "real=N", "--out", "{out}"], "--seed"),
            (["--seed", "- 3", *EVAL_ARGS], "--seed"),
            (["--seed", "+-3", *EVAL_ARGS], "--seed"),
        ],
        ids=[
            "unmapped-unknown", "unmapped-replace-two-chars", "unmapped-replace-empty", "k-zero",
            "k-not-integer", "min-voters-one", "refine-cap-zero", "schedule-cap-negative",
            "refine-cap-underscore", "k-arabic-indic-digit", "min-voters-sign",
            "datasets-repeated", "datasets-repeated-apart", "datasets-empty-id", "datasets-empty",
            "seed-underscore", "seed-arabic-indic-digits", "seed-space-after-sign", "seed-two-signs",
        ],
    )
    def test_bad_flag_value_is_usage_error(self, corpus, capsys, argv, flag):
        out = corpus / "o"
        manifest = corpus / "m.json"
        manifest.write_bytes(manifest_to_json([BookEntry("N-1781", "N", ("l1",))]))
        paths = {
            "line": corpus / "gt" / "N-1781" / "l1.gt.txt",
            "root": corpus,
            "manifest": manifest,
            "out": out,
        }
        argv = [a.format(**paths) for a in argv]
        for prefix in ([], ["--error-json"]):
            assert run([*prefix, *argv]) == 2
            err = capsys.readouterr().err
            assert err.count(f"argument {flag}:") == 1
            assert "Traceback" not in err
            assert not out.exists()


    @pytest.mark.parametrize(
        "argv",
        [
            ["prepare", "refine", "--manifest", "{a}", "--manifest", "{a}", "--cap", "1", "--out", "{out}"],
            ["prepare", "schedule", "--manifest", "{a}", "--manifest", "{b}", "--stage", "real=N,O",
             "--out", "{out}"],
            ["prepare", "verify", "--manifest", "{a}", "--manifest", "{a}", "--expected", "{expected}",
             "--out", "{out}"],
        ],
        ids=["refine-same-file", "schedule-two-files", "verify-same-file"],
    )
    def test_book_in_two_manifests(self, tmp_path, capsys, argv):
        a = tmp_path / "a.json"
        a.write_bytes(manifest_to_json([BookEntry("N-1781", "N", ("l1",)), BookEntry("N-1803", "N", ("l1",))]))
        b = tmp_path / "b.json"
        b.write_bytes(manifest_to_json([BookEntry("O-1800", "O", ("l1",)), BookEntry("N-1803", "O", ("l2",))]))
        expected = tmp_path / "counts.csv"
        expected.write_text("corpus_id,books,lines\nN,2,2\n", encoding="utf-8")
        out = tmp_path / "o"
        argv = [arg.format(a=a, b=b, expected=expected, out=out) for arg in argv]
        if str(b) in argv:
            message = f"book 'N-1803' is listed twice: in {a} and in {b}"
        else:
            message = f"book 'N-1781' is listed twice: in {a} and in {a}"

        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert run(["--error-json", *argv]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload == {"error": {"type": "ManifestError", "message": message}}
        assert not out.exists()


def _set(path: tuple, value):
    """A mutation that sets one member, reached by keys and indexes."""

    def mutate(payload):
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    return mutate


def _all(*mutations):
    """A mutation that applies each of mutations in turn."""

    def mutate(payload):
        for each in mutations:
            each(payload)

    return mutate


class TestWrongJsonTypes:
    """A manifest or report member of the wrong JSON type is a data error,
    never coerced: a string of line ids is not a list of one-character ids."""

    BOOK = ("books", 0)

    @pytest.mark.parametrize(
        "kind, mutate, message",
        [
            ("manifest", _set((*BOOK, "lines"), "l10"),
             "malformed manifest: book 'N-1781': lines must be a list of strings"),
            ("manifest", _set((*BOOK, "lines"), ["l1", 2]),
             "malformed manifest: book 'N-1781': lines must be a list of strings"),
            ("manifest", _set((*BOOK, "book_id"), 1781),
             "malformed manifest: book 1781: book_id and corpus_id must be strings"),
            ("manifest", _set((*BOOK, "corpus_id"), None),
             "malformed manifest: book 'N-1781': book_id and corpus_id must be strings"),
            ("manifest", _set((*BOOK, "metadata"), None),
             "malformed manifest: book 'N-1781': metadata is not a JSON object"),
            ("manifest", _set((*BOOK, "metadata"), ["18"]),
             "malformed manifest: book 'N-1781': metadata is not a JSON object"),
            ("manifest", _set((*BOOK, "metadata", "century"), "nineteenth"),
             "malformed manifest: book 'N-1781': century is 'nineteenth', not an integer or null"),
            ("manifest", _set((*BOOK, "metadata", "century"), True),
             "malformed manifest: book 'N-1781': century is True, not an integer or null"),
            ("manifest", _set((*BOOK, "metadata", "language"), 7),
             "malformed manifest: book 'N-1781': language is 7, not a string or null"),
            ("report", _set(("engines",), "abbyy"), "malformed report: engines must be a list of strings"),
            ("report", _set(("engines",), ["abbyy", "abbyy"]), "malformed report: engines repeat 'abbyy'"),
            ("report", _set(("datasets",), "N-1781"), "malformed report: datasets must be a list of strings"),
            ("report", _set(("datasets",), ["N-1781", 1803]),
             "malformed report: datasets must be a list of strings"),
            ("report", _set(("datasets",), ["N-1803", "N-1803"]), "malformed report: datasets repeat 'N-1803'"),
            ("report", _set(("cells", "N-1781", "abbyy", "lines"), 1.9),
             "malformed report: cell 'N-1781'/'abbyy': lines is 1.9, not an integer"),
            ("report", _set(("cells", "N-1803", "abbyy", "gt_chars"), "9"),
             "malformed report: cell 'N-1803'/'abbyy': gt_chars is '9', not an integer"),
            ("report", _set(("cells", "N-1781", "abbyy", "distance"), True),
             "malformed report: cell 'N-1781'/'abbyy': distance is True, not an integer"),
            ("report", _set(("cells", "N-1781", "abbyy", "macro_lines"), 2.0),
             "malformed report: cell 'N-1781'/'abbyy': macro_lines is 2.0, not an integer"),
            ("report", _set(("cells", "N-1781", "abbyy", "distance"), -5),
             "malformed report: cell 'N-1781'/'abbyy': distance is -5, below 0"),
            ("report", _set(("cells", "N-1803", "tess", "gt_chars"), -1),
             "malformed report: cell 'N-1803'/'tess': gt_chars is -1, below 0"),
            ("report",
             _all(_set(("cells", "N-1781", "abbyy", "lines"), 2),
                  _set(("cells", "N-1781", "abbyy", "macro_lines"), 9)),
             "malformed report: cell 'N-1781'/'abbyy': macro_lines 9 exceeds lines 2"),
            ("report", _set(("cells", "N-1781", "abbyy", "cer_sum"), float("nan")),
             "malformed report: cell 'N-1781'/'abbyy': cer_sum is nan, not a finite number >= 0"),
            ("report", _set(("cells", "N-1781", "tess", "cer_sum"), float("inf")),
             "malformed report: cell 'N-1781'/'tess': cer_sum is inf, not a finite number >= 0"),
            ("report", _set(("cells", "N-1803", "abbyy", "cer_sum"), -0.5),
             "malformed report: cell 'N-1803'/'abbyy': cer_sum is -0.5, not a finite number >= 0"),
            ("report", _set(("metadata",), [["seed", 7], ["dictionary_corpus", "O"]]),
             "malformed report: metadata is not a JSON object"),
            ("report", _set(("metadata",), []), "malformed report: metadata is not a JSON object"),
            ("report", _set(("metadata", "dictionary_corpus"), 5),
             "malformed report: metadata dictionary_corpus is 5, not a string"),
            ("report", _set(("confusion", "abbyy", 0, "gt"), 5),
             "malformed report: confusion 'abbyy' gt is 5, not a string"),
            ("report", _set(("confusion", "tess", 0, "pred"), None),
             "malformed report: confusion 'tess' pred is None, not a string"),
            ("report", _set(("confusion", "tess", 0, "gt"), ""),
             "malformed report: confusion 'tess' has a class with both sides empty"),
            ("report", _set(("confusion", "abbyy"), [{"count": 1, "gt": "u", "pred": "n"}] * 2),
             "malformed report: confusion 'abbyy' repeats 'u' -> 'n'"),
            ("report",
             _all(
                 _set(("confusion", "zzz"), [{"count": 1, "gt": "a", "pred": "b"}]),
                 _set(("top_share", "zzz"), {"denominator": 1, "k": 3, "numerator": 1, "value": 1.0}),
             ),
             "malformed report: confusion 'zzz' is not in engines"),
            ("manifest", _set(BOOK, "N-1781"), "malformed manifest: book at index 0 is not a JSON object"),
            ("manifest", _set(BOOK, {"book_id": 1781, "corpus_id": "N", "metadata": {}}),
             "malformed manifest: book without member 'lines'"),
            ("report", _set(("confusion",), []), "malformed report: confusion is not a JSON object"),
            ("report", _set(("cells",), []), "malformed report: cells is not a JSON object"),
            ("report", _set(("cells", "N-1803"), []), "malformed report: cells 'N-1803' is not a JSON object"),
            ("report", _set(("cells", "N-1781", "tess"), [1, 2]),
             "malformed report: cell 'N-1781'/'tess' is not a JSON object"),
            ("report", _set(("confusion", "abbyy"), {"gt": "u", "pred": "n", "count": 1}),
             "malformed report: confusion 'abbyy' is not a JSON list"),
            ("report", _set(("confusion", "tess", 0), 3),
             "malformed report: confusion 'tess' class at index 0 is not a JSON object"),
            ("report", _set(("top_share",), []), "malformed report: top_share is not a JSON object"),
            ("report", _set(("top_share", "abbyy"), 3),
             "malformed report: top_share 'abbyy' is not a JSON object"),
        ],
        ids=[
            "lines-string", "lines-not-strings", "book-id-number", "corpus-id-null", "metadata-null",
            "metadata-list", "century-string", "century-bool", "language-number", "engines-string",
            "engines-repeated", "datasets-string", "datasets-not-strings", "datasets-repeated",
            "cell-lines-float", "cell-gt-chars-string",
            "cell-distance-bool", "cell-macro-lines-float", "cell-distance-negative",
            "cell-gt-chars-negative", "cell-macro-lines-over-lines", "cell-cer-sum-nan",
            "cell-cer-sum-infinity", "cell-cer-sum-negative", "report-metadata-pairs",
            "report-metadata-empty-list", "dictionary-corpus-number", "confusion-gt-number",
            "confusion-pred-null", "confusion-both-sides-empty", "confusion-class-repeated",
            "confusion-unknown-engine", "book-string", "book-id-number-without-lines",
            "confusion-list", "cells-list", "cells-row-list", "cell-list", "confusion-table-object",
            "confusion-class-number", "top-share-list", "top-share-entry-number",
        ],
    )
    def test_rejected(self, corpus, tmp_path, capsys, kind, mutate, message):
        out = tmp_path / "o"
        if kind == "manifest":
            payload = {
                "schema_version": 1,
                "books": [{"book_id": "N-1781", "corpus_id": "N", "lines": ["l1", "l2"], "metadata": {}}],
            }
            expected = tmp_path / "counts.csv"
            expected.write_text("corpus_id,books,lines\nN,1,3\n", encoding="utf-8")
            bad = tmp_path / "m.json"
            commands = [
                ["prepare", "refine", "--manifest", str(bad), "--cap", "2", "--out", str(out)],
                ["prepare", "verify", "--manifest", str(bad), "--expected", str(expected), "--out", str(out)],
            ]
        else:
            stored = tmp_path / "report.json"
            argv = ["eval", *EVAL_ARGS, "--engine", "tess"]
            assert run([a.format(root=corpus, out=stored) for a in argv]) == 0
            payload = json.loads(stored.read_bytes())
            bad = tmp_path / "bad.json"
            commands = [["report", "--in", str(bad), "--format", "csv", "--out", str(out)]]
        mutate(payload)
        bad.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()

        for argv in commands:
            assert run(argv) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
            assert run(["--error-json", *argv]) == 1
            error_type = "ManifestError" if kind == "manifest" else "ReportError"
            assert json.loads(capsys.readouterr().err) == {"error": {"type": error_type, "message": message}}
            assert not out.exists()


class TestReplacementOutsideCodec:
    """replace=<char> with a character outside the codec fails before any
    line is read, whether or not some line would need the replacement."""

    @pytest.mark.parametrize("text", ["Das Jahr", "Das Jahr \u20ac"], ids=["clean", "dirty"])
    @pytest.mark.parametrize("command", ["normalize", "eval", "errors"])
    def test_rejected_up_front(self, tmp_path, capsys, command, text):
        make_gt_tree(tmp_path / "gt", {"N-1781": {"l1": text}})
        make_pred_tree(tmp_path / "pred", "abbyy", {"N-1781": {"l1": text}})
        out = tmp_path / "o"
        if command == "normalize":
            argv = ["normalize", "--in", str(tmp_path / "gt" / "N-1781" / "l1.gt.txt"), "--out", str(out)]
        else:
            argv = [command, *(a.format(root=tmp_path, out=out) for a in EVAL_ARGS)]
        argv += ["--on-unmapped", "replace=\u20ac"]

        assert run(argv) == 1
        assert capsys.readouterr().err == "error: replacement '\u20ac' is not a single codec character\n"
        assert run(["--error-json", *argv]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload == {
            "error": {
                "type": "NormalizationError",
                "message": "replacement '\u20ac' is not a single codec character",
            }
        }
        assert not out.exists()


class TestUnwritableOutput:
    """An output path that cannot be written is a data error: one line,
    exit 1, --error-json honoured, and no output or temp file left behind.
    The directory taken/ holds a regular file N-1803, where a tree writer
    wants book N-1803's directory: its earlier book must not be written."""

    @pytest.mark.parametrize(
        "argv, out, written, reason",
        [
            (["eval", *EVAL_ARGS], "{root}/taken", "{root}/taken", "Is a directory"),
            (["eval", *EVAL_ARGS], "{root}/file/r.json", "{root}/file/r.json", "File exists"),
            (["normalize", "--in", "{root}/gt/N-1781/l1.gt.txt", "--out", "{out}"],
             "{root}/taken", "{root}/taken", "Is a directory"),
            # vote fails on its first voted line
            (["vote", "--pred", "{root}/pred", "--engine", "abbyy", "--engine", "tess",
              "--out", "{out}"], "{root}/file", "{root}/file/N-1781/l1.pred.voted.txt",
             "Not a directory"),
            (["vote", "--pred", "{root}/pred", "--engine", "abbyy", "--engine", "tess",
              "--out", "{out}"], "{root}/taken", "{root}/taken/N-1803/l1.pred.voted.txt",
             "File exists"),
            (["normalize", "--in", "{root}/gt", "--out", "{out}"],
             "{root}/taken", "{root}/taken/N-1803/l1.gt.txt", "File exists"),
        ],
        ids=["eval-out-is-directory", "eval-out-under-file", "normalize-out-is-directory",
             "vote-out-is-file", "vote-later-book-dir-is-file", "normalize-later-book-dir-is-file"],
    )
    def test_one_line_error(self, corpus, capsys, argv, out, written, reason):
        (corpus / "taken").mkdir()
        (corpus / "taken" / "N-1803").write_text("x\n", encoding="utf-8")
        (corpus / "file").write_text("x\n", encoding="utf-8")
        argv = [a.format(root=corpus, out=out.format(root=corpus)) for a in argv]
        written = written.format(root=corpus)

        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: cannot write {written}: {reason}\n"
        assert run(["--error-json", *argv]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload == {
            "error": {"type": "ToolkitError", "message": f"cannot write {written}: {reason}"}
        }
        written_files = [p for p in (corpus / "taken").rglob("*") if p.is_file()]
        assert written_files == [corpus / "taken" / "N-1803"]
        assert list(corpus.rglob("*.tmp")) == []
        assert (corpus / "file").read_text(encoding="utf-8") == "x\n"


class TestAtomicWrite:
    """An output is written to a temp file .NAME.PID.N.tmp beside it, made
    with O_EXCL, then renamed over it: the output has mode 0600, and a file
    or symlink already at a temp name is passed over and left as it was."""

    @pytest.mark.parametrize("umask", [0o022, 0], ids=["umask-022", "umask-000"])
    def test_outputs_have_mode_0600(self, corpus, capsys, umask):
        out = corpus / "out"
        commands = [
            ["eval", *(a.format(root=corpus, out=out / "r.json") for a in EVAL_ARGS)],
            ["vote", "--pred", str(corpus / "pred"), "--engine", "abbyy", "--engine", "tess",
             "--out", str(out / "voted")],
            ["prepare", "scan", "--root", str(corpus / "gt"), "--corpus", "N", "--out", str(out / "N.json")],
            ["prepare", "refine", "--manifest", str(out / "N.json"), "--cap", "1",
             "--out", str(out / "refined.json")],
        ]
        old = os.umask(umask)
        try:
            assert [run(argv) for argv in commands] == [0] * len(commands)
        finally:
            os.umask(old)
        capsys.readouterr()
        modes = {
            str(p.relative_to(out)): stat.S_IMODE(p.stat().st_mode) for p in out.rglob("*") if p.is_file()
        }
        assert len(modes) == 6
        assert modes == dict.fromkeys(modes, 0o600)

    def test_taken_temp_names_are_passed_over(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli_module, "_temp_serial", itertools.count())
        pid = os.getpid()
        taken = tmp_path / f".r.json.{pid}.0.tmp"
        taken.write_bytes(b"not ours\n")
        target = tmp_path / "target"
        target.write_bytes(b"target\n")
        link = tmp_path / f".r.json.{pid}.1.tmp"
        link.symlink_to(target)

        cli_module.write_atomic(tmp_path / "r.json", b"report\n")

        assert (tmp_path / "r.json").read_bytes() == b"report\n"
        assert taken.read_bytes() == b"not ours\n"
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == b"target\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [taken.name, link.name, "r.json", "target"]
        )

    def test_gives_up_when_every_temp_name_is_taken(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli_module, "_TEMP_NAMES", 2)
        monkeypatch.setattr(cli_module, "_temp_serial", itertools.count())
        taken = [tmp_path / f".r.json.{os.getpid()}.{n}.tmp" for n in (0, 1)]
        for path in taken:
            path.write_bytes(b"not ours\n")

        with pytest.raises(ToolkitError) as err:
            cli_module.write_atomic(tmp_path / "r.json", b"report\n")

        assert str(err.value) == f"cannot write {tmp_path / 'r.json'}: File exists"
        assert sorted(tmp_path.iterdir()) == taken
        assert [path.read_bytes() for path in taken] == [b"not ours\n"] * 2

    def test_makes_no_directory(self, tmp_path):
        """write_atomic writes into an existing directory; making the
        directories of a command's outputs is run's job."""
        path = tmp_path / "missing" / "r.json"
        with pytest.raises(ToolkitError) as err:
            cli_module.write_atomic(path, b"report\n")

        assert str(err.value) == f"cannot write {path}: No such file or directory"
        assert list(tmp_path.rglob("*")) == []


class TestDataErrorsNameTheLine:
    """A data error in one line names its book and line, and whose text it
    is: an engine's or the ground truth."""

    ENGINES = ("e1", "e2", "e3")

    def build(self, root: Path, overrides: dict[str, str | None]) -> None:
        files: dict[str, str | None] = {}
        for book, line_id in (("A", "l1"), ("B", "l1"), ("B", "l2")):
            files[f"gt/{book}/{line_id}.gt.txt"] = "abc"
            for engine in self.ENGINES:
                files[f"pred/{book}/{line_id}.pred.{engine}.txt"] = "abc"
                files[f"pred/{book}/{line_id}.pred.{engine}.conf"] = "0.5 0.5 0.5"
        files.update(overrides)
        for name, text in files.items():
            if text is not None:
                (root / name).parent.mkdir(parents=True, exist_ok=True)
                (root / name).write_text(text + "\n", encoding="utf-8")

    @pytest.mark.parametrize(
        "overrides, argv, error_type, message",
        [
            (
                {"pred/B/l2.pred.e2.txt": "a\u2020c"},
                ["eval", "--gt", "{root}/gt", "--pred", "{root}/pred", "--engine", "e1",
                 "--engine", "e2", "--out", "{out}"],
                "NormalizationError",
                "book 'B', line 'l2' (engine 'e2'): 1 character(s) outside codec 'default' "
                "after normalization: '\u2020' (U+2020) at 1",
            ),
            (
                {"gt/B/l2.gt.txt": "a\u2020c"},
                ["errors", "--gt", "{root}/gt", "--pred", "{root}/pred", "--engine", "e1",
                 "--out", "{out}"],
                "NormalizationError",
                "book 'B', line 'l2' (ground truth): 1 character(s) outside codec 'default' "
                "after normalization: '\u2020' (U+2020) at 1",
            ),
            (
                {"pred/B/l2.pred.e3.txt": None},
                ["vote", "--pred", "{root}/pred", "--engine", "e1", "--engine", "e2",
                 "--engine", "e3", "--pivot", "e3", "--out", "{out}"],
                "VotingError",
                "book 'B', line 'l2': pivot engine 'e3' not among voters",
            ),
            (
                {"pred/B/l2.pred.e2.conf": None, "pred/B/l2.pred.e3.conf": None},
                ["vote", "--pred", "{root}/pred", "--engine", "e1", "--engine", "e2",
                 "--engine", "e3", "--tie-break", "confidence", "--out", "{out}"],
                "VotingError",
                "book 'B', line 'l2': tie_break='confidence' requires confidences from "
                "every voter; missing: e2, e3",
            ),
            (
                {"pred/B/l2.pred.e1.conf": "1.5 0.5 0.5"},
                ["vote", "--pred", "{root}/pred", "--engine", "e1", "--engine", "e2",
                 "--engine", "e3", "--out", "{out}"],
                "VotingError",
                "book 'B', line 'l2': engine 'e1': confidence 1.5 outside [0, 1]",
            ),
            (
                {"pred/B/l2.pred.e1.conf": "0.5 0.5 nan"},
                ["vote", "--pred", "{root}/pred", "--engine", "e1", "--engine", "e2",
                 "--engine", "e3", "--out", "{out}"],
                "VotingError",
                "book 'B', line 'l2': engine 'e1': confidence nan outside [0, 1]",
            ),
        ],
        ids=["eval-prediction", "errors-ground-truth", "vote-pivot-absent",
             "vote-confidences-missing", "vote-confidence-out-of-range",
             "vote-confidence-nan"],
    )
    def test_message(self, tmp_path, capsys, overrides, argv, error_type, message):
        self.build(tmp_path, overrides)
        out = tmp_path / "out"
        argv = [a.format(root=tmp_path, out=out) for a in argv]

        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert run(["--error-json", *argv]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload == {"error": {"type": error_type, "message": message}}
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (
                {"pred/A/l1.pred.e3.txt": None, "pred/A/l1.pred.e3.conf": None,
                 "pred/B/l2.pred.e1.conf": "0.5 nan 0.5"},
                "book 'A', line 'l1': pivot engine 'e3' not among voters",
            ),
            (
                {"pred/A/l1.pred.e1.conf": "0.5 nan 0.5",
                 "pred/B/l2.pred.e3.txt": None, "pred/B/l2.pred.e3.conf": None},
                "book 'A', line 'l1': engine 'e1': confidence nan outside [0, 1]",
            ),
            (
                {"pred/B/l2.pred.e1.conf": "0.5 nan 0.5",
                 "pred/B/l2.pred.e3.txt": None, "pred/B/l2.pred.e3.conf": None},
                "book 'B', line 'l2': engine 'e1': confidence nan outside [0, 1]",
            ),
            (
                {"pred/B/l2.pred.e1.conf": "0.5 x 0.5",
                 "pred/B/l2.pred.e3.txt": None, "pred/B/l2.pred.e3.conf": None},
                "{root}/pred/B/l2.pred.e1.conf: malformed confidence value: "
                "could not convert string to float: 'x'",
            ),
        ],
        ids=["pivot-absent-first", "nan-first", "nan-before-pivot-absent",
             "malformed-sidecar-unlabelled"],
    )
    def test_vote_reports_the_first_bad_line(self, tmp_path, capsys, overrides, message):
        # vote checks every line before it aligns any, in (book, line)
        # order: a line whose voters cannot be built (a NaN sidecar) and a
        # line that fails the check (no pivot engine) are reported alike.
        # Within a line, its sidecars are read first (a malformed one names
        # its file, not the line), then its voters' records are built, then
        # the line is checked.
        message = message.format(root=os.path.realpath(tmp_path))
        self.build(tmp_path, overrides)
        out = tmp_path / "out"
        argv = ["vote", "--pred", str(tmp_path / "pred"), "--engine", "e1", "--engine", "e2",
                "--engine", "e3", "--pivot", "e3", "--out", str(out)]

        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert run(["--error-json", *argv]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload == {"error": {"type": "VotingError", "message": message}}
        assert not out.exists()


class TestDefaults:
    """The defaults of --k and --dictionary-corpus are written once, in
    analytics, and the CLI and the library read them from there."""

    @pytest.mark.parametrize("command", ["eval", "errors"])
    def test_parser_defaults(self, command):
        args = build_parser().parse_args(
            [command, "--gt", "g", "--pred", "p", "--engine", "e", "--out", "o"]
        )
        assert (args.k, args.dictionary_corpus) == (DEFAULT_TOP_K, DICTIONARY_CORPUS)

    def test_library_defaults(self):
        params = inspect.signature(eval_pipeline).parameters
        assert params["top_k"].default == DEFAULT_TOP_K
        assert params["dictionary_corpus"].default == DICTIONARY_CORPUS
        params = inspect.signature(build_report).parameters
        assert params["k"].default == DEFAULT_TOP_K
        assert params["dictionary_corpus"].default == DICTIONARY_CORPUS


USAGE_CASES = json.loads(
    (Path(__file__).parent / "data" / "cli_usage.json").read_text(encoding="utf-8")
)


class TestParser:
    """Help and usage errors, byte for byte as the parser that added every
    command's arguments up front printed them. They were captured under
    CPython 3.11 with COLUMNS=80, since argparse wraps help to the
    terminal width."""

    @pytest.mark.skipif(
        sys.version_info[:2] != (3, 11), reason="other versions of argparse word help differently"
    )
    @pytest.mark.parametrize(
        "case", USAGE_CASES, ids=[" ".join(c["argv"]) or "no-arguments" for c in USAGE_CASES]
    )
    def test_output_unchanged(self, monkeypatch, capsys, case):
        monkeypatch.setenv("COLUMNS", "80")
        assert run(list(case["argv"])) == case["code"]
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (case["stdout"], case["stderr"])

    def test_only_the_chosen_command_gets_arguments(self, monkeypatch):
        calls = []
        real = argparse._ActionsContainer.add_argument

        def add_argument(self, *args, **kwargs):
            calls.append(args)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(argparse._ActionsContainer, "add_argument", add_argument)
        args = build_parser().parse_args(
            ["prepare", "scan", "--root", "r", "--corpus", "N", "--out", "o"]
        )
        assert (args.root, args.corpus, args.out) == ("r", "N", "o")
        # the root's four, one -h per sub-parser and scan's three: 18, where
        # building every command's arguments made 73
        assert len(calls) <= 25


class TestNormalizeCommand:
    def test_single_file(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("Im „Haus“\n", encoding="utf-8")
        dst = tmp_path / "out.txt"
        assert run(["normalize", "--in", str(src), "--out", str(dst)]) == 0
        assert dst.read_text(encoding="utf-8") == 'Jm "Haus"\n'
        capsys.readouterr()

    def test_tree_mode(self, tmp_path, capsys):
        gt = make_gt_tree(tmp_path / "gt", {"b1": {"l1": "Im Anfang", "l2": "ſchön"}})
        out = tmp_path / "norm"
        assert run(["normalize", "--in", str(gt), "--out", str(out)]) == 0
        assert (out / "b1" / "l1.gt.txt").read_text(encoding="utf-8") == "Jm Anfang\n"
        capsys.readouterr()

    def test_tree_mode_checks_every_file_before_writing(self, tmp_path, capsys):
        gt = make_gt_tree(tmp_path / "gt", {"b1": {"l1": "Im Anfang", "l2": "a\u2020b"}})
        out = tmp_path / "norm"
        argv = ["normalize", "--in", str(gt), "--out", str(out)]

        assert run(argv) == 1
        err = capsys.readouterr().err
        # the line id comes without its .gt.txt suffix, as in eval
        assert err == (
            "error: book 'b1', line 'l2' (ground truth): 1 character(s) outside codec "
            "'default' after normalization: '\u2020' (U+2020) at 1\n"
        )
        assert run(["--error-json", *argv]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert set(payload) == {"error"} and set(payload["error"]) == {"type", "message"}
        assert payload["error"]["type"] == "NormalizationError"
        assert payload["error"]["message"] == err[len("error: "):-1]
        assert not out.exists()

    def test_unmapped_fail(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("a†b\n", encoding="utf-8")
        code = run(["normalize", "--in", str(src), "--out", str(tmp_path / "o.txt")])
        assert code == 1
        assert "U+2020" in capsys.readouterr().err

    def test_unmapped_drop(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("a†b\n", encoding="utf-8")
        dst = tmp_path / "o.txt"
        assert run(["normalize", "--in", str(src), "--out", str(dst), "--on-unmapped", "drop"]) == 0
        assert dst.read_text(encoding="utf-8") == "ab\n"
        capsys.readouterr()

    def test_unmapped_replace(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("a†b€\n", encoding="utf-8")
        dst = tmp_path / "o.txt"
        argv = ["normalize", "--in", str(src), "--out", str(dst), "--on-unmapped", "replace=?"]
        assert run(argv) == 0
        assert dst.read_bytes() == b"a?b?\n"
        capsys.readouterr()


COVERAGE_JSON = """\
{
  "codec": "default",
  "in_codec": [
    {
      "char": "a",
      "count": 2
    },
    {
      "char": "ſ",
      "count": 2
    },
    {
      "char": " ",
      "count": 1
    },
    {
      "char": "ä",
      "count": 1
    }
  ],
  "out_of_codec": [
    {
      "char": "“",
      "count": 1
    },
    {
      "char": "„",
      "count": 1
    },
    {
      "char": "†",
      "count": 1
    }
  ],
  "total_chars": 9
}
"""


class TestCoverageCommand:
    """The coverage JSON, byte for byte: total_chars counts every character
    of every matched file, and both tables run by count, then code point."""

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_output_bytes(self, tmp_path, capsys, to_file):
        gt = make_gt_tree(tmp_path / "gt", {"A": {"l1": "„ſa“ ä"}, "B": {"l1": "ſa†"}})
        make_pred_tree(gt, "e", {"B": {"l1": "not matched by the pattern"}})
        argv = ["coverage", "--in", str(gt)]
        out = tmp_path / "coverage.json"
        assert run([*argv, "--out", str(out)] if to_file else argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        if to_file:
            assert captured.out == ""
            assert out.read_bytes() == COVERAGE_JSON.encode("utf-8")
        else:
            assert captured.out == COVERAGE_JSON


class TestPatternStaysUnderIn:
    """A --pattern that could leave --in is a data error before any file is
    read, and nothing is written anywhere."""

    @pytest.mark.parametrize("command", ["normalize", "coverage"])
    @pytest.mark.parametrize(
        "pattern",
        ["../side/*.gt.txt", "b1/../../side/*.gt.txt", "{root}/side/*.gt.txt", "/x/*.txt"],
        ids=["parent", "inner-parent", "absolute", "absolute-missing"],
    )
    def test_rejected(self, tmp_path, capsys, command, pattern):
        gt = make_gt_tree(tmp_path / "gt", {"b1": {"l1": "Im Anfang"}})
        (tmp_path / "side").mkdir()
        (tmp_path / "side" / "x.gt.txt").write_text("Im Hof\n", encoding="utf-8")
        pattern = pattern.format(root=tmp_path)
        out = tmp_path / "out" / ("norm" if command == "normalize" else "coverage.json")
        argv = [command, "--in", str(gt), "--out", str(out), "--pattern", pattern]

        def tree():
            return {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")}

        before = tree()
        message = f"--pattern {pattern!r} must stay under --in: no absolute path, no '..' part"
        assert run(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert run(["--error-json", *argv]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload == {"error": {"type": "ManifestError", "message": message}}
        assert tree() == before


def tree_bytes(root: Path) -> dict[Path, bytes | None]:
    """Every path under root, with the bytes of each regular file."""
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


class TestNoCommandReadsOps:
    """AlignmentResult.ops, the full edit script, is kept for the
    benchmark's reference check only: no command reads it."""

    def test_outputs_unchanged_when_ops_raises(self, corpus, monkeypatch, capsys):
        for pred in (corpus / "pred").rglob("*.txt"):
            text = pred.read_text(encoding="utf-8").rstrip("\n")
            values = [f"0.{(i * 7) % 9 + 1}" for i in range(len(text))]
            pred.with_suffix(".conf").write_text(" ".join(values) + "\n", encoding="utf-8")
        out = corpus / "out"
        trees = ["--gt", str(corpus / "gt"), "--pred", str(corpus / "pred"),
                 "--engine", "abbyy", "--engine", "tess"]
        commands = [
            ["eval", *trees, "--format", "json", "--out", str(out / "eval.json")],
            ["errors", *trees, "--merge-runs", "--format", "csv", "--out", str(out / "errors.csv")],
            ["vote", "--pred", str(corpus / "pred"), "--engine", "abbyy", "--engine", "tess",
             "--tie-break", "confidence", "--out", str(out / "voted")],
            ["report", "--in", str(out / "eval.json"), "--format", "markdown",
             "--out", str(out / "report.md")],
        ]

        def run_all():
            streams = []
            for argv in commands:
                assert run(argv) == 0
                streams.append(capsys.readouterr())
            written = tree_bytes(out)
            shutil.rmtree(out)
            return streams, written

        plain = run_all()

        def refuse(result):
            raise AssertionError("a command read AlignmentResult.ops")

        monkeypatch.setattr(align_module.AlignmentResult, "ops", property(refuse))
        with pytest.raises(AssertionError):
            align_module.align("gut", "gnt").ops
        assert run_all() == plain
        assert sorted(p.relative_to(out).as_posix() for p, data in plain[1].items() if data) == [
            "errors.csv", "eval.json", "report.md", "voted/N-1781/l1.pred.voted.txt",
            "voted/N-1781/l2.pred.voted.txt", "voted/N-1803/l1.pred.voted.txt",
        ]


class TestPatternMatchesFiles:
    """--pattern matches files only, at any depth below --in: '*' passes
    a sub-directory over rather than read it, and a pattern that only a
    directory could match finds no file."""

    @pytest.fixture
    def tree(self, tmp_path):
        gt = make_gt_tree(tmp_path / "gt", {"A": {"l1": "Im"}, "B": {"l1": "Hof"}})
        make_gt_tree(gt / "A" / "sub", {"C": {"l2": "ſa"}})
        for png in gt.rglob("*.png"):
            png.unlink()
        return gt

    def test_normalize_star(self, tree, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["normalize", "--in", str(tree), "--out", str(out), "--pattern", "*"]) == 0
        assert capsys.readouterr() == (f"normalized 3 file(s) -> {out}\n", "")
        written = sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())
        assert written == ["A/l1.gt.txt", "A/sub/C/l2.gt.txt", "B/l1.gt.txt"]
        assert (out / "A" / "sub" / "C" / "l2.gt.txt").read_bytes() == "ſa\n".encode("utf-8")

    def test_coverage_star(self, tree, tmp_path, capsys):
        out = tmp_path / "coverage.json"
        assert run(["coverage", "--in", str(tree), "--pattern", "*", "--out", str(out)]) == 0
        assert json.loads(out.read_bytes())["total_chars"] == len("Im" + "Hof" + "ſa")

    @pytest.mark.parametrize("command", ["normalize", "coverage"])
    @pytest.mark.parametrize("pattern", ["**", "", "A/", "*/**"], ids=["star-star", "empty", "dir", "ends-in-star-star"])
    def test_no_file(self, tree, tmp_path, capsys, command, pattern):
        argv = [command, "--in", str(tree), "--out", str(tmp_path / "out"), "--pattern", pattern]
        before = tree_bytes(tmp_path)
        message = f"no files matching {pattern!r} under {tree}"
        assert run(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert run(["--error-json", *argv]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload == {"error": {"type": "ManifestError", "message": message}}
        assert tree_bytes(tmp_path) == before


class TestSymlinkLoop:
    """A path argument that runs into a symlink loop is a data error: the
    message its command gives any unreadable input or unwritable output,
    with the system's reason for the loop, and nothing is written."""

    REASON = os.strerror(errno.ELOOP)
    VOTE = ("vote", "--engine", "abbyy", "--engine", "tess")

    @pytest.mark.parametrize(
        "argv, error_type, message",
        [
            (["eval", "--gt", "{loop}", "--pred", "{root}/pred", "--engine", "abbyy", "--out", "{out}"],
             "ManifestError", "ground-truth root {loop} is not a readable directory"),
            (["eval", "--gt", "{root}/gt", "--pred", "{loop}", "--engine", "abbyy", "--out", "{out}"],
             "ManifestError", "prediction root {loop} is not a readable directory"),
            (["eval", "--gt", "{root}/gt", "--pred", "{root}/pred", "--engine", "abbyy",
              "--out", "{loop}/r.json"], "ToolkitError", "cannot write {loop}/r.json: {reason}"),
            (["errors", "--gt", "{root}/gt", "--pred", "{root}/pred", "--engine", "abbyy",
              "--out", "{loop}/deeper/r.json"], "ToolkitError",
             "cannot write {loop}/deeper/r.json: {reason}"),
            ([*VOTE, "--pred", "{loop}", "--out", "{out}"],
             "ManifestError", "prediction root {loop} is not a readable directory"),
            ([*VOTE, "--pred", "{root}/pred", "--out", "{loop}"],
             "ToolkitError", "cannot write {loop}/N-1781/l1.pred.voted.txt: {reason}"),
            (["normalize", "--in", "{loop}", "--out", "{out}"],
             "ManifestError", "input {loop} is neither file nor directory"),
            (["normalize", "--in", "{root}/gt", "--out", "{loop}"],
             "ToolkitError", "cannot write {loop}/N-1781/l1.gt.txt: {reason}"),
            (["normalize", "--in", "{root}/gt/N-1781/l1.gt.txt", "--out", "{loop}/l1.gt.txt"],
             "ToolkitError", "cannot write {loop}/l1.gt.txt: {reason}"),
            (["coverage", "--in", "{loop}", "--out", "{out}"],
             "ManifestError", "no files matching '*.gt.txt' under {loop}"),
            (["coverage", "--in", "{root}/gt", "--out", "{loop}/c.json"],
             "ToolkitError", "cannot write {loop}/c.json: {reason}"),
            (["prepare", "scan", "--root", "{loop}", "--corpus", "N", "--out", "{out}"],
             "ManifestError", "corpus root {loop} is not a readable directory"),
            (["prepare", "scan", "--root", "{root}/gt", "--corpus", "N", "--out", "{loop}/m.json"],
             "ToolkitError", "cannot write {loop}/m.json: {reason}"),
            (["report", "--in", "{loop}", "--format", "csv", "--out", "{out}"],
             "ReportError", "cannot read {loop}: {reason}"),
            (["report", "--in", "{report}", "--format", "csv", "--out", "{loop}/r.csv"],
             "ToolkitError", "cannot write {loop}/r.csv: {reason}"),
        ],
        ids=["eval-gt", "eval-pred", "eval-out", "errors-out-deeper", "vote-pred", "vote-out",
             "normalize-in", "normalize-tree-out", "normalize-file-out", "coverage-in",
             "coverage-out", "scan-root", "scan-out", "report-in", "report-out"],
    )
    def test_data_error(self, corpus, capsys, argv, error_type, message):
        loop = corpus / "loop"
        loop.symlink_to("loop")
        report = corpus / "report.json"
        report.write_text(report_with(lambda r: None), encoding="utf-8")
        paths = {"loop": loop, "root": corpus, "out": corpus / "out", "report": report,
                 "reason": self.REASON}
        argv = [a.format(**paths) for a in argv]
        message = message.format(**paths)
        before = tree_bytes(corpus)

        assert run(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert run(["--error-json", *argv]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload == {"error": {"type": error_type, "message": message}}
        assert tree_bytes(corpus) == before
        assert os.readlink(loop) == "loop"

    def test_output_named_by_the_loop_replaces_it(self, corpus, capsys):
        """An output whose own name is a looping link is renamed over the
        link, like any output over what its name held: no loop is followed."""
        loop = corpus / "loop"
        loop.symlink_to("loop")
        argv = ["eval", "--gt", str(corpus / "gt"), "--pred", str(corpus / "pred"),
                "--engine", "abbyy", "--out", str(loop)]
        assert run(argv) == 0
        capsys.readouterr()
        assert not loop.is_symlink()
        assert json.loads(loop.read_bytes())["engines"] == ["abbyy"]


class TestEvalCommand:
    def eval_args(self, corpus: Path, out: Path, *extra: str) -> list[str]:
        return [
            "eval",
            "--gt", str(corpus / "gt"),
            "--pred", str(corpus / "pred"),
            "--engine", "abbyy",
            "--engine", "tess",
            "--out", str(out),
            *extra,
        ]

    def test_json_report(self, corpus, capsys):
        out = corpus / "report.json"
        assert run(self.eval_args(corpus, out)) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["engines"] == ["abbyy", "tess"]
        assert payload["datasets"] == ["N-1781", "N-1803"]
        assert payload["metadata"]["seed"] == 0
        assert payload["metadata"]["codec_size"] == 91
        aggregates = [row["name"] for row in payload["aggregates"]]
        assert aggregates == ["N-all", "All"]
        capsys.readouterr()

    def test_out_in_new_directory(self, corpus, capsys):
        out = corpus / "new" / "dir" / "report.json"
        assert run(self.eval_args(corpus, out)) == 0
        assert run(self.eval_args(corpus, corpus / "report.json")) == 0
        assert out.read_bytes() == (corpus / "report.json").read_bytes()
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["errors", "--gt", "{root}/gt", "--pred", "{root}/pred", "--engine", "abbyy",
             "--engine", "tess", "--out", "{out}"],
            ["report", "--in", "{root}/report.json", "--format", "csv", "--out", "{out}"],
            ["prepare", "scan", "--root", "{root}/gt", "--corpus", "N", "--out", "{out}"],
            ["prepare", "refine", "--manifest", "{root}/N.json", "--cap", "1", "--out", "{out}"],
            ["prepare", "schedule", "--manifest", "{root}/N.json", "--stage", "real=N", "--out", "{out}"],
            ["prepare", "verify", "--manifest", "{root}/N.json", "--expected", "{root}/e.csv",
             "--out", "{out}"],
            ["coverage", "--in", "{root}/gt", "--out", "{out}"],
        ],
        ids=["errors", "report", "scan", "refine", "schedule", "verify", "coverage"],
    )
    def test_every_out_in_new_directory(self, corpus, capsys, argv):
        assert run(self.eval_args(corpus, corpus / "report.json")) == 0
        scan = ["prepare", "scan", "--root", str(corpus / "gt"), "--corpus", "N"]
        assert run([*scan, "--out", str(corpus / "N.json")]) == 0
        (corpus / "e.csv").write_text("corpus_id,books,lines\nN,2,4\n", encoding="utf-8")
        out = corpus / "new" / "dir" / "out"
        assert run([a.format(root=corpus, out=out) for a in argv]) == 0
        assert run([a.format(root=corpus, out=corpus / "out") for a in argv]) == 0
        assert out.read_bytes() == (corpus / "out").read_bytes()
        capsys.readouterr()

    def test_codec_and_rules_files(self, corpus, capsys):
        codec, rules = corpus / "mini.txt", corpus / "mini.tsv"
        chars = sorted(set("Das Jahr gut und ſchön mehr Zeit") - {" "})
        codec.write_text("\n".join(["\\s", *chars]) + "\n", encoding="utf-8")
        rules.write_text("# u with ring folds to u\nů\tu\n", encoding="utf-8")
        out = corpus / "report.json"
        assert run(self.eval_args(corpus, out, "--codec", str(codec), "--rules", str(rules))) == 0
        metadata = json.loads(out.read_text(encoding="utf-8"))["metadata"]
        assert (metadata["codec_name"], metadata["codec_size"]) == ("mini", 19)
        assert metadata["rules_name"] == str(rules)
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flag, content, error_type, message",
        [
            ("--codec", "a\nb\na\n", "CodecError",
             "{path}:3: duplicate codec character 'a' (U+0061), first seen on line 1"),
            ("--rules", "# fold\nů u\n", "RuleSetError",
             "{path}:2: rule line has no tab separator: 'ů u'"),
            ("--codec", b"\\s\n\xff\n", "CodecError",
             "{path} is not valid UTF-8: 'utf-8' codec can't decode byte 0xff "
             "in position 3: invalid start byte"),
            ("--codec", "\\s\na\\\n", "CodecError", "{path}:2: dangling backslash in entry 'a\\\\'"),
            ("--rules", b"\xff\tu\n", "RuleSetError",
             "{path} is not valid UTF-8: 'utf-8' codec can't decode byte 0xff "
             "in position 0: invalid start byte"),
            ("--rules", "\\u00\tu\n", "RuleSetError", "{path}:1: truncated \\u escape in '\\\\u00'"),
            ("--codec", "\\s\na\n\\uD800\n", "CodecError", "{path}:3: surrogate \\u escape in '\\\\uD800'"),
            ("--rules", "# snowman\n☃\t\\udfff\n", "RuleSetError",
             "{path}:2: surrogate \\u escape in '\\\\udfff'"),
            # \uXXXX is four hex digits: int() would also take a sign, _, space or other digits
            ("--codec", "\\s\n\\u-0ff\n", "CodecError", "{path}:2: bad \\u escape in '\\\\u-0ff'"),
            ("--codec", "\\s\n\\u+0ff\n", "CodecError", "{path}:2: bad \\u escape in '\\\\u+0ff'"),
            ("--codec", "\\s\n\\u 0ff\n", "CodecError", "{path}:2: bad \\u escape in '\\\\u 0ff'"),
            ("--codec", "\\s\n\\u\u0660\u0660ff\n", "CodecError",
             "{path}:2: bad \\u escape in '\\\\u\u0660\u0660ff'"),
            ("--rules", "\\u0_ff\tu\n", "RuleSetError", "{path}:1: bad \\u escape in '\\\\u0_ff'"),
            ("--rules", "ů\t\\u-0ff\n", "RuleSetError", "{path}:1: bad \\u escape in '\\\\u-0ff'"),
        ],
        ids=["codec", "rules", "codec-not-utf8", "codec-dangling-backslash", "rules-not-utf8",
             "rules-truncated-escape", "codec-surrogate-escape", "rules-surrogate-escape",
             "codec-minus-escape", "codec-plus-escape", "codec-space-escape",
             "codec-arabic-digit-escape", "rules-underscore-escape", "rules-minus-escape"],
    )
    def test_bad_codec_or_rules_file(self, corpus, capsys, flag, content, error_type, message):
        path = corpus / "bad.txt"
        path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
        out = corpus / "report.json"
        argv = self.eval_args(corpus, out, flag, str(path))
        message = message.format(path=path)
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert run(["--error-json", *argv]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload == {"error": {"type": error_type, "message": message}}
        assert not out.exists()

    def test_perfect_prediction_reads_zero_everywhere(self, tmp_path, capsys):
        books = {"N-1781": {"l1": "Das Jahr", "l2": "gut"}, "N-1803": {"l1": "mehr"}}
        make_gt_tree(tmp_path / "gt", books)
        make_pred_tree(tmp_path / "pred", "clean", books)
        report = tmp_path / "report.json"
        code = run(
            ["eval", "--gt", str(tmp_path / "gt"), "--pred", str(tmp_path / "pred"),
             "--engine", "clean", "--out", str(report)]
        )
        assert code == 0
        payload = json.loads(report.read_text(encoding="utf-8"))
        rows = list(payload["cells"].values()) + [r["cells"] for r in payload["aggregates"]]
        for row in rows:
            for cell in row.values():
                assert cell["micro_cer"] == 0.0
                assert cell["macro_cer"] == 0.0
                assert cell["micro_pct"] == "0.00"

        csv_out = tmp_path / "report.csv"
        assert run(["report", "--in", str(report), "--format", "csv", "--out", str(csv_out)]) == 0
        rows = csv_out.read_text(encoding="utf-8").splitlines()[1:]
        assert rows and all(",0.00,0.00" in line for line in rows)
        capsys.readouterr()

    def test_byte_identical_reruns(self, corpus, capsys):
        out1 = corpus / "r1.json"
        out2 = corpus / "r2.json"
        assert run(self.eval_args(corpus, out1)) == 0
        assert run(self.eval_args(corpus, out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()
        capsys.readouterr()

    def test_csv_format(self, corpus, capsys):
        out = corpus / "report.csv"
        assert run(self.eval_args(corpus, out, "--format", "csv")) == 0
        lines = out.read_text(encoding="utf-8").split("\n")
        assert lines[0] == "dataset,engine,micro_cer,macro_cer,lines,gt_chars,distance"
        capsys.readouterr()

    def test_dataset_order_flag(self, corpus, capsys):
        out = corpus / "report.json"
        args = self.eval_args(corpus, out, "--datasets", "N-1803,N-1781")
        assert run(args) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["datasets"] == ["N-1803", "N-1781"]
        capsys.readouterr()

    def test_missing_prediction_is_error(self, corpus, capsys):
        (corpus / "pred" / "N-1803" / "l1.pred.tess.txt").unlink()
        out = corpus / "report.json"
        assert run(self.eval_args(corpus, out)) == 1
        err = capsys.readouterr().err
        assert "tess" in err and "l1" in err

    def test_seed_recorded(self, corpus, capsys):
        out = corpus / "report.json"
        assert run(["--seed", "42", *self.eval_args(corpus, out)]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["metadata"]["seed"] == 42
        capsys.readouterr()

    @pytest.mark.parametrize("text, seed", [("-3", -3), (" +5\n", 5)], ids=["negative", "plus-and-space"])
    def test_signed_seed_recorded(self, corpus, capsys, text, seed):
        out = corpus / "report.json"
        assert run(["--seed", text, *self.eval_args(corpus, out)]) == 0
        assert json.loads(out.read_text(encoding="utf-8"))["metadata"]["seed"] == seed
        capsys.readouterr()


class TestLiteralEngineIds:
    """An engine id is part of a file name, not a glob pattern: 'e[1]'
    reads l1.pred.e[1].txt and never l1.pred.e1.txt."""

    @pytest.fixture
    def tree(self, tmp_path):
        make_gt_tree(tmp_path / "gt", {"N-1": {"l1": "Das Jahr"}})
        make_pred_tree(tmp_path / "pred", "e[1]", {"N-1": {"l1": "Das Jahr"}})
        make_pred_tree(tmp_path / "pred", "e1", {"N-1": {"l1": "xx"}})
        make_pred_tree(tmp_path / "pred", "e2", {"N-1": {"l1": "Das Jahr"}})
        return tmp_path

    def test_eval(self, tree, capsys):
        out = tree / "report.json"
        argv = ["eval", "--gt", str(tree / "gt"), "--pred", str(tree / "pred"), "--engine", "e[1]"]
        assert run([*argv, "--out", str(out)]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["engines"] == ["e[1]"]
        assert payload["cells"]["N-1"]["e[1]"]["micro_cer"] == 0.0
        capsys.readouterr()

    def test_vote(self, tree, capsys):
        out = tree / "voted"
        argv = ["vote", "--pred", str(tree / "pred"), "--engine", "e[1]", "--engine", "e2"]
        assert run([*argv, "--out", str(out)]) == 0
        assert (out / "N-1" / "l1.pred.voted.txt").read_text(encoding="utf-8") == "Das Jahr\n"
        capsys.readouterr()


class TestNamesThatAreNotUtf8:
    """A name read from the file system or the command line holds a
    surrogate for each byte that is not UTF-8. Reports, coverage tables and
    manifests are UTF-8, so the emitter that would write such a name
    rejects it with one line that names its bytes, whatever member holds
    it; a name the chosen output does not hold is not checked. vote uses
    the names only as file names, and keeps them."""

    BOOK = os.fsdecode(b"b\xe4")
    ENGINE = os.fsdecode(b"\xff")

    @pytest.fixture
    def tree(self, tmp_path):
        books = {self.BOOK: {"l1": "Das"}, "N-1": {"l1": "Das"}}
        try:
            make_gt_tree(tmp_path / "gt", books)
            make_gt_tree(tmp_path / "lines", {"N-1": {"l1": "Das", self.ENGINE: "Jahr"}})
            for engine in ("a", self.ENGINE):
                make_pred_tree(tmp_path / "pred", engine, {**books, self.BOOK: {"l1": "Dos"}})
            codec = Path(fraktur_bench.__file__).parent / "data" / "codec_default.txt"
            (tmp_path / f"c{self.ENGINE}.txt").write_bytes(codec.read_bytes())
            (tmp_path / f"r{self.ENGINE}.tsv").write_text("# none\n", encoding="utf-8")
        except (OSError, UnicodeError):
            pytest.skip("the file system refuses names that are not UTF-8")
        return tmp_path

    EVAL = ("--gt", "{root}/gt", "--pred", "{root}/pred", "--engine", "a", "--out", "{out}")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["eval", *EVAL], "name b'b\\xe4' is not valid UTF-8"),
            (["eval", *EVAL, "--format", "markdown"], "name b'b\\xe4' is not valid UTF-8"),
            (["errors", *EVAL, "--datasets", "N-1", "--engine", ENGINE, "--format", "markdown"],
             "name b'\\xff' is not valid UTF-8"),
            (["eval", *EVAL, "--datasets", "N-1", "--engine", ENGINE],
             "name b'\\xff' is not valid UTF-8"),
            (["errors", *EVAL, "--datasets", "N-1", "--dictionary-corpus", ENGINE],
             "name b'\\xff' is not valid UTF-8"),
            (["eval", *EVAL, "--datasets", "N-1", "--codec", f"{{root}}/c{ENGINE}.txt"],
             "name b'c\\xff' is not valid UTF-8"),
            (["eval", *EVAL, "--datasets", "N-1", "--rules", f"{{root}}/r{ENGINE}.tsv"],
             "name b'{root}/r\\xff.tsv' is not valid UTF-8"),
            (["coverage", "--in", "{root}/gt", "--codec", f"{{root}}/c{ENGINE}.txt", "--out", "{out}"],
             "name b'c\\xff' is not valid UTF-8"),
            (["prepare", "scan", "--root", "{root}/gt", "--corpus", "N", "--out", "{out}"],
             "name b'b\\xe4' is not valid UTF-8"),
            (["prepare", "scan", "--root", "{root}/lines", "--corpus", ENGINE, "--out", "{out}"],
             "name b'\\xff' is not valid UTF-8"),
            (["prepare", "scan", "--root", "{root}/lines", "--corpus", "N", "--out", "{out}"],
             "name b'\\xff' is not valid UTF-8"),
        ],
        ids=["eval-dataset", "eval-markdown-dataset", "errors-markdown-engine", "eval-engine",
             "errors-dictionary-corpus", "eval-codec-name", "eval-rules-name",
             "coverage-codec-name", "scan-book", "scan-corpus", "scan-line"],
    )
    def test_rejected(self, tree, capsys, argv, message):
        out = tree / "out"
        argv = [a.format(root=tree, out=out) for a in argv]
        message = message.format(root=tree)

        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert run(["--error-json", *argv]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload == {"error": {"type": "ManifestError", "message": message}}
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["errors", *EVAL],
            ["eval", *EVAL, "--datasets", "N-1", "--format", "csv", "--codec", f"{{root}}/c{ENGINE}.txt"],
            ["errors", *EVAL, "--datasets", "N-1", "--format", "csv", "--codec", f"{{root}}/c{ENGINE}.txt"],
            ["eval", *EVAL, "--datasets", "N-1", "--format", "csv", "--dictionary-corpus", ENGINE],
            ["errors", *EVAL, "--datasets", "N-1", "--format", "csv", "--dictionary-corpus", ENGINE],
        ],
        ids=["errors-dataset", "eval-csv-codec-name", "errors-csv-codec-name",
             "eval-csv-dictionary-corpus", "errors-csv-dictionary-corpus"],
    )
    def test_kept(self, tree, capsys, argv):
        """A name the output does not hold: the errors report holds no
        dataset id, and a CSV table no codec name or dictionary corpus."""
        out = tree / "out"
        assert run([a.format(root=tree, out=out) for a in argv]) == 0
        assert capsys.readouterr().err == ""
        out.read_bytes().decode("utf-8")

    def test_vote_keeps_the_names(self, tree, capsys):
        out = tree / "voted"
        argv = ["vote", "--pred", str(tree / "pred"), "--engine", "a", "--engine", self.ENGINE]
        assert run([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"voted 2 line(s) across 2 book(s) -> {out}\n"
        voted = sorted(path.relative_to(out) for path in out.rglob("*.txt"))
        assert voted == [Path("N-1/l1.pred.voted.txt"), Path(self.BOOK, "l1.pred.voted.txt")]
        assert (out / self.BOOK / "l1.pred.voted.txt").read_text(encoding="utf-8") == "Dos\n"


class TestErrorsCommand:
    def test_errors_json(self, corpus, capsys):
        out = corpus / "errors.json"
        code = run(
            [
                "errors",
                "--gt", str(corpus / "gt"),
                "--pred", str(corpus / "pred"),
                "--engine", "abbyy",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        # abbyy misread "und" as "nnd": one u->n substitution
        assert {"gt": "u", "pred": "n", "count": 1} in payload["confusion"]["abbyy"]
        capsys.readouterr()


class TestVoteCommand:
    def test_vote_majority(self, corpus, capsys):
        make_pred_tree(
            corpus / "pred",
            "third",
            {
                "N-1781": {"l1": "Das Jahr", "l2": "gut und ſchön"},
                "N-1803": {"l1": "mehr Zeit"},
            },
        )
        out = corpus / "voted"
        code = run(
            [
                "vote",
                "--pred", str(corpus / "pred"),
                "--engine", "abbyy",
                "--engine", "tess",
                "--engine", "third",
                "--out", str(out),
            ]
        )
        assert code == 0
        voted = (out / "N-1781" / "l2.pred.voted.txt").read_text(encoding="utf-8")
        assert voted == "gut und ſchön\n"
        assert (out / "N-1803" / "l1.pred.voted.txt").read_text(encoding="utf-8") == "mehr Zeit\n"
        capsys.readouterr()

    def test_output_file_names(self, tmp_path, capsys):
        # one <line id>.pred.voted.txt per line, in its book; a line id may hold dots
        make_pred_tree(tmp_path / "pred", "e0", {"A": {"l1": "ab", "l1.bin": "x"}, "B": {"l2": "c"}})
        make_pred_tree(tmp_path / "pred", "e1", {"A": {"l1": "ab", "l1.bin": "x"}, "B": {"l2": "c"}})
        out = tmp_path / "voted"
        argv = ["vote", "--pred", str(tmp_path / "pred"), "--engine", "e0", "--engine", "e1"]
        assert run([*argv, "--out", str(out)]) == 0
        assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")) == [
            "A", "A/l1.bin.pred.voted.txt", "A/l1.pred.voted.txt", "B", "B/l2.pred.voted.txt",
        ]
        assert capsys.readouterr().out == f"voted 3 line(s) across 2 book(s) -> {out}\n"

    def test_lines_share_kernel_runs(self, tmp_path, monkeypatch, capsys):
        # vote aligns all its lines in one align_many call, whose kernel
        # runs pack many pivot/voter blocks each
        runs = []
        kernel = align_module._lane_columns

        def counted(blocks):
            runs.append(len(blocks))
            return kernel(blocks)

        monkeypatch.setattr(align_module, "_lane_columns", counted)
        lines = {f"l{i}": f"Zeile {i} im Buch" for i in range(20)}
        make_pred_tree(tmp_path / "pred", "e0", {"A": lines})
        make_pred_tree(tmp_path / "pred", "e1", {"A": {k: t.replace("e", "c") for k, t in lines.items()}})
        make_pred_tree(tmp_path / "pred", "e2", {"A": {k: t.replace("Z", "2") for k, t in lines.items()}})
        argv = ["vote", "--pred", str(tmp_path / "pred"), "--engine", "e0", "--engine", "e1",
                "--engine", "e2", "--out", str(tmp_path / "voted")]
        assert run(argv) == 0
        assert (tmp_path / "voted" / "A" / "l7.pred.voted.txt").read_text(encoding="utf-8") == (
            "Zeile 7 im Buch\n"
        )
        # 20 lines with two non-pivot voters each: 40 blocks, which took 40
        # kernel runs when every pair was aligned alone
        assert sum(runs) == 40 and len(runs) <= 2
        capsys.readouterr()

    def test_min_voters_enforced(self, tmp_path, capsys):
        # book A is complete; book B has one complete line and two short ones
        make_pred_tree(tmp_path / "pred", "e0", {"A": {"l1": "ab"}, "B": {"l1": "a", "l2": "b", "l3": "c"}})
        make_pred_tree(tmp_path / "pred", "e1", {"A": {"l1": "ab"}, "B": {"l1": "a", "l2": "b"}})
        make_pred_tree(tmp_path / "pred", "e2", {"A": {"l1": "ab"}, "B": {"l1": "a"}})
        out = tmp_path / "voted"
        argv = ["vote", "--pred", str(tmp_path / "pred"), "--min-voters", "3", "--out", str(out)]
        code = run(argv + ["--engine", "e0", "--engine", "e1", "--engine", "e2"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: insufficient voters in book 'B' on 2 line(s), need 3: l2, l3\n"
        # nothing is written, not even book A, which had every voter
        assert not out.exists()

    def test_bad_sidecar_in_later_book_writes_nothing(self, tmp_path, capsys):
        make_pred_tree(tmp_path / "pred", "e0", {"A": {"l1": "ab"}, "B": {"l1": "cd"}})
        make_pred_tree(tmp_path / "pred", "e1", {"A": {"l1": "ab"}, "B": {"l1": "ce"}})
        (tmp_path / "pred" / "B" / "l1.pred.e1.conf").write_text("0.9\n", encoding="utf-8")
        out = tmp_path / "voted"
        argv = ["vote", "--pred", str(tmp_path / "pred"), "--engine", "e0", "--engine", "e1"]
        assert run([*argv, "--out", str(out)]) == 1
        assert "l1.pred.e1.conf: 1 confidences for 2 characters" in capsys.readouterr().err
        assert not out.exists()

    def test_short_later_book_is_reported_before_an_earlier_bad_sidecar(self, tmp_path, capsys):
        # every book's voter counts are checked before any sidecar is read:
        # book B's one-voter line wins over book A's short sidecar
        for eng in ("e0", "e1", "e2"):
            make_pred_tree(tmp_path / "pred", eng, {"A": {"l1": "abc"}})
        make_pred_tree(tmp_path / "pred", "e0", {"B": {"l1": "abc"}})
        (tmp_path / "pred" / "A" / "l1.pred.e0.conf").write_text("0.9\n", encoding="utf-8")
        out = tmp_path / "voted"
        argv = ["vote", "--pred", str(tmp_path / "pred"), "--engine", "e0", "--engine", "e1",
                "--engine", "e2", "--out", str(out)]
        message = "insufficient voters in book 'B' on 1 line(s), need 2: l1"

        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert run(["--error-json", *argv]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": {"type": "VotingError", "message": message}
        }
        assert not out.exists()

    def test_voters_go_in_engine_id_order(self, tmp_path, capsys):
        # a first_voter tie goes to the smallest engine id, whatever the
        # --engine order: e0's "b" beats e1's "c" both ways round
        make_pred_tree(tmp_path / "pred", "e0", {"A": {"l1": "ab"}})
        make_pred_tree(tmp_path / "pred", "e1", {"A": {"l1": "ac"}})
        for engines in (["e0", "e1"], ["e1", "e0"]):
            out = tmp_path / "-".join(engines)
            argv = ["vote", "--pred", str(tmp_path / "pred"), "--out", str(out)]
            assert run([*argv, *(f"--engine={eng}" for eng in engines)]) == 0
            assert (out / "A" / "l1.pred.voted.txt").read_bytes() == b"ab\n"
        capsys.readouterr()

    def test_first_unreadable_file_is_of_the_first_engine_given(self, tmp_path, capsys):
        # engines are read in --engine order, so e1's file is named first
        for eng in ("e0", "e1"):
            (tmp_path / "pred" / "A" / f"l1.pred.{eng}.txt").mkdir(parents=True)
        out = tmp_path / "voted"
        argv = ["vote", "--pred", str(tmp_path / "pred"), "--engine", "e1", "--engine", "e0",
                "--out", str(out)]
        message = f"cannot read {tmp_path / 'pred' / 'A' / 'l1.pred.e1.txt'}: Is a directory"

        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_only_the_first_short_book_is_named(self, tmp_path, capsys):
        make_pred_tree(tmp_path / "pred", "e0", {"A": {"l1": "a", "l2": "b", "l3": "c"}, "B": {"l1": "b"}})
        make_pred_tree(tmp_path / "pred", "e1", {"A": {"l2": "b"}, "B": {"l2": "b"}})
        out = tmp_path / "voted"
        argv = ["vote", "--pred", str(tmp_path / "pred"), "--engine", "e0", "--engine", "e1",
                "--out", str(out)]

        assert run(argv) == 1
        assert capsys.readouterr().err == (
            "error: insufficient voters in book 'A' on 2 line(s), need 2: l1, l3\n"
        )
        assert not out.exists()

    def test_confidence_sidecars(self, corpus, capsys):
        # one-line book with sidecars steering the tie
        make_pred_tree(corpus / "cpred", "e0", {"bk": {"l1": "ab"}})
        make_pred_tree(corpus / "cpred", "e1", {"bk": {"l1": "ac"}})
        (corpus / "cpred" / "bk" / "l1.pred.e0.conf").write_text("0.9 0.9\n", encoding="utf-8")
        (corpus / "cpred" / "bk" / "l1.pred.e1.conf").write_text("0.9 0.99\n", encoding="utf-8")
        out = corpus / "cvoted"
        code = run(
            [
                "vote",
                "--pred", str(corpus / "cpred"),
                "--engine", "e0",
                "--engine", "e1",
                "--tie-break", "confidence",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert (out / "bk" / "l1.pred.voted.txt").read_text(encoding="utf-8") == "ac\n"
        capsys.readouterr()

    def test_confidence_of_an_insertion_is_its_mean(self, tmp_path, capsys):
        # Pivot e0 "ab"; e1 and e2 insert "xyz" and "zw" before it, so the
        # gap ties three ways. Confidence breaks it by each insertion's
        # mean (0.5 against 0.6): "zw" wins, where its first character
        # (0.9 against 0.6) or its sum (1.5 against 1.2) would elect "xyz".
        for eng, text, conf in (("e0", "ab", "0.5 0.5"), ("e1", "xyzab", "0.9 0.3 0.3 0.5 0.5"),
                                ("e2", "zwab", "0.6 0.6 0.5 0.5")):
            make_pred_tree(tmp_path / "pred", eng, {"bk": {"l1": text}})
            (tmp_path / "pred" / "bk" / f"l1.pred.{eng}.conf").write_text(conf + "\n", encoding="utf-8")
        out = tmp_path / "voted"
        argv = ["vote", "--pred", str(tmp_path / "pred"), "--engine", "e0", "--engine", "e1",
                "--engine", "e2", "--pivot", "e0", "--tie-break", "confidence", "--out", str(out)]
        assert run(argv) == 0
        assert (out / "bk" / "l1.pred.voted.txt").read_text(encoding="utf-8") == "zwab\n"
        capsys.readouterr()

    def test_sidecars_found_without_stat_calls(self, corpus, capsys, monkeypatch):
        make_pred_tree(corpus / "cpred", "e0", {"bk": {"l1": "ab", "l2": "ab"}})
        make_pred_tree(corpus / "cpred", "e1", {"bk": {"l1": "ac", "l2": "ac"}})
        for name, conf in (("l1.pred.e0", "0.9 0.9"), ("l1.pred.e1", "0.9 0.99"),
                           ("l2.pred.e0", "0.9 0.99"), ("l2.pred.e1", "0.9 0.9")):
            (corpus / "cpred" / "bk" / f"{name}.conf").write_text(conf + "\n", encoding="utf-8")
        stat_calls = []
        real_exists = Path.exists

        def counted_exists(path, *args, **kwargs):
            stat_calls.append(path)
            return real_exists(path, *args, **kwargs)

        out = corpus / "cvoted"
        argv = ["vote", "--pred", str(corpus / "cpred"), "--engine", "e0", "--engine", "e1"]
        with monkeypatch.context() as patched:
            patched.setattr(Path, "exists", counted_exists)
            assert run([*argv, "--tie-break", "confidence", "--out", str(out)]) == 0
        assert stat_calls == []
        # the sidecars were read: each tie went to the more confident engine
        assert (out / "bk" / "l1.pred.voted.txt").read_text(encoding="utf-8") == "ac\n"
        assert (out / "bk" / "l2.pred.voted.txt").read_text(encoding="utf-8") == "ab\n"
        capsys.readouterr()

    def test_malformed_sidecar(self, corpus, capsys):
        make_pred_tree(corpus / "cpred", "e0", {"bk": {"l1": "ab"}})
        make_pred_tree(corpus / "cpred", "e1", {"bk": {"l1": "ac"}})
        (corpus / "cpred" / "bk" / "l1.pred.e0.conf").write_text("0.9\n", encoding="utf-8")
        code = run(
            [
                "vote",
                "--pred", str(corpus / "cpred"),
                "--engine", "e0",
                "--engine", "e1",
                "--out", str(corpus / "cvoted"),
            ]
        )
        assert code == 1
        assert "confidence" in capsys.readouterr().err


# The manifests of a real corpus with a non-ASCII id, byte for byte: scan,
# refine with --cap 2 --seed 5, and a three-stage schedule over it and a
# synthetic corpus S.
SCAN_JSON = """\
{
  "books": [
    {
      "book_id": "Ä-1",
      "corpus_id": "Ä",
      "lines": [
        "l1",
        "l2",
        "l3",
        "l4"
      ],
      "metadata": {
        "century": null,
        "language": null
      }
    },
    {
      "book_id": "Ä-2",
      "corpus_id": "Ä",
      "lines": [
        "l1"
      ],
      "metadata": {
        "century": null,
        "language": null
      }
    }
  ],
  "schema_version": 1
}
"""

REFINE_JSON = """\
{
  "books": [
    {
      "book_id": "Ä-1",
      "corpus_id": "Ä",
      "lines": [
        "l1",
        "l3"
      ],
      "metadata": {
        "century": null,
        "language": null
      }
    },
    {
      "book_id": "Ä-2",
      "corpus_id": "Ä",
      "lines": [
        "l1"
      ],
      "metadata": {
        "century": null,
        "language": null
      }
    }
  ],
  "schema_version": 1
}
"""

SCHEDULE_JSON = """\
{
  "schema_version": 1,
  "seed": 5,
  "stages": [
    {
      "cap_per_book": null,
      "corpora": [
        "S"
      ],
      "count": 1,
      "items": [
        [
          "s1",
          "l1"
        ]
      ],
      "name": "synthetic"
    },
    {
      "cap_per_book": null,
      "corpora": [
        "Ä"
      ],
      "count": 5,
      "items": [
        [
          "Ä-1",
          "l1"
        ],
        [
          "Ä-1",
          "l2"
        ],
        [
          "Ä-1",
          "l3"
        ],
        [
          "Ä-1",
          "l4"
        ],
        [
          "Ä-2",
          "l1"
        ]
      ],
      "name": "real"
    },
    {
      "cap_per_book": 2,
      "corpora": [
        "Ä",
        "S"
      ],
      "count": 4,
      "items": [
        [
          "Ä-1",
          "l1"
        ],
        [
          "Ä-1",
          "l3"
        ],
        [
          "Ä-2",
          "l1"
        ],
        [
          "s1",
          "l1"
        ]
      ],
      "name": "refinement"
    }
  ]
}
"""


def prep_manifests(root: Path) -> list[str]:
    """Scan a synthetic corpus S and a real corpus Ä; the --manifest flags
    for both."""
    make_gt_tree(root / "syn", {"s1": {"l1": "a"}})
    make_gt_tree(root / "real", {"Ä-1": {f"l{i}": "x" for i in range(1, 5)}, "Ä-2": {"l1": "y"}})
    for tree, corpus_id in (("syn", "S"), ("real", "Ä")):
        out = root / f"{tree}.json"
        assert run(["prepare", "scan", "--root", str(root / tree), "--corpus", corpus_id, "--out", str(out)]) == 0
    return ["--manifest", str(root / "syn.json"), "--manifest", str(root / "real.json")]


class TestPrepareCommands:
    def test_scan_refine_schedule_verify(self, corpus, tmp_path, capsys):
        manifest = tmp_path / "N.json"
        assert run(["prepare", "scan", "--root", str(corpus / "gt"), "--corpus", "N", "--out", str(manifest)]) == 0
        payload = strict_json(manifest.read_bytes())
        assert [b["book_id"] for b in payload["books"]] == ["N-1781", "N-1803"]

        refined = tmp_path / "refined.json"
        assert run(["prepare", "refine", "--manifest", str(manifest), "--cap", "1", "--out", str(refined)]) == 0
        back = strict_json(refined.read_bytes())
        assert all(len(b["lines"]) == 1 for b in back["books"])

        sched = tmp_path / "sched.json"
        code = run(
            [
                "prepare", "schedule",
                "--manifest", str(manifest),
                "--stage", "real=N",
                "--stage", "refinement=N",
                "--cap", "2",
                "--out", str(sched),
            ]
        )
        assert code == 0
        payload = strict_json(sched.read_bytes())
        assert [s["name"] for s in payload["stages"]] == ["real", "refinement"]
        assert payload["stages"][0]["count"] == 3

        expected = tmp_path / "expected.csv"
        expected.write_text("corpus_id,books,lines\nN,2,3\n", encoding="utf-8")
        out = tmp_path / "verify.json"
        assert run(["prepare", "verify", "--manifest", str(manifest), "--expected", str(expected), "--out", str(out)]) == 0
        assert strict_json(out.read_bytes()) == []
        capsys.readouterr()

    def test_counts_may_have_whitespace_around(self, corpus, tmp_path, capsys):
        """A count is written in the digits 0-9, with the whitespace int
        allows around it, in verify's table and in a flag."""
        manifest = tmp_path / "N.json"
        assert run(["prepare", "scan", "--root", str(corpus / "gt"), "--corpus", "N", "--out", str(manifest)]) == 0
        expected = tmp_path / "expected.csv"
        expected.write_text("corpus_id,books,lines\nN, 2 ,\t3\n", encoding="utf-8")
        out = tmp_path / "verify.json"
        assert run(["prepare", "verify", "--manifest", str(manifest), "--expected", str(expected), "--out", str(out)]) == 0
        assert json.loads(out.read_text(encoding="utf-8")) == []
        refined = tmp_path / "refined.json"
        assert run(["prepare", "refine", "--manifest", str(manifest), "--cap", " 1\n", "--out", str(refined)]) == 0
        assert [len(b["lines"]) for b in json.loads(refined.read_text(encoding="utf-8"))["books"]] == [1, 1]
        capsys.readouterr()

    def test_verify_without_out_prints_only_json(self, corpus, tmp_path, capsys):
        manifest = tmp_path / "N.json"
        assert run(["prepare", "scan", "--root", str(corpus / "gt"), "--corpus", "N", "--out", str(manifest)]) == 0
        capsys.readouterr()
        expected = tmp_path / "expected.csv"
        expected.write_text("corpus_id,books,lines\nN,2,4\n", encoding="utf-8")
        out = tmp_path / "verify.json"
        args = ["prepare", "verify", "--manifest", str(manifest), "--expected", str(expected)]
        assert run([*args, "--out", str(out)]) == 0
        assert capsys.readouterr().out == "1 discrepancy(ies)\n"
        assert run(args) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out) == [{"corpus_id": "N", "field": "lines", "expected": 4, "actual": 3}]
        assert captured.out.encode("utf-8") == out.read_bytes()
        assert captured.err == "1 discrepancy(ies)\n"

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_verify_output_bytes(self, tmp_path, capsys, to_file):
        # verify, unlike the other JSON writers, escapes non-ASCII ids
        manifest = tmp_path / "m.json"
        manifest.write_bytes(
            manifest_to_json([BookEntry("Ä-1", "Ä", ("l1", "l2")), BookEntry("Ä-2", "Ä", ("l1",))])
        )
        expected = tmp_path / "expected.csv"
        expected.write_text("corpus_id,books,lines\nÄ,3,4\nN,1,0\nÄ,2,3\n", encoding="utf-8")
        argv = ["prepare", "verify", "--manifest", str(manifest), "--expected", str(expected)]
        out = tmp_path / "verify.json"
        assert run([*argv, "--out", str(out)] if to_file else argv) == 0
        captured = capsys.readouterr()
        data = (
            "[\n"
            '  {\n    "actual": 2,\n    "corpus_id": "\\u00c4",\n    "expected": 3,\n    "field": "books"\n  },\n'
            '  {\n    "actual": 3,\n    "corpus_id": "\\u00c4",\n    "expected": 4,\n    "field": "lines"\n  },\n'
            '  {\n    "actual": 0,\n    "corpus_id": "N",\n    "expected": 1,\n    "field": "books"\n  }\n'
            "]\n"
        )
        if to_file:
            assert out.read_bytes() == data.encode("ascii")
            assert (captured.out, captured.err) == ("3 discrepancy(ies)\n", "")
        else:
            assert (captured.out, captured.err) == (data, "3 discrepancy(ies)\n")

    def test_refine_caps_thirty_nine_books(self, tmp_path, capsys):
        # 39 books, each one at or above the cap, cap 50: exactly 39 * 50
        # lines survive regardless of how large the books are
        books = [
            BookEntry(f"N-{1750 + i:04d}", "N", tuple(f"l{j:03d}" for j in range(50 + i)))
            for i in range(39)
        ]
        manifest = tmp_path / "books.json"
        manifest.write_bytes(manifest_to_json(books))
        out = tmp_path / "refined.json"
        code = run(
            ["--seed", "42", "prepare", "refine", "--manifest", str(manifest), "--cap", "50", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert len(payload["books"]) == 39
        assert sum(len(b["lines"]) for b in payload["books"]) == 1950
        capsys.readouterr()

    def test_schedule_order_violation(self, corpus, tmp_path, capsys):
        manifest = tmp_path / "N.json"
        run(["prepare", "scan", "--root", str(corpus / "gt"), "--corpus", "N", "--out", str(manifest)])
        capsys.readouterr()
        code = run(
            [
                "prepare", "schedule",
                "--manifest", str(manifest),
                "--stage", "refinement=N",
                "--stage", "real=N",
                "--out", str(tmp_path / "s.json"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: stages must follow pretraining -> synthetic -> real -> refinement "
            "without repeats, got refinement -> real\n"
        )
        assert not (tmp_path / "s.json").exists()

    def test_output_bytes(self, tmp_path, capsys):
        manifests = prep_manifests(tmp_path)
        assert (tmp_path / "real.json").read_bytes() == SCAN_JSON.encode("utf-8")
        refined, sched = tmp_path / "refined.json", tmp_path / "sched.json"
        argv = ["--seed", "5", "prepare", "refine", *manifests[2:], "--cap", "2", "--out", str(refined)]
        assert run(argv) == 0
        assert refined.read_bytes() == REFINE_JSON.encode("utf-8")
        stages = ["--stage", "synthetic=S", "--stage", "real=Ä", "--stage", "refinement=Ä,S"]
        argv = ["--seed", "5", "prepare", "schedule", *manifests, *stages, "--cap", "2"]
        assert run([*argv, "--out", str(sched)]) == 0
        assert sched.read_bytes() == SCHEDULE_JSON.encode("utf-8")
        assert capsys.readouterr() == (
            f"scanned 1 book(s), 1 line(s) -> {tmp_path / 'syn.json'}\n"
            f"scanned 2 book(s), 5 line(s) -> {tmp_path / 'real.json'}\n"
            f"refinement subset: 3 line(s) from 2 book(s) (cap 2, seed 5) -> {refined}\n"
            f"schedule written -> {sched} (synthetic: 1, real: 5, refinement: 4)\n",
            "",
        )

    @pytest.mark.parametrize("flags", [[], ["--error-json"]], ids=["plain", "error-json"])
    def test_scan_warnings_on_stderr(self, tmp_path, flags):
        # A child process, so the bytes are the ones a terminal gets,
        # whatever writes them.
        book = tmp_path / "tree" / "b1"
        book.mkdir(parents=True)
        for name in ("l1.gt.txt", "l2.gt.txt"):
            (book / name).write_text("x\n", encoding="utf-8")
        for name in ("l1.png", "l3.bin.png", "l'4.png"):
            (book / name).write_bytes(b"\x89PNG")
        out = tmp_path / "N.json"
        argv = [*flags, "prepare", "scan", "--root", str(tmp_path / "tree"), "--corpus", "N", "--out", str(out)]
        proc = subprocess.run(
            [sys.executable, "-m", "fraktur_bench.cli", *argv],
            capture_output=True,
            env=package_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout == f"scanned 1 book(s), 1 line(s) -> {out}\n".encode("utf-8")
        assert proc.stderr == (
            b"N/b1: line 'l2' has ground truth but no image sibling, excluded\n"
            b"N/b1: image \"l'4.png\" has no ground-truth sibling, excluded\n"
            b"N/b1: image 'l3.bin.png' has no ground-truth sibling, excluded\n"
        )

    @pytest.mark.parametrize(
        "stages, error_type, message",
        [
            (["real"], "ToolkitError", "--stage wants name=corpus[,corpus...], got 'real'"),
            (["real="], "ToolkitError", "stage 'real' lists no corpora"),
            (["warmup=S"], "ManifestError",
             "unknown stage 'warmup', expected one of pretraining, synthetic, real, refinement"),
            (["refinement=S", "real=S"], "ManifestError",
             "stages must follow pretraining -> synthetic -> real -> refinement without repeats, "
             "got refinement -> real"),
            (["real=S", "real=Ä"], "ManifestError",
             "stages must follow pretraining -> synthetic -> real -> refinement without repeats, "
             "got real -> real"),
            (["synthetic=S", "real=Z,Ä,Y"], "ManifestError", "stage 'real' references unknown corpora: Z, Y"),
            (["synthetic=S", "real=Ä,S,Ä,S,Ä"], "ToolkitError", "stage 'real' repeats corpus id(s) S, Ä"),
        ],
        ids=[
            "malformed", "no-corpora", "unknown-stage", "out-of-order", "repeated", "unknown-corpus",
            "repeated-corpus",
        ],
    )
    def test_stage_errors(self, tmp_path, capsys, stages, error_type, message):
        argv = ["prepare", "schedule", *prep_manifests(tmp_path), "--out", str(tmp_path / "s.json")]
        for spec in stages:
            argv += ["--stage", spec]
        capsys.readouterr()
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert run(["--error-json", *argv]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload == {"error": {"type": error_type, "message": message}}
        assert not (tmp_path / "s.json").exists()


class TestReportCommand:
    def test_json_to_csv(self, corpus, capsys):
        report = corpus / "report.json"
        assert run(
            [
                "eval",
                "--gt", str(corpus / "gt"),
                "--pred", str(corpus / "pred"),
                "--engine", "abbyy",
                "--engine", "tess",
                "--out", str(report),
            ]
        ) == 0
        out = corpus / "report.csv"
        assert run(["report", "--in", str(report), "--format", "csv", "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert text.startswith("dataset,engine,micro_cer")
        capsys.readouterr()


class TestConsoleScript:
    def test_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fraktur_bench.cli", "--version"],
            capture_output=True,
            text=True,
            env=package_env(),
        )
        assert proc.returncode == 0
        assert "fraktur-bench" in proc.stdout


class TestStandardOutputBytes:
    """run writes standard-output data as the bytes --out would hold, and a
    status line by the bytes of the paths it names, whatever the encoding
    of standard output."""

    def cli(self, argv: list, encoding: str) -> subprocess.CompletedProcess:
        env = {**package_env(), "PYTHONIOENCODING": encoding}
        return subprocess.run([sys.executable, "-m", "fraktur_bench.cli", *argv], capture_output=True, env=env)

    @pytest.mark.parametrize(
        "encoding, text", [("ascii", "Das Jahr ä"), ("latin-1", "gut und ſchön")], ids=["ascii", "latin-1"]
    )
    def test_data_on_stdout(self, tmp_path, encoding, text):
        gt = make_gt_tree(tmp_path / "gt", {"N-1": {"l1": text}})
        out = tmp_path / "coverage.json"
        to_stdout = self.cli(["coverage", "--in", str(gt)], encoding)
        to_file = self.cli(["coverage", "--in", str(gt), "--out", str(out)], encoding)
        assert (to_stdout.returncode, to_stdout.stderr) == (0, b"")
        assert (to_file.returncode, to_file.stdout, to_file.stderr) == (0, b"", b"")
        assert to_stdout.stdout == out.read_bytes()

    def test_status_names_a_path_by_its_bytes(self, tmp_path):
        gt = make_gt_tree(tmp_path / "gt", {"N-1": {"l1": "Das Jahr"}})
        out = os.fsencode(tmp_path) + b"/out\xff"
        try:
            os.mkdir(out)
        except OSError:
            pytest.skip("the file system refuses names that are not UTF-8")
        proc = self.cli(["normalize", "--in", str(gt), "--out", out], "utf-8")
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout.endswith(b"out\xff\n")
        assert (Path(os.fsdecode(out)) / "N-1" / "l1.gt.txt").read_bytes() == b"Das Jahr\n"


class TestNoNumpy:
    def test_eval_runs_without_numpy(self, corpus):
        # None in sys.modules makes any "import numpy" raise ImportError.
        src = Path(fraktur_bench.__file__).resolve().parents[1]
        argv = [
            "eval",
            "--gt", str(corpus / "gt"),
            "--pred", str(corpus / "pred"),
            "--engine", "abbyy",
            "--engine", "tess",
            "--out", str(corpus / "r.json"),
        ]
        script = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            "from fraktur_bench.cli import run\n"
            f"sys.exit(run({argv!r}))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads((corpus / "r.json").read_text(encoding="utf-8"))["engines"] == ["abbyy", "tess"]
