from __future__ import annotations

import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

import fraktur_bench
from fraktur_bench.analytics import (
    DEFAULT_TOP_K,
    DICTIONARY_CORPUS,
    CerCell,
    ConfusionEntry,
    build_report,
    report_to_json,
)
from fraktur_bench.cli import build_parser, run
from fraktur_bench.pipeline import eval_pipeline
from fraktur_bench.manifests import BookEntry, manifest_to_json

from trees import make_gt_tree, make_pred_tree, package_env


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


EVAL_ARGS = ("--gt", "{root}/gt", "--pred", "{root}/pred", "--engine", "abbyy", "--out", "{out}")


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
        "argv, error_type",
        [
            (["report", "--in", "{missing}", "--format", "csv", "--out", "{out}"], "ReportError"),
            (["prepare", "refine", "--manifest", "{missing}", "--cap", "1", "--out", "{out}"], "ManifestError"),
            (
                ["prepare", "schedule", "--manifest", "{missing}", "--stage", "real=N", "--out", "{out}"],
                "ManifestError",
            ),
            (
                ["prepare", "verify", "--manifest", "{missing}", "--expected", "{missing}", "--out", "{out}"],
                "ManifestError",
            ),
            (
                ["prepare", "verify", "--manifest", "{manifest}", "--expected", "{missing}", "--out", "{out}"],
                "ManifestError",
            ),
        ],
        ids=["report", "refine", "schedule", "verify-manifest", "verify-expected"],
    )
    def test_missing_input_file(self, tmp_path, capsys, argv, error_type):
        manifest = tmp_path / "m.json"
        manifest.write_bytes(manifest_to_json([BookEntry("N-1781", "N", ("l1",))]))
        paths = {"missing": tmp_path / "missing.json", "manifest": manifest, "out": tmp_path / "o"}
        argv = [a.format(**paths) for a in argv]

        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "missing.json" in err

        assert run(["--error-json", *argv]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert set(payload) == {"error"}
        assert set(payload["error"]) == {"type", "message"}
        assert payload["error"]["type"] == error_type
        assert "missing.json" in payload["error"]["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv, content, error_type",
        [
            (["report", "--in", "{bad}", "--format", "csv", "--out", "{out}"], "[]", "ReportError"),
            (["report", "--in", "{bad}", "--format", "csv", "--out", "{out}"],
             '{"schema_version": 1}', "ReportError"),
            (["report", "--in", "{bad}", "--format", "csv", "--out", "{out}"],
             '{"schema_version": 1, "engines": ["e"], "datasets": ["N-1"], "aggregates": []}',
             "ReportError"),
            (["report", "--in", "{bad}", "--format", "csv", "--out", "{out}"],
             '{"schema_version": 1, "engines": ["e"], "datasets": [], "cells": {}}', "ReportError"),
            (["prepare", "refine", "--manifest", "{bad}", "--cap", "1", "--out", "{out}"],
             '{"schema_version": 1}', "ManifestError"),
            (["prepare", "refine", "--manifest", "{bad}", "--cap", "1", "--out", "{out}"],
             '[{"schema_version": 1}]', "ManifestError"),
            (["prepare", "refine", "--manifest", "{bad}", "--cap", "1", "--out", "{out}"],
             '{"schema_version": 1, "books": [{"corpus_id": "N", "lines": []}]}', "ManifestError"),
            (["prepare", "verify", "--manifest", "{manifest}", "--expected", "{bad}", "--out", "{out}"],
             "corpus,count\nN,1\n", "ManifestError"),
            (["prepare", "verify", "--manifest", "{manifest}", "--expected", "{bad}", "--out", "{out}"],
             "", "ManifestError"),
            (["prepare", "verify", "--manifest", "{manifest}", "--expected", "{bad}", "--out", "{out}"],
             "corpus_id,books,lines\nN,one,1\n", "ManifestError"),
            (["prepare", "verify", "--manifest", "{manifest}", "--expected", "{bad}", "--out", "{out}"],
             "corpus_id,books,lines\nN,1\n", "ManifestError"),
            (["prepare", "verify", "--manifest", "{manifest}", "--expected", "{bad}", "--out", "{out}"],
             b"corpus_id,books,lines\nN\xff,1,1\n", "ManifestError"),
            (["report", "--in", "{bad}", "--format", "csv", "--out", "{out}"],
             b'{"schema_version": 1, "engines": ["\xff"]}', "ReportError"),
            (["prepare", "refine", "--manifest", "{bad}", "--cap", "1", "--out", "{out}"],
             b'{"schema_version": 1, "books": ["\xff"]}', "ManifestError"),
            (["report", "--in", "{bad}", "--format", "csv", "--out", "{out}"],
             report_with(lambda r: r["confusion"]["e"][0].update(count=1.9)), "ReportError"),
            (["report", "--in", "{bad}", "--format", "csv", "--out", "{out}"],
             report_with(lambda r: r["confusion"]["e"][0].update(count=-4)), "ReportError"),
            (["report", "--in", "{bad}", "--format", "csv", "--out", "{out}"],
             report_with(lambda r: r["confusion"]["e"][0].update(count=True)), "ReportError"),
            (["report", "--in", "{bad}", "--format", "csv", "--out", "{out}"],
             report_with(lambda r: r["top_share"]["e"].update(k="3")), "ReportError"),
            (["report", "--in", "{bad}", "--format", "csv", "--out", "{out}"],
             report_with(lambda r: r["top_share"]["e"].update(k=0)), "ReportError"),
            (["report", "--in", "{bad}", "--format", "csv", "--out", "{out}"],
             report_with(lambda r: r["cells"]["N-1"]["e"].update(cer_sum="0.5")), "ReportError"),
            (["report", "--in", "{bad}", "--format", "csv", "--out", "{out}"],
             report_with(lambda r: r["cells"]["N-1"]["e"].update(cer_sum=False)), "ReportError"),
        ],
        ids=[
            "report-not-object", "report-no-engines", "report-no-cells", "report-no-aggregates",
            "manifest-no-books", "manifest-not-object", "manifest-book-without-id",
            "expected-no-columns", "expected-empty", "expected-not-integer", "expected-short-row",
            "expected-not-utf8", "report-not-utf8", "manifest-not-utf8",
            "report-count-float", "report-count-negative", "report-count-bool",
            "report-k-string", "report-k-zero", "report-cer-sum-string", "report-cer-sum-bool",
        ],
    )
    def test_malformed_input(self, tmp_path, capsys, argv, content, error_type):
        manifest = tmp_path / "m.json"
        manifest.write_bytes(manifest_to_json([BookEntry("N-1781", "N", ("l1",))]))
        bad = tmp_path / "bad.in"
        bad.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
        paths = {"bad": bad, "manifest": manifest, "out": tmp_path / "o"}
        argv = [a.format(**paths) for a in argv]

        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

        assert run(["--error-json", *argv]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert set(payload) == {"error"}
        assert set(payload["error"]) == {"type", "message"}
        assert payload["error"]["type"] == error_type
        assert payload["error"]["message"]
        assert not (tmp_path / "o").exists()

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
            (["eval", *EVAL_ARGS, "--datasets", "N-1781,N-1781"], "--datasets"),
            (["errors", *EVAL_ARGS, "--datasets", "N-1781,N-1803,N-1781"], "--datasets"),
            (["eval", *EVAL_ARGS, "--datasets", ",N-1781"], "--datasets"),
            (["eval", *EVAL_ARGS, "--datasets", ""], "--datasets"),
        ],
        ids=[
            "unmapped-unknown", "unmapped-replace-two-chars", "unmapped-replace-empty", "k-zero",
            "k-not-integer", "min-voters-one", "refine-cap-zero", "schedule-cap-negative",
            "datasets-repeated", "datasets-repeated-apart", "datasets-empty-id", "datasets-empty",
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
        ],
        ids=[
            "lines-string", "lines-not-strings", "book-id-number", "corpus-id-null", "metadata-null",
            "metadata-list", "engines-string", "engines-repeated", "datasets-string",
            "datasets-not-strings", "datasets-repeated", "cell-lines-float", "cell-gt-chars-string",
            "cell-distance-bool", "cell-macro-lines-float",
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


class TestPrepareCommands:
    def test_scan_refine_schedule_verify(self, corpus, tmp_path, capsys):
        manifest = tmp_path / "N.json"
        assert run(["prepare", "scan", "--root", str(corpus / "gt"), "--corpus", "N", "--out", str(manifest)]) == 0
        payload = json.loads(manifest.read_text(encoding="utf-8"))
        assert [b["book_id"] for b in payload["books"]] == ["N-1781", "N-1803"]

        refined = tmp_path / "refined.json"
        assert run(["prepare", "refine", "--manifest", str(manifest), "--cap", "1", "--out", str(refined)]) == 0
        back = json.loads(refined.read_text(encoding="utf-8"))
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
        payload = json.loads(sched.read_text(encoding="utf-8"))
        assert [s["name"] for s in payload["stages"]] == ["real", "refinement"]
        assert payload["stages"][0]["count"] == 3

        expected = tmp_path / "expected.csv"
        expected.write_text("corpus_id,books,lines\nN,2,3\n", encoding="utf-8")
        out = tmp_path / "verify.json"
        assert run(["prepare", "verify", "--manifest", str(manifest), "--expected", str(expected), "--out", str(out)]) == 0
        assert json.loads(out.read_text(encoding="utf-8")) == []
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
        capsys.readouterr()


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
