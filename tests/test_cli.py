from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import fraktur_bench
from fraktur_bench.cli import run
from fraktur_bench.manifests import BookEntry, manifest_to_json

from conftest import make_gt_tree, make_pred_tree, package_env


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
        ],
        ids=[
            "report-not-object", "report-no-engines", "report-no-cells", "report-no-aggregates",
            "manifest-no-books", "manifest-not-object", "manifest-book-without-id",
            "expected-no-columns", "expected-empty", "expected-not-integer", "expected-short-row",
            "expected-not-utf8", "report-not-utf8", "manifest-not-utf8",
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
        ],
        ids=[
            "unmapped-unknown", "unmapped-replace-two-chars", "unmapped-replace-empty", "k-zero",
            "k-not-integer", "min-voters-one", "refine-cap-zero", "schedule-cap-negative",
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
            assert f"argument {flag}:" in err
            assert "Traceback" not in err
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
