from __future__ import annotations

import errno
import json
import os

import pytest

from fraktur_bench.cli import run
from fraktur_bench.errors import ManifestError, PairingError
from fraktur_bench.pipeline import (
    check_parity,
    load_gt_tree,
    load_pred_trees,
    read_text_file,
)

from trees import make_gt_tree, make_pred_tree


class TestReadTextFile:
    def test_strips_line_ending_only(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_bytes("  text \r\n".encode("utf-8"))
        assert read_text_file(p) == "  text "

    @pytest.mark.parametrize(
        "content, text",
        [
            ("abc", "abc"),
            ("abc\n", "abc"),
            ("abc\r\n", "abc"),
            ("abc\r", "abc"),
            ("abc\n\n", "abc\n"),
            ("abc\r\n\n", "abc\r\n"),
        ],
    )
    def test_strips_exactly_one_line_ending(self, tmp_path, content, text):
        p = tmp_path / "f.txt"
        p.write_bytes(content.encode("utf-8"))
        assert read_text_file(p) == text

    def test_missing_file(self, tmp_path):
        p = tmp_path / "absent.txt"
        with pytest.raises(ManifestError) as err:
            read_text_file(p)
        assert str(err.value) == (
            f"cannot read {p}: {os.strerror(errno.ENOENT)}"
        )

    def test_file_longer_than_one_read(self, tmp_path):
        # 80 KiB of two-byte characters after one byte: a character straddles
        # the 64 KiB boundary of the first read
        text = "a" + "ſ" * 40_000
        p = tmp_path / "long.gt.txt"
        p.write_bytes((text + "\n").encode("utf-8"))
        assert p.stat().st_size > 1 << 16
        assert read_text_file(p) == text

    @pytest.mark.parametrize("as_str", [False, True], ids=["path", "str"])
    def test_directory_message(self, tmp_path, as_str):
        d = tmp_path / "l1.gt.txt"
        d.mkdir()
        with pytest.raises(ManifestError) as err:
            read_text_file(str(d) if as_str else d)
        assert str(err.value) == (
            f"cannot read {d}: {os.strerror(errno.EISDIR)}"
        )


class TestUnreadableLineFile:
    """A line file that is listed but cannot be read is a data error with
    one line naming the file and the reason."""

    @pytest.mark.parametrize(
        "make, code",
        [
            (lambda p: p.mkdir(), errno.EISDIR),
            (lambda p: p.symlink_to(p.parent / "absent"), errno.ENOENT),
        ],
        ids=["directory", "dangling-symlink"],
    )
    def test_eval_message(self, tmp_path, capsys, make, code):
        root = tmp_path.resolve()
        make_gt_tree(root / "gt", {"b1": {"l0": "a"}})
        make_pred_tree(root / "pred", "e", {"b1": {"l0": "a", "l1": "b"}})
        bad = root / "gt" / "b1" / "l1.gt.txt"
        make(bad)
        message = f"cannot read {bad}: {os.strerror(code)}"
        argv = ["eval", "--gt", str(root / "gt"), "--pred", str(root / "pred"),
                "--engine", "e", "--out", str(root / "out.json")]

        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert run(["--error-json", *argv]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload == {"error": {"type": "ManifestError", "message": message}}
        assert not (root / "out.json").exists()


class TestTrees:
    def test_load_gt_tree(self, tmp_path):
        root = make_gt_tree(tmp_path / "gt", {"b1": {"l1": "x"}, "b2": {"l1": "y", "l2": "z"}})
        tree = load_gt_tree(root)
        assert set(tree) == {"b1", "b2"}
        assert tree["b2"]["l2"] == "z"

    def test_load_pred_tree_filters_engine(self, tmp_path):
        root = tmp_path / "pred"
        make_pred_tree(root, "e1", {"b1": {"l1": "a"}})
        make_pred_tree(root, "e2", {"b1": {"l1": "b"}})
        assert list(load_pred_trees({"e1": root})) == [("e1", {"b1": {"l1": "a"}}, {})]
        assert list(load_pred_trees({"e2": root, "e1": root})) == [
            ("e2", {"b1": {"l1": "b"}}, {}),
            ("e1", {"b1": {"l1": "a"}}, {}),
        ]

    def test_load_pred_tree_finds_sidecars(self, tmp_path):
        root = tmp_path / "pred"
        make_pred_tree(root, "e1", {"b1": {"l1": "a", "l2": "b"}, "b2": {"l1": "c"}})
        make_pred_tree(root, "e2", {"b1": {"l1": "d"}})
        for name in ("b1/l2.pred.e1.conf", "b1/l1.pred.e2.conf", "b2/l1.pred.e1.conf.bak"):
            (root / name).write_text("0.5\n", encoding="utf-8")
        (_, texts, sidecars), (_, _, e2_sidecars) = load_pred_trees({"e1": root, "e2": root})
        assert texts == {"b1": {"l1": "a", "l2": "b"}, "b2": {"l1": "c"}}
        assert sidecars == {"b1": {"l2": str(root / "b1" / "l2.pred.e1.conf")}}
        assert e2_sidecars == {"b1": {"l1": str(root / "b1" / "l1.pred.e2.conf")}}

    def test_parity_reports_both_directions(self, tmp_path):
        gt = load_gt_tree(make_gt_tree(tmp_path / "gt", {"b1": {"l1": "x", "l2": "y"}}))
        pred_root = make_pred_tree(tmp_path / "pred", "e", {"b1": {"l2": "y", "l3": "z"}})
        [(_, pred, _)] = load_pred_trees({"e": pred_root})
        with pytest.raises(PairingError) as err:
            check_parity(gt, pred, "e", list(gt))
        msg = str(err.value)
        assert "l1" in msg and "l3" in msg


class TestSharedRootListing:
    """Engines that share a prediction root share its listing: each book
    directory of each distinct root is listed once per command."""

    @staticmethod
    def count_listings(monkeypatch) -> dict[str, int]:
        counts: dict[str, int] = {}
        real = os.listdir

        def listdir(path):
            counts[str(path)] = counts.get(str(path), 0) + 1
            return real(path)

        monkeypatch.setattr(os, "listdir", listdir)
        return counts

    @pytest.mark.parametrize("command", ["eval", "vote"])
    def test_each_book_directory_listed_once(self, tmp_path, monkeypatch, command):
        root = tmp_path.resolve()
        books = {"b1": {"l1": "ab", "l2": "c"}, "b2": {"l1": "d"}}
        make_gt_tree(root / "gt", books)
        engines = ("e1", "e2") if command == "eval" else ("e1", "e2", "e3")
        for engine in engines:
            make_pred_tree(root / "pred", engine, books)
        engine_flags = [f for e in engines for f in ("--engine", e)]
        argv = {
            "eval": ["eval", "--gt", str(root / "gt"), "--pred", str(root / "pred"),
                     *engine_flags, "--out", str(root / "out.json")],
            "vote": ["vote", "--pred", str(root / "pred"), *engine_flags,
                     "--out", str(root / "voted")],
        }[command]
        counts = self.count_listings(monkeypatch)

        assert run(argv) == 0
        roots = ("gt", "pred") if command == "eval" else ("pred",)
        assert counts == {str(root / r / book): 1 for r in roots for book in books}
