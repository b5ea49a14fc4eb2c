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
    load_pred_tree,
    read_text_file,
)

from conftest import make_gt_tree, make_pred_tree


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
        with pytest.raises(Exception):
            read_text_file(tmp_path / "absent.txt")


    @pytest.mark.parametrize("as_str", [False, True], ids=["path", "str"])
    def test_directory_message(self, tmp_path, as_str):
        d = tmp_path / "l1.gt.txt"
        d.mkdir()
        with pytest.raises(ManifestError) as err:
            read_text_file(str(d) if as_str else d)
        assert str(err.value) == (
            f"cannot read {d}: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{d}'"
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
        message = f"cannot read {bad}: [Errno {code}] {os.strerror(code)}: '{bad}'"
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
        assert load_pred_tree(root, "e1") == ({"b1": {"l1": "a"}}, {})

    def test_load_pred_tree_finds_sidecars(self, tmp_path):
        root = tmp_path / "pred"
        make_pred_tree(root, "e1", {"b1": {"l1": "a", "l2": "b"}, "b2": {"l1": "c"}})
        make_pred_tree(root, "e2", {"b1": {"l1": "d"}})
        for name in ("b1/l2.pred.e1.conf", "b1/l1.pred.e2.conf", "b2/l1.pred.e1.conf.bak"):
            (root / name).write_text("0.5\n", encoding="utf-8")
        texts, sidecars = load_pred_tree(root, "e1")
        assert texts == {"b1": {"l1": "a", "l2": "b"}, "b2": {"l1": "c"}}
        assert sidecars == {"b1": {"l2": root / "b1" / "l2.pred.e1.conf"}}

    def test_parity_reports_both_directions(self, tmp_path):
        gt = load_gt_tree(make_gt_tree(tmp_path / "gt", {"b1": {"l1": "x", "l2": "y"}}))
        pred_root = make_pred_tree(tmp_path / "pred", "e", {"b1": {"l2": "y", "l3": "z"}})
        pred, _ = load_pred_tree(pred_root, "e")
        with pytest.raises(PairingError) as err:
            check_parity(gt, pred, "e", list(gt))
        msg = str(err.value)
        assert "l1" in msg and "l3" in msg
