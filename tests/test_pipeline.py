from __future__ import annotations

import pytest

from fraktur_bench.errors import PairingError
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
        assert load_pred_tree(root, "e1") == {"b1": {"l1": "a"}}

    def test_parity_reports_both_directions(self, tmp_path):
        gt = load_gt_tree(make_gt_tree(tmp_path / "gt", {"b1": {"l1": "x", "l2": "y"}}))
        pred_root = make_pred_tree(tmp_path / "pred", "e", {"b1": {"l2": "y", "l3": "z"}})
        pred = load_pred_tree(pred_root, "e")
        with pytest.raises(PairingError) as err:
            check_parity(gt, pred, "e", list(gt))
        msg = str(err.value)
        assert "l1" in msg and "l3" in msg
