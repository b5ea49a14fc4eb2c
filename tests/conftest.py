"""Shared fixtures: small on-disk line-pair trees, built by the helpers
in trees.py."""

from __future__ import annotations

from pathlib import Path

import pytest

from trees import make_gt_tree, make_pred_tree


@pytest.fixture
def gt_tree(tmp_path: Path):
    def build(books: dict[str, dict[str, str]]) -> Path:
        return make_gt_tree(tmp_path / "gt", books)

    return build


@pytest.fixture
def pred_tree(tmp_path: Path):
    def build(engine_id: str, books: dict[str, dict[str, str]]) -> Path:
        return make_pred_tree(tmp_path / "pred", engine_id, books)

    return build
