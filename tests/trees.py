"""Builders for small on-disk line-pair trees, and helpers for reading
what commands write, shared by the test modules.

Layout under a tree root is <book>/<line>.gt.txt with an image sibling,
and <book>/<line>.pred.<engine>.txt for predictions. Builders take
nested dicts so tests can describe a corpus in a few lines.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import fraktur_bench


def package_env() -> dict[str, str]:
    """Environment for a child interpreter that must import the
    fraktur_bench under test, installed or not."""
    src = str(Path(fraktur_bench.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + inherited if inherited else "")}


def strict_json(data: bytes) -> object:
    """data parsed as strict JSON, which has no NaN, Infinity or -Infinity."""

    def refuse(token: str) -> None:
        raise AssertionError(f"{token} is not strict JSON")

    return json.loads(data, parse_constant=refuse)


def make_gt_tree(root: Path, books: dict[str, dict[str, str]]) -> Path:
    for book_id, lines in books.items():
        book_dir = root / book_id
        book_dir.mkdir(parents=True, exist_ok=True)
        for line_id, text in lines.items():
            (book_dir / f"{line_id}.gt.txt").write_text(text + "\n", encoding="utf-8")
            (book_dir / f"{line_id}.png").write_bytes(b"\x89PNG\r\n")
    return root


def make_pred_tree(
    root: Path, engine_id: str, books: dict[str, dict[str, str]]
) -> Path:
    for book_id, lines in books.items():
        book_dir = root / book_id
        book_dir.mkdir(parents=True, exist_ok=True)
        for line_id, text in lines.items():
            (book_dir / f"{line_id}.pred.{engine_id}.txt").write_text(
                text + "\n", encoding="utf-8"
            )
    return root
