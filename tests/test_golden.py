"""Pinned output bytes.

The reports and voted lines must stay byte-identical for the same inputs
whatever the code underneath does. These tests build one small fixed
tree and pin the sha256 of every output format, so a change that moves a
single byte fails here rather than only in a one-off comparison.

If a digest changes on purpose (a new report field, say), the change is
a format change and belongs in the changelog with the new digests.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from fraktur_bench.cli import run

from conftest import make_gt_tree, make_pred_tree

GT = {
    "N-1781": {
        "l1": "Das Jahr war gut, und die Ernte reich.",
        "l2": "mehr Zeit und Raum für alle",
        "l3": "",
    },
    "N-1803": {"l1": "gegen Abend kam er nach Hauſe", "l2": "Jm Winter 1803"},
    "O-1800": {"l1": "die alte Ordnung der Dinge", "l2": "niemand weiß es"},
    "D-1820": {"l1": "das Dorf am Fluſſe", "l2": "ein langer, kalter Winter"},
    "S-1850": {"l1": "Wörterbuch der deutſchen Sprache"},
}

PREDS = {
    "a": {
        "N-1781": {
            "l1": "Das Iahr war gut, und die Ernte reich.",
            "l2": "mehr Zeit nnd Raum fûr alle",
            "l3": "x",
        },
        "N-1803": {"l1": "gegen Abend kam er nach Hauſe", "l2": "Jm Wiuter 1808"},
        "O-1800": {"l1": "die alte Ordnung derDinge", "l2": "niemand weiß es"},
        "D-1820": {"l1": "das Dorf am Fluſſe", "l2": "ein langer , kalter Winter"},
        "S-1850": {"l1": "Wörterbuch der Sprache"},
    },
    "b": {
        "N-1781": {
            "l1": "Das Jahr war gnt und die Ernte reich",
            "l2": "mehr Zeit und und Raum für alle",
            "l3": "",
        },
        "N-1803": {"l1": "gegen Abeud kam er nach Hause", "l2": "Jm Winter 1803."},
        "O-1800": {"l1": "die alte Orduung der Diuge", "l2": "niemand weiſz es"},
        "D-1820": {"l1": "das Dorf a m Fluſſe", "l2": "ein lauger, kalter Winter"},
        "S-1850": {"l1": "Wörterbnch der deutschen Sprache"},
    },
}

VOTERS = {
    "e0": {
        "bk1": {"l1": "Das Jahr war gut", "l2": "mehr Zeit", "l3": "ab"},
        "bk2": {"l1": "gegen Abend kam er", "l2": "Fluſſe", "l3": "Haus"},
    },
    "e1": {
        "bk1": {"l1": "Das Iahr war gnt", "l2": "mehr  Zeit", "l3": "ac"},
        "bk2": {"l1": "gegen Abeud kam", "l2": "Flusse", "l3": "Hauſe"},
    },
    "e2": {
        "bk1": {"l1": "Das Jahr wargut", "l2": "nehr Zeit", "l3": "a"},
        "bk2": {"l1": "gegen Abend kamer", "l2": "Fluſe", "l3": "Hauie"},
    },
}

EVAL_DIGESTS = {
    ("eval", "json", False): "691a46a0bd797b875748c1e8f664805953b0dc7149b4cf0f7f52a3d6d04085ad",
    ("eval", "json", True): "72936bb769f13ddcdd29463ba1c0f370837d7db85c2c605696489b1fd7f4bf6e",
    ("eval", "csv", False): "326702dcd6c3784a470161b70b758bf57473fdd54c680db5f64b792512442d45",
    ("eval", "csv", True): "326702dcd6c3784a470161b70b758bf57473fdd54c680db5f64b792512442d45",
    ("eval", "markdown", False): "771b237e1c9a7a479d41e52178d28167e41ae3c3973fa0f8198d72ee86e0134d",
    ("eval", "markdown", True): "7988f78995d84d3461c198bcd4eafa50567bc807994d42914f59760bbebd0d62",
    ("errors", "json", False): "b71bdc3c9892c43c556937450812654295ea518778ac1e1497bd1a4d1bda2e72",
    ("errors", "json", True): "f64531332ce48bd7fb44adca4b2964d0035cd9b18502c418fc73a924dbc17510",
    ("errors", "csv", False): "cf0b9ac607635149ba318e7bf2de6b2881351a643769821cf0df0d4b89cad25c",
    ("errors", "csv", True): "94ca64cf5c91f20efeda17bc7be65520688d2fc179a066c69f3cd0ff6dd8e0fd",
    ("errors", "markdown", False): "e5581c30f81ff5cc6f90522fcf0b6da6b3ee0bcb7588be4eee42e01db0d6e0b8",
    ("errors", "markdown", True): "b16fd7d72b6f3b07804df88ebcb0672247f03bc76e4fde5c21cd3301965d6028",
}

VOTE_DIGESTS = {
    "first_voter": "2a478ed940e01bc13b2c72a1694a19d1ba1a7a7e1e7237e58a06ac34773691e3",
    "confidence": "2ef1abcc63d689db37423020d8fc2138d4757ee7a40deb05ef4b5e35ebc9a8d9",
    "abstain_to_pivot": "ad7ea1b5dda75e153353a62f0abb8f297f2ec8b45867c11c24ee68accee3d4df",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def confidences(text: str, engine: int) -> str:
    """A fixed, engine-dependent confidence per character."""
    return " ".join(f"{((i * 7 + engine * 3) % 10) / 10 + 0.05:.2f}" for i in range(len(text)))


@pytest.fixture(scope="module")
def eval_tree(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("golden-eval")
    make_gt_tree(root / "gt", GT)
    for engine, books in PREDS.items():
        make_pred_tree(root / "pred", engine, books)
    return root


@pytest.fixture(scope="module")
def vote_tree(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("golden-vote")
    for index, (engine, books) in enumerate(VOTERS.items()):
        make_pred_tree(root, engine, books)
        for book, lines in books.items():
            for line_id, text in lines.items():
                (root / book / f"{line_id}.pred.{engine}.conf").write_text(
                    confidences(text, index) + "\n", encoding="utf-8"
                )
    return root


@pytest.mark.parametrize("command, fmt, merge_runs", list(EVAL_DIGESTS))
def test_eval_and_errors_reports(eval_tree, tmp_path, capsys, command, fmt, merge_runs):
    out = tmp_path / "report.out"
    argv = [
        command,
        "--gt", str(eval_tree / "gt"),
        "--pred", str(eval_tree / "pred"),
        "--engine", "a",
        "--engine", "b",
        "--format", fmt,
        "--out", str(out),
    ]
    assert run(argv + ["--merge-runs"] if merge_runs else argv) == 0, capsys.readouterr().err
    assert sha256(out.read_bytes()) == EVAL_DIGESTS[command, fmt, merge_runs]


@pytest.mark.parametrize("tie_break", list(VOTE_DIGESTS))
def test_voted_lines(vote_tree, tmp_path, capsys, tie_break):
    out = tmp_path / "voted"
    argv = ["vote", "--pred", str(vote_tree), "--out", str(out), "--tie-break", tie_break]
    for engine in VOTERS:
        argv += ["--engine", engine]
    assert run(argv + ["--pivot", "longest"]) == 0, capsys.readouterr().err
    files = sorted(out.rglob("*.pred.voted.txt"))
    assert len(files) == sum(len(lines) for lines in VOTERS["e0"].values())
    listing = b"".join(
        f.relative_to(out).as_posix().encode() + b"\0" + f.read_bytes() for f in files
    )
    assert sha256(listing) == VOTE_DIGESTS[tie_break]
