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

from trees import make_gt_tree, make_pred_tree, strict_json

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

# tie-break -> pivot -> digest: the longest text (e0 on four of the six
# lines, e1 on two), the first voter (e0), and engine e1.
VOTE_DIGESTS = {
    "first_voter": {
        "longest": "2a478ed940e01bc13b2c72a1694a19d1ba1a7a7e1e7237e58a06ac34773691e3",
        "first": "2a478ed940e01bc13b2c72a1694a19d1ba1a7a7e1e7237e58a06ac34773691e3",
        "e1": "837ec86649de29df31e6cdde80295486f9cce28c1389b4d54477edec61a25593",
    },
    "confidence": {
        "longest": "2ef1abcc63d689db37423020d8fc2138d4757ee7a40deb05ef4b5e35ebc9a8d9",
        "first": "2ef1abcc63d689db37423020d8fc2138d4757ee7a40deb05ef4b5e35ebc9a8d9",
        "e1": "5a54f637b30b51c8276979fcb2a4e776b6672c92720712d48f26360a0047dc8d",
    },
    "abstain_to_pivot": {
        "longest": "ad7ea1b5dda75e153353a62f0abb8f297f2ec8b45867c11c24ee68accee3d4df",
        "first": "2a478ed940e01bc13b2c72a1694a19d1ba1a7a7e1e7237e58a06ac34773691e3",
        "e1": "4844315be60f11e7c156f2df08163564801ab140c083c4ce544d98c3538278d5",
    },
}


# Characters outside the default codec (dagger, euro sign) in the ground
# truth and in engine a's predictions, for the --on-unmapped policies.
UNMAPPED_GT = {
    "N-1781": {"l1": "Preis 3 \u20ac, sagt er", "l2": "der Tod\u2020 im Jahr"},
    "O-1800": {"l1": "\u2020 gestorben 1800", "l2": "die alte Ordnung"},
}

UNMAPPED_PREDS = {
    "a": {
        "N-1781": {"l1": "Preis 3 \u20ac sagt er", "l2": "der Tod im Iahr\u2020"},
        "O-1800": {"l1": "\u2020\u2020 geftorben 1800", "l2": "die alte \u20acrdnung"},
    },
    "b": {
        "N-1781": {"l1": "Preis 3 E, sagt er", "l2": "der Tod im Jahr"},
        "O-1800": {"l1": "gestorben 1800", "l2": "die alte Ordnung"},
    },
}

UNMAPPED_DIGESTS = {
    ("eval", "json", "drop"): "a3667d2f9ee9754b91aa78a4ea9f66fbe43d3e94b8a7389309d7f061240f6134",
    ("eval", "json", "replace=?"): "527f3e443e6892b402f3e1ce7580f80ed6f6ca9900eaab5e95679491ae629f33",
    ("eval", "markdown", "drop"): "3865a567707c411aef3bcdb2dc13370f80bd2abb23b2d580f3fd127498bd66b3",
    ("eval", "markdown", "replace=?"): "5fcdd09725710f5402104623c3a64141c2aea6c846d51377d3187693e35097a3",
    ("errors", "json", "drop"): "2eb4ced104e56391777d19d508b7aa986e332cce7486568fb508169c353a6bf3",
    ("errors", "json", "replace=?"): "5a8bde844dce6467ac658f7c48d551257b78d858c25a719ede29b1cc0060a130",
    ("errors", "markdown", "drop"): "aa12916e8097f885f670f7daf67c44f37efbdc0848c7ff3af9fe4f1da7c8c2e7",
    ("errors", "markdown", "replace=?"): "18fa8286b4bc8cca2e039245704709ff09c2ebab842e1ff0bdf4b9ba29d9e683",
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
def unmapped_tree(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("golden-unmapped")
    make_gt_tree(root / "gt", UNMAPPED_GT)
    for engine, books in UNMAPPED_PREDS.items():
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


@pytest.mark.parametrize("command, fmt, policy", list(UNMAPPED_DIGESTS))
def test_unmapped_policy_reports(unmapped_tree, tmp_path, capsys, command, fmt, policy):
    out = tmp_path / "report.out"
    argv = [
        command,
        "--gt", str(unmapped_tree / "gt"),
        "--pred", str(unmapped_tree / "pred"),
        "--engine", "a",
        "--engine", "b",
        "--format", fmt,
        "--on-unmapped", policy,
        "--out", str(out),
    ]
    assert run(argv) == 0, capsys.readouterr().err
    assert sha256(out.read_bytes()) == UNMAPPED_DIGESTS[command, fmt, policy]


def eval_argv(eval_tree: Path, fmt: str, out: Path, *flags: str) -> list[str]:
    return [
        "eval",
        "--gt", str(eval_tree / "gt"),
        "--pred", str(eval_tree / "pred"),
        "--engine", "a",
        "--engine", "b",
        "--format", fmt,
        "--out", str(out),
        *flags,
    ]


@pytest.mark.parametrize("merge_runs", [False, True])
@pytest.mark.parametrize("fmt", ["json", "csv", "markdown"])
def test_report_reemits_eval_bytes(eval_tree, tmp_path, capsys, fmt, merge_runs):
    stored = tmp_path / "report.json"
    out = tmp_path / "report.out"
    flags = ["--merge-runs"] if merge_runs else []
    assert run(eval_argv(eval_tree, "json", stored, *flags)) == 0, capsys.readouterr().err
    assert run(["report", "--in", str(stored), "--format", fmt, "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == EVAL_DIGESTS["eval", fmt, merge_runs]


@pytest.mark.parametrize("fmt", ["json", "csv", "markdown"])
def test_report_reemits_k_and_dictionary_corpus(eval_tree, tmp_path, capsys, fmt):
    flags = ["--k", "1", "--dictionary-corpus", "O"]
    stored = tmp_path / "report.json"
    direct = tmp_path / "direct.out"
    out = tmp_path / "report.out"
    assert run(eval_argv(eval_tree, "json", stored, *flags)) == 0, capsys.readouterr().err
    assert run(eval_argv(eval_tree, fmt, direct, *flags)) == 0
    assert run(["report", "--in", str(stored), "--format", fmt, "--out", str(out)]) == 0
    assert out.read_bytes() == direct.read_bytes()


@pytest.mark.parametrize("tie_break", list(VOTE_DIGESTS))
def test_voted_lines(vote_tree, tmp_path, capsys, tie_break):
    for pivot, digest in VOTE_DIGESTS[tie_break].items():
        out = tmp_path / pivot
        argv = ["vote", "--pred", str(vote_tree), "--out", str(out), "--tie-break", tie_break]
        for engine in VOTERS:
            argv += ["--engine", engine]
        assert run(argv + ["--pivot", pivot]) == 0, capsys.readouterr().err
        files = sorted(out.rglob("*.pred.voted.txt"))
        assert len(files) == sum(len(lines) for lines in VOTERS["e0"].values())
        listing = b"".join(
            f.relative_to(out).as_posix().encode() + b"\0" + f.read_bytes() for f in files
        )
        assert sha256(listing) == digest, pivot


@pytest.mark.parametrize("tree", ["eval_tree", "unmapped_tree"])
def test_json_outputs_are_strict(request, tmp_path, capsys, tree):
    root = request.getfixturevalue(tree)
    names = ("report", "errors", "again", "coverage")
    report, errors, again, coverage = (tmp_path / f"{name}.json" for name in names)
    # --on-unmapped drop: the unmapped tree needs a policy; the eval tree has nothing to drop
    args = ["--gt", str(root / "gt"), "--pred", str(root / "pred"), "--engine", "a",
            "--engine", "b", "--on-unmapped", "drop", "--format", "json"]
    for argv in (
        ["eval", *args, "--out", str(report)],
        ["errors", *args, "--out", str(errors)],
        ["report", "--in", str(report), "--format", "json", "--out", str(again)],
        ["coverage", "--in", str(root / "gt"), "--out", str(coverage)],
    ):
        assert run(argv) == 0, capsys.readouterr().err
    for path in (report, errors, again, coverage):
        strict_json(path.read_bytes())
