"""Acceptance suite: one test per shipped guarantee.

Each test prints one [PASS]/[FAIL] line naming its guarantee; run with
``pytest tests/test_acceptance.py -v -s`` to see the lines as they
happen. Randomized suites use fixed seeds so failures reproduce.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from fraktur_bench.align import align, levenshtein
from fraktur_bench.analytics import (
    ConfusionEntry,
    classify_whitespace_errors,
    confusion_stats,
    top_k_error_share,
)
from fraktur_bench.codec import default_codec, unescape_entry, validate_against_codec
from fraktur_bench.errors import NormalizationError
from fraktur_bench.lines import TranscriptionLine
from fraktur_bench.manifests import BookEntry, refinement_sample
from fraktur_bench.normalize import default_rules, normalize_line
from fraktur_bench.voting import VoterOutput, VotingConfig, vote_line

from trees import make_gt_tree, make_pred_tree, package_env


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}", flush=True)
        raise
    print(f"[PASS] {label}", flush=True)


# --- 1. edit distance against a brute-force oracle ---------------------------


def oracle_levenshtein(a: str, b: str) -> int:
    """Memoized top-down recursion; independent of the production
    bottom-up and vectorized implementations."""
    memo: dict[tuple[int, int], int] = {}

    def go(i: int, j: int) -> int:
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        key = (i, j)
        if key in memo:
            return memo[key]
        if a[i] == b[j]:
            best = go(i + 1, j + 1)
        else:
            best = 1 + min(go(i + 1, j + 1), go(i + 1, j), go(i, j + 1))
        memo[key] = best
        return best

    return go(0, 0)


def test_edit_distance_oracle_equivalence():
    with criterion("edit distance equals brute-force oracle on 10,000 pairs in <60s"):
        rng = random.Random(101)
        alphabet = "abcdef"
        start = time.monotonic()
        for _ in range(10_000):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
            assert levenshtein(a, b) == oracle_levenshtein(a, b), (a, b)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"oracle suite took {elapsed:.1f}s"


# --- 2. metric laws -----------------------------------------------------------


def test_metric_laws():
    with criterion("metric laws (symmetry, identity, triangle) on 1,000 triples"):
        rng = random.Random(202)
        alphabet = "abcdef "
        for _ in range(1_000):
            a, b, c = (
                "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 16)))
                for _ in range(3)
            )
            assert levenshtein(a, b) == levenshtein(b, a)
            assert levenshtein(a, a) == 0
            assert (levenshtein(a, b) == 0) == (a == b)
            assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


# --- 3. normalization idempotence + codec closure -----------------------------

FUZZ_SEEDS = (
    list("ﬀﬁﬂﬃﬄﬅﬆ")  # latin ligatures
    + list("ꝛꝚ")                              # r rotunda
    + list("IJij")
    + list("„“”»«‚‘")  # quotes
    + list("–—‒⸗­")              # dashes
    + list("âôû")                          # circumflex vowels
    + ["aͤ", "oͤ", "uͤ"]                   # combining e on its host vowels
    + list("​﻿ ")                          # zero-width, nbsp
    + list("ſß")
    + list("abcdefghStuz .,")
)


def test_normalization_idempotent_and_codec_closed():
    with criterion("normalization idempotence and codec closure on 1,000 fuzzed strings"):
        codec = default_codec()
        rules = default_rules()
        rng = random.Random(303)
        succeeded = 0
        for i in range(1_000):
            text = "".join(rng.choice(FUZZ_SEEDS) for _ in range(rng.randint(0, 40)))
            line = TranscriptionLine("fuzz", f"l{i}", text)
            try:
                once = normalize_line(line, rules, codec)
            except NormalizationError:
                continue
            succeeded += 1
            again = normalize_line(once, rules, codec)
            assert again.text == once.text, f"not idempotent on {text!r}"
            assert validate_against_codec(once, codec) == [], f"not closed on {text!r}"
        # the fuzz alphabet is built from rule sources and codec members,
        # so failures should be rare; guard against a silently skipped suite
        assert succeeded >= 900, f"only {succeeded} fuzz cases normalized cleanly"


# --- 4. checked-in rule vectors -----------------------------------------------


def test_rule_vectors_exact():
    with criterion("checked-in normalization vectors match exactly"):
        vectors = Path(__file__).parent / "data" / "normalization_vectors.tsv"
        codec = default_codec()
        rules = default_rules()
        required = {"Ich": "Jch", "ﬆ": "st", "ꝛ": "r"}
        seen: dict[str, str] = {}
        n = 0
        for lineno, raw in enumerate(
            vectors.read_text(encoding="utf-8").splitlines(), start=1
        ):
            if not raw or raw.startswith("#"):
                continue
            label, source, expected = raw.split("\t")
            source = unescape_entry(source, lineno, str(vectors))
            expected = unescape_entry(expected, lineno, str(vectors))
            got = normalize_line(TranscriptionLine("b", label, source), rules, codec).text
            assert got == expected, f"{label}: {got!r} != {expected!r}"
            seen[source] = got
            n += 1
        assert n >= 30
        for source, expected in required.items():
            assert seen.get(source) == expected
        # the two kept letterforms pass through untouched
        assert normalize_line(TranscriptionLine("b", "k1", "ſ"), rules, codec).text == "ſ"
        assert normalize_line(TranscriptionLine("b", "k2", "ß"), rules, codec).text == "ß"


# --- 5. refinement cap ----------------------------------------------------------


def test_refinement_cap_structure():
    with criterion("refinement cap: 39 books ≥50 lines, cap 50 → exactly 1,950; deterministic"):
        big = [
            BookEntry(f"book{i:02d}", "DTA", tuple(f"l{j:04d}" for j in range(50 + i)))
            for i in range(39)
        ]
        runs = []
        for _ in range(3):
            sampled = [refinement_sample(b, 50, seed=0) for b in big]
            assert all(len(s) == 50 for s in sampled)
            runs.append(sampled)
        assert sum(len(s) for s in runs[0]) == 1_950
        assert runs[0] == runs[1] == runs[2]

        mixed_sizes = (60, 50, 10, 3, 120)
        mixed = [
            BookEntry(f"m{i}", "DTA", tuple(f"l{j:04d}" for j in range(size)))
            for i, size in enumerate(mixed_sizes)
        ]
        total = sum(len(refinement_sample(b, 50, seed=0)) for b in mixed)
        assert total == sum(min(size, 50) for size in mixed_sizes)


# --- 6. report shape ------------------------------------------------------------


REPORT_BOOKS = {
    "N-1781": {"l1": "Das Jahr war gut", "l2": "mehr Zeit und Raum"},
    "N-1803": {"l1": "gegen Abend kam er"},
    "O-1800": {"l1": "die alte Ordnung", "l2": "niemand weiſz es"},
    "O-1810": {"l1": "zwei Wege führen"},
    "D-1820": {"l1": "das Dorf am Fluſz", "l2": "ein langer Winter"},
    "D-1830": {"l1": "die Kinder ſpielen"},
    "S-1850": {"l1": "Wörterbuch der Sprache"},
}

REPORT_PREDS = {
    "N-1781": {"l1": "Das Jahr war gut", "l2": "mehr Zeit nnd Raum"},
    "N-1803": {"l1": "gegen Abend kam er"},
    "O-1800": {"l1": "die alte Ordnung", "l2": "niemand weiſz es"},
    "O-1810": {"l1": "zwci Wege führen"},
    "D-1820": {"l1": "das Dorf am Fluſz", "l2": "ein langer Wintcr"},
    "D-1830": {"l1": "die Kinder ſpielen"},
    "S-1850": {"l1": "Wörterbuch der Sprache"},
}

DATASET_ORDER = "N-1781,N-1803,O-1800,O-1810,D-1820,D-1830,S-1850"


def run_cli(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "fraktur_bench.cli", *args],
        capture_output=True,
        text=True,
        env=package_env(),
    )


def eval_args(root: Path, out: Path) -> list[str]:
    return [
        "eval",
        "--gt", str(root / "gt"),
        "--pred", str(root / "pred"),
        "--engine", "model-a",
        "--datasets", DATASET_ORDER,
        "--out", str(out),
    ]


def test_report_shape(tmp_path):
    with criterion("report rows N-all, O-all, D-all, NOD, All in order, 2-decimal percents"):
        make_gt_tree(tmp_path / "gt", REPORT_BOOKS)
        make_pred_tree(tmp_path / "pred", "model-a", REPORT_PREDS)
        out = tmp_path / "report.json"
        proc = run_cli(eval_args(tmp_path, out))
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(out.read_text(encoding="utf-8"))

        names = [row["name"] for row in payload["aggregates"]]
        assert names == ["N-all", "O-all", "D-all", "NOD", "All"]
        assert payload["datasets"] == DATASET_ORDER.split(",")

        # NOD excludes the dictionary corpus S
        nod = next(r for r in payload["aggregates"] if r["name"] == "NOD")
        all_row = next(r for r in payload["aggregates"] if r["name"] == "All")
        s_chars = sum(len(t) for t in REPORT_BOOKS["S-1850"].values())
        assert all_row["cells"]["model-a"]["gt_chars"] - nod["cells"]["model-a"]["gt_chars"] == s_chars

        # percent cells carry exactly two decimals, csv and json alike
        for row in payload["aggregates"]:
            for cell in row["cells"].values():
                for key in ("micro_pct", "macro_pct"):
                    whole, _, frac = cell[key].partition(".")
                    assert whole.isdigit() and len(frac) == 2, cell[key]

        csv_out = tmp_path / "report.csv"
        proc = run_cli(["report", "--in", str(out), "--format", "csv", "--out", str(csv_out)])
        assert proc.returncode == 0, proc.stderr
        rows = [r.split(",") for r in csv_out.read_text(encoding="utf-8").split("\n") if r]
        row_names = [r[0] for r in rows[1:]]
        for name in ("N-all", "O-all", "D-all", "NOD", "All"):
            assert name in row_names
        assert row_names[-5:] == ["N-all", "O-all", "D-all", "NOD", "All"]


# --- 7. voting properties -------------------------------------------------------


def corrupt(text: str, rate: float, rng: random.Random, alphabet: str) -> str:
    out: list[str] = []
    for ch in text:
        r = rng.random()
        if r < rate:
            kind = rng.choice(("sub", "del", "ins"))
            if kind == "sub":
                out.append(rng.choice(alphabet.replace(ch, "") or alphabet))
            elif kind == "ins":
                out.append(rng.choice(alphabet))
                out.append(ch)
            # del: drop the character
        else:
            out.append(ch)
    return "".join(out)


def test_voting_unanimity_and_majority():
    with criterion("voting: unanimity and majority dominance, 1,000 randomized cases each"):
        rng = random.Random(404)
        alphabet = "abcdef "
        config = VotingConfig()
        for _ in range(1_000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 20)))
            n = rng.randint(2, 5)
            voters = [VoterOutput(f"e{i}", text) for i in range(n)]
            assert vote_line(voters, config).text == text
        for _ in range(1_000):
            good = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 20)))
            bad = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 20)))
            copies = rng.randint(2, 4)
            voters = [VoterOutput(f"g{i}", good) for i in range(copies)]
            voters.append(VoterOutput("dissent", bad))
            assert vote_line(voters, config).text == good, (good, bad)


def test_voting_beats_mean_single_cer():
    with criterion("voting: voted CER < mean single CER in ≥95/100 noisy-ensemble trials"):
        alphabet = "abcdefgh "
        gt_rng = random.Random(505)
        truth = "".join(gt_rng.choice(alphabet) for _ in range(500))
        config = VotingConfig()
        wins = 0
        for trial in range(100):
            rng = random.Random(1_000 + trial)
            copies = [corrupt(truth, 0.02, rng, alphabet) for _ in range(5)]
            voters = [VoterOutput(f"e{i}", c) for i, c in enumerate(copies)]
            voted = vote_line(voters, config).text
            voted_cer = align(truth, voted).cer
            mean_single = sum(align(truth, c).cer for c in copies) / len(copies)
            if voted_cer < mean_single:
                wins += 1
        assert wins >= 95, f"voting beat the mean in only {wins}/100 trials"


# --- 8. whitespace analytics ----------------------------------------------------


def test_whitespace_analytics_exact():
    with criterion("whitespace buckets recovered exactly; top-3 share exact fraction"):
        # 10 injected errors: 6 space deletions (60%), 2 space insertions,
        # 1 u->n and 1 e->c substitution
        pairs = [
            ("ein wort mehr", "einwortmehr"),        # 2 space deletions
            ("so weit so gut", "soweitso gut"),      # 2 space deletions
            ("am ende gut", "amende gut"),           # 1 space deletion
            ("zu hause", "zuhause"),                 # 1 space deletion
            ("abend", "ab end"),                     # 1 space insertion
            ("morgen", "mor gen"),                   # 1 space insertion
            ("und", "nnd"),                          # u->n
            ("mehr", "mchr"),                        # e->c
        ]
        results = [align(gt, pred) for gt, pred in pairs]
        table = confusion_stats(results)
        summary = classify_whitespace_errors(table)
        assert summary.space_deletions == 6
        assert summary.space_insertions == 2
        assert summary.other == 2
        assert summary.total == 10

        assert table[0] == ConfusionEntry(" ", "", 6)
        assert table[1] == ConfusionEntry("", " ", 2)
        # top-3 = 6 + 2 + 1 over 10
        assert top_k_error_share(table, 3) == Fraction(9, 10)


# --- 9. end-to-end determinism ---------------------------------------------------


def test_end_to_end_byte_identical(tmp_path):
    with criterion("two full pipeline runs produce byte-identical JSON"):
        make_gt_tree(tmp_path / "gt", REPORT_BOOKS)
        make_pred_tree(tmp_path / "pred", "model-a", REPORT_PREDS)
        out1 = tmp_path / "run1.json"
        out2 = tmp_path / "run2.json"
        proc1 = run_cli(eval_args(tmp_path, out1))
        assert proc1.returncode == 0, proc1.stderr
        proc2 = run_cli(eval_args(tmp_path, out2))
        assert proc2.returncode == 0, proc2.stderr
        b1 = out1.read_bytes()
        assert b1 == out2.read_bytes()
        assert len(b1) > 0
