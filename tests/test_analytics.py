from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from typing import Iterable

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fraktur_bench.align import AlignmentResult, OpKind, align
from fraktur_bench.analytics import (
    CerCell,
    ConfusionEntry,
    EvaluationReport,
    build_report,
    classify_whitespace_errors,
    compute_aggregates,
    confusion_stats,
    corpus_of,
    emit_errors_report,
    emit_report,
    report_from_json,
    report_to_json,
    top_k_error_share,
)
from fraktur_bench.errors import ReportError

from edit_scripts import delete, insert


def reference_confusion_stats(
    results: Iterable[AlignmentResult], merge_runs: bool = False
) -> tuple[ConfusionEntry, ...]:
    """Aggregate non-match ops into a ranked confusion table.

    Default granularity is one edit op per entry. With merge_runs, maximal
    runs of adjacent insertions (and, separately, deletions) inside a line
    collapse into one multi-character entry; substitutions stay single ops.
    Ranking: count descending, ties by (gt_seq, pred_seq).
    """
    counts: dict[tuple[str, str], int] = {}

    def bump(gt_seq: str, pred_seq: str) -> None:
        key = (gt_seq, pred_seq)
        counts[key] = counts.get(key, 0) + 1

    for result in results:
        if not result.distance:  # all matches
            continue
        if not merge_runs:
            for op in result.ops:
                if op.kind is OpKind.SUBSTITUTE:
                    bump(op.gt, op.pred)
                elif op.kind is OpKind.DELETE:
                    bump(op.gt, "")
                elif op.kind is OpKind.INSERT:
                    bump("", op.pred)
            continue
        run_kind: OpKind | None = None
        run_chars: list[str] = []

        def flush() -> None:
            nonlocal run_kind, run_chars
            if run_kind is OpKind.DELETE:
                bump("".join(run_chars), "")
            elif run_kind is OpKind.INSERT:
                bump("", "".join(run_chars))
            run_kind = None
            run_chars = []

        for op in result.ops:
            if op.kind in (OpKind.DELETE, OpKind.INSERT):
                if op.kind is not run_kind:
                    flush()
                    run_kind = op.kind
                run_chars.append(op.gt if op.kind is OpKind.DELETE else op.pred)
            else:
                flush()
                if op.kind is OpKind.SUBSTITUTE:
                    bump(op.gt, op.pred)
        flush()

    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))
    return tuple(ConfusionEntry(g, p, n) for (g, p), n in ranked)


def cell(distance: int, gt_chars: int, lines: int = 1) -> CerCell:
    cer = distance / gt_chars if gt_chars else float(distance)
    return CerCell(
        lines=lines,
        gt_chars=gt_chars,
        distance=distance,
        macro_lines=lines if gt_chars else 0,
        cer_sum=cer * lines,
    )


class TestConfusionStats:
    def test_ranked_by_count(self):
        results = [
            align("a b c d", "abcd"),  # three deleted spaces
            align("u", "n"),
        ]
        table = confusion_stats(results)
        assert table[0] == ConfusionEntry(" ", "", 3)
        assert table[1] == ConfusionEntry("u", "n", 1)

    def test_tie_break_lexicographic(self):
        results = [align("a", "b"), align("c", "d")]
        table = confusion_stats(results)
        assert [(e.gt_seq, e.pred_seq) for e in table] == [("a", "b"), ("c", "d")]

    def test_merge_runs(self):
        # two adjacent insertions merge into one two-char entry
        results = [align("ab", "axyb")]
        merged = confusion_stats(results, merge_runs=True)
        assert merged == (ConfusionEntry("", "xy", 1),)
        flat = confusion_stats(results)
        assert flat == (ConfusionEntry("", "x", 1), ConfusionEntry("", "y", 1))

    def test_merge_runs_does_not_cross_kinds(self):
        # deletion run at the start, insertion run at the end, matches between
        results = [align("xxabc", "abcyy")]
        merged = confusion_stats(results, merge_runs=True)
        assert ConfusionEntry("xx", "", 1) in merged
        assert ConfusionEntry("", "yy", 1) in merged

    def test_empty(self):
        assert confusion_stats([]) == ()

    def test_all_match_gives_empty_table(self):
        assert confusion_stats([align("abc", "abc")]) == ()

    def test_single_space_insertion(self):
        table = confusion_stats([align("ab", "a b")])
        assert table == (ConfusionEntry("", " ", 1),)

    @given(st.text(alphabet="ab ", max_size=16), st.text(alphabet="ab ", max_size=16))
    def test_counts_conserve_distance(self, gt, pred):
        result = align(gt, pred)
        table = confusion_stats([result])
        assert sum(e.count for e in table) == result.distance


# Tie-heavy alphabets, so runs of insertions and deletions are common.
tie_pairs = st.lists(
    st.tuples(st.text(alphabet="ab ", max_size=14), st.text(alphabet="ab ", max_size=14))
    | st.tuples(st.text(alphabet="aab", max_size=14), st.text(alphabet="aab", max_size=14)),
    max_size=8,
)

SYLLABLES = ("ch", "ſt", "en", "er", "ung", "ei", "lich", "ü", "ß", "zu", "de", "ver")
ALPHABET = "abcdefghilmnorstuvwzäöüßſ,.-'\""


def eval_corpus_pairs(rng: random.Random, rates: tuple[float, float, float, float]):
    """(ground truth, prediction) pairs in the manner of the benchmark's eval
    corpus: syllable words on 30-90 character lines, and per-character
    deletion, substitution, insertion and space-insertion noise."""
    dele, sub, ins, space = rates
    pairs = []
    for length in range(30, 90):
        for _ in range(4):
            words = []
            while sum(len(w) + 1 for w in words) <= length:
                words.append("".join(rng.choice(SYLLABLES) for _ in range(rng.randint(1, 4))))
            gt = " ".join(words)[:length].rstrip(" ")
            pred = []
            for ch in gt:
                roll = rng.random()
                if roll < dele:
                    pass
                elif roll < dele + sub:
                    pred.append(rng.choice(ALPHABET.replace(ch, "")))
                else:
                    pred.append(ch)
                if rng.random() < ins:
                    pred.append(rng.choice(ALPHABET))
                if rng.random() < space:
                    pred.append(" ")
            pairs.append((gt, "".join(pred)))
    return pairs


class TestConfusionMatchesReference:
    """confusion_stats reads only edits; it must give the table that walking
    every op gives, in both modes."""

    @pytest.mark.parametrize("merge_runs", [False, True])
    @given(pairs=tie_pairs)
    def test_tie_heavy_scripts(self, merge_runs, pairs):
        results = [align(gt, pred) for gt, pred in pairs]
        assert confusion_stats(results, merge_runs) == reference_confusion_stats(
            results, merge_runs
        )

    @pytest.mark.parametrize("merge_runs", [False, True])
    def test_eval_corpus(self, merge_runs):
        rng = random.Random(20263)
        engines = {
            "clean": (0.001, 0.004, 0.001, 0.001),
            "noisy": (0.004, 0.018, 0.004, 0.006),
            "bursty": (0.05, 0.05, 0.08, 0.03),  # long insertion and deletion runs
        }
        for rates in engines.values():
            results = [align(gt, pred) for gt, pred in eval_corpus_pairs(rng, rates)]
            table = confusion_stats(results, merge_runs)
            assert table == reference_confusion_stats(results, merge_runs)
            assert sum(e.count for e in table) <= sum(r.distance for r in results)

    def test_deletion_then_insertion_stay_apart(self):
        # no optimal script holds this pair (one substitution is cheaper),
        # but a run must not change kind at the position that would extend it
        result = AlignmentResult("a", "b", ((0, 0, "a", ""), (1, 0, "", "b")))
        assert (result.ops, result.distance, result.cer) == ((delete("a"), insert("b")), 2, 2.0)
        merged = confusion_stats([result], merge_runs=True)
        assert merged == (ConfusionEntry("", "b", 1), ConfusionEntry("a", "", 1))
        assert merged == reference_confusion_stats([result], merge_runs=True)

    def test_runs_do_not_cross_lines(self):
        # the first line ends in a deletion at (2, 3), and the second line's
        # deletion sits at (3, 3), where the run's next deletion would be
        results = [align("aba", "bab"), align("abcd", "abc")]
        assert [r.edits[-1][:2] for r in results] == [(2, 3), (3, 3)]
        merged = confusion_stats(results, merge_runs=True)
        assert merged == reference_confusion_stats(results, merge_runs=True)
        assert ConfusionEntry("d", "", 1) in merged


class TestTopKShare:
    def test_half(self):
        table = [ConfusionEntry("a", "b", 5), ConfusionEntry("c", "d", 3), ConfusionEntry("e", "f", 2)]
        table += [ConfusionEntry(str(i), "x", 1) for i in range(10)]
        assert top_k_error_share(table, 3) == (1, 2)

    def test_k_larger_than_table(self):
        table = [ConfusionEntry("a", "b", 2)]
        assert top_k_error_share(table, 5) == (1, 1)

    def test_exactness(self):
        table = [ConfusionEntry("a", "b", 1), ConfusionEntry("c", "d", 2)]
        assert top_k_error_share(table, 1) == (2, 3)

    def test_empty_table(self):
        assert top_k_error_share([], 3) == (0, 1)

    def test_k_below_one(self):
        with pytest.raises(ValueError):
            top_k_error_share([ConfusionEntry("a", "b", 1)], 0)

    @given(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=12))
    def test_monotone_in_k(self, counts):
        table = [ConfusionEntry(f"g{i}", "p", c) for i, c in enumerate(counts)]
        pairs = [top_k_error_share(table, k) for k in range(1, len(table) + 2)]
        assert all(math.gcd(*pair) == 1 for pair in pairs)
        shares = [Fraction(*pair) for pair in pairs]
        assert shares == sorted(shares)
        assert pairs[-1] == (1, 1)


class TestWhitespaceClasses:
    def test_buckets(self):
        table = [
            ConfusionEntry("", " ", 4),
            ConfusionEntry(" ", "", 2),
            ConfusionEntry("a", "o", 1),
        ]
        summary = classify_whitespace_errors(table)
        assert summary == {"space_insertions": 4, "space_deletions": 2, "other": 1}
        assert sum(summary.values()) == 7

    def test_space_substitution_is_other(self):
        table = [ConfusionEntry(" ", "-", 3)]
        summary = classify_whitespace_errors(table)
        assert summary == {"space_insertions": 0, "space_deletions": 0, "other": 3}

    def test_multichar_space_runs(self):
        # merged runs of pure spaces still count as space errors
        table = [ConfusionEntry("  ", "", 1), ConfusionEntry("", "  ", 2)]
        summary = classify_whitespace_errors(table)
        assert summary["space_deletions"] == 1
        assert summary["space_insertions"] == 2

    def test_empty_table(self):
        summary = classify_whitespace_errors([])
        assert summary == {"space_insertions": 0, "space_deletions": 0, "other": 0}
        assert sum(summary.values()) == 0


class TestCerCell:
    def test_addition(self):
        a = cell(1, 10)
        b = cell(3, 10)
        total = a + b
        assert total.distance == 4
        assert total.gt_chars == 20
        assert total.micro_cer == pytest.approx(0.2)

    def test_from_results(self):
        c = CerCell.from_results([align("ab", "ab"), align("cd", "xd")])
        assert c.lines == 2
        assert c.distance == 1
        assert c.gt_chars == 4
        assert c.macro_cer == pytest.approx(0.25)

    def test_percent_formatting(self):
        c = CerCell(lines=1, gt_chars=1000000, distance=4721, macro_lines=1, cer_sum=0.004721)
        assert c.micro_pct == "0.47"
        assert c.macro_pct == "0.47"

    @pytest.mark.parametrize(
        "pairs, micro, macro",
        [
            ([("aaaaaaaaaa", "baaaaaaaaa"), ("cccccccccc", "cccccccccc")], 0.05, 0.05),
            # a short line all wrong and a long clean one: macro follows the
            # short line, micro the long one
            ([("a", "b"), ("c" * 99, "c" * 99)], 0.01, 0.5),
            # the 2 insertions count towards micro over 4 gt chars; macro
            # averages the non-empty line only
            ([("", "xy"), ("aaaa", "aaaa")], 0.5, 0.0),
        ],
        ids=["balanced", "skewed-short-line", "empty-gt"],
    )
    def test_micro_vs_macro(self, pairs, micro, macro):
        c = CerCell.from_results([align(gt, pred) for gt, pred in pairs])
        assert c.micro_cer == pytest.approx(micro)
        assert c.macro_cer == pytest.approx(macro)

    def test_empty_gt_line_counts_micro_not_macro(self):
        c = CerCell.from_results([align("", "xy")])
        assert c.distance == 2
        assert c.macro_lines == 0


class TestCorpusOf:
    def test_prefix(self):
        assert corpus_of("N-1781") == "N"
        assert corpus_of("OCR-TS") == "OCR"

    def test_no_dash(self):
        assert corpus_of("Novels") == "Novels"


class TestAggregates:
    def engines(self):
        return ["e1"]

    def test_single_corpus_no_nod(self):
        datasets = ["N-1781", "N-1803"]
        cells = {ds: {"e1": cell(1, 100)} for ds in datasets}
        rows = compute_aggregates(datasets, self.engines(), cells)
        assert [name for name, _ in rows] == ["N-all", "All"]

    def test_multi_corpus_with_dictionary(self):
        datasets = ["N-1781", "N-1803", "O-1800", "O-1810", "D-1820", "D-1830", "S-1850", "S-1860"]
        cells = {ds: {"e1": cell(1, 100)} for ds in datasets}
        rows = compute_aggregates(datasets, self.engines(), cells)
        names = [name for name, _ in rows]
        assert names == ["N-all", "O-all", "D-all", "S-all", "NOD", "All"]
        nod = dict(rows)["NOD"]["e1"]
        assert nod.gt_chars == 600  # S datasets excluded

    def test_no_nod_without_dictionary_corpus(self):
        datasets = ["N-1781", "N-1803", "O-1800", "O-1810"]
        cells = {ds: {"e1": cell(1, 100)} for ds in datasets}
        names = [n for n, _ in compute_aggregates(datasets, self.engines(), cells)]
        assert names == ["N-all", "O-all", "All"]

    def test_singleton_corpus_gets_no_corpus_row(self):
        datasets = ["N-1781", "N-1803", "S-1850"]
        cells = {ds: {"e1": cell(1, 100)} for ds in datasets}
        names = [n for n, _ in compute_aggregates(datasets, self.engines(), cells)]
        assert names == ["N-all", "NOD", "All"]

    def test_custom_dictionary_corpus(self):
        datasets = ["N-1781", "Q-1850"]
        cells = {ds: {"e1": cell(1, 100)} for ds in datasets}
        names = [n for n, _ in compute_aggregates(datasets, self.engines(), cells, dictionary_corpus="Q")]
        assert names == ["NOD", "All"]


def small_report(**kwargs) -> EvaluationReport:
    datasets = ["N-1781", "N-1803"]
    engines = ["abbyy", "tess"]
    cells = {
        "N-1781": {"abbyy": cell(5, 100), "tess": cell(10, 100)},
        "N-1803": {"abbyy": cell(2, 100), "tess": cell(1, 100)},
    }
    confusion = {
        "abbyy": [ConfusionEntry("u", "n", 4), ConfusionEntry(" ", "", 3)],
        "tess": [ConfusionEntry("", " ", 11)],
    }
    defaults = dict(
        datasets=datasets,
        engines=engines,
        cells=cells,
        confusion=confusion,
        metadata={"seed": 0, "tool": "fraktur-bench"},
    )
    defaults.update(kwargs)
    return build_report(**defaults)


NOT_SCALAR = "not a string, number, boolean or null"


class TestReportRoundTrip:
    def test_json_round_trip(self):
        report = small_report()
        data = report_to_json(report)
        back = report_from_json(data)
        assert back.datasets == report.datasets
        assert back.engines == report.engines
        assert back.confusion == report.confusion
        assert back.top_share == report.top_share
        assert report_to_json(back) == data

    def test_derived_members_are_recomputed(self):
        report = small_report(k=1)
        payload = json.loads(report_to_json(report))
        payload["aggregates"] = []
        payload["whitespace"] = {}
        for entry in payload["top_share"].values():
            entry.update(numerator=0, denominator=1, value=0.0)
        assert report_to_json(report_from_json(json.dumps(payload))) == report_to_json(report)

    def test_top_share_entries_disagreeing_on_k_rejected(self):
        payload = json.loads(report_to_json(small_report()))
        payload["top_share"]["tess"]["k"] = 5
        with pytest.raises(ReportError, match="disagree on k"):
            report_from_json(json.dumps(payload))

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("confusion", "tess", 0, "count"), 1.9, "confusion 'tess' count is 1.9, not an integer >= 1"),
            (("confusion", "tess", 0, "count"), -4, "confusion 'tess' count is -4, not an integer >= 1"),
            (("confusion", "tess", 0, "count"), True, "confusion 'tess' count is True, not an integer >= 1"),
            (("top_share", "abbyy", "k"), "3", "top_share 'abbyy' k is '3', not an integer >= 1"),
            (("top_share", "abbyy", "k"), 0, "top_share 'abbyy' k is 0, not an integer >= 1"),
            (("cells", "N-1803", "tess", "cer_sum"), "0.5",
             "cell 'N-1803'/'tess': cer_sum is '0.5', not a number"),
            (("cells", "N-1803", "tess", "cer_sum"), True,
             "cell 'N-1803'/'tess': cer_sum is True, not a number"),
        ],
        ids=["count-float", "count-negative", "count-bool", "k-string", "k-zero",
             "cer-sum-string", "cer-sum-bool"],
    )
    def test_counts_and_cer_sums_are_not_coerced(self, path, value, message):
        payload = json.loads(report_to_json(small_report()))
        member = payload
        for key in path[:-1]:
            member = member[key]
        member[path[-1]] = value
        with pytest.raises(ReportError) as err:
            report_from_json(json.dumps(payload))
        assert str(err.value) == f"malformed report: {message}"

    def test_cer_sum_of_a_cell_without_eligible_lines_reemits_unchanged(self):
        # an empty-ground-truth line is not macro-eligible: the cell's
        # cer_sum is the empty sum, the int 0
        cells = {"N-1781": {"e1": CerCell.from_results([align("", "ab")])}}
        data = report_to_json(build_report(["N-1781"], ["e1"], cells))
        assert json.loads(data)["cells"]["N-1781"]["e1"]["cer_sum"] == 0
        assert report_to_json(report_from_json(data)) == data

    def test_dictionary_corpus_is_recorded(self):
        # built without metadata: the NOD row leaves out O, and so must the
        # footnote and a report read back
        datasets = ["N-1781", "O-1800", "S-1850"]
        cells = {ds: {"e1": cell(n, 100)} for ds, n in zip(datasets, (1, 2, 4))}
        report = build_report(datasets, ["e1"], cells, dictionary_corpus="O")
        assert report.metadata == {"dictionary_corpus": "O"}
        assert dict(report.aggregates)["NOD"]["e1"].distance == 5
        assert "outside the dictionary corpus (O)." in emit_report(report, "markdown").decode()
        back = report_from_json(report_to_json(report))
        for fmt in ("json", "csv", "markdown"):
            assert emit_report(back, fmt) == emit_report(report, fmt)

    def test_json_deterministic(self):
        assert report_to_json(small_report()) == report_to_json(small_report())

    def test_schema_version_checked(self):
        payload = json.loads(report_to_json(small_report()))
        payload["schema_version"] = 99
        with pytest.raises(ReportError, match="schema"):
            report_from_json(json.dumps(payload))

    def test_missing_cell_rejected(self):
        with pytest.raises(ReportError, match="missing cell"):
            build_report(
                datasets=["N-1781"],
                engines=["e1"],
                cells={"N-1781": {}},
            )

    @pytest.mark.parametrize(
        "metadata, message",
        [
            ({"flags": {"a": 1}}, f"metadata 'flags' is a JSON object, {NOT_SCALAR}"),
            ({"flags": [1]}, f"metadata 'flags' is a JSON list, {NOT_SCALAR}"),
            ({"flags": (1,)}, f"metadata 'flags' is {NOT_SCALAR}"),
            ({"flags": float("nan")}, "metadata 'flags' is not a finite number"),
            ({"flags": float("-inf")}, "metadata 'flags' is not a finite number"),
            ({1: "x"}, "metadata key is 1, not a string"),
        ],
        ids=["object", "list", "tuple", "nan", "infinity", "int-key"],
    )
    def test_metadata_the_reader_refuses_is_refused(self, metadata, message):
        # report_from_json refuses each of these (JSON keys are strings),
        # and strict JSON has no NaN or Infinity, so no report may hold one
        with pytest.raises(ReportError) as err:
            small_report(metadata={"seed": 0, **metadata})
        assert str(err.value) == message


class TestEmitters:
    def test_csv_header_and_rows(self):
        data = emit_report(small_report(), "csv").decode("utf-8")
        lines = data.split("\n")
        assert lines[0] == "dataset,engine,micro_cer,macro_cer,lines,gt_chars,distance"
        assert lines[1].startswith("N-1781,abbyy,5.00,5.00,")
        # aggregate rows follow the dataset rows
        assert any(row.startswith("N-all,abbyy,3.50,") for row in lines)

    def test_markdown_has_table_and_footer(self):
        text = emit_report(small_report(), "markdown").decode("utf-8")
        assert "| Dataset |" in text
        assert "N-all" in text and "All" in text
        assert "micro" in text and "macro" in text

    def test_markdown_escapes_row_names(self):
        # an unescaped | in a dataset or aggregate row name would split its
        # cell in two; a backslash is escaped so that it cannot escape a |
        datasets = ["a|b-1", "a|b-2", "c\\d"]
        cells = {ds: {"e": cell(1, 3)} for ds in datasets}
        text = emit_report(build_report(datasets, ["e"], cells), "markdown").decode("utf-8")
        assert text.split("\n")[2:8] == [
            "| a\\|b-1 | 33.33 | 33.33 |",
            "| a\\|b-2 | 33.33 | 33.33 |",
            "| c\\\\d | 33.33 | 33.33 |",
            "| a\\|b-all | 33.33 | 33.33 |",
            "| All | 33.33 | 33.33 |",
            "",
        ]

    def test_json_format(self):
        data = emit_report(small_report(), "json")
        assert json.loads(data)["engines"] == ["abbyy", "tess"]

    def test_unknown_format(self):
        with pytest.raises(ReportError):
            emit_report(small_report(), "yaml")

    def test_empty_report_rejected(self):
        report = build_report(datasets=[], engines=[], cells={})
        with pytest.raises(ReportError, match="nothing"):
            emit_report(report, "json")

    def test_errors_report_csv(self):
        data = emit_errors_report(small_report(), "csv").decode("utf-8")
        lines = data.split("\n")
        assert lines[0] == "engine,gt_seq,pred_seq,count"
        assert "abbyy,u,n,4" in lines

    def test_errors_report_markdown_renders_space_and_empty(self):
        text = emit_errors_report(small_report(), "markdown").decode("utf-8")
        assert "␣" in text  # visible space
        assert "ε" in text  # epsilon for the empty side

    def test_errors_report_json_subset(self):
        payload = json.loads(emit_errors_report(small_report(), "json"))
        assert set(payload) >= {"engines", "confusion", "whitespace", "top_share"}
        assert payload["confusion"]["abbyy"][0] == {"gt": "u", "pred": "n", "count": 4}
