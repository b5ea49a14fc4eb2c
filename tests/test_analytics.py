from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fraktur_bench.align import AlignmentResult, align
from fraktur_bench.analytics import (
    CerCell,
    ConfusionEntry,
    EvaluationReport,
    WhitespaceSummary,
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


class TestTopKShare:
    def test_half(self):
        table = [ConfusionEntry("a", "b", 5), ConfusionEntry("c", "d", 3), ConfusionEntry("e", "f", 2)]
        table += [ConfusionEntry(str(i), "x", 1) for i in range(10)]
        assert top_k_error_share(table, 3) == Fraction(1, 2)

    def test_k_larger_than_table(self):
        table = [ConfusionEntry("a", "b", 2)]
        assert top_k_error_share(table, 5) == Fraction(1)

    def test_exactness(self):
        table = [ConfusionEntry("a", "b", 1), ConfusionEntry("c", "d", 2)]
        assert top_k_error_share(table, 1) == Fraction(2, 3)

    def test_empty_table(self):
        assert top_k_error_share([], 3) == Fraction(0)

    def test_k_below_one(self):
        with pytest.raises(ValueError):
            top_k_error_share([ConfusionEntry("a", "b", 1)], 0)

    @given(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=12))
    def test_monotone_in_k(self, counts):
        table = [ConfusionEntry(f"g{i}", "p", c) for i, c in enumerate(counts)]
        shares = [top_k_error_share(table, k) for k in range(1, len(table) + 2)]
        assert shares == sorted(shares)
        assert shares[-1] == Fraction(1)


class TestWhitespaceClasses:
    def test_buckets(self):
        table = [
            ConfusionEntry("", " ", 4),
            ConfusionEntry(" ", "", 2),
            ConfusionEntry("a", "o", 1),
        ]
        summary = classify_whitespace_errors(table)
        assert summary == WhitespaceSummary(4, 2, 1)
        assert summary.total == 7

    def test_space_substitution_is_other(self):
        table = [ConfusionEntry(" ", "-", 3)]
        summary = classify_whitespace_errors(table)
        assert summary == WhitespaceSummary(0, 0, 3)

    def test_multichar_space_runs(self):
        # merged runs of pure spaces still count as space errors
        table = [ConfusionEntry("  ", "", 1), ConfusionEntry("", "  ", 2)]
        summary = classify_whitespace_errors(table)
        assert summary.space_deletions == 1
        assert summary.space_insertions == 2

    def test_empty_table(self):
        summary = classify_whitespace_errors([])
        assert summary == WhitespaceSummary(0, 0, 0)
        assert summary.total == 0


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
