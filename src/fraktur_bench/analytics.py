"""Error analytics and report emission.

Aggregates edit scripts into confusion statistics (what was misread as
what), classifies whitespace errors (merged vs. splitted words are the
dominant failure mode on historical prints), and renders the evaluation
matrix as CSV, Markdown or JSON.

Report layout: one row per dataset in the order given, then aggregate
rows. A ``<corpus>-all`` row is emitted for every corpus with at least two
datasets, in corpus first-appearance order; a ``NOD`` row (all datasets
outside the dictionary corpus) follows whenever a dictionary corpus is
present; ``All`` closes the table. CER cells are printed as percentages
with two decimals. Emission is deterministic byte for byte.
"""

from __future__ import annotations

import io
import math
from collections import Counter, namedtuple
from collections.abc import Iterable, Iterator, Mapping, Sequence

from .align import AlignmentResult, Edit
from .errors import ReportError
from .jsonout import INTEGER, LIST, OBJECT, STRING, STRINGS, checked, dump_json, load_json, utf8

SCHEMA_VERSION = 1

# Corpus id whose datasets are excluded from the NOD aggregate by default.
DICTIONARY_CORPUS = "S"
# Number of most frequent confusion classes in the top-k error share by default.
DEFAULT_TOP_K = 3


class ConfusionEntry(namedtuple("ConfusionEntry", "gt_seq pred_seq count")):
    """One confusion class: gt_seq was read as pred_seq, count times.

    An empty gt_seq encodes insertion, an empty pred_seq deletion; never both.
    """

    __slots__ = ()


def _merged_runs(edits: Sequence[Edit]) -> Iterator[tuple[str, str]]:
    """The (gt_seq, pred_seq) classes of one line's edits, each maximal run
    of adjacent deletions, and separately of insertions, as one class."""
    run_gt = run_pred = ""  # the run so far; one side stays empty
    run_next = None  # where the edit that extends the run sits, and its sides
    for gt_pos, pred_pos, g, p in edits:
        if (run_gt or run_pred) and (gt_pos, pred_pos, bool(g), bool(p)) != run_next:
            yield run_gt, run_pred
            run_gt = run_pred = ""
        if g and p:  # a substitution
            yield g, p
        else:
            run_gt += g
            run_pred += p
            run_next = (gt_pos + len(g), pred_pos + len(p), bool(g), bool(p))
    if run_gt or run_pred:
        yield run_gt, run_pred


def confusion_stats(
    results: Iterable[AlignmentResult], merge_runs: bool = False
) -> tuple[ConfusionEntry, ...]:
    """Aggregate the edits of alignment results into a ranked confusion table.

    Only each result's edits are read, never its match ops. Default
    granularity is one edit op per entry. With merge_runs, maximal runs of
    adjacent insertions (and, separately, deletions) inside a line collapse
    into one multi-character entry; substitutions stay single ops. Two
    consecutive edits of a line are adjacent when no match lies between
    them: for deletions the gt position goes up by one and the pred
    position stays the same, for insertions the other way round.
    Ranking: count descending, ties by (gt_seq, pred_seq).
    """
    counts: Counter[tuple[str, str]] = Counter()
    for result in results:
        if not result.edits:
            continue
        if merge_runs:
            counts.update(_merged_runs(result.edits))
        else:
            counts.update((g, p) for _, _, g, p in result.edits)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))
    return tuple(ConfusionEntry(g, p, n) for (g, p), n in ranked)


def top_k_error_share(confusion: Sequence[ConfusionEntry], k: int) -> tuple[int, int]:
    """Exact share of total error mass held by the k most frequent classes,
    as (numerator, denominator) in lowest terms; (0, 1) for no errors.

    Re-ranks by count so the result does not depend on input order.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    total = sum(e.count for e in confusion)
    if total == 0:
        return 0, 1
    ranked = sorted(confusion, key=lambda e: -e.count)
    top = sum(e.count for e in ranked[:k])
    divisor = math.gcd(top, total)
    return top // divisor, total // divisor


def classify_whitespace_errors(confusion: Sequence[ConfusionEntry]) -> dict[str, int]:
    """Partition error mass into pure space insertions, pure space deletions
    and everything else, as the counts space_insertions, space_deletions
    and other. A substitution touching a space is 'other'."""
    ins = dele = other = 0
    for e in confusion:
        if e.gt_seq == "" and e.pred_seq and set(e.pred_seq) == {" "}:
            ins += e.count
        elif e.pred_seq == "" and e.gt_seq and set(e.gt_seq) == {" "}:
            dele += e.count
        else:
            other += e.count
    return {"space_insertions": ins, "space_deletions": dele, "other": other}


class CerCell(namedtuple("CerCell", "lines gt_chars distance macro_lines cer_sum")):
    """Additive CER components for one (dataset, engine) cell: four integer
    counts and the float cer_sum.

    cer_sum and macro_lines carry the per-line CER mass of macro-eligible
    lines so that macro averages stay exact under aggregation.
    """

    __slots__ = ()

    @property
    def micro_cer(self) -> float:
        return self.distance / self.gt_chars if self.gt_chars else float(self.distance)

    @property
    def macro_cer(self) -> float:
        return self.cer_sum / self.macro_lines if self.macro_lines else 0.0

    @property
    def micro_pct(self) -> str:
        return f"{self.micro_cer * 100:.2f}"

    @property
    def macro_pct(self) -> str:
        return f"{self.macro_cer * 100:.2f}"

    def __add__(self, other: "CerCell") -> "CerCell":
        return CerCell(
            self.lines + other.lines,
            self.gt_chars + other.gt_chars,
            self.distance + other.distance,
            self.macro_lines + other.macro_lines,
            self.cer_sum + other.cer_sum,
        )

    @classmethod
    def zero(cls) -> "CerCell":
        return cls(0, 0, 0, 0, 0.0)

    @classmethod
    def from_results(cls, results: Sequence[AlignmentResult]) -> "CerCell":
        eligible = [r.cer for r in results if r.gt_len > 0]
        return cls(
            lines=len(results),
            gt_chars=sum(r.gt_len for r in results),
            distance=sum(r.distance for r in results),
            macro_lines=len(eligible),
            cer_sum=sum(eligible),
        )


def corpus_of(dataset_id: str) -> str:
    """Corpus id of a dataset: the prefix before the first dash."""
    return dataset_id.split("-", 1)[0] if "-" in dataset_id else dataset_id


EvaluationReport = namedtuple(
    "EvaluationReport",
    "engines datasets cells aggregates confusion whitespace k top_share metadata",
)
EvaluationReport.__doc__ = """The full evaluation matrix plus per-engine error analytics; each
engine's top-k share is taken over the same k.

engines and datasets are tuples of ids. cells maps dataset, then engine,
to a CerCell; aggregates is a tuple of (row name, {engine: CerCell}).
confusion maps an engine to its tuple of ConfusionEntry, whitespace to
its {bucket: count} dict and top_share to its top-k share, a
(numerator, denominator) pair of ints in lowest terms. metadata maps
names to JSON values."""


def compute_aggregates(
    datasets: Sequence[str],
    engines: Sequence[str],
    cells: Mapping[str, Mapping[str, CerCell]],
    dictionary_corpus: str = DICTIONARY_CORPUS,
) -> tuple[tuple[str, dict[str, CerCell]], ...]:
    members: dict[str, list[str]] = {}  # corpus id -> its datasets, in first-appearance order
    for ds in datasets:
        members.setdefault(corpus_of(ds), []).append(ds)

    def summed(subset: Sequence[str]) -> dict[str, CerCell]:
        return {eng: sum((cells[ds][eng] for ds in subset), CerCell.zero()) for eng in engines}

    rows = [(f"{c}-all", summed(subset)) for c, subset in members.items() if len(subset) >= 2]
    if dictionary_corpus in members and len(members) > 1:
        nod = [ds for ds in datasets if corpus_of(ds) != dictionary_corpus]
        rows.append(("NOD", summed(nod)))
    rows.append(("All", summed(list(datasets))))
    return tuple(rows)


def build_report(
    datasets: Sequence[str],
    engines: Sequence[str],
    cells: Mapping[str, Mapping[str, CerCell]],
    confusion: Mapping[str, Sequence[ConfusionEntry]] | None = None,
    k: int = DEFAULT_TOP_K,
    metadata: Mapping[str, object] | None = None,
    dictionary_corpus: str = DICTIONARY_CORPUS,
) -> EvaluationReport:
    """Assemble a report; aggregates, whitespace buckets and top-k shares
    are derived here so every emitter sees the same numbers. The
    dictionary corpus the aggregates were built with is recorded in the
    metadata, over any value given there. Each metadata value must be one
    that report_from_json reads back."""
    for ds in datasets:
        for eng in engines:
            if eng not in cells.get(ds, {}):
                raise ReportError(f"missing cell for dataset {ds!r}, engine {eng!r}")
    for key, value in (metadata or {}).items():
        checked(key, STRING, "metadata key", ReportError)
        checked(value, _METADATA_VALUE, f"metadata {key!r}", ReportError)
    confusion = confusion or {}
    conf_frozen = {eng: tuple(entries) for eng, entries in confusion.items()}
    return EvaluationReport(
        engines=tuple(engines),
        datasets=tuple(datasets),
        cells={ds: dict(cells[ds]) for ds in datasets},
        aggregates=compute_aggregates(datasets, engines, cells, dictionary_corpus),
        confusion=conf_frozen,
        whitespace={eng: classify_whitespace_errors(entries) for eng, entries in conf_frozen.items()},
        k=k,
        top_share={eng: top_k_error_share(entries, k) for eng, entries in conf_frozen.items()},
        metadata={**(metadata or {}), "dictionary_corpus": dictionary_corpus},
    )


def _cell_payload(cell: CerCell) -> dict[str, object]:
    derived = ("micro_cer", "macro_cer", "micro_pct", "macro_pct")
    return {**cell._asdict(), **{name: getattr(cell, name) for name in derived}}


# The report's own kinds. CER divides cell counts as floats, exact below
# 2**53. A cer_sum is an int where no line was macro-eligible (the empty
# sum), else a float; it is kept as it is, to be emitted again as it was.
_COUNT = (
    *INTEGER,
    (lambda v: v >= 0, "{what} is {value}, below 0"),
    (lambda v: v < 2**53, "{what} is {value}, not below 2**53"),
)
_CER_SUM = (
    (lambda v: type(v) in (int, float), "{what} is {value!r}, not a number"),
    (lambda v: v >= 0 and math.isfinite(v), "{what} is {value!r}, not a finite number >= 0"),
)
_CELL = (_COUNT, _COUNT, _COUNT, _COUNT, _CER_SUM)  # the kinds of CerCell's fields
_POSITIVE = ((lambda v: type(v) is int and v >= 1, "{what} is {value!r}, not an integer >= 1"),)
# A metadata value is written back as it was read: a scalar, so that no
# report nests deeper than the program's own layout, and a finite one.
_NOT_SCALAR = "not a string, number, boolean or null"
_METADATA_VALUE = (
    (lambda v: type(v) is not dict, "{what} is a JSON object, " + _NOT_SCALAR),
    (lambda v: type(v) is not list, "{what} is a JSON list, " + _NOT_SCALAR),
    # what json reads is one of the above or a scalar; a caller may pass more
    (lambda v: isinstance(v, (str, int, float, type(None))), "{what} is " + _NOT_SCALAR),
    (lambda v: not isinstance(v, float) or math.isfinite(v), "{what} is not a finite number"),
)


def _errors_payload(report: EvaluationReport) -> dict[str, object]:
    """The confusion, whitespace and top_share members shared by the full
    JSON report and the errors-only one."""
    return {
        "confusion": {
            eng: [{"gt": e.gt_seq, "pred": e.pred_seq, "count": e.count} for e in entries]
            for eng, entries in report.confusion.items()
        },
        "whitespace": dict(report.whitespace),
        "top_share": {
            eng: {"k": report.k, "numerator": top, "denominator": total, "value": top / total}
            for eng, (top, total) in report.top_share.items()
        },
    }


def report_to_json(report: EvaluationReport) -> bytes:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "metadata": dict(report.metadata),
        "engines": list(report.engines),
        "datasets": list(report.datasets),
        "cells": {
            ds: {eng: _cell_payload(report.cells[ds][eng]) for eng in report.engines}
            for ds in report.datasets
        },
        "aggregates": [
            {"name": name, "cells": {eng: _cell_payload(row[eng]) for eng in report.engines}}
            for name, row in report.aggregates
        ],
        **_errors_payload(report),
    }
    return dump_json(payload)


def report_from_json(data: bytes | str) -> EvaluationReport:
    """Read a JSON report back. Only the measured members are read: cells,
    confusion tables, metadata and the k of the top-k shares. Aggregates,
    whitespace buckets and top-k shares are derived again by build_report,
    with the dictionary corpus recorded in the metadata."""
    payload = load_json(data, "report", SCHEMA_VERSION, ReportError)
    try:
        for key in ("engines", "datasets"):
            names = checked(payload[key], STRINGS, key, ValueError)
            repeated = [n for n, count in Counter(names).items() if count > 1]
            if repeated:
                raise ValueError(f"{key} repeat {', '.join(map(repr, repeated))}")
        engines, datasets = payload["engines"], payload["datasets"]
        rows = checked(payload["cells"], OBJECT, "cells", ValueError)
        cells = {}
        for ds in datasets:
            row = checked(rows[ds], OBJECT, f"cells {ds!r}", ValueError)
            cells[ds] = {}
            for eng in engines:
                where = f"cell {ds!r}/{eng!r}"
                data = checked(row[eng], OBJECT, where, ValueError)
                cell = CerCell(*map(data.__getitem__, CerCell._fields))  # no member: checked first
                for name, value, kind in zip(CerCell._fields, cell, _CELL):
                    checked(value, kind, f"{where}: {name}", ValueError)
                # a macro line is a line; a line's CER is at most its distance
                for low, high in (("macro_lines", "lines"), ("cer_sum", "distance")):
                    if data[low] > data[high]:
                        raise ValueError(f"{where}: {low} {data[low]} exceeds {high} {data[high]}")
                cells[ds][eng] = cell
        confusion = {}
        tables = checked(payload.get("confusion", {}), OBJECT, "confusion", ValueError)
        for eng, entries in tables.items():
            where = f"confusion {eng!r}"
            if eng not in engines:
                raise ValueError(f"{where} is not in engines")
            table = []
            for i, e in enumerate(checked(entries, LIST, where, ValueError)):
                checked(e, OBJECT, f"{where} class at index {i}", ValueError)
                gt = checked(e["gt"], STRING, f"{where} gt", ValueError)
                pred = checked(e["pred"], STRING, f"{where} pred", ValueError)
                if not (gt or pred):
                    raise ValueError(f"{where} has a class with both sides empty")
                count = checked(e["count"], _POSITIVE, f"{where} count", ValueError)
                table.append(ConfusionEntry(gt, pred, count))
            classes = Counter(e[:2] for e in table)
            repeated = [f"{g!r} -> {p!r}" for (g, p), n in classes.items() if n > 1]
            if repeated:
                raise ValueError(f"{where} repeats {', '.join(repeated)}")
            confusion[eng] = tuple(table)
        shares = checked(payload["top_share"], OBJECT, "top_share", ValueError) if confusion else {}
        ks = set()
        for eng in confusion:
            share = checked(shares[eng], OBJECT, f"top_share {eng!r}", ValueError)
            ks.add(checked(share["k"], _POSITIVE, f"top_share {eng!r} k", ValueError))
        if len(ks) > 1:
            raise ValueError(f"top_share entries disagree on k: {sorted(ks)}")
        metadata = checked(payload.get("metadata", {}), OBJECT, "metadata", ValueError)
        for key, value in metadata.items():
            checked(value, _METADATA_VALUE, f"metadata {key!r}", ValueError)
        dictionary_corpus = metadata.get("dictionary_corpus", DICTIONARY_CORPUS)
        checked(dictionary_corpus, STRING, "metadata dictionary_corpus", ValueError)
        k = ks.pop() if ks else 1  # no confusion statistics: no share, any k
        return build_report(datasets, engines, cells, confusion, k, metadata, dictionary_corpus)
    except KeyError as exc:
        raise ReportError(f"malformed report: no member {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:  # ValueError: a bad member
        raise ReportError(f"malformed report: {exc}") from exc


def _all_rows(report: EvaluationReport):
    for ds in report.datasets:
        yield ds, report.cells[ds]
    for name, row in report.aggregates:
        yield name, row


def _report_to_csv(report: EvaluationReport) -> bytes:
    import csv  # here, not at set-up: only the csv format writes it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["dataset", "engine", "micro_cer", "macro_cer", "lines", "gt_chars", "distance"])
    for name, row in _all_rows(report):
        for eng in report.engines:
            cell = row[eng]
            writer.writerow(
                [name, eng, cell.micro_pct, cell.macro_pct, cell.lines, cell.gt_chars, cell.distance]
            )
    return utf8(buf.getvalue())


def _md_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace("|", "\\|")


def _report_to_markdown(report: EvaluationReport) -> bytes:
    out: list[str] = []
    header = ["Dataset"]
    for eng in report.engines:
        header.append(f"{_md_escape(eng)} micro")
        header.append(f"{_md_escape(eng)} macro")
    out.append("| " + " | ".join(header) + " |")
    out.append("|" + "---|" + ":--|" * (2 * len(report.engines)))
    for name, row in _all_rows(report):
        cells = [_md_escape(name)]
        for eng in report.engines:
            cells.append(row[eng].micro_pct)
            cells.append(row[eng].macro_pct)
        out.append("| " + " | ".join(cells) + " |")
    out.append("")
    out.append("CER cells are percentages with two decimals; micro weights characters, macro weights lines.")
    if any(name == "NOD" for name, _ in report.aggregates):
        out.append(
            f"NOD aggregates every dataset outside the dictionary corpus "
            f"({report.metadata['dictionary_corpus']})."
        )
    if report.top_share:
        out.append("")
        out.append("| Engine | top-k share | space ins | space del | other |")
        out.append("|---|:--|:--|:--|:--|")
        for eng in report.engines:
            if eng not in report.top_share:
                continue
            w = report.whitespace[eng]
            top, total = report.top_share[eng]
            out.append(
                f"| {_md_escape(eng)} | {top / total * 100:.2f}% (k={report.k}) "
                f"| {w['space_insertions']} | {w['space_deletions']} | {w['other']} |"
            )
    out.append("")
    return utf8("\n".join(out))


def emit_report(report: EvaluationReport, format: str) -> bytes:
    """Serialize a report. Deterministic: identical reports yield identical bytes."""
    if not report.datasets or not report.engines:
        raise ReportError("nothing to emit: report has no datasets or no engines")
    if format == "json":
        return report_to_json(report)
    if format == "csv":
        return _report_to_csv(report)
    if format == "markdown":
        return _report_to_markdown(report)
    raise ReportError(f"unknown report format {format!r} (expected csv, markdown or json)")


def emit_errors_report(report: EvaluationReport, format: str) -> bytes:
    """Serialize only the error-analytics side of a report."""
    if not report.confusion:
        raise ReportError("nothing to emit: report carries no confusion statistics")
    if format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "metadata": dict(report.metadata),
            "engines": list(report.engines),
            **_errors_payload(report),
        }
        return dump_json(payload)
    if format == "csv":
        import csv  # here, not at set-up: only the csv format writes it

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["engine", "gt_seq", "pred_seq", "count"])
        for eng in report.engines:
            for e in report.confusion.get(eng, ()):
                writer.writerow([eng, e.gt_seq, e.pred_seq, e.count])
        return utf8(buf.getvalue())
    if format == "markdown":
        out: list[str] = []
        for eng in report.engines:
            if eng not in report.confusion:
                continue
            entries = report.confusion[eng]
            w = report.whitespace[eng]
            top, total = report.top_share[eng]
            out.append(f"## {_md_escape(eng)}")
            out.append("")
            out.append(
                f"{sum(e.count for e in entries)} errors; top-{report.k} share "
                f"{top / total * 100:.2f}%; space insertions {w['space_insertions']}, "
                f"space deletions {w['space_deletions']}, other {w['other']}."
            )
            out.append("")
            out.append("| gt | pred | count |")
            out.append("|---|---|---:|")
            for e in entries:
                gt = _md_escape(e.gt_seq).replace(" ", "␣") or "ε"
                pred = _md_escape(e.pred_seq).replace(" ", "␣") or "ε"
                out.append(f"| {gt} | {pred} | {e.count} |")
            out.append("")
        return utf8("\n".join(out))
    raise ReportError(f"unknown report format {format!r} (expected csv, markdown or json)")
