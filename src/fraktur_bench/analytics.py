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

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .align import AlignmentResult, Edit
from .errors import ReportError

SCHEMA_VERSION = 1

# Corpus id whose datasets are excluded from the NOD aggregate by default.
DICTIONARY_CORPUS = "S"
# Number of most frequent confusion classes in the top-k error share by default.
DEFAULT_TOP_K = 3


@dataclass(frozen=True, slots=True)
class ConfusionEntry:
    """One confusion class: gt_seq was read as pred_seq, count times.

    An empty gt_seq encodes insertion, an empty pred_seq deletion; never both.
    """

    gt_seq: str
    pred_seq: str
    count: int


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


def top_k_error_share(confusion: Sequence[ConfusionEntry], k: int) -> Fraction:
    """Exact fraction of total error mass held by the k most frequent classes.

    Re-ranks by count so the result does not depend on input order.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    total = sum(e.count for e in confusion)
    if total == 0:
        return Fraction(0)
    ranked = sorted(confusion, key=lambda e: -e.count)
    top = sum(e.count for e in ranked[:k])
    return Fraction(top, total)


@dataclass(frozen=True, slots=True)
class WhitespaceSummary:
    space_insertions: int
    space_deletions: int
    other: int

    @property
    def total(self) -> int:
        return self.space_insertions + self.space_deletions + self.other


def classify_whitespace_errors(confusion: Sequence[ConfusionEntry]) -> WhitespaceSummary:
    """Partition error mass into pure space insertions, pure space deletions
    and everything else. A substitution touching a space is 'other'."""
    ins = dele = other = 0
    for e in confusion:
        if e.gt_seq == "" and e.pred_seq and set(e.pred_seq) == {" "}:
            ins += e.count
        elif e.pred_seq == "" and e.gt_seq and set(e.gt_seq) == {" "}:
            dele += e.count
        else:
            other += e.count
    return WhitespaceSummary(ins, dele, other)


@dataclass(frozen=True)
class CerCell:
    """Additive CER components for one (dataset, engine) cell.

    cer_sum and macro_lines carry the per-line CER mass of macro-eligible
    lines so that macro averages stay exact under aggregation.
    """

    lines: int
    gt_chars: int
    distance: int
    macro_lines: int
    cer_sum: float

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


@dataclass(frozen=True, slots=True)
class TopShare:
    k: int
    share: Fraction


def corpus_of(dataset_id: str) -> str:
    """Corpus id of a dataset: the prefix before the first dash."""
    return dataset_id.split("-", 1)[0] if "-" in dataset_id else dataset_id


@dataclass(frozen=True)
class EvaluationReport:
    """The full evaluation matrix plus per-engine error analytics."""

    engines: tuple[str, ...]
    datasets: tuple[str, ...]
    cells: Mapping[str, Mapping[str, CerCell]]
    aggregates: tuple[tuple[str, Mapping[str, CerCell]], ...]
    confusion: Mapping[str, tuple[ConfusionEntry, ...]]
    whitespace: Mapping[str, WhitespaceSummary]
    top_share: Mapping[str, TopShare]
    metadata: Mapping[str, object]


def compute_aggregates(
    datasets: Sequence[str],
    engines: Sequence[str],
    cells: Mapping[str, Mapping[str, CerCell]],
    dictionary_corpus: str = DICTIONARY_CORPUS,
) -> tuple[tuple[str, dict[str, CerCell]], ...]:
    corpora: list[str] = []
    members: dict[str, list[str]] = {}
    for ds in datasets:
        c = corpus_of(ds)
        if c not in members:
            corpora.append(c)
            members[c] = []
        members[c].append(ds)

    def summed(subset: Sequence[str]) -> dict[str, CerCell]:
        out: dict[str, CerCell] = {}
        for eng in engines:
            total = CerCell.zero()
            for ds in subset:
                total = total + cells[ds][eng]
            out[eng] = total
        return out

    rows: list[tuple[str, dict[str, CerCell]]] = []
    for c in corpora:
        if len(members[c]) >= 2:
            rows.append((f"{c}-all", summed(members[c])))
    if dictionary_corpus in corpora and len(corpora) > 1:
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
    metadata, over any value given there."""
    for ds in datasets:
        for eng in engines:
            if eng not in cells.get(ds, {}):
                raise ReportError(f"missing cell for dataset {ds!r}, engine {eng!r}")
    confusion = confusion or {}
    conf_frozen = {eng: tuple(entries) for eng, entries in confusion.items()}
    return EvaluationReport(
        engines=tuple(engines),
        datasets=tuple(datasets),
        cells={ds: dict(cells[ds]) for ds in datasets},
        aggregates=compute_aggregates(datasets, engines, cells, dictionary_corpus),
        confusion=conf_frozen,
        whitespace={eng: classify_whitespace_errors(entries) for eng, entries in conf_frozen.items()},
        top_share={eng: TopShare(k, top_k_error_share(entries, k)) for eng, entries in conf_frozen.items()},
        metadata={**(metadata or {}), "dictionary_corpus": dictionary_corpus},
    )


def _cell_payload(cell: CerCell) -> dict[str, object]:
    return {
        "lines": cell.lines,
        "gt_chars": cell.gt_chars,
        "distance": cell.distance,
        "macro_lines": cell.macro_lines,
        "cer_sum": cell.cer_sum,
        "micro_cer": cell.micro_cer,
        "macro_cer": cell.macro_cer,
        "micro_pct": cell.micro_pct,
        "macro_pct": cell.macro_pct,
    }


_CELL_COUNTS = ("lines", "gt_chars", "distance", "macro_lines")


def _cell_from_payload(data: Mapping[str, object], ds: str, eng: str) -> CerCell:
    counts = [data[name] for name in _CELL_COUNTS]
    for name, value in zip(_CELL_COUNTS, counts):
        if type(value) is not int:
            raise ReportError(
                f"malformed report: cell {ds!r}/{eng!r}: {name} is {value!r}, not an integer"
            )
    # An int where no line was macro-eligible (the empty sum), else a float;
    # kept as it is so that it is emitted again as it was.
    cer_sum = data["cer_sum"]
    if type(cer_sum) not in (int, float):
        raise ReportError(
            f"malformed report: cell {ds!r}/{eng!r}: cer_sum is {cer_sum!r}, not a number"
        )
    return CerCell(*counts, cer_sum=cer_sum)


def _count_from_payload(value: object, member: str) -> int:
    if type(value) is not int or value < 1:
        raise ReportError(f"malformed report: {member} is {value!r}, not an integer >= 1")
    return value


def _names_from_payload(payload: Mapping[str, object], key: str) -> tuple[str, ...]:
    names = payload[key]
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ReportError(f"malformed report: {key} must be a list of strings")
    repeated = [n for n, count in Counter(names).items() if count > 1]
    if repeated:
        raise ReportError(f"malformed report: {key} repeat {', '.join(map(repr, repeated))}")
    return tuple(names)


def _errors_payload(report: EvaluationReport) -> dict[str, object]:
    """The confusion, whitespace and top_share members shared by the full
    JSON report and the errors-only one."""
    return {
        "confusion": {
            eng: [{"gt": e.gt_seq, "pred": e.pred_seq, "count": e.count} for e in entries]
            for eng, entries in report.confusion.items()
        },
        "whitespace": {
            eng: {
                "space_insertions": w.space_insertions,
                "space_deletions": w.space_deletions,
                "other": w.other,
            }
            for eng, w in report.whitespace.items()
        },
        "top_share": {
            eng: {
                "k": ts.k,
                "numerator": ts.share.numerator,
                "denominator": ts.share.denominator,
                "value": float(ts.share),
            }
            for eng, ts in report.top_share.items()
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
    return (json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n").encode("utf-8")


def report_from_json(data: bytes | str) -> EvaluationReport:
    """Read a JSON report back. Only the measured members are read: cells,
    confusion tables, metadata and the k of the top-k shares. Aggregates,
    whitespace buckets and top-k shares are derived again by build_report,
    with the dictionary corpus recorded in the metadata."""
    try:
        payload = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ReportError(f"report is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ReportError(f"report is not valid UTF-8: {exc}") from exc
    if not isinstance(payload, dict):
        raise ReportError("report is not a JSON object")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ReportError(f"unsupported report schema_version {version!r}")
    try:
        engines = _names_from_payload(payload, "engines")
        datasets = _names_from_payload(payload, "datasets")
        cells = {
            ds: {eng: _cell_from_payload(payload["cells"][ds][eng], ds, eng) for eng in engines}
            for ds in datasets
        }
        confusion = {
            eng: tuple(
                ConfusionEntry(
                    e["gt"], e["pred"], _count_from_payload(e["count"], f"confusion {eng!r} count")
                )
                for e in entries
            )
            for eng, entries in payload.get("confusion", {}).items()
        }
        ks = {
            _count_from_payload(payload["top_share"][eng]["k"], f"top_share {eng!r} k")
            for eng in confusion
        }
        if len(ks) > 1:
            raise ReportError(f"malformed report: top_share entries disagree on k: {sorted(ks)}")
        metadata = dict(payload.get("metadata", {}))
        return build_report(
            datasets,
            engines,
            cells,
            confusion=confusion,
            k=ks.pop() if ks else 1,  # no confusion statistics: no share, any k
            metadata=metadata,
            dictionary_corpus=metadata.get("dictionary_corpus", DICTIONARY_CORPUS),
        )
    except KeyError as exc:
        raise ReportError(f"malformed report: no member {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise ReportError(f"malformed report: {exc}") from exc


def _all_rows(report: EvaluationReport):
    for ds in report.datasets:
        yield ds, report.cells[ds]
    for name, row in report.aggregates:
        yield name, row


def _report_to_csv(report: EvaluationReport) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["dataset", "engine", "micro_cer", "macro_cer", "lines", "gt_chars", "distance"])
    for name, row in _all_rows(report):
        for eng in report.engines:
            cell = row[eng]
            writer.writerow(
                [name, eng, cell.micro_pct, cell.macro_pct, cell.lines, cell.gt_chars, cell.distance]
            )
    return buf.getvalue().encode("utf-8")


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
        cells = [name]
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
            ts = report.top_share[eng]
            w = report.whitespace[eng]
            out.append(
                f"| {_md_escape(eng)} | {float(ts.share) * 100:.2f}% (k={ts.k}) "
                f"| {w.space_insertions} | {w.space_deletions} | {w.other} |"
            )
    out.append("")
    return "\n".join(out).encode("utf-8")


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
        return (json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n").encode(
            "utf-8"
        )
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["engine", "gt_seq", "pred_seq", "count"])
        for eng in report.engines:
            for e in report.confusion.get(eng, ()):
                writer.writerow([eng, e.gt_seq, e.pred_seq, e.count])
        return buf.getvalue().encode("utf-8")
    if format == "markdown":
        out: list[str] = []
        for eng in report.engines:
            if eng not in report.confusion:
                continue
            entries = report.confusion[eng]
            w = report.whitespace[eng]
            ts = report.top_share[eng]
            out.append(f"## {_md_escape(eng)}")
            out.append("")
            out.append(
                f"{sum(e.count for e in entries)} errors; top-{ts.k} share "
                f"{float(ts.share) * 100:.2f}%; space insertions {w.space_insertions}, "
                f"space deletions {w.space_deletions}, other {w.other}."
            )
            out.append("")
            out.append("| gt | pred | count |")
            out.append("|---|---|---:|")
            for e in entries:
                gt = _md_escape(e.gt_seq).replace(" ", "␣") or "ε"
                pred = _md_escape(e.pred_seq).replace(" ", "␣") or "ε"
                out.append(f"| {gt} | {pred} | {e.count} |")
            out.append("")
        return "\n".join(out).encode("utf-8")
    raise ReportError(f"unknown report format {format!r} (expected csv, markdown or json)")
