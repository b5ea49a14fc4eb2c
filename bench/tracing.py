"""External spans around the program's layer boundaries.

The package binds its functions with ``from .x import y``, so a call from
``pipeline`` to ``align`` goes through the name ``align`` in the
``fraktur_bench.pipeline`` namespace. The tracer replaces such names in
the *calling* module with a wrapper that records a span, and puts the
originals back afterwards. Nothing under ``src/`` changes.

A span is (name, layer, start, end, parent). Its name is the binding it
went through (``pipeline.align``), its layer the module that defines the
function (``align``). Spans stay in memory; ``write_spans`` dumps them at
the end of a run. A layer's self time is the duration of its spans minus
the time their child spans cover, so the self times of all layers plus
the time outside every span add up to the wall time.

Modules are fetched with ``importlib.import_module``: the package
attribute ``fraktur_bench.align`` is the function, not the module.
Bindings that a later version of the program no longer has are skipped.
"""

from __future__ import annotations

import importlib
import inspect
from collections import defaultdict
from time import perf_counter
from typing import Callable

PACKAGE = "fraktur_bench"

LAYERS = ("cli", "pipeline", "normalize", "codec", "align", "analytics", "voting", "manifests")

# calling module -> names it imported from other layers (or defines itself
# and calls through its own namespace).
BINDINGS: dict[str, tuple[str, ...]] = {
    "cli": (
        "default_codec", "load_codec", "default_rules", "load_rules",
        "normalize_line", "read_text_file", "load_pred_tree", "eval_pipeline",
        "vote_line", "write_atomic", "emit_report", "emit_errors_report",
        "report_from_json", "codec_coverage_report", "scan_corpus",
        "refinement_sample", "build_schedule", "manifest_to_json",
        "manifest_from_json", "schedule_to_json", "verify_counts",
    ),
    "pipeline": (
        "load_gt_tree", "load_pred_tree", "read_text_file", "check_parity",
        "pair_lines", "normalize_line", "align", "confusion_stats", "build_report",
    ),
    "voting": ("align",),
    "manifests": ("refinement_sample",),
}


def _count_align(c, args, kwargs, result) -> None:
    gt, pred = args[0], args[1]
    c["align.calls"] += 1
    c["align.cells"] += (len(gt) + 1) * (len(pred) + 1)
    c["align.script_ops"] += len(result.ops)
    c["align.identical"] += gt == pred


def _count_normalize(c, args, kwargs, result) -> None:
    c["normalize.calls"] += 1
    c["normalize.changed"] += result.text != args[0].text


def _count_read(c, args, kwargs, result) -> None:
    c["pipeline.files_read"] += 1


def _count_write(c, args, kwargs, result) -> None:
    c["cli.writes"] += 1
    c["cli.write_bytes"] += len(args[1])


def _count_confusion(c, args, kwargs, result) -> None:
    c["analytics.confusion_ops"] += sum(len(r.ops) for r in args[0])


def _count_emit(c, args, kwargs, result) -> None:
    c["analytics.emit_bytes"] += len(result)


def _count_vote(c, args, kwargs, result) -> None:
    # The CLI votes with the default "longest" pivot: 2L+1 slots per line.
    c["voting.calls"] += 1
    c["voting.slots"] += 2 * max(len(o.text) for o in args[0]) + 1


def _count_scan(c, args, kwargs, result) -> None:
    c["manifests.scan_lines"] += sum(b.line_count for b in result)


COUNTERS: dict[str, Callable] = {
    "align": _count_align,
    "normalize_line": _count_normalize,
    "read_text_file": _count_read,
    "write_atomic": _count_write,
    "confusion_stats": _count_confusion,
    "emit_report": _count_emit,
    "emit_errors_report": _count_emit,
    "vote_line": _count_vote,
    "scan_corpus": _count_scan,
}

# Inclusive time of function groups; a span nested in another span of the
# same group is not counted twice.
GROUPS: dict[str, tuple[str, ...]] = {
    "pipeline.read_s": ("load_gt_tree", "load_pred_tree", "read_text_file"),
    "pipeline.pair_s": ("check_parity", "pair_lines"),
    "normalize.line_s": ("normalize_line",),
    "analytics.confusion_s": ("confusion_stats",),
    "analytics.report_s": ("build_report", "report_from_json"),
    "analytics.emit_s": ("emit_report", "emit_errors_report"),
    "cli.write_s": ("write_atomic",),
    "manifests.scan_s": ("scan_corpus",),
    "manifests.sample_s": ("refinement_sample", "build_schedule"),
    "manifests.json_s": ("manifest_to_json", "manifest_from_json", "schedule_to_json"),
    "manifests.verify_s": ("verify_counts",),
    "codec.load_s": ("default_codec", "default_rules", "load_codec", "load_rules"),
}
_GROUPS_OF: dict[str, frozenset[str]] = {
    attr: frozenset(g for g, members in GROUPS.items() if attr in members)
    for members in GROUPS.values()
    for attr in members
}


class Tracer:
    """Collects spans and boundary counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, layer: str, fn: Callable, count: Callable | None) -> Callable:
        spans, stack, counters = self.spans, self._stack, self.counters

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, layer, start, end, parent)
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return traced

    def call(self, name: str, layer: str, fn: Callable, *args):
        """Run fn(*args) as a span of its own (used for the root command)."""
        return self.wrap(name, layer, fn, None)(*args)

    def install(self) -> None:
        for caller, names in BINDINGS.items():
            module = importlib.import_module(f"{PACKAGE}.{caller}")
            for attr in names:
                fn = getattr(module, attr, None)
                if not inspect.isfunction(fn):
                    continue
                layer = fn.__module__.rpartition(".")[2]
                wrapped = self.wrap(f"{caller}.{attr}", layer, fn, COUNTERS.get(attr))
                self._undo.append((module, attr, fn))
                setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            module, attr, fn = self._undo.pop()
            setattr(module, attr, fn)


def summarize(spans: list[tuple], counters: dict[str, int], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.

    Self times of the layers plus trace.unattributed_s equal wall_s.
    """
    child_time = [0.0] * len(spans)
    in_group: list[frozenset[str]] = [frozenset()] * len(spans)
    out = empty_metrics()
    root_time = 0.0
    for idx, (name, layer, start, end, parent) in enumerate(spans):
        dur = end - start
        groups = _GROUPS_OF.get(name.rpartition(".")[2], frozenset())
        inherited = in_group[parent] if parent >= 0 else frozenset()
        for g in groups - inherited:
            out[g] += dur
        in_group[idx] = groups | inherited
        if parent >= 0:
            child_time[parent] += dur
        else:
            root_time += dur
    for idx, (name, layer, start, end, parent) in enumerate(spans):
        key = f"{layer}.self_s"
        out[key] = out.get(key, 0.0) + (end - start) - child_time[idx]
    out["trace.unattributed_s"] = wall_s - root_time
    out["trace.wall_s"] = wall_s
    out.update(counters)
    return out


def derive(m: dict[str, float]) -> dict[str, float]:
    """Add ratios and per-call figures to a metrics dict (in place)."""

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    m["align.us_per_call"] = ratio(m["align.self_s"], m["align.calls"], 1e6)
    m["align.ns_per_cell"] = ratio(m["align.self_s"], m["align.cells"], 1e9)
    m["align.identical_ratio"] = ratio(m.pop("align.identical"), m["align.calls"])
    m["normalize.us_per_line"] = ratio(m.pop("normalize.line_s"), m["normalize.calls"], 1e6)
    m["normalize.changed_ratio"] = ratio(m.pop("normalize.changed"), m["normalize.calls"])
    m["voting.us_per_line"] = ratio(m["voting.self_s"], m["voting.calls"], 1e6)
    return m


def empty_metrics() -> dict[str, float]:
    base = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    base.update({g: 0.0 for g in GROUPS})
    for key in (
        "align.calls", "align.cells", "align.script_ops", "align.identical",
        "normalize.calls", "normalize.changed", "pipeline.files_read",
        "cli.writes", "cli.write_bytes", "analytics.confusion_ops",
        "analytics.emit_bytes", "voting.calls", "voting.slots", "manifests.scan_lines",
    ):
        base[key] = 0
    return base


def write_spans(path, reps: list[list[tuple]]) -> None:
    """One tab-separated line per span: rep, id, parent, name, layer, start, end."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("rep\tid\tparent\tname\tlayer\tstart\tend\n")
        for rep, spans in enumerate(reps):
            for idx, (name, layer, start, end, parent) in enumerate(spans):
                handle.write(f"{rep}\t{idx}\t{parent}\t{name}\t{layer}\t{start:.9f}\t{end:.9f}\n")
