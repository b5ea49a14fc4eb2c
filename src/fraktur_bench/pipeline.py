"""Directory-level evaluation pipeline.

Reads ground truth and per-engine predictions from line-pair trees, pushes
both sides through the same normalization (engines emit typographic quotes
and ligatures that the codec deliberately excludes; charging those as
errors would say nothing about recognition quality), aligns per line and
assembles the evaluation report.

Dataset ids are the book directory names.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from . import __version__
from .align import AlignmentResult, align
from .analytics import (
    DEFAULT_TOP_K,
    DICTIONARY_CORPUS,
    CerCell,
    EvaluationReport,
    build_report,
    confusion_stats,
)
from .codec import Codec
from .errors import ManifestError, PairingError
from .lines import GT_SUFFIX, TranscriptionLine, conf_suffix, list_books, pred_suffix
from .normalize import NormalizationRuleSet, normalize_line, require_replacement_in_codec

def read_text_file(path: str | Path) -> str:
    """Read one line file: UTF-8, one trailing line ending (CRLF, LF or CR)
    stripped, nothing else."""
    try:
        with open(path, "rb", buffering=0) as f:
            raw = f.read()
    except OSError as exc:
        raise ManifestError(f"cannot read {path}: {exc}") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ManifestError(f"{path} is not valid UTF-8: {exc}") from exc
    if text.endswith("\r\n"):
        return text[:-2]
    return text[:-1] if text.endswith(("\n", "\r")) else text


def _read_tree(
    root: Path, label: str, suffix: str, sidecar_suffix: str | None = None
) -> tuple[dict[str, dict[str, str]], dict[str, dict[str, Path]]]:
    """dataset id -> line id -> text of every file whose name ends with
    suffix, and dataset id -> line id -> path of every file whose name ends
    with sidecar_suffix, found in the same listing and not read."""
    tree: dict[str, dict[str, str]] = {}
    sidecars: dict[str, dict[str, Path]] = {}
    for book_dir, names in list_books(root, label):
        prefix = os.path.join(book_dir, "")  # str joins: no Path per file
        lines = {
            name[: -len(suffix)]: read_text_file(prefix + name)
            for name in names
            if name.endswith(suffix)
        }
        if lines:
            tree[book_dir.name] = lines
        if sidecar_suffix is not None:
            found = {
                name[: -len(sidecar_suffix)]: book_dir / name
                for name in names
                if name.endswith(sidecar_suffix)
            }
            if found:
                sidecars[book_dir.name] = found
    return tree, sidecars


def load_gt_tree(root: str | Path) -> dict[str, dict[str, str]]:
    """dataset id -> line id -> ground-truth text."""
    root = Path(root)
    tree, _ = _read_tree(root, "ground-truth root", GT_SUFFIX)
    if not tree:
        raise ManifestError(f"no ground-truth lines found under {root}")
    return tree


def load_pred_tree(
    root: str | Path, engine_id: str
) -> tuple[dict[str, dict[str, str]], dict[str, dict[str, Path]]]:
    """dataset id -> line id -> predicted text, for one engine, and dataset
    id -> line id -> path of that engine's confidence sidecars."""
    return _read_tree(
        Path(root), "prediction root", pred_suffix(engine_id), conf_suffix(engine_id)
    )


def check_parity(
    gt_tree: Mapping[str, Mapping[str, str]],
    pred_tree: Mapping[str, Mapping[str, str]],
    engine_id: str,
    datasets: Iterable[str],
) -> None:
    """Every ground-truth line needs a prediction and vice versa."""
    missing: list[str] = []
    extra: list[str] = []
    for ds in datasets:
        gt_ids = set(gt_tree.get(ds, {}))
        pred_ids = set(pred_tree.get(ds, {}))
        missing.extend(f"{ds}/{lid}" for lid in sorted(gt_ids - pred_ids))
        extra.extend(f"{ds}/{lid}" for lid in sorted(pred_ids - gt_ids))
    if missing or extra:
        parts = [f"engine {engine_id!r}:"]
        if missing:
            parts.append(f"missing predictions for {len(missing)} line(s): "
                         + ", ".join(missing[:10]) + ("..." if len(missing) > 10 else ""))
        if extra:
            parts.append(f"predictions without ground truth for {len(extra)} line(s): "
                         + ", ".join(extra[:10]) + ("..." if len(extra) > 10 else ""))
        raise PairingError(" ".join(parts))


def eval_pipeline(
    gt_root: str | Path,
    pred_roots: Mapping[str, str | Path],
    codec: Codec,
    rules: NormalizationRuleSet,
    raw_pred: bool = False,
    datasets: Sequence[str] | None = None,
    replacement: str | None = None,
    merge_runs: bool = False,
    top_k: int = DEFAULT_TOP_K,
    seed: int = 0,
    dictionary_corpus: str = DICTIONARY_CORPUS,
) -> EvaluationReport:
    """Evaluate every engine against the ground-truth tree.

    pred_roots maps engine id to the root of that engine's prediction tree
    (possibly the ground-truth tree itself, predictions being sibling
    files). Ground truth always goes through normalization; predictions do
    too unless raw_pred is set. Every normalized line gets normalize_line's
    replacement for characters left outside the codec. The rule-set checksum
    lands in the report metadata, pinning that both sides saw the same rules.
    """
    rules.require_codec_closed(codec)
    require_replacement_in_codec(replacement, codec)
    gt_tree = load_gt_tree(gt_root)
    if datasets is None:
        dataset_list = sorted(gt_tree)
    else:
        unknown = [ds for ds in datasets if ds not in gt_tree]
        if unknown:
            raise ManifestError(f"datasets not present under {gt_root}: {', '.join(unknown)}")
        dataset_list = list(datasets)
    engines = sorted(pred_roots)

    def normalized_gt(ds: str) -> list[TranscriptionLine]:
        return [
            normalize_line(TranscriptionLine(ds, lid, text), rules, codec, replacement)
            for lid, text in sorted(gt_tree[ds].items())
        ]

    gt_by_dataset = {ds: normalized_gt(ds) for ds in dataset_list}

    cells: dict[str, dict[str, CerCell]] = {ds: {} for ds in dataset_list}
    confusion: dict[str, tuple] = {}
    for engine in engines:
        pred_tree, _ = load_pred_tree(pred_roots[engine], engine)
        check_parity(gt_tree, pred_tree, engine, dataset_list)
        engine_results: list[AlignmentResult] = []
        for ds in dataset_list:
            preds = [
                TranscriptionLine(ds, lid, text, engine)
                for lid, text in sorted(pred_tree[ds].items())
            ]
            if not raw_pred:
                preds = [normalize_line(ln, rules, codec, replacement) for ln in preds]
            # check_parity gave both sides the same line ids; both are sorted by id
            pairs = zip(gt_by_dataset[ds], preds, strict=True)
            results = [align(g.text, p.text) for g, p in pairs]
            cells[ds][engine] = CerCell.from_results(results)
            engine_results.extend(results)
        confusion[engine] = confusion_stats(engine_results, merge_runs=merge_runs)

    metadata = {
        "tool": "fraktur-bench",
        "tool_version": __version__,
        "seed": seed,
        "codec_name": codec.name,
        "codec_size": len(codec),
        "rules_name": rules.name,
        "rules_sha256": rules.checksum,
        "raw_pred": raw_pred,
        "merge_runs": merge_runs,
    }
    return build_report(
        dataset_list,
        engines,
        cells,
        confusion=confusion,
        k=top_k,
        metadata=metadata,
        dictionary_corpus=dictionary_corpus,
    )
