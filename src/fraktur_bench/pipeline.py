"""Directory-level evaluation pipeline.

Reads ground truth and per-engine predictions from line-pair trees, pushes
both sides through the same normalization (engines emit typographic quotes
and ligatures that the codec deliberately excludes; charging those as
errors would say nothing about recognition quality), aligns per line and
assembles the evaluation report.

Dataset ids are the book directory names; the corpus of a dataset is the
prefix before the first dash in its id.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Mapping, Sequence

from . import __version__
from .align import AlignmentResult, align
from .analytics import (
    CerCell,
    EvaluationReport,
    build_report,
    confusion_stats,
    corpus_of,
)
from .codec import Codec
from .errors import ManifestError, PairingError
from .lines import TranscriptionLine, gt_line, pred_line
from .normalize import NormalizationRuleSet, normalize_line, require_replacement_in_codec

def read_text_file(path: Path) -> str:
    """Read one line file: UTF-8, one trailing line ending (CRLF, LF or CR)
    stripped, nothing else."""
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ManifestError(f"cannot read {path}: {exc}") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ManifestError(f"{path} is not valid UTF-8: {exc}") from exc
    if text.endswith("\r\n"):
        return text[:-2]
    return text[:-1] if text.endswith(("\n", "\r")) else text


def load_gt_tree(root: str | Path) -> dict[str, dict[str, str]]:
    """dataset id -> line id -> ground-truth text."""
    root = Path(root)
    if not root.is_dir():
        raise ManifestError(f"ground-truth root {root} is not a readable directory")
    tree: dict[str, dict[str, str]] = {}
    for book_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        lines = {
            f.name[: -len(".gt.txt")]: read_text_file(f)
            for f in sorted(book_dir.glob("*.gt.txt"))
        }
        if lines:
            tree[book_dir.name] = lines
    if not tree:
        raise ManifestError(f"no ground-truth lines found under {root}")
    return tree


def load_pred_tree(root: str | Path, engine_id: str) -> dict[str, dict[str, str]]:
    """dataset id -> line id -> predicted text, for one engine."""
    root = Path(root)
    if not root.is_dir():
        raise ManifestError(f"prediction root {root} is not a readable directory")
    suffix = f".pred.{engine_id}.txt"
    tree: dict[str, dict[str, str]] = {}
    for book_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        lines = {
            f.name[: -len(suffix)]: read_text_file(f)
            for f in sorted(book_dir.glob(f"*{suffix}"))
        }
        if lines:
            tree[book_dir.name] = lines
    return tree


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
    on_unmapped: str = "fail",
    replacement: str | None = None,
    merge_runs: bool = False,
    top_k: int = 3,
    seed: int = 0,
    dictionary_corpus: str = "S",
) -> EvaluationReport:
    """Evaluate every engine against the ground-truth tree.

    pred_roots maps engine id to the root of that engine's prediction tree
    (possibly the ground-truth tree itself, predictions being sibling
    files). Ground truth always goes through normalization; predictions do
    too unless raw_pred is set. The rule-set checksum lands in the report
    metadata, pinning that both sides saw the same rules.
    """
    rules.require_codec_closed(codec)
    require_replacement_in_codec(on_unmapped, replacement, codec)
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
            normalize_line(gt_line(corpus_of(ds), ds, lid, text), rules, codec, on_unmapped, replacement)
            for lid, text in sorted(gt_tree[ds].items())
        ]

    gt_by_dataset = {ds: normalized_gt(ds) for ds in dataset_list}

    cells: dict[str, dict[str, CerCell]] = {ds: {} for ds in dataset_list}
    confusion: dict[str, tuple] = {}
    for engine in engines:
        pred_tree = load_pred_tree(pred_roots[engine], engine)
        check_parity(gt_tree, pred_tree, engine, dataset_list)
        engine_results: list[AlignmentResult] = []
        for ds in dataset_list:
            preds = [
                pred_line(corpus_of(ds), ds, lid, text, engine)
                for lid, text in sorted(pred_tree[ds].items())
            ]
            if not raw_pred:
                preds = [
                    normalize_line(ln, rules, codec, on_unmapped, replacement) for ln in preds
                ]
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
        "dictionary_corpus": dictionary_corpus,
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
