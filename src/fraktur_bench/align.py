"""Character-level edit distance, optimal alignment and CER aggregation.

Unit costs throughout (insert = delete = substitute = 1). The CER
denominator is the ground-truth length; the empty-ground-truth convention
is documented on AlignmentResult. Traceback tie-breaking is fixed (match
or substitute, then delete, then insert) so that edit scripts, and with
them all confusion statistics, are reproducible.

One kernel computes every distance and alignment: Myers' bit-vector
edit distance (Myers 1999, J. ACM 46(3)) on Python integers, one bit per
ground-truth character, so each prediction character costs a fixed
handful of integer operations whatever the line length. It keeps the
vertical and horizontal deltas of each column, and the traceback reads
the scores it needs off them (Hyyrö 2004, "A note on bit-parallel
alignment computation") instead of filling a cost matrix.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import PairingError
from .lines import TranscriptionLine


class OpKind(enum.Enum):
    MATCH = "match"
    SUBSTITUTE = "substitute"
    INSERT = "insert"
    DELETE = "delete"


@dataclass(frozen=True, slots=True)
class EditOp:
    """One alignment step. gt/pred are None exactly where the op has no symbol."""

    kind: OpKind
    gt: str | None
    pred: str | None


EditScript = tuple[EditOp, ...]


def match(c: str) -> EditOp:
    return EditOp(OpKind.MATCH, c, c)


def substitute(gt_c: str, pred_c: str) -> EditOp:
    return EditOp(OpKind.SUBSTITUTE, gt_c, pred_c)


def insert(pred_c: str) -> EditOp:
    return EditOp(OpKind.INSERT, None, pred_c)


def delete(gt_c: str) -> EditOp:
    return EditOp(OpKind.DELETE, gt_c, None)


def script_gt_text(ops: EditScript) -> str:
    """Replay the ground-truth side of a script."""
    return "".join(op.gt for op in ops if op.gt is not None)


def script_pred_text(ops: EditScript) -> str:
    """Replay the prediction side of a script."""
    return "".join(op.pred for op in ops if op.pred is not None)


def script_distance(ops: EditScript) -> int:
    return sum(1 for op in ops if op.kind is not OpKind.MATCH)


def _bit_columns(gt: str, pred: str) -> tuple[int, list[tuple[int, int, int, int]]]:
    """Bit-parallel DP over a non-empty ground truth (Myers 1999, in
    Hyyrö's global-distance form).

    Bit i-1 of each vector stands for ground-truth position i; prediction
    characters are the columns. Returns the distance and, for each column
    j, (VP, VN, HP, HN): the rows where the vertical delta
    v(i,j) = D[i][j] - D[i-1][j] is +1 / -1 and where the horizontal delta
    h(i,j) = D[i][j] - D[i][j-1] is +1 / -1.
    """
    m = len(gt)
    mask = (1 << m) - 1
    last = 1 << (m - 1)
    peq: dict[str, int] = {}
    for i, c in enumerate(gt):
        peq[c] = peq.get(c, 0) | (1 << i)
    vp, vn, score = mask, 0, m
    columns = []
    for c in pred:
        eq = peq.get(c, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = (vn | ~(xh | vp)) & mask
        hn = vp & xh
        if hp & last:
            score += 1
        elif hn & last:
            score -= 1
        # Row 0 is D[0][j] = j, so +1 enters every column from above.
        hp_in = ((hp << 1) | 1) & mask
        hn_in = (hn << 1) & mask
        vp = (hn_in | ~(xv | hp_in)) & mask
        vn = hp_in & xv
        columns.append((vp, vn, hp, hn))
    return score, columns


def levenshtein(gt: str, pred: str) -> int:
    """Minimal unit-cost edit distance between two strings."""
    if gt == pred:
        return 0
    if not gt:
        return len(pred)
    return _bit_columns(gt, pred)[0]


@dataclass(frozen=True)
class AlignmentResult:
    """Optimal edit script with its distance and CER.

    cer is distance / gt_len for non-empty ground truth. For empty ground
    truth the line scores pred_len (every hallucinated character counts as
    one error over a virtual length of 1); such lines are excluded from
    macro averages but still feed micro sums.
    """

    ops: EditScript
    distance: int
    gt_len: int
    pred_len: int
    cer: float


def align(gt: str, pred: str) -> AlignmentResult:
    """Cost-optimal alignment of a prediction to its ground truth."""
    if not gt:
        ops = tuple(insert(c) for c in pred)
        return AlignmentResult(ops, len(pred), 0, len(pred), float(len(pred)))
    distance, columns = _bit_columns(gt, pred)
    # Walk back from (m, n). With d = D[i][j]: up = d - v(i,j),
    # left = d - h(i,j), diag = left - v(i,j-1), and column 0 has v = +1.
    # Preference on cost ties: diagonal (match/substitute), then delete,
    # then insert.
    ops: list[EditOp] = []
    i, j = len(gt), len(pred)
    while i > 0 and j > 0:
        bit = 1 << (i - 1)
        vp, vn, hp, hn = columns[j - 1]
        h = 1 if hp & bit else -1 if hn & bit else 0
        if j > 1:
            vp_left, vn_left = columns[j - 2][:2]
            v_left = 1 if vp_left & bit else -1 if vn_left & bit else 0
        else:
            v_left = 1
        g, p = gt[i - 1], pred[j - 1]
        # d == diag + cost  <=>  h(i,j) + v(i,j-1) == cost
        if h + v_left == (g != p):
            ops.append(match(g) if g == p else substitute(g, p))
            i -= 1
            j -= 1
        elif vp & bit:  # d == up + 1
            ops.append(delete(g))
            i -= 1
        else:
            ops.append(insert(p))
            j -= 1
    ops.extend(delete(c) for c in reversed(gt[:i]))
    ops.extend(insert(c) for c in reversed(pred[:j]))
    ops.reverse()
    cer = distance / len(gt)
    return AlignmentResult(tuple(ops), distance, len(gt), len(pred), cer)


@dataclass(frozen=True)
class CorpusCer:
    """Per-line alignments plus micro and macro aggregates.

    micro weights every ground-truth character equally (sum of distances
    over sum of lengths); macro weights every line equally (mean of
    per-line CER over lines with non-empty ground truth).
    """

    per_line: tuple[AlignmentResult, ...]
    total_distance: int
    total_gt_chars: int
    micro_cer: float
    macro_cer: float


def corpus_cer(
    pairs: list[tuple[TranscriptionLine, TranscriptionLine]],
) -> CorpusCer:
    """Align matched (ground truth, prediction) pairs and aggregate.

    Pairs must agree on (corpus_id, book_id, line_id); mismatches are
    reported together. An empty pair list is an error, not an empty result.
    """
    if not pairs:
        raise PairingError("empty evaluation set")
    mismatched = [
        (g.key, p.key) for g, p in pairs if g.key != p.key
    ]
    if mismatched:
        shown = "; ".join(f"gt {g} vs pred {p}" for g, p in mismatched[:10])
        raise PairingError(
            f"{len(mismatched)} pair(s) with mismatched line identity: {shown}"
        )
    results = tuple(align(g.text, p.text) for g, p in pairs)
    total_distance = sum(r.distance for r in results)
    total_gt_chars = sum(r.gt_len for r in results)
    micro = total_distance / total_gt_chars if total_gt_chars else float(total_distance)
    eligible = [r.cer for r in results if r.gt_len > 0]
    macro = sum(eligible) / len(eligible) if eligible else 0.0
    return CorpusCer(results, total_distance, total_gt_chars, micro, macro)
