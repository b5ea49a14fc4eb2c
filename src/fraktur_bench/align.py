"""Character-level edit distance and optimal alignment.

Unit costs throughout (insert = delete = substitute = 1). The CER
denominator is the ground-truth length; the empty-ground-truth convention
is documented on AlignmentResult. Traceback tie-breaking is fixed (match
or substitute, then delete, then insert) so that edit scripts, and with
them all confusion statistics, are reproducible.

One kernel computes every distance and alignment: Myers' bit-vector
edit distance (Myers 1999, J. ACM 46(3)) on Python integers, one bit per
ground-truth character, so each prediction character costs a fixed
handful of integer operations whatever the line length. It keeps two
vectors per column, the rows where the vertical delta is +1 and -1, and
the traceback reads the scores it needs off them by popcount (Hyyrö
2004, "A note on bit-parallel alignment computation") instead of filling
a cost matrix.

Work and storage scale with the block where the two texts differ.
Identical strings align at once. Otherwise the common prefix (length k)
and the common suffix of what remains (length s, k + s <= both lengths)
are split off, and the kernel runs on gt[k:m] against pred[k:n] only
(m, n: the lengths without the suffix). The suffix is all matches: an
equal-character cell has D[i][j] = D[i-1][j-1], and the traceback
prefers the diagonal. Outside the block, where i <= k or j <= k, D[i][j]
= |i - j|, so the block's own DP, started as usual from row k and
column k, is the full DP inside it, and the traceback needs no columns
out there.

A result is (gt, pred, edits): one (gt_pos, pred_pos, gt, pred) tuple per
non-match op, in script order. gt_pos and pred_pos count the ground-truth
and prediction characters before the op; gt and pred are its characters,
"" for the side it lacks, so a deletion has pred == "", an insertion
gt == "" and a substitution neither. On OCR lines the edits are a few
percent of the ops, and confusion tables and voting read only them.
Distance, lengths and CER are derived from the three members. The full
script of EditOps, ops, replays the matches between the edits; no command
reads it, and it is kept for the benchmark's reference-DP check (match
ops are shared per character; an EditOp is an immutable tuple, so the
sharing is invisible).
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class OpKind(enum.Enum):
    MATCH = "match"
    SUBSTITUTE = "substitute"
    INSERT = "insert"
    DELETE = "delete"


class EditOp(NamedTuple):
    """One step of the full script that AlignmentResult.ops replays.
    gt/pred are None exactly where the op has no symbol."""

    kind: OpKind
    gt: str | None
    pred: str | None


# (gt_pos, pred_pos, gt, pred): a non-match op, the number of ground-truth and
# prediction characters that come before it in its script, and its two
# characters, "" for the side it lacks.
Edit = tuple[int, int, str, str]


# One MATCH op per character seen, so long scripts share a few objects.
_MATCH_OPS: dict[str, EditOp] = {}


def _match(c: str) -> EditOp:
    op = _MATCH_OPS.get(c)
    if op is None:
        op = _MATCH_OPS[c] = EditOp(OpKind.MATCH, c, c)
    return op


def _matches(text: str) -> tuple[EditOp, ...]:
    """_match(c) for every character of text."""
    try:
        return tuple(map(_MATCH_OPS.__getitem__, text))
    except KeyError:  # a character not seen before
        return tuple(map(_match, text))


def _trim(gt: str, pred: str) -> tuple[int, int]:
    """(k, s): the length of the common prefix and that of the common
    suffix of what follows it, so k + s <= min(len(gt), len(pred))."""
    m, n = len(gt), len(pred)
    # Galloping searches that compare each character at most a few times.
    lo, hi = 0, min(m, n)
    while lo < hi:
        mid = (lo + hi + 1) >> 1
        if gt[lo:mid] == pred[lo:mid]:
            lo = mid
        else:
            hi = mid - 1
    k = lo
    lo, hi = 0, min(m, n) - k
    while lo < hi:
        mid = (lo + hi + 1) >> 1
        if gt[m - mid : m - lo] == pred[n - mid : n - lo]:
            lo = mid
        else:
            hi = mid - 1
    return k, lo


def _bit_columns(gt: str, pred: str) -> tuple[int, list[int], list[int]]:
    """Bit-parallel DP over a non-empty ground truth (Myers 1999, in
    Hyyrö's global-distance form).

    Bit i-1 of each vector stands for ground-truth position i; prediction
    characters are the columns, and D[0][j] = j, D[i][0] = i. Returns
    D[len(gt)][len(pred)] and, for each column j >= 1 (at index j - 1),
    VP and VN: the rows where the vertical delta v(i,j) = D[i][j] -
    D[i-1][j] is +1 and -1. So D[i][j] = j + popcount(VP & low) -
    popcount(VN & low) with low = (1 << i) - 1.
    """
    mask = (1 << len(gt)) - 1
    peq: dict[str, int] = {}
    for i, c in enumerate(gt):
        peq[c] = peq.get(c, 0) | (1 << i)
    vp, vn = mask, 0  # column 0: v = +1 on every row
    vps: list[int] = []
    vns: list[int] = []
    for c in pred:
        eq = peq.get(c, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        # The horizontal deltas, moved one row down; row 0 is D[0][j] = j,
        # so +1 enters every column from above. Bits past the last row
        # are cut by the masks below.
        hp = ((vn | ~(xh | vp) & mask) << 1) | 1
        hn = (vp & xh) << 1
        vp = (hn | ~(xv | hp)) & mask
        vn = hp & xv
        vps.append(vp)
        vns.append(vn)
    return len(pred) + vp.bit_count() - vn.bit_count(), vps, vns


class AlignmentResult(NamedTuple):
    """Optimal alignment of pred to gt, held as its edits.

    edits holds the non-match ops of the edit script, in order, each as
    (gt_pos, pred_pos, gt, pred): gt_pos and pred_pos count the ground-truth
    and prediction characters before the op, and gt and pred are its
    characters, "" for the side it lacks. So a deletion (pred == "")
    consumes gt[gt_pos], an insertion (gt == "") pred[pred_pos] and a
    substitution both. Every other character is a match. It has no
    default: a result built without it would read as error-free.

    cer is distance / gt_len for non-empty ground truth. For empty ground
    truth the line scores len(pred) (every hallucinated character counts as
    one error over a virtual length of 1); such lines are excluded from
    macro averages but still feed micro sums.
    """

    gt: str
    pred: str
    edits: tuple[Edit, ...]

    @property
    def distance(self) -> int:
        return len(self.edits)

    @property
    def gt_len(self) -> int:
        return len(self.gt)

    @property
    def cer(self) -> float:
        return len(self.edits) / len(self.gt) if self.gt else float(len(self.pred))

    @property
    def ops(self) -> tuple[EditOp, ...]:
        """The full edit script as EditOps: the edits with the matches
        between them, built anew on each read. No command reads it; it is
        kept for the benchmark's reference-DP check."""
        ops: list[EditOp] = []
        gt_pos = 0
        for edit_gt_pos, _, g, p in self.edits:
            ops += _matches(self.gt[gt_pos:edit_gt_pos])
            kind = OpKind.SUBSTITUTE if g and p else OpKind.DELETE if g else OpKind.INSERT
            ops.append(EditOp(kind, g or None, p or None))
            gt_pos = edit_gt_pos + len(g)
        ops += _matches(self.gt[gt_pos:])
        return tuple(ops)


def align(gt: str, pred: str) -> AlignmentResult:
    """Cost-optimal alignment of a prediction to its ground truth."""
    if gt == pred:
        return AlignmentResult(gt, pred, ())
    k, s = _trim(gt, pred)
    m, n = len(gt) - s, len(pred) - s
    if m > k:
        d, vps, vns = _bit_columns(gt[k:m], pred[k:n])
    # Walk back from (m, n) with d = D[i][j]: a match keeps it, an edit
    # lowers it by one. At a mismatch outside the block the diagonal costs
    # more (D = |i - j|): delete if i > j, else insert. Inside it the
    # columns give D[i-1][j-1] by popcount (column k is D[i][k] = i - k),
    # and v(i,j) = +1 exactly where deleting is optimal. Cost ties prefer
    # the diagonal, then delete, then insert. The walk stops at i == j <= k,
    # where only matches are left. Each edit is recorded with (i, j) after
    # the step: the numbers of characters before it.
    edits: list[Edit] = []
    i, j = m, n
    while i > 0 and j > 0 and (i != j or j > k):
        g, p = gt[i - 1], pred[j - 1]
        if g == p:  # D[i][j] == D[i-1][j-1]
            i -= 1
            j -= 1
            continue
        if i <= k or j <= k:
            diagonal, up = False, i > j
        else:
            row, c = i - k - 1, j - k - 1  # bit of row i, index of column j
            if c:
                low = (1 << row) - 1
                diag = c + (vps[c - 1] & low).bit_count() - (vns[c - 1] & low).bit_count()
            else:
                diag = row
            diagonal, up = diag + 1 == d, vps[c] >> row & 1
            d -= 1
        if diagonal:
            i -= 1
            j -= 1
            edits.append((i, j, g, p))
        elif up:
            i -= 1
            edits.append((i, j, g, ""))
        else:
            j -= 1
            edits.append((i, j, "", p))
    edits.reverse()
    if i > j:  # the prediction is exhausted
        edits[:0] = [(gt_pos, 0, c, "") for gt_pos, c in enumerate(gt[:i])]
    elif j > i:  # the ground truth is exhausted
        edits[:0] = [(0, pred_pos, "", c) for pred_pos, c in enumerate(pred[:j])]
    return AlignmentResult(gt, pred, tuple(edits))
