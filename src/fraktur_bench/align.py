"""Character-level edit distance and optimal alignment.

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

Work is spent only where the two strings differ. Identical strings
align to all matches at once. Otherwise the common prefix (length k)
and the common suffix of what remains (length s, k + s <= both lengths)
are split off:

- The last s characters are matches: an equal-character cell has
  D[i][j] = D[i-1][j-1], and the traceback prefers the diagonal, so
  the script ends in s matches whatever lies before them.
- Column k needs no computation: D[i][j] = |i - j| for every j <= k,
  so the kernel starts there (v = +1 below row k, -1 down to it,
  score m - s - k) and runs over the middle columns only.
- The traceback takes the diagonal at every equal-character cell
  without reading deltas. At a mismatch in a column j <= k it uses the
  closed form (delete if i > j, else insert); only the remaining
  mismatches read the stored deltas.

Match ops are shared per character; EditOp is frozen and compares by
value, so the sharing is invisible.

Consumers of a script mostly want its edits, which on OCR lines are a
few percent of the ops. The traceback branches once per edit anyway, so
it records each one with its position as it goes: AlignmentResult.edits
holds one (gt_pos, pred_pos, op) triple per non-match op, in script
order, where gt_pos and pred_pos count the ground-truth and prediction
characters before the op. Confusion tables and voting read only these.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


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
# (gt_pos, pred_pos, op): a non-match op and the number of ground-truth and
# prediction characters that come before it in its script.
Edit = tuple[int, int, EditOp]


# One MATCH op per character seen, so long scripts share a few objects.
_MATCH_OPS: dict[str, EditOp] = {}


def match(c: str) -> EditOp:
    op = _MATCH_OPS.get(c)
    if op is None:
        op = _MATCH_OPS[c] = EditOp(OpKind.MATCH, c, c)
    return op


def _matches(text: str) -> EditScript:
    """match(c) for every character of text."""
    try:
        return tuple(map(_MATCH_OPS.__getitem__, text))
    except KeyError:  # a character not seen before
        return tuple(map(match, text))


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


def _bit_columns(
    gt: str, pred: str, start: int = 0
) -> tuple[int, list[tuple[int, int, int, int]]]:
    """Bit-parallel DP over a non-empty ground truth (Myers 1999, in
    Hyyrö's global-distance form), from column start on.

    Bit i-1 of each vector stands for ground-truth position i; prediction
    characters are the columns. The first start characters of gt and pred
    must be equal (start <= len(gt)): column start is then D[i][start] =
    |i - start| and is not computed. Returns the distance and, for each
    column j > start (at index j - start - 1), (VP, VN, HP, HN): the rows
    where the vertical delta v(i,j) = D[i][j] - D[i-1][j] is +1 / -1 and
    where the horizontal delta h(i,j) = D[i][j] - D[i][j-1] is +1 / -1.
    """
    m = len(gt)
    mask = (1 << m) - 1
    last = 1 << (m - 1)
    peq: dict[str, int] = {}
    for i, c in enumerate(gt):
        peq[c] = peq.get(c, 0) | (1 << i)
    # Column start: v = -1 on rows 1..start, +1 below.
    vn = (1 << start) - 1
    vp, score = mask ^ vn, m - start
    columns = []
    for c in pred[start:]:
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
    k, s = _trim(gt, pred)
    m, n = len(gt) - s, len(pred) - s
    if m == k:
        return n - k
    return _bit_columns(gt[:m], pred[:n], k)[0]


@dataclass(frozen=True)
class AlignmentResult:
    """Optimal edit script with its distance and CER.

    cer is distance / gt_len for non-empty ground truth. For empty ground
    truth the line scores pred_len (every hallucinated character counts as
    one error over a virtual length of 1); such lines are excluded from
    macro averages but still feed micro sums.

    edits holds the non-match ops of ops, in order, each as (gt_pos,
    pred_pos, op): gt_pos and pred_pos count the ground-truth and
    prediction characters before the op, so a deletion consumes gt[gt_pos],
    an insertion pred[pred_pos] and a substitution both. It has no default:
    a result built without it would read as error-free.
    """

    ops: EditScript
    edits: tuple[Edit, ...]
    distance: int
    gt_len: int
    pred_len: int
    cer: float


def align(gt: str, pred: str) -> AlignmentResult:
    """Cost-optimal alignment of a prediction to its ground truth."""
    if gt == pred:
        return AlignmentResult(_matches(gt), (), 0, len(gt), len(pred), 0.0)
    if not gt:
        ops = tuple(map(insert, pred))
        edits = tuple((0, pred_pos, op) for pred_pos, op in enumerate(ops))
        return AlignmentResult(ops, edits, len(pred), 0, len(pred), float(len(pred)))
    k, s = _trim(gt, pred)
    m, n = len(gt) - s, len(pred) - s
    if m == 0:  # gt is a suffix of pred
        distance, columns = n, []
    else:
        distance, columns = _bit_columns(gt[:m], pred[:n], k)
    # Walk back from (m, n). With d = D[i][j]: up = d - v(i,j),
    # left = d - h(i,j), diag = left - v(i,j-1). Columns j <= k are
    # D[i][j] = |i - j|. Preference on cost ties: diagonal
    # (match/substitute), then delete, then insert. The walk stops at
    # i == j <= k, where gt[:i] == pred[:j] leaves only matches. Each edit
    # is recorded as it is taken, with (i, j) after the step: the numbers
    # of characters before it.
    ops: list[EditOp] = []
    edits: list[Edit] = []
    i, j = m, n
    while i > 0 and j > 0 and (i != j or j > k):
        g, p = gt[i - 1], pred[j - 1]
        if g == p:  # D[i][j] == D[i-1][j-1]
            ops.append(match(g))
            i -= 1
            j -= 1
            continue
        if j <= k:  # the diagonal costs |i - j| + 1 > D[i][j]
            diagonal, up = False, i > j
        else:
            bit = 1 << (i - 1)
            vp, vn, hp, hn = columns[j - k - 1]
            h = 1 if hp & bit else -1 if hn & bit else 0
            if j - 1 > k:
                vp_left, vn_left = columns[j - k - 2][:2]
                v_left = 1 if vp_left & bit else -1 if vn_left & bit else 0
            else:
                v_left = 1 if i > k else -1
            # d == diag + 1  <=>  h(i,j) + v(i,j-1) == 1; d == up + 1  <=>  vp
            diagonal, up = h + v_left == 1, vp & bit
        if diagonal:
            op = substitute(g, p)
            i -= 1
            j -= 1
            edits.append((i, j, op))
        elif up:
            op = delete(g)
            i -= 1
            edits.append((i, j, op))
        else:
            op = insert(p)
            j -= 1
            edits.append((i, j, op))
        ops.append(op)
    ops.reverse()
    edits.reverse()
    if i == j:
        head = _matches(gt[:i])
    elif i:  # the prediction is exhausted
        head = tuple(map(delete, gt[:i]))
        edits[:0] = [(gt_pos, 0, op) for gt_pos, op in enumerate(head)]
    else:  # the ground truth is exhausted
        head = tuple(map(insert, pred[:j]))
        edits[:0] = [(0, pred_pos, op) for pred_pos, op in enumerate(head)]
    script = head + tuple(ops) + _matches(gt[m:])
    return AlignmentResult(
        script, tuple(edits), distance, len(gt), len(pred), distance / len(gt)
    )
