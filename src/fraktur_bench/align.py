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

An operation on a Python integer costs about the same at a few hundred
bits as at a few thousand, so the kernel aligns many pairs at once
(Hyyrö, Fredriksson and Navarro 2005, "Increased bit-parallelism for
approximate and multiple string matching"). Each pair gets a lane: its
ground-truth bits and one guard bit above them, the lanes side by side
in one integer. Each column sums the lanes' equality vectors and sets
the bottom row of every lane. vp is masked to the lanes every column, so
no carry or shift crosses a guard bit, and a lane whose columns have run
out computes bits that nothing reads. align_many packs the pairs, sorted
by column count, into batches of up to _BATCH_BITS bits, runs the kernel
once per batch and traces each lane back; align is the same with one
lane.

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
from collections import namedtuple
from collections.abc import Sequence
from functools import cache
from itertools import compress, count, repeat, zip_longest
from operator import ne


class OpKind(enum.Enum):
    MATCH = "match"
    SUBSTITUTE = "substitute"
    INSERT = "insert"
    DELETE = "delete"


class EditOp(namedtuple("EditOp", "kind gt pred")):
    """One step of the full script that AlignmentResult.ops replays: an
    OpKind and its two characters. gt/pred are None exactly where the op
    has no symbol."""

    __slots__ = ()


# (gt_pos, pred_pos, gt, pred): a non-match op, the number of ground-truth and
# prediction characters that come before it in its script, and its two
# characters, "" for the side it lacks.
Edit = tuple[int, int, str, str]


@cache
def _match(c: str) -> EditOp:
    """The MATCH op of c, one object per character: long scripts share a few."""
    return EditOp(OpKind.MATCH, c, c)


def _trim(gt: str, pred: str) -> tuple[int, int, int]:
    """(k, m, n): the block gt[k:m], pred[k:n] where the two texts differ.
    k is the length of the common prefix, and s = len(gt) - m = len(pred) - n
    that of the common suffix of what follows it, so k + s <= min(len(gt),
    len(pred))."""
    m, n = len(gt), len(pred)
    short = min(m, n)
    # The first unequal pair from each end, each found by one C-level scan;
    # the suffix is that of what follows the prefix, so at most short - k.
    k = next(compress(count(), map(ne, gt, pred)), short)
    s = next(compress(count(), map(ne, reversed(gt), reversed(pred))), short)
    s = min(s, short - k)
    return k, m - s, n - s


# The most bits the lanes of one kernel run hold. An operation on a Python
# integer costs little more at a few thousand bits than at a few hundred,
# so packing lanes spreads its cost; far wider, it no longer does.
_BATCH_BITS = 2048


def _lane_columns(blocks: Sequence[tuple[str, str]]) -> tuple[list[int], list[int]]:
    """Bit-parallel DP (Myers 1999, in Hyyrö's global-distance form) over
    several blocks at once, one lane of bits each (Hyyrö, Fredriksson and
    Navarro 2005).

    A block (a, b) has a non-empty a and b. Its lane is len(a) bits and a
    guard bit above them, the lanes in order from bit 0; bit off + i - 1
    stands for position i of a, off being the lane's lowest bit. The
    prediction characters are the columns, and D[0][j] = j, D[i][0] = i in
    every lane. Returns, for each column j >= 1 (at index j - 1), VP and VN:
    the rows where the vertical delta v(i,j) = D[i][j] - D[i-1][j] is +1
    and -1. So D[i][j] = j + popcount(VP & low) - popcount(VN & low) with
    low the lane's lowest i bits. Past its len(b) columns, a lane's bits
    are meaningless.
    """
    lanes: list[list[int]] = []
    mask = bottoms = off = 0
    for a, b in blocks:
        peq: dict[str, int] = {}
        bottom = bit = 1 << off
        for c in a:
            peq[c] = peq.get(c, 0) | bit
            bit <<= 1
        lanes.append(list(map(peq.get, b, repeat(0))))
        mask |= bit - bottom
        bottoms |= bottom
        off += len(a) + 1
    # Lanes hold disjoint bits, so a sum is their union; a lane whose
    # columns have run out adds nothing.
    eqs = lanes[0] if len(lanes) == 1 else map(sum, zip_longest(*lanes, fillvalue=0))
    vp, vn = mask, 0  # column 0: v = +1 on every row
    vps: list[int] = []
    vns: list[int] = []
    for eq in eqs:
        # eq, vp and vn are 0 on the guard bits, so a carry out of a lane
        # stops in its guard bit, and xv is 0 there too.
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        # The horizontal deltas, moved one row down; row 0 is D[0][j] = j,
        # so +1 enters every lane from above, and | bottoms overwrites what
        # hp moves up from the guard bit below. On the lanes' rows x ^ mask
        # is ~x. A bit moved into a guard bit is cut by & mask and by xv.
        hp = ((vn | (xh | vp) ^ mask) << 1) | bottoms
        hn = (vp & xh) << 1
        vp = (hn | (xv | hp) ^ mask) & mask
        vn = hp & xv
        vps.append(vp)
        vns.append(vn)
    return vps, vns


def _edits(
    gt: str, pred: str, k: int, m: int, n: int, vps: Sequence[int], vns: Sequence[int], off: int
) -> tuple[Edit, ...]:
    """The edits of the alignment of pred to gt, traced back through the
    columns of its block gt[k:m], pred[k:n]: the lane from bit off of vps
    and vns. They are empty when a side of the block is."""
    # Walk back from (m, n) with d = D[i][j]: a match keeps it, an edit
    # lowers it by one. At a mismatch outside the block the diagonal costs
    # more (D = |i - j|): delete if i > j, else insert. Inside it the
    # columns give D[i-1][j-1] by popcount (column k is D[i][k] = i - k),
    # and v(i,j) = +1 exactly where deleting is optimal. Cost ties prefer
    # the diagonal, then delete, then insert. The walk stops at i == j <= k,
    # where only matches are left. A match is always the step taken, so a
    # run of them is walked in one inner loop that tests neither the stop
    # rule nor the block: it can pass the stop point only inside the common
    # prefix, where it runs on to i == j == 0 and no edit is left either.
    # Each edit is recorded with (i, j) after the step: the numbers of
    # characters before it.
    bottom = 1 << off
    if vps:
        lane = (bottom << m - k) - bottom
        d = n - k + (vps[n - k - 1] & lane).bit_count() - (vns[n - k - 1] & lane).bit_count()
    edits: list[Edit] = []
    i, j = m, n
    while i > 0 and j > 0 and (i != j or j > k):
        g, p = gt[i - 1], pred[j - 1]
        if g == p:  # D[i][j] == D[i-1][j-1], and so on along the run
            i -= 1
            j -= 1
            while i and j and gt[i - 1] == pred[j - 1]:
                i -= 1
                j -= 1
            continue
        if i <= k or j <= k:
            diagonal, up = False, i > j
        else:
            row, c = i - k - 1, j - k - 1  # lane bit of row i, index of column j
            if c:
                low = (bottom << row) - bottom
                diag = c + (vps[c - 1] & low).bit_count() - (vns[c - 1] & low).bit_count()
            else:
                diag = row
            diagonal, up = diag + 1 == d, vps[c] >> (off + row) & 1
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
    return tuple(edits)


class AlignmentResult(namedtuple("AlignmentResult", "gt pred edits")):
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

    __slots__ = ()

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
            ops += map(_match, self.gt[gt_pos:edit_gt_pos])
            kind = OpKind.SUBSTITUTE if g and p else OpKind.DELETE if g else OpKind.INSERT
            ops.append(EditOp(kind, g or None, p or None))
            gt_pos = edit_gt_pos + len(g)
        ops += map(_match, self.gt[gt_pos:])
        return tuple(ops)


def align(gt: str, pred: str) -> AlignmentResult:
    """Cost-optimal alignment of a prediction to its ground truth."""
    if gt == pred:
        return AlignmentResult(gt, pred, ())
    k, m, n = _trim(gt, pred)
    # The walk reads columns only inside the block, so an empty side needs none.
    vps, vns = _lane_columns(((gt[k:m], pred[k:n]),)) if m > k < n else ((), ())
    return AlignmentResult(gt, pred, _edits(gt, pred, k, m, n, vps, vns, 0))


def align_many(pairs: Sequence[tuple[str, str]]) -> list[AlignmentResult]:
    """[align(gt, pred) for gt, pred in pairs], with the blocks of many
    pairs run through the kernel at once, one lane each."""
    results: list[AlignmentResult | None] = [None] * len(pairs)
    blocks = []  # (columns, index, k, m, n) of each pair with columns to read
    for index, (gt, pred) in enumerate(pairs):
        if gt == pred:
            results[index] = AlignmentResult(gt, pred, ())
            continue
        k, m, n = _trim(gt, pred)
        if m > k < n:
            blocks.append((n - k, index, k, m, n))
        else:
            results[index] = AlignmentResult(gt, pred, _edits(gt, pred, k, m, n, (), (), 0))
    # Lanes of similar column counts share a batch, so that few columns run
    # for lanes that have none left. A block wider than the budget gets a
    # batch of its own.
    blocks.sort()
    batches: list[list[tuple[int, int, int, int, int]]] = []
    bits = _BATCH_BITS
    for block in blocks:
        width = block[3] - block[2] + 1
        if bits + width > _BATCH_BITS:
            batches.append([])
            bits = 0
        batches[-1].append(block)
        bits += width
    for batch in batches:
        # Rebinding drops the previous batch's columns.
        vps, vns = _lane_columns([(pairs[i][0][k:m], pairs[i][1][k:n]) for _, i, k, m, n in batch])
        off = 0
        for _, index, k, m, n in batch:
            gt, pred = pairs[index]
            results[index] = AlignmentResult(gt, pred, _edits(gt, pred, k, m, n, vps, vns, off))
            off += m - k + 1
    return results
