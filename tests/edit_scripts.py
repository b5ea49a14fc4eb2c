"""The edit-script vocabulary the tests spell whole scripts in.

The program holds an alignment as its edits, (gt_pos, pred_pos, gt, pred)
tuples, and AlignmentResult.ops replays them into the full script of
EditOps. These builders and replays let a test write such a script out,
or read the two texts and the distance back from one.
"""

from __future__ import annotations

from typing import Sequence

from fraktur_bench.align import EditOp, OpKind


def match(c: str) -> EditOp:
    return EditOp(OpKind.MATCH, c, c)


def substitute(gt_c: str, pred_c: str) -> EditOp:
    return EditOp(OpKind.SUBSTITUTE, gt_c, pred_c)


def insert(pred_c: str) -> EditOp:
    return EditOp(OpKind.INSERT, None, pred_c)


def delete(gt_c: str) -> EditOp:
    return EditOp(OpKind.DELETE, gt_c, None)


def script_gt_text(ops: Sequence[EditOp]) -> str:
    """Replay the ground-truth side of a script."""
    return "".join(op.gt for op in ops if op.gt is not None)


def script_pred_text(ops: Sequence[EditOp]) -> str:
    """Replay the prediction side of a script."""
    return "".join(op.pred for op in ops if op.pred is not None)


def script_distance(ops: Sequence[EditOp]) -> int:
    return sum(1 for op in ops if op.kind is not OpKind.MATCH)
