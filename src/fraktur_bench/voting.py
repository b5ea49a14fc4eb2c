"""Alignment-based sequence voting across engine outputs.

One output is chosen as the pivot (by default the longest, which loses the
fewest insertion slots) and every other voter is aligned to it. The pivot
text defines L character slots and L+1 insertion gaps; each voter casts
exactly one vote per slot (its aligned character, or nothing for a
deletion) and one per gap (the characters it inserts there, usually
nothing). The symbol with a strict majority wins a slot; a unique
plurality also wins; remaining ties fall to the configured tie-break.

This is star alignment, linear in the number of voters, not a full
multiple sequence alignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .align import OpKind, align
from .errors import VotingError

VOTED_ENGINE_ID = "voted"

TIE_BREAKS = ("first_voter", "confidence", "abstain_to_pivot")
PIVOT_CHOICES = ("longest", "first", "engine")


@dataclass(frozen=True)
class VoterOutput:
    """One engine's text for a line, optionally with per-character confidences."""

    engine_id: str
    text: str
    confidences: tuple[float, ...] | None = None

    def __post_init__(self):
        if not self.engine_id:
            raise VotingError("voter output without engine_id")
        if self.confidences is not None:
            if len(self.confidences) != len(self.text):
                raise VotingError(
                    f"engine {self.engine_id!r}: {len(self.confidences)} confidences "
                    f"for {len(self.text)} characters"
                )
            for value in self.confidences:
                if not 0.0 <= value <= 1.0:
                    raise VotingError(
                        f"engine {self.engine_id!r}: confidence {value!r} outside [0, 1]"
                    )


@dataclass(frozen=True)
class VotingConfig:
    min_voters: int = 2
    tie_break: str = "first_voter"
    pivot: str = "longest"
    pivot_engine: str | None = None

    def __post_init__(self):
        if self.min_voters < 2:
            raise VotingError(f"min_voters must be >= 2, got {self.min_voters}")
        if self.tie_break not in TIE_BREAKS:
            raise VotingError(f"unknown tie_break {self.tie_break!r}")
        if self.pivot not in PIVOT_CHOICES:
            raise VotingError(f"unknown pivot choice {self.pivot!r}")
        if self.pivot == "engine" and not self.pivot_engine:
            raise VotingError("pivot='engine' requires pivot_engine")


@dataclass
class _Slot:
    # votes: symbol -> voter indices; a symbol is one char (slots), a string
    # of inserted chars (gaps), or "" for no opinion.
    votes: dict[str, list[int]]
    confidence: dict[str, float]
    pivot_symbol: str

    def cast(self, symbol: str, voter: int, confidence: float) -> None:
        self.votes.setdefault(symbol, []).append(voter)
        self.confidence[symbol] = self.confidence.get(symbol, 0.0) + confidence


def _pick_pivot(outputs: Sequence[VoterOutput], config: VotingConfig) -> int:
    if config.pivot == "first":
        return 0
    if config.pivot == "engine":
        for i, out in enumerate(outputs):
            if out.engine_id == config.pivot_engine:
                return i
        raise VotingError(f"pivot engine {config.pivot_engine!r} not among voters")
    best = 0
    for i, out in enumerate(outputs):
        if len(out.text) > len(outputs[best].text):
            best = i
    return best


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _resolve(slot: _Slot, config: VotingConfig) -> str:
    top = max(len(v) for v in slot.votes.values())
    leaders = sorted(sym for sym, v in slot.votes.items() if len(v) == top)
    if len(leaders) == 1:
        return leaders[0]
    if config.tie_break == "abstain_to_pivot":
        return slot.pivot_symbol
    if config.tie_break == "confidence":
        best = max(slot.confidence.get(s, 0.0) for s in leaders)
        leaders = [s for s in leaders if slot.confidence.get(s, 0.0) == best]
        if len(leaders) == 1:
            return leaders[0]
    # first_voter, and the fallback for exact confidence ties
    return min(leaders, key=lambda s: min(slot.votes[s]))


def vote_line(outputs: Sequence[VoterOutput], config: VotingConfig) -> VoterOutput:
    """Combine outputs for one line into a single voted output."""
    if len(outputs) < config.min_voters:
        raise VotingError(
            f"insufficient voters: got {len(outputs)}, need {config.min_voters}"
        )
    if config.tie_break == "confidence":
        missing = [o.engine_id for o in outputs if o.confidences is None]
        if missing:
            raise VotingError(
                f"tie_break='confidence' requires confidences from every voter; "
                f"missing: {', '.join(missing)}"
            )

    pivot_idx = _pick_pivot(outputs, config)
    pivot = outputs[pivot_idx]
    L = len(pivot.text)

    char_slots = [
        _Slot({}, {}, pivot.text[i]) for i in range(L)
    ]
    gap_slots = [_Slot({}, {}, "") for _ in range(L + 1)]

    def conf_at(out: VoterOutput, pos: int) -> float:
        return out.confidences[pos] if out.confidences is not None else 0.0

    # The pivot votes its own text: its characters at the character slots,
    # no insertion at any gap.
    for i in range(L):
        char_slots[i].cast(pivot.text[i], pivot_idx, conf_at(pivot, i))
    for gap in gap_slots:
        gap.cast("", pivot_idx, 0.0)

    for v_idx, voter in enumerate(outputs):
        if v_idx == pivot_idx:
            continue
        script = align(pivot.text, voter.text).ops
        p = 0  # pivot position
        q = 0  # voter position
        pending: list[str] = []
        pending_conf: list[float] = []

        def flush_gap(slot_index: int) -> None:
            nonlocal pending, pending_conf
            gap_slots[slot_index].cast("".join(pending), v_idx, _mean(pending_conf))
            pending = []
            pending_conf = []

        for op in script:
            if op.kind is OpKind.INSERT:
                pending.append(op.pred)
                pending_conf.append(conf_at(voter, q))
                q += 1
                continue
            flush_gap(p)
            if op.kind is OpKind.DELETE:
                char_slots[p].cast("", v_idx, 0.0)
                p += 1
            else:  # MATCH or SUBSTITUTE
                char_slots[p].cast(op.pred, v_idx, conf_at(voter, q))
                p += 1
                q += 1
        flush_gap(L)

    pieces: list[str] = []
    for i in range(L):
        pieces.append(_resolve(gap_slots[i], config))
        pieces.append(_resolve(char_slots[i], config))
    pieces.append(_resolve(gap_slots[L], config))
    return VoterOutput(VOTED_ENGINE_ID, "".join(pieces))
