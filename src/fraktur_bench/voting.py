"""Alignment-based sequence voting across engine outputs.

One output is chosen as the pivot (by default the longest, which loses the
fewest insertion slots) and every other voter is aligned to it. The pivot
text defines L character slots and L+1 insertion gaps; each voter casts
exactly one vote per slot (its aligned character, or nothing for a
deletion) and one per gap (the characters it inserts there, usually
nothing). The symbol with a strict majority wins a slot; a unique
plurality also wins; remaining ties fall to the configured tie-break.

Slots exist only where voters disagree. Each voter's edits, which its
alignment result records with their positions, are read once; a
character slot where every voter casts the pivot's character, or a gap
where nobody inserts, has one symbol with all the votes, so it keeps the
pivot's text at no cost. Only the contested slots are built, cast in the
same order (pivot first, then the voters by index, so confidence sums
round the same) and resolved; their results are spliced into the pivot
text.

This is star alignment, linear in the number of voters, not a full
multiple sequence alignment.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

from .align import Edit, align
from .errors import VotingError

VOTED_ENGINE_ID = "voted"

TIE_BREAKS = ("first_voter", "confidence", "abstain_to_pivot")


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
            # One chained comparison per value; it also rejects NaN. A bulk
            # check costs more in CPython 3.11: min and max each take about
            # as long as this loop, and a sum is still needed to catch NaN.
            for value in self.confidences:
                if not 0.0 <= value <= 1.0:
                    raise VotingError(
                        f"engine {self.engine_id!r}: confidence {value!r} outside [0, 1]"
                    )


@dataclass(frozen=True)
class VotingConfig:
    """pivot is "longest" (the first of the longest texts), "first", or the
    id of the engine whose text is the pivot."""

    min_voters: int = 2
    tie_break: str = "first_voter"
    pivot: str = "longest"

    def __post_init__(self):
        if self.min_voters < 2:
            raise VotingError(f"min_voters must be >= 2, got {self.min_voters}")
        if self.tie_break not in TIE_BREAKS:
            raise VotingError(f"unknown tie_break {self.tie_break!r}")


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
    if config.pivot != "longest":
        for i, out in enumerate(outputs):
            if out.engine_id == config.pivot:
                return i
        raise VotingError(f"pivot engine {config.pivot!r} not among voters")
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


class _Edits:
    """One voter's edits against the pivot (AlignmentResult.edits).

    Slot keys: 2*g is the gap before pivot character g, 2*i+1 is pivot
    character i, so sorted keys follow the text.
    """

    def __init__(self, index: int, voter: VoterOutput, edits: Sequence[Edit]) -> None:
        self.index = index
        self.voter = voter
        # slot key -> voter range cast there: empty for a deletion, one
        # character for a substitution, the inserted characters at a gap
        self.spans: dict[int, tuple[int, int]] = {}
        # A voter character matched to pivot character i sits at
        # i + shifts[k], k the last index with starts[k] <= i.
        self.starts = [0]
        self.shifts = [0]
        # pivot and voter characters before the edit, and its two characters
        for p, q, pivot_c, voter_c in edits:
            if pivot_c and voter_c:  # a substitution
                self.spans[2 * p + 1] = (q, q + 1)
                continue
            if not pivot_c:  # an insertion
                key = 2 * p
                self.spans[key] = (self.spans.get(key, (q, q))[0], q + 1)
                q += 1
            else:  # a deletion
                self.spans[2 * p + 1] = (q, q)
                p += 1
            # insertions and deletions shift the matches after them
            self.starts.append(p)
            self.shifts.append(q - p)

    def vote(self, key: int, pivot_text: str) -> tuple[str, float]:
        """The symbol this voter casts at a slot, and its confidence."""
        text, conf = self.voter.text, self.voter.confidences
        span = self.spans.get(key)
        if span is None:
            if not key & 1:
                return "", 0.0
            i = key >> 1
            q = i + self.shifts[bisect_right(self.starts, i) - 1]
            return pivot_text[i], conf[q] if conf is not None else 0.0
        q0, q1 = span
        if conf is None or q0 == q1:
            return text[q0:q1], 0.0
        return text[q0:q1], conf[q0] if key & 1 else _mean(conf[q0:q1])


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
    text = pivot.text
    voters = [
        _Edits(v_idx, voter, align(text, voter.text).edits)
        for v_idx, voter in enumerate(outputs)
        if v_idx != pivot_idx
    ]
    contested = set().union(*(v.spans for v in voters))
    if not contested:
        return VoterOutput(VOTED_ENGINE_ID, text)

    pieces: list[str] = []
    done = 0  # pivot characters already in pieces
    for key in sorted(contested):
        pos = key >> 1
        # The pivot votes its own text: its character, or no insertion.
        if key & 1:
            slot = _Slot({}, {}, text[pos])
            conf = pivot.confidences[pos] if pivot.confidences is not None else 0.0
            slot.cast(text[pos], pivot_idx, conf)
        else:
            slot = _Slot({}, {}, "")
            slot.cast("", pivot_idx, 0.0)
        for voter in voters:
            symbol, conf = voter.vote(key, text)
            slot.cast(symbol, voter.index, conf)
        pieces.append(text[done:pos])
        pieces.append(_resolve(slot, config))
        done = pos + (key & 1)
    pieces.append(text[done:])
    return VoterOutput(VOTED_ENGINE_ID, "".join(pieces))
