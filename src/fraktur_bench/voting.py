"""Alignment-based sequence voting across engine outputs.

One output is chosen as the pivot (by default the longest, which loses the
fewest insertion slots) and every other voter is aligned to it. The pivot
text defines L character slots and L+1 insertion gaps; each voter casts
exactly one vote per slot (its aligned character, or nothing for a
deletion) and one per gap (the characters it inserts there, usually
nothing). The symbol with a strict majority wins a slot; a unique
plurality also wins; remaining ties fall to the configured tie-break.

Each voter keeps its edits as its alignment result records them, with
the slot key of each; the edits it casts at a slot are the run of that
key, found by bisection. Only a slot where at least half the voters have
an edit is resolved, and its result spliced into the pivot text; every
other slot keeps the pivot's text at no cost. That is exact: a voter
with no edit at a slot casts the pivot's symbol and a voter with an edit
casts another, so with edits from fewer than half of the n voters the
pivot's symbol has a strict majority, which wins under every tie-break
without a confidence read. A resolved slot is decided by its voters'
symbols; their confidences are read only where the leaders tie under the
confidence tie-break, and then summed in cast order (the pivot first,
then the voters by index), which fixes how each sum rounds. The pivot
casts through the same rule as every voter, as a voter with no edits:
its own character (and confidence) at a character slot, no insertion at
a gap.

vote_lines votes many lines in three passes: it checks every line (voter
count, confidences when the tie-break needs them, the pivot engine), then
aligns all their voters at once, so that the kernel packs many pivot/voter
pairs into each run (align.align_many), then resolves each line's slots.

This is star alignment, linear in the number of voters, not a full
multiple sequence alignment.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from collections.abc import Iterable, Sequence

from .align import Edit, align_many
from .errors import VotingError

VOTED_ENGINE_ID = "voted"

TIE_BREAKS = ("first_voter", "confidence", "abstain_to_pivot")


class VoterOutput(namedtuple("VoterOutput", "engine_id text confidences", defaults=(None,))):
    """One engine's text for a line, optionally with per-character confidences."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
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
        return self


class VotingConfig(
    namedtuple("VotingConfig", "min_voters tie_break pivot", defaults=(2, "first_voter", "longest"))
):
    """pivot is "longest" (the first of the longest texts), "first", or the
    id of the engine whose text is the pivot."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.min_voters < 2:
            raise VotingError(f"min_voters must be >= 2, got {self.min_voters}")
        if self.tie_break not in TIE_BREAKS:
            raise VotingError(f"unknown tie_break {self.tie_break!r}")
        return self


def _pick_pivot(outputs: Sequence[VoterOutput], config: VotingConfig) -> int:
    """The index of the pivot among a line's outputs, after the checks the
    line must pass before it is voted."""
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
    if config.pivot == "first":
        return 0
    if config.pivot != "longest":
        for i, out in enumerate(outputs):
            if out.engine_id == config.pivot:
                return i
        raise VotingError(f"pivot engine {config.pivot!r} not among voters")
    return max(range(len(outputs)), key=lambda i: len(outputs[i].text))


def _resolve(key: int, text: str, voters: Sequence[_Edits], config: VotingConfig) -> str:
    """The symbol the voters, the pivot's first, elect at slot key. A symbol
    is one character (slots), the inserted characters (gaps), or "" for no
    opinion. Confidences are read only where the leaders tie under the
    confidence tie-break."""
    symbols = [v.symbol(key, text) for v in voters]
    votes: dict[str, int] = {}
    for symbol in symbols:
        votes[symbol] = votes.get(symbol, 0) + 1
    top = max(votes.values())
    leaders = sorted(sym for sym, n in votes.items() if n == top)
    if len(leaders) == 1:
        return leaders[0]
    if config.tie_break == "abstain_to_pivot":
        return symbols[0]
    if config.tie_break == "confidence":
        # each leader's confidences, summed in cast order
        confidence = dict.fromkeys(leaders, 0.0)
        for v, symbol in zip(voters, symbols):
            if symbol in confidence:
                confidence[symbol] += v.confidence(key)
        best = max(confidence.values())
        leaders = [s for s in leaders if confidence[s] == best]
        if len(leaders) == 1:
            return leaders[0]
    # first_voter, and the fallback for exact confidence ties: the leader
    # cast by the voter with the lowest index
    return min((v.index, symbol) for v, symbol in zip(voters, symbols) if symbol in leaders)[1]


class _Edits:
    """One voter's edits against the pivot, as align_many returns them, and
    keys, their slot keys: 2*g is the gap before pivot character g, 2*i+1
    is pivot character i. Edits come in script order, so keys is sorted.
    The edits a voter casts at a slot are the run of its key: none, one
    substitution or deletion, or its insertions, consecutive in its text.
    """

    def __init__(self, index: int, voter: VoterOutput, edits: Sequence[Edit]) -> None:
        self.index = index
        self.voter = voter
        # pivot and voter characters before each edit, and its two characters
        self.edits = edits
        self.keys = [2 * p + (pivot_c != "") for p, _, pivot_c, _ in edits]

    def symbol(self, key: int, pivot_text: str) -> str:
        """This voter's symbol at a slot."""
        keys = self.keys
        lo = bisect_left(keys, key)
        if key & 1:
            return self.edits[lo][3] if lo < len(keys) and keys[lo] == key else pivot_text[key >> 1]
        n = bisect_right(keys, key, lo) - lo
        q = self.edits[lo][1] if n else 0
        return self.voter.text[q : q + n]

    def confidence(self, key: int) -> float:
        """This voter's confidence at a slot: its character's at a character
        slot, the mean of its inserted characters' at a gap, 0.0 where it
        casts nothing. Only the confidence tie-break reads it, and there
        every voter has confidences."""
        conf = self.voter.confidences
        lo = bisect_left(self.keys, key)
        hi = bisect_right(self.keys, key, lo)
        if lo < hi:
            _, q, _, voter_c = self.edits[lo]
            if not key & 1:
                return sum(conf[q : q + hi - lo]) / (hi - lo)
            return conf[q] if voter_c else 0.0
        if not key & 1:
            return 0.0
        # A matched character sits as far past the pivot's as the last edit
        # before the slot left it.
        p, q, pivot_c, voter_c = self.edits[lo - 1] if lo else (0, 0, "", "")
        return conf[(key >> 1) + q + (voter_c != "") - p - (pivot_c != "")]


def vote_lines(lines: Iterable[Sequence[VoterOutput | Sequence]], config: VotingConfig) -> list[str]:
    """The voted text of each line, given as its voters: VoterOutputs or
    (engine_id, text, confidences) sequences.

    lines is read once, in order, and each line is checked as it is read,
    before the next one is built; building its voters' records is part of
    the check. So the first bad line raises, whether lines raises while
    building it or the check rejects it. A rejected line's VotingError
    carries its index in lines as .line. Only then are the non-pivot voters
    of every line aligned to their pivots, in one align_many call, and each
    line's slots resolved.
    """
    checked = []
    for index, voters in enumerate(lines):
        try:
            outputs = [VoterOutput(*voter) for voter in voters]
            checked.append((outputs, _pick_pivot(outputs, config)))
        except VotingError as exc:
            raise VotingError(str(exc), line=index) from None
    results = iter(
        align_many(
            [
                (outputs[pivot_idx].text, voter.text)
                for outputs, pivot_idx in checked
                for v_idx, voter in enumerate(outputs)
                if v_idx != pivot_idx
            ]
        )
    )
    texts = []
    for outputs, pivot_idx in checked:
        pivot = outputs[pivot_idx]
        voters = [_Edits(pivot_idx, pivot, ())] + [
            _Edits(v_idx, voter, next(results).edits)
            for v_idx, voter in enumerate(outputs)
            if v_idx != pivot_idx
        ]
        texts.append(_voted_text(pivot.text, voters, config))
    return texts


def _voted_text(text: str, voters: Sequence[_Edits], config: VotingConfig) -> str:
    """The pivot's text with each slot where at least half the voters have
    an edit replaced by its result; voters starts with the pivot's own,
    which has no edits."""
    editors: dict[int, int] = {}  # slot key -> voters with an edit there
    for v in voters:
        for key in dict.fromkeys(v.keys):  # a voter's insertions repeat a key
            editors[key] = editors.get(key, 0) + 1
    n = len(voters)

    pieces: list[str] = []
    done = 0  # pivot characters already in pieces
    for key in sorted(k for k, count in editors.items() if 2 * count >= n):
        pos = key >> 1
        pieces.append(text[done:pos])
        pieces.append(_resolve(key, text, voters, config))
        done = pos + (key & 1)
    pieces.append(text[done:])
    return "".join(pieces)
