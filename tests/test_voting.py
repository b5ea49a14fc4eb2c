from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraktur_bench.align import OpKind, align
from fraktur_bench.errors import VotingError
from fraktur_bench.voting import (
    TIE_BREAKS,
    VOTED_ENGINE_ID,
    VoterOutput,
    VotingConfig,
    vote_line,
)

line_text = st.text(alphabet="abc ", max_size=12)

# Confidences whose sums tie exactly (0.25 + 0.5 == 0.75) and ones that
# only nearly tie (0.1 + 0.2 != 0.3), so both kinds of tie occur.
CONFIDENCES = (0.1, 0.2, 0.25, 0.3, 0.5, 0.75)


# Reference voter: every slot and gap built and resolved, as the
# straightforward design does. vote_line must give the same text.


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


def reference_vote(outputs: Sequence[VoterOutput], config: VotingConfig) -> VoterOutput:
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


def every_config(outputs: Sequence[VoterOutput]):
    """Every tie-break under the longest, the first and each engine's pivot."""
    for tie_break in TIE_BREAKS:
        yield VotingConfig(tie_break=tie_break, pivot="longest")
        yield VotingConfig(tie_break=tie_break, pivot="first")
        for out in outputs:
            yield VotingConfig(tie_break=tie_break, pivot="engine", pivot_engine=out.engine_id)


def outcome(vote, outputs: Sequence[VoterOutput], config: VotingConfig):
    try:
        return vote(outputs, config).text
    except VotingError as exc:
        return f"VotingError: {exc}"


def assert_votes_like_reference(outputs: Sequence[VoterOutput]) -> None:
    for config in every_config(outputs):
        assert outcome(vote_line, outputs, config) == outcome(reference_vote, outputs, config), config


@st.composite
def tie_heavy_voters(draw) -> list[VoterOutput]:
    """2-5 short voters over 1-4 letters, empty texts included; each with
    drawn confidences, or without any."""
    alphabet = "abcd"[: draw(st.integers(min_value=1, max_value=4))]
    outputs = []
    for i in range(draw(st.integers(min_value=2, max_value=5))):
        text = draw(st.text(alphabet=alphabet, max_size=8))
        confidences = draw(
            st.none()
            | st.lists(st.sampled_from(CONFIDENCES), min_size=len(text), max_size=len(text)).map(tuple)
        )
        outputs.append(VoterOutput(f"e{i}", text, confidences))
    return outputs


def noisy_copy(rng: random.Random, text: str, rate: float, alphabet: str) -> str:
    out = []
    for ch in text:
        r = rng.random()
        if r < rate:  # delete
            continue
        if r < 2 * rate:  # substitute
            out.append(rng.choice(alphabet))
            continue
        if r < 3 * rate:  # insert before
            out.append(rng.choice(alphabet))
        out.append(ch)
    return "".join(out)


def voters(*texts: str) -> list[VoterOutput]:
    return [VoterOutput(f"e{i}", t) for i, t in enumerate(texts)]


class TestVoterOutput:
    def test_confidence_length_must_match(self):
        with pytest.raises(VotingError, match="confidence"):
            VoterOutput("e", "abc", (0.5, 0.5))

    def test_confidence_range(self):
        with pytest.raises(VotingError):
            VoterOutput("e", "a", (1.5,))

    def test_engine_id_required(self):
        with pytest.raises(VotingError):
            VoterOutput("", "a")


class TestVotingConfig:
    def test_min_voters_floor(self):
        with pytest.raises(VotingError):
            VotingConfig(min_voters=1)

    def test_engine_pivot_needs_id(self):
        with pytest.raises(VotingError):
            VotingConfig(pivot="engine")

    def test_unknown_tie_break(self):
        with pytest.raises(VotingError):
            VotingConfig(tie_break="coin_flip")

    def test_unknown_pivot(self):
        with pytest.raises(VotingError):
            VotingConfig(pivot="shortest")


class TestVoteLine:
    def test_insufficient_voters(self):
        with pytest.raises(VotingError, match="insufficient voters: got 2, need 3"):
            vote_line(voters("ab", "ab"), VotingConfig(min_voters=3))

    def test_unanimous(self):
        out = vote_line(voters("Wort", "Wort", "Wort"), VotingConfig())
        assert out.text == "Wort"
        assert out.engine_id == VOTED_ENGINE_ID

    def test_majority_substitution(self):
        out = vote_line(voters("Wort", "Wort", "Wert"), VotingConfig())
        assert out.text == "Wort"

    def test_majority_deletion(self):
        out = vote_line(voters("Wrt", "Wort", "Wrt"), VotingConfig())
        assert out.text == "Wrt"

    def test_majority_insertion(self):
        out = vote_line(voters("Wort", "Wot", "Wort"), VotingConfig())
        assert out.text == "Wort"

    def test_minority_space_deletion_is_outvoted(self):
        out = vote_line(voters("in dem", "indem", "in dem"), VotingConfig())
        assert out.text == "in dem"

    def test_single_char_corruptions_cancel_out(self):
        # each minority voter is one edit away from the honest pair
        base = "Morgenstunde"
        for bad in ("Mrgenstunde", "Morgenstunden", "Mergenstunde"):
            out = vote_line(voters(base, bad, base), VotingConfig())
            assert out.text == base

    def test_confidence_tie_break(self):
        outputs = [
            VoterOutput("e0", "ab", (0.9, 0.9)),
            VoterOutput("e1", "ac", (0.9, 0.99)),
        ]
        out = vote_line(outputs, VotingConfig(tie_break="confidence"))
        assert out.text == "ac"

    def test_confidence_requires_all_confidences(self):
        outputs = [
            VoterOutput("e0", "ab", (0.9, 0.9)),
            VoterOutput("e1", "ac"),
        ]
        with pytest.raises(VotingError, match="e1"):
            vote_line(outputs, VotingConfig(tie_break="confidence"))

    def test_confidence_exact_tie_falls_to_first_voter(self):
        outputs = [
            VoterOutput("e0", "ab", (0.9, 0.5)),
            VoterOutput("e1", "ac", (0.9, 0.5)),
        ]
        out = vote_line(outputs, VotingConfig(tie_break="confidence"))
        assert out.text == "ab"

    def test_first_voter_tie_break(self):
        out = vote_line(voters("ab", "ac"), VotingConfig(tie_break="first_voter"))
        assert out.text == "ab"

    def test_abstain_to_pivot(self):
        # pivot is e0 (equal lengths fall to the first longest)
        out = vote_line(voters("ab", "ac"), VotingConfig(tie_break="abstain_to_pivot"))
        assert out.text == "ab"

    def test_pivot_by_engine(self):
        config = VotingConfig(pivot="engine", pivot_engine="e1", tie_break="abstain_to_pivot")
        out = vote_line(voters("ab", "ac"), config)
        assert out.text == "ac"

    def test_pivot_engine_absent(self):
        config = VotingConfig(pivot="engine", pivot_engine="zz")
        with pytest.raises(VotingError, match="zz"):
            vote_line(voters("ab", "ac"), config)

    def test_longest_pivot_keeps_majority_insertions(self):
        # two voters agree on the long form; the short voter cannot veto
        out = vote_line(voters("Handschrift", "Handschrift", "Handschrft"), VotingConfig())
        assert out.text == "Handschrift"

    def test_two_voter_gap_tie_goes_to_pivot_side_with_first_voter(self):
        # voter e1 inserts an x the pivot lacks; 1-1 tie on that gap
        out = vote_line(voters("abcd", "abxcd"), VotingConfig(pivot="first"))
        assert out.text == "abcd"

    @settings(max_examples=300)
    @given(line_text, st.integers(min_value=2, max_value=5))
    def test_unanimity_property(self, text, n):
        out = vote_line(voters(*[text] * n), VotingConfig())
        assert out.text == text

    @settings(max_examples=300)
    @given(line_text, line_text, st.integers(min_value=1, max_value=3))
    def test_majority_dominance_property(self, good, bad, extra):
        # strict majority for `good`: extra+1 copies vs one dissenter
        outs = voters(*([good] * (extra + 1) + [bad]))
        assert vote_line(outs, VotingConfig()).text == good

    @settings(max_examples=200)
    @given(line_text, line_text)
    def test_duplication_idempotence(self, a, b):
        # duplicating every voter must not change the outcome
        once = vote_line(voters(a, b, a), VotingConfig())
        twice = vote_line(voters(a, b, a, a, b, a), VotingConfig())
        assert once.text == twice.text


class TestMatchesReference:
    """vote_line builds slots only where voters disagree; the text it votes
    must be the reference voter's, tie-breaks and float sums included."""

    @settings(max_examples=600)
    @given(tie_heavy_voters())
    def test_tie_heavy_voters(self, outputs):
        assert_votes_like_reference(outputs)

    @pytest.mark.parametrize(
        "texts",
        [
            ("", ""),
            ("", "a"),
            ("", "ab", "ba"),
            ("ab", "", ""),
            ("", "", "a", "a"),
            ("aa", "a", "aaa", "", "a"),
        ],
    )
    def test_empty_texts(self, texts):
        for confidences in (False, True):
            outputs = [
                VoterOutput(f"e{i}", t, (0.25,) * len(t) if confidences else None)
                for i, t in enumerate(texts)
            ]
            assert_votes_like_reference(outputs)

    def test_confidence_sums_in_cast_order(self):
        # Summed pivot first, then by voter index: a = (0.1 + 0.1) + 0.25
        # = 0.45 beats b = (0.25 + 0.1) + 0.1 = 0.44999999999999996. Summed
        # with the voters in reverse, b would win 0.45 to 0.44999999999999996.
        outputs = [
            VoterOutput(f"e{i}", t, (c,))
            for i, (t, c) in enumerate(zip("aabbab", (0.1, 0.1, 0.25, 0.1, 0.25, 0.1)))
        ]
        config = VotingConfig(tie_break="confidence")
        assert vote_line(outputs, config).text == reference_vote(outputs, config).text == "a"

    def test_long_lines_with_errors_near_both_ends(self):
        rng = random.Random(20262)
        alphabet = "abcdefgh ſßäö"
        for _ in range(30):
            base = "".join(rng.choice(alphabet) for _ in range(rng.randint(150, 450)))
            outputs = []
            for i in range(rng.randint(2, 5)):
                text = noisy_copy(rng, base, rng.choice((0.0, 0.005, 0.02, 0.08)), alphabet)
                head = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 2)))
                tail = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 2)))
                text = head + text[rng.randint(0, 2):len(text) - rng.randint(0, 2)] + tail
                confidences = tuple(rng.choice(CONFIDENCES) for _ in text)
                outputs.append(VoterOutput(f"e{i}", text, confidences))
            assert_votes_like_reference(outputs)
