from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraktur_bench import voting
from fraktur_bench.align import OpKind, align, align_many
from fraktur_bench.errors import VotingError
from fraktur_bench.voting import (
    TIE_BREAKS,
    VOTED_ENGINE_ID,
    VoterOutput,
    VotingConfig,
    _Edits,
    vote_lines,
)

line_text = st.text(alphabet="abc ", max_size=12)


def vote_one(outputs: Sequence[VoterOutput], config: VotingConfig) -> str:
    """The voted text of one line."""
    return vote_lines((outputs,), config)[0]

# Confidences whose sums tie exactly (0.25 + 0.5 == 0.75) and ones that
# only nearly tie (0.1 + 0.2 != 0.3), so both kinds of tie occur.
CONFIDENCES = (0.1, 0.2, 0.25, 0.3, 0.5, 0.75)


# Reference voter: every slot and gap built and resolved, as the
# straightforward design does. vote_lines must give the same text.


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
            yield VotingConfig(tie_break=tie_break, pivot=out.engine_id)


def outcome(vote, outputs: Sequence[VoterOutput], config: VotingConfig):
    try:
        return vote(outputs, config)
    except VotingError as exc:
        return f"VotingError: {exc}"


def reference_text(outputs: Sequence[VoterOutput], config: VotingConfig) -> str:
    return reference_vote(outputs, config).text


def assert_votes_like_reference(outputs: Sequence[VoterOutput]) -> None:
    for config in every_config(outputs):
        assert outcome(vote_one, outputs, config) == outcome(reference_text, outputs, config), config


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


@st.composite
def noisy_copies(draw) -> list[VoterOutput]:
    """3-7 noisy copies of one 20-80 character text over 2-4 letters, all
    with drawn confidences or none: most contested slots have one
    dissenter, which the pivot's symbol outvotes."""
    alphabet = "abcd"[: draw(st.integers(min_value=2, max_value=4))]
    base = draw(st.text(alphabet=alphabet, min_size=20, max_size=80))
    rng = draw(st.randoms(use_true_random=False))
    rate = draw(st.sampled_from((0.01, 0.03, 0.08)))
    with_confidences = draw(st.booleans())
    outputs = []
    for i in range(draw(st.integers(min_value=3, max_value=7))):
        text = noisy_copy(rng, base, rate, alphabet)
        confidences = tuple(rng.choice(CONFIDENCES) for _ in text) if with_confidences else None
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

    @pytest.mark.parametrize(
        "confidences, bad",
        [
            ((float("nan"), 0.5, 0.5), "nan"),
            ((0.5, 0.5, float("nan")), "nan"),  # min and max of these are in range
            ((0.5, float("inf"), 0.5), "inf"),
            ((0.5, float("-inf"), 0.5), "-inf"),
            ((-0.1, 0.5, 1.5), "-0.1"),  # the first value out of range is named
            ((0.5, 1.5, -0.1), "1.5"),
            ((1.0000001, 0.0, 1.0), "1.0000001"),
        ],
        ids=["nan-first", "nan-later", "inf", "minus-inf", "low-then-high",
             "high-then-low", "just-above-one"],
    )
    def test_confidence_out_of_range_message(self, confidences, bad):
        with pytest.raises(VotingError) as err:
            VoterOutput("e", "abc", confidences)
        assert str(err.value) == f"engine 'e': confidence {bad} outside [0, 1]"

    @pytest.mark.parametrize("confidences", [(), (0.0,), (1.0,), (0.0, 1.0, 0.5)])
    def test_confidence_bounds_accepted(self, confidences):
        assert VoterOutput("e", "x" * len(confidences), confidences).confidences == confidences


class TestVotingConfig:
    def test_min_voters_floor(self):
        with pytest.raises(VotingError):
            VotingConfig(min_voters=1)

    def test_unknown_tie_break(self):
        with pytest.raises(VotingError):
            VotingConfig(tie_break="coin_flip")

    def test_unknown_pivot(self):
        # a pivot other than "longest" and "first" names an engine
        config = VotingConfig(pivot="shortest")
        with pytest.raises(VotingError, match="^pivot engine 'shortest' not among voters$"):
            vote_one(voters("ab", "ac"), config)


class TestVoteLine:
    def test_insufficient_voters(self):
        with pytest.raises(VotingError, match="insufficient voters: got 2, need 3"):
            vote_one(voters("ab", "ab"), VotingConfig(min_voters=3))

    def test_unanimous(self):
        out = vote_one(voters("Wort", "Wort", "Wort"), VotingConfig())
        assert out == "Wort"

    def test_majority_substitution(self):
        out = vote_one(voters("Wort", "Wort", "Wert"), VotingConfig())
        assert out == "Wort"

    def test_majority_deletion(self):
        out = vote_one(voters("Wrt", "Wort", "Wrt"), VotingConfig())
        assert out == "Wrt"

    def test_majority_insertion(self):
        out = vote_one(voters("Wort", "Wot", "Wort"), VotingConfig())
        assert out == "Wort"

    def test_minority_space_deletion_is_outvoted(self):
        out = vote_one(voters("in dem", "indem", "in dem"), VotingConfig())
        assert out == "in dem"

    def test_single_char_corruptions_cancel_out(self):
        # each minority voter is one edit away from the honest pair
        base = "Morgenstunde"
        for bad in ("Mrgenstunde", "Morgenstunden", "Mergenstunde"):
            out = vote_one(voters(base, bad, base), VotingConfig())
            assert out == base

    def test_confidence_tie_break(self):
        outputs = [
            VoterOutput("e0", "ab", (0.9, 0.9)),
            VoterOutput("e1", "ac", (0.9, 0.99)),
        ]
        out = vote_one(outputs, VotingConfig(tie_break="confidence"))
        assert out == "ac"

    def test_confidence_requires_all_confidences(self):
        outputs = [
            VoterOutput("e0", "ab", (0.9, 0.9)),
            VoterOutput("e1", "ac"),
        ]
        with pytest.raises(VotingError, match="e1"):
            vote_one(outputs, VotingConfig(tie_break="confidence"))

    def test_confidence_exact_tie_falls_to_first_voter(self):
        outputs = [
            VoterOutput("e0", "ab", (0.9, 0.5)),
            VoterOutput("e1", "ac", (0.9, 0.5)),
        ]
        out = vote_one(outputs, VotingConfig(tie_break="confidence"))
        assert out == "ab"

    def test_first_voter_tie_break(self):
        out = vote_one(voters("ab", "ac"), VotingConfig(tie_break="first_voter"))
        assert out == "ab"

    def test_abstain_to_pivot(self):
        # pivot is e0 (equal lengths fall to the first longest)
        out = vote_one(voters("ab", "ac"), VotingConfig(tie_break="abstain_to_pivot"))
        assert out == "ab"

    def test_pivot_by_engine(self):
        config = VotingConfig(pivot="e1", tie_break="abstain_to_pivot")
        out = vote_one(voters("ab", "ac"), config)
        assert out == "ac"

    def test_pivot_engine_absent(self):
        config = VotingConfig(pivot="zz")
        with pytest.raises(VotingError, match="zz"):
            vote_one(voters("ab", "ac"), config)

    def test_longest_pivot_keeps_majority_insertions(self):
        # two voters agree on the long form; the short voter cannot veto
        out = vote_one(voters("Handschrift", "Handschrift", "Handschrft"), VotingConfig())
        assert out == "Handschrift"

    def test_two_voter_gap_tie_goes_to_pivot_side_with_first_voter(self):
        # voter e1 inserts an x the pivot lacks; 1-1 tie on that gap
        out = vote_one(voters("abcd", "abxcd"), VotingConfig(pivot="first"))
        assert out == "abcd"

    @settings(max_examples=300)
    @given(line_text, st.integers(min_value=2, max_value=5))
    def test_unanimity_property(self, text, n):
        out = vote_one(voters(*[text] * n), VotingConfig())
        assert out == text

    @settings(max_examples=300)
    @given(line_text, line_text, st.integers(min_value=1, max_value=3))
    def test_majority_dominance_property(self, good, bad, extra):
        # strict majority for `good`: extra+1 copies vs one dissenter
        outs = voters(*([good] * (extra + 1) + [bad]))
        assert vote_one(outs, VotingConfig()) == good

    @settings(max_examples=200)
    @given(line_text, line_text)
    def test_duplication_idempotence(self, a, b):
        # duplicating every voter must not change the outcome
        once = vote_one(voters(a, b, a), VotingConfig())
        twice = vote_one(voters(a, b, a, a, b, a), VotingConfig())
        assert once == twice


class TestVoterRecords:
    """vote_lines takes a line's voters as VoterOutputs or as plain
    (engine_id, text, confidences) tuples, and builds their records as part
    of the line's check."""

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_tuples_vote_like_records(self, tie_break):
        lines = [
            [("e0", "Haus", (0.9, 0.8, 0.4, 0.7)), ("e1", "Hans", (0.9, 0.8, 0.6, 0.7))],
            [("e0", "Sonne", (0.5,) * 5), ("e1", "Somne", (0.6,) * 5), ("e2", "Sonue", (0.7,) * 5)],
        ]
        records = [[VoterOutput(*voter) for voter in line] for line in lines]
        config = VotingConfig(tie_break=tie_break)
        assert vote_lines(lines, config) == vote_lines(records, config)

    def test_a_bad_record_names_its_line(self):
        lines = [[("e0", "ab", None), ("e1", "ab", None)],
                 [("e0", "ab", (0.5, 0.5)), ("e1", "ab", (0.5, 1.5))]]
        with pytest.raises(VotingError) as err:
            vote_lines(lines, VotingConfig())
        assert err.value.line == 1
        assert str(err.value) == "engine 'e1': confidence 1.5 outside [0, 1]"


class CountedConfidences(tuple):
    """Confidences that count the reads of their items and slices."""

    def __new__(cls, values):
        self = super().__new__(cls, values)
        self.reads = 0
        return self

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def counted_voters(*texts: str) -> list[VoterOutput]:
    return [
        VoterOutput(f"e{i}", t, CountedConfidences([0.5] * len(t))) for i, t in enumerate(texts)
    ]


class TestConfidenceReads:
    """A slot is decided by its symbols; confidences are read only where
    its leaders tie under the confidence tie-break."""

    def test_no_tie_reads_none(self):
        outputs = counted_voters("Die Sonne scheint", "Die Sonne schient", "Dle Sonne scheint")
        assert vote_one(outputs, VotingConfig(tie_break="confidence")) == "Die Sonne scheint"
        assert [o.confidences.reads for o in outputs] == [0, 0, 0]

    @pytest.mark.parametrize("tie_break, reads", [("confidence", [1, 1]), ("first_voter", [0, 0]),
                                                   ("abstain_to_pivot", [0, 0])])
    def test_a_tie_reads_only_the_tied_casts(self, tie_break, reads):
        outputs = [VoterOutput("e0", "abc", CountedConfidences([0.5, 0.5, 0.4])),
                   VoterOutput("e1", "abd", CountedConfidences([0.5, 0.5, 0.9]))]
        expected = "abd" if tie_break == "confidence" else "abc"
        assert vote_one(outputs, VotingConfig(tie_break=tie_break)) == expected
        assert [o.confidences.reads for o in outputs] == reads


class TestSlotsResolved:
    """Only a slot where at least half the voters have an edit is
    resolved; elsewhere the pivot's symbol holds a strict majority."""

    @pytest.mark.parametrize("tie_break", ["first_voter", "abstain_to_pivot"])
    @pytest.mark.parametrize(
        "texts, resolved",
        [
            (("Die Sonne scheint", "Die Sonne schient", "Dle Sonne scheint"), 0),
            (("Haus", "Hans", "Hans"), 1),
            (("Haus", "Hans", "Hals", "Haus"), 1),  # 2 of 4 edit: a 2-2 split is possible
            (("Haus", "Hans", "Hals", "Haus", "Haus"), 0),
            (("Haus", "Hans"), 1),
        ],
    )
    def test_resolve_calls(self, monkeypatch, tie_break, texts, resolved):
        calls = []
        resolve = voting._resolve

        def spy(*args):
            calls.append(args[0])
            return resolve(*args)

        monkeypatch.setattr(voting, "_resolve", spy)
        outputs = voters(*texts)
        config = VotingConfig(tie_break=tie_break)
        assert vote_one(outputs, config) == reference_text(outputs, config)
        assert len(calls) == resolved


class TestMatchesReference:
    """vote_lines resolves only the slots where at least half the voters
    edit; the text it votes must be the reference voter's, which resolves
    every slot, tie-breaks and float sums included."""

    @settings(max_examples=600)
    @given(tie_heavy_voters())
    def test_tie_heavy_voters(self, outputs):
        assert_votes_like_reference(outputs)

    @settings(max_examples=120, deadline=None)
    @given(noisy_copies())
    def test_noisy_copies_of_one_text(self, outputs):
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
        assert vote_one(outputs, config) == reference_text(outputs, config) == "a"

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


def replayed_ranges(pivot: str, edits) -> list[tuple[int, int]]:
    """The voter range cast at each slot key 0..2*len(pivot), replayed one
    slot at a time from the edits: a gap takes the insertions at its pivot
    position, a character slot one substitution or deletion there, or else
    one matched character."""
    ranges = []
    p = q = 0
    todo = list(edits)
    for key in range(2 * len(pivot) + 1):
        start = q
        if key & 1:
            if todo and todo[0][0] == p and todo[0][2]:
                _, at, _, voter_c = todo.pop(0)
                assert at == q
                q += len(voter_c)
            else:
                q += 1
            p += 1
        else:
            while todo and todo[0][0] == p and not todo[0][2]:
                assert todo.pop(0)[1] == q
                q += 1
        ranges.append((start, q))
    assert not todo
    return ranges


@st.composite
def pivot_voter_pairs(draw) -> tuple[str, str]:
    """A pivot and a voter over 1-3 letters: the voter drawn freely, or
    the pivot with characters cut and added at both ends."""
    alphabet = "abc"[: draw(st.integers(min_value=1, max_value=3))]
    pivot = draw(st.text(alphabet=alphabet, max_size=10))
    ends = st.text(alphabet=alphabet, max_size=3)
    cut = st.integers(min_value=0, max_value=3)
    head, tail, front, back = draw(ends), draw(ends), draw(cut), draw(cut)
    edited = head + pivot[front : max(front, len(pivot) - back)] + tail
    return pivot, draw(st.sampled_from((edited, pivot)) | st.text(alphabet=alphabet, max_size=10))


class TestEditsAtEverySlot:
    """A voter's symbol and confidence at every slot, not only at the tied
    ones that vote_lines reads, are those of the voter range its edits
    cast there; the pivot's own, with no edits, casts its own text."""

    @settings(max_examples=600)
    @given(pivot_voter_pairs())
    def test_slots_match_replayed_edits(self, pair):
        pivot, text = pair
        # distinct confidences, so that reading a neighbour's shows
        voter = VoterOutput("v", text, tuple((j + 1) / 64 for j in range(len(text))))
        own = VoterOutput("p", pivot, tuple((j + 1) / 64 for j in range(len(pivot))))
        for out, edits in ((voter, align_many([(pivot, text)])[0].edits), (own, ())):
            cast = _Edits(0, out, edits)
            for key, (q0, q1) in enumerate(replayed_ranges(pivot, edits)):
                assert cast.symbol(key, pivot) == out.text[q0:q1], key
                conf = out.confidences[q0:q1]
                assert cast.confidence(key) == (sum(conf) / len(conf) if conf else 0.0), key
