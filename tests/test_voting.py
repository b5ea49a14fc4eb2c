from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraktur_bench.errors import VotingError
from fraktur_bench.voting import (
    VOTED_ENGINE_ID,
    VoterOutput,
    VotingConfig,
    vote_line,
)

line_text = st.text(alphabet="abc ", max_size=12)


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
