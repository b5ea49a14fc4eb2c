from __future__ import annotations

import re
import unicodedata
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraktur_bench import normalize as normalize_module
from fraktur_bench.codec import Codec, default_codec, unescape_entry
from fraktur_bench.errors import (
    ConvergenceError,
    NormalizationError,
    RuleSetError,
)
from fraktur_bench.lines import TranscriptionLine
from fraktur_bench.normalize import (
    NormalizationRuleSet,
    default_rules,
    load_rules,
    normalize_line,
    normalize_text,
    parse_unmapped_policy,
)


def reference_fixpoint(text: str, rules: NormalizationRuleSet) -> str:
    """The fixpoint loop without any early stop: NFC, every rule top to
    bottom, NFC, repeated until a pass changes nothing, at most 8 passes."""
    current = text
    for _ in range(8):
        nxt = unicodedata.normalize("NFC", current)
        for source, target in rules.rules:
            nxt = nxt.replace(source, target)
        nxt = unicodedata.normalize("NFC", nxt)
        if nxt == current:
            return current
        current = nxt
    raise ConvergenceError(
        f"rule set {rules.name!r} did not converge after 8 passes on {text!r}"
    )


VECTORS = Path(__file__).parent / "data" / "normalization_vectors.tsv"


def load_vectors() -> list[tuple[str, str, str]]:
    rows = []
    for lineno, raw in enumerate(
        VECTORS.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not raw or raw.startswith("#"):
            continue
        label, source, target = raw.split("\t")
        rows.append(
            (
                label,
                unescape_entry(source, lineno, str(VECTORS)),
                unescape_entry(target, lineno, str(VECTORS)),
            )
        )
    return rows


class TestRuleSetConstruction:
    def test_keep_char_in_source_rejected(self):
        message = "rule 'ſ' -> 's' rewrites kept character 'ſ' (U+017F)"
        with pytest.raises(RuleSetError, match=f"^{re.escape(message)}$"):
            NormalizationRuleSet(rules=(("ſ", "s"),))

    def test_empty_source_rejected(self):
        with pytest.raises(RuleSetError, match="^rule with empty source$"):
            NormalizationRuleSet((("", "x"),))

    def test_checksum_changes_with_rules(self):
        a = NormalizationRuleSet(rules=(("x", "y"),))
        b = NormalizationRuleSet(rules=(("x", "z"),))
        assert a.checksum != b.checksum

    def test_checksum_separator_injection(self):
        # two rule lists that would collide under naive concatenation
        a = NormalizationRuleSet(rules=(("ab", "c"),))
        b = NormalizationRuleSet(rules=(("a", "bc"),))
        assert a.checksum != b.checksum

    def test_noncodec_targets(self):
        codec = Codec(characters=("a", "b", " "), name="t")
        rules = NormalizationRuleSet(rules=(("x", "q"), ("y", "a")))
        assert rules.noncodec_targets(codec) == [("x", "q")]
        with pytest.raises(RuleSetError, match="q"):
            rules.require_codec_closed(codec)


class TestRulesFileParsing:
    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("# hi\n\nx\ty\n", encoding="utf-8")
        rules = load_rules(path)
        assert rules.rules == (("x", "y"),)

    def test_empty_source_names_the_line(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("x\ty\n\tz\n", encoding="utf-8")
        with pytest.raises(RuleSetError, match=f"^{re.escape(str(path))}:2: rule with empty source$"):
            load_rules(path)

    def test_missing_tab_rejected(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("xy\n", encoding="utf-8")
        with pytest.raises(RuleSetError, match="tab"):
            load_rules(path)

    def test_empty_target_is_deletion(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("x\t\n", encoding="utf-8")
        rules = load_rules(path)
        assert rules.rules == (("x", ""),)
        assert normalize_text("axb", rules) == "ab"

    def test_escapes_in_rules(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("\\u00a0\t\\s\n", encoding="utf-8")
        rules = load_rules(path)
        assert normalize_text("a\u00a0b", rules) == "a b"


class TestNormalizeText:
    def test_rule_order_matters(self):
        rules = NormalizationRuleSet(rules=(("aa", "b"), ("a", "c")))
        # first rule consumes the pair before the second sees single chars
        assert normalize_text("aaa", rules) == "bc"

    def test_nfc_applied_before_rules(self):
        # decomposed a + combining circumflex must compose, then rewrite
        rules = NormalizationRuleSet(rules=(("\u00e2", "\u00e4"),))
        assert normalize_text("a\u0302", rules) == "\u00e4"

    def test_nfc_applied_after_rules(self):
        # ligature expansion can leave a combining mark next to a new base
        rules = NormalizationRuleSet(rules=(("\ufb01", "fi"),))
        out = normalize_text("\ufb01\u0301", rules)
        assert out == unicodedata.normalize("NFC", out)
        assert out == "f\u00ed"

    def test_fixpoint_reached(self):
        rules = NormalizationRuleSet(rules=(("ab", "b"),))
        assert normalize_text("aab", rules) == "b"

    def test_empty_string_passes_through(self):
        assert normalize_text("", default_rules()) == ""

    def test_swap_pair_is_stable(self):
        # a->b then b->a inside one pass composes to the identity
        rules = NormalizationRuleSet(rules=(("a", "b"), ("b", "a")))
        assert normalize_text("a", rules) == "a"

    def test_growth_raises(self):
        rules = NormalizationRuleSet(rules=(("a", "aa"),))
        with pytest.raises(ConvergenceError):
            normalize_text("a", rules)

    def test_idempotent_on_defaults(self):
        rules = default_rules()
        text = "Daſz Jch \u201eﬁnde\u201c \u2014 \ua75becht"
        once = normalize_text(text, rules)
        assert normalize_text(once, rules) == once


class TestNormalizeLine:
    def test_fail_policy_lists_violations(self):
        codec = default_codec()
        rules = default_rules()
        line = TranscriptionLine("b", "l9", "a\u2020b")
        with pytest.raises(NormalizationError) as err:
            normalize_line(line, rules, codec)
        msg = str(err.value)
        assert "U+2020" in msg and "l9" in msg
        assert "'\u2020' (U+2020) at 1" in msg

    def test_drop_policy(self):
        codec = default_codec()
        rules = default_rules()
        line = TranscriptionLine("b", "l", "a\u2020b")
        assert normalize_line(line, rules, codec, "").text == "ab"

    def test_replace_policy(self):
        codec = default_codec()
        rules = default_rules()
        line = TranscriptionLine("b", "l", "a\u2020b")
        out = normalize_line(line, rules, codec, "?")
        assert out.text == "a?b"

    def test_replace_requires_codec_char(self):
        codec = default_codec()
        rules = default_rules()
        line = TranscriptionLine("b", "l", "a\u2020b")
        with pytest.raises(NormalizationError):
            normalize_line(line, rules, codec, "\u2020")

    def test_stale_policy_name_is_not_a_replacement(self):
        codec = default_codec()
        rules = default_rules()
        line = TranscriptionLine("b", "l", "a\u2020b")
        with pytest.raises(NormalizationError) as err:
            normalize_line(line, rules, codec, "drop")
        assert str(err.value) == "replacement 'drop' is not a single codec character"

    def test_identity_preserved(self):
        codec = default_codec()
        rules = default_rules()
        for line in (TranscriptionLine("b", "l", "Im"), TranscriptionLine("b", "l", "Im", "e1")):
            out = normalize_line(line, rules, codec)
            assert (out.book_id, out.line_id, out.engine_id) == (
                line.book_id, line.line_id, line.engine_id
            )
            assert out.text == "Jm"


class TestUnmappedPolicyParsing:
    def test_fail(self):
        assert parse_unmapped_policy("fail") is None

    def test_drop(self):
        assert parse_unmapped_policy("drop") == ""

    def test_replace(self):
        assert parse_unmapped_policy("replace=?") == "?"

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            parse_unmapped_policy("shrug")

    def test_replace_multichar_rejected(self):
        with pytest.raises(ValueError):
            parse_unmapped_policy("replace=ab")


class TestDefaultRules:
    def test_closed_over_default_codec(self):
        default_rules().require_codec_closed(default_codec())

    def test_target_stability(self):
        # no default rule output feeds a later rule's source
        rules = default_rules()
        assert [(s, t) for s, t in rules.rules if normalize_text(t, rules) != t] == []

    def test_vectors(self):
        codec = default_codec()
        rules = default_rules()
        for label, source, expected in load_vectors():
            line = TranscriptionLine("b", label, source)
            got = normalize_line(line, rules, codec).text
            assert got == expected, f"{label}: {got!r} != {expected!r}"


DEFAULT_CODEC = default_codec()
DEFAULT_RULES = default_rules()
# A source made only of codec characters: no text is known to be its own
# fixpoint, so every line takes the full loop.
CK_RULES = NormalizationRuleSet(DEFAULT_RULES.rules + (("ck", "k"),), name="ck")
# A codec holding a combining mark covers text that is not NFC yet.
MARK_CODEC = Codec(DEFAULT_CODEC.characters + ("\u0308",), name="marks")
# A codec holding the source I of the default rules.
I_CODEC = Codec(DEFAULT_CODEC.characters + ("I",), name="with-I")
PAIRS = [
    (DEFAULT_RULES, DEFAULT_CODEC),
    (CK_RULES, DEFAULT_CODEC),
    (DEFAULT_RULES, MARK_CODEC),
    (DEFAULT_RULES, I_CODEC),
]

stop_text = st.lists(
    st.one_of(
        st.sampled_from("aceknJmſßäH -"),  # codec characters
        st.sampled_from([source for source, _ in CK_RULES.rules]),
        st.sampled_from("\u0302\u0308\u0364\u0301"),  # combining marks
        st.sampled_from("\u2020\u20ac\u0100"),  # outside codec and rules
    ),
    max_size=12,
).map("".join)


class TestStopRule:
    """normalize_line stops at the first text the codec covers in NFC when
    every rule source holds a character outside the codec. The result is
    the reference loop's, under every policy."""

    @settings(max_examples=300)
    @given(stop_text, st.sampled_from(PAIRS), st.sampled_from([None, "", "?"]))
    def test_matches_reference_fixpoint(self, text, pair, replacement):
        rules, codec = pair
        line = TranscriptionLine("b", "l", text, "e")
        expected = reference_fixpoint(text, rules)
        if not codec.covers(expected):
            if replacement is None:
                with pytest.raises(NormalizationError):
                    normalize_line(line, rules, codec, replacement)
                return
            expected = "".join(ch if ch in codec else replacement for ch in expected)
        out = normalize_line(line, rules, codec, replacement)
        assert out == TranscriptionLine("b", "l", expected, "e")

    @pytest.mark.parametrize(
        "rules, codec, passes",
        [(DEFAULT_RULES, DEFAULT_CODEC, 0), (CK_RULES, DEFAULT_CODEC, 1), (DEFAULT_RULES, MARK_CODEC, 0)],
        ids=["default", "codec-source", "codec-with-mark"],
    )
    def test_clean_text_passes(self, monkeypatch, rules, codec, passes):
        line = TranscriptionLine("b", "l", "Jm Haus", "e")
        # the pair last seen, with the same rules, holds a source in its codec
        normalize_line(line, CK_RULES, DEFAULT_CODEC)
        normalize_line(line, DEFAULT_RULES, I_CODEC)
        calls = []
        one_pass = normalize_module._one_pass

        def counted(text, rules):
            calls.append(text)
            return one_pass(text, rules)

        monkeypatch.setattr(normalize_module, "_one_pass", counted)
        assert normalize_line(line, rules, codec) is line
        assert len(calls) == passes

    @pytest.mark.parametrize(
        "rules, codec, text, expected",
        [(CK_RULES, DEFAULT_CODEC, "Backen", "Baken"), (DEFAULT_RULES, I_CODEC, "Im", "Jm")],
        ids=["ck", "codec-with-I"],
    )
    def test_source_made_of_codec_characters_still_fires(self, rules, codec, text, expected):
        # the pair last seen may stop early; this one must not
        normalize_line(TranscriptionLine("b", "l", "Jm"), DEFAULT_RULES, DEFAULT_CODEC)
        assert normalize_line(TranscriptionLine("b", "l", text), rules, codec).text == expected

    def test_covered_text_that_is_not_nfc_takes_a_pass(self):
        line = TranscriptionLine("b", "l", "a\u0308", "e")
        assert normalize_line(line, DEFAULT_RULES, MARK_CODEC).text == "\u00e4"

    @staticmethod
    def chain(steps: int) -> tuple[str, NormalizationRuleSet]:
        """A text that one rule per pass moves through ``steps`` non-codec
        characters, reaching the codec text 'a' on pass ``steps``."""
        links = [chr(0x2460 + k) for k in range(steps)]  # circled digits
        rules = [(links[k], links[k + 1]) for k in range(steps - 1)] + [(links[-1], "a")]
        return links[0], NormalizationRuleSet(tuple(reversed(rules)), name="chain")

    def test_seven_pass_chain_converges(self):
        text, rules = self.chain(7)
        assert reference_fixpoint(text, rules) == "a"
        assert normalize_line(TranscriptionLine("b", "l", text), rules, DEFAULT_CODEC).text == "a"

    def test_eight_pass_chain_still_diverges(self):
        text, rules = self.chain(8)
        message = f"rule set 'chain' did not converge after 8 passes on {text!r}"
        with pytest.raises(ConvergenceError, match=f"^{re.escape(message)}$"):
            reference_fixpoint(text, rules)
        with pytest.raises(ConvergenceError, match=f"^{re.escape(message)}$"):
            normalize_line(TranscriptionLine("b", "l", text), rules, DEFAULT_CODEC)
