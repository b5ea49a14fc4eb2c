from __future__ import annotations

import unicodedata
from pathlib import Path

import pytest

from fraktur_bench.codec import Codec, default_codec, unescape_entry
from fraktur_bench.errors import (
    ConvergenceError,
    NormalizationError,
    RuleSetError,
)
from fraktur_bench.lines import TranscriptionLine
from fraktur_bench.normalize import (
    NormalizationRuleSet,
    Rule,
    check_target_stability,
    default_rules,
    load_rules,
    normalize_line,
    normalize_text,
    parse_unmapped_policy,
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
        with pytest.raises(RuleSetError, match="kept"):
            NormalizationRuleSet(rules=(Rule("ſ", "s"),))

    def test_checksum_changes_with_rules(self):
        a = NormalizationRuleSet(rules=(Rule("x", "y"),))
        b = NormalizationRuleSet(rules=(Rule("x", "z"),))
        assert a.checksum != b.checksum

    def test_checksum_separator_injection(self):
        # two rule lists that would collide under naive concatenation
        a = NormalizationRuleSet(rules=(Rule("ab", "c"),))
        b = NormalizationRuleSet(rules=(Rule("a", "bc"),))
        assert a.checksum != b.checksum

    def test_noncodec_targets(self):
        codec = Codec(characters=("a", "b", " "), name="t")
        rules = NormalizationRuleSet(rules=(Rule("x", "q"), Rule("y", "a")))
        assert rules.noncodec_targets(codec) == [Rule("x", "q")]
        with pytest.raises(RuleSetError, match="q"):
            rules.require_codec_closed(codec)


class TestRulesFileParsing:
    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("# hi\n\nx\ty\n", encoding="utf-8")
        rules = load_rules(path)
        assert rules.rules == (Rule("x", "y"),)

    def test_missing_tab_rejected(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("xy\n", encoding="utf-8")
        with pytest.raises(RuleSetError, match="tab"):
            load_rules(path)

    def test_empty_target_is_deletion(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("x\t\n", encoding="utf-8")
        rules = load_rules(path)
        assert rules.rules == (Rule("x", ""),)
        assert normalize_text("axb", rules) == "ab"

    def test_escapes_in_rules(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("\\u00a0\t\\s\n", encoding="utf-8")
        rules = load_rules(path)
        assert normalize_text("a\u00a0b", rules) == "a b"


class TestNormalizeText:
    def test_rule_order_matters(self):
        rules = NormalizationRuleSet(rules=(Rule("aa", "b"), Rule("a", "c")))
        # first rule consumes the pair before the second sees single chars
        assert normalize_text("aaa", rules) == "bc"

    def test_nfc_applied_before_rules(self):
        # decomposed a + combining circumflex must compose, then rewrite
        rules = NormalizationRuleSet(rules=(Rule("\u00e2", "\u00e4"),))
        assert normalize_text("a\u0302", rules) == "\u00e4"

    def test_nfc_applied_after_rules(self):
        # ligature expansion can leave a combining mark next to a new base
        rules = NormalizationRuleSet(rules=(Rule("\ufb01", "fi"),))
        out = normalize_text("\ufb01\u0301", rules)
        assert out == unicodedata.normalize("NFC", out)
        assert out == "f\u00ed"

    def test_fixpoint_reached(self):
        rules = NormalizationRuleSet(rules=(Rule("ab", "b"),))
        assert normalize_text("aab", rules) == "b"

    def test_empty_string_passes_through(self):
        assert normalize_text("", default_rules()) == ""

    def test_swap_pair_is_stable(self):
        # a->b then b->a inside one pass composes to the identity
        rules = NormalizationRuleSet(rules=(Rule("a", "b"), Rule("b", "a")))
        assert normalize_text("a", rules) == "a"

    def test_growth_raises(self):
        rules = NormalizationRuleSet(rules=(Rule("a", "aa"),))
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
        assert check_target_stability(default_rules()) == []

    def test_vectors(self):
        codec = default_codec()
        rules = default_rules()
        for label, source, expected in load_vectors():
            line = TranscriptionLine("b", label, source)
            got = normalize_line(line, rules, codec).text
            assert got == expected, f"{label}: {got!r} != {expected!r}"
