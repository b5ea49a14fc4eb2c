from __future__ import annotations

import pytest

from fraktur_bench.codec import (
    Codec,
    codec_coverage_report,
    default_codec,
    load_codec,
    unescape_entry,
    validate_against_codec,
)
from fraktur_bench.errors import CodecError


class TestUnescape:
    def test_space_escape(self):
        assert unescape_entry(r"\s", 1, "f") == " "

    def test_backslash_escape(self):
        assert unescape_entry(r"\\", 1, "f") == "\\"

    def test_unicode_escape(self):
        assert unescape_entry(r"ß", 1, "f") == "ß"
        assert unescape_entry(r"ſ", 1, "f") == "ſ"

    def test_bad_unicode_escape(self):
        with pytest.raises(CodecError, match="escape"):
            unescape_entry(r"\u00z9", 3, "f")

    def test_unknown_escape(self):
        with pytest.raises(CodecError):
            unescape_entry(r"\q", 1, "f")

    def test_plain_passthrough(self):
        assert unescape_entry("ab", 1, "f") == "ab"


class TestCodecConstruction:
    def test_duplicate_rejected(self):
        with pytest.raises(CodecError, match="duplicate"):
            Codec(characters=("a", "b", "a", " "), name="t")

    def test_space_required(self):
        with pytest.raises(CodecError, match="space"):
            Codec(characters=("a", "b"), name="t")

    def test_contains_and_len(self):
        codec = Codec(characters=("a", "b", " "), name="t")
        assert "a" in codec and "z" not in codec
        assert len(codec) == 3


class TestLoadCodec:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "codec.txt"
        path.write_text("a\nb\n\\s\n\\u00df\n", encoding="utf-8")
        codec = load_codec(path)
        assert len(codec) == 4
        assert " " in codec and "ß" in codec

    def test_blank_line_rejected(self, tmp_path):
        path = tmp_path / "codec.txt"
        path.write_text("a\n\n\\s\n", encoding="utf-8")
        with pytest.raises(CodecError, match="empty"):
            load_codec(path)

    def test_multichar_entry_rejected(self, tmp_path):
        path = tmp_path / "codec.txt"
        path.write_text("ab\n\\s\n", encoding="utf-8")
        with pytest.raises(CodecError, match="single"):
            load_codec(path)

    def test_duplicate_reports_both_lines(self, tmp_path):
        path = tmp_path / "codec.txt"
        path.write_text("a\n\\s\na\n", encoding="utf-8")
        with pytest.raises(CodecError) as err:
            load_codec(path)
        msg = str(err.value)
        assert "1" in msg and "3" in msg

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "codec.txt"
        path.write_text("", encoding="utf-8")
        with pytest.raises(CodecError, match="empty"):
            load_codec(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CodecError):
            load_codec(tmp_path / "absent.txt")


class TestDefaultCodec:
    def test_size(self):
        assert len(default_codec()) == 91

    def test_expected_members(self):
        codec = default_codec()
        for ch in " 0123456789abcſßÄÖÜäöüàèé&?":
            assert ch in codec, f"{ch!r} missing"
        # no capital I in blackletter typography; J covers both
        assert "I" not in codec
        for ch in "ABCDEFGHJKLMNOPQRSTUVWXYZ":
            assert ch in codec

    def test_category_counts(self):
        codec = default_codec()
        chars = set(codec.characters)
        digits = sum(c.isdigit() for c in chars)
        upper = sum(c.isalpha() and c.isupper() for c in chars)
        assert digits == 10
        assert upper == 28  # 25 basic + Ä Ö Ü


class TestValidation:
    def test_all_in_codec(self):
        codec = default_codec()
        assert validate_against_codec("Das Jahr 1781", codec) == []

    def test_positions_reported(self):
        codec = default_codec()
        violations = validate_against_codec("a→b→c", codec)
        assert violations == [(1, "→"), (3, "→")]

    def test_uppercase_i_is_a_violation(self):
        # the default set carries no capital I, so raw text trips here
        # until the J rewrite has run
        assert validate_against_codec("Ich", default_codec()) == [(0, "I")]

    def test_empty_line_has_no_violations(self):
        assert validate_against_codec("", default_codec()) == []

    def test_coverage_report_ordering(self):
        codec = Codec(characters=("a", "b", " "), name="t")
        in_codec, out_of_codec = codec_coverage_report(["aab xy yy"], codec)
        # count desc, codepoint asc: space and 'a' tie at 2, space is U+0020
        assert in_codec == ((" ", 2), ("a", 2), ("b", 1))
        assert out_of_codec == (("y", 3), ("x", 1))

    def test_coverage_two_lines(self):
        codec = Codec(characters=("a", "b", " "), name="t")
        in_codec, out_of_codec = codec_coverage_report(["ab", "b"], codec)
        assert in_codec == (("b", 2), ("a", 1))
        assert out_of_codec == ()

    def test_coverage_flags_exotic_char(self):
        codec = Codec(characters=("a", " "), name="t")
        assert codec_coverage_report(["aå"], codec) == ((("a", 1),), (("å", 1),))

    def test_coverage_no_lines(self):
        codec = Codec(characters=("a", " "), name="t")
        assert codec_coverage_report([], codec) == ((), ())
