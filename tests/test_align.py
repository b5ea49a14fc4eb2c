from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraktur_bench.align as align_module
from fraktur_bench.align import AlignmentResult, OpKind, _lane_columns, _trim, align, align_many

from edit_scripts import (
    delete,
    insert,
    match,
    script_distance,
    script_gt_text,
    script_pred_text,
    substitute,
)

short_text = st.text(alphabet="abcdef ", max_size=24)
# Few symbols make cost ties frequent; up to 90 characters spans two
# 64-bit words of the kernel's bit vectors.
tie_text = st.text(alphabet="ab", max_size=40) | st.text(alphabet="ab c", max_size=90)
tie_affix = st.text(alphabet="ab", max_size=12) | st.text(alphabet="ab c", max_size=70)
# Tie-prone letters with a non-BMP letter and a combining diaeresis; an
# affix, a middle, a middle and an affix make texts of 0-40 characters.
trim_affix = st.text(alphabet="ab\U0001d51e\u0308", max_size=10)
trim_middle = st.text(alphabet="ab\U0001d51e\u0308", max_size=20)


def reference_alignment(a: str, b: str):
    """Full-matrix DP with the fixed traceback: (edit script, distance).

    Cost ties prefer the diagonal (match/substitute), then delete, then
    insert.
    """
    m, n = len(a), len(b)
    D = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        D[i][0] = i
    for j in range(n + 1):
        D[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            D[i][j] = min(D[i - 1][j - 1] + (a[i - 1] != b[j - 1]), D[i - 1][j] + 1, D[i][j - 1] + 1)
    ops = []
    i, j = m, n
    while i > 0 or j > 0:
        if i > 0 and j > 0 and D[i][j] == D[i - 1][j - 1] + (a[i - 1] != b[j - 1]):
            ops.append(match(a[i - 1]) if a[i - 1] == b[j - 1] else substitute(a[i - 1], b[j - 1]))
            i -= 1
            j -= 1
        elif i > 0 and D[i][j] == D[i - 1][j] + 1:
            ops.append(delete(a[i - 1]))
            i -= 1
        else:
            ops.append(insert(b[j - 1]))
            j -= 1
    ops.reverse()
    return tuple(ops), D[m][n]


def reference_matrix(a: str, b: str) -> list[list[int]]:
    """The full unit-cost DP matrix D, D[i][j] the distance of a[:i] and b[:j]."""
    D = [list(range(len(b) + 1))]
    for i, ca in enumerate(a, 1):
        prev, row = D[-1], [i]
        for j, cb in enumerate(b, 1):
            row.append(min(prev[j - 1] + (ca != cb), prev[j] + 1, row[j - 1] + 1))
        D.append(row)
    return D


def edit_distance(a: str, b: str) -> int:
    return align(a, b).distance


class TestLevenshtein:
    """The unit-cost edit distance, as align's result gives it."""

    def test_classic(self):
        assert edit_distance("kitten", "sitting") == 3

    def test_identical(self):
        assert edit_distance("abc", "abc") == 0

    def test_empty_sides(self):
        assert edit_distance("", "abc") == 3
        assert edit_distance("abc", "") == 3
        assert edit_distance("", "") == 0

    def test_unicode(self):
        assert edit_distance("ſtraße", "straße") == 1
        assert edit_distance("a\U0001f600b", "ab") == 1  # astral plane

    def test_single_substitution(self):
        assert edit_distance("abc", "abd") == 1

    @given(tie_text, tie_text)
    def test_both_paths_agree(self, a, b):
        # the bit-parallel kernel against the full-matrix reference
        assert edit_distance(a, b) == reference_alignment(a, b)[1]

    @given(short_text, short_text)
    def test_bounds(self, a, b):
        d = edit_distance(a, b)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b), 0)

    @given(short_text, short_text)
    def test_symmetry(self, a, b):
        assert edit_distance(a, b) == edit_distance(b, a)

    @given(short_text)
    def test_identity(self, a):
        assert edit_distance(a, a) == 0

    @settings(max_examples=200)
    @given(short_text, short_text, short_text)
    def test_triangle(self, a, b, c):
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


class TestAlign:
    def test_delete_then_match(self):
        result = align("ab", "b")
        kinds = [op.kind for op in result.ops]
        assert kinds == [OpKind.DELETE, OpKind.MATCH]
        assert result.ops[0].gt == "a" and result.ops[0].pred is None
        assert result.distance == 1
        assert result.cer == 0.5

    def test_substitution_preferred_over_indel_pair(self):
        result = align("a", "b")
        assert [op.kind for op in result.ops] == [OpKind.SUBSTITUTE]

    def test_all_match(self):
        result = align("ab", "ab")
        assert [op.kind for op in result.ops] == [OpKind.MATCH, OpKind.MATCH]
        assert result.distance == 0
        assert result.cer == 0.0

    def test_empty_gt_cer_is_pred_len(self):
        result = align("", "abc")
        assert result.distance == 3
        assert result.cer == 3.0
        assert [op.kind for op in result.ops] == [OpKind.INSERT] * 3

    def test_empty_both(self):
        result = align("", "")
        assert result.ops == ()
        assert result.cer == 0.0

    def test_deterministic(self):
        a = align("abcabc", "acbacb")
        b = align("abcabc", "acbacb")
        assert a.ops == b.ops

    @given(short_text, short_text)
    def test_replay_reconstructs_inputs(self, gt, pred):
        result = align(gt, pred)
        assert script_gt_text(result.ops) == gt
        assert script_pred_text(result.ops) == pred
        assert script_distance(result.ops) == result.distance

    @given(short_text, short_text)
    def test_distance_matches_levenshtein(self, gt, pred):
        assert align(gt, pred).distance == reference_alignment(gt, pred)[1]

    @given(short_text.filter(lambda t: len(t) > 0), short_text)
    def test_cer_upper_bound(self, gt, pred):
        # worst case is replace-everything-and-insert-the-rest
        assert align(gt, pred).cer <= (len(gt) + len(pred)) / len(gt)

    @given(tie_text, tie_text)
    def test_ops_match_reference(self, gt, pred):
        result = align(gt, pred)
        assert (result.ops, result.distance) == reference_alignment(gt, pred)

    def test_large_strings_use_vector_path(self):
        # 600 bits: the kernel's vectors span many machine words
        gt = "ab" * 300
        pred = "ba" * 300
        result = align(gt, pred)
        assert (result.ops, result.distance) == reference_alignment(gt, pred)

    def test_long_noisy_lines_match_reference(self):
        rng = random.Random(20260)
        for _ in range(3):
            gt = "".join(rng.choice("abcde ") for _ in range(rng.randint(400, 520)))
            pred = list(gt)
            for _ in range(40):
                pos = rng.randrange(len(pred))
                edit = rng.choice(("sub", "ins", "del"))
                if edit == "sub":
                    pred[pos] = rng.choice("abcde ")
                elif edit == "ins":
                    pred.insert(pos, rng.choice("abcde "))
                else:
                    del pred[pos]
            pred = "".join(pred)
            result = align(gt, pred)
            assert (result.ops, result.distance) == reference_alignment(gt, pred)


class TestTrimmedPaths:
    """align skips a shared prefix and suffix; the result
    must be the full DP's, tie-break included."""

    @staticmethod
    def assert_reference(gt, pred):
        result = align(gt, pred)
        assert (result.ops, result.distance) == reference_alignment(gt, pred)

    @given(tie_affix, tie_text, tie_text, tie_affix)
    def test_shared_affixes_match_reference(self, prefix, a, b, suffix):
        self.assert_reference(prefix + a + suffix, prefix + b + suffix)

    @pytest.mark.parametrize(
        "gt, pred",
        [
            ("aa", "a"), ("a", "aa"), ("xa", "a"), ("a", "ax"),  # prefix and suffix overlap
            ("ab", "aab"), ("aab", "ab"), ("ba", "aba"),
            ("abc", "abcab"), ("abcab", "abc"),  # one a prefix of the other
            ("bab", "abbab"), ("abbab", "bab"),  # one a suffix of the other
            ("a b", "a ba b"), ("aaa", "aaaaa"), ("aaaaa", "aaa"),
        ],
    )
    def test_explicit_cases(self, gt, pred):
        self.assert_reference(gt, pred)

    @pytest.mark.parametrize("text", ["", "a", "abab", "x\U0001f600y" * 20])
    def test_identical(self, text):
        result = align(text, text)
        assert result.ops == tuple(match(c) for c in text)
        assert (result.distance, result.cer) == (0, 0.0)
        self.assert_reference(text, text)

    def test_long_line_with_errors_near_both_ends(self):
        rng = random.Random(20261)
        for _ in range(3):
            gt = "".join(rng.choice("ab c") for _ in range(rng.randint(400, 520)))
            pred = list(gt)
            # the end first, so that edits never shift positions still to come
            for zone in (range(len(gt) - 12, len(gt)), range(0, 12)):
                for pos in sorted(rng.sample(zone, 3), reverse=True):
                    edit = rng.choice(("sub", "ins", "del"))
                    if edit == "sub":
                        pred[pos] = rng.choice("ab c")
                    elif edit == "ins":
                        pred.insert(pos, rng.choice("ab c"))
                    else:
                        del pred[pos]
            self.assert_reference(gt, "".join(pred))

    def test_match_ops_are_shared(self):
        ops = align("abab", "abab").ops
        assert ops[0] is ops[2] and ops[0] == match("a")

    @staticmethod
    def assert_trim_is_naive(gt, pred):
        """_trim gives the common prefix, then the common suffix of the rest."""
        k = 0
        while k < min(len(gt), len(pred)) and gt[k] == pred[k]:
            k += 1
        s = 0
        while s < min(len(gt), len(pred)) - k and gt[-1 - s] == pred[-1 - s]:
            s += 1
        assert _trim(gt, pred) == (k, len(gt) - s, len(pred) - s)
        assert k + s <= min(len(gt), len(pred))

    @given(trim_affix, trim_middle, trim_middle, trim_affix)
    def test_trim_matches_naive(self, prefix, a, b, suffix):
        self.assert_trim_is_naive(prefix + a + suffix, prefix + b + suffix)

    @pytest.mark.parametrize("gt, pred", [("aa", "aaa"), ("abab", "ab"), ("", "x")])
    def test_trim_explicit_cases(self, gt, pred):
        self.assert_trim_is_naive(gt, pred)


# Lanes for the multi-lane kernel: tie-heavy texts, and texts over letters
# that the other lanes lack.
lane_text = st.text(alphabet="ab", max_size=16) | st.text(alphabet="ab c", max_size=30)
lane_affix = st.text(alphabet="ab", max_size=6)
foreign_text = st.text(alphabet="xyz", max_size=16)


class TestBlockKernel:
    """The kernel runs on the blocks between each pair's shared prefix (k)
    and suffix, one lane each; each lane's columns, shifted out of the
    packed integers, must give the full DP inside its block, and D[i][j] =
    |i - j| must hold outside it."""

    @staticmethod
    def assert_lanes_give_the_matrices(pairs):
        blocks, lanes = [], []
        for gt, pred in pairs:
            D = reference_matrix(gt, pred)
            k, m, n = _trim(gt, pred)
            assert gt[m:] == pred[n:] and D[m][n] == D[-1][-1]
            for i, row in enumerate(D):
                for j, d in enumerate(row):
                    if i <= k or j <= k:
                        assert d == abs(i - j), (i, j)
            if m > k < n:  # otherwise align runs no kernel for the pair
                blocks.append((gt[k:m], pred[k:n]))
                lanes.append((D, k, m, n))
        if not blocks:
            return
        vps, vns = _lane_columns(blocks)
        assert len(vps) == len(vns) == max(n - k for _, k, _, n in lanes)
        off = 0
        for D, k, m, n in lanes:
            lane = (1 << (m - k)) - 1
            for j in range(k + 1, n + 1):
                vp, vn = vps[j - k - 1] >> off & lane, vns[j - k - 1] >> off & lane
                for i in range(k + 1, m + 1):
                    low = (1 << (i - k)) - 1
                    assert D[i][j] == j - k + (vp & low).bit_count() - (vn & low).bit_count(), (i, j)
            off += m - k + 1

    @given(tie_affix, tie_text, tie_text, tie_affix)
    def test_columns_give_the_full_matrix(self, prefix, a, b, suffix):
        self.assert_lanes_give_the_matrices([(prefix + a + suffix, prefix + b + suffix)])

    @settings(max_examples=60)
    @given(
        st.lists(
            st.tuples(lane_affix, lane_text | foreign_text, lane_text | foreign_text, lane_affix),
            min_size=2,
            max_size=6,
        )
    )
    def test_lanes_give_their_full_matrices(self, parts):
        # lanes of different widths and column counts, some over letters
        # that no other lane holds
        self.assert_lanes_give_the_matrices(
            [(prefix + a + suffix, prefix + b + suffix) for prefix, a, b, suffix in parts]
        )


# The pairs of one align_many call: blocks of different widths and column
# counts, empty predictions, identical pairs, pairs whose block has an
# empty side, and letters that only some pairs hold.
many_pair = st.one_of(
    st.tuples(lane_affix, lane_text, lane_text, lane_affix).map(
        lambda t: (t[0] + t[1] + t[3], t[0] + t[2] + t[3])
    ),
    st.tuples(lane_text, foreign_text),
    st.tuples(lane_text | foreign_text, st.just("")),
    lane_text.map(lambda t: (t, t)),
    st.tuples(lane_affix, lane_text, lane_affix).map(
        lambda t: (t[0] + t[1] + t[2], t[0] + t[2])
    ),
    st.tuples(lane_affix, lane_text, lane_affix).map(
        lambda t: (t[0] + t[2], t[0] + t[1] + t[2])
    ),
)


class TestAlignMany:
    """align_many packs the blocks of many pairs into the lanes of one
    kernel run; each result must be align's for its pair, and so the full
    DP's, tie-break included."""

    @staticmethod
    def assert_matches(pairs):
        got = align_many(pairs)
        assert got == [align(gt, pred) for gt, pred in pairs]
        for (gt, pred), result in zip(pairs, got):
            assert (result.ops, result.distance) == reference_alignment(gt, pred)

    @settings(max_examples=150)
    @given(st.lists(many_pair, max_size=12), st.sampled_from([1, 8, 40, 10**6]))
    def test_matches_align_and_reference(self, pairs, budget):
        # A small budget splits the pairs into many batches and leaves
        # blocks wider than the budget to batches of their own.
        with mock.patch.object(align_module, "_BATCH_BITS", budget):
            self.assert_matches(pairs)

    def test_block_wider_than_the_budget(self):
        rng = random.Random(20263)
        wide = "".join(rng.choice("ab c") for _ in range(align_module._BATCH_BITS + 60))
        noisy = wide[:40] + "x" + wide[40:-50] + wide[-49:]
        pairs = [("ab", "ba"), (wide, noisy), ("abc", ""), ("xy", "xy"), (noisy, wide), ("a b", "ab")]
        got = align_many(pairs)
        assert got == [align(gt, pred) for gt, pred in pairs]
        # The full reference DP takes seconds at this width; the hypothesis
        # test above holds the narrow blocks to it.
        for (gt, pred), result in zip(pairs, got):
            assert (script_gt_text(result.ops), script_pred_text(result.ops)) == (gt, pred)
        assert [r.distance for r in got] == [2, 2, 3, 0, 2, 1]

    def test_empty(self):
        assert align_many([]) == []


class TestDerivedViews:
    """A result holds (gt, pred, edits); distance, lengths, CER and the
    full script are derived from them."""

    @pytest.mark.parametrize(
        "gt, pred, distance, cer, ops",
        [
            ("", "abc", 3, 3.0, (insert("a"), insert("b"), insert("c"))),
            ("abc", "", 3, 1.0, (delete("a"), delete("b"), delete("c"))),
            ("", "", 0, 0.0, ()),
            ("abc", "abc", 0, 0.0, (match("a"), match("b"), match("c"))),
            ("ab", "abcd", 2, 1.0, (match("a"), match("b"), insert("c"), insert("d"))),
            ("abcd", "ab", 2, 0.5, (match("a"), match("b"), delete("c"), delete("d"))),
        ],
        ids=["empty-gt", "empty-pred", "both-empty", "identical", "gt-prefix", "pred-prefix"],
    )
    def test_views(self, gt, pred, distance, cer, ops):
        result = align(gt, pred)
        assert (result.distance, result.gt_len, len(result.pred)) == (distance, len(gt), len(pred))
        assert type(result.cer) is float and result.cer == cer
        assert result.ops == ops
        assert (script_gt_text(result.ops), script_pred_text(result.ops)) == (gt, pred)
        assert script_distance(result.ops) == distance


def replayed_edits(ops):
    """The non-match ops of a script, each with the numbers of ground-truth
    and prediction characters before it and its two characters, "" for a
    side it lacks."""
    edits = []
    gt_pos = pred_pos = 0
    for op in ops:
        if op.kind is not OpKind.MATCH:
            edits.append((gt_pos, pred_pos, op.gt or "", op.pred or ""))
        gt_pos += op.gt is not None
        pred_pos += op.pred is not None
    return tuple(edits)


# Tie-heavy alphabets and empty sides.
edit_text = st.text(alphabet="ab ", max_size=30) | st.text(alphabet="aab", max_size=30)


class TestEdits:
    """result.edits is the script's non-match ops with their positions."""

    @staticmethod
    def assert_edits(gt, pred):
        result = align(gt, pred)
        assert all(tuple(map(type, edit)) == (int, int, str, str) for edit in result.edits)
        assert result.edits == replayed_edits(result.ops)
        assert len(result.edits) == result.distance

    @settings(max_examples=300)
    @given(edit_text, edit_text)
    def test_edits_are_replayed_non_match_ops(self, gt, pred):
        self.assert_edits(gt, pred)

    @given(edit_text, edit_text, edit_text, edit_text)
    def test_with_shared_prefix_and_suffix(self, prefix, a, b, suffix):
        self.assert_edits(prefix + a + suffix, prefix + b + suffix)

    @pytest.mark.parametrize(
        "gt, pred, edits",
        [
            ("", "", ()),
            ("ab", "ab", ()),
            ("", "ab", ((0, 0, "", "a"), (0, 1, "", "b"))),
            ("ab", "", ((0, 0, "a", ""), (1, 0, "b", ""))),
            ("ab", "b", ((0, 0, "a", ""),)),  # the prediction runs out in the head
            ("b", "ab", ((0, 0, "", "a"),)),  # the ground truth runs out in the head
            ("abc", "axc", ((1, 1, "b", "x"),)),
            ("ab", "axyb", ((1, 1, "", "x"), (1, 2, "", "y"))),
            ("xxabc", "abcyy", ((0, 0, "x", ""), (1, 0, "x", ""),
                                (5, 3, "", "y"), (5, 4, "", "y"))),
        ],
    )
    def test_explicit_cases(self, gt, pred, edits):
        assert align(gt, pred).edits == edits
        self.assert_edits(gt, pred)

    def test_long_noisy_line(self):
        rng = random.Random(20262)
        gt = "".join(rng.choice("ab c") for _ in range(500))
        pred = "".join(c for c in gt if rng.random() > 0.05).replace("a", "aa", 7)
        self.assert_edits(gt, pred)

    def test_edits_are_required(self):
        # a result without edits would read as error-free to every consumer
        with pytest.raises(TypeError, match="edits"):
            AlignmentResult(gt="a", pred="b")
