from __future__ import annotations

import json
import logging

import pytest

from fraktur_bench.errors import ManifestError
from fraktur_bench.manifests import (
    BookEntry,
    CountExpectation,
    Discrepancy,
    TrainingSchedule,
    TrainingStage,
    build_schedule,
    manifest_from_json,
    manifest_to_json,
    refinement_sample,
    scan_corpus,
    schedule_to_json,
    verify_counts,
)

from trees import make_gt_tree


def book(book_id: str, n_lines: int, corpus_id: str = "N") -> BookEntry:
    return BookEntry(book_id, corpus_id, tuple(f"l{i:04d}" for i in range(n_lines)))


class TestBookEntry:
    def test_duplicate_line_ids_rejected(self):
        with pytest.raises(ManifestError, match="duplicate"):
            BookEntry("b", "N", ("l1", "l1"))

    def test_line_count(self):
        assert book("b", 7).line_count == 7


class TestStagesAndSchedule:
    def test_cap_only_on_refinement(self):
        with pytest.raises(ManifestError):
            TrainingStage("real", ("N",), cap_per_book=50)
        TrainingStage("refinement", ("N",), cap_per_book=50)

    def test_unknown_stage_name(self):
        with pytest.raises(ManifestError):
            TrainingStage("warmup", ("N",))

    def test_schedule_order_enforced(self):
        ok = TrainingSchedule(
            (TrainingStage("synthetic", ("N",)), TrainingStage("refinement", ("N",), cap_per_book=10))
        )
        assert [s.name for s in ok.stages] == ["synthetic", "refinement"]
        with pytest.raises(ManifestError):
            TrainingSchedule(
                (TrainingStage("refinement", ("N",), cap_per_book=10), TrainingStage("real", ("N",)))
            )

    def test_repeated_stage_rejected(self):
        with pytest.raises(ManifestError):
            TrainingSchedule(
                (TrainingStage("real", ("N",)), TrainingStage("real", ("O",)))
            )


class TestScanCorpus:
    def test_scan_basic(self, tmp_path):
        root = make_gt_tree(
            tmp_path / "tree",
            {
                "b2": {"l2": "x", "l1": "y"},
                "b1": {"l9": "z"},
            },
        )
        books = scan_corpus(root, "N")
        assert [b.book_id for b in books] == ["b1", "b2"]
        assert books[1].line_ids == ("l1", "l2")
        assert all(b.corpus_id == "N" for b in books)

    def test_gt_without_image_excluded(self, tmp_path, caplog):
        root = make_gt_tree(tmp_path / "tree", {"b1": {"l1": "x"}})
        (root / "b1" / "l2.gt.txt").write_text("orphan\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            books = scan_corpus(root, "N")
        assert books[0].line_ids == ("l1",)
        assert any("l2" in r.message for r in caplog.records)

    def test_image_without_gt_warned(self, tmp_path, caplog):
        root = make_gt_tree(tmp_path / "tree", {"b1": {"l1": "x"}})
        (root / "b1" / "l3.png").write_bytes(b"\x89PNG")
        with caplog.at_level(logging.WARNING):
            books = scan_corpus(root, "N")
        assert books[0].line_ids == ("l1",)
        assert any("l3" in r.message for r in caplog.records)

    def test_double_suffix_images(self, tmp_path):
        root = tmp_path / "tree"
        (root / "b1").mkdir(parents=True)
        (root / "b1" / "l1.gt.txt").write_text("x\n", encoding="utf-8")
        (root / "b1" / "l1.bin.png").write_bytes(b"\x89PNG")
        books = scan_corpus(root, "N")
        assert books[0].line_ids == ("l1",)

    def test_missing_root(self, tmp_path):
        with pytest.raises(ManifestError):
            scan_corpus(tmp_path / "absent", "N")

    def test_empty_root(self, tmp_path):
        empty = tmp_path / "tree"
        empty.mkdir()
        with pytest.raises(ManifestError, match="no book"):
            scan_corpus(empty, "N")


class TestRefinementSample:
    def test_small_book_kept_whole(self):
        b = book("b", 30)
        assert refinement_sample(b, 50, seed=0) == sorted(b.line_ids)

    def test_capped(self):
        sample = refinement_sample(book("b", 200), 50, seed=0)
        assert len(sample) == 50
        assert sample == sorted(sample)
        assert len(set(sample)) == 50

    def test_deterministic_per_seed(self):
        b = book("b", 200)
        assert refinement_sample(b, 50, 0) == refinement_sample(b, 50, 0)
        assert refinement_sample(b, 50, 0) != refinement_sample(b, 50, 1)

    def test_book_id_decorrelates(self):
        a = refinement_sample(book("alpha", 200), 50, 0)
        b = refinement_sample(book("beta", 200), 50, 0)
        assert a != b

    def test_scan_order_irrelevant(self):
        lines = tuple(f"l{i:04d}" for i in range(100))
        forward = BookEntry("b", "N", lines)
        backward = BookEntry("b", "N", tuple(reversed(lines)))
        assert refinement_sample(forward, 20, 0) == refinement_sample(backward, 20, 0)

    def test_cap_floor(self):
        with pytest.raises(ManifestError):
            refinement_sample(book("b", 10), 0, seed=0)


class TestTableShapedFixtures:
    """Counts mirroring a published training/evaluation setup."""

    def test_two_book_testset_totals_465(self, tmp_path):
        root = make_gt_tree(
            tmp_path / "tree",
            {
                "O-1809": {f"l{i:04d}": "x" for i in range(223)},
                "O-1841": {f"l{i:04d}": "x" for i in range(242)},
            },
        )
        books = scan_corpus(root, "O")
        assert len(books) == 2
        assert sum(b.line_count for b in books) == 465

    def test_dictionary_style_expectation_passes(self):
        sizes = [300, 250, 280, 310, 240, 260, 290, 270, 255, 265, 245, 258, 260]
        assert sum(sizes) == 3_483
        books = [book(f"novel{i:02d}", n) for i, n in enumerate(sizes)]
        assert verify_counts(books, [CountExpectation("N", books=13, lines=3_483)]) == []

    def test_mostly_small_books_fall_under_cap_times_books(self):
        # 103 books, nearly all under the cap: refinement total lands
        # below 103 * 50 (a capped stage is not books x cap)
        sizes = [30] * 100 + [80, 90, 120]
        books = [book(f"a{i:03d}", n, "A") for i, n in enumerate(sizes)]
        total = sum(len(refinement_sample(b, 50, seed=0)) for b in books)
        assert total == 100 * 30 + 3 * 50
        assert total < 103 * 50

    def test_sizes_60_50_10_cap_50_gives_110(self):
        books = [book(f"b{i}", n) for i, n in enumerate((60, 50, 10))]
        total = sum(len(refinement_sample(b, 50, seed=0)) for b in books)
        assert total == 110


class TestBuildSchedule:
    def manifests(self):
        return [
            book("n1", 60, "N"),
            book("n2", 40, "N"),
            book("o1", 100, "O"),
        ]

    def test_stage_expansion(self):
        schedule = TrainingSchedule(
            (
                TrainingStage("real", ("N", "O")),
                TrainingStage("refinement", ("N",), cap_per_book=50),
            ),
            seed=0,
        )
        expanded = build_schedule(self.manifests(), schedule)
        assert len(expanded["real"]) == 200
        # refinement: min(60,50) + min(40,50)
        assert len(expanded["refinement"]) == 90
        assert all(isinstance(pair, tuple) and len(pair) == 2 for pair in expanded["real"])

    def test_unknown_corpus(self):
        schedule = TrainingSchedule((TrainingStage("real", ("Z",)),))
        with pytest.raises(ManifestError, match="Z"):
            build_schedule(self.manifests(), schedule)


class TestVerifyCounts:
    def test_all_good(self):
        books = [book("b1", 10), book("b2", 20)]
        expected = [CountExpectation("N", books=2, lines=30)]
        assert verify_counts(books, expected) == []

    def test_mismatch_reported(self):
        books = [book("b1", 10)]
        expected = [CountExpectation("N", books=2, lines=30)]
        problems = verify_counts(books, expected)
        assert Discrepancy("N", "books", 2, 1) in problems
        assert Discrepancy("N", "lines", 30, 10) in problems

    def test_absent_corpus_counts_zero(self):
        problems = verify_counts([], [CountExpectation("Q", books=1, lines=5)])
        assert Discrepancy("Q", "books", 1, 0) in problems


class TestManifestJson:
    def test_round_trip(self):
        books = [
            BookEntry("b1", "N", ("l1", "l2"), century="18", language="de"),
            BookEntry("b2", "O", ("l3",)),
        ]
        data = manifest_to_json(books)
        back = manifest_from_json(data)
        assert back == books

    def test_schema_checked(self):
        payload = json.loads(manifest_to_json([book("b", 1)]))
        payload["schema_version"] = 9
        with pytest.raises(ManifestError, match="schema"):
            manifest_from_json(json.dumps(payload))

    def test_deterministic_bytes(self):
        books = [book("b", 3)]
        assert manifest_to_json(books) == manifest_to_json(books)

    def test_schedule_json(self):
        schedule = TrainingSchedule((TrainingStage("real", ("N",)),), seed=7)
        expanded = {"real": [("b1", "l1"), ("b1", "l2")]}
        payload = json.loads(schedule_to_json(schedule, expanded))
        assert payload["seed"] == 7
        assert payload["stages"][0]["name"] == "real"
        assert payload["stages"][0]["count"] == 2
        assert payload["stages"][0]["items"] == [["b1", "l1"], ["b1", "l2"]]
