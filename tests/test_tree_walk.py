"""The tree readers against the glob-and-stat walk they replaced.

``reference_scan_corpus``, ``reference_load_gt_tree`` and
``reference_load_pred_tree`` are the earlier versions, kept verbatim apart
from their names: one ``glob`` per suffix and book, one ``exists()`` call
per image and ground-truth sibling. They share no helper with the code
under test. On generated trees both must return the same values in the
same order, raise the same errors and write the same warnings to stderr
in the same order; the reference scan prints its warnings instead of
logging them, and no longer logs its count line, as the scan does.
Engine ids stay free of glob metacharacters here, because the reference
reads those as patterns.

The ``--pattern`` walk of ``normalize`` and ``coverage`` and the path
rules of the codec and rules loaders are checked against ``pathlib``,
which the package no longer imports.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
import time
from fnmatch import fnmatchcase
from pathlib import Path, PurePosixPath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraktur_bench.cli import _glob_match, _tree_files
from fraktur_bench.errors import ManifestError
from fraktur_bench.lines import line_id_of, posix_path, stem
from fraktur_bench.manifests import BookEntry, scan_corpus
from fraktur_bench.pipeline import load_gt_tree, load_pred_trees, read_text_file

# --- reference: the glob-and-stat walk ----------------------------------

# Longest first so suffix stripping never cuts a compound extension short.
_IMAGE_SUFFIXES = (".bin.png", ".nrm.png", ".png")


def _line_id_of(gt_file: Path) -> str:
    return gt_file.name[: -len(".gt.txt")]


def _has_image(book_dir: Path, line_id: str) -> bool:
    return any((book_dir / f"{line_id}{suffix}").exists() for suffix in _IMAGE_SUFFIXES)


def reference_scan_corpus(root: str | Path, corpus_id: str) -> list[BookEntry]:
    """Scan a line-pair tree into one BookEntry per book directory.

    Lines missing either the ground-truth file or the image sibling are
    reported on stderr and excluded. An unreadable root or a root without
    book directories is an error.
    """
    root = Path(root)
    if not root.is_dir():
        raise ManifestError(f"corpus root {root} is not a readable directory")
    books: list[BookEntry] = []
    for book_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        line_ids: list[str] = []
        gt_files = sorted(book_dir.glob("*.gt.txt"))
        for gt_file in gt_files:
            line_id = _line_id_of(gt_file)
            if not _has_image(book_dir, line_id):
                print(
                    "%s/%s: line %r has ground truth but no image sibling, excluded"
                    % (corpus_id, book_dir.name, line_id),
                    file=sys.stderr,
                )
                continue
            line_ids.append(line_id)
        for image in sorted(book_dir.glob("*.png")):
            stem = image.name
            for suffix in _IMAGE_SUFFIXES:
                if stem.endswith(suffix):
                    stem = stem[: -len(suffix)]
                    break
            if not (book_dir / f"{stem}.gt.txt").exists():
                print(
                    "%s/%s: image %r has no ground-truth sibling, excluded"
                    % (corpus_id, book_dir.name, image.name),
                    file=sys.stderr,
                )
        books.append(BookEntry(book_dir.name, corpus_id, tuple(line_ids)))
    if not books:
        raise ManifestError(f"corpus root {root} contains no book directories")
    return books


def reference_load_gt_tree(root: str | Path) -> dict[str, dict[str, str]]:
    """dataset id -> line id -> ground-truth text."""
    root = Path(root)
    if not root.is_dir():
        raise ManifestError(f"ground-truth root {root} is not a readable directory")
    tree: dict[str, dict[str, str]] = {}
    for book_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        lines = {
            f.name[: -len(".gt.txt")]: read_text_file(f)
            for f in sorted(book_dir.glob("*.gt.txt"))
        }
        if lines:
            tree[book_dir.name] = lines
    if not tree:
        raise ManifestError(f"no ground-truth lines found under {root}")
    return tree


def reference_load_pred_tree(root: str | Path, engine_id: str) -> dict[str, dict[str, str]]:
    """dataset id -> line id -> predicted text, for one engine."""
    root = Path(root)
    if not root.is_dir():
        raise ManifestError(f"prediction root {root} is not a readable directory")
    suffix = f".pred.{engine_id}.txt"
    tree: dict[str, dict[str, str]] = {}
    for book_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        lines = {
            f.name[: -len(suffix)]: read_text_file(f)
            for f in sorted(book_dir.glob(f"*{suffix}"))
        }
        if lines:
            tree[book_dir.name] = lines
    return tree


# --- generated trees ----------------------------------------------------

ENGINES = ("e1", "e.2", "e")

# Hidden stems, the empty stem (a file named exactly ".gt.txt"), stems that
# end like an image suffix, and stems that sort in another order than their
# file names ("a" < "a b", but "a b.gt.txt" < "a.gt.txt", since " " < ".").
STEMS = ("l1", "l2", "a", "a b", ".h", "", "l1.bin", "x.pred.e1")
SUFFIXES = (
    ".gt.txt", ".png", ".bin.png", ".nrm.png", ".pred.e1.txt", ".pred.e.2.txt",
    ".pred.e1.conf", ".txt", "",
)

book_entries = st.lists(
    st.tuples(
        st.sampled_from(STEMS),
        st.sampled_from(SUFFIXES),
        # a sub-directory named like a line file
        st.sampled_from(("file",) * 9 + ("dir",)),
        st.sampled_from(("x\n", "ab", "ſ\r\n", "")),
    ),
    max_size=12,
)
trees = st.dictionaries(
    st.sampled_from(("N-1", "N-2", "O-1", ".hidden", "b.gt.txt", "x.png")),
    # None: a plain file at the root, not a book directory
    st.one_of(st.none(), book_entries),
    max_size=4,
)


def build(root: Path, tree) -> None:
    root.mkdir()
    for book, entries in tree.items():
        if entries is None:
            (root / book).write_bytes(b"not a book\n")
            continue
        (root / book).mkdir()
        for stem, suffix, kind, text in entries:
            path = root / book / f"{stem}{suffix}"
            if not path.name or path.exists():
                continue
            if kind == "dir":
                path.mkdir()
            else:
                path.write_text(text, encoding="utf-8")


def load_pred_texts(root: str | Path, engine_ids) -> dict[str, dict[str, dict[str, str]]]:
    """engine id -> the predictions load_pred_trees reads for engines that
    share root, without their sidecar paths."""
    return {e: texts for e, texts, _ in load_pred_trees(dict.fromkeys(engine_ids, root))}


def reference_pred_texts(root: str | Path, engine_ids) -> dict[str, dict[str, dict[str, str]]]:
    """engine id -> reference_load_pred_tree's tree, one walk per engine."""
    return {e: reference_load_pred_tree(root, e) for e in engine_ids}


def _ordered(value):
    """Nested dicts as lists of items, so that comparing them compares order."""
    if isinstance(value, dict):
        return [(key, _ordered(item)) for key, item in value.items()]
    return value


def outcome(fn, *args):
    """What a reader returned, in order, or the error it raised."""
    try:
        result = fn(*args)
    except ManifestError as exc:
        return ("error", str(exc))
    return ("ok", _ordered(result))


def outcome_and_stderr(fn, *args):
    """outcome(fn, *args) and what fn wrote to stderr. capsys holds one
    capture per test function, so each hypothesis example redirects its own."""
    with contextlib.redirect_stderr(io.StringIO()) as err:
        result = outcome(fn, *args)
    return result, err.getvalue()


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(tree=trees)
    def test_readers_match(self, tree):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "root"
            build(root, tree)
            scanned = outcome_and_stderr(scan_corpus, root, "N")
            expected = outcome_and_stderr(reference_scan_corpus, root, "N")
            assert scanned == expected
            assert outcome(load_gt_tree, root) == outcome(reference_load_gt_tree, root)
            assert outcome(load_pred_texts, root, ENGINES) == outcome(
                reference_pred_texts, root, ENGINES
            )

    @pytest.mark.parametrize("reader", ["scan", "gt", "pred"])
    def test_missing_root_matches(self, tmp_path, reader):
        missing = tmp_path / "missing"
        new, old = {
            "scan": ((scan_corpus, missing, "N"), (reference_scan_corpus, missing, "N")),
            "gt": ((load_gt_tree, missing), (reference_load_gt_tree, missing)),
            "pred": ((load_pred_texts, missing, ENGINES), (reference_pred_texts, missing, ENGINES)),
        }[reader]
        assert outcome(*new) == outcome(*old)
        assert outcome(*new)[0] == "error"


READERS = {
    "scan": lambda root: scan_corpus(root, "N"),
    "gt": load_gt_tree,
    "pred": lambda root: load_pred_texts(root, ("e",)),
}


class TestListingErrors:
    """A directory that cannot be listed is a data error naming it, never a
    traceback and never a silently skipped book."""

    @pytest.fixture
    def tree(self, tmp_path):
        for book in ("b1", "b2"):
            (tmp_path / book).mkdir()
            (tmp_path / book / "l1.gt.txt").write_text("x\n", encoding="utf-8")
            (tmp_path / book / "l1.png").write_bytes(b"")
            (tmp_path / book / "l1.pred.e.txt").write_text("x\n", encoding="utf-8")
        return tmp_path

    @staticmethod
    def refuse(monkeypatch, name: str, path: Path) -> None:
        real = getattr(os, name)

        def listing(target):
            if Path(target) == path:
                raise PermissionError(13, "Permission denied", str(target))
            return real(target)

        monkeypatch.setattr(os, name, listing)

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_unlistable_root(self, tree, monkeypatch, reader):
        self.refuse(monkeypatch, "scandir", tree)
        label = {"scan": "corpus root", "gt": "ground-truth root", "pred": "prediction root"}[reader]
        with pytest.raises(ManifestError) as err:
            READERS[reader](tree)
        assert str(err.value) == f"{label} {tree} is not a readable directory"

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_unlistable_book(self, tree, monkeypatch, reader):
        self.refuse(monkeypatch, "listdir", tree / "b2")
        with pytest.raises(ManifestError) as err:
            READERS[reader](tree)
        assert str(err.value) == f"cannot list book directory {tree / 'b2'}: Permission denied"


class TestLineIds:
    @pytest.mark.parametrize(
        "name, line_id",
        [
            ("l2.gt.txt", "l2"),
            (".gt.txt", ""),
            ("l2.pred.abbyy.txt", "l2"),
            ("l2.pred.e.1.txt", "l2"),
            ("l2.pred.e[1].txt", "l2"),
            ("raw.txt", "raw"),
            ("l2.pred.abbyy.conf", "l2.pred.abbyy"),
        ],
    )
    def test_line_id_of(self, name, line_id):
        assert line_id_of(name) == line_id


# --- the --pattern walk against rglob -----------------------------------

# Directory and file names are disjoint, so any drawn paths fit in one tree.
WALK_DIRS = ("a", "b", ".d")
WALK_FILES = ("a.gt.txt", "b.txt", ".h", "ab", "x.y.gt.txt")
# Literal parts, wildcards and '**'. No literal part names the broken link
# gone.gt.txt: rglob tests a literal last part with exists(), which a broken
# link fails, while a wildcard part yields it. _tree_files yields it either
# way, and reading it is then a data error naming it.
PATTERN_PARTS = (
    "*", "?", "[ab]*", "?b*", "x.*", "*.txt", "*.gt.txt", "a.gt.txt", ".h", "a", "b", ".d", "ln",
    "**",
)

walk_trees = st.lists(
    st.tuples(st.lists(st.sampled_from(WALK_DIRS), max_size=2), st.sampled_from(WALK_FILES)),
    max_size=8,
)


@st.composite
def patterns(draw) -> str:
    """One to three parts, joined by '/' or '//', maybe after './' or
    with a trailing slash; or the empty pattern."""
    parts = draw(st.lists(st.sampled_from(PATTERN_PARTS), min_size=1, max_size=3))
    pattern = "".join(
        part + draw(st.sampled_from(("/", "//", "/./"))) for part in parts[:-1]
    ) + parts[-1]
    lead, trail = draw(st.sampled_from(("", "./", ".//"))), draw(st.sampled_from(("", "", "/")))
    return draw(st.sampled_from((lead + pattern + trail,) * 9 + ("",)))


def build_walk_tree(src: Path, paths) -> None:
    """The drawn files under src, with a/ always there; beside them a
    symlink ln to a/ at the top and in a/, a symlink lf.txt to a file, and
    the broken link gone.gt.txt."""
    (src / "a").mkdir(parents=True)
    (src / "a" / "a.gt.txt").write_text("x\n", encoding="utf-8")
    for dirs, name in paths:
        (src / Path(*dirs)).mkdir(parents=True, exist_ok=True)
        (src / Path(*dirs) / name).write_text("x\n", encoding="utf-8")
    (src / "ln").symlink_to(src / "a", target_is_directory=True)
    (src / "a" / "ln").symlink_to(src / "a", target_is_directory=True)
    (src / "lf.txt").symlink_to(src / "a" / "a.gt.txt")
    (src / "gone.gt.txt").symlink_to(src / "nowhere")


def reference_tree_files(src: Path, pattern: str) -> list[str]:
    """rglob's matches that are not directories, as strings, less those
    below a symlinked directory: rglob enters one where a pattern part
    other than '**' names it, and _tree_files enters none."""

    def through_link(path: Path) -> bool:
        return any((src / parent).is_symlink() for parent in path.relative_to(src).parents)

    return [str(x) for x in sorted(src.rglob(pattern)) if not x.is_dir() and not through_link(x)]


def tree_files(src: Path, pattern: str) -> list[str]:
    """_tree_files, with no match as an empty list."""
    try:
        return _tree_files(str(src), pattern)
    except ManifestError as exc:
        assert str(exc) == f"no files matching {pattern!r} under {src}"
        return []


class TestPatternWalk:
    @settings(max_examples=200, deadline=None)
    @given(paths=walk_trees, pattern=patterns())
    def test_matches_rglob(self, paths, pattern):
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(os.path.realpath(tmp)) / "in"
            build_walk_tree(src, paths)
            assert tree_files(src, pattern) == reference_tree_files(src, pattern)

    @pytest.mark.parametrize(
        "pattern, found",
        [
            ("*.gt.txt", ["a/a.gt.txt", "gone.gt.txt"]),
            ("a/**/*.gt.txt", ["a/a.gt.txt"]),
            ("*/a.gt.txt", ["a/a.gt.txt"]),
            ("ln/*.gt.txt", []),
            ("*", ["a/a.gt.txt", "gone.gt.txt", "lf.txt"]),
            ("a**", ["a/a.gt.txt"]),
        ],
        ids=["suffix", "inner-any-depth", "one-directory", "symlinked-directory", "star",
             "star-star-inside-a-part"],
    )
    def test_files_found(self, tmp_path, pattern, found):
        """Symlinked directories are never entered, not even where a
        pattern part names one; a '**' inside a part is two '*'."""
        build_walk_tree(tmp_path / "in", [])
        assert tree_files(tmp_path / "in", pattern) == [str(tmp_path / "in" / f) for f in found]


def reference_glob_match(parts: list[str], pats: list[str]) -> bool:
    """The earlier recursive _glob_match, exponential in its '**' parts."""
    if not pats:
        return not parts
    if pats[0] == "**":
        return any(reference_glob_match(parts[i:], pats[1:]) for i in range(len(parts) + 1))
    return bool(parts) and fnmatchcase(parts[0], pats[0]) and reference_glob_match(parts[1:], pats[1:])


class TestGlobMatch:
    """_glob_match keeps the counts of path parts its glob parts can match,
    in one pass over the glob parts."""

    @settings(max_examples=500, deadline=None)
    @given(
        parts=st.lists(st.sampled_from(("a", "b", "ab", ".a", "a.gt.txt")), max_size=6),
        pats=st.lists(st.sampled_from(("**", "*", "?", "a", "b", "[ab]*", "*.txt", ".*")), max_size=6),
    )
    def test_matches_recursive_reference(self, parts, pats):
        assert _glob_match(parts, pats) == reference_glob_match(parts, pats)

    def test_many_star_star_parts(self):
        """12 '**' parts and a 12-deep path that they do not match, where the
        recursion tries every way to share the path's parts among them and
        takes seconds."""
        parts = [f"d{i}" for i in range(11)] + ["l1.gt.txt"]
        start = time.perf_counter()
        assert not _glob_match(parts, [*["**"] * 12, "zz.gt.txt"])
        assert _glob_match(parts, [*["**"] * 12, "l1.gt.txt"])
        assert time.perf_counter() - start < 0.5


# --- the path rules of the codec and rules loaders ------------------------

path_texts = st.text(st.sampled_from("/.a b"), max_size=8) | st.lists(
    st.sampled_from(("", ".", "..", "a", ".a", "a.", "a.b", "a..b", ".a.b", "..a")), max_size=4
).map("/".join)


class TestPathRules:
    @settings(max_examples=300, deadline=None)
    @given(path_texts)
    def test_posix_path_is_pure_posix_path_str(self, text):
        assert posix_path(text) == str(PurePosixPath(text))
        assert posix_path(PurePosixPath(text)) == str(PurePosixPath(text))

    @settings(max_examples=300, deadline=None)
    @given(path_texts)
    def test_stem_is_pure_posix_path_stem(self, text):
        assert stem(text) == PurePosixPath(text).stem
        assert stem(PurePosixPath(text)) == PurePosixPath(text).stem
