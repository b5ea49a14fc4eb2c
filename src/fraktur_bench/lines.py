"""Core line type shared by every stage of the pipeline, the on-disk names
of line files, and ``read_utf8``, the one reader of every input file.

A TranscriptionLine is one text line together with its source identity.
Ground-truth lines and engine predictions use the same type; predictions
additionally carry the id of the engine that produced them.

On disk a tree holds one directory per book, each holding
``<line_id><suffix>`` files: ``.gt.txt`` for ground truth,
``.pred.<engine_id>.txt`` for a prediction, ``.pred.<engine_id>.conf``
for its optional per-character confidences, an image suffix for the line
image. ``list_books`` lists a tree once; every reader matches line files
on the listed names by exact suffix.
"""

from __future__ import annotations

import os
from collections import namedtuple

from .errors import ManifestError

GT_SUFFIX = ".gt.txt"
IMAGE_SUFFIXES = (".bin.png", ".nrm.png", ".png")
# Bytes asked of each os.read; a file is read until a read returns none.
_CHUNK = 1 << 16


TranscriptionLine = namedtuple(
    "TranscriptionLine", "book_id line_id text engine_id", defaults=(None,)
)


def read_utf8(path: str | os.PathLike, error: type[Exception]) -> str:
    """The text of an input file, decoded strictly as UTF-8. A file that
    cannot be read raises error ``cannot read <path>: <reason>``, one that
    is not UTF-8 ``<path> is not valid UTF-8: <reason>``."""
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            chunks = []
            while chunk := os.read(fd, _CHUNK):
                chunks.append(chunk)
        finally:
            os.close(fd)
        return b"".join(chunks).decode("utf-8")
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not valid UTF-8: {exc}") from exc


def pred_suffix(engine_id: str) -> str:
    """The file suffix of one engine's predictions; the id is taken literally."""
    return f".pred.{engine_id}.txt"


def conf_suffix(engine_id: str) -> str:
    """The file suffix of one engine's per-character confidence sidecars."""
    return f".pred.{engine_id}.conf"


def line_id_of(name: str) -> str:
    """The line id in a text file's name: the name without ``.gt.txt`` or
    ``.pred.<engine_id>.txt``. Any other name loses its last extension."""
    if name.endswith(GT_SUFFIX):
        return name[: -len(GT_SUFFIX)]
    head, sep, _ = name.rpartition(".pred.")
    if sep and name.endswith(".txt"):
        return head
    return stem(name)


def path_parts(path: str | os.PathLike) -> list[str]:
    """The parts of a /-separated path that are neither empty nor '.'."""
    return [part for part in os.fspath(path).split("/") if part not in ("", ".")]


def posix_path(path: str | os.PathLike) -> str:
    """``str(PurePosixPath(path))``: empty and ``.`` parts dropped, so no
    trailing slash, and a leading ``//`` kept; ``.`` when nothing is left."""
    path = os.fspath(path)
    root = "//" if path[:2] == "//" and path[2:3] != "/" else "/" * path.startswith("/")
    return root + "/".join(path_parts(path)) or "."


def stem(path: str | os.PathLike) -> str:
    """``PurePosixPath(path).stem``: the last part without its last
    extension, a dot that is neither first nor last."""
    name = (path_parts(path) or [""])[-1]
    dot = name.rfind(".")
    return name[:dot] if 0 < dot < len(name) - 1 else name


def list_books(root: str | os.PathLike, label: str) -> list[tuple[str, str, tuple[str, ...]]]:
    """The name and path of each immediate sub-directory of root, sorted by
    name, with the sorted names of its entries.

    Each directory is listed once. A root that cannot be listed raises
    ManifestError naming it as label; so does a book directory.
    """
    try:
        with os.scandir(root) as entries:
            book_names = sorted(e.name for e in entries if e.is_dir())
    except OSError as exc:
        raise ManifestError(f"{label} {root} is not a readable directory") from exc
    books = []
    for name in book_names:
        book_dir = os.path.join(root, name)
        try:
            books.append((name, book_dir, tuple(sorted(os.listdir(book_dir)))))
        except OSError as exc:
            raise ManifestError(
                f"cannot list book directory {book_dir}: {exc.strerror or exc}"
            ) from exc
    return books
