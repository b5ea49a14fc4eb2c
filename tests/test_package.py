from __future__ import annotations

import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import fraktur_bench
from fraktur_bench import BookEntry, Codec, NormalizationRuleSet, VoterOutput, VotingConfig
from fraktur_bench.errors import CodecError, ManifestError, RuleSetError, VotingError

from trees import make_gt_tree, make_pred_tree, package_env

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(fraktur_bench.__path__))
SOURCES = sorted(Path(fraktur_bench.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", fraktur_bench.__all__)
def test_exported_name_resolves(name):
    assert hasattr(fraktur_bench, name)


@pytest.mark.parametrize("name", SUBMODULES)
def test_package_attribute_is_the_submodule(name):
    module = importlib.import_module(f"fraktur_bench.{name}")
    assert getattr(fraktur_bench, name) is module


def imported_names(nodes) -> list[str]:
    """The names bound by the imports among nodes."""
    names = []
    for node in nodes:
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def own_nodes(node: ast.AST):
    """The nodes inside node, leaving out the insides of the functions,
    lambdas and classes it holds."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            yield from own_nodes(child)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    """No linter runs on this package, so an import that nothing reads
    would otherwise stay unnoticed. An import inside a function, which
    keeps a module out of set-up until that function runs, must be read
    in that function."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name in imported_names(tree.body) if name not in used | exported(tree)]
    for function in ast.walk(tree):
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            read = {
                node.id for node in ast.walk(function)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            unused += [
                f"{function.name}: {name}" for name in imported_names(own_nodes(function)) if name not in read
            ]
    assert unused == []


def module_private_names(tree: ast.Module) -> list[str]:
    """The _names a module's top level defines: functions, classes and
    assignment targets, dunder names left out."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_private_name_is_used(path):
    """The twin of test_every_import_is_used: a private helper, constant or
    class that its own module never reads is left over from a change."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert [name for name in module_private_names(tree) if name not in read] == []


@pytest.mark.parametrize(
    "path", [path for path in SOURCES if path.name != "align.py"], ids=lambda path: path.name
)
def test_only_align_names_the_op_vocabulary(path):
    """Edits are plain (gt_pos, pred_pos, gt, pred) tuples whose empty side
    gives the kind; OpKind and EditOp serve only align's ops replay."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names |= {node.name.rpartition(".")[2], node.asname}
    assert names & {"OpKind", "EditOp"} == set()


def test_member_kinds_are_worded_once():
    """The readers of stored reports and manifests check a member's JSON
    type through the kinds of jsonout; a reader that words such a check
    itself would drift from the others' messages."""
    wordings = ("must be a list of strings", "is not a JSON object", ", not a string")
    found = [
        f"{path.name}:{node.lineno}: {node.value!r}"
        for path in SOURCES
        if path.name != "jsonout.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and any(wording in node.value for wording in wordings)
    ]
    assert found == []


def _opens_for_reading(node: ast.AST) -> bool:
    """Whether node calls open with no mode that writes, or os.open with
    flags that do not name O_WRONLY."""
    func = ast.unparse(node.func) if isinstance(node, ast.Call) else None
    if func == "open":
        modes = [*node.args[1:2], *(k.value for k in node.keywords if k.arg == "mode")]
        return not any(isinstance(m, ast.Constant) and set("wax") & set(m.value) for m in modes)
    return func == "os.open" and "O_WRONLY" not in ast.unparse(node)


def test_only_lines_reads_files():
    """Every input file is read by lines.read_utf8, which words both ways
    a read can fail; a module that opened or worded a read itself would
    drift from it."""
    found = {
        path.name: [
            node.lineno
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if _opens_for_reading(node)
            or isinstance(node, ast.Constant) and isinstance(node.value, str) and "cannot read" in node.value
        ]
        for path in SOURCES
    }
    assert found.pop("lines.py")  # read_utf8 itself, so the guard sees a read
    assert found == dict.fromkeys(found, [])


def test_only_run_writes_output():
    """Each command handler in cli returns its outputs and status line, and
    run alone writes them, after the handler's last check; a handler that
    wrote or printed itself could leave a partial output behind an error."""
    tree = ast.parse((Path(fraktur_bench.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    handlers = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name.startswith("_cmd_")]
    found = [
        f"{handler.name}:{node.lineno}: {ast.unparse(node)}"
        for handler in handlers
        for node in ast.walk(handler)
        if isinstance(node, ast.Call) and ast.unparse(node.func) in ("write_atomic", "_write_tree", "print")
        or isinstance(node, ast.Attribute) and ast.unparse(node) in ("sys.stdout", "sys.stderr")
    ]
    assert len(handlers) == 10
    assert found == []


@pytest.mark.parametrize("forbidden", ["dataclasses", "typing", "tempfile", "fractions", "pathlib"])
def test_no_module_imports(forbidden):
    """Every command imports every record type, and the records are
    collections.namedtuple classes. With @dataclass records, importing
    dataclasses took 11-13 ms of each command's set-up and creating 12
    classes another 13-17 ms; typing.NamedTuple records took 3.8-4.8 ms to
    create, besides the import of typing itself (CPython 3.11, 2-core VM).
    Names used only in annotations come from collections.abc. tempfile
    (with shutil, bz2 and lzma) served only the temp file of each output,
    which cli.write_atomic makes with os.open. fractions (with decimal and
    numbers) served only the top-k share, which is its two counts reduced
    by math.gcd. pathlib (with ntpath, urllib, ipaddress and errno) served
    only path joins, globbing and names that os.path, os.walk with fnmatch
    and lines.posix_path and lines.stem give as str."""
    importers = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.partition(".")[0] == forbidden for m in modules):
                importers.append(f"{path.name}:{node.lineno}")
    assert importers == []


# hashlib, with the OpenSSL binding _hashlib, and random serve only the
# refinement sample and the rule-set checksum of a report; json only stored
# and written JSON and --error-json; csv only the csv formats and the
# expected counts of prepare verify.
LOADED_WHEN_USED = ("hashlib", "_hashlib", "random", "json", "csv", "_csv")


def test_set_up_leaves_out_class_machinery():
    """A command's set-up, in a fresh interpreter without site-packages,
    loads none of the modules that only dataclasses needed, nor
    importlib.resources: the default codec and rules are read from the
    files next to the sources. Nor logging: the scan prints its warnings
    to stderr itself. Nor typing: the records are collections.namedtuple
    classes. Nor tempfile and the shutil it brings: an output's temp file
    is made with os.open. Nor fractions and the decimal and numbers it
    brings: a top-k share is a pair of ints in lowest terms. Nor pathlib
    and the ntpath, urllib and ipaddress it brings: every path is a str.
    Nor the modules that some commands never use (LOADED_WHEN_USED): the
    functions that hash, sample, read or write JSON, and read or write CSV
    import them."""
    code = (
        "import sys, fraktur_bench.cli\n"
        "from fraktur_bench import default_codec, default_rules\n"
        "default_codec(), default_rules()\n"
        "forbidden = {'dataclasses', 'inspect', 'ast', 'dis', 'importlib.resources', 'logging',"
        " 'typing', 'tempfile', 'shutil', 'fractions', 'decimal', 'numbers',"
        f" 'pathlib', 'ntpath', 'urllib', 'urllib.parse', 'ipaddress', *{LOADED_WHEN_USED!r}}}\n"
        "print(sorted(forbidden & set(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=package_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "[]\n"


def test_vote_and_normalize_load_none_of_the_modules_loaded_when_used(tmp_path):
    """vote, with confidences breaking ties, and normalize neither hash,
    sample, touch JSON nor CSV, so a whole run of each, in a fresh
    interpreter without site-packages, loads none of LOADED_WHEN_USED."""
    for engine, text in (("e0", "Das Jahr"), ("e1", "Das Jabr"), ("e2", "Dns Jahr")):
        make_pred_tree(tmp_path / "pred", engine, {"B": {"l1": text}})
        (tmp_path / "pred" / "B" / f"l1.pred.{engine}.conf").write_text(
            " ".join(["0.5"] * len(text)) + "\n", encoding="utf-8"
        )
    make_gt_tree(tmp_path / "gt", {"B": {"l1": "Daß Jahr", "l2": "„Fraktur“"}})
    vote = ["vote", "--pred", str(tmp_path / "pred"), "--engine", "e0", "--engine", "e1",
            "--engine", "e2", "--tie-break", "confidence", "--out", str(tmp_path / "voted")]
    normalize = ["normalize", "--in", str(tmp_path / "gt"), "--out", str(tmp_path / "normalized")]
    code = (
        "import sys\n"
        "from fraktur_bench.cli import run\n"
        f"codes = run({vote!r}), run({normalize!r})\n"
        f"print(codes, sorted(set({LOADED_WHEN_USED!r}) & set(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=package_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.splitlines()[-1] == "(0, 0) []"
    assert (tmp_path / "voted" / "B" / "l1.pred.voted.txt").read_text(encoding="utf-8") == "Das Jahr\n"
    assert (tmp_path / "normalized" / "B" / "l2.gt.txt").read_text(encoding="utf-8") == '"Fraktur"\n'


RECORDS = sorted(
    (
        obj
        for name in SUBMODULES
        for obj in vars(importlib.import_module(f"fraktur_bench.{name}")).values()
        if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")
        and obj.__module__ == f"fraktur_bench.{name}"
    ),
    key=lambda record: record.__name__,
)


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_record_is_slotted(record):
    """A record subclass that forgets __slots__ = () gives every instance a
    __dict__. Codec alone keeps one, for its member set, which is not a
    field and so is neither compared nor hashed."""
    instance = tuple.__new__(record, (None,) * len(record._fields))
    assert hasattr(instance, "__dict__") == (record is Codec)


# Each record that checks its fields: the fields without defaults, the
# defaults, one valid change, and bad fields with the one-line error.
VALIDATING = [
    (
        Codec,
        {"characters": ("a", " ")},
        {"name": "codec"},
        {"name": "other"},
        {"characters": ("a", "a", " ")},
        CodecError,
        "codec 'codec' has duplicate characters: ['a']",
    ),
    (
        NormalizationRuleSet,
        {"rules": (("x", "y"),)},
        {"name": "rules"},
        {"rules": (("x", "z"),)},
        {"rules": (("x", "y"), ("", "y"))},
        RuleSetError,
        "rule with empty source",
    ),
    (
        BookEntry,
        {"book_id": "b", "corpus_id": "N", "line_ids": ("l1", "l2")},
        {"century": None, "language": None},
        {"century": 19},
        {"line_ids": ("l1", "l1")},
        ManifestError,
        "book 'b': duplicate line ids",
    ),
    (
        VoterOutput,
        {"engine_id": "e", "text": "ab"},
        {"confidences": None},
        {"confidences": (0.5, 1.0)},
        {"confidences": (0.5, float("nan"))},
        VotingError,
        "engine 'e': confidence nan outside [0, 1]",
    ),
    (
        VotingConfig,
        {},
        {"min_voters": 2, "tie_break": "first_voter", "pivot": "longest"},
        {"pivot": "first"},
        {"min_voters": 1},
        VotingError,
        "min_voters must be >= 2, got 1",
    ),
]


@pytest.mark.parametrize(
    "record, required, defaults, change, bad, error, message",
    VALIDATING,
    ids=[row[0].__name__ for row in VALIDATING],
)
def test_validating_record(record, required, defaults, change, bad, error, message):
    """Built from its defaults, by keyword or by position, a validating
    record is the same value; any other value differs, and bad fields
    raise the record's own error however they are passed."""
    full = {**defaults, **required}
    full = {name: full[name] for name in record._fields}
    built = [record(**required), record(*required.values()), record(**full), record(*full.values())]
    assert all(other == built[0] and hash(other) == hash(built[0]) for other in built)
    assert record(**{**full, **change}) != built[0]
    broken = {**full, **bad}
    for args, kwargs in (((), broken), (tuple(broken.values()), {})):
        with pytest.raises(error) as err:
            record(*args, **kwargs)
        assert str(err.value) == message
