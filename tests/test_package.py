from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import fraktur_bench

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(fraktur_bench.__path__))
SOURCES = sorted(Path(fraktur_bench.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", fraktur_bench.__all__)
def test_exported_name_resolves(name):
    assert hasattr(fraktur_bench, name)


@pytest.mark.parametrize("name", SUBMODULES)
def test_package_attribute_is_the_submodule(name):
    module = importlib.import_module(f"fraktur_bench.{name}")
    assert getattr(fraktur_bench, name) is module


def module_imports(tree: ast.Module) -> list[str]:
    """The names bound by the module-level imports of a module."""
    names = []
    for node in tree.body:
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


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    """No linter runs on this package, so an import that nothing reads
    would otherwise stay unnoticed."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name in module_imports(tree) if name not in used | exported(tree)]
    assert unused == []


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
