from __future__ import annotations

import importlib
import pkgutil

import pytest

import fraktur_bench

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(fraktur_bench.__path__))


@pytest.mark.parametrize("name", fraktur_bench.__all__)
def test_exported_name_resolves(name):
    assert hasattr(fraktur_bench, name)


@pytest.mark.parametrize("name", SUBMODULES)
def test_package_attribute_is_the_submodule(name):
    module = importlib.import_module(f"fraktur_bench.{name}")
    assert getattr(fraktur_bench, name) is module
