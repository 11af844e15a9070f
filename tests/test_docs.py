"""The `>>>` examples in the package's docstrings run and pass."""

import doctest
import importlib
import pkgutil

import permpat


def test_docstring_examples():
    names = ["permpat"] + [f"permpat.{m.name}" for m in pkgutil.iter_modules(permpat.__path__)]
    results = [doctest.testmod(importlib.import_module(name)) for name in names]
    assert sum(r.failed for r in results) == 0
    assert sum(r.attempted for r in results) >= 18
