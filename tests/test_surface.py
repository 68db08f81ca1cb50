"""Every exported name resolves, and the benchmark's checker still imports.

A name left in an ``__all__`` after its definition is deleted, or a
deletion the checker in ``perfbench/`` still imports, fails here rather
than in a later star-import or benchmark run.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import evohist

ROOT = Path(__file__).resolve().parents[1]
MODULES = ["evohist", *(f"evohist.{m.name}" for m in pkgutil.iter_modules(evohist.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_benchmark_checker_imports():
    spec = importlib.util.spec_from_file_location("perfbench_check", ROOT / "perfbench" / "check.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # runs its imports; main() only runs as a script
    assert callable(module.main)
