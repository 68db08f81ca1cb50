"""Every exported name resolves, the benchmark's checker still imports, and README matches the code.

A name left in an ``__all__`` after its definition is deleted, or a
deletion the checker in ``perfbench/`` still imports, fails here rather
than in a later star-import or benchmark run.  So does a config key
added to the CLI without a line in README, or a name README's "Library
surface" still lists after it left the package.
"""

import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import pytest

import evohist
from evohist import cli

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


def test_readme_lists_every_config_key_in_order():
    [keys] = re.findall(r"Recognised keys: `([^`]*)`", (ROOT / "README.md").read_text())
    assert keys.split() == list(cli._OPTIONS)


def test_readme_library_surface_names_are_exported():
    section = (ROOT / "README.md").read_text().split("## Library surface\n", 1)[1]
    names = re.findall(r"`([^`]*)`", section.strip().split("\n\n", 1)[0])
    assert names
    assert [name for name in names if name not in evohist.__all__] == []
