"""Every exported name resolves, every private one is used, the benchmark's checker imports, README matches the code.

A name left in an ``__all__`` after its definition is deleted, or a
deletion the checker in ``perfbench/`` still imports, fails here rather
than in a later star-import or benchmark run.  So does a private helper
that a change left with no caller, a config key added to the CLI without
a line in README, or a name README's "Library surface" still lists after
it left the package.
"""

import ast
import importlib
import importlib.util
import pkgutil
import re
from collections import Counter
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


def names_used(node) -> Counter:
    """How often each name is read or written, as a bare name or an attribute, anywhere under ``node``."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def names_bound(statement) -> list[str]:
    """The names a module-level def, class or assignment binds."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
    return []


def test_every_private_name_is_used_outside_its_definition():
    trees = [ast.parse(path.read_text()) for path in sorted((ROOT / "src" / "evohist").glob("*.py"))]
    used = sum(map(names_used, trees), Counter())
    unused = [name for tree in trees for statement in tree.body for name in names_bound(statement)
              if name.startswith("_") and not name.startswith("__") and used[name] == names_used(statement)[name]]
    assert unused == []


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
