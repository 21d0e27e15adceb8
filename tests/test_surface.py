"""The package's public surface and the benchmark's reach into it.

perfbench/ is frozen between benchmark changes, so every name it reads
from the package must keep resolving: the callables perfbench/tracing.py
wraps by module attribute (CALLABLES), the names its modules import from
netcode and the attributes they read off imported netcode modules. The
files are read with ast, so perfbench itself is never imported. Every
name in a module's __all__ resolves, and something outside the tests
reads it: src outside the name's own definition, the README's python
blocks or perfbench. The code that only tests use lives in
tests/oracles.py, not in any __all__.
"""

import ast
import importlib
import re
from functools import cache, reduce
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
MODULES = ("galois", "netmodel", "transform", "feasibility", "alignment", "cli")

# moved to tests/oracles.py: the package has no caller for them
MOVED = {
    "galois": {"dft_matrix", "inverse_dft_matrix", "_check_dft_args",
               "CharacteristicDividesN", "WrongOrder", "generator",
               "multiplicative_order"},
    "transform": {"BlockCirculant", "build_circulant", "diagonalize",
                  "instantaneous_solve", "SingularAtGeneration"},
    "netmodel": {"transfer_to_dict"},
    "feasibility": {"nontransform_equivalence"},
}


def _callables() -> list[tuple[str, str]]:
    """tracing.CALLABLES as (module, attribute path) pairs, read as a literal."""
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    node = next(
        n.value for n in tree.body
        if isinstance(n, ast.Assign) and any(getattr(t, "id", None) == "CALLABLES" for t in n.targets)
    )
    return [(f"netcode.{mod}", attr) for mod, attr, _ in ast.literal_eval(node)]


def _imports() -> list[tuple[str, str]]:
    """(module, name) for every netcode name a perfbench file imports or
    reads off an imported netcode module."""
    reach = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}  # local name -> netcode module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("netcode"):
                for alias in node.names:
                    reach.append((node.module, alias.name))
                    sub = f"{node.module}.{alias.name}"
                    if node.module == "netcode" and alias.name in MODULES:
                        modules[alias.asname or alias.name] = sub
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("netcode"):
                        reach.append((alias.name, ""))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                reach.append((modules[node.value.id], node.attr))
    return reach


def test_perfbench_reach_is_read():
    callables, imports = _callables(), _imports()
    assert len(callables) >= 30 and ("netcode.transform", "cp_encode") in callables
    assert ("netcode.galois", "poly_eval_matrix") in imports
    assert ("netcode.cli", "run") in imports


@pytest.mark.parametrize("module, path", sorted(set(_callables() + _imports())))
def test_perfbench_reach_resolves(module, path):
    reduce(getattr, filter(None, path.split(".")), importlib.import_module(module))


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    module = importlib.import_module(f"netcode.{name}")
    for public in module.__all__:
        assert hasattr(module, public), f"netcode.{name}.__all__ lists {public}"
    assert not MOVED.get(name, set()) & set(module.__all__)


def _reads(tree: ast.AST) -> set[str]:
    """Every name tree reads, bare or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


@cache
def _reached() -> frozenset[str]:
    """Names read by src outside their own top-level definition, by the
    README's python blocks, and by perfbench (imports, attributes read off
    netcode modules and the tracer's CALLABLES)."""
    reached = set()
    for path in sorted((ROOT / "src" / "netcode").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            reached |= _reads(stmt) - {getattr(stmt, "name", None)}
    for block in re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S):
        reached |= _reads(ast.parse(block))
    reached |= {path.split(".")[0] for _, path in _callables() + _imports()}
    return frozenset(reached)


@pytest.mark.parametrize("name", MODULES)
def test_public_names_are_reached_outside_the_tests(name):
    unreached = sorted(set(importlib.import_module(f"netcode.{name}").__all__) - _reached())
    assert not unreached, (
        f"netcode.{name}.__all__ lists {unreached}, which nothing outside the tests reads: "
        "move them to tests/oracles.py"
    )
