"""The package's layout: no dead top-level names or methods, and a leaf state module."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hazgate"


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _defined(module: ast.Module) -> list[str]:
    """The module-level functions, classes and assigned names."""
    names = []
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def _loaded(module: ast.Module) -> set[str]:
    """Every name read, as a name or an attribute, or imported by name."""
    loaded = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loaded.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            loaded.update(alias.name for alias in node.names)
    return loaded


def test_every_top_level_name_is_used():
    """A module-level name that nothing in src, tests or perfbench reads is
    dead code; a dunder name is read by Python itself."""
    loaded = set()
    for directory in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            loaded |= _loaded(_tree(path))
    unused = [f"{path.name}: {name}"
              for path in sorted(PACKAGE.glob("*.py"))
              for name in _defined(_tree(path))
              if name not in loaded and not (name.startswith("__") and name.endswith("__"))]
    assert unused == []


def _members_read(module: ast.Module) -> set[str]:
    """Every attribute read, and every name a class body reads (as
    ``_on_uiStop = _stop`` reads ``_stop``)."""
    read = {node.attr for node in ast.walk(module)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    for cls in ast.walk(module):
        if isinstance(cls, ast.ClassDef):
            read.update(node.id for stmt in cls.body
                        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                        for node in ast.walk(stmt)
                        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
    return read


# methods no command reads, kept for the tests
TEST_ONLY_METHODS = {
    "ProcessModel.out_edges": "a graph query for the model tests",
    "ProcessModel.node_by_label": "a graph query for the model tests",
    "Scenario.save": "the scenario loader's inverse, for the round-trip tests",
}


def test_every_method_is_read():
    """A method that nothing in src, tests or perfbench reads is dead code.
    Python calls the dunders, and ``executive._HANDLERS`` binds the
    ``_on_*`` event handlers by name; a method only the tests read is listed
    in ``TEST_ONLY_METHODS`` with its reason."""
    def reads(*directories):
        return set().union(*(_members_read(_tree(path)) for directory in directories
                             for path in sorted((ROOT / directory).rglob("*.py"))))

    program, tests = reads("src", "perfbench"), reads("tests")
    unread, test_only = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in _tree(path).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = method.name
                if (name.startswith("__") and name.endswith("__")) or name.startswith("_on_") \
                        or name in program:
                    continue
                (test_only if name in tests else unread).append(f"{cls.name}.{name}")
    assert unread == []
    assert sorted(test_only) == sorted(TEST_ONLY_METHODS)


def test_session_is_a_leaf():
    """``hazgate.session`` loads no other hazgate module, so the executive,
    the monitors, simulate and reach can all import it."""
    probe = ("import sys, hazgate.session; "
             "print(sorted(m for m in sys.modules if m.startswith('hazgate')))")
    out = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}).stdout
    assert out.strip() == "['hazgate', 'hazgate.session']"
