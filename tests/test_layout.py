"""The package's layout: no dead top-level names, and a leaf state module."""

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


def test_session_is_a_leaf():
    """``hazgate.session`` loads no other hazgate module, so the executive,
    the monitors, simulate and reach can all import it."""
    probe = ("import sys, hazgate.session; "
             "print(sorted(m for m in sys.modules if m.startswith('hazgate')))")
    out = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}).stdout
    assert out.strip() == "['hazgate', 'hazgate.session']"
