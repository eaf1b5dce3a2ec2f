"""The package's layout: no dead top-level names or methods, a leaf state
module, and generators that speak only the executive's declared input language."""

import ast
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from hazgate.acceptance import _random_timeline
from hazgate.campaign import _NODE_EVENT_KINDS, generate_campaign_scenario
from hazgate.datafiles import data_path
from hazgate.executive import (
    _BOOLEAN_PAYLOAD_FIELDS, CONFIRM_ACTIONS, EVENT_KINDS, NOMINAL_EVENTS, Event, ExecConfig,
)
from hazgate.reach import stimuli_for
from hazgate.scenarios import InjectionError, apply_injection, nominal_timeline
from hazgate.shard import load_shard_catalog
from hazgate.stpa import load_uca_catalog

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


def _undeclared(event: Event, actions) -> list[str]:
    """What ``event`` names that the executive's tables do not declare: its
    commandConfirm action (one of ``actions``), or a payload field other than
    a declared boolean one, ``action`` and ``view``.  ``Event`` itself
    rejects a kind that is not declared."""
    declared = NOMINAL_EVENTS[event.kind][1]
    if event.kind == "commandConfirm":
        action = event.payload.get("action")
        if action not in actions:
            return [f"action {action!r}"]
        declared = {"action": "", "view": "", **CONFIRM_ACTIONS.get(action, {})}
    # a boolean field holds a bool, action and view hold text
    return [f"{event.kind} payload {name}={value!r}" for name, value in event.payload.items()
            if name not in declared or type(value) is not type(declared[name])]


def _campaign_timelines(config, n: int) -> list[list[Event]]:
    """``n`` campaign scenarios' timelines, injections applied as the campaign does."""
    shard = load_shard_catalog(data_path("shard_catalog.csv"))
    ucas = load_uca_catalog(data_path("uca_catalog.csv"))
    timelines = []
    for index in range(n):
        scenario = generate_campaign_scenario(random.Random(index), config, shard, ucas, index)
        timeline = sorted(scenario.base_timeline, key=lambda e: e.timestamp)
        for injection in scenario.injections:
            try:
                timeline = apply_injection(timeline, injection)
            except InjectionError:
                pass
        timelines.append(timeline)
    return timelines


def _random_timelines(n: int) -> list[list[Event]]:
    """Criterion 10's first ``n`` draws."""
    rng = random.Random(20260810)
    return [_random_timeline(rng) for _ in range(n)]


# generator -> (its timelines for a config, the actions it may name beyond
# the workflow actions)
_GENERATORS = {
    "nominal": lambda config: ([
        nominal_timeline(config, retakes={"CC": 1, "MLO-L": 3}),
        nominal_timeline(config, rng=random.Random(1), retakes={"MLO-R": 2}),
    ], ()),
    "criterion-10": lambda config: (_random_timelines(1000), ("decide", "advance", "bogus")),
    "reach": lambda config: ([[Event(0, NOMINAL_EVENTS[kind][0], kind, payload)
                               for kind, payload in stimuli_for(EVENT_KINDS)]], ()),
    "campaign": lambda config: (_campaign_timelines(config, 200), ()),
}


@pytest.mark.parametrize("generator", _GENERATORS)
def test_generators_speak_the_declared_input_language(generator):
    """Every event a generator emits names a declared kind and action, and
    only declared payload fields, so the tables are the whole input space."""
    timelines, extra_actions = _GENERATORS[generator](
        ExecConfig.load(data_path("exec_config.json")))
    undeclared = {name for timeline in timelines for event in timeline
                  for name in _undeclared(event, (*CONFIRM_ACTIONS, *extra_actions))}
    assert sorted(undeclared) == []


def test_campaign_targets_declared_kinds_and_actions():
    assert [(kind, action) for selectors in _NODE_EVENT_KINDS.values()
            for kind, action in selectors
            if kind not in NOMINAL_EVENTS or action not in (None, *CONFIRM_ACTIONS)] == []


def test_declared_fields_are_load_checked_booleans():
    """Every declared field is a boolean whose type the scenario loader checks."""
    rows = [*CONFIRM_ACTIONS.values(), *(fields for _, fields in NOMINAL_EVENTS.values())]
    assert [(name, value) for row in rows for name, value in row.items()
            if name not in _BOOLEAN_PAYLOAD_FIELDS or not isinstance(value, bool)] == []
