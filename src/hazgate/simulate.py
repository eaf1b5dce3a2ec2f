"""Scenario execution: compile, run through the executive, monitor, classify.

A run produces a :class:`Trace` (per-event state snapshots plus the session
log) and the monitor verdicts evaluated over it.  :func:`play` is the one
loop in hazgate that feeds events to an executive and records the trace:
``run_events`` uses it with the end-of-stream close-out, and ``reach``
replays its witness paths through it without one, resuming a replayed
session where the next witness extends it.  Outcomes:

* ``SafeCompletion`` -- workflow reached Final with no refusals and no
  monitor violations.
* ``BlockedSafely`` -- no monitor violations, but the executive refused at
  least one command or the session ended before Final (safe stop, abandon,
  freeze); the injected hazard did not get through.
* ``Violation`` -- at least one monitor Violated (expected only from
  unprotected, executive-disabled runs).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .executive import ExecConfig, SafetyExecutive
from .model import ProcessModel
from .monitors import VIOLATED, MonitorVerdict, evaluate_monitors
from .scenarios import (
    OUTCOME_BLOCKED_SAFELY,
    OUTCOME_SAFE_COMPLETION,
    OUTCOME_VIOLATION,
    Scenario,
)
from .session import SNAP_CLOCK, SNAP_NODE, ExecState

OUTCOME_VIOLATION_FOUND = "Violation"


class TraceStep(NamedTuple):
    event: object  # Event, or None for the close-out step
    snapshot: tuple
    emitted: tuple
    verdicts: tuple


# what json.dumps(obj, separators=(",", ":")) builds per call, built once
COMPACT_JSON = json.JSONEncoder(separators=(",", ":"))

# one --trace line per step, then the final line; see Trace.to_jsonl.  A step
# line is its clock, its event's time and payload, and two fragments that
# repeat across steps: the event head and the tail from the node on
_STEP_LINE = '{"t":%d,"event":{"t":%d,%s%s}%s'
_CLOSE_OUT_LINE = '{"t":%d,"event":null%s'
_EVENT_HEAD = '"source":%s,"kind":%s,"payload":'
_STEP_TAIL = ',"node":%s,"emitted":[%s],"verdicts":[%s]}'
_VERDICT = '{"kind":%s,"subject":%s,"requirement":%s,"detail":%s}'
_FINAL_LINE = '{"final":{"status":%s,"node":%s}}\n'


# Each distinct fragment is escaped once per process and kept in a memo of at
# most 1,024 fragments (bounded by count, not by their length), as
# executive._label_role keeps node roles.  Its key holds only text and None,
# whose equal values JSON writes alike; a payload is user JSON, whose equal
# values it can write differently (True and 1, 0.0 and -0.0), so each payload
# is encoded per event.
@lru_cache(maxsize=1024)
def _event_head(source: str, kind: str) -> str:
    text = encode_basestring_ascii  # COMPACT_JSON's own string escape
    return _EVENT_HEAD % (text(source), text(kind))


@lru_cache(maxsize=1024)
def _step_tail(node: str, emitted: tuple, verdicts: tuple) -> str:
    text = encode_basestring_ascii
    return _STEP_TAIL % (
        text(node), ",".join(map(text, emitted)),
        ",".join([_VERDICT % (text(v.kind), text(v.subject),
                              "null" if v.requirement is None else text(v.requirement),
                              text(v.detail))
                  for v in verdicts]))


@dataclass
class Trace:
    steps: list[TraceStep] = field(default_factory=list)
    log: list = field(default_factory=list)
    final_snapshot: tuple = ()
    final_status: str = ""
    final_node: str = ""
    executive_enabled: bool = True

    @property
    def refusals(self) -> list:
        return [
            v
            for step in self.steps
            for v in step.verdicts
            if v.kind in ("refused", "forced-abandon")
        ]

    def to_jsonl(self) -> str:
        """One line per step, then a ``final`` line, each with the bytes
        ``COMPACT_JSON.encode`` gives its record: keys in the order of the
        line templates above, compact and ASCII-escaped.  Only a non-empty
        event payload, which is user JSON of any shape, goes through the
        encoder; every other value is an int, text or a null requirement.
        """
        text = encode_basestring_ascii  # COMPACT_JSON's own string escape
        encode = COMPACT_JSON.encode
        lines = []
        for event, snapshot, emitted, verdicts in self.steps:
            # tuple() keys a hand-built list field; a tuple is passed as is
            tail = _step_tail(snapshot[SNAP_NODE], tuple(emitted), tuple(verdicts))
            if event is None:
                lines.append(_CLOSE_OUT_LINE % (snapshot[SNAP_CLOCK], tail))
            else:
                payload = event.payload
                lines.append(_STEP_LINE % (snapshot[SNAP_CLOCK], event.timestamp,
                                           _event_head(event.source, event.kind),
                                           encode(payload) if payload else "{}", tail))
        lines.append(_FINAL_LINE % (text(self.final_status), text(self.final_node)))
        return "\n".join(lines)


@dataclass
class ScenarioResult:
    scenario: Scenario
    executive_enabled: bool
    trace: Trace
    verdicts: list[MonitorVerdict]
    outcome: str
    violated: tuple[str, ...]

    def verdict_for(self, requirement: str) -> MonitorVerdict | None:
        for verdict in self.verdicts:
            if verdict.requirement == requirement:
                return verdict
        return None


def play(executive: SafetyExecutive, events, close_out: bool = True,
         resume: tuple[Trace, ExecState] | None = None) -> tuple[Trace, ExecState]:
    """Drive ``events`` through ``executive`` from a fresh initial state, or
    on from ``resume``.

    This is the one loop that feeds events to an executive and records a
    ``TraceStep`` per event.  With ``close_out`` the end-of-stream safety
    close follows, recorded as a last step when it acts; reach replays its
    witness paths without it.  Returns the trace and the final state.

    ``resume`` is the ``(trace, state)`` an earlier call through the same
    executive returned without close-out: ``events`` then continue that
    session instead of starting one, the steps and the log extend that
    trace in place by what the session gained, and its final fields are
    rewritten for the longer session.  So playing a timeline's head without
    close-out and resuming it with the tail gives the trace one call over
    the whole timeline gives.
    """
    if resume is None:
        state = executive.init_state()
        trace = Trace(executive_enabled=executive.enabled)
    else:
        trace, state = resume
    steps = trace.steps
    # bound once per call, never across calls: a caller may rebind either
    # method on its class between runs, as the benchmark's tracer does
    handle, snapshot = executive.handle_event, state.snapshot
    new_step = tuple.__new__  # a TraceStep without NamedTuple's Python-level __new__
    for event in events:
        emitted, verdicts = handle(state, event)
        steps.append(new_step(TraceStep, (event, snapshot(), tuple(emitted), tuple(verdicts))))
    if close_out:
        emitted, verdicts = executive.close_out(state)
        if emitted or verdicts:
            steps.append(TraceStep(None, snapshot(), tuple(emitted), tuple(verdicts)))
    trace.log += state.log.entries[len(trace.log):]  # the session's log only grows
    trace.final_snapshot = snapshot()
    trace.final_status = state.session_status
    trace.final_node = state.current_node
    return trace, state


# the executives run_events reuses, keyed by the identity of (model, config,
# mode).  Each holds its model and config, so their ids stay unique while it
# is kept; both are immutable values and every session starts from
# init_state(), so a kept executive serves a session as a fresh one would.
_EXECUTIVES: dict[tuple[int, int, bool], SafetyExecutive] = {}
_EXECUTIVES_KEPT = 8


def _executive_for(model: ProcessModel, config: ExecConfig, enabled: bool) -> SafetyExecutive:
    key = (id(model), id(config), enabled)
    executive = _EXECUTIVES.get(key)
    if executive is None:
        if len(_EXECUTIVES) >= _EXECUTIVES_KEPT:
            del _EXECUTIVES[next(iter(_EXECUTIVES))]  # the oldest
        executive = _EXECUTIVES[key] = SafetyExecutive(model, config, enabled=enabled)
    return executive


def run_events(model: ProcessModel, config: ExecConfig, events, enabled: bool = True) -> Trace:
    """Drive a raw event list through the executive for (``model``,
    ``config``, ``enabled``), close out, and capture the trace.

    One executive per such object triple serves every call; it holds no
    session state.  A caller that sets ``transition_hook`` builds its own
    with ``executive.init_executive``."""
    return play(_executive_for(model, config, enabled), events)[0]


def classify_outcome(trace: Trace, verdicts: list[MonitorVerdict]) -> tuple[str, tuple[str, ...]]:
    violated = tuple(v.requirement for v in verdicts if v.status == VIOLATED)
    if violated:
        return OUTCOME_VIOLATION_FOUND, violated
    if trace.refusals or trace.final_status != "complete":
        return OUTCOME_BLOCKED_SAFELY, ()
    return OUTCOME_SAFE_COMPLETION, ()


def run_scenario(
    model: ProcessModel,
    config: ExecConfig,
    scenario: Scenario,
    executive_enabled: bool = True,
) -> ScenarioResult:
    timeline = scenario.compiled_timeline()
    trace = run_events(model, config, timeline, enabled=executive_enabled)
    verdicts = evaluate_monitors(trace, config)
    outcome, violated = classify_outcome(trace, verdicts)
    return ScenarioResult(scenario, executive_enabled, trace, verdicts, outcome, violated)


def check_expectation(result: ScenarioResult) -> tuple[bool, str]:
    """Compare a run against the scenario's expected outcome.

    ViolationExpected applies to executive-disabled runs; with the executive
    enabled the expectation inverts (the monitors must NOT fire), which
    doubles as mutation testing of the monitors themselves.
    """
    scenario = result.scenario
    expected = scenario.expected_outcome
    if expected == OUTCOME_VIOLATION:
        if result.executive_enabled:
            ok = result.outcome != OUTCOME_VIOLATION_FOUND
            return ok, f"inverted expectation (executive on): outcome {result.outcome}"
        requirement = scenario.expected_requirement
        ok = result.outcome == OUTCOME_VIOLATION_FOUND and (
            requirement is None or requirement in result.violated
        )
        return ok, f"expected violation of {requirement}, violated={list(result.violated)}"
    ok = result.outcome == expected
    return ok, f"expected {expected}, got {result.outcome}"
