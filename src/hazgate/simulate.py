"""Scenario execution: compile, run through the executive, monitor, classify.

A run produces a :class:`Trace` (per-event state snapshots plus the session
log) and the monitor verdicts evaluated over it.  :func:`play` is the one
loop in hazgate that feeds events to an executive and records the trace:
``run_events`` uses it with the end-of-stream close-out, and ``reach``
replays its witness paths through it without one.  Outcomes:

* ``SafeCompletion`` -- workflow reached Final with no refusals and no
  monitor violations.
* ``BlockedSafely`` -- no monitor violations, but the executive refused at
  least one command or the session ended before Final (safe stop, abandon,
  freeze); the injected hazard did not get through.
* ``Violation`` -- at least one monitor Violated (expected only from
  unprotected, executive-disabled runs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .executive import COMPACT_JSON, ExecConfig, ExecState, SafetyExecutive
from .model import ProcessModel
from .monitors import VIOLATED, MonitorVerdict, evaluate_monitors
from .scenarios import (
    OUTCOME_BLOCKED_SAFELY,
    OUTCOME_SAFE_COMPLETION,
    OUTCOME_VIOLATION,
    Scenario,
)

OUTCOME_VIOLATION_FOUND = "Violation"


@dataclass(frozen=True)
class TraceStep:
    event: object  # Event, or None for the close-out step
    snapshot: tuple
    emitted: tuple
    verdicts: tuple


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
        """Deterministic line-per-step export (stable key order)."""
        lines = []
        for step in self.steps:
            record = {
                "t": step.snapshot[0],
                "event": step.event.to_json_dict() if step.event is not None else None,
                "node": step.snapshot[1],
                "emitted": list(step.emitted),
                "verdicts": [
                    {"kind": v.kind, "subject": v.subject,
                     "requirement": v.requirement, "detail": v.detail}
                    for v in step.verdicts
                ],
            }
            lines.append(COMPACT_JSON.encode(record))
        lines.append(COMPACT_JSON.encode(
            {"final": {"status": self.final_status, "node": self.final_node}}
        ))
        return "\n".join(lines) + "\n"


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


def play(executive: SafetyExecutive, events, close_out: bool = True) -> tuple[Trace, ExecState]:
    """Drive ``events`` through ``executive`` from a fresh initial state.

    This is the one loop that feeds events to an executive and records a
    ``TraceStep`` per event.  With ``close_out`` the end-of-stream safety
    close follows, recorded as a last step when it acts; reach replays its
    witness paths without it.  Returns the trace and the final state.
    """
    state = executive.init_state()
    trace = Trace(executive_enabled=executive.enabled)
    for event in events:
        result = executive.handle_event(state, event)
        trace.steps.append(TraceStep(event, state.snapshot(),
                                     tuple(result.emitted), tuple(result.verdicts)))
    if close_out:
        closing = executive.close_out(state)
        if closing.emitted or closing.verdicts:
            trace.steps.append(TraceStep(None, state.snapshot(),
                                         tuple(closing.emitted), tuple(closing.verdicts)))
    trace.log = list(state.log)
    trace.final_snapshot = state.snapshot()
    trace.final_status = state.session_status
    trace.final_node = state.current_node
    return trace, state


def run_events(model: ProcessModel, config: ExecConfig, events, enabled: bool = True) -> Trace:
    """Drive a raw event list through a fresh executive, close out, and
    capture the trace."""
    return play(SafetyExecutive(model, config, enabled=enabled), events)[0]


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
