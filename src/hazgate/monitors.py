"""Requirement monitors evaluated over completed traces.

Monitors never read the executive's gate decisions; they recompute each
requirement's defining condition from the raw material of the trace: the
input events, the per-step state snapshots and the session log.  A monitor
bound to a requirement returns Satisfied, Violated (with a witness index
into the trace) or NotApplicable when the trace never exercises it.

The same monitors run against protected (executive-enabled) and unprotected
traces, which is what makes the hazard-injection comparisons meaningful.

``_trace_facts`` derives the facts several monitors read once per trace,
as a ``TraceFacts``: the grants (R1, R15, R16, R20, R24) and one replay of
the confirmation ledger, which yields R20's missing sources and the
interlock failures at each exposure (R16, R24).  ``evaluate_monitors``
hands them to every monitor as a third argument; a monitor run alone as
``monitor_rX(trace, config)`` derives its own.  Nothing is cached on the
trace, so a trace extended after a run is judged as it stands.

The past-time checks read one evaluator, ``_since`` (past-time "not stop S
start", after Havelund & Rosu, TACAS 2002): R21 (the latest stability
reference), R23 (a trigger not yet revalidated), R25 (an emergency not yet
resolved) and R20's ``_emergency_context`` (an abandonment, or a fault or
stop with no strictly later resume), which leaves such a release to R25.
They read what a log entry records from its ``mark`` (``session.LOG_MARKS``),
never its ``details``.  The grants stay on the steps' actuator markers plus
their own orphan-exposure rule, a view independent of the log: reach's
cross-check compares its log-mark view of firings with R24, which is built
on the grants, and grants read from the marks would compare a rule with itself.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .executive import LOGGABLE_EVENT_FAMILY, ExecConfig
from .session import (
    SNAP_ARM_MOVING,
    SNAP_CLOCK,
    SNAP_COMPLIANCE,
    SNAP_EXPOSURE_IN_PROGRESS,
    SNAP_FAULT,
    SNAP_INTERRUPTION,
    SNAP_POSTURE_VALID,
    SNAP_REVALIDATION,
    SNAP_STABLE_SINCE,
    SNAP_TRAJECTORY_VALID,
)

SATISFIED = "Satisfied"
VIOLATED = "Violated"
NOT_APPLICABLE = "NotApplicable"


class MonitorVerdict(NamedTuple):
    requirement: str
    status: str
    witness: int | None = None  # trace step index (or log index for log checks)
    explanation: str = ""


def _verdict(requirement, violations, applicable, none_msg="no applicable activity"):
    if violations:
        index, why = violations[0]
        return MonitorVerdict(requirement, VIOLATED, index,
                              f"{why} (+{len(violations) - 1} more)" if len(violations) > 1 else why)
    if not applicable:
        return MonitorVerdict(requirement, NOT_APPLICABLE, None, none_msg)
    return MonitorVerdict(requirement, SATISFIED)


# -- grant extraction from the trace ----------------------------------------
# A "grant" is the executive actually performing a safety-critical action;
# it is identified by the log record the engine writes in both modes.


_MARKER_GRANT = {
    "start-motion": "motion",
    "fire-exposure": "exposure",
    "enter-compliance": "release",
    "plan-accepted": "plan",
}


def _grants(trace):
    """(step_index, t, kind) for motion starts, exposure firings, releases,
    plan acceptances.  Uses each step's emitted markers plus the disabled-mode
    orphan-exposure log path."""
    out = []
    for i, step in enumerate(trace.steps):
        for marker in step.emitted:
            kind = _MARKER_GRANT.get(marker)
            if kind is not None:
                out.append((i, step.snapshot[SNAP_CLOCK], kind))
        if (
            not trace.executive_enabled
            and step.event is not None
            and step.event.kind == "exposureComplete"
            and "fire-exposure" not in step.emitted
            and not (i and trace.steps[i - 1].snapshot[SNAP_EXPOSURE_IN_PROGRESS])
        ):
            # unprotected runs treat an orphan completion as a firing
            out.append((i, step.snapshot[SNAP_CLOCK], "exposure"))
    return out


_GRANT_LEDGER_ACTION = {"motion": "motionStart", "exposure": "exposure", "release": "release"}


def exposure_condition_failures(posture_valid, stable_since, arm_moving, patient_t,
                                radiographer_t, fault, interruption, revalidation,
                                now: int, config: ExecConfig) -> list[str]:
    """The eight-condition exposure interlock, re-derived from plain values.

    ``patient_t`` and ``radiographer_t`` are the times of the exposure
    ledger's Patient and Radiographer confirmations (None if absent).
    Returns the failed conditions in interlock order.
    """
    failed = []
    if not posture_valid:
        failed.append("postureValid")
    if stable_since is None or now - stable_since < config.stabilization_window_ms:
        failed.append("stabilizationElapsed")
    if arm_moving:
        failed.append("armImmobility")
    if patient_t is None or now - patient_t > config.confirmation_staleness_ms:
        failed.append("patientAssentFresh")
    if radiographer_t is None or now - radiographer_t > config.confirmation_staleness_ms:
        failed.append("radiographerConfirmFresh")
    if fault:
        failed.append("noFault")
    if interruption:
        failed.append("noInterruption")
    if revalidation:
        failed.append("noRevalidationPending")
    return failed


class TraceFacts(NamedTuple):
    """Facts several monitors read from one trace, built by ``_trace_facts``."""

    grants: list  # ``_grants`` of the trace
    checks: list  # R20's confirmation checks (step, t, action, missing sources)
    exposures: list  # the interlock failures at each exposure (step, t, failed conditions)


def _trace_facts(trace, config: ExecConfig) -> TraceFacts:
    """The trace's grants and one confirmation-ledger replay over them.

    ``received`` holds, per ledger action a grant consumes, the time of each
    required source's latest confirmation; an action the ledger does not
    name requires no source.  A release in emergency context is left to the
    safe-posture monitor and does not consume the ledger; the interlock
    reads only the exposure entry, so that choice cannot change an
    exposure's failures.  Events after the last ledger grant cannot change a
    check and are not fed.
    """
    grants = _grants(trace)
    required = {action: config.ledger_requirements.get(action, ())
                for action in _GRANT_LEDGER_ACTION.values()}
    received = {action: {} for action in required}
    by_step = {i: (t, k) for i, t, k in grants}  # the last grant of a step wins
    steps = trace.steps
    fed = 0
    checks = []
    exposures = []
    for i, (t, kind) in by_step.items():
        action = _GRANT_LEDGER_ACTION.get(kind)
        if action is None:
            continue
        for step in steps[fed:i + 1]:
            event = step.event
            if event is None:
                continue
            if event.kind == "commandConfirm":
                confirmed = event.payload.get("action")
                if event.source in required.get(confirmed, ()):
                    received[confirmed][event.source] = event.timestamp
            elif event.kind == "assent":
                for confirmed, sources in required.items():
                    if "Patient" in sources:
                        received[confirmed]["Patient"] = event.timestamp
            elif event.kind == "assentWithdrawn":
                for held in received.values():
                    held.pop("Patient", None)
        fed = i + 1
        held = received[action]
        if action == "exposure":
            snap = steps[i].snapshot
            exposures.append((i, t, exposure_condition_failures(
                snap[SNAP_POSTURE_VALID], snap[SNAP_STABLE_SINCE], snap[SNAP_ARM_MOVING],
                held.get("Patient"), held.get("Radiographer"),
                snap[SNAP_FAULT], snap[SNAP_INTERRUPTION], snap[SNAP_REVALIDATION],
                t, config,
            )))
        elif action == "release" and _emergency_context(trace, t):
            continue
        checks.append((i, t, action, [
            source for source in required[action]
            if source not in held or t - held[source] > config.confirmation_staleness_ms]))
        held.clear()
    return TraceFacts(grants, checks, exposures)


def monitor_r1(trace, config: ExecConfig, facts: TraceFacts | None = None) -> MonitorVerdict:
    """Command response within budget once gates pass (grants are immediate)."""
    facts = facts or _trace_facts(trace, config)
    violations = []
    grants = [g for g in facts.grants if g[2] in ("motion", "exposure", "release")]
    for index, t, kind in grants:
        event = trace.steps[index].event
        if event is None:
            continue
        latency = t - event.timestamp
        if latency > config.command_response_budget_ms:
            violations.append((index, f"{kind} responded {latency} ms after command"))
    return _verdict("R1", violations, grants)


_LOGGED_FAMILIES = frozenset(LOGGABLE_EVENT_FAMILY.values())


def monitor_r8(trace, config: ExecConfig, facts: TraceFacts | None = None) -> MonitorVerdict:
    """Log completeness: auditable events appear in the log exactly once."""
    expected = Counter(
        LOGGABLE_EVENT_FAMILY[step.event.kind] for step in trace.steps
        if step.event is not None and step.event.kind in LOGGABLE_EVENT_FAMILY
    )
    actual = Counter(e.kind for e in trace.log if e.kind in _LOGGED_FAMILIES)
    violations = []
    if expected != actual:
        delta = {k: (expected[k], actual[k])
                 for k in sorted(expected.keys() | actual.keys())
                 if expected[k] != actual[k]}
        violations.append((0, f"event/log multiset mismatch {delta}"))
    times = [e.t for e in trace.log]
    if times != sorted(times):
        violations.append((0, "log timestamps decrease"))
    return _verdict("R8", violations, trace.steps)


def monitor_r14(trace, config: ExecConfig, facts: TraceFacts | None = None) -> MonitorVerdict:
    """Stop requests halt motion within budget; no motion until resume."""
    stop_steps = [
        (i, s.event.timestamp)
        for i, s in enumerate(trace.steps)
        if s.event is not None and s.event.kind in ("voiceStop", "uiStop")
    ]
    resume_times = [e.t for e in trace.log if e.kind == "resume"]
    violations = []
    for index, t in stop_steps:
        budget = t + config.stop_latency_budget_ms
        resume_t = next((rt for rt in resume_times if rt >= t), None)
        halted = None
        for j in range(index, len(trace.steps)):
            snap = trace.steps[j].snapshot
            if snap[SNAP_CLOCK] > budget:
                break
            if not snap[SNAP_ARM_MOVING]:
                halted = j
                break
        if halted is None:
            violations.append((index, f"stop at {t} not honoured within {config.stop_latency_budget_ms} ms"))
            continue
        for j in range(halted, len(trace.steps)):
            snap = trace.steps[j].snapshot
            if resume_t is not None and snap[SNAP_CLOCK] > resume_t:
                break
            if snap[SNAP_ARM_MOVING]:
                violations.append((j, f"motion at {snap[SNAP_CLOCK]} after stop at {t} before resume"))
                break
    return _verdict("R14", violations, stop_steps, "no stop requests in trace")


def monitor_r15(trace, config: ExecConfig, facts: TraceFacts | None = None) -> MonitorVerdict:
    """Motion only with validated posture and trajectory."""
    facts = facts or _trace_facts(trace, config)
    violations = []
    grants = [g for g in facts.grants if g[2] == "motion"]
    for index, t, _ in grants:
        snap = trace.steps[index].snapshot
        missing = []
        if not snap[SNAP_POSTURE_VALID]:
            missing.append("posture")
        if not snap[SNAP_TRAJECTORY_VALID]:
            missing.append("trajectory")
        if missing:
            violations.append((index, f"motion at {t} without validated {','.join(missing)}"))
    return _verdict("R15", violations, grants, "no motion in trace")


def _exposure_monitor(facts, requirement, conditions):
    exposures = []
    violations = []
    for i, t, failures in facts.exposures:
        exposures.append(i)
        failed = [c for c in failures if c in conditions]
        if failed:
            violations.append((i, f"exposure at {t} with failed {','.join(failed)}"))
    return _verdict(requirement, violations, exposures, "no exposures in trace")


def monitor_r24(trace, config: ExecConfig, facts: TraceFacts | None = None) -> MonitorVerdict:
    """Full eight-condition exposure interlock at every firing."""
    return _exposure_monitor(facts or _trace_facts(trace, config), "R24", (
        "postureValid", "stabilizationElapsed", "armImmobility",
        "patientAssentFresh", "radiographerConfirmFresh",
        "noFault", "noInterruption", "noRevalidationPending",
    ))


def monitor_r16(trace, config: ExecConfig, facts: TraceFacts | None = None) -> MonitorVerdict:
    """Posture stability, arm immobility and patient readiness at exposure."""
    return _exposure_monitor(facts or _trace_facts(trace, config), "R16", (
        "postureValid", "stabilizationElapsed", "armImmobility", "patientAssentFresh",
    ))


def _since(entries, start, stop) -> list:
    """Past-time ``not stop S start``, with its witness, at each entry.

    Element k is the latest of ``entries[:k]`` that ``start`` accepted with
    no later entry that ``stop`` accepted, or None; the list has one element
    more than ``entries``, the state after the last.  ``stop(entry,
    witness)`` sees the witness it would end and is asked only while one is
    held; an entry ``start`` accepts becomes the witness and is not asked.
    A ``stop`` of None never holds, which leaves the latest start.
    """
    witness = None
    out = [None]
    append = out.append
    for entry in entries:
        if start(entry):
            witness = entry
        elif witness is not None and stop is not None and stop(entry, witness):
            witness = None
        append(witness)
    return out


def _emergency_context(trace, t) -> bool:
    """True when, before the release at time t, the session was abandoned or
    its latest fault or stop has no strictly later resume; the log is in
    time order.

    The walk reads the log in processing order and ends at the release's
    own entry (a session grants at most one release: ``compliance_mode`` is
    never cleared), or past t where the log holds none, so a fault, stop or
    abandonment logged after the release in the same millisecond does not
    count as the emergency that mandated it.  The safe-posture transition
    that emergencies mandate is system-initiated, so the multi-source
    confirmation rule does not govern it.  Any later resume ends a fault
    here, even one before the fault was cleared: that is the known R20 false
    positive (ROADMAP item 5), whose fix is one more condition on the resume
    ``stop`` below."""
    before = []
    for e in trace.log:
        if e.t > t or e.mark == "release":
            break
        if e.kind == "abandon":
            return True
        before.append(e)
    return _since(before, lambda e: e.kind in {"fault", "interruption"},
                  lambda e, fault: e.kind == "resume" and e.t > fault.t)[-1] is not None


def monitor_r20(trace, config: ExecConfig, facts: TraceFacts | None = None) -> MonitorVerdict:
    """Multi-source confirmation before motion, exposure and release.

    Releases taken in emergency context (pending fault, abandonment or
    unresumed stop) are the safe-posture transition and are checked by the
    safe-posture monitor instead.
    """
    facts = facts or _trace_facts(trace, config)
    checked = []
    violations = []
    for i, t, action, missing in facts.checks:
        checked.append(i)
        if missing:
            violations.append((i, f"{action} at {t} without fresh {','.join(missing)}"))
    return _verdict("R20", violations, checked, "no safety-critical grants")


def monitor_r21(trace, config: ExecConfig, facts: TraceFacts | None = None) -> MonitorVerdict:
    """Stabilization window before plan acceptance and exposure.

    Walks the append-only log in processing order, so same-millisecond
    references that actually followed a grant do not mask it.
    """
    violations = []
    checked = []
    references = _since(
        trace.log, lambda e: e.kind in {"postureChange", "interruption", "fault"}
        or e.mark == "motionComplete", None)
    for i, entry in enumerate(trace.log):
        if entry.mark in {"plan", "exposure"}:
            checked.append(i)
            ref = references[i]
            if ref is None:
                violations.append((i, f"{entry.mark} at {entry.t} before any stability reference"))
            elif entry.t - ref.t < config.stabilization_window_ms:
                violations.append(
                    (i, f"{entry.mark} at {entry.t} only {entry.t - ref.t} ms after last posture reference")
                )
    return _verdict("R21", violations, checked, "no plan/exposure grants")


def monitor_r23(trace, config: ExecConfig, facts: TraceFacts | None = None) -> MonitorVerdict:
    """Revalidation between any interruption/fault/movement and the next grant."""
    triggers = _since(
        trace.log, lambda e: e.kind in {"interruption", "fault"} or e.mark == "movementDetected",
        lambda e, trigger: e.kind == "revalidation")
    if not any(triggers):
        return MonitorVerdict("R23", NOT_APPLICABLE, None, "no interruption/fault/movement")
    violations = [
        (i, f"{entry.mark} at {entry.t} after trigger at {triggers[i].t} without revalidation")
        for i, entry in enumerate(trace.log)
        if entry.mark in {"motion", "exposure"} and triggers[i] is not None
    ]
    return _verdict("R23", violations, [0])


def monitor_r25(trace, config: ExecConfig, facts: TraceFacts | None = None) -> MonitorVerdict:
    """Safe low-rigidity posture upon fault/interruption/abandonment.

    After such a trigger the system must reach the compliant safe posture
    (a release entry) before any further motion or exposure grant; a resume
    clears a recoverable stop or fault instead, never an abandonment.  A
    continued operation ends the trigger too, so each is reported once.  A
    session may not end with a trigger still pending and no safe posture
    reached.
    """
    pending = _since(
        trace.log, lambda e: e.kind in {"abandon", "fault", "interruption"},
        lambda e, trigger: e.mark in {"release", "motion", "exposure"}
        or e.kind == "resume" and trigger.kind != "abandon")
    if not any(pending):
        return MonitorVerdict("R25", NOT_APPLICABLE, None, "no fault/abandon/stop")
    violations = [
        (i, f"{entry.mark} at {entry.t} after {pending[i].kind} at {pending[i].t} "
            "without safe-posture transition")
        for i, entry in enumerate(trace.log)
        if entry.mark in {"motion", "exposure"} and pending[i] is not None
    ]
    final = trace.final_snapshot
    if pending[-1] is not None and (not final[SNAP_COMPLIANCE] or final[SNAP_ARM_MOVING]):
        violations.append((len(trace.steps) - 1, f"{pending[-1].kind} at {pending[-1].t} "
                                                 "but session ends without safe posture"))
    return _verdict("R25", violations, [0])


def monitor_r26(trace, config: ExecConfig, facts: TraceFacts | None = None) -> MonitorVerdict:
    """Every stage transition names the responsible actor."""
    transitions = [(i, e) for i, e in enumerate(trace.log) if e.kind == "stageTransition"]
    violations = [
        (i, f"transition {e.details!r} lacks actor")
        for i, e in transitions
        if e.actor not in ("A", "M", "SA")
    ]
    return _verdict("R26", violations, transitions, "no stage transitions")


MONITORS = {
    "R1": monitor_r1,
    "R8": monitor_r8,
    "R14": monitor_r14,
    "R15": monitor_r15,
    "R16": monitor_r16,
    "R20": monitor_r20,
    "R21": monitor_r21,
    "R23": monitor_r23,
    "R24": monitor_r24,
    "R25": monitor_r25,
    "R26": monitor_r26,
}
MONITORED_REQUIREMENTS = tuple(MONITORS)


def evaluate_monitors(trace, config: ExecConfig, requirements=None) -> list[MonitorVerdict]:
    selected = MONITORED_REQUIREMENTS if requirements is None else requirements
    facts = _trace_facts(trace, config)
    return [MONITORS[r](trace, config, facts) for r in selected if r in MONITORS]
