"""Requirement monitors evaluated over completed traces.

Monitors never read the executive's gate decisions; they recompute each
requirement's defining condition from the raw material of the trace: the
input events, the per-step state snapshots and the session log.  A monitor
bound to a requirement returns Satisfied, Violated (with a witness index
into the trace) or NotApplicable when the trace never exercises it.

The same monitors run against protected (executive-enabled) and unprotected
traces, which is what makes the hazard-injection comparisons meaningful.

Facts that several monitors read are derived once per trace by a
:class:`TraceFacts`, each on first use: the grants (R1, R15, R16, R20, R24)
and one replay of the confirmation ledger, which yields R20's missing
sources and the interlock failures at each exposure (R16, R24).
``evaluate_monitors`` builds one per trace and hands it to every monitor as
a third argument.  Each monitor still runs alone as
``monitor_rX(trace, config)`` and then builds its own, deriving only the
facts it reads.  Nothing is cached on the trace, so a trace extended after a
run is judged as it stands.

The log monitors (R21, R23, R25) read what an entry records from its
``mark`` (``session.LOG_MARKS``), never its ``details``, so ``TraceFacts``
does not classify the log.  The grants stay on the steps' actuator markers
plus their own orphan-exposure rule, a view independent of the log: reach's
cross-check compares its log-mark view of firings with R24, which is built
on the grants, and grants read from the marks would compare a rule with itself.

R20 leaves a release taken in emergency context (an abandonment, or a fault
or stop with no resume after it) to R25; ``_emergency_context`` decides
that in one pass over the log.
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


_LEDGER_EVENT_KINDS = frozenset(("commandConfirm", "assent", "assentWithdrawn"))


class _ConfirmationReplay:
    """Monitor-side reconstruction of the confirmation ledger from raw events."""

    def __init__(self, config: ExecConfig):
        self.required = config.ledger_requirements
        self.staleness = config.confirmation_staleness_ms
        self.received: dict[str, dict[str, int]] = {k: {} for k in self.required}

    def feed(self, event) -> None:
        """Apply one event whose kind is in ``_LEDGER_EVENT_KINDS``."""
        if event.kind == "commandConfirm":
            action = event.payload.get("action")
            if action in self.required and event.source in self.required[action]:
                self.received[action][event.source] = event.timestamp
        elif event.kind == "assent":
            for action, sources in self.required.items():
                if "Patient" in sources:
                    self.received[action]["Patient"] = event.timestamp
        elif event.kind == "assentWithdrawn":
            for confirmations in self.received.values():
                confirmations.pop("Patient", None)

    def fresh(self, action: str, source: str, now: int) -> bool:
        t = self.received.get(action, {}).get(source)
        return t is not None and now - t <= self.staleness

    def missing(self, action: str, now: int) -> list[str]:
        return [s for s in self.required.get(action, ()) if not self.fresh(action, s, now)]

    def consume(self, action: str) -> None:
        if action in self.received:
            self.received[action] = {}


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


def _replay_ledger(trace, config: ExecConfig, grants) -> tuple[list, list]:
    """One confirmation-ledger replay over the trace's grants.

    Returns R20's checks ``(step, t, action, missing sources)`` and the
    interlock failures at each exposure ``(step, t, failed conditions)``.
    A release in emergency context is left to the safe-posture monitor and
    does not consume the ledger; the interlock reads only the exposure
    entry, so that choice cannot change an exposure's failures.  Events
    after the last ledger grant cannot change a check and are not fed.
    """
    by_step = {i: (t, k) for i, t, k in grants}  # the last grant of a step wins
    ledger_grants = [(i, t, _GRANT_LEDGER_ACTION[k]) for i, (t, k) in by_step.items()
                     if k in _GRANT_LEDGER_ACTION]
    replay = _ConfirmationReplay(config)
    steps = trace.steps
    fed = 0
    checks = []
    exposures = []
    for i, t, action in ledger_grants:
        for step in steps[fed:i + 1]:
            event = step.event
            if event is not None and event.kind in _LEDGER_EVENT_KINDS:
                replay.feed(event)
        fed = i + 1
        if action == "exposure":
            snap = steps[i].snapshot
            received = replay.received.get("exposure", {})
            exposures.append((i, t, exposure_condition_failures(
                snap[SNAP_POSTURE_VALID], snap[SNAP_STABLE_SINCE], snap[SNAP_ARM_MOVING],
                received.get("Patient"), received.get("Radiographer"),
                snap[SNAP_FAULT], snap[SNAP_INTERRUPTION], snap[SNAP_REVALIDATION],
                t, config,
            )))
        elif action == "release" and _emergency_context(trace, t):
            continue
        checks.append((i, t, action, replay.missing(action, t)))
        replay.consume(action)
    return checks, exposures


class TraceFacts:
    """Facts several monitors read from one trace, each derived on first use."""

    __slots__ = ("trace", "config", "_grants", "_ledger")

    def __init__(self, trace, config: ExecConfig):
        self.trace = trace
        self.config = config
        self._grants = self._ledger = None

    @property
    def grants(self) -> list:
        """``_grants`` of the trace."""
        if self._grants is None:
            self._grants = _grants(self.trace)
        return self._grants

    @property
    def ledger(self) -> tuple[list, list]:
        """R20's confirmation checks and the interlock failures at each
        exposure, from one ledger replay (see ``_replay_ledger``)."""
        if self._ledger is None:
            self._ledger = _replay_ledger(self.trace, self.config, self.grants)
        return self._ledger


def monitor_r1(trace, config: ExecConfig, facts: TraceFacts | None = None) -> MonitorVerdict:
    """Command response within budget once gates pass (grants are immediate)."""
    facts = facts or TraceFacts(trace, config)
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
    facts = facts or TraceFacts(trace, config)
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
    _, exposure_checks = facts.ledger
    for i, t, failures in exposure_checks:
        exposures.append(i)
        failed = [c for c in failures if c in conditions]
        if failed:
            violations.append((i, f"exposure at {t} with failed {','.join(failed)}"))
    return _verdict(requirement, violations, exposures, "no exposures in trace")


def monitor_r24(trace, config: ExecConfig, facts: TraceFacts | None = None) -> MonitorVerdict:
    """Full eight-condition exposure interlock at every firing."""
    return _exposure_monitor(facts or TraceFacts(trace, config), "R24", (
        "postureValid", "stabilizationElapsed", "armImmobility",
        "patientAssentFresh", "radiographerConfirmFresh",
        "noFault", "noInterruption", "noRevalidationPending",
    ))


def monitor_r16(trace, config: ExecConfig, facts: TraceFacts | None = None) -> MonitorVerdict:
    """Posture stability, arm immobility and patient readiness at exposure."""
    return _exposure_monitor(facts or TraceFacts(trace, config), "R16", (
        "postureValid", "stabilizationElapsed", "armImmobility", "patientAssentFresh",
    ))


def _emergency_context(trace, t) -> bool:
    """True when, by time t, the session was abandoned or its latest fault or
    stop has no resume after it; one pass over the log, which is in time order.

    The safe-posture transition that emergencies mandate is system-initiated,
    so the multi-source confirmation rule does not govern it.  Any later
    resume ends a fault here, even one before the fault was cleared: that is
    the known R20 false positive (ROADMAP item 5), whose fix is one more
    condition on the resume below."""
    since = None  # time of the latest fault or stop not yet resumed
    for e in trace.log:
        if e.t > t:
            break
        if e.kind == "abandon":
            return True
        if e.kind in ("fault", "interruption"):
            since = e.t
        elif e.kind == "resume" and since is not None and e.t > since:
            since = None
    return since is not None


def monitor_r20(trace, config: ExecConfig, facts: TraceFacts | None = None) -> MonitorVerdict:
    """Multi-source confirmation before motion, exposure and release.

    Releases taken in emergency context (pending fault, abandonment or
    unresumed stop) are the safe-posture transition and are checked by the
    safe-posture monitor instead.
    """
    facts = facts or TraceFacts(trace, config)
    checked = []
    violations = []
    confirmation_checks, _ = facts.ledger
    for i, t, action, missing in confirmation_checks:
        checked.append(i)
        if missing:
            violations.append((i, f"{action} at {t} without fresh {','.join(missing)}"))
    return _verdict("R20", violations, checked, "no safety-critical grants")


_STABILITY_REFERENCE_KINDS = frozenset(("postureChange", "interruption", "fault"))


def monitor_r21(trace, config: ExecConfig, facts: TraceFacts | None = None) -> MonitorVerdict:
    """Stabilization window before plan acceptance and exposure.

    Walks the append-only log in processing order, so same-millisecond
    references that actually followed a grant do not mask it.
    """
    violations = []
    checked = []
    last_ref = None
    for i, entry in enumerate(trace.log):
        if entry.mark in ("plan", "exposure"):
            checked.append(i)
            if last_ref is None:
                violations.append((i, f"{entry.mark} at {entry.t} before any stability reference"))
            elif entry.t - last_ref < config.stabilization_window_ms:
                violations.append(
                    (i, f"{entry.mark} at {entry.t} only {entry.t - last_ref} ms after last posture reference")
                )
        if entry.kind in _STABILITY_REFERENCE_KINDS or entry.mark == "motionComplete":
            last_ref = entry.t
    return _verdict("R21", violations, checked, "no plan/exposure grants")


def monitor_r23(trace, config: ExecConfig, facts: TraceFacts | None = None) -> MonitorVerdict:
    """Revalidation between any interruption/fault/movement and the next grant."""
    violations = []
    pending_trigger = None
    saw_trigger = False
    for i, entry in enumerate(trace.log):
        if entry.mark in ("motion", "exposure") and pending_trigger is not None:
            violations.append(
                (i, f"{entry.mark} at {entry.t} after trigger at {pending_trigger} without revalidation")
            )
        if entry.kind in ("interruption", "fault") or entry.mark == "movementDetected":
            pending_trigger = entry.t
            saw_trigger = True
        elif entry.kind == "revalidation":
            pending_trigger = None
    if not saw_trigger:
        return MonitorVerdict("R23", NOT_APPLICABLE, None, "no interruption/fault/movement")
    return _verdict("R23", violations, [0])


def monitor_r25(trace, config: ExecConfig, facts: TraceFacts | None = None) -> MonitorVerdict:
    """Safe low-rigidity posture upon fault/interruption/abandonment.

    After such a trigger the system must reach the compliant safe posture
    (a release entry) before any further motion or exposure grant; a resume
    clears a recoverable stop or fault instead.  A session may not end with
    a trigger still pending and no safe posture reached.
    """
    violations = []
    pending = None  # (t, kind) of the unresolved emergency trigger
    applicable = False
    for i, entry in enumerate(trace.log):
        if entry.kind in ("abandon", "fault", "interruption"):
            pending = (entry.t, entry.kind)
            applicable = True
        elif entry.kind == "resume" and pending is not None and pending[1] != "abandon":
            pending = None
        elif entry.mark == "release":
            pending = None
        elif pending is not None and entry.mark in ("motion", "exposure"):
            violations.append(
                (i, f"{entry.mark} at {entry.t} after {pending[1]} at "
                    f"{pending[0]} without safe-posture transition")
            )
            pending = None  # report each continued operation once
    if pending is not None:
        final = trace.final_snapshot
        if not final[SNAP_COMPLIANCE] or final[SNAP_ARM_MOVING]:
            violations.append(
                (len(trace.steps) - 1,
                 f"{pending[1]} at {pending[0]} but session ends without safe posture")
            )
    if not applicable:
        return MonitorVerdict("R25", NOT_APPLICABLE, None, "no fault/abandon/stop")
    return _verdict("R25", violations, [0])


def monitor_r26(trace, config: ExecConfig, facts: TraceFacts | None = None) -> MonitorVerdict:
    """Every stage transition names the responsible actor."""
    transitions = [e for e in trace.log if e.kind == "stageTransition"]
    violations = [
        (i, f"transition {e.details!r} lacks actor")
        for i, e in enumerate(transitions)
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
    facts = TraceFacts(trace, config)
    return [MONITORS[r](trace, config, facts) for r in selected if r in MONITORS]
