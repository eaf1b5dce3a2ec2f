"""Requirement monitors evaluated over completed traces.

Monitors never read the executive's gate decisions; they recompute each
requirement's defining condition from the raw material of the trace: the
input events, the per-step state snapshots and the session log, in
protected and unprotected runs alike.  A monitor returns Satisfied,
Violated (with a witness index into the trace) or NotApplicable when the
trace never exercises it.

A trace is judged in two passes, neither of which needs the other; each
monitor builds its verdict from their facts.  ``_step_pass`` reads the steps
once: the grants (R1, R15, R16, R24), the confirmation ledger fed step by
step (the interlock failures at each exposure for R16 and R24, the ledger at
each grant for R20), the auditable families (R8) and the stops (R14).
``_since`` reads the log once, forward: it counts its families and checks its
order (R8), pairs each stop entry with the first resume logged after it
(R14), collects the stage transitions (R26) and evaluates each past-time
"not stop S start" formula of ``FORMULAS`` with its witness (Havelund &
Rosu, TACAS 2002), dispatching each entry on its kind and ``mark``
(``session.LOG_MARKS``, written ``@mark``), never its ``details``:

* ``reference`` (R21, read at @plan and @exposure): started by postureChange,
  interruption, fault or @motionComplete, never ended;
* ``trigger`` (R23, read at @motion and @exposure): started by
  interruption, fault or @movementDetected, ended by revalidation;
* ``pending`` (R25, read at @motion, @exposure and the log's end): started
  by abandon, fault or interruption, ended by @release, @motion, @exposure
  or a resume, but a resume never ends an abandonment;
* ``abandoned`` and ``emergency`` (R20, read at @release): started by
  abandon, never ended; started by fault or interruption, ended by a resume
  only when strictly later.  R20 pairs the k-th release grant with the k-th
  @release read, which the executive logs with the grant; as every read
  sees the witness before its entry, an emergency logged after the release
  in the same millisecond did not mandate it.

``evaluate_monitors`` runs both passes for every monitor; a monitor run
alone as ``monitor_rX(trace, config)`` runs only the passes it reads, so
R24, which reach's cross-check calls, never reads the log.  The grants stay
on actuator markers, a view independent of the log: reach's cross-check
compares its log-mark view of firings with R24.
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple

from .executive import LOGGABLE_EVENT_FAMILY, ExecConfig
from .session import (SNAP_ARM_MOVING, SNAP_CLOCK, SNAP_COMPLIANCE, SNAP_EXPOSURE_IN_PROGRESS,
                      SNAP_FAULT, SNAP_INTERRUPTION, SNAP_POSTURE_VALID, SNAP_REVALIDATION,
                      SNAP_STABLE_SINCE, SNAP_TRAJECTORY_VALID)

SATISFIED = "Satisfied"
VIOLATED = "Violated"
NOT_APPLICABLE = "NotApplicable"


class MonitorVerdict(NamedTuple):
    requirement: str
    status: str
    witness: int | None = None  # trace step index (or log index for log checks)
    explanation: str = ""


def _verdict(requirement, violations, applicable, none_msg="no applicable activity"):
    # tuple.__new__ builds a NamedTuple without its Python-level __new__
    if violations:
        index, why = violations[0]
        if len(violations) > 1:
            why = f"{why} (+{len(violations) - 1} more)"
        return tuple.__new__(MonitorVerdict, (requirement, VIOLATED, index, why))
    if not applicable:
        return tuple.__new__(MonitorVerdict, (requirement, NOT_APPLICABLE, None, none_msg))
    return tuple.__new__(MonitorVerdict, (requirement, SATISFIED, None, ""))


def exposure_condition_failures(posture_valid, stable_since, arm_moving, patient_t,
                                radiographer_t, fault, interruption, revalidation,
                                now: int, config: ExecConfig) -> list[str]:
    """The eight-condition exposure interlock, re-derived from plain values,
    with ``patient_t`` and ``radiographer_t`` the times of the exposure
    ledger's confirmations (None if absent): the failed conditions in order."""
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


# -- the step pass: a grant is the executive performing a safety-critical
# action, identified by the actuator marker the engine emits in both modes

_MARKER_GRANT = {"start-motion": "motion", "fire-exposure": "exposure",
                 "enter-compliance": "release"}
_GRANT_LEDGER_ACTION = {"motion": "motionStart", "exposure": "exposure", "release": "release"}
_NO_CONFIRMATION = (None, -1)  # (time, step) of a source never heard from


class StepFacts(NamedTuple):
    grants: list  # (step, t, kind) of each motion start, exposure and release
    ledger: list  # (step, t, action, {source: (t, step) of its latest confirmation}) per grant
    exposures: list  # (step, t, failed interlock conditions) at each exposure
    expected: dict  # R8: per auditable family, the events the log must record
    stops: list  # (step, t) of each stop request (R14)


def _step_pass(trace, config: ExecConfig, exposures_only: bool = False) -> StepFacts:
    """The grants, and the confirmation ledger fed step by step: per action
    a grant consumes, the time and step of each required source's latest
    confirmation; the last grant of a step is the one checked.  Unprotected
    runs treat an orphan ``exposureComplete`` as a firing.  ``exposures_only``
    feeds only the exposure ledger and tallies nothing for R8, for the
    monitors that read no more, which reach's cross-check calls alone."""
    required = config.ledger_requirements
    latest = {"exposure": {}} if exposures_only else {
        action: {} for action in _GRANT_LEDGER_ACTION.values()}
    grants, ledger, exposures, stops = [], [], [], []
    expected = {} if exposures_only else defaultdict(int)
    orphans_fire = not trace.executive_enabled
    in_progress, consumed = False, -1  # previous step's exposure_in_progress; last exposure's step
    for i, (event, snap, emitted, _) in enumerate(trace.steps):
        granted = None
        for marker in emitted:
            kind = _MARKER_GRANT.get(marker)
            if kind is not None:
                grants.append((i, snap[SNAP_CLOCK], kind))
                granted = kind
        if event is not None:
            kind = event.kind
            if kind in LOGGABLE_EVENT_FAMILY and not exposures_only:
                expected[LOGGABLE_EVENT_FAMILY[kind]] += 1
            if kind == "commandConfirm":
                confirmed = event.payload.get("action")
                held = latest.get(confirmed)
                if held is not None and event.source in required.get(confirmed, ()):
                    held[event.source] = (event.timestamp, i)
            elif kind == "assent":
                for confirmed, held in latest.items():
                    if "Patient" in required.get(confirmed, ()):
                        held["Patient"] = (event.timestamp, i)
            elif kind == "assentWithdrawn":
                for held in latest.values():
                    held.pop("Patient", None)
            elif kind == "voiceStop" or kind == "uiStop":
                stops.append((i, event.timestamp))
            elif (kind == "exposureComplete" and orphans_fire and not in_progress
                  and "fire-exposure" not in emitted):
                grants.append((i, snap[SNAP_CLOCK], "exposure"))
                granted = "exposure"
        if orphans_fire:
            in_progress = snap[SNAP_EXPOSURE_IN_PROGRESS]
        if granted is None:
            continue
        t, action = snap[SNAP_CLOCK], _GRANT_LEDGER_ACTION[granted]
        held = latest.get(action)
        if held is None:
            continue
        ledger.append((i, t, action, held.copy()))
        if action == "exposure":
            patient = held.get("Patient", _NO_CONFIRMATION)
            radiographer = held.get("Radiographer", _NO_CONFIRMATION)
            exposures.append((i, t, exposure_condition_failures(
                snap[SNAP_POSTURE_VALID], snap[SNAP_STABLE_SINCE], snap[SNAP_ARM_MOVING],
                patient[0] if patient[1] > consumed else None,
                radiographer[0] if radiographer[1] > consumed else None,
                snap[SNAP_FAULT], snap[SNAP_INTERRUPTION], snap[SNAP_REVALIDATION], t, config)))
            consumed = i
    # tuple.__new__: the facts without NamedTuple's Python-level __new__
    return tuple.__new__(StepFacts, (grants, ledger, exposures, expected, stops))


# -- the log pass ------------------------------------------------------------


class Formula(NamedTuple):
    """Past-time ``not stop S start``: the latest entry a ``start`` atom
    matched with no later entry a ``stop`` atom matched (an entry that starts
    the formula does not stop it).  An atom is a log kind or an ``@mark``."""

    start: frozenset
    stop: dict  # atom -> None, or a guard(entry, witness) the stop must pass
    read: frozenset = frozenset()  # the marks whose entries read the witness before them


_READ, _START, _STOP, _COUNT, _TRANSITION, _STOPPED, _RESUMED = range(7)
_COLLECT = {"stageTransition": _TRANSITION, "interruption": _STOPPED, "resume": _RESUMED}
_LOGGED_FAMILIES = frozenset(LOGGABLE_EVENT_FAMILY.values())


class _Ops(dict):
    """The log pass's ops for an entry, keyed by its kind, or (kind, mark):
    reads, then starts and stops, then R8's, R14's and R26's collections; a key's
    ops are built when the pass first meets it."""

    def __init__(self, formulas: dict):
        super().__init__()
        self.formulas = formulas

    def __missing__(self, key):
        kind, mark = key if isinstance(key, tuple) else (key, None)
        atoms = (kind, f"@{mark}")
        ops = [(_READ, name, None) for name, f in self.formulas.items() if mark in f.read]
        for name, f in self.formulas.items():
            guards = [f.stop[atom] for atom in atoms if atom in f.stop]
            if f.start.intersection(atoms):
                ops.append((_START, name, None))
            elif guards:
                ops.append((_STOP, name, None if None in guards else guards[0]))
        if kind in _LOGGED_FAMILIES:
            ops.append((_COUNT, None, None))
        if kind in _COLLECT:
            ops.append((_COLLECT[kind], None, None))
        ops = self[key] = tuple(ops)
        return ops


FORMULAS = {
    "reference": Formula(frozenset({"postureChange", "interruption", "fault", "@motionComplete"}),
                         {}, frozenset({"plan", "exposure"})),
    "trigger": Formula(frozenset({"interruption", "fault", "@movementDetected"}),
                       {"revalidation": None}, frozenset({"motion", "exposure"})),
    "pending": Formula(frozenset({"abandon", "fault", "interruption"}),
                       {"@release": None, "@motion": None, "@exposure": None,
                        # a resume never ends an abandonment
                        "resume": lambda entry, witness: witness.kind != "abandon"},
                       frozenset({"motion", "exposure"})),
    "abandoned": Formula(frozenset({"abandon"}), {}, frozenset({"release"})),
    # a resume ends a fault or stop only when strictly later
    "emergency": Formula(frozenset({"fault", "interruption"}),
                         {"resume": lambda entry, witness: entry.t > witness.t},
                         frozenset({"release"})),
}
_FORMULA_OPS = _Ops(FORMULAS)


class LogFacts(NamedTuple):
    reads: dict  # formula -> (log index, entry, witness before it) where it is read
    final: dict  # formula -> its witness after the last entry
    started: set  # the formulas some entry started
    counts: dict  # entries per auditable family (R8)
    ordered: bool  # no entry's time is below its predecessor's (R8)
    resumed: list  # per stop entry, the time of the first resume logged after it, or None (R14)
    transitions: list  # (log index, entry) of each stage transition (R26)


def _since(log, formulas: dict = FORMULAS) -> LogFacts:
    """Every formula of ``formulas`` over ``log`` in one forward pass."""
    ops = _FORMULA_OPS if formulas is FORMULAS else _Ops(formulas)
    held = dict.fromkeys(formulas)
    reads = {name: [] for name, formula in formulas.items() if formula.read}
    started, counts, resumed, transitions = set(), defaultdict(int), [], []
    unresumed = 0  # the first stop entry no resume has followed yet
    ordered, last = True, log[0].t if log else 0
    for index, entry in enumerate(log):
        t, kind, mark = entry.t, entry.kind, entry.mark
        if t < last:
            ordered = False
        last = t
        for op, name, guard in (ops[kind] if mark is None else ops[kind, mark]):
            if op == _COUNT:
                counts[kind] += 1
            elif op == _TRANSITION:
                transitions.append((index, entry))
            elif op == _READ:
                reads[name].append((index, entry, held[name]))
            elif op == _START:
                held[name] = entry
                started.add(name)
            elif op == _STOP:
                witness = held[name]
                if witness is not None and (guard is None or guard(entry, witness)):
                    held[name] = None
            elif op == _STOPPED:
                resumed.append(None)
            else:
                resumed[unresumed:] = [t] * (len(resumed) - unresumed)
                unresumed = len(resumed)
    return tuple.__new__(LogFacts, (reads, held, started, counts, ordered, resumed, transitions))


# -- the bank ----------------------------------------------------------------


class TraceFacts(NamedTuple):
    steps: StepFacts
    log: LogFacts


def monitor_r1(trace, config: ExecConfig, facts: TraceFacts | None = None) -> MonitorVerdict:
    """Command response within budget once gates pass (grants are immediate)."""
    granted, violations = False, []
    for index, t, kind in (facts.steps if facts else _step_pass(trace, config, True)).grants:
        granted, event = True, trace.steps[index].event
        if event is not None and t - event.timestamp > config.command_response_budget_ms:
            violations.append((index, f"{kind} responded {t - event.timestamp} ms after command"))
    return _verdict("R1", violations, granted)


def monitor_r8(trace, config: ExecConfig, facts: TraceFacts | None = None) -> MonitorVerdict:
    """Log completeness: auditable events appear in the log exactly once."""
    expected = (facts.steps if facts else _step_pass(trace, config)).expected
    log = facts.log if facts else _since(trace.log)
    actual = log.counts
    violations = []
    if expected != actual:
        delta = {k: (expected.get(k, 0), actual.get(k, 0))
                 for k in sorted(expected.keys() | actual.keys())
                 if expected.get(k, 0) != actual.get(k, 0)}
        violations.append((0, f"event/log multiset mismatch {delta}"))
    if not log.ordered:
        violations.append((0, "log timestamps decrease"))
    return _verdict("R8", violations, trace.steps)


def monitor_r14(trace, config: ExecConfig, facts: TraceFacts | None = None) -> MonitorVerdict:
    """Stop requests halt motion within budget; no motion until the stop's resume."""
    stops = (facts.steps if facts else _step_pass(trace, config)).stops
    resumed = (facts.log if facts else _since(trace.log)).resumed
    steps, violations = trace.steps, []
    for k, (index, t) in enumerate(stops):
        budget = t + config.stop_latency_budget_ms
        resume_t = resumed[k] if k < len(resumed) else None
        halted = None
        for j in range(index, len(steps)):
            snap = steps[j].snapshot
            if snap[SNAP_CLOCK] > budget:
                break
            if not snap[SNAP_ARM_MOVING]:
                halted = j
                break
        if halted is None:
            violations.append((index, f"stop at {t} not honoured within {config.stop_latency_budget_ms} ms"))
            continue
        for j in range(halted, len(steps)):
            snap = steps[j].snapshot
            if resume_t is not None and snap[SNAP_CLOCK] > resume_t:
                break
            if snap[SNAP_ARM_MOVING]:
                violations.append((j, f"motion at {snap[SNAP_CLOCK]} after stop at {t} before resume"))
                break
    return _verdict("R14", violations, stops, "no stop requests in trace")


def monitor_r15(trace, config: ExecConfig, facts: TraceFacts | None = None) -> MonitorVerdict:
    """Motion only with validated posture and trajectory."""
    moved, violations = False, []
    for index, t, kind in (facts.steps if facts else _step_pass(trace, config, True)).grants:
        if kind != "motion":
            continue
        moved, snap = True, trace.steps[index].snapshot
        missing = []
        if not snap[SNAP_POSTURE_VALID]:
            missing.append("posture")
        if not snap[SNAP_TRAJECTORY_VALID]:
            missing.append("trajectory")
        if missing:
            violations.append((index, f"motion at {t} without validated {','.join(missing)}"))
    return _verdict("R15", violations, moved, "no motion in trace")


def _exposure_monitor(steps, requirement, conditions):
    exposures, violations = [], []
    for i, t, failures in steps.exposures:
        exposures.append(i)
        failed = failures and [c for c in failures if c in conditions]
        if failed:
            violations.append((i, f"exposure at {t} with failed {','.join(failed)}"))
    return _verdict(requirement, violations, exposures, "no exposures in trace")


def monitor_r24(trace, config: ExecConfig, facts: TraceFacts | None = None) -> MonitorVerdict:
    """Full eight-condition exposure interlock at every firing."""
    return _exposure_monitor(facts.steps if facts else _step_pass(trace, config, True), "R24", (
        "postureValid", "stabilizationElapsed", "armImmobility", "patientAssentFresh",
        "radiographerConfirmFresh", "noFault", "noInterruption", "noRevalidationPending"))


def monitor_r16(trace, config: ExecConfig, facts: TraceFacts | None = None) -> MonitorVerdict:
    """Posture stability, arm immobility and patient readiness at exposure."""
    return _exposure_monitor(facts.steps if facts else _step_pass(trace, config, True), "R16", (
        "postureValid", "stabilizationElapsed", "armImmobility", "patientAssentFresh"))


def monitor_r20(trace, config: ExecConfig, facts: TraceFacts | None = None) -> MonitorVerdict:
    """Multi-source confirmation before motion, exposure and release: each
    required source fresh and since the action's last checked grant.  A
    release in emergency context is the safe-posture transition, left to
    R25: it is not checked and consumes nothing.  The k-th release grant
    reads its context at the k-th ``@release`` entry; one with none is checked."""
    ledger = (facts.steps if facts else _step_pass(trace, config)).ledger
    reads = (facts.log if facts else _since(trace.log)).reads
    emergencies = iter([abandon or fault for (_, _, abandon), (_, _, fault)
                        in zip(reads["abandoned"], reads["emergency"])])
    required, stale = config.ledger_requirements, config.confirmation_staleness_ms
    consumed = {}  # action -> the step of its last checked grant
    checked, violations = [], []
    for i, t, action, held in ledger:
        if action == "release" and next(emergencies, None) is not None:
            continue
        after = consumed.get(action, -1)
        consumed[action] = i
        checked.append(i)
        missing = []
        for source in required.get(action, ()):
            confirmed_t, step = held.get(source, _NO_CONFIRMATION)
            if step <= after or t - confirmed_t > stale:
                missing.append(source)
        if missing:
            violations.append((i, f"{action} at {t} without fresh {','.join(missing)}"))
    return _verdict("R20", violations, checked, "no safety-critical grants")


def monitor_r21(trace, config: ExecConfig, facts: TraceFacts | None = None) -> MonitorVerdict:
    """Stabilization window before plan acceptance and exposure; a
    same-millisecond reference logged after the grant does not mask it."""
    violations, checked = [], []
    for i, entry, ref in (facts.log if facts else _since(trace.log)).reads["reference"]:
        checked.append(i)
        if ref is None:
            violations.append((i, f"{entry.mark} at {entry.t} before any stability reference"))
        elif entry.t - ref.t < config.stabilization_window_ms:
            violations.append((i, f"{entry.mark} at {entry.t} only {entry.t - ref.t} ms "
                                  "after last posture reference"))
    return _verdict("R21", violations, checked, "no plan/exposure grants")


def monitor_r23(trace, config: ExecConfig, facts: TraceFacts | None = None) -> MonitorVerdict:
    """Revalidation between any interruption/fault/movement and the next grant."""
    log = facts.log if facts else _since(trace.log)
    violations = [
        (i, f"{entry.mark} at {entry.t} after trigger at {trigger.t} without revalidation")
        for i, entry, trigger in log.reads["trigger"] if trigger is not None
    ]
    return _verdict("R23", violations, "trigger" in log.started, "no interruption/fault/movement")


def monitor_r25(trace, config: ExecConfig, facts: TraceFacts | None = None) -> MonitorVerdict:
    """Safe low-rigidity posture upon fault/interruption/abandonment before
    any further motion or exposure, each trigger reported once, and no
    session ending with one pending and no safe posture reached."""
    log = facts.log if facts else _since(trace.log)
    violations = [
        (i, f"{entry.mark} at {entry.t} after {pending.kind} at {pending.t} "
            "without safe-posture transition")
        for i, entry, pending in log.reads["pending"] if pending is not None
    ]
    pending, final = log.final["pending"], trace.final_snapshot
    if pending is not None and (not final[SNAP_COMPLIANCE] or final[SNAP_ARM_MOVING]):
        violations.append((len(trace.steps) - 1, f"{pending.kind} at {pending.t} "
                                                 "but session ends without safe posture"))
    return _verdict("R25", violations, "pending" in log.started, "no fault/abandon/stop")


def monitor_r26(trace, config: ExecConfig, facts: TraceFacts | None = None) -> MonitorVerdict:
    """Every stage transition names the responsible actor."""
    transitions = (facts.log if facts else _since(trace.log)).transitions
    violations = [(i, f"transition {e.details!r} lacks actor")
                  for i, e in transitions if e.actor not in ("A", "M", "SA")]
    return _verdict("R26", violations, transitions, "no stage transitions")


MONITORS = {
    "R1": monitor_r1, "R8": monitor_r8, "R14": monitor_r14, "R15": monitor_r15,
    "R16": monitor_r16, "R20": monitor_r20, "R21": monitor_r21, "R23": monitor_r23,
    "R24": monitor_r24, "R25": monitor_r25, "R26": monitor_r26,
}
MONITORED_REQUIREMENTS = tuple(MONITORS)


def evaluate_monitors(trace, config: ExecConfig, requirements=None) -> list[MonitorVerdict]:
    selected = MONITORED_REQUIREMENTS if requirements is None else requirements
    facts = tuple.__new__(TraceFacts, (_step_pass(trace, config), _since(trace.log)))
    return [MONITORS[r](trace, config, facts) for r in selected if r in MONITORS]
