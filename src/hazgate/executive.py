"""Timed safety executive running a process model as an event-driven machine.

The executive interprets a guarded activity diagram: actions rest until
their completion input arrives, decisions branch on tri-state guard values
(undecided blocks progression), and a protective-stop/fault overlay freezes
the workflow anywhere, independent of graph structure.  All time is
simulated milliseconds carried on events; there is no wall-clock dependence.

Safety-critical grants (motion start, X-ray exposure, patient release,
resume after stop) pass through explicit gates over the current state plus
a multi-source confirmation ledger with a freshness window.  The gates are
tables of named conditions, ``EXPOSURE_GATE``, ``MOTION_GATE`` and
``RELEASE_GATE``, each row ``(name, holds(executive, state))`` in refusal
order; ``gate_failures`` scans a table once and returns the names that
fail.  ``GRANTS`` gives each ledger action its gate (motion and exposure
with their stage check as the last row), the state flag the grant sets and
what it emits and logs, and every motion, exposure and release request is
decided by one method, ``_grant``: refused as stopped while frozen, ignored
as a repeat while its flag is set, refused on its gate, or granted,
consuming the confirmations that enabled it, so every exposure or motion
needs fresh confirmations of its own; resume consumes its own.  A refusal
cites the requirement ``CONDITION_CITES`` gives its first failed name, so
removing one row from a table removes one conjunct.  Every refusal goes
through one path, ``_refuse``, which records the verdict and its log line
together.  Decision guards are read through one table, ``_GUARD_SLOTS``,
naming the input slot each guard reads and consumes; only the live-state
guards are written out.

The session's state, its confirmation ledger and its log are defined in
:mod:`hazgate.session`; this module is the interpreter that writes them.
A log entry's ``mark`` (one of ``session.LOG_MARKS``) says what it records,
so the monitors and reach never parse ``details``.  Only the writer sets it:
``_grant`` marks its log kind, plan acceptance ``plan``, an unprotected
orphan ``exposureComplete`` ``exposure``, and the ``motionComplete`` and
``movementDetected`` handlers their own names; other entries have none.

Workflow progression reads one table built per executive: for each node
its kind, plain successor, completion slot with that slot's value while
the action is open, guard, and true and false successors.  Events reach
their handlers through one module-level table, ``_HANDLERS``.

With ``enabled=False`` the same event stream is interpreted permissively:
stops and faults are logged but not acted upon, gates always allow, and
windows/ledgers are not enforced.  This is the unprotected baseline that
the trace monitors are evaluated against.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

from .jsoncheck import (
    json_bool, json_field, json_int, json_keys, json_names, json_object, json_text, json_version,
)
from .model import KIND_ACTION, KIND_DECISION, KIND_FINAL, ProcessModel, normalize_label
from .session import (
    SOURCES, STATUS_ABANDONED, STATUS_COMPLETE, STATUS_RUNNING, ConfirmationLedger, ExecState,
    SessionLog, stabilization_elapsed,
)

# The input language, declared once for every generator: event kind -> (the
# source that sends it in a nominal session, the boolean payload fields that
# session gives it, at their values there)
NOMINAL_EVENTS = {
    "commandConfirm": ("Radiographer", {}),
    "voiceStop": ("Patient", {}),
    "uiStop": ("Radiographer", {}),
    "postureUpdate": ("Sensor", {"valid": True}),
    "postureUnstable": ("Sensor", {}),
    "movementDetected": ("Sensor", {}),
    "motionComplete": ("System", {}),
    "exposureRequest": ("Radiographer", {}),
    "exposureComplete": ("System", {"retake": False}),
    "fault": ("Sensor", {}),
    "faultCleared": ("System", {}),
    "assent": ("Patient", {}),
    "assentWithdrawn": ("Patient", {}),
    "resumeRequest": ("Radiographer", {}),
    "abandonSession": ("Patient", {}),
    "tick": ("System", {}),
}
EVENT_KINDS = tuple(NOMINAL_EVENTS)

# commandConfirm's workflow actions -> their nominal boolean payload fields;
# "decide" and "advance" drive generic nodes only
CONFIRM_ACTIONS = {
    "selfTest": {"ready": True},
    "stageIdentified": {},
    "planReady": {"valid": True},
    "motionStart": {},
    "exposure": {},
    "adjustments": {"needed": False},
    "release": {},
    "resume": {},
}

# log entry kinds produced for the four auditable event families (R8)
LOGGABLE_EVENT_FAMILY = {
    "postureUpdate": "postureChange",
    "postureUnstable": "postureChange",
    "movementDetected": "postureChange",
    "voiceStop": "interruption",
    "uiStop": "interruption",
    "fault": "fault",
    "commandConfirm": "confirmation",
    "assent": "confirmation",
}

# which requirement a refusal cites, by failed condition (priority order)
CONDITION_CITES = (
    ("noInterruption", "R14"),
    ("noFault", "R15"),
    ("noRevalidationPending", "R23"),
    ("stabilizationElapsed", "R21"),
    ("ledgerMotionStart", "R20"),
    ("ledgerRelease", "R20"),
    ("postureValid", "R15"),
    ("armImmobility", "R16"),
    ("patientAssentFresh", "R24"),
    ("radiographerConfirmFresh", "R24"),
    ("atCaptureStage", "R15"),
    ("atMotionStage", "R15"),
    ("motionComplete", "R16"),
    ("noPendingRetake", "R16"),
    ("atReleaseStage", "R25"),
)


def cite_for(failed: list[str]) -> str | None:
    for condition, requirement in CONDITION_CITES:
        if condition in failed:
            return requirement
    return None


class TimestampRegression(ValueError):
    """Event timestamp earlier than the executive clock."""


CONFIG_SCHEMA = "exec-config/1"


@dataclass(frozen=True)
class ExecConfig:
    """The executive's settings, an immutable value: ``required_views`` is a
    tuple and ``ledger_requirements`` a read-only mapping of action to a
    tuple of sources, whatever the constructor was given.  So an executive
    built from a config stays exact for as long as the config lives, and
    ``simulate.run_events`` can reuse it; derive a variant with
    ``dataclasses.replace``.  However it was built, in Python, by ``replace``
    or from JSON, a config names at least one view and, for each ledger
    action, at least one known source, none of them twice."""

    stop_latency_budget_ms: int = 100
    stabilization_window_ms: int = 2000
    confirmation_staleness_ms: int = 10_000
    command_response_budget_ms: int = 1000
    max_retakes_per_view: int = 3
    step_cap: int = 10_000
    required_views: tuple[str, ...] = ("CC", "MLO-L", "MLO-R")
    ledger_requirements: Mapping[str, tuple[str, ...]] = field(default_factory=lambda: {
        "motionStart": ("Radiographer",),
        "exposure": ("Radiographer", "Patient"),
        "resume": ("Radiographer", "Patient"),
        "release": ("Radiographer",),
    })

    def __post_init__(self):
        object.__setattr__(self, "required_views", _names_once(
            self.required_views, "config required_views", "view"))
        object.__setattr__(self, "ledger_requirements", MappingProxyType({
            action: _names_once(sources, f"config ledger {action!r}", "source", SOURCES)
            for action, sources in self.ledger_requirements.items()}))

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExecConfig":
        ints = [f.name for f in fields(cls) if f.type == "int"]  # annotations are strings here
        json_keys(data, "config", (*ints, "required_views", "ledger", "schema_version"))
        json_version(data, "config", CONFIG_SCHEMA)
        # the ledger names exactly the default's actions, so a misspelt or
        # missing one cannot drop a confirmation the gates would ask for
        actions = cls().ledger_requirements
        ledger = json_keys(data.get("ledger", dict(actions)), "config ledger", tuple(actions))
        return cls(
            **{name: json_int(data.get(name, getattr(cls, name)), f"config {name}")
               for name in ints},
            required_views=data.get("required_views", cls.required_views),
            ledger_requirements={
                action: json_field(ledger, action, "config ledger") for action in actions},
        )

    @classmethod
    def load(cls, path) -> "ExecConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))

    def to_json_dict(self) -> dict:
        return {
            "schema_version": CONFIG_SCHEMA,
            **{f.name: getattr(self, f.name) for f in fields(self) if f.type == "int"},
            "required_views": list(self.required_views),
            "ledger": {k: list(v) for k, v in sorted(self.ledger_requirements.items())},
        }


def _names_once(value, where: str, what: str, known=None) -> tuple[str, ...]:
    """A config list of at least one ``what``, each named once: a view or a
    source listed twice would count twice (two exposures for one view)."""
    names = json_names(value, where, known)
    if not names:
        raise ValueError(f"{where} must name at least one {what}")
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"{where} names {name!r} more than once")
    return names


# payload fields the executive keys on or logs as text, and those it reads as
# booleans: the declared ones, stageIdentified's "identified" and decide's "value"
_TEXT_PAYLOAD_FIELDS = ("action", "guard", "view", "detail")
_BOOLEAN_PAYLOAD_FIELDS = ("ready", "identified", "valid", "needed", "value", "retake")


class Event:
    __slots__ = ("timestamp", "source", "kind", "payload")

    def __init__(self, timestamp: int, source: str, kind: str, payload: dict | None = None):
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        if source not in SOURCES:
            raise ValueError(f"unknown event source {source!r}")
        self.timestamp = timestamp
        self.source = source
        self.kind = kind
        self.payload = payload or {}

    def __repr__(self):
        return f"Event({self.timestamp}, {self.source}, {self.kind}, {self.payload})"

    def __eq__(self, other):
        return (
            isinstance(other, Event)
            and (self.timestamp, self.source, self.kind, self.payload)
            == (other.timestamp, other.source, other.kind, other.payload)
        )

    def to_json_dict(self) -> dict:
        return {"t": self.timestamp, "source": self.source, "kind": self.kind,
                "payload": self.payload}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Event":
        # __init__ rejects an unknown source or kind
        json_keys(data, "event", ("t", "source", "kind", "payload"))
        payload = json_object(data.get("payload") or {}, "event payload")
        for key in _TEXT_PAYLOAD_FIELDS:
            if key in payload:
                json_text(payload[key], f"event payload {key}")
        for key in _BOOLEAN_PAYLOAD_FIELDS:
            if key in payload:
                json_bool(payload[key], f"event payload {key}")
        return cls(
            json_int(json_field(data, "t", "event"), "event t"),
            json_field(data, "source", "event"),
            json_field(data, "kind", "event"),
            payload,
        )


def _payload_text(event: Event, key: str, default: str) -> str:
    """A text payload field a handler keys on or logs; checked here because an
    event built in Python has not been through the loaders."""
    value = event.payload.get(key, default)
    if not isinstance(value, str):
        raise ValueError(f"event at {event.timestamp}: payload {key} must be text, got {value!r}")
    return value


# node roles recognised by the executive, keyed on normalized display label
_NODE_ROLES = {
    "systeminitialisation": "init",
    "identifyprocessstage": "stage",
    "determinepatientposture": "posture",
    "trajectoryplanning": "plan",
    "performarmpositioning": "motion",
    "performpositioningadjustments": "adjust",
    "capturexray": "capture",
    "releasepatient": "release",
}

# decision guard -> the tri-state input slot it reads and consumes; the
# live-state guards (faultDetected, interruptionHRI, patientOK, processDone)
# are read in SafetyExecutive._take_guard and any other guard is a generic
# decision
_GUARD_SLOTS = {
    "systemReady": "self_test_result",
    "processStageIdentified": "stage_result",
    "postureDetected": "posture_result",
    "trajectoryValid": "plan_result",
    "adjustmentsNeeded": "adjustments_result",
    "retakeNeeded": "retake_result",
}

# action role -> the slot that completes it and that slot's value while the
# action is still open; any other action waits for an "advance" confirmation
_COMPLETION_SLOTS = {
    "init": ("self_test_result", None),
    "stage": ("stage_result", None),
    "posture": ("posture_result", None),
    "plan": ("plan_result", None),
    "motion": ("motion_done", False),
    "adjust": ("motion_done", False),
    "capture": ("retake_result", None),
    "release": ("compliance_mode", False),
}


@lru_cache(maxsize=1024)
def _label_role(label: str) -> str:
    """Executive role of a node display label; labels are immutable strings."""
    return _NODE_ROLES.get(normalize_label(label), "generic")


def _at_stage(*roles):
    """A gate condition: the workflow rests on a node of one of ``roles``."""
    return lambda executive, state: executive._role(state.current_node) in roles


# a gate is a table of (condition name, holds(executive, state)), in refusal
# order; the gate allows when every condition holds

# the eight exposure interlock conditions
EXPOSURE_GATE = (
    ("postureValid", lambda executive, state: state.posture_valid),
    ("stabilizationElapsed",
     lambda executive, state: stabilization_elapsed(state, executive.config)),
    ("armImmobility", lambda executive, state: not state.arm_moving),
    ("patientAssentFresh",
     lambda executive, state: state.ledger.fresh("exposure", "Patient", state.clock)),
    ("radiographerConfirmFresh",
     lambda executive, state: state.ledger.fresh("exposure", "Radiographer", state.clock)),
    ("noFault", lambda executive, state: not state.fault_active),
    ("noInterruption", lambda executive, state: not state.interruption_active),
    ("noRevalidationPending", lambda executive, state: not state.revalidation_required),
)

# the five motion-enable conditions
MOTION_GATE = (
    ("postureValid", lambda executive, state: state.posture_valid),
    ("noInterruption", lambda executive, state: not state.interruption_active),
    ("noFault", lambda executive, state: not state.fault_active),
    ("noRevalidationPending", lambda executive, state: not state.revalidation_required),
    ("ledgerMotionStart",
     lambda executive, state: state.ledger.satisfied("motionStart", state.clock)),
)

# the four release conditions
RELEASE_GATE = (
    ("motionComplete", lambda executive, state: not state.arm_moving),
    ("noPendingRetake", lambda executive, state: state.retake_result is not True),
    ("atReleaseStage", _at_stage("release")),
    ("ledgerRelease", lambda executive, state: state.ledger.satisfied("release", state.clock)),
)

EXPOSURE_CONDITIONS = tuple(name for name, _ in EXPOSURE_GATE)
MOTION_CONDITIONS = tuple(name for name, _ in MOTION_GATE)
RELEASE_CONDITIONS = tuple(name for name, _ in RELEASE_GATE)


def gate_failures(gate, executive: SafetyExecutive, state: ExecState) -> list[str]:
    """Names of the gate's conditions that fail, in the gate's order."""
    return [name for name, holds in gate if not holds(executive, state)]


# ledger action -> (its gate, the state flag its grant sets, the detail of a
# repeat ignored while that flag is set, the marker it emits, its verdict
# subject, its log kind (also the mark), its log details); the motion and
# exposure stage checks are their gates' last rows
GRANTS = {
    "motionStart": ((*MOTION_GATE, ("atMotionStage", _at_stage("motion", "adjust"))),
                    "arm_moving", "already moving", "start-motion", "motionStart",
                    "motion", "started"),
    "exposure": ((*EXPOSURE_GATE, ("atCaptureStage", _at_stage("capture"))),
                 "exposure_in_progress", "already in progress", "fire-exposure",
                 "exposureRequest", "exposure", "granted"),
    "release": (RELEASE_GATE, "compliance_mode", "already compliant", "enter-compliance",
                "release", "release", "compliant safe posture"),
}


class StepVerdict(NamedTuple):
    kind: str  # granted | refused | ignored | forced-abandon
    subject: str
    requirement: str | None = None
    detail: str = ""


class StepResult(NamedTuple):
    emitted: list[str]
    verdicts: list[StepVerdict]


def _refuse(state: ExecState, verdicts, subject, requirement, detail, logged) -> None:
    """Refuse a command: its verdict and its refusal log line."""
    # a StepVerdict without NamedTuple's Python-level __new__, as in handle_event
    verdicts.append(tuple.__new__(StepVerdict, ("refused", subject, requirement, detail)))
    state.log.append(state.clock, "refusal", "System", logged)


class SafetyExecutive:
    """Event interpreter for one session over one process model."""

    def __init__(self, model: ProcessModel, config: ExecConfig, enabled: bool = True):
        self.model = model
        self.config = config
        self.enabled = enabled
        self.transition_hook = None  # callable(node_id, clock); tests/sweeps only
        # each session's ledger is a copy of this one, which is never itself
        # written, so sessions share only its required pairs and their layout
        self._ledger = ConfirmationLedger(
            config.ledger_requirements, config.confirmation_staleness_ms
        )
        successors = {None: {}, True: {}, False: {}}  # edge polarity -> src -> dst
        for e in model.edges:
            successors[e.guard_value][e.src] = e.dst
        plain, if_true, if_false = successors.values()
        self._nodes = {}
        self._roles = {}
        # the progression table, all that _progress reads: node id -> (kind,
        # plain successor, completion slot, its open value, guard, true
        # successor, false successor)
        self._steps = {}
        for n in model.nodes:
            self._nodes[n.id] = n
            self._roles[n.id] = role = _label_role(n.label)
            slot, open_value = _COMPLETION_SLOTS.get(role, ("generic_advance", False))
            self._steps[n.id] = (n.kind, plain.get(n.id), slot, open_value, n.guard,
                                 if_true.get(n.id), if_false.get(n.id))
        self._role_nodes = {role: nid for nid, role in self._roles.items() if role != "generic"}

    # -- lifecycle ----------------------------------------------------------

    def init_state(self) -> ExecState:
        state = ExecState(self.model.initial, self._ledger.copy())
        # construction-time settle onto the first action is not a session step
        self._progress(state, [], [])
        state.log = SessionLog()
        return state

    # -- helpers ------------------------------------------------------------

    def _role(self, node_id: str) -> str:
        return self._roles.get(node_id, "generic")

    def _frozen(self, state: ExecState) -> bool:
        return self.enabled and (
            state.interruption_active or state.fault_active or state.awaiting_resume
        )

    def _halt_motion(self, state: ExecState, emitted: list[str]) -> None:
        if state.arm_moving:
            state.arm_moving = False
            emitted.append("halt-motion")
            state.log.append(state.clock, "motion", "System", "halted")

    def _abort_exposure(self, state: ExecState, emitted: list[str]) -> None:
        if state.exposure_in_progress:
            state.exposure_in_progress = False
            emitted.append("abort-exposure")
            state.log.append(state.clock, "exposure", "System", "aborted")

    def _next_view(self, state: ExecState) -> str:
        for view in self.config.required_views:
            if view not in state.views_acquired:
                return view
        return self.config.required_views[-1]

    def _rewind_for_revalidation(self, state: ExecState) -> None:
        """Route the workflow back to posture determination (revalidation path)."""
        posture_node = self._role_nodes.get("posture")
        if posture_node is None:
            return
        if self._role(state.current_node) in ("init", "stage", "posture"):
            return
        state.current_node = posture_node
        state.posture_result = None
        state.plan_result = None
        state.adjustments_result = None
        state.retake_result = None
        state.motion_done = False
        node = self._nodes[posture_node]
        state.log.append(state.clock, "stageTransition", node.actor_mode or "A",
                         f"enter {posture_node} (revalidation)")

    def _invalidate_for_revalidation(self, state: ExecState) -> None:
        state.revalidation_required = True
        state.posture_valid = False
        state.trajectory_valid = False
        state.posture_stable_since = None

    def _maybe_complete_revalidation(self, state: ExecState) -> None:
        """Clear a pending revalidation once its three conditions hold."""
        if (
            state.posture_valid
            and state.trajectory_valid
            and state.assent_fresh(state.clock, self.config.confirmation_staleness_ms)
        ):
            state.revalidation_required = False
            state.log.append(state.clock, "revalidation", "System",
                             "posture, trajectory and readiness revalidated")

    # -- grants -------------------------------------------------------------

    def _grant(self, state: ExecState, action: str, emitted, verdicts,
               safe_path: bool = False) -> None:
        """Decide a request for a ledger action by its ``GRANTS`` row: refuse
        it as stopped while frozen, ignore a repeat, refuse it on its gate, or
        grant it, consuming the confirmations that enabled it.  The safe path,
        a release an emergency mandates, skips the stop check and the gate."""
        gate, flag, repeat, marker, subject, log_kind, logged = GRANTS[action]
        if not safe_path and self._frozen(state):
            _refuse(state, verdicts, subject, "R14", "stopped", action + ": stopped")
            return
        if getattr(state, flag):
            verdicts.append(StepVerdict("ignored", subject, detail=repeat))
            return
        if self.enabled and not safe_path:
            failed = gate_failures(gate, self, state)
            if failed:
                joined = ",".join(failed)
                _refuse(state, verdicts, subject, cite_for(failed), "failed: " + joined,
                        f"{action}: {joined}")
                return
        if action == "release":
            state.arm_moving = False  # the compliant posture holds the arm still
        setattr(state, flag, True)
        state.ledger.consume(action)
        emitted.append(marker)
        verdicts.append(tuple.__new__(StepVerdict, ("granted", subject, None, "")))
        state.log.append(state.clock, log_kind, "System",
                         logged + (" (safe path)" if safe_path else ""), log_kind)

    # -- public operations (spec surface) -----------------------------------

    def close_out(self, state: ExecState) -> StepResult:
        """End-of-stream safety close: safe-posture if ending non-nominally."""
        emitted: list[str] = []
        verdicts: list[StepVerdict] = []
        if self.enabled and state.session_status != STATUS_COMPLETE and not state.compliance_mode:
            if state.fault_active or state.interruption_active or state.awaiting_resume \
                    or state.session_status == STATUS_ABANDONED:
                self._halt_motion(state, emitted)
                self._grant(state, "release", emitted, verdicts, safe_path=True)
        return StepResult(emitted, verdicts)

    # -- event dispatch ------------------------------------------------------

    def handle_event(self, state: ExecState, event: Event) -> StepResult:
        if event.timestamp < state.clock:
            raise TimestampRegression(
                f"event at {event.timestamp} behind clock {state.clock}"
            )
        state.clock = event.timestamp
        emitted: list[str] = []
        verdicts: list[StepVerdict] = []
        _HANDLERS[event.kind](self, state, event, emitted, verdicts)
        if state.revalidation_required:
            self._maybe_complete_revalidation(state)
        self._progress(state, emitted, verdicts)
        # tuple.__new__ builds the same StepResult without NamedTuple's
        # Python-level __new__; this is the hot path of every workload
        return tuple.__new__(StepResult, (emitted, verdicts))

    # individual event handlers; each logs per the R8 family mapping

    def _on_tick(self, state, event, emitted, verdicts):
        pass

    def _on_commandConfirm(self, state, event, emitted, verdicts):
        action = _payload_text(event, "action", "")
        state.log.append(state.clock, "confirmation", event.source, action or "unspecified")
        state.ledger.record(action, event.source, state.clock)  # kept if required

        if action == "selfTest":
            state.self_test_result = bool(event.payload.get("ready", True))
        elif action == "stageIdentified":
            identified = bool(event.payload.get("identified", True))
            state.stage_result = identified
            if identified:
                view = _payload_text(event, "view", "") or self._next_view(state)
                if view in self.config.required_views:
                    state.current_view = view
                else:
                    state.stage_result = False
                    verdicts.append(StepVerdict("ignored", "stageIdentified",
                                                detail=f"unknown view {view!r}"))
        elif action == "planReady":
            valid = bool(event.payload.get("valid", True))
            if not valid:
                state.plan_result = False
                return
            if self._frozen(state):
                _refuse(state, verdicts, "planReady", "R14", "stopped", "planReady: stopped")
                return
            if self.enabled and not stabilization_elapsed(state, self.config):
                _refuse(state, verdicts, "planReady", "R21", "stabilization window not elapsed",
                        "planReady: stabilizationElapsed")
                return
            state.plan_result = True
            state.trajectory_valid = True
            emitted.append("plan-accepted")
            state.log.append(state.clock, "plan", "System", "accepted", "plan")
        elif action == "motionStart":
            self._grant(state, action, emitted, verdicts)
        elif action == "adjustments":
            state.adjustments_result = bool(event.payload.get("needed", False))
        elif action == "release":
            self._grant(state, action, emitted, verdicts, safe_path=(
                state.session_status == STATUS_ABANDONED or (self.enabled and state.fault_active)))
        elif action == "decide":
            name = _payload_text(event, "guard", "")
            if name:
                state.generic_decisions[name] = bool(event.payload.get("value", True))
        elif action == "advance":
            state.generic_advance = True
        elif action in ("exposure", "resume"):
            pass  # ledger-only confirmations
        else:
            verdicts.append(StepVerdict("ignored", f"commandConfirm:{action}"))

    def _on_postureUpdate(self, state, event, emitted, verdicts):
        valid = bool(event.payload.get("valid", True))
        state.log.append(state.clock, "postureChange", event.source,
                         "detected valid" if valid else "detected invalid")
        state.posture_result = valid
        state.posture_valid = valid
        state.posture_stable_since = state.clock if valid else None
        if self.enabled and state.arm_moving and not valid:
            self._halt_motion(state, emitted)

    def _on_postureUnstable(self, state, event, emitted, verdicts):
        state.log.append(state.clock, "postureChange", event.source, "unstable")
        state.posture_stable_since = None
        if self.enabled and state.arm_moving:
            self._halt_motion(state, emitted)

    def _on_movementDetected(self, state, event, emitted, verdicts):
        state.log.append(state.clock, "postureChange", event.source, "unexpected movement",
                         "movementDetected")
        if not self.enabled:
            return
        self._halt_motion(state, emitted)
        self._invalidate_for_revalidation(state)
        self._rewind_for_revalidation(state)
        emitted.append("revalidation-required")

    def _on_motionComplete(self, state, event, emitted, verdicts):
        if not state.arm_moving:
            verdicts.append(StepVerdict("ignored", "motionComplete", detail="no motion active"))
            return
        state.arm_moving = False
        state.motion_done = True
        state.posture_stable_since = state.clock  # repositioned: window restarts
        state.log.append(state.clock, "motion", "System", "complete", "motionComplete")

    def _on_exposureRequest(self, state, event, emitted, verdicts):
        self._grant(state, "exposure", emitted, verdicts)

    def _on_exposureComplete(self, state, event, emitted, verdicts):
        if not state.exposure_in_progress:
            if self.enabled:
                verdicts.append(StepVerdict("ignored", "exposureComplete",
                                            detail="no exposure in progress"))
                return
            # unprotected: an orphan completion is a spontaneous exposure
            state.log.append(state.clock, "exposure", "System", "granted", "exposure")
        retake = bool(event.payload.get("retake", False))
        state.exposure_in_progress = False
        state.retake_result = retake
        view = state.current_view or self._next_view(state)
        if retake:
            state.retake_count[view] = state.retake_count.get(view, 0) + 1
        else:
            state.views_acquired = state.views_acquired | {view}
        state.log.append(state.clock, "exposure", "System",
                         f"complete view={view} retake={'yes' if retake else 'no'}")

    def _on_fault(self, state, event, emitted, verdicts):
        state.log.append(state.clock, "fault", event.source,
                         _payload_text(event, "detail", "fault raised"))
        if not self.enabled:
            return
        state.fault_active = True
        state.posture_stable_since = None  # stability unknown after any halt
        self._halt_motion(state, emitted)
        self._abort_exposure(state, emitted)
        emitted.append("fault-latched")

    def _on_faultCleared(self, state, event, emitted, verdicts):
        state.log.append(state.clock, "faultCleared", event.source, "fault cleared")
        if not self.enabled or not state.fault_active:
            return
        state.fault_active = False
        state.awaiting_resume = True
        emitted.append("await-resume")

    def _stop(self, state, event, emitted, verdicts):
        state.log.append(state.clock, "interruption", event.source,
                         f"protective stop via {event.kind}")
        if not self.enabled:
            return
        state.interruption_active = True
        state.posture_stable_since = None  # stability unknown after any halt
        self._halt_motion(state, emitted)
        self._abort_exposure(state, emitted)
        emitted.append("protective-stop")

    _on_voiceStop = _stop
    _on_uiStop = _stop

    def _on_resumeRequest(self, state, event, emitted, verdicts):
        if not self.enabled:
            return
        if not (state.interruption_active or state.awaiting_resume):
            verdicts.append(StepVerdict("ignored", "resumeRequest", detail="not stopped"))
            return
        missing = ",".join(state.ledger.missing("resume", state.clock))
        if missing:
            _refuse(state, verdicts, "resumeRequest", "R20",
                    "missing fresh confirmations: " + missing, "resume: " + missing)
            return
        state.interruption_active = False
        state.awaiting_resume = False
        state.ledger.consume("resume")
        self._invalidate_for_revalidation(state)
        self._rewind_for_revalidation(state)
        state.log.append(state.clock, "resume", "System", "resumed after stop")
        emitted.append("resume")

    def _on_assent(self, state, event, emitted, verdicts):
        state.log.append(state.clock, "confirmation", event.source, "assent")
        state.patient_last_assent = state.clock
        state.patient_not_ok = False
        state.ledger.record_source("Patient", state.clock)

    def _on_assentWithdrawn(self, state, event, emitted, verdicts):
        state.log.append(state.clock, "withdrawal", event.source, "assent withdrawn")
        state.patient_last_assent = None
        state.patient_not_ok = True
        state.ledger.withdraw_source("Patient")

    def _on_abandonSession(self, state, event, emitted, verdicts):
        state.log.append(state.clock, "abandon", event.source, "session abandoned")
        if not self.enabled:
            return
        state.session_status = STATUS_ABANDONED
        self._halt_motion(state, emitted)
        self._abort_exposure(state, emitted)
        release_node = self._role_nodes.get("release")
        if release_node is not None:
            state.current_node = release_node
        self._grant(state, "release", emitted, verdicts, safe_path=True)

    # -- graph progression ----------------------------------------------------

    def _take_guard(self, state: ExecState, guard: str) -> bool | None:
        """Value of a decision guard; a decided input slot or generic decision
        is consumed by the read, a live-state guard is not."""
        slot = _GUARD_SLOTS.get(guard)
        if slot is not None:
            value = getattr(state, slot)
            setattr(state, slot, None)
            if value is None and not self.enabled and guard == "adjustmentsNeeded":
                return False  # unprotected: undecided adjustments read as none needed
            return value
        if guard == "faultDetected":
            return state.fault_active
        if guard == "interruptionHRI":
            return state.interruption_active
        if guard == "patientOK":
            if state.patient_not_ok:
                return False
            if state.assent_fresh(state.clock, self.config.confirmation_staleness_ms):
                return True
            return True if not self.enabled else None
        if guard == "processDone":
            return set(self.config.required_views) <= state.views_acquired
        return state.generic_decisions.pop(guard, None)

    def _enter(self, state: ExecState, node_id: str, verdicts: list[StepVerdict]) -> None:
        state.current_node = node_id
        node = self._nodes[node_id]
        if self.transition_hook is not None:
            self.transition_hook(node_id, state.clock)
        if node.kind == KIND_ACTION:
            if self._roles[node_id] in ("motion", "adjust"):
                state.motion_done = False
            state.generic_advance = False
            state.log.append(state.clock, "stageTransition", node.actor_mode or "A",
                             f"enter {node_id}")
        elif node.kind == KIND_FINAL:
            if state.session_status == STATUS_RUNNING:
                state.session_status = STATUS_COMPLETE
            state.log.append(state.clock, "sessionComplete", "System",
                             f"workflow closed ({state.session_status})")

    def _progress(self, state: ExecState, emitted: list[str], verdicts: list[StepVerdict]) -> None:
        if self.enabled and (  # _frozen, inlined: every event ends here
                state.interruption_active or state.fault_active or state.awaiting_resume):
            return
        steps = self._steps
        kind, _, slot, open_value, _, _, _ = steps[state.current_node]
        if kind == KIND_ACTION and getattr(state, slot) is open_value:
            return  # resting on an open action: the loop's first pass would stop here
        for _ in range(self.config.step_cap):
            kind, nxt, slot, open_value, guard, if_true, if_false = steps[state.current_node]
            if kind == KIND_DECISION:
                value = self._take_guard(state, guard)
                if value is None:
                    return
                if (
                    guard == "retakeNeeded"
                    and value
                    and state.retake_count.get(state.current_view or "", 0)
                    > self.config.max_retakes_per_view
                ):
                    verdicts.append(StepVerdict(
                        "forced-abandon", "retakeBound", None,
                        f"retake bound exceeded for {state.current_view}",
                    ))
                    state.log.append(state.clock, "abandon", "System", "retake bound exceeded")
                    state.session_status = STATUS_ABANDONED
                    release_node = self._role_nodes.get("release")
                    if release_node is not None:
                        self._enter(state, release_node, verdicts)
                        self._grant(state, "release", emitted, verdicts, safe_path=True)
                    return
                nxt = if_true if value else if_false
            elif kind == KIND_FINAL or nxt is None or (
                    kind == KIND_ACTION and getattr(state, slot) is open_value):
                return  # the initial node and a completed action take their plain edge
            self._enter(state, nxt, verdicts)


# event kind -> its handler, a function of the class called with the
# executive; one shared table, not bound methods held by each executive
_HANDLERS = {kind: getattr(SafetyExecutive, "_on_" + kind) for kind in EVENT_KINDS}


def init_executive(model: ProcessModel, config: ExecConfig, enabled: bool = True) -> tuple[SafetyExecutive, ExecState]:
    """Build an executive for the model and return it with its initial state."""
    executive = SafetyExecutive(model, config, enabled=enabled)
    return executive, executive.init_state()
