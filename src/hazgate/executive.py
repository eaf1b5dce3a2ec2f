"""Timed safety executive running a process model as an event-driven machine.

The executive interprets a guarded activity diagram: actions rest until
their completion input arrives, decisions branch on tri-state guard values
(undecided blocks progression), and a protective-stop/fault overlay freezes
the workflow anywhere, independent of graph structure.  All time is
simulated milliseconds carried on events; there is no wall-clock dependence.

Safety-critical grants (motion start, X-ray exposure, patient release,
resume after stop) pass through explicit gates over the current state plus
a multi-source confirmation ledger with a freshness window.  The exposure
and motion gates are tables of named conditions, ``EXPOSURE_GATE`` and
``MOTION_GATE``, each entry ``(name, holds(state, config))`` in refusal
order; ``gate_failures`` scans a table once and returns the names that
fail, and the release gate is one such list over the executive's node
roles.  A refusal cites the requirement ``CONDITION_CITES`` gives its first
failed name, so removing one entry from a table removes one conjunct.  Motion,
exposure and release are granted through one path, ``_grant``, which
consumes the confirmations that enabled the grant, so every exposure or
motion needs fresh confirmations of its own; resume consumes its own.
Every refusal goes through one path, ``_refuse``, which records the
verdict and its log line together.  Decision guards are read through one
table, ``_GUARD_SLOTS``, naming the input slot each guard reads and
consumes; only the live-state guards are written out.

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
from dataclasses import dataclass, field, fields
from functools import lru_cache

from .jsoncheck import (
    json_field, json_int, json_keys, json_names, json_object, json_text, json_version,
)
from .model import KIND_ACTION, KIND_DECISION, KIND_FINAL, ProcessModel, normalize_label

SOURCES = ("Radiographer", "Patient", "Sensor", "System")

EVENT_KINDS = (
    "commandConfirm", "voiceStop", "uiStop", "postureUpdate", "postureUnstable",
    "movementDetected", "motionComplete", "exposureRequest", "exposureComplete",
    "fault", "faultCleared", "assent", "assentWithdrawn", "resumeRequest",
    "abandonSession", "tick",
)

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


@dataclass
class ExecConfig:
    stop_latency_budget_ms: int = 100
    stabilization_window_ms: int = 2000
    confirmation_staleness_ms: int = 10_000
    command_response_budget_ms: int = 1000
    max_retakes_per_view: int = 3
    step_cap: int = 10_000
    required_views: tuple[str, ...] = ("CC", "MLO-L", "MLO-R")
    ledger_requirements: dict = field(default_factory=lambda: {
        "motionStart": ("Radiographer",),
        "exposure": ("Radiographer", "Patient"),
        "resume": ("Radiographer", "Patient"),
        "release": ("Radiographer",),
    })

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExecConfig":
        ints = [f.name for f in fields(cls) if f.type == "int"]  # annotations are strings here
        json_keys(data, "config", (*ints, "required_views", "ledger", "schema_version"))
        json_version(data, "config", CONFIG_SCHEMA)
        views = json_names(data.get("required_views", cls.required_views),
                           "config required_views")
        if not views:
            raise ValueError("config required_views must name at least one view")
        return cls(
            **{name: json_int(data.get(name, getattr(cls, name)), f"config {name}")
               for name in ints},
            required_views=views,
            ledger_requirements={
                action: json_names(sources, f"config ledger {action!r}", SOURCES)
                for action, sources in json_object(
                    data.get("ledger", cls().ledger_requirements), "config ledger").items()
            },
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


# payload fields the executive keys on or logs as text
_TEXT_PAYLOAD_FIELDS = ("action", "guard", "view", "detail")


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
        return cls(
            json_int(json_field(data, "t", "event"), "event t"),
            json_field(data, "source", "event"),
            json_field(data, "kind", "event"),
            payload,
        )


class ConfirmationLedger:
    """Multi-source confirmations per safety-critical action, with freshness."""

    __slots__ = ("required", "layout", "staleness_ms", "received")

    def __init__(self, required: dict, staleness_ms: int):
        self.required = {k: tuple(v) for k, v in required.items()}
        # every required (action, source) pair, actions in sorted order
        self.layout = tuple([(a, s) for a in sorted(self.required) for s in self.required[a]])
        self.staleness_ms = staleness_ms
        self.received: dict[str, dict[str, int]] = {k: {} for k in self.required}

    def record(self, action: str, source: str, t: int) -> None:
        if action in self.received:
            self.received[action][source] = t

    def fresh(self, action: str, source: str, now: int) -> bool:
        t = self.received.get(action, {}).get(source)
        return t is not None and now - t <= self.staleness_ms

    def missing(self, action: str, now: int) -> list[str]:
        return [s for s in self.required.get(action, ()) if not self.fresh(action, s, now)]

    def satisfied(self, action: str, now: int) -> bool:
        return not self.missing(action, now)

    def consume(self, action: str) -> None:
        if action in self.received:
            self.received[action] = {}

    def withdraw_source(self, source: str) -> None:
        for confirmations in self.received.values():
            confirmations.pop(source, None)

    def copy(self) -> "ConfirmationLedger":
        dup = ConfirmationLedger.__new__(ConfirmationLedger)
        dup.required = self.required  # never mutated after __init__
        dup.layout = self.layout
        dup.staleness_ms = self.staleness_ms
        dup.received = {k: dict(v) for k, v in self.received.items()}
        return dup


class LogEntry:
    __slots__ = ("t", "kind", "actor", "details")

    def __init__(self, t: int, kind: str, actor: str, details: str):
        self.t = t
        self.kind = kind
        self.actor = actor
        self.details = details

    def __repr__(self):
        return f"LogEntry({self.t}, {self.kind}, {self.actor}, {self.details!r})"

    def to_json_dict(self) -> dict:
        return {"t": self.t, "kind": self.kind, "actor": self.actor, "details": self.details}


class SessionLog:
    """Append-only, timestamp-ordered session log."""

    __slots__ = ("entries",)

    def __init__(self):
        self.entries: list[LogEntry] = []

    def append(self, t: int, kind: str, actor: str, details: str) -> None:
        if self.entries and t < self.entries[-1].t:
            raise ValueError("log timestamps must be non-decreasing")
        self.entries.append(LogEntry(t, kind, actor, details))

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def to_jsonl(self) -> str:
        return log_jsonl(self.entries)


# what json.dumps(obj, separators=(",", ":")) builds per call, built once
COMPACT_JSON = json.JSONEncoder(separators=(",", ":"))


def log_jsonl(entries) -> str:
    """One compact JSON line per log entry."""
    return "".join(COMPACT_JSON.encode(e.to_json_dict()) + "\n" for e in entries)


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


STATUS_RUNNING = "running"
STATUS_COMPLETE = "complete"
STATUS_ABANDONED = "abandoned"


class ExecState:
    __slots__ = (
        "current_node", "clock",
        # condition flags
        "posture_valid", "trajectory_valid", "arm_moving",
        "interruption_active", "fault_active",
        "revalidation_required", "compliance_mode",
        # timers / session data
        "posture_stable_since", "patient_last_assent", "patient_not_ok",
        "views_acquired", "retake_count", "current_view",
        # workflow progression inputs (tri-state; None = undecided)
        "self_test_result", "stage_result", "posture_result", "plan_result",
        "adjustments_result", "retake_result", "generic_decisions",
        "motion_done", "generic_advance",
        # overlays
        "exposure_in_progress", "awaiting_resume", "session_status",
        "ledger", "log",
    )

    def __init__(self, initial_node: str, ledger: ConfirmationLedger):
        self.current_node = initial_node
        self.clock = 0
        self.posture_valid = False
        self.trajectory_valid = False
        self.arm_moving = False
        self.interruption_active = False
        self.fault_active = False
        self.revalidation_required = False
        self.compliance_mode = False
        self.posture_stable_since = None
        self.patient_last_assent = None
        self.patient_not_ok = False
        self.views_acquired: set[str] = set()
        self.retake_count: dict[str, int] = {}
        self.current_view = None
        self.self_test_result = None
        self.stage_result = None
        self.posture_result = None
        self.plan_result = None
        self.adjustments_result = None
        self.retake_result = None
        self.generic_decisions: dict[str, bool] = {}
        self.motion_done = False
        self.generic_advance = False
        self.exposure_in_progress = False
        self.awaiting_resume = False
        self.session_status = STATUS_RUNNING
        self.ledger = ledger
        self.log = SessionLog()

    def assent_fresh(self, now: int, staleness_ms: int) -> bool:
        return (
            self.patient_last_assent is not None
            and now - self.patient_last_assent <= staleness_ms
        )

    def branch(self) -> "ExecState":
        """Independent copy for search branching, with an empty log.

        Every slot is copied; the mutable containers and the ledger get
        their own copies, so handling an event on the branch leaves this
        state untouched.  The log starts empty so each branch records only
        its own step's entries.
        """
        dup = ExecState.__new__(ExecState)
        dup.current_node = self.current_node
        dup.clock = self.clock
        dup.posture_valid = self.posture_valid
        dup.trajectory_valid = self.trajectory_valid
        dup.arm_moving = self.arm_moving
        dup.interruption_active = self.interruption_active
        dup.fault_active = self.fault_active
        dup.revalidation_required = self.revalidation_required
        dup.compliance_mode = self.compliance_mode
        dup.posture_stable_since = self.posture_stable_since
        dup.patient_last_assent = self.patient_last_assent
        dup.patient_not_ok = self.patient_not_ok
        dup.views_acquired = set(self.views_acquired)
        dup.retake_count = dict(self.retake_count)
        dup.current_view = self.current_view
        dup.self_test_result = self.self_test_result
        dup.stage_result = self.stage_result
        dup.posture_result = self.posture_result
        dup.plan_result = self.plan_result
        dup.adjustments_result = self.adjustments_result
        dup.retake_result = self.retake_result
        dup.generic_decisions = dict(self.generic_decisions)
        dup.motion_done = self.motion_done
        dup.generic_advance = self.generic_advance
        dup.exposure_in_progress = self.exposure_in_progress
        dup.awaiting_resume = self.awaiting_resume
        dup.session_status = self.session_status
        dup.ledger = self.ledger.copy()
        dup.log = SessionLog()
        return dup

    def snapshot(self) -> tuple:
        """Cheap immutable view of everything the trace monitors evaluate."""
        return (
            self.clock, self.current_node, self.arm_moving, self.posture_valid,
            self.trajectory_valid, self.posture_stable_since, self.fault_active,
            self.interruption_active, self.revalidation_required,
            self.compliance_mode, self.exposure_in_progress,
        )


# snapshot tuple indices, for monitors
SNAP_CLOCK = 0
SNAP_NODE = 1
SNAP_ARM_MOVING = 2
SNAP_POSTURE_VALID = 3
SNAP_TRAJECTORY_VALID = 4
SNAP_STABLE_SINCE = 5
SNAP_FAULT = 6
SNAP_INTERRUPTION = 7
SNAP_REVALIDATION = 8
SNAP_COMPLIANCE = 9
SNAP_EXPOSURE_IN_PROGRESS = 10


def stabilization_elapsed(state: ExecState, config: ExecConfig) -> bool:
    """Closed bound: exactly `window` ms of stability counts as elapsed."""
    since = state.posture_stable_since
    return since is not None and state.clock - since >= config.stabilization_window_ms


# a gate is a table of (condition name, holds(state, config)), in refusal
# order; the gate allows when every condition holds

# the eight exposure interlock conditions
EXPOSURE_GATE = (
    ("postureValid", lambda state, config: state.posture_valid),
    ("stabilizationElapsed", stabilization_elapsed),
    ("armImmobility", lambda state, config: not state.arm_moving),
    ("patientAssentFresh",
     lambda state, config: state.ledger.fresh("exposure", "Patient", state.clock)),
    ("radiographerConfirmFresh",
     lambda state, config: state.ledger.fresh("exposure", "Radiographer", state.clock)),
    ("noFault", lambda state, config: not state.fault_active),
    ("noInterruption", lambda state, config: not state.interruption_active),
    ("noRevalidationPending", lambda state, config: not state.revalidation_required),
)

# the five motion-enable conditions
MOTION_GATE = (
    ("postureValid", lambda state, config: state.posture_valid),
    ("noInterruption", lambda state, config: not state.interruption_active),
    ("noFault", lambda state, config: not state.fault_active),
    ("noRevalidationPending", lambda state, config: not state.revalidation_required),
    ("ledgerMotionStart",
     lambda state, config: state.ledger.satisfied("motionStart", state.clock)),
)

EXPOSURE_CONDITIONS = tuple(name for name, _ in EXPOSURE_GATE)
MOTION_CONDITIONS = tuple(name for name, _ in MOTION_GATE)


def gate_failures(gate, state: ExecState, config: ExecConfig) -> list[str]:
    """Names of the gate's conditions that fail, in the gate's order."""
    return [name for name, holds in gate if not holds(state, config)]


@dataclass(frozen=True)
class StepVerdict:
    kind: str  # granted | refused | ignored | forced-abandon
    subject: str
    requirement: str | None = None
    detail: str = ""


@dataclass
class StepResult:
    emitted: list[str]
    verdicts: list[StepVerdict]


def _refuse(state: ExecState, verdicts, subject, requirement, detail, logged) -> None:
    """Refuse a command: its verdict and its refusal log line."""
    verdicts.append(StepVerdict("refused", subject, requirement, detail))
    state.log.append(state.clock, "refusal", "System", logged)


def _refuse_failed(state: ExecState, verdicts, subject, action, failed) -> None:
    """Refuse a gated grant, citing the first failed condition's requirement."""
    joined = ",".join(failed)
    _refuse(state, verdicts, subject, cite_for(failed), "failed: " + joined,
            f"{action}: {joined}")


def _grant(state: ExecState, emitted, verdicts, action, marker, subject, log_kind, logged) -> None:
    """Record a grant; it consumes the confirmations that enabled it."""
    state.ledger.consume(action)
    emitted.append(marker)
    verdicts.append(StepVerdict("granted", subject))
    state.log.append(state.clock, log_kind, "System", logged)


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

    # -- gates & grants -----------------------------------------------------

    def _try_start_motion(self, state: ExecState, emitted, verdicts) -> None:
        if self.enabled:
            failed = gate_failures(MOTION_GATE, state, self.config)
            if self._role(state.current_node) not in ("motion", "adjust"):
                failed.append("atMotionStage")
            if failed:
                _refuse_failed(state, verdicts, "motionStart", "motionStart", failed)
                return
        state.arm_moving = True
        _grant(state, emitted, verdicts, "motionStart", "start-motion", "motionStart",
               "motion", "started")

    def _try_release(self, state: ExecState, emitted, verdicts, safe_path: bool = False) -> None:
        """Compliance-mode transition; gated unless taken as the safe path."""
        if state.compliance_mode:
            verdicts.append(StepVerdict("ignored", "release", detail="already compliant"))
            return
        if self.enabled and not safe_path:
            failed = [name for name, holds in (
                ("motionComplete", not state.arm_moving),
                ("noPendingRetake", state.retake_result is not True),
                ("atReleaseStage", self._role(state.current_node) == "release"),
                ("ledgerRelease", state.ledger.satisfied("release", state.clock)),
            ) if not holds]
            if failed:
                _refuse_failed(state, verdicts, "release", "release", failed)
                return
        state.arm_moving = False
        state.compliance_mode = True
        _grant(state, emitted, verdicts, "release", "enter-compliance", "release", "release",
               "compliant safe posture" + (" (safe path)" if safe_path else ""))

    # -- public operations (spec surface) -----------------------------------

    def request_protective_stop(self, state: ExecState, source: str, t: int) -> ExecState:
        kind = "voiceStop" if source == "Patient" else "uiStop"
        self.handle_event(state, Event(t, source, kind))
        return state

    def resume_after_stop(self, state: ExecState, confirmations: list[tuple[str, int]]) -> StepResult:
        for source, t in confirmations:
            self.handle_event(state, Event(t, source, "commandConfirm", {"action": "resume"}))
        t = max((t for _, t in confirmations), default=state.clock)
        return self.handle_event(state, Event(t, "Radiographer", "resumeRequest"))

    def close_out(self, state: ExecState) -> StepResult:
        """End-of-stream safety close: safe-posture if ending non-nominally."""
        emitted: list[str] = []
        verdicts: list[StepVerdict] = []
        if self.enabled and state.session_status != STATUS_COMPLETE and not state.compliance_mode:
            if state.fault_active or state.interruption_active or state.awaiting_resume \
                    or state.session_status == STATUS_ABANDONED:
                self._halt_motion(state, emitted)
                self._try_release(state, emitted, verdicts, safe_path=True)
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
        return StepResult(emitted, verdicts)

    # individual event handlers; each logs per the R8 family mapping

    def _on_tick(self, state, event, emitted, verdicts):
        pass

    def _on_commandConfirm(self, state, event, emitted, verdicts):
        action = event.payload.get("action", "")
        state.log.append(state.clock, "confirmation", event.source, action or "unspecified")
        if action in state.ledger.required and event.source in state.ledger.required[action]:
            state.ledger.record(action, event.source, state.clock)

        if action == "selfTest":
            state.self_test_result = bool(event.payload.get("ready", True))
        elif action == "stageIdentified":
            identified = bool(event.payload.get("identified", True))
            state.stage_result = identified
            if identified:
                view = event.payload.get("view") or self._next_view(state)
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
            state.log.append(state.clock, "plan", "System", "accepted")
        elif action == "motionStart":
            if self._frozen(state):
                _refuse(state, verdicts, "motionStart", "R14", "stopped", "motionStart: stopped")
            elif state.arm_moving:
                verdicts.append(StepVerdict("ignored", "motionStart", detail="already moving"))
            else:
                self._try_start_motion(state, emitted, verdicts)
        elif action == "adjustments":
            state.adjustments_result = bool(event.payload.get("needed", False))
        elif action == "release":
            safe = state.session_status == STATUS_ABANDONED or (
                self.enabled and state.fault_active
            )
            if self._frozen(state) and not safe:
                _refuse(state, verdicts, "release", "R14", "stopped", "release: stopped")
            else:
                self._try_release(state, emitted, verdicts, safe_path=safe)
        elif action == "decide":
            name = event.payload.get("guard")
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
        state.log.append(state.clock, "postureChange", event.source, "unexpected movement")
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
        state.log.append(state.clock, "motion", "System", "complete")

    def _on_exposureRequest(self, state, event, emitted, verdicts):
        if self._frozen(state):
            _refuse(state, verdicts, "exposureRequest", "R14", "stopped", "exposure: stopped")
            return
        if state.exposure_in_progress:
            verdicts.append(StepVerdict("ignored", "exposureRequest", detail="already in progress"))
            return
        if self.enabled:
            failed = gate_failures(EXPOSURE_GATE, state, self.config)
            if self._role(state.current_node) != "capture":
                failed.append("atCaptureStage")
            if failed:
                _refuse_failed(state, verdicts, "exposureRequest", "exposure", failed)
                return
        state.exposure_in_progress = True
        _grant(state, emitted, verdicts, "exposure", "fire-exposure", "exposureRequest",
               "exposure", "granted")

    def _on_exposureComplete(self, state, event, emitted, verdicts):
        if not state.exposure_in_progress:
            if self.enabled:
                verdicts.append(StepVerdict("ignored", "exposureComplete",
                                            detail="no exposure in progress"))
                return
            # unprotected: an orphan completion is a spontaneous exposure
            state.log.append(state.clock, "exposure", "System", "granted")
        retake = bool(event.payload.get("retake", False))
        state.exposure_in_progress = False
        state.retake_result = retake
        view = state.current_view or self._next_view(state)
        if retake:
            state.retake_count[view] = state.retake_count.get(view, 0) + 1
        else:
            state.views_acquired.add(view)
        state.log.append(state.clock, "exposure", "System",
                         f"complete view={view} retake={'yes' if retake else 'no'}")

    def _on_fault(self, state, event, emitted, verdicts):
        state.log.append(state.clock, "fault", event.source,
                         event.payload.get("detail", "fault raised"))
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
        for action, sources in state.ledger.required.items():
            if "Patient" in sources:
                state.ledger.record(action, "Patient", state.clock)

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
        self._try_release(state, emitted, verdicts, safe_path=True)

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
        if self._frozen(state):
            return
        steps = self._steps
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
                        self._try_release(state, emitted, verdicts, safe_path=True)
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
