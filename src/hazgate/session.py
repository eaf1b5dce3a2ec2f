"""The state of one session, which the executive writes and its readers read.

One module owns each layout that several modules read: the confirmation
ledger, the session log with its line template (``log_jsonl``) and its
closed ``LOG_MARKS``, and ``ExecState`` with its search ``branch`` (and
``branch_into``, which writes one into a state no longer read) and its
monitor ``snapshot``, whose tuple the ``SNAP_*`` indices name.  Every clock
and timestamp of a session lives here.  The module imports nothing from
hazgate, so the executive, the monitors, simulate and reach can all import it.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii

SOURCES = ("Radiographer", "Patient", "Sensor", "System")


class ConfirmationLedger:
    """Multi-source confirmations per safety-critical action, with freshness.

    ``received`` is an immutable tuple aligned to ``layout``: one timestamp,
    or ``None``, per required (action, source) pair.  A write replaces the
    tuple rather than changing it, so ``copy`` shares it, and a copy's writes
    rebind only the copy's own ``received``.  The layout and its index maps
    are built once, by the ledger an executive holds, and every copy shares
    them.  A confirmation from a source the action does not require is not
    kept: no reader asks for one.
    """

    __slots__ = ("required", "layout", "staleness_ms", "received", "_held", "_held_of",
                 "_index", "_by_action", "_by_source")

    def __init__(self, required: dict, staleness_ms: int):
        self.required = {k: tuple(v) for k, v in required.items()}
        # every required (action, source) pair, actions in sorted order
        self.layout = tuple([(a, s) for a in sorted(self.required) for s in self.required[a]])
        self.staleness_ms = staleness_ms
        self.received: tuple[int | None, ...] = (None,) * len(self.layout)
        self._held, self._held_of = b"", None  # held() and the tuple it was read from
        self._index = {pair: i for i, pair in enumerate(self.layout)}
        self._by_action = {a: tuple([i for i, (b, _) in enumerate(self.layout) if b == a])
                           for a in self.required}
        self._by_source = {s: tuple([i for i, (_, p) in enumerate(self.layout) if p == s])
                           for s in SOURCES}

    def _write(self, indices: tuple[int, ...], value: int | None) -> None:
        received = list(self.received)
        for i in indices:
            received[i] = value
        self.received = tuple(received)

    def time(self, action: str, source: str) -> int | None:
        """When ``source`` last confirmed ``action``, or None."""
        i = self._index.get((action, source))
        return None if i is None else self.received[i]

    def record(self, action: str, source: str, t: int) -> None:
        i = self._index.get((action, source))
        if i is not None:  # _write's body, inlined on the busiest write
            received = list(self.received)
            received[i] = t
            self.received = tuple(received)

    def record_source(self, source: str, t: int) -> None:
        """Record ``source`` for every action that requires it, in one write."""
        self._write(self._by_source[source], t)

    def fresh(self, action: str, source: str, now: int) -> bool:
        t = self.time(action, source)
        return t is not None and now - t <= self.staleness_ms

    def missing(self, action: str, now: int) -> list[str]:
        return [s for s in self.required.get(action, ()) if not self.fresh(action, s, now)]

    def satisfied(self, action: str, now: int) -> bool:
        return not self.missing(action, now)

    def consume(self, action: str) -> None:
        self._write(self._by_action.get(action, ()), None)

    def withdraw_source(self, source: str) -> None:
        self._write(self._by_source[source], None)

    def held(self) -> bytes:
        """One byte per pair of the layout, 1 where a confirmation is held.

        reach's key reads this once per transition, and most transitions
        leave the record tuple as it was.  So the bytes are kept with the
        tuple they were read from and read again only when ``received`` is
        another tuple; a copy shares both until it writes."""
        received = self.received
        if self._held_of is not received:
            self._held = bytes([t is not None for t in received])
            self._held_of = received
        return self._held

    def take_record(self, other: "ConfirmationLedger") -> None:
        """Take ``other``'s record tuple and the ``held()`` bytes read from
        it.  The tuple is immutable, a write replacing it, so the two ledgers
        share it until either writes."""
        self.received, self._held, self._held_of = other.received, other._held, other._held_of

    def copy(self) -> "ConfirmationLedger":
        dup = ConfirmationLedger.__new__(ConfirmationLedger)
        dup.required = self.required  # never mutated after __init__
        dup.layout = self.layout
        dup.staleness_ms = self.staleness_ms
        dup.take_record(self)
        dup._index = self._index
        dup._by_action = self._by_action
        dup._by_source = self._by_source
        return dup


# what a log entry records, for readers that must not parse its details
LOG_MARKS = ("plan", "motion", "exposure", "release", "motionComplete", "movementDetected")


class LogEntry:
    __slots__ = ("t", "kind", "actor", "details", "mark")

    def __init__(self, t: int, kind: str, actor: str, details: str, mark: str | None = None):
        self.t = t
        self.kind = kind
        self.actor = actor
        self.details = details
        self.mark = mark  # one of LOG_MARKS or None; --log does not write it

    def __repr__(self):
        return f"LogEntry({self.t}, {self.kind}, {self.actor}, {self.details!r})"

    def to_json_dict(self) -> dict:
        return {"t": self.t, "kind": self.kind, "actor": self.actor, "details": self.details}


class SessionLog:
    """Append-only, timestamp-ordered session log."""

    __slots__ = ("entries",)

    def __init__(self):
        self.entries: list[LogEntry] = []

    def append(self, t: int, kind: str, actor: str, details: str,
               mark: str | None = None) -> None:
        entries = self.entries
        if entries and t < entries[-1].t:
            raise ValueError("log timestamps must be non-decreasing")
        entries.append(LogEntry(t, kind, actor, details, mark))

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


_LOG_LINE = '{"t":%d,"kind":%s,"actor":%s,"details":%s}\n'


def log_jsonl(entries) -> str:
    """One line per log entry, ``{"t","kind","actor","details"}`` in that key
    order, with the bytes ``json.dumps(entry.to_json_dict(),
    separators=(",", ":"))`` gives.
    """
    text = encode_basestring_ascii  # the compact JSON encoder's own string escape
    return "".join([_LOG_LINE % (e.t, text(e.kind), text(e.actor), text(e.details))
                    for e in entries])


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
        self.views_acquired: frozenset[str] = frozenset()
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
        """Independent copy for search branching, with an empty log: a new
        state, ledger and log, which ``branch_into`` fills."""
        dup = ExecState.__new__(ExecState)
        dup.ledger = self.ledger.copy()
        dup.log = SessionLog()
        self.branch_into(dup)
        return dup

    def branch_into(self, dup: "ExecState") -> None:
        """Overwrite ``dup`` with this state's branch, allocating no state.

        ``dup`` is a state of the same executive that nothing reads any
        more, as a dropped search branch is; afterwards it is what
        ``branch()`` returns, in the objects ``dup`` already had.  Every slot
        is either an immutable value, shared as it is, or a container of
        ``dup``'s own, so handling an event on ``dup`` leaves this state
        untouched.  ``views_acquired`` is a frozenset that a new view
        replaces; ``retake_count`` and ``generic_decisions`` are copied, as a
        new empty dict when empty.  ``dup``'s ledger takes this ledger's
        record (``take_record``); its required pairs are the same, since
        both ledgers come from one executive.  ``dup``'s log is emptied, so
        it records only its own step's entries.
        """
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
        dup.views_acquired = self.views_acquired
        dup.retake_count = dict(self.retake_count) if self.retake_count else {}
        dup.current_view = self.current_view
        dup.self_test_result = self.self_test_result
        dup.stage_result = self.stage_result
        dup.posture_result = self.posture_result
        dup.plan_result = self.plan_result
        dup.adjustments_result = self.adjustments_result
        dup.retake_result = self.retake_result
        dup.generic_decisions = dict(self.generic_decisions) if self.generic_decisions else {}
        dup.motion_done = self.motion_done
        dup.generic_advance = self.generic_advance
        dup.exposure_in_progress = self.exposure_in_progress
        dup.awaiting_resume = self.awaiting_resume
        dup.session_status = self.session_status
        dup.ledger.take_record(self.ledger)
        dup.log.entries.clear()

    def snapshot(self) -> tuple:
        """Cheap immutable view of everything the trace monitors evaluate."""
        return (
            self.clock, self.current_node, self.arm_moving, self.posture_valid,
            self.trajectory_valid, self.posture_stable_since, self.fault_active,
            self.interruption_active, self.revalidation_required,
            self.compliance_mode, self.exposure_in_progress,
        )


# snapshot tuple indices, for the trace writer and the monitors
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


def stabilization_elapsed(state: ExecState, config) -> bool:
    """Closed bound: exactly `window` ms of stability counts as elapsed; of
    the executive's ``config`` only ``stabilization_window_ms`` is read."""
    since = state.posture_stable_since
    return since is not None and state.clock - since >= config.stabilization_window_ms
