"""Bounded exhaustive reachability over the executive's input space.

Explicit-state search: from the initial state, every stimulus in a bounded
alphabet is applied at every reachable abstract state up to a depth limit.
Time is abstracted so the search stays finite and exact: non-tick stimuli
arrive with zero delay, ticks advance the clock by exactly the stabilization
window, and the confirmation staleness window is stretched beyond reach, so
the window-elapsed/freshness booleans in the abstract state key are exact
functions of the event history.  The key reads the stabilization window
through the executive's own ``stabilization_elapsed``.

Stimuli come from the executive's declaration of its input language: any
declared kind is an alphabet letter, sent by its nominal source with its
nominal payload (``executive.NOMINAL_EVENTS``), a ``commandConfirm`` once
per workflow action (``executive.CONFIRM_ACTIONS``).

Each transition handles its event on a branch of the parent state: a
slot-wise copy with an empty log, written by ``ExecState.branch_into``.  The
branch shares only immutable values with its parent, the ledger's record
tuple and the acquired-views frozenset among them, and has its own mutable
containers and ledger object, so the parent stays intact for its other
successors.  A branch the search no longer reads becomes its spare: one
whose key was already visited (92% of transitions at depth 12), or a
last-layer state, recorded but never expanded.  The next transition writes
its parent into the spare instead of allocating a state with
``ExecState.branch()``, so only the states kept for expansion are
allocated: 9,282 for 139,230 transitions at depth 12.  The search builds
one ``Event`` per parent clock and stimulus and applies it at every state
with that clock; ``handle_event`` never writes to its event, so the
transitions and witness paths that share one see the same event.

The abstract key is one fixed-width ``bytes`` (``abstract_key``), exact,
with no hashing and no bits dropped: two states get equal keys exactly when
every field below is equal.  ``struct`` packs its fixed-width head,
little-endian with no padding, in this order: the node's code (16 bits);
one byte each for posture valid, trajectory valid, arm moving, exposure in
progress, interruption, fault, awaiting resume, revalidation required,
compliance mode, stabilization elapsed, assent held and patient not OK;
one byte per tri-state result (self test, stage, posture, plan,
adjustments, retake; ``None``/``False``/``True`` as 0/1/2); motion done;
then 16-bit codes for the session status, current view, acquired views and
the sorted retake counts.  The ledger's ``held()`` follows the head: one
byte per pair of its layout, 1 where a confirmation is held.  Codes come
from one table that gives each distinct value the next integer when first
seen and never forgets one, so equal values share a code and distinct
values never do.  A value a field cannot hold raises, and nothing is
wrapped or truncated: ``struct.error`` for a boolean slot holding 256 or a
65,537th code, ``KeyError`` for a tri-state holding anything but the
three.  Ledgers of different lengths give keys of different lengths, which
never compare equal.

The search keeps one witness record per discovered state, not its path,
held as columns in discovery order (``_Witnesses``): the parent's record
index or -1 in an ``array('i')``, the event from the parent, the key
(``None`` for the record a first-unsafe stop leaves) and the unsafe flag in
a ``bytearray``.  A state is held only until its successors are generated,
and the last layer's states are keyed and recorded but never held, since
nothing expands them.  So the search's memory grows with the number of
states, not with states times depth.  ``_witness_path`` rebuilds a path by
walking parents, only where one is read: the counterexample and each
cross-checked witness.

The unsafe predicate is evaluated independently of the executive's gates:
a transition fires an exposure when its log holds an entry marked
``exposure`` (``session.LOG_MARKS``), never read from the log's prose,
and the firing is unsafe when any interlock condition did not hold, as
recomputed from the raw pre-event state by the monitors' interlock
predicate, ``monitors.exposure_condition_failures``.  Every newly discovered
state is optionally cross-checked by replaying its witness path through
``simulate.play``, the one loop that feeds events to an executive and
records a trace (without the end-of-stream close-out), and comparing both
the resulting abstract state and the exposure-interlock monitor verdict
against the search's own classification.  ``_replay`` is a one-statement
delegate to that loop; it is kept, with its arguments, because the
benchmark wraps it and reads its events argument.
One replay executive, built apart from the search's and from the ones
``simulate.run_events`` keeps, serves the whole cross-check, which visits
the witnesses in depth-first preorder of the tree their parent indices
form.  A witness whose parent is the witness replayed just before it
continues that replay's session by its own one event; every other witness
replays its whole rebuilt path from a fresh ``init_state()``.  Either way
each witness's final state and trace come from the executive handling its
path's events in order from a fresh initial state, with no state copied
and nothing taken from the search, precisely so that a faulty branch copy
shows up as a disagreement.  Each witness still gets its own key
comparison and its own interlock verdict over its whole trace, and
disagreements are reported in witness order.
"""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, fields, replace

from .executive import CONFIRM_ACTIONS, NOMINAL_EVENTS, Event, ExecConfig, SafetyExecutive
from .model import ProcessModel
from .monitors import VIOLATED, exposure_condition_failures, monitor_r24
from .session import ExecState, stabilization_elapsed
from .simulate import play

REACH_STALENESS_MS = 10**9

# Default alphabet: 8 event kinds; commandConfirm expands over its payload
# actions (the kind, not the payload, is the alphabet unit).
DEFAULT_ALPHABET = (
    "commandConfirm", "postureUpdate", "motionComplete", "exposureRequest",
    "exposureComplete", "assent", "voiceStop", "tick",
)


def stimuli_for(alphabet) -> list[tuple[str, dict]]:
    """(kind, nominal payload) per stimulus; commandConfirm once per action."""
    out = []
    for kind in alphabet:
        if kind not in NOMINAL_EVENTS:
            raise ValueError(f"reach alphabet names unknown event kind {kind!r}")
        if kind == "commandConfirm":
            out += [(kind, {"action": action, **fields})
                    for action, fields in CONFIRM_ACTIONS.items()]
        else:
            out.append((kind, dict(NOMINAL_EVENTS[kind][1])))
    return out


class _Codes(dict):
    """Value -> small integer code, assigned in first-seen order.

    One module-level table serves every search in the process.  That is
    safe because codes never leave the process (no report, trace or file
    holds a key) and only their equality is read: a value's code stays the
    same for the life of the table, and distinct values get distinct codes,
    whichever search saw them first and in whatever order.  Assigning a
    code is not atomic, so keys are computed by one thread at a time, as
    every search does."""

    __slots__ = ()

    def __missing__(self, value):
        code = self[value] = len(self)
        return code


_CODES = _Codes()
_TRI_STATE = {None: 0, False: 1, True: 2}
# the key without its ledger bytes; see the module docstring for the fields
_KEY_HEAD = struct.Struct("<H19B4H")


def abstract_key(state: ExecState, config: ExecConfig) -> bytes:
    """The state's exact abstract key; its layout is in the module docstring."""
    codes, tri = _CODES, _TRI_STATE
    retakes = state.retake_count
    return _KEY_HEAD.pack(
        codes[state.current_node], state.posture_valid,
        state.trajectory_valid, state.arm_moving, state.exposure_in_progress, state.interruption_active,
        state.fault_active, state.awaiting_resume, state.revalidation_required,
        state.compliance_mode, stabilization_elapsed(state, config),
        state.patient_last_assent is not None, state.patient_not_ok,
        tri[state.self_test_result], tri[state.stage_result], tri[state.posture_result],
        tri[state.plan_result], tri[state.adjustments_result], tri[state.retake_result],
        state.motion_done, codes[state.session_status], codes[state.current_view],
        codes[state.views_acquired],
        codes[tuple(sorted(retakes.items())) if retakes else ()],
    ) + state.ledger.held()


class _Witnesses:
    """One record per discovered state, in discovery order, as columns."""

    __slots__ = ("parents", "events", "keys", "unsafe")

    def __init__(self):
        self.parents = array("i")  # the parent's record index, or -1
        self.events: list[Event] = []  # the event from the parent
        self.keys: list[bytes | None] = []  # None: the first-unsafe stop's record
        self.unsafe = bytearray()  # any unsafe grant along the path

    def append(self, parent: int, event: Event, key: bytes | None, unsafe: bool) -> None:
        self.parents.append(parent)
        self.events.append(event)
        self.keys.append(key)
        self.unsafe.append(unsafe)


@dataclass
class ReachabilityResult:
    unsafe_reachable: bool
    counterexample: list[Event] | None
    states_explored: int
    transitions: int
    depth_reached: int
    complete: bool
    executive_enabled: bool
    alphabet: tuple[str, ...]
    unsafe_detail: str = ""
    cross_checked: int = 0
    cross_check_disagreements: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["schema_version"] = "reach-report/1"
        out["counterexample"] = (
            [e.to_json_dict() for e in self.counterexample] if self.counterexample else None)
        out["alphabet"] = list(self.alphabet)
        return out


def _replay(model: ProcessModel, config: ExecConfig, events, executive: SafetyExecutive,
            resume=None):
    """``simulate.play`` of ``events`` through ``executive`` without close-out,
    continuing ``resume``, the ``(trace, state)`` an earlier replay through
    ``executive`` returned, when one is given.

    ``model`` and ``config`` are unused (``executive`` was built from them);
    the name and arguments stay only because the benchmark wraps this
    function and reads ``events`` at ``args[2]``."""
    return play(executive, events, False, resume)


def brute_force_reachability(
    model: ProcessModel,
    config: ExecConfig,
    max_depth: int = 12,
    alphabet=DEFAULT_ALPHABET,
    executive_enabled: bool = True,
    state_budget: int = 1_000_000,
    stop_at_first: bool = True,
    cross_check: bool = True,
) -> ReachabilityResult:
    if max_depth < 0:
        raise ValueError(f"reach depth must be >= 0, got {max_depth}")
    reach_config = replace(config, confirmation_staleness_ms=REACH_STALENESS_MS)
    executive = SafetyExecutive(model, reach_config, enabled=executive_enabled)
    # (kind, source, payload, clock delay) per stimulus
    stimuli = [
        (kind, NOMINAL_EVENTS[kind][0], payload,
         reach_config.stabilization_window_ms if kind == "tick" else 0)
        for kind, payload in stimuli_for(alphabet)
    ]

    # one event per (parent clock, stimulus), shared by every transition
    # that applies it; handle_event never mutates an event
    events_at: dict[int, list[Event]] = {}

    initial = executive.init_state()
    visited = {abstract_key(initial, reach_config)}
    # frontier entries: (state, index of its witness record or -1 for the
    # initial state, any unsafe grant along its path)
    frontier: list[tuple[ExecState, int, bool] | None] = [(initial, -1, False)]
    witnesses = _Witnesses()
    counterexample: list[Event] | None = None
    unsafe_detail = ""
    transitions = 0

    # the search stops early at the first unsafe state (with stop_at_first)
    # or when the state budget runs out
    stopped = False
    depth = 0
    # a dropped or last-layer branch, which the next transition writes into
    spare: ExecState | None = None
    while frontier and depth < max_depth and not stopped:
        depth += 1
        expand_next = depth < max_depth  # the last layer's states are never expanded
        next_frontier: list[tuple[ExecState, int, bool] | None] = []
        for i in range(len(frontier)):
            state, parent, path_unsafe = frontier[i]
            frontier[i] = None  # held by `state` only while it is expanded
            events = events_at.get(state.clock)
            if events is None:
                events = events_at[state.clock] = [
                    Event(state.clock + delay, source, kind, dict(payload))
                    for kind, source, payload, delay in stimuli]
            for event in events:
                if spare is None:
                    branch = state.branch()
                else:
                    branch, spare = spare, None
                    state.branch_into(branch)
                executive.handle_event(branch, event)
                transitions += 1

                pre_failed = []
                for entry in branch.log.entries:
                    if entry.mark == "exposure":  # the transition fired an exposure
                        # the branch is a copy, so `state` is still the pre-event state
                        ledger = state.ledger
                        pre_failed = exposure_condition_failures(
                            state.posture_valid, state.posture_stable_since, state.arm_moving,
                            ledger.time("exposure", "Patient"),
                            ledger.time("exposure", "Radiographer"),
                            state.fault_active, state.interruption_active,
                            state.revalidation_required, event.timestamp, reach_config,
                        )
                        break
                unsafe = bool(pre_failed)
                if unsafe and counterexample is None:
                    counterexample = _witness_path(witnesses, parent) + [event]
                    unsafe_detail = (
                        f"exposure fired at t={event.timestamp} with failed conditions: "
                        + ",".join(pre_failed)
                    )
                    if stop_at_first:
                        witnesses.append(parent, event, None, True)
                        stopped = True
                        break

                key = abstract_key(branch, reach_config)
                if key in visited:
                    spare = branch
                    continue
                if len(visited) >= state_budget:
                    stopped = True
                    break
                visited.add(key)
                witnesses.append(parent, event, key, path_unsafe or unsafe)
                if expand_next:
                    next_frontier.append((branch, len(witnesses.keys) - 1, path_unsafe or unsafe))
                else:
                    spare = branch
            if stopped:
                break
        frontier = next_frontier
    frontier = next_frontier = None  # what a stopped search left unexpanded

    result = ReachabilityResult(
        unsafe_reachable=counterexample is not None, counterexample=counterexample,
        states_explored=len(visited), transitions=transitions, depth_reached=depth,
        complete=not stopped, executive_enabled=executive_enabled, alphabet=tuple(alphabet),
        unsafe_detail=unsafe_detail,
    )
    if cross_check:
        _cross_check(model, reach_config, executive_enabled, witnesses, result)
    return result


def _witness_path(witnesses, index: int) -> list[Event]:
    """The events from the initial state to witness ``index`` (-1: none)."""
    parents, events = witnesses.parents, witnesses.events
    path = []
    while index >= 0:
        path.append(events[index])
        index = parents[index]
    path.reverse()
    return path


def _path_text(path) -> str:
    """A witness path as a disagreement names it: the list of its events'
    kinds, a ``commandConfirm`` written with its action."""
    return str([f"commandConfirm:{e.payload['action']}" if e.kind == "commandConfirm" else e.kind
                for e in path])


def _cross_check(model, reach_config, enabled, witnesses, result) -> None:
    """Replay each witness's path through ``simulate.play`` and compare.

    One replay executive, not the search's, serves every witness.  The
    witnesses are visited in depth-first preorder: a witness whose parent
    was replayed just before it resumes that session with its own event,
    any other replays its path from the executive's fresh initial state."""
    executive = SafetyExecutive(model, reach_config, enabled=enabled)
    parents, events, keys, unsafe = (
        witnesses.parents, witnesses.events, witnesses.keys, witnesses.unsafe)
    # the search appends each parent's records together and in parent
    # order, so `parents` never decreases and a record's children are one
    # run of indices, found by bisection; runs of siblings still to visit,
    # the innermost last, are all the walk holds
    roots = bisect_right(parents, -1)
    runs = [(0, roots)] if roots else []
    # the witness just replayed and its (trace, state); -1 and None at the
    # start, so the first root, whose parent is -1, starts a fresh session
    previous, session = -1, None
    messages = []  # (witness index, text), reported in witness order
    while runs:
        index, end = runs.pop()
        if index + 1 < end:
            runs.append((index + 1, end))
        if parents[index] == previous:
            path = [events[index]]
        else:
            path, session = _witness_path(witnesses, index), None
        session = _replay(model, reach_config, path, executive, session)
        previous = index
        # its children, visited before its remaining siblings; their parent
        # index exceeds the siblings' parent, so they lie at or after `end`
        first = bisect_left(parents, index, end)
        last = bisect_right(parents, index, first)
        if first < last:
            runs.append((first, last))

        trace, final_state = session
        result.cross_checked += 1
        key = keys[index]
        if key is not None and abstract_key(final_state, reach_config) != key:
            named = _path_text(_witness_path(witnesses, index))
            messages.append((index, f"state mismatch after {named}"))
        verdict = monitor_r24(trace, reach_config)
        oracle_unsafe = bool(unsafe[index])
        if (verdict.status == VIOLATED) != oracle_unsafe:
            named = _path_text(_witness_path(witnesses, index))
            messages.append((index, f"verdict mismatch after {named}: "
                                    f"oracle={'unsafe' if oracle_unsafe else 'safe'} "
                                    f"monitor={verdict.status}"))
    messages.sort(key=lambda message: message[0])  # stable: a witness's two stay in order
    result.cross_check_disagreements += [text for _, text in messages]
