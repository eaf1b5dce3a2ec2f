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

Each transition handles its event on ``ExecState.branch()``, a slot-wise
copy of the parent state with an empty log.  The branch shares only
immutable values with its parent, the ledger's record tuple and the
acquired-views frozenset among them, and has its own mutable containers and
ledger object, so the parent stays intact for its other successors.  The
search builds one ``Event`` per parent clock and stimulus and applies it at
every state with that clock; ``handle_event`` never writes to its event, so
the transitions and witness paths that share one see the same event.

The search keeps one witness record per discovered state, not its path:
(parent's record index or -1, the event from the parent, key, unsafe).  A
state is held only until its successors are generated, and the last
layer's states are keyed and recorded but never held, since nothing
expands them.  So the search's memory grows with the number of states, not
with states times depth.  ``_witness_path`` rebuilds a path by walking
parents, only where one is read: the counterexample and each cross-checked
witness.

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
``simulate.run_events`` keeps, serves the whole cross-check.  Each witness's
rebuilt path is one full event list, replayed from a fresh ``init_state()``
of that executive, sharing no prefix and no search state, precisely so that
a faulty branch copy shows up as a disagreement; rebuilding paths from
records leaves that independence as it was.
"""

from __future__ import annotations

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


def abstract_key(state: ExecState, config: ExecConfig) -> tuple:
    # one bit per pair of the ledger's layout: is a confirmation held
    ledger_bits = tuple([t is not None for t in state.ledger.received])
    return (
        state.current_node, state.posture_valid,
        state.trajectory_valid, state.arm_moving, state.exposure_in_progress, state.interruption_active,
        state.fault_active, state.awaiting_resume, state.revalidation_required,
        state.compliance_mode, stabilization_elapsed(state, config),
        state.patient_last_assent is not None, state.patient_not_ok,
        state.self_test_result, state.stage_result, state.posture_result,
        state.plan_result, state.adjustments_result, state.retake_result,
        state.motion_done, state.session_status, state.current_view,
        state.views_acquired,
        tuple(sorted(state.retake_count.items())) if state.retake_count else (),
        ledger_bits,
    )


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


def _replay(model: ProcessModel, config: ExecConfig, events, executive: SafetyExecutive):
    """``simulate.play`` of ``events`` through ``executive`` without close-out.

    ``model`` and ``config`` are unused (``executive`` was built from them);
    the name and arguments stay only because the benchmark wraps this
    function and reads ``events`` at ``args[2]``."""
    return play(executive, events, close_out=False)


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
    # one record per discovered state, in discovery order:
    # (parent's record index or -1, event from the parent, key, unsafe)
    witnesses: list[tuple[int, Event, tuple | None, bool]] = []
    counterexample: list[Event] | None = None
    unsafe_detail = ""
    transitions = 0

    # the search stops early at the first unsafe state (with stop_at_first)
    # or when the state budget runs out
    stopped = False
    depth = 0
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
                branch = state.branch()
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
                        witnesses.append((parent, event, None, True))
                        stopped = True
                        break

                key = abstract_key(branch, reach_config)
                if key in visited:
                    continue
                if len(visited) >= state_budget:
                    stopped = True
                    break
                visited.add(key)
                witnesses.append((parent, event, key, path_unsafe or unsafe))
                if expand_next:
                    next_frontier.append((branch, len(witnesses) - 1, path_unsafe or unsafe))
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
    path = []
    while index >= 0:
        index, event, _, _ = witnesses[index]
        path.append(event)
    path.reverse()
    return path


def _cross_check(model, reach_config, enabled, witnesses, result) -> None:
    """Replay each witness's path through ``simulate.play`` and compare.

    One replay executive, not the search's, serves every witness; each
    replay starts from that executive's fresh initial state."""
    executive = SafetyExecutive(model, reach_config, enabled=enabled)
    for index, (_, _, key, unsafe) in enumerate(witnesses):
        path = _witness_path(witnesses, index)
        trace, final_state = _replay(model, reach_config, path, executive)
        result.cross_checked += 1
        if key is not None:
            replay_key = abstract_key(final_state, reach_config)
            if replay_key != key:
                result.cross_check_disagreements.append(
                    f"state mismatch after {[e.kind for e in path]}"
                )
        verdict = monitor_r24(trace, reach_config)
        monitor_unsafe = verdict.status == VIOLATED
        if monitor_unsafe != unsafe:
            result.cross_check_disagreements.append(
                f"verdict mismatch after {[e.kind for e in path]}: "
                f"oracle={'unsafe' if unsafe else 'safe'} monitor={verdict.status}"
            )
