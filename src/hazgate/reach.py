"""Bounded exhaustive reachability over the executive's input space.

Explicit-state search: from the initial state, every stimulus in a bounded
alphabet is applied at every reachable abstract state up to a depth limit.
Time is abstracted so the search stays finite and exact: non-tick stimuli
arrive with zero delay, ticks advance the clock by exactly the stabilization
window, and the confirmation staleness window is stretched beyond reach, so
the window-elapsed/freshness booleans in the abstract state key are exact
functions of the event history.  The key reads the stabilization window
through the executive's own ``stabilization_elapsed``.

Each transition handles its event on ``ExecState.branch()``, a slot-wise
copy of the parent state with its own containers, ledger and an empty log,
so the parent stays intact for its other successors.

The unsafe predicate is evaluated independently of the executive's gates:
an exposure firing counts as unsafe when any interlock condition did not
hold, as recomputed from the raw pre-event state by the monitors' interlock
predicate, ``monitors.exposure_condition_failures``.  Every newly discovered
state is optionally cross-checked by replaying its witness path through
``simulate.play``, the one loop that feeds events to an executive and
records a trace (without the end-of-stream close-out), and comparing both
the resulting abstract state and the exposure-interlock monitor verdict
against the search's own classification.  ``_replay`` is a one-statement
delegate to that loop; it is kept, with its arguments, because the
benchmark wraps it and reads its events argument.
One replay executive, built apart from the search's, serves the whole
cross-check.  Each witness is replayed from a fresh ``init_state()`` of that
executive, sharing no prefix and no search state, precisely so that a
faulty branch copy shows up as a disagreement.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from .executive import (
    Event,
    ExecConfig,
    ExecState,
    SafetyExecutive,
    stabilization_elapsed,
)
from .model import ProcessModel
from .monitors import VIOLATED, exposure_condition_failures, monitor_r24
from .simulate import play

REACH_STALENESS_MS = 10**9

# Default alphabet: 8 event kinds; commandConfirm expands over its payload
# actions (the kind, not the payload, is the alphabet unit).
DEFAULT_ALPHABET = (
    "commandConfirm", "postureUpdate", "motionComplete", "exposureRequest",
    "exposureComplete", "assent", "voiceStop", "tick",
)

_CONFIRM_EXPANSIONS = (
    {"action": "selfTest", "ready": True},
    {"action": "stageIdentified"},
    {"action": "planReady", "valid": True},
    {"action": "motionStart"},
    {"action": "exposure"},
    {"action": "adjustments", "needed": False},
    {"action": "release"},
    {"action": "resume"},
)

_KIND_SOURCE = {
    "commandConfirm": "Radiographer",
    "postureUpdate": "Sensor",
    "motionComplete": "System",
    "exposureRequest": "Radiographer",
    "exposureComplete": "System",
    "assent": "Patient",
    "voiceStop": "Patient",
    "uiStop": "Radiographer",
    "movementDetected": "Sensor",
    "postureUnstable": "Sensor",
    "fault": "Sensor",
    "faultCleared": "System",
    "resumeRequest": "Radiographer",
    "abandonSession": "Patient",
    "tick": "System",
}

_KIND_PAYLOADS = {
    "commandConfirm": _CONFIRM_EXPANSIONS,
    "postureUpdate": ({"valid": True},),
    "exposureComplete": ({"retake": False},),
}


def stimuli_for(alphabet) -> list[tuple[str, dict]]:
    out = []
    for kind in alphabet:
        for payload in _KIND_PAYLOADS.get(kind, ({},)):
            out.append((kind, payload))
    return out


def abstract_key(state: ExecState, config: ExecConfig) -> tuple:
    received = state.ledger.received
    ledger_bits = tuple([source in received[action] for action, source in state.ledger.layout])
    return (
        state.current_node, state.posture_valid,
        state.trajectory_valid, state.arm_moving, state.exposure_in_progress, state.interruption_active,
        state.fault_active, state.awaiting_resume, state.revalidation_required,
        state.compliance_mode, stabilization_elapsed(state, config),
        state.patient_last_assent is not None, state.patient_not_ok,
        state.self_test_result, state.stage_result, state.posture_result,
        state.plan_result, state.adjustments_result, state.retake_result,
        state.motion_done, state.session_status, state.current_view,
        frozenset(state.views_acquired),
        tuple(sorted(state.retake_count.items())),
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
        (kind, _KIND_SOURCE[kind], payload,
         reach_config.stabilization_window_ms if kind == "tick" else 0)
        for kind, payload in stimuli_for(alphabet)
    ]

    initial = executive.init_state()
    visited = {abstract_key(initial, reach_config)}
    # frontier entries: (state, witness path, any unsafe grant along the path)
    frontier: list[tuple[ExecState, list[Event], bool]] = [(initial, [], False)]
    witnesses: list[tuple[list[Event], tuple, bool]] = []
    counterexample: list[Event] | None = None
    unsafe_detail = ""
    transitions = 0

    # the search stops early at the first unsafe state (with stop_at_first)
    # or when the state budget runs out
    stopped = False
    depth = 0
    while frontier and depth < max_depth and not stopped:
        depth += 1
        next_frontier: list[tuple[ExecState, list[Event], bool]] = []
        for state, path, path_unsafe in frontier:
            for kind, source, payload, delay in stimuli:
                clock = state.clock + delay
                event = Event(clock, source, kind, dict(payload))
                branch = state.branch()
                step = executive.handle_event(branch, event)
                transitions += 1

                fired = "fire-exposure" in step.emitted or any(
                    e.kind == "exposure" and e.details == "granted" for e in branch.log
                )
                pre_failed = []
                if fired:
                    # the branch is a copy, so `state` is still the pre-event state
                    received = state.ledger.received.get("exposure", {})
                    pre_failed = exposure_condition_failures(
                        state.posture_valid, state.posture_stable_since, state.arm_moving,
                        received.get("Patient"), received.get("Radiographer"),
                        state.fault_active, state.interruption_active,
                        state.revalidation_required, clock, reach_config,
                    )
                unsafe = bool(pre_failed)
                if unsafe and counterexample is None:
                    counterexample = path + [event]
                    unsafe_detail = (
                        f"exposure fired at t={clock} with failed conditions: "
                        + ",".join(pre_failed)
                    )
                    if stop_at_first:
                        witnesses.append((counterexample, None, True))
                        stopped = True
                        break

                key = abstract_key(branch, reach_config)
                if key in visited:
                    continue
                if len(visited) >= state_budget:
                    stopped = True
                    break
                visited.add(key)
                new_path = path + [event]
                next_frontier.append((branch, new_path, path_unsafe or unsafe))
                witnesses.append((new_path, key, path_unsafe or unsafe))
            if stopped:
                break
        frontier = next_frontier

    result = ReachabilityResult(
        unsafe_reachable=counterexample is not None, counterexample=counterexample,
        states_explored=len(visited), transitions=transitions, depth_reached=depth,
        complete=not stopped, executive_enabled=executive_enabled, alphabet=tuple(alphabet),
        unsafe_detail=unsafe_detail,
    )
    if cross_check:
        _cross_check(model, reach_config, executive_enabled, witnesses, result)
    return result


def _cross_check(model, reach_config, enabled, witnesses, result) -> None:
    """Replay each witness path through ``simulate.play`` and compare.

    One replay executive, not the search's, serves every witness; each
    replay starts from that executive's fresh initial state."""
    executive = SafetyExecutive(model, reach_config, enabled=enabled)
    for path, key, unsafe in witnesses:
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
