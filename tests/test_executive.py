import hashlib
import itertools
import json
import random

import pytest

from hazgate.acceptance import _random_timeline
from hazgate.datafiles import data_path
from hazgate.executive import (
    _NODE_ROLES,
    CONDITION_CITES,
    EXPOSURE_CONDITIONS,
    EXPOSURE_GATE,
    MOTION_CONDITIONS,
    MOTION_GATE,
    ExecConfig,
    ExecState,
    Event,
    SafetyExecutive,
    TimestampRegression,
    cite_for,
    gate_failures,
    init_executive,
    stabilization_elapsed,
)
from hazgate.model import load_model, normalize_label, parse_model
from hazgate.scenarios import Scenario, nominal_timeline
from hazgate.simulate import run_events

MINIMAL = """\
process minimal
initial start
final end
action work "Do the work" actor=A
edge start -> work
edge work -> end
"""


@pytest.fixture(scope="module")
def mammobot():
    return load_model(data_path("mammobot.proc"))


@pytest.fixture(scope="module")
def config():
    return ExecConfig.load(data_path("exec_config.json"))


def fresh(mammobot, config, enabled=True):
    return init_executive(mammobot, config, enabled=enabled)


def run_prefix(executive, state, events, until_ms):
    for event in events:
        if event.timestamp > until_ms:
            break
        executive.handle_event(state, event)


class TestInit:
    def test_initial_state(self, mammobot, config):
        _, state = fresh(mammobot, config)
        assert state.current_node == "sys_init"
        assert not state.exposure_in_progress
        assert state.self_test_result is None
        assert len(state.log) == 0
        assert all(not v for v in state.ledger.received.values())

    def test_zero_stabilization_window_accepted(self, mammobot):
        config = ExecConfig(stabilization_window_ms=0)
        executive, state = init_executive(mammobot, config)
        assert executive.config.stabilization_window_ms == 0
        assert state.current_node == "sys_init"

    def test_minimal_model(self, config):
        _, state = init_executive(parse_model(MINIMAL), config)
        assert state.current_node == "work"


LOOP = """\
process loop
guard again "The work must be done once more" holds="repeat"
initial start
final end
action work "Do the work" actor=A
decision more "Again?" guard=again
edge start -> work
edge work -> more
edge more -> work when=true
edge more -> end when=false
"""


class TestGenericWorkflow:
    """Actions and decisions outside the executive's roles: an "advance"
    confirmation completes the action and a "decide" confirmation is consumed
    by the decision that reads it."""

    def confirm(self, executive, state, t, **payload):
        return executive.handle_event(state, Event(t, "Radiographer", "commandConfirm", payload))

    def test_advance_and_decide_drive_the_loop(self, config):
        executive, state = init_executive(parse_model(LOOP), config)
        assert state.current_node == "work"
        self.confirm(executive, state, 10, action="decide", guard="again", value=True)
        assert state.current_node == "work"  # the action is still open
        self.confirm(executive, state, 20, action="advance")
        assert state.current_node == "work"  # looped back once
        assert state.generic_decisions == {} and state.generic_advance is False
        self.confirm(executive, state, 30, action="advance")
        assert state.current_node == "more"  # undecided blocks progression
        self.confirm(executive, state, 40, action="decide", guard="again", value=False)
        assert state.current_node == "end"
        assert state.session_status == "complete"


class TestConfigJson:
    def test_round_trips_the_shipped_file(self, config):
        shipped = json.loads(data_path("exec_config.json").read_text(encoding="utf-8"))
        assert config.to_json_dict() == shipped
        assert ExecConfig.from_json_dict(config.to_json_dict()) == config


class TestConstruction:
    def test_tables_match_direct_recomputation(self, mammobot, config):
        roles = {n.id: _NODE_ROLES.get(normalize_label(n.label), "generic")
                 for n in mammobot.nodes}
        # node id -> (kind, plain successor, completion slot, its open value,
        # guard, true successor, false successor), written out by hand
        steps = {
            "start": ("Initial", "sys_init", "generic_advance", False, None, None, None),
            "sys_init": ("Action", "system_ready", "self_test_result", None, None, None, None),
            "system_ready": ("Decision", None, "generic_advance", False, "systemReady",
                             "identify_stage", "sys_init"),
            "identify_stage": ("Action", "stage_identified", "stage_result", None, None, None,
                               None),
            "stage_identified": ("Decision", None, "generic_advance", False,
                                 "processStageIdentified", "determine_posture",
                                 "identify_stage"),
            "determine_posture": ("Action", "posture_detected", "posture_result", None, None,
                                  None, None),
            "posture_detected": ("Decision", None, "generic_advance", False, "postureDetected",
                                 "plan_trajectory", "determine_posture"),
            "plan_trajectory": ("Action", "trajectory_valid", "plan_result", None, None, None,
                                None),
            "trajectory_valid": ("Decision", None, "generic_advance", False, "trajectoryValid",
                                 "position_arms", "plan_trajectory"),
            "position_arms": ("Action", "fault_detected", "motion_done", False, None, None, None),
            "fault_detected": ("Decision", None, "generic_advance", False, "faultDetected",
                               "release_patient", "hri_interruption"),
            "hri_interruption": ("Decision", None, "generic_advance", False, "interruptionHRI",
                                 "release_patient", "patient_ok"),
            "patient_ok": ("Decision", None, "generic_advance", False, "patientOK",
                           "adjustments_needed", "release_patient"),
            "adjustments_needed": ("Decision", None, "generic_advance", False,
                                   "adjustmentsNeeded", "perform_adjustments", "capture_xray"),
            "perform_adjustments": ("Action", "capture_xray", "motion_done", False, None, None,
                                    None),
            "capture_xray": ("Action", "retake_needed", "retake_result", None, None, None, None),
            "retake_needed": ("Decision", None, "generic_advance", False, "retakeNeeded",
                              "perform_adjustments", "process_done"),
            "process_done": ("Decision", None, "generic_advance", False, "processDone",
                             "release_patient", "identify_stage"),
            "release_patient": ("Action", "end", "compliance_mode", False, None, None, None),
            "end": ("Final", None, "generic_advance", False, None, None, None),
        }
        for executive in (SafetyExecutive(mammobot, config),
                          SafetyExecutive(mammobot, config, enabled=False)):
            assert executive._roles == roles
            assert executive._role_nodes == {
                role: nid for nid, role in roles.items() if role != "generic"}
            assert executive._steps == steps
        assert SafetyExecutive(parse_model(LOOP), config)._steps["work"] == (
            "Action", "more", "generic_advance", False, None, None, None)


class TestBranch:
    @pytest.fixture
    def mid_session(self, mammobot, config):
        executive, state = fresh(mammobot, config)
        events = nominal_timeline(config, retakes={"CC": 1})
        run_prefix(executive, state, events, events[len(events) * 2 // 3].timestamp)
        state.generic_decisions["someGuard"] = True
        assert state.views_acquired and state.retake_count and len(state.log)
        assert any(state.ledger.received.values())
        return state

    def test_every_slot_copied_and_log_empty(self, mid_session):
        branch = mid_session.branch()
        for slot in ExecState.__slots__:
            if slot == "log":
                continue
            value = getattr(branch, slot)  # AttributeError if never set
            if slot == "ledger":
                assert value is not mid_session.ledger
                assert value.received == mid_session.ledger.received
                assert value.required == mid_session.ledger.required
                assert value.staleness_ms == mid_session.ledger.staleness_ms
            else:
                assert value == getattr(mid_session, slot), slot
        assert len(branch.log) == 0
        assert branch.snapshot() == mid_session.snapshot()

    def test_mutating_branch_leaves_original(self, mid_session):
        views = set(mid_session.views_acquired)
        retakes = dict(mid_session.retake_count)
        decisions = dict(mid_session.generic_decisions)
        received = {k: dict(v) for k, v in mid_session.ledger.received.items()}
        log_length = len(mid_session.log)

        branch = mid_session.branch()
        branch.views_acquired.add("XX")
        branch.retake_count["XX"] = 9
        branch.generic_decisions["other"] = False
        branch.ledger.record("exposure", "Patient", 10**9)
        branch.ledger.consume("motionStart")
        branch.log.append(10**9, "note", "System", "branch only")

        assert mid_session.views_acquired == views
        assert mid_session.retake_count == retakes
        assert mid_session.generic_decisions == decisions
        assert mid_session.ledger.received == received
        assert len(mid_session.log) == log_length


class TestNominalSession:
    def test_three_views_acquired(self, mammobot, config):
        executive, state = fresh(mammobot, config)
        for event in nominal_timeline(config):
            executive.handle_event(state, event)
        assert state.session_status == "complete"
        assert state.current_node == mammobot.final
        assert state.views_acquired == {"CC", "MLO-L", "MLO-R"}
        assert state.compliance_mode is True

    def test_no_refusals_on_nominal_path(self, mammobot, config):
        executive, state = fresh(mammobot, config)
        refusals = []
        for event in nominal_timeline(config):
            result = executive.handle_event(state, event)
            refusals += [v for v in result.verdicts if v.kind == "refused"]
        assert refusals == []

    def test_retake_loop(self, mammobot, config):
        executive, state = fresh(mammobot, config)
        for event in nominal_timeline(config, retakes={"CC": 1}):
            executive.handle_event(state, event)
        assert state.session_status == "complete"
        assert state.retake_count == {"CC": 1}

    def test_timestamp_regression_rejected(self, mammobot, config):
        executive, state = fresh(mammobot, config)
        executive.handle_event(state, Event(500, "System", "tick"))
        with pytest.raises(TimestampRegression):
            executive.handle_event(state, Event(100, "System", "tick"))

    def test_meaningless_event_is_ignored_not_crash(self, mammobot, config):
        executive, state = fresh(mammobot, config)
        result = executive.handle_event(state, Event(0, "System", "motionComplete"))
        assert [v.kind for v in result.verdicts] == ["ignored"]


class TestExposureGate:
    def _state_with(self, mammobot, config, failing=()):
        """All eight conjuncts satisfied, then break the requested ones."""
        _, state = init_executive(mammobot, config)
        now = 10_000
        state.clock = now
        state.posture_valid = True
        state.posture_stable_since = now - config.stabilization_window_ms
        state.arm_moving = False
        state.ledger.record("exposure", "Patient", now - 10)
        state.ledger.record("exposure", "Radiographer", now - 10)
        state.fault_active = False
        state.interruption_active = False
        state.revalidation_required = False
        for condition in failing:
            if condition == "postureValid":
                state.posture_valid = False
            elif condition == "stabilizationElapsed":
                state.posture_stable_since = now - config.stabilization_window_ms + 1
            elif condition == "armImmobility":
                state.arm_moving = True
            elif condition == "patientAssentFresh":
                state.ledger.received["exposure"].pop("Patient")
            elif condition == "radiographerConfirmFresh":
                state.ledger.received["exposure"]["Radiographer"] = (
                    now - config.confirmation_staleness_ms - 1
                )
            elif condition == "noFault":
                state.fault_active = True
            elif condition == "noInterruption":
                state.interruption_active = True
            elif condition == "noRevalidationPending":
                state.revalidation_required = True
        return state

    def test_all_satisfied_allows(self, mammobot, config):
        assert gate_failures(EXPOSURE_GATE, self._state_with(mammobot, config), config) == []

    def test_arm_moving_causes_single_named_failure(self, mammobot, config):
        state = self._state_with(mammobot, config, failing=("armImmobility",))
        assert gate_failures(EXPOSURE_GATE, state, config) == ["armImmobility"]

    def test_truth_table_exactly_one_allowed(self, mammobot, config):
        """Brute-force 2^8 sweep: the gate must be the pure conjunction."""
        allowed_rows = []
        for bits in itertools.product([False, True], repeat=len(EXPOSURE_CONDITIONS)):
            failing = tuple(
                name for name, ok in zip(EXPOSURE_CONDITIONS, bits) if not ok
            )
            state = self._state_with(mammobot, config, failing=failing)
            failed = gate_failures(EXPOSURE_GATE, state, config)
            oracle = all(bits)
            assert (not failed) == oracle, (bits, failed)
            if not failed:
                allowed_rows.append(bits)
            else:
                assert set(failed) == set(failing)
        assert len(allowed_rows) == 1

    def test_gate_is_deterministic(self, mammobot, config):
        state = self._state_with(mammobot, config, failing=("noFault",))
        first = gate_failures(EXPOSURE_GATE, state, config)
        for _ in range(50):
            assert gate_failures(EXPOSURE_GATE, state, config) == first


class TestMotionGate:
    def _state_with(self, mammobot, config, failing=()):
        _, state = init_executive(mammobot, config)
        now = 10_000
        state.clock = now
        state.posture_valid = True
        state.ledger.record("motionStart", "Radiographer", now - 10)
        for condition in failing:
            if condition == "postureValid":
                state.posture_valid = False
            elif condition == "noInterruption":
                state.interruption_active = True
            elif condition == "noFault":
                state.fault_active = True
            elif condition == "noRevalidationPending":
                state.revalidation_required = True
            elif condition == "ledgerMotionStart":
                state.ledger.consume("motionStart")
        return state

    def test_truth_table_exactly_one_allowed(self, mammobot, config):
        allowed = 0
        for bits in itertools.product([False, True], repeat=len(MOTION_CONDITIONS)):
            failing = tuple(
                name for name, ok in zip(MOTION_CONDITIONS, bits) if not ok
            )
            state = self._state_with(mammobot, config, failing=failing)
            granted = not gate_failures(MOTION_GATE, state, config)
            assert granted == all(bits)
            allowed += granted
        assert allowed == 1

    def test_revalidation_refusal_cites_r23(self, mammobot, config):
        executive, state = fresh(mammobot, config)
        run_prefix(executive, state, nominal_timeline(config), 10_000)
        state.revalidation_required = True
        result = executive.handle_event(
            state, Event(state.clock + 1, "Radiographer", "commandConfirm",
                         {"action": "motionStart"})
        )
        refused = [v for v in result.verdicts if v.kind == "refused"]
        assert refused and refused[0].requirement == "R23"


class TestStabilization:
    def test_window_elapsed(self, mammobot, config):
        _, state = init_executive(mammobot, config)
        state.posture_stable_since = 1000
        state.clock = 1000 + 2500
        assert stabilization_elapsed(state, ExecConfig(stabilization_window_ms=2000))

    def test_unset_is_false(self, mammobot, config):
        _, state = init_executive(mammobot, config)
        state.posture_stable_since = None
        state.clock = 99_999
        assert not stabilization_elapsed(state, config)

    def test_closed_boundary(self, mammobot):
        config = ExecConfig(stabilization_window_ms=2000)
        _, state = init_executive(load_model(data_path("mammobot.proc")), config)
        state.posture_stable_since = 5000
        state.clock = 5000 + 1999
        assert not stabilization_elapsed(state, config)
        state.clock = 5000 + 2000
        assert stabilization_elapsed(state, config)  # exactly the window
        state.clock = 5000 + 2001
        assert stabilization_elapsed(state, config)


class TestProtectiveStop:
    def test_stop_mid_motion_halts_immediately(self, mammobot, config):
        executive, state = fresh(mammobot, config)
        events = nominal_timeline(config)
        start = next(e for e in events if e.payload.get("action") == "motionStart")
        run_prefix(executive, state, events, start.timestamp)
        assert state.arm_moving
        t = start.timestamp + 60
        executive.request_protective_stop(state, "Patient", t)
        assert state.interruption_active
        assert not state.arm_moving
        assert state.clock == t  # halt within the same simulated instant

    def test_stop_is_idempotent_with_second_log_entry(self, mammobot, config):
        executive, state = fresh(mammobot, config)
        executive.request_protective_stop(state, "Patient", 100)
        executive.request_protective_stop(state, "Radiographer", 200)
        stops = [e for e in state.log if e.kind == "interruption"]
        assert len(stops) == 2
        assert state.interruption_active

    def test_motion_refused_while_stopped_cites_r14(self, mammobot, config):
        executive, state = fresh(mammobot, config)
        executive.request_protective_stop(state, "Radiographer", 100)
        result = executive.handle_event(
            state, Event(200, "Radiographer", "commandConfirm", {"action": "motionStart"})
        )
        assert any(v.kind == "refused" and v.requirement == "R14" for v in result.verdicts)

    def test_resume_requires_both_sources(self, mammobot, config):
        executive, state = fresh(mammobot, config)
        executive.request_protective_stop(state, "Patient", 100)
        result = executive.resume_after_stop(state, [("Radiographer", 200)])
        assert any(v.kind == "refused" and v.requirement == "R20" for v in result.verdicts)
        assert state.interruption_active

    def test_resume_with_fresh_confirmations_sets_revalidation(self, mammobot, config):
        executive, state = fresh(mammobot, config)
        events = nominal_timeline(config)
        start = next(e for e in events if e.payload.get("action") == "motionStart")
        run_prefix(executive, state, events, start.timestamp)
        executive.request_protective_stop(state, "Patient", start.timestamp + 10)
        result = executive.resume_after_stop(
            state,
            [("Radiographer", start.timestamp + 100), ("Patient", start.timestamp + 150)],
        )
        assert "resume" in result.emitted
        assert not state.interruption_active
        assert state.revalidation_required
        assert state.current_node == "determine_posture"

    def test_revalidation_clears_on_posture_plan_and_assent(self, mammobot, config):
        executive, state = fresh(mammobot, config)
        executive.request_protective_stop(state, "Patient", 100)
        executive.resume_after_stop(state, [("Radiographer", 200), ("Patient", 200)])
        assert state.revalidation_required
        executive.handle_event(state, Event(300, "Sensor", "postureUpdate", {"valid": True}))
        executive.handle_event(state, Event(300, "Patient", "assent"))
        assert state.revalidation_required  # the trajectory is not yet revalidated
        t = 300 + config.stabilization_window_ms
        executive.handle_event(state, Event(t, "Radiographer", "commandConfirm",
                                            {"action": "planReady", "valid": True}))
        assert not state.revalidation_required
        assert [e.t for e in state.log if e.kind == "revalidation"] == [t]

    def test_stale_confirmations_refused(self, mammobot, config):
        executive, state = fresh(mammobot, config)
        executive.request_protective_stop(state, "Patient", 1000)
        state.ledger.record("resume", "Radiographer", 1000)
        state.ledger.record("resume", "Patient", 1000)
        late = 1000 + config.confirmation_staleness_ms + 1
        result = executive.handle_event(state, Event(late, "Radiographer", "resumeRequest"))
        assert any(v.kind == "refused" for v in result.verdicts)
        assert state.interruption_active


class TestFaultPath:
    def test_fault_mid_motion_halts_and_blocks(self, mammobot, config):
        executive, state = fresh(mammobot, config)
        events = nominal_timeline(config)
        start = next(e for e in events if e.payload.get("action") == "motionStart")
        run_prefix(executive, state, events, start.timestamp)
        result = executive.handle_event(state, Event(start.timestamp + 20, "Sensor", "fault"))
        assert not state.arm_moving
        assert state.fault_active
        assert "halt-motion" in result.emitted
        assert any(e.kind == "fault" for e in state.log)

    def test_fault_clear_still_needs_resume(self, mammobot, config):
        executive, state = fresh(mammobot, config)
        executive.handle_event(state, Event(100, "Sensor", "fault"))
        executive.handle_event(state, Event(200, "System", "faultCleared"))
        assert not state.fault_active
        assert state.awaiting_resume
        result = executive.handle_event(
            state, Event(300, "Radiographer", "commandConfirm", {"action": "motionStart"})
        )
        assert any(v.kind == "refused" and v.requirement == "R14" for v in result.verdicts)


class TestRelease:
    def test_release_during_motion_refused(self, mammobot, config):
        executive, state = fresh(mammobot, config)
        events = nominal_timeline(config)
        start = next(e for e in events if e.payload.get("action") == "motionStart")
        run_prefix(executive, state, events, start.timestamp)
        assert state.arm_moving
        result = executive.handle_event(
            state, Event(start.timestamp + 5, "Radiographer", "commandConfirm",
                         {"action": "release"})
        )
        refused = [v for v in result.verdicts if v.kind == "refused"]
        assert refused and "motionComplete" in refused[0].detail
        assert not state.compliance_mode

    def test_release_after_abandon_takes_safe_path(self, mammobot, config):
        executive, state = fresh(mammobot, config)
        events = nominal_timeline(config)
        start = next(e for e in events if e.payload.get("action") == "motionStart")
        run_prefix(executive, state, events, start.timestamp)
        executive.handle_event(state, Event(start.timestamp + 10, "Patient", "abandonSession"))
        assert state.session_status == "abandoned"
        assert state.compliance_mode
        assert not state.arm_moving
        assert any(e.kind == "release" for e in state.log)

    def test_retake_bound_forces_abandon(self, mammobot, config):
        executive, state = fresh(mammobot, config)
        bound = config.max_retakes_per_view
        events = nominal_timeline(config, retakes={"CC": bound + 1})
        for event in events:
            executive.handle_event(state, event)
        assert state.session_status == "abandoned"
        assert state.compliance_mode
        assert state.retake_count["CC"] == bound + 1


class TestGrantsConsumeConfirmations:
    @pytest.mark.parametrize("marker,action", [
        ("start-motion", "motionStart"),
        ("fire-exposure", "exposure"),
        ("enter-compliance", "release"),
    ])
    def test_grant_consumes_its_ledger_entry(self, mammobot, config, marker, action):
        executive, state = fresh(mammobot, config)
        for event in nominal_timeline(config):
            if marker in executive.handle_event(state, event).emitted:
                assert state.ledger.received[action] == {}
                return
        pytest.fail(f"the nominal session never emitted {marker}")


def _first_request(executive, state, config, action):
    """Run the nominal session up to, not including, its first ``action``
    request, and return that request."""
    for event in nominal_timeline(config):
        if action == "exposure":
            requested = event.kind == "exposureRequest"
        else:
            requested = event.kind == "commandConfirm" and event.payload.get("action") == action
        if requested:
            return event
        executive.handle_event(state, event)
    raise AssertionError(f"the nominal session never requests {action}")


def _move_to(role):
    def move(executive, state, request):
        state.current_node = executive._role_nodes[role]
        return request
    return move


def _set(**slots):
    def assign(executive, state, request):
        for name, value in slots.items():
            setattr(state, name, value)
        return request
    return assign


def _unconfirm(action, source):
    def withdraw(executive, state, request):
        state.ledger.received[action].pop(source)
        return request
    return withdraw


def _just_stable(executive, state, request):
    state.posture_stable_since = request.timestamp - executive.config.stabilization_window_ms + 1
    return request


def _from_system(executive, state, request):
    # System is not a required ledger source, so the request confirms nothing
    return Event(request.timestamp, "System", request.kind, request.payload)


# request action -> failing condition -> how to break only that condition
# just before the request; every gate table entry and both stage checks have
# a row.  None marks a stop condition: a stopped session is refused as
# "stopped" before the gate is read, so handle_event cannot fail it alone.
_GATE_BREAKERS = {
    "exposure": {
        "postureValid": _set(posture_valid=False),
        "stabilizationElapsed": _just_stable,
        "armImmobility": _set(arm_moving=True),
        "patientAssentFresh": _unconfirm("exposure", "Patient"),
        "radiographerConfirmFresh": _unconfirm("exposure", "Radiographer"),
        "noFault": None,
        "noInterruption": None,
        "noRevalidationPending": _set(revalidation_required=True),
        "atCaptureStage": _move_to("motion"),
    },
    "motionStart": {
        "postureValid": _set(posture_valid=False),
        "noInterruption": None,
        "noFault": None,
        "noRevalidationPending": _set(revalidation_required=True),
        "ledgerMotionStart": _from_system,
        "atMotionStage": _move_to("capture"),
    },
    "release": {
        "motionComplete": _set(arm_moving=True),
        "noPendingRetake": _set(retake_result=True),
        "atReleaseStage": _move_to("capture"),
        "ledgerRelease": _from_system,
    },
}

# the refusal text the release gate has always written when all four fail
RELEASE_REFUSAL = "release: motionComplete,noPendingRetake,atReleaseStage,ledgerRelease"
RELEASE_CONDITIONS = tuple(RELEASE_REFUSAL.split(": ")[1].split(","))


class TestGateTables:
    """Each gate condition, failing alone, refuses through handle_event with
    its own name and the requirement CONDITION_CITES gives it."""

    @pytest.mark.parametrize("action,condition", [
        (action, name) for action, breakers in _GATE_BREAKERS.items()
        for name, breaker in breakers.items() if breaker is not None])
    def test_condition_failing_alone_is_refused_by_name(self, mammobot, config, action,
                                                        condition):
        executive, state = fresh(mammobot, config)
        request = _first_request(executive, state, config, action)
        request = _GATE_BREAKERS[action][condition](executive, state, request)
        result = executive.handle_event(state, request)
        assert [(v.kind, v.requirement) for v in result.verdicts] == [
            ("refused", dict(CONDITION_CITES)[condition])]
        refusals = [e.details for e in state.log if e.kind == "refusal"]
        assert refusals == [f"{action}: {condition}"]

    @pytest.mark.parametrize("action,condition", [
        (action, name) for action, breakers in _GATE_BREAKERS.items()
        for name, breaker in breakers.items() if breaker is None])
    def test_stop_condition_failing_alone(self, mammobot, config, action, condition):
        """The table names a stop condition alone on the staged state, and
        handle_event refuses the request as stopped, citing R14."""
        executive, state = fresh(mammobot, config)
        request = _first_request(executive, state, config, action)
        state.clock = request.timestamp
        if request.kind == "commandConfirm":  # the request confirms itself
            state.ledger.record(action, request.source, request.timestamp)
        setattr(state, "fault_active" if condition == "noFault" else "interruption_active",
                True)
        gate = EXPOSURE_GATE if action == "exposure" else MOTION_GATE
        assert gate_failures(gate, state, config) == [condition]
        result = executive.handle_event(state, request)
        assert [(v.kind, v.requirement, v.detail) for v in result.verdicts] == [
            ("refused", "R14", "stopped")]

    def test_every_gate_condition_has_a_breaker(self):
        assert list(_GATE_BREAKERS["exposure"]) == [*EXPOSURE_CONDITIONS, "atCaptureStage"]
        assert list(_GATE_BREAKERS["motionStart"]) == [*MOTION_CONDITIONS, "atMotionStage"]
        assert list(_GATE_BREAKERS["release"]) == list(RELEASE_CONDITIONS)

    def test_release_refusal_text_unchanged(self, mammobot, config):
        executive, state = fresh(mammobot, config)
        request = _first_request(executive, state, config, "exposure")
        state.arm_moving = True
        state.retake_result = True
        result = executive.handle_event(
            state, Event(request.timestamp, "System", "commandConfirm", {"action": "release"}))
        assert [v.requirement for v in result.verdicts] == ["R20"]  # ledgerRelease ranks first
        assert [e.details for e in state.log if e.kind == "refusal"] == [RELEASE_REFUSAL]

    def test_every_gate_condition_has_a_citation(self):
        """Refusals cite cite_for(failed) with no fallback, so each name a gate
        can produce needs its own CONDITION_CITES row."""
        cited = [name for name, _ in CONDITION_CITES]
        assert len(cited) == len(set(cited))
        produced = {*EXPOSURE_CONDITIONS, *MOTION_CONDITIONS, *RELEASE_CONDITIONS,
                    "atCaptureStage", "atMotionStage"}
        assert produced <= set(cited), produced - set(cited)
        assert all(cite_for([name]) is not None for name in produced)


class TestSessionLog:
    def test_every_auditable_event_logged_once(self, mammobot, config):
        executive, state = fresh(mammobot, config)
        events = nominal_timeline(config)
        for event in events:
            executive.handle_event(state, event)
        confirmations = [e for e in events if e.kind in ("commandConfirm", "assent")]
        logged = [e for e in state.log if e.kind == "confirmation"]
        assert len(logged) == len(confirmations)

    def test_timestamps_non_decreasing(self, mammobot, config):
        executive, state = fresh(mammobot, config)
        for event in nominal_timeline(config):
            executive.handle_event(state, event)
        times = [e.t for e in state.log]
        assert times == sorted(times)

    def test_jsonl_export_round_trips(self, mammobot, config):
        import json

        executive, state = fresh(mammobot, config)
        for event in nominal_timeline(config)[:6]:
            executive.handle_event(state, event)
        lines = state.log.to_jsonl().splitlines()
        assert len(lines) == len(state.log)
        parsed = [json.loads(line) for line in lines]
        assert all(list(p) == ["t", "kind", "actor", "details"] for p in parsed)

    def test_stage_transitions_carry_actor(self, mammobot, config):
        executive, state = fresh(mammobot, config)
        for event in nominal_timeline(config):
            executive.handle_event(state, event)
        transitions = [e for e in state.log if e.kind == "stageTransition"]
        assert transitions
        assert all(e.actor in ("A", "M", "SA") for e in transitions)


class TestDisabledExecutive:
    def test_stop_not_enforced(self, mammobot, config):
        executive, state = init_executive(mammobot, config, enabled=False)
        events = nominal_timeline(config)
        start = next(e for e in events if e.payload.get("action") == "motionStart")
        run_prefix(executive, state, events, start.timestamp)
        assert state.arm_moving
        executive.handle_event(state, Event(start.timestamp + 10, "Patient", "voiceStop"))
        assert state.arm_moving  # hazard: stop logged but not honoured
        assert any(e.kind == "interruption" for e in state.log)

    def test_exposure_fires_ungated(self, mammobot, config):
        executive, state = init_executive(mammobot, config, enabled=False)
        result = executive.handle_event(state, Event(5, "Radiographer", "exposureRequest"))
        assert "fire-exposure" in result.emitted

    def test_nominal_still_completes(self, mammobot, config):
        executive, state = init_executive(mammobot, config, enabled=False)
        for event in nominal_timeline(config):
            executive.handle_event(state, event)
        assert state.session_status == "complete"
        assert state.views_acquired == {"CC", "MLO-L", "MLO-R"}


def _behaviour_digest(mammobot, config) -> str:
    """sha256 over trace JSONL plus compact log JSON for the shipped scenarios
    in both modes and 1,000 random timelines in alternating modes.  Only bytes
    that do not depend on the hash seed are hashed: no snapshot reprs."""
    runs = [(Scenario.load(path).compiled_timeline(), enabled)
            for path in sorted(data_path("scenarios").glob("*.json"))
            for enabled in (True, False)]
    rng = random.Random(20261018)
    runs += [(_random_timeline(rng), i % 2 == 0) for i in range(1000)]
    digest = hashlib.sha256()
    for events, enabled in runs:
        trace = run_events(mammobot, config, events, enabled=enabled)
        digest.update(trace.to_jsonl().encode("utf-8"))
        for entry in trace.log:
            digest.update(json.dumps(entry.to_json_dict(), separators=(",", ":")).encode("utf-8"))
    return digest.hexdigest()


class TestBehaviourPinned:
    def test_traces_and_logs_pinned(self, mammobot, config):
        """Verdicts, markers, grant and refusal log text as produced before the
        executive's decisions were each written once; a refactor must keep them."""
        assert _behaviour_digest(mammobot, config) == (
            "a5e8b91e57a551599c708169a76ad3baf06fdacfcec3fb38be50de8272ccd8f0")
