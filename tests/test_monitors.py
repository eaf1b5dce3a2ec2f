import ast
import hashlib
import inspect
import random

import pytest

from hazgate import monitors, reach
from hazgate.acceptance import _random_timeline
from hazgate.datafiles import data_path
from hazgate.executive import ExecConfig, Event
from hazgate.monitors import (
    MONITORED_REQUIREMENTS,
    MONITORS,
    NOT_APPLICABLE,
    SATISFIED,
    VIOLATED,
    evaluate_monitors,
)
from hazgate.scenarios import Scenario, nominal_timeline
from hazgate.session import LOG_MARKS, LogEntry
from hazgate.simulate import TraceStep, run_events
from hazgate.stpa import load_requirements


def verdict_map(trace, config):
    return {v.requirement: v for v in evaluate_monitors(trace, config)}


def motion_start_time(events):
    return next(e for e in events if e.payload.get("action") == "motionStart").timestamp


class TestOnNominal:
    def test_nothing_violated_protected(self, mammobot, config):
        trace = run_events(mammobot, config, nominal_timeline(config), enabled=True)
        verdicts = verdict_map(trace, config)
        assert all(v.status != VIOLATED for v in verdicts.values())
        for requirement in ("R1", "R8", "R15", "R16", "R20", "R21", "R24", "R26"):
            assert verdicts[requirement].status == SATISFIED

    def test_nothing_violated_even_unprotected(self, mammobot, config):
        # the nominal script respects every window, so the bare process is clean
        trace = run_events(mammobot, config, nominal_timeline(config), enabled=False)
        verdicts = verdict_map(trace, config)
        assert all(v.status != VIOLATED for v in verdicts.values())

    def test_monitored_set(self):
        assert set(MONITORED_REQUIREMENTS) == {
            "R1", "R8", "R14", "R15", "R16", "R20", "R21", "R23", "R24", "R25", "R26",
        }

    def test_registry_is_the_requirements_monitor_bindings(self):
        bound = [spec.id for spec in load_requirements(data_path("requirements.json"))
                 if spec.monitor_binding != "informational"]
        assert bound == list(MONITORS)


class TestStopMonitor:
    def test_unhonoured_stop_flagged(self, mammobot, config):
        events = nominal_timeline(config)
        t = motion_start_time(events) + 50
        timeline = sorted(events + [Event(t, "Patient", "voiceStop")],
                          key=lambda e: e.timestamp)
        unprotected = run_events(mammobot, config, timeline, enabled=False)
        assert verdict_map(unprotected, config)["R14"].status == VIOLATED
        protected = run_events(mammobot, config, timeline, enabled=True)
        assert verdict_map(protected, config)["R14"].status == SATISFIED

    def test_not_applicable_without_stops(self, mammobot, config):
        trace = run_events(mammobot, config, nominal_timeline(config), enabled=True)
        assert verdict_map(trace, config)["R14"].status == NOT_APPLICABLE

    def test_violation_carries_witness(self, mammobot, config):
        events = nominal_timeline(config)
        t = motion_start_time(events) + 50
        timeline = sorted(events + [Event(t, "Patient", "voiceStop")],
                          key=lambda e: e.timestamp)
        verdict = verdict_map(run_events(mammobot, config, timeline, enabled=False), config)["R14"]
        assert verdict.witness is not None
        assert "stop" in verdict.explanation


class TestExposureMonitors:
    def test_ungated_exposure_flagged(self, mammobot, config):
        timeline = [
            Event(10, "Radiographer", "exposureRequest"),
            Event(400, "System", "exposureComplete", {"retake": False}),
        ]
        trace = run_events(mammobot, config, timeline, enabled=False)
        verdicts = verdict_map(trace, config)
        assert verdicts["R24"].status == VIOLATED
        assert "postureValid" in verdicts["R24"].explanation
        assert verdicts["R16"].status == VIOLATED
        assert verdicts["R20"].status == VIOLATED

    def test_orphan_completion_counts_as_firing_when_unprotected(self, mammobot, config):
        timeline = [Event(500, "System", "exposureComplete", {"retake": False})]
        trace = run_events(mammobot, config, timeline, enabled=False)
        assert verdict_map(trace, config)["R24"].status == VIOLATED

    def test_orphan_completion_ignored_when_protected(self, mammobot, config):
        timeline = [Event(500, "System", "exposureComplete", {"retake": False})]
        trace = run_events(mammobot, config, timeline, enabled=True)
        assert verdict_map(trace, config)["R24"].status == NOT_APPLICABLE


class TestWindowMonitor:
    def test_plan_inside_window_flagged(self, mammobot, config):
        events = nominal_timeline(config)
        plan = next(e for e in events if e.payload.get("action") == "planReady")
        posture = next(e for e in events if e.kind == "postureUpdate")
        shift = plan.timestamp - posture.timestamp - 500  # land 500 ms after posture
        timeline = [
            Event(e.timestamp - shift if e is plan else e.timestamp, e.source, e.kind, e.payload)
            for e in events
        ]
        timeline.sort(key=lambda e: e.timestamp)
        unprotected = run_events(mammobot, config, timeline, enabled=False)
        assert verdict_map(unprotected, config)["R21"].status == VIOLATED
        protected = run_events(mammobot, config, timeline, enabled=True)
        assert verdict_map(protected, config)["R21"].status != VIOLATED


class TestRevalidationMonitor:
    def test_movement_then_motion_without_revalidation(self, mammobot, config):
        events = nominal_timeline(config)
        t = motion_start_time(events) - 100
        timeline = sorted(events + [Event(t, "Sensor", "movementDetected")],
                          key=lambda e: e.timestamp)
        unprotected = run_events(mammobot, config, timeline, enabled=False)
        verdict = verdict_map(unprotected, config)["R23"]
        assert verdict.status == VIOLATED
        assert verdict.explanation.startswith("motion at ")

    def test_protected_run_revalidates(self, mammobot, config):
        events = nominal_timeline(config)
        t = motion_start_time(events) - 100
        timeline = sorted(events + [Event(t, "Sensor", "movementDetected")],
                          key=lambda e: e.timestamp)
        protected = run_events(mammobot, config, timeline, enabled=True)
        verdicts = verdict_map(protected, config)
        assert verdicts["R23"].status == SATISFIED


class TestSafePostureMonitor:
    def test_abandon_without_compliance_flagged(self, mammobot, config):
        events = nominal_timeline(config)
        t = motion_start_time(events) + 10
        timeline = sorted(events + [Event(t, "Patient", "abandonSession")],
                          key=lambda e: e.timestamp)
        unprotected = run_events(mammobot, config, timeline, enabled=False)
        assert verdict_map(unprotected, config)["R25"].status == VIOLATED
        protected = run_events(mammobot, config, timeline, enabled=True)
        assert verdict_map(protected, config)["R25"].status == SATISFIED

    def test_emergency_release_not_flagged_by_r20(self, mammobot, config):
        events = nominal_timeline(config)
        t = motion_start_time(events) + 10
        timeline = sorted(events + [Event(t, "Patient", "abandonSession")],
                          key=lambda e: e.timestamp)
        protected = run_events(mammobot, config, timeline, enabled=True)
        assert verdict_map(protected, config)["R20"].status != VIOLATED


class TestEmergencyRelease:
    """R20 skips a release only while a fault, abandonment or stop is pending."""

    def test_fault_cleared_then_resumed_release_is_checked(self, mammobot, config):
        events = [
            Event(100, "Sensor", "fault"),
            Event(200, "System", "faultCleared"),
            Event(300, "Radiographer", "commandConfirm", {"action": "resume"}),
            Event(300, "Patient", "commandConfirm", {"action": "resume"}),
            Event(400, "Radiographer", "resumeRequest"),
        ]
        trace = run_events(mammobot, config, events, enabled=True)
        assert any(e.kind == "resume" for e in trace.log)
        # hand-built release at t=500 with no Radiographer confirmation
        release = Event(500, "Patient", "commandConfirm", {"action": "release"})
        snapshot = (500,) + trace.steps[-1].snapshot[1:]
        trace.steps.append(TraceStep(release, snapshot, ("enter-compliance",), ()))
        trace.log.append(LogEntry(500, "release", "System", "compliant safe posture"))
        assert verdict_map(trace, config)["R20"].status == VIOLATED


class TestLogMonitors:
    def test_tampered_log_fails_r8(self, mammobot, config):
        trace = run_events(mammobot, config, nominal_timeline(config), enabled=True)
        trace.log = [e for e in trace.log if e.kind != "confirmation"][:]
        assert verdict_map(trace, config)["R8"].status == VIOLATED

    def test_r8_mismatch_lists_families_sorted(self, mammobot, config):
        trace = run_events(mammobot, config, nominal_timeline(config), enabled=True)
        t = trace.log[-1].t
        trace.log.append(LogEntry(t, "postureChange", "Sensor", "posture valid"))
        trace.log.append(LogEntry(t, "confirmation", "Radiographer", "release"))
        verdict = verdict_map(trace, config)["R8"]
        assert verdict.status == VIOLATED
        assert "{'confirmation': " in verdict.explanation
        assert verdict.explanation.index("'confirmation'") < verdict.explanation.index(
            "'postureChange'")

    def test_transition_without_actor_fails_r26(self, mammobot, config):
        trace = run_events(mammobot, config, nominal_timeline(config), enabled=True)
        trace.log.append(LogEntry(trace.log[-1].t, "stageTransition", "", "enter nowhere"))
        verdict = verdict_map(trace, config)["R26"]
        assert verdict.status == VIOLATED
        assert verdict.witness == len(trace.log) - 1 == 56  # the log index, as R21, R23, R25


class TestDeterminism:
    def test_identical_runs_identical_trace_bytes(self, mammobot, config):
        events = nominal_timeline(config)
        a = run_events(mammobot, config, events, enabled=True).to_jsonl()
        b = run_events(mammobot, config, events, enabled=True).to_jsonl()
        assert a == b


class TestSharedFacts:
    """The bank shares per-trace facts; each monitor alone must agree with it."""

    SHIPPED = ("nominal", "uca28", "uca30", "capture_commission", "arm_positioning_early")

    def _assert_bank_equals_alone(self, trace, config):
        alone = [MONITORS[r](trace, config) for r in MONITORED_REQUIREMENTS]
        assert evaluate_monitors(trace, config) == alone

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("name", SHIPPED)
    def test_shipped_scenarios(self, mammobot, config, name, enabled):
        timeline = Scenario.load(data_path("scenarios", f"{name}.json")).compiled_timeline()
        self._assert_bank_equals_alone(run_events(mammobot, config, timeline, enabled), config)

    def test_random_timelines(self, mammobot, config):
        rng = random.Random(20261018)
        for i in range(200):
            trace = run_events(mammobot, config, _random_timeline(rng), enabled=i % 2 == 0)
            self._assert_bank_equals_alone(trace, config)


class TestPartialLedger:
    def test_ledger_naming_only_some_actions(self, mammobot):
        """An action the ledger does not name requires no source; the
        interlock still needs the Radiographer's exposure confirmation."""
        config = ExecConfig(ledger_requirements={"exposure": ["Patient"]})
        trace = run_events(mammobot, config, nominal_timeline(config), enabled=False)
        verdicts = verdict_map(trace, config)
        assert verdicts["R20"].status == SATISFIED
        assert verdicts["R24"].status == VIOLATED
        assert "radiographerConfirmFresh" in verdicts["R24"].explanation


def _stops_on_resume(entry, witness):
    return entry == "resume"


class TestSince:
    """``monitors._since``: past-time "not stop S start" with its witness."""

    def test_new_start_replaces_the_witness(self):
        assert monitors._since(["a", "b", "x"], lambda e: e in ("a", "b"), _stops_on_resume) == [
            None, "a", "b", "b"]

    def test_stop_sees_the_witness_it_would_end(self):
        asked = []

        def stop(entry, witness):
            asked.append((entry, witness))
            return entry == "resume" and witness != "abandon"

        entries = ["x", "abandon", "resume", "fault", "x", "resume", "resume"]
        assert monitors._since(entries, lambda e: e in ("abandon", "fault"), stop) == [
            None, None, "abandon", "abandon", "fault", "fault", None, None]
        # asked only while a witness is held, and never for a start
        assert asked == [("resume", "abandon"), ("x", "fault"), ("resume", "fault")]

    def test_a_none_stop_never_holds(self):
        assert monitors._since(["a", "resume", "x"], lambda e: e == "a", None) == [
            None, "a", "a", "a"]

    @pytest.mark.parametrize("entries,last", [
        ([], None), (["fault"], "fault"), (["fault", "resume"], None),
        (["fault", "resume", "fault", "x"], "fault"),
    ], ids=["empty", "started", "stopped", "restarted"])
    def test_last_element_is_the_state_after_the_sequence(self, entries, last):
        out = monitors._since(entries, lambda e: e == "fault", _stops_on_resume)
        assert len(out) == len(entries) + 1
        assert out[-1] == last


def _log(*entries):
    """Log entries from (t, kind) or (t, kind, mark)."""
    return [LogEntry(t, kind, "System", "", *mark) for t, kind, *mark in entries]


class TestPastTimeEdges:
    """``_emergency_context`` and R25 on hand-built logs, including orderings
    that no generated input reaches."""

    @pytest.mark.parametrize("entries,t,expected", [
        ([(100, "fault"), (100, "resume")], 100, True),  # a resume must come strictly later
        ([(100, "interruption"), (200, "resume")], 200, False),
        ([(100, "fault"), (200, "resume")], 150, True),  # entries after t are not read
        ([(50, "abandon"), (100, "fault"), (200, "resume")], 300, True),
        ([(100, "fault"), (300, "tick"), (200, "resume")], 250, True),  # reads up to t only
    ], ids=["same-ms-resume", "resumed", "resume-after-t", "abandoned-then-resumed",
            "out-of-order-log"])
    def test_emergency_context(self, mammobot, config, entries, t, expected):
        trace = run_events(mammobot, config, [], enabled=True)
        trace.log = _log(*entries)
        assert monitors._emergency_context(trace, t) is expected

    def test_resume_does_not_end_an_abandonment(self, mammobot, config):
        trace = run_events(mammobot, config, nominal_timeline(config), enabled=True)
        trace.log = _log((100, "abandon"), (200, "resume"), (300, "motion", "motion"))
        verdict = verdict_map(trace, config)["R25"]
        assert verdict.status == VIOLATED
        assert verdict.explanation == (
            "motion at 300 after abandon at 100 without safe-posture transition")


class TestVerdictsPinned:
    def test_verdicts_pinned(self, mammobot, config):
        """Every verdict's status, witness and explanation over 1,000 random
        timelines and the shipped scenarios, each in both modes, as the bank
        gave them before its past-time checks shared ``_since``."""
        rng = random.Random(1)
        timelines = [_random_timeline(rng) for _ in range(1000)]
        timelines += [Scenario.load(data_path("scenarios", f"{name}.json")).compiled_timeline()
                      for name in TestSharedFacts.SHIPPED]
        digest = hashlib.sha256()
        for timeline in timelines:
            for enabled in (True, False):
                trace = run_events(mammobot, config, timeline, enabled)
                for v in evaluate_monitors(trace, config):
                    digest.update(repr((v.status, v.witness, v.explanation)).encode())
        assert digest.hexdigest() == (
            "17aa728f42f9659b4cbdc67c8dfbfb3d7e8ab21f9139a40fe0f3ef27324caeeb")


def _constant_strings(node):
    """The strings a constant or a tuple, list or set of constants spells."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return set().union(*(_constant_strings(e) for e in node.elts))
    return set()


class TestNoLogProse:
    """Monitors and reach learn what a log entry records from its mark: its
    details are read only into an explanation, and each mark compared is
    one the executive writes."""

    @pytest.mark.parametrize("module", [monitors, reach], ids=lambda m: m.__name__)
    def test_details_unread_and_marks_closed(self, module):
        tree = ast.parse(inspect.getsource(module))
        in_f_string = {id(n) for f in ast.walk(tree) if isinstance(f, ast.JoinedStr)
                       for n in ast.walk(f)}
        assert [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute)
                and n.attr == "details" and id(n) not in in_f_string] == []
        compared = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            if any(isinstance(o, ast.Attribute) and o.attr == "mark" for o in operands):
                others = [o for o in operands if not (isinstance(o, ast.Attribute)
                                                      and o.attr == "mark")]
                assert all(_constant_strings(o) for o in others), node.lineno
                compared |= set().union(*(_constant_strings(o) for o in others))
        assert compared, "no mark compared"
        assert compared <= set(LOG_MARKS), compared - set(LOG_MARKS)
