import ast
import hashlib
import inspect
import random

import pytest

from hazgate import campaign, monitors, reach
from hazgate.acceptance import _random_timeline, stop_sweep
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
from hazgate.session import LOG_MARKS, SNAP_ARM_MOVING, SNAP_CLOCK, LogEntry
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

    @pytest.mark.parametrize("trigger", [
        Event(5000, "System", "fault"),
        Event(5000, "Patient", "voiceStop"),
        Event(5000, "Patient", "abandonSession"),
        Event(5001, "System", "fault"),
    ], ids=lambda e: f"{e.kind}-{e.timestamp}")
    def test_emergency_logged_after_the_release_does_not_exempt_it(self, mammobot, config,
                                                                   trigger):
        # unprotected, a release without the Radiographer is granted; an
        # emergency logged after it, even in the same millisecond, did not
        # mandate it
        release = Event(5000, "Patient", "commandConfirm", {"action": "release"})
        trace = run_events(mammobot, config, [release, trigger], enabled=False)
        assert [e.mark for e in trace.log].index("release") < len(trace.log) - 1
        verdict = verdict_map(trace, config)["R20"]
        assert (verdict.status, verdict.explanation) == (
            VIOLATED, "release at 5000 without fresh Radiographer")

    def test_release_reads_its_context_at_its_logged_entry(self, mammobot, config):
        """R20 pairs each release grant with a @release entry: under a pending
        fault the release the executive logs is exempt, and the same grant
        with no @release entry in its log is checked."""
        events = [Event(100, "Sensor", "fault"),
                  Event(200, "Patient", "commandConfirm", {"action": "release"})]
        trace = run_events(mammobot, config, events, enabled=True)
        assert verdict_map(trace, config)["R20"].status == NOT_APPLICABLE
        trace.log = [e for e in trace.log if e.mark != "release"]
        verdict = verdict_map(trace, config)["R20"]
        assert (verdict.status, verdict.explanation) == (
            VIOLATED, "release at 200 without fresh Radiographer")

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 5: any resume ends a fault, even one before the fault "
        "was cleared, so a safe-path release after an uncleared fault is checked"))
    @pytest.mark.parametrize("seed,draw", [(1, 585), (7, 4218), (48, 115)])
    def test_release_after_an_uncleared_fault_is_exempt(self, mammobot, config, seed, draw):
        rng = random.Random(seed)
        for _ in range(draw + 1):
            timeline = _random_timeline(rng)
        verdict = verdict_map(run_events(mammobot, config, timeline, enabled=True), config)["R20"]
        assert verdict.status != VIOLATED, verdict.explanation


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

    @pytest.mark.parametrize("enabled", [True, False])
    def test_campaign_scenarios(self, mammobot, config, monkeypatch, enabled):
        """Campaign scenarios feed the ledger to motion, exposure and release
        grants, and unprotected ones fire orphan exposures; protected random
        timelines never grant a motion or an exposure."""
        granted = []

        def bank(trace, config, requirements):
            self._assert_bank_equals_alone(trace, config)
            granted.extend(kind if kind != "exposure" or "fire-exposure" in trace.steps[i].emitted
                           else "orphan" for i, _, kind in monitors._step_pass(trace, config).grants)
            return evaluate_monitors(trace, config, requirements)

        monkeypatch.setattr(campaign, "evaluate_monitors", bank)
        report = campaign.run_random_campaign(mammobot, config, 200, 7, executive_enabled=enabled)
        assert sum(report.outcomes.values()) == 200
        assert {"motion", "exposure", "release"} <= set(granted)
        assert ("orphan" in granted) is not enabled

    def test_stop_sweep(self, mammobot, config):
        """Criterion 6's stops, each followed by a release in emergency
        context, which R20 leaves to R25."""
        sweep = stop_sweep(mammobot, config)
        assert len(sweep) == 18
        exempt = 0
        for timeline in sweep.values():
            trace = run_events(mammobot, config, timeline, enabled=True)
            self._assert_bank_equals_alone(trace, config)
            reads = monitors._since(trace.log).reads
            exempt += sum(abandoned is not None or emergency is not None for (_, _, abandoned),
                          (_, _, emergency) in zip(reads["abandoned"], reads["emergency"]))
        assert exempt == 18

    def test_r24_alone_never_reads_the_log(self, mammobot, config):
        """reach's cross-check calls R24 alone: it runs the step pass only."""
        class Unreadable(list):
            def __iter__(self):
                raise AssertionError("the log was read")

        trace = run_events(mammobot, config, nominal_timeline(config), enabled=True)
        expected = monitors.monitor_r24(trace, config)
        trace.log = Unreadable(trace.log)
        assert monitors.monitor_r24(trace, config) == expected


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


def _entries(*kinds):
    """Log entries of the given kinds, one millisecond apart."""
    return [LogEntry(t, kind, "System", "") for t, kind in enumerate(kinds)]


def _witnesses(kinds, formula):
    """The formula's witness kind before each entry and after the last: the
    state ``_since`` holds at each point of the sequence."""
    log = _entries(*kinds)
    out = []
    for k in range(len(log) + 1):
        witness = monitors._since(log[:k], formulas={"f": formula}).final["f"]
        out.append(None if witness is None else witness.kind)
    return out


_STOPS_ON_RESUME = {"resume": None}


class TestSince:
    """``monitors._since``: past-time "not stop S start" with its witness."""

    def test_new_start_replaces_the_witness(self):
        formula = monitors.Formula(frozenset({"a", "b"}), _STOPS_ON_RESUME)
        assert _witnesses(["a", "b", "x"], formula) == [None, "a", "b", "b"]

    def test_stop_sees_the_witness_it_would_end(self):
        asked = []

        def stop(entry, witness):
            asked.append((entry.kind, witness.kind))
            return entry.kind == "resume" and witness.kind != "abandon"

        kinds = ["x", "abandon", "resume", "fault", "x", "resume", "resume"]
        formula = monitors.Formula(frozenset({"abandon", "fault"}), {"resume": stop, "x": stop})
        assert _witnesses(kinds, formula) == [
            None, None, "abandon", "abandon", "fault", "fault", None, None]
        asked.clear()
        monitors._since(_entries(*kinds), formulas={"f": formula})
        # asked only while a witness is held, and never for a start
        assert asked == [("resume", "abandon"), ("x", "fault"), ("resume", "fault")]

    def test_a_none_stop_never_holds(self):
        formula = monitors.Formula(frozenset({"a"}), {})
        assert _witnesses(["a", "resume", "x"], formula) == [None, "a", "a", "a"]

    @pytest.mark.parametrize("kinds,last", [
        ([], None), (["fault"], "fault"), (["fault", "resume"], None),
        (["fault", "resume", "fault", "x"], "fault"),
    ], ids=["empty", "started", "stopped", "restarted"])
    def test_last_element_is_the_state_after_the_sequence(self, kinds, last):
        formula = monitors.Formula(frozenset({"fault"}), _STOPS_ON_RESUME)
        final = monitors._since(_entries(*kinds), formulas={"f": formula}).final["f"]
        assert (None if final is None else final.kind) == last

    def test_a_read_sees_the_witness_before_its_entry(self):
        formula = monitors.Formula(frozenset({"@motion", "fault"}), _STOPS_ON_RESUME,
                                   frozenset({"motion"}))
        log = [LogEntry(0, "fault", "System", ""), LogEntry(1, "motion", "System", "", "motion"),
               LogEntry(2, "motion", "System", "", "motion")]
        reads = monitors._since(log, formulas={"f": formula}).reads["f"]
        assert [(i, witness.kind) for i, _, witness in reads] == [(1, "fault"), (2, "motion")]


def _log(*entries):
    """Log entries from (t, kind) or (t, kind, mark)."""
    return [LogEntry(t, kind, "System", "", *mark) for t, kind, *mark in entries]


class TestPastTimeEdges:
    """R20's emergency context and R25 on hand-built logs, including
    orderings that no generated input reaches."""

    @pytest.mark.parametrize("entries,t,expected", [
        # a resume must come strictly later
        ([(100, "fault"), (100, "resume"), (100, "release", "release")], 100, True),
        ([(100, "interruption"), (200, "resume"), (200, "release", "release")], 200, False),
        # entries after the release's are not read
        ([(100, "fault"), (150, "release", "release"), (200, "resume")], 150, True),
        ([(50, "abandon"), (100, "fault"), (200, "resume"), (300, "release", "release")],
         300, True),
        # read at the release's own entry: a same-ms fault after it is not read
        ([(100, "release", "release"), (100, "fault")], 100, False),
    ], ids=["same-ms-resume", "resumed", "resume-after-t", "abandoned-then-resumed",
            "fault-after-release"])
    def test_emergency_context(self, mammobot, config, entries, t, expected):
        """One release granted at t with no confirmation: R20 leaves it to
        R25 in emergency context and finds it unconfirmed otherwise."""
        trace = run_events(mammobot, config, [], enabled=True)
        snapshot = list(trace.final_snapshot)
        snapshot[SNAP_CLOCK] = t
        release = Event(t, "Patient", "commandConfirm", {"action": "release"})
        trace.steps = [TraceStep(release, tuple(snapshot), ("enter-compliance",), ())]
        trace.log = _log(*entries)
        status = verdict_map(trace, config)["R20"].status
        assert status == (NOT_APPLICABLE if expected else VIOLATED)

    @pytest.mark.parametrize("resume_first,expected", [
        (True, (VIOLATED, "motion at 6000 after stop at 5000 before resume")),
        (False, (SATISFIED, "")),
    ], ids=["resume-logged-before-the-stop", "resume-logged-after-the-stop"])
    def test_stop_pairs_with_the_resume_logged_after_it(self, mammobot, config,
                                                        resume_first, expected):
        # a stop at 4000, a resume at 5000 and a second stop at 5000, then
        # motion at 6000; a resume ends only the stops logged before it
        trace = run_events(mammobot, config, [], enabled=True)

        def step(t, source, kind, moving=False):
            snapshot = list(trace.final_snapshot)
            snapshot[SNAP_CLOCK], snapshot[SNAP_ARM_MOVING] = t, moving
            return TraceStep(Event(t, source, kind), tuple(snapshot), (), ())

        stop, resume = step(5000, "Patient", "voiceStop"), step(5000, "System", "resumeRequest")
        trace.steps = [step(4000, "Patient", "voiceStop"),
                       *((resume, stop) if resume_first else (stop, resume)),
                       step(6000, "System", "tick", moving=True)]
        trace.log = _log((4000, "interruption"), *(
            [(5000, "resume"), (5000, "interruption")] if resume_first
            else [(5000, "interruption"), (5000, "resume")]))
        verdict = verdict_map(trace, config)["R14"]
        assert (verdict.status, verdict.explanation) == expected

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


def _formula_marks(formulas):
    """The marks the past-time formulas start, stop or are read on."""
    named = set()
    for formula in formulas.values():
        atoms = formula.start | formula.stop.keys()
        named |= formula.read | {atom[1:] for atom in atoms if atom.startswith("@")}
    return named


class TestNoLogProse:
    """Monitors and reach learn what a log entry records from its mark: its
    details are read only into an explanation, and each mark compared, or
    named by a past-time formula, is one the executive writes."""

    @pytest.mark.parametrize("module", [monitors, reach], ids=lambda m: m.__name__)
    def test_details_unread_and_marks_closed(self, module):
        tree = ast.parse(inspect.getsource(module))
        in_f_string = {id(n) for f in ast.walk(tree) if isinstance(f, ast.JoinedStr)
                       for n in ast.walk(f)}
        assert [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute)
                and n.attr == "details" and id(n) not in in_f_string] == []
        compared = _formula_marks(getattr(module, "FORMULAS", {}))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            if any(isinstance(o, ast.Attribute) and o.attr == "mark" for o in operands):
                others = [o for o in operands if not (isinstance(o, ast.Attribute)
                                                      and o.attr == "mark")]
                assert all(_constant_strings(o) for o in others), node.lineno
                compared |= set().union(*(_constant_strings(o) for o in others))
        assert compared, "no mark compared or named"
        assert compared <= set(LOG_MARKS), compared - set(LOG_MARKS)

    def test_formula_marks_closed(self):
        """Each mark a past-time formula starts, stops or is read on is one
        the executive writes."""
        named = _formula_marks(monitors.FORMULAS)
        assert named and named <= set(LOG_MARKS), named - set(LOG_MARKS)
