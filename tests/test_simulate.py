import json
import random
import re
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hazgate import reach, simulate
from hazgate.acceptance import _random_timeline
from hazgate.datafiles import data_path
from hazgate.executive import (
    EVENT_KINDS, Event, ExecConfig, SafetyExecutive, StepVerdict, init_executive,
)
from hazgate.scenarios import Scenario, nominal_timeline
from hazgate.session import SOURCES, LogEntry, log_jsonl
from hazgate.simulate import (
    COMPACT_JSON, Trace, TraceStep, check_expectation, play, run_events, run_scenario,
)

DESIGNATED = {
    "capture_commission.json": "R24",
    "arm_positioning_early.json": "R15",
    "uca28.json": "R24",
    "uca30.json": "R14",
}


class TestNominalScenario:
    def test_safe_completion_with_all_monitors_clean(self, mammobot, config):
        scenario = Scenario.load(data_path("scenarios", "nominal.json"))
        result = run_scenario(mammobot, config, scenario, executive_enabled=True)
        assert result.outcome == "SafeCompletion"
        assert not result.violated
        completed = [e.details.split()[1] for e in result.trace.log
                     if e.kind == "exposure" and e.details.startswith("complete ")]
        assert completed == ["view=CC", "view=MLO-L", "view=MLO-R"]
        ok, why = check_expectation(result)
        assert ok, why

    def test_replay_oracle_agrees_on_node_sequence(self, mammobot, config):
        """Hand-stepped graph walk for the nominal script vs the engine."""
        scenario = Scenario.load(data_path("scenarios", "nominal.json"))
        result = run_scenario(mammobot, config, scenario, executive_enabled=True)
        entered = [
            e.details.split()[1]
            for e in result.trace.log
            if e.kind == "stageTransition" and not e.details.endswith("(revalidation)")
        ]
        per_view = ["identify_stage", "determine_posture", "plan_trajectory",
                    "position_arms", "capture_xray"]
        expected = per_view * 3 + ["release_patient"]
        assert entered == expected


class TestHazardScenarios:
    @pytest.mark.parametrize("filename,requirement", sorted(DESIGNATED.items()))
    def test_unprotected_violates_mapped_requirement(self, mammobot, config,
                                                     filename, requirement):
        scenario = Scenario.load(data_path("scenarios", filename))
        result = run_scenario(mammobot, config, scenario, executive_enabled=False)
        verdict = result.verdict_for(requirement)
        assert verdict is not None and verdict.status == "Violated"
        assert verdict.witness is not None and verdict.explanation

    @pytest.mark.parametrize("filename", sorted(DESIGNATED))
    def test_protected_blocks_safely(self, mammobot, config, filename):
        scenario = Scenario.load(data_path("scenarios", filename))
        result = run_scenario(mammobot, config, scenario, executive_enabled=True)
        assert result.outcome == "BlockedSafely"
        assert not result.violated

    @pytest.mark.parametrize("filename", sorted(DESIGNATED))
    def test_expectations_in_both_modes(self, mammobot, config, filename):
        """Mutation check: a ViolationExpected scenario must not fire with
        the executive enabled."""
        scenario = Scenario.load(data_path("scenarios", filename))
        for enabled in (False, True):
            result = run_scenario(mammobot, config, scenario, executive_enabled=enabled)
            ok, why = check_expectation(result)
            assert ok, f"{filename} enabled={enabled}: {why}"


class TestTraceExport:
    def test_deterministic_bytes(self, mammobot, config):
        scenario = Scenario.load(data_path("scenarios", "uca28.json"))
        first = run_scenario(mammobot, config, scenario, executive_enabled=True)
        second = run_scenario(mammobot, config, scenario, executive_enabled=True)
        assert first.trace.to_jsonl() == second.trace.to_jsonl()

    def test_jsonl_has_final_line(self, mammobot, config):
        trace = run_events(mammobot, config, nominal_timeline(config), enabled=True)
        lines = trace.to_jsonl().strip().splitlines()
        assert '"final"' in lines[-1]
        assert len(lines) == len(trace.steps) + 1

    def test_trace_clocks_non_decreasing(self, mammobot, config):
        trace = run_events(mammobot, config, nominal_timeline(config), enabled=True)
        clocks = [s.snapshot[0] for s in trace.steps]
        assert clocks == sorted(clocks)

    def test_jsonl_matches_json_dumps_reference(self, mammobot, config):
        timeline = Scenario.load(data_path("scenarios", "uca28.json")).compiled_timeline()
        timeline.append(Event(timeline[-1].timestamp + 10, "Patient", "voiceStop"))
        trace = run_events(mammobot, config, timeline, enabled=True)
        assert trace.refusals
        assert trace.steps[-1].event is None  # the close-out step
        assert trace.to_jsonl() == _reference_trace_jsonl(trace)


class TestExecutiveReuse:
    """``run_events`` reuses one executive per (model, config, mode) object
    triple; a reused executive must serve each session as a fresh one would.
    Reuse across alternating modes is pinned by ``TestBehaviourPinned``."""

    def test_interleaved_configs_match_fresh_executives(self, mammobot, config):
        no_window = replace(config, stabilization_window_ms=0)
        timelines = [Scenario.load(path).compiled_timeline()
                     for path in sorted(data_path("scenarios").glob("*.json"))]
        outputs = {}
        for cfg in (config, no_window, config):
            for enabled in (True, False):
                for i, events in enumerate(timelines):
                    reused = run_events(mammobot, cfg, events, enabled=enabled)
                    fresh = play(SafetyExecutive(mammobot, cfg, enabled=enabled), events)[0]
                    assert reused.to_jsonl() == fresh.to_jsonl()
                    assert log_jsonl(reused.log) == log_jsonl(fresh.log)
                    outputs.setdefault((i, enabled), set()).add(reused.to_jsonl())
        # the two configs drive some session apart, so a kept executive
        # serving the wrong config would show
        assert any(len(texts) > 1 for texts in outputs.values())
        assert simulate._executive_for(mammobot, config, True) is \
            simulate._executive_for(mammobot, config, True)
        assert simulate._executive_for(mammobot, no_window, True) is not \
            simulate._executive_for(mammobot, config, True)

    def test_config_and_model_are_frozen(self, mammobot, config):
        for value, name in ((config, "stabilization_window_ms"), (config, "required_views"),
                            (config, "ledger_requirements"), (mammobot, "nodes"),
                            (mammobot, "initial")):
            with pytest.raises(FrozenInstanceError):
                setattr(value, name, getattr(value, name))
        with pytest.raises(TypeError):
            config.ledger_requirements["exposure"] = ("Radiographer",)
        built = ExecConfig(required_views=["CC"], ledger_requirements={"exposure": ["Patient"]})
        assert built.required_views == ("CC",)
        assert built.ledger_requirements["exposure"] == ("Patient",)
        assert isinstance(replace(mammobot, nodes=list(mammobot.nodes)).nodes, tuple)

    def test_other_executives_are_never_the_kept_ones(self, mammobot, config, monkeypatch):
        replayed = []
        replay = reach._replay

        def recording(model, cfg, events, executive, resume):
            replayed.append(executive)
            return replay(model, cfg, events, executive, resume)

        monkeypatch.setattr(reach, "_replay", recording)
        run_events(mammobot, config, [])
        result = reach.brute_force_reachability(mammobot, config, max_depth=3)
        assert result.cross_checked == len(replayed) > 0
        hooked = init_executive(mammobot, config)[0]
        kept = simulate._EXECUTIVES.values()
        assert not any(executive is k for executive in {*replayed, hooked} for k in kept)
        assert hooked is not init_executive(mammobot, config)[0]


class TestResume:
    """``play`` with ``resume`` continues the session an earlier call left
    without close-out, as reach's cross-check does witness by witness."""

    def test_resumed_session_matches_one_play(self, mammobot, config):
        rng = random.Random(20261020)
        runs = [(Scenario.load(path).compiled_timeline(), enabled)
                for path in sorted(data_path("scenarios").glob("*.json"))
                for enabled in (True, False)]
        runs += [(_random_timeline(rng), i % 2 == 0) for i in range(200)]
        executives = {enabled: SafetyExecutive(mammobot, config, enabled=enabled)
                      for enabled in (True, False)}
        for events, enabled in runs:
            executive = executives[enabled]
            whole = play(executive, events)[0]
            expected = (whole.to_jsonl(), log_jsonl(whole.log))
            for split in range(len(events) + 1):
                head = play(executive, events[:split], close_out=False)
                resumed = play(executive, events[split:], resume=head)[0]
                assert resumed is head[0]  # the head's trace, extended
                assert (resumed.to_jsonl(), log_jsonl(resumed.log)) == expected, split
                assert resumed.final_snapshot == whole.final_snapshot


# the record each --trace and --log line encodes, built as the exporters
# built them before they wrote lines from templates: the reference they match
def _trace_records(trace):
    for step in trace.steps:
        yield {
            "t": step.snapshot[0],
            "event": step.event.to_json_dict() if step.event is not None else None,
            "node": step.snapshot[1],
            "emitted": list(step.emitted),
            "verdicts": [{"kind": v.kind, "subject": v.subject,
                          "requirement": v.requirement, "detail": v.detail}
                         for v in step.verdicts],
        }
    yield {"final": {"status": trace.final_status, "node": trace.final_node}}


def _reference_trace_jsonl(trace):
    return "".join(COMPACT_JSON.encode(record) + "\n" for record in _trace_records(trace))


def _reference_log_jsonl(entries):
    return "".join(COMPACT_JSON.encode(entry.to_json_dict()) + "\n" for entry in entries)


def _assert_lines_load_back(text, records):
    """Each line parses back to its record.  Compared by repr, which keeps
    key order, tells bools from ints and lets a NaN equal itself."""
    assert text.endswith("\n") or not records
    lines = text.split("\n")[:-1]
    assert len(lines) == len(records)
    for line, record in zip(lines, records):
        assert repr(json.loads(line)) == repr(record)


# quotes, backslashes, control characters, non-ASCII and astral text and
# lone surrogates; a high surrogate right before a low one would read back
# as the one character the pair spells, so none is
_AWKWARD_TEXT = st.text(
    st.sampled_from('aZ "\\/\x00\x08\x1f\x7f\n\t\u00e9\u2028\u2603\ud800\udfff\U0001d11e'),
    max_size=6).filter(lambda text: not re.search("[\ud800-\udbff][\udc00-\udfff]", text))
_SCALARS = (st.none() | st.booleans() | st.integers() | st.sampled_from([2**64, -(2**80)])
            | st.floats() | _AWKWARD_TEXT)
_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_AWKWARD_TEXT, inner, max_size=3),
    max_leaves=4)
_ACTIONS = ("selfTest", "stageIdentified", "planReady", "motionStart", "adjustments",
            "release", "decide", "advance", "exposure", "resume")
# the executive rejects an action, guard, view or detail that is not text
# (test_executive.TestPayloadText), so those are awkward text; any other value
# is any JSON
_PAYLOADS = st.fixed_dictionaries({}, optional={
    "action": st.sampled_from(_ACTIONS) | _AWKWARD_TEXT,
    "guard": _AWKWARD_TEXT,
    "view": st.sampled_from(("CC", "MLO-L", "MLO-R")) | _AWKWARD_TEXT,
    "detail": _AWKWARD_TEXT,
    "valid": _JSON_VALUES,
    "extra": _JSON_VALUES,
})


@st.composite
def _timelines(draw):
    events, t = [], 0
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        t += draw(st.integers(min_value=0, max_value=3000))
        events.append(Event(t, draw(st.sampled_from(SOURCES)), draw(st.sampled_from(EVENT_KINDS)),
                            draw(_PAYLOADS)))
    if draw(st.booleans()):  # ends latched, so the executive closes out
        events.append(Event(t + 1, "Sensor", "fault", {"detail": draw(_AWKWARD_TEXT)}))
    return events


_VERDICTS = st.builds(StepVerdict, _AWKWARD_TEXT, _AWKWARD_TEXT,
                      st.none() | _AWKWARD_TEXT, _AWKWARD_TEXT)
_STEPS = st.builds(
    TraceStep,
    st.none() | st.builds(Event, st.integers(min_value=0), st.sampled_from(SOURCES),
                          st.sampled_from(EVENT_KINDS), _PAYLOADS),
    st.tuples(st.integers(min_value=0), _AWKWARD_TEXT),
    st.lists(_AWKWARD_TEXT, max_size=3).map(tuple),
    st.lists(_VERDICTS, max_size=3).map(tuple))
_LOG_ENTRIES = st.builds(LogEntry, st.integers(min_value=0), _AWKWARD_TEXT, _AWKWARD_TEXT,
                         _AWKWARD_TEXT)


class TestSerializerOracle:
    """``Trace.to_jsonl`` and ``log_jsonl`` write lines from templates; they
    must give the bytes of encoding each line's record with ``COMPACT_JSON``."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(events=_timelines(), enabled=st.booleans())
    def test_executive_runs(self, mammobot, config, events, enabled):
        trace = run_events(mammobot, config, events, enabled=enabled)
        assert trace.to_jsonl() == _reference_trace_jsonl(trace)
        _assert_lines_load_back(trace.to_jsonl(), list(_trace_records(trace)))
        assert log_jsonl(trace.log) == _reference_log_jsonl(trace.log)
        _assert_lines_load_back(log_jsonl(trace.log), [e.to_json_dict() for e in trace.log])

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(steps=st.lists(_STEPS, max_size=4), status=_AWKWARD_TEXT, node=_AWKWARD_TEXT,
           entries=st.lists(_LOG_ENTRIES, max_size=4))
    def test_hand_built_records(self, steps, status, node, entries):
        trace = Trace(steps=steps, final_status=status, final_node=node)
        assert trace.to_jsonl() == _reference_trace_jsonl(trace)
        _assert_lines_load_back(trace.to_jsonl(), list(_trace_records(trace)))
        assert log_jsonl(entries) == _reference_log_jsonl(entries)
        _assert_lines_load_back(log_jsonl(entries), [e.to_json_dict() for e in entries])
