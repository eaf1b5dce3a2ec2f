import json

import pytest

from hazgate.datafiles import data_path
from hazgate.executive import Event, ExecConfig
from hazgate.model import load_model
from hazgate.scenarios import Scenario, nominal_timeline
from hazgate.simulate import check_expectation, run_events, run_scenario

DESIGNATED = {
    "capture_commission.json": "R24",
    "arm_positioning_early.json": "R15",
    "uca28.json": "R24",
    "uca30.json": "R14",
}


@pytest.fixture(scope="module")
def mammobot():
    return load_model(data_path("mammobot.proc"))


@pytest.fixture(scope="module")
def config():
    return ExecConfig.load(data_path("exec_config.json"))


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
        lines = [
            json.dumps({
                "t": step.snapshot[0],
                "event": step.event.to_json_dict() if step.event is not None else None,
                "node": step.snapshot[1],
                "emitted": list(step.emitted),
                "verdicts": [{"kind": v.kind, "subject": v.subject,
                              "requirement": v.requirement, "detail": v.detail}
                             for v in step.verdicts],
            }, separators=(",", ":"))
            for step in trace.steps
        ]
        lines.append(json.dumps({"final": {"status": trace.final_status,
                                           "node": trace.final_node}}, separators=(",", ":")))
        assert trace.to_jsonl() == "\n".join(lines) + "\n"
