import pytest

from hazgate.datafiles import data_path
from hazgate.executive import ExecConfig
from hazgate.model import load_model
from hazgate.reach import DEFAULT_ALPHABET, brute_force_reachability, stimuli_for


@pytest.fixture(scope="module")
def mammobot():
    return load_model(data_path("mammobot.proc"))


@pytest.fixture(scope="module")
def config():
    return ExecConfig.load(data_path("exec_config.json"))


class TestAlphabet:
    def test_eight_event_kinds(self):
        assert len(DEFAULT_ALPHABET) == 8

    def test_stimuli_expand_confirm_payloads(self):
        stimuli = stimuli_for(DEFAULT_ALPHABET)
        confirm = [payload for kind, payload in stimuli if kind == "commandConfirm"]
        assert len(confirm) == 8
        assert len(stimuli) == 15


class TestDepthZero:
    def test_only_initial_state(self, mammobot, config):
        result = brute_force_reachability(mammobot, config, max_depth=0)
        assert not result.unsafe_reachable
        assert result.states_explored == 1
        assert result.transitions == 0

    def test_negative_depth_rejected(self, mammobot, config):
        with pytest.raises(ValueError, match="depth"):
            brute_force_reachability(mammobot, config, max_depth=-1)


class TestUnprotected:
    def test_unsafe_reachable_with_counterexample(self, mammobot, config):
        result = brute_force_reachability(
            mammobot, config, max_depth=12, executive_enabled=False
        )
        assert result.unsafe_reachable
        assert result.counterexample
        assert "failed conditions" in result.unsafe_detail
        assert result.cross_check_disagreements == []

    def test_unsafe_detail_names_failed_conditions_in_interlock_order(self, mammobot, config):
        result = brute_force_reachability(
            mammobot, config, max_depth=1, executive_enabled=False, cross_check=False
        )
        assert [e.kind for e in result.counterexample] == ["exposureRequest"]
        assert result.unsafe_detail == (
            "exposure fired at t=0 with failed conditions: postureValid,"
            "stabilizationElapsed,patientAssentFresh,radiographerConfirmFresh"
        )

    def test_counterexample_replays_to_violation(self, mammobot, config):
        from hazgate.monitors import monitor_r24
        from hazgate.reach import REACH_STALENESS_MS, _replay
        from dataclasses import replace

        result = brute_force_reachability(
            mammobot, config, max_depth=6, executive_enabled=False
        )
        reach_config = replace(config, confirmation_staleness_ms=REACH_STALENESS_MS)
        trace, _ = _replay(mammobot, reach_config, result.counterexample, enabled=False)
        assert monitor_r24(trace, reach_config).status == "Violated"


class TestProtected:
    def test_unsafe_unreachable_at_depth_8(self, mammobot, config):
        result = brute_force_reachability(
            mammobot, config, max_depth=8, executive_enabled=True
        )
        assert not result.unsafe_reachable
        assert result.complete
        assert result.cross_checked == result.states_explored - 1
        assert result.cross_check_disagreements == []
        assert (result.states_explored, result.transitions, result.cross_checked) == (
            4383, 46245, 4382)

    def test_state_budget_marks_incomplete(self, mammobot, config):
        result = brute_force_reachability(
            mammobot, config, max_depth=8, executive_enabled=True,
            state_budget=50, cross_check=False,
        )
        assert not result.complete
        assert result.states_explored <= 51
