from dataclasses import replace

import pytest

from hazgate.datafiles import data_path
from hazgate.executive import ExecConfig, ExecState, SafetyExecutive
from hazgate.model import load_model
from hazgate.reach import (
    DEFAULT_ALPHABET,
    abstract_key,
    brute_force_reachability,
    stimuli_for,
)


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


class TestAbstractKey:
    def test_ledger_bits_follow_each_states_own_ledger(self, mammobot, config):
        # the key ends with one bit per (action, source) the state's ledger
        # requires, actions in sorted order
        for ledger in (config.ledger_requirements,
                       {"resume": ("Patient",), "exposure": ("Radiographer", "Patient")}):
            executive = SafetyExecutive(mammobot, replace(config, ledger_requirements=ledger))
            state = executive.init_state()
            state.ledger.record("exposure", "Radiographer", 0)
            expected = tuple(action == "exposure" and source == "Radiographer"
                             for action in sorted(ledger) for source in ledger[action])
            assert abstract_key(state, config)[-1] == expected
            assert abstract_key(state.branch(), config)[-1] == expected


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

    def test_full_search_at_depth_6(self, mammobot, config):
        result = brute_force_reachability(
            mammobot, config, max_depth=6, executive_enabled=False, stop_at_first=False
        )
        assert result.unsafe_reachable
        assert result.complete
        assert result.cross_check_disagreements == []
        assert (result.states_explored, result.transitions, result.cross_checked) == (
            10650, 63360, 10649)

    def test_counterexample_replays_to_violation(self, mammobot, config):
        from hazgate.monitors import monitor_r24
        from hazgate.reach import REACH_STALENESS_MS, _replay

        result = brute_force_reachability(
            mammobot, config, max_depth=6, executive_enabled=False
        )
        reach_config = replace(config, confirmation_staleness_ms=REACH_STALENESS_MS)
        trace, _ = _replay(mammobot, reach_config, result.counterexample,
                           SafetyExecutive(mammobot, reach_config, enabled=False))
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

    def test_cross_check_catches_a_branch_sharing_its_ledger(self, mammobot, config,
                                                              monkeypatch):
        # the replays share nothing with the search, so a faulty branch copy
        # shows up as disagreements rather than being repeated by the replay
        branch = ExecState.branch

        def sharing_branch(state):
            dup = branch(state)
            dup.ledger = state.ledger
            return dup

        monkeypatch.setattr(ExecState, "branch", sharing_branch)
        result = brute_force_reachability(
            mammobot, config, max_depth=8, executive_enabled=True
        )
        assert len(result.cross_check_disagreements) == 585
        assert all(d.startswith("state mismatch") for d in result.cross_check_disagreements)

    def test_state_budget_marks_incomplete(self, mammobot, config):
        result = brute_force_reachability(
            mammobot, config, max_depth=8, executive_enabled=True,
            state_budget=50, cross_check=False,
        )
        assert not result.complete
        assert result.states_explored <= 51
