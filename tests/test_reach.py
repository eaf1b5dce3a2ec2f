import ast
import gc
import hashlib
import json
import struct
import tracemalloc
from dataclasses import replace

import pytest

from hazgate import reach
from hazgate.executive import EVENT_KINDS, SafetyExecutive
from hazgate.monitors import VIOLATED, MonitorVerdict
from hazgate.reach import (
    DEFAULT_ALPHABET,
    abstract_key,
    brute_force_reachability,
    stimuli_for,
)
from hazgate.session import STATUS_ABANDONED, ExecState, log_jsonl, stabilization_elapsed
from hazgate.simulate import play

# ExecState slots the abstract key leaves out, each with its reason
KEY_EXCLUDED = {
    "clock": "time is abstracted: the key keeps whether the stabilization window elapsed",
    "log": "history, not state: each branch's log holds only its own step's entries",
    "generic_decisions": "written only by a decide confirmation, which the search never sends",
    "generic_advance": "written only by an advance confirmation, which the search never sends",
}


def oracle_key(state: ExecState, config) -> tuple:
    """The abstract key's fields as a plain tuple, the reference the packed
    key must match: equal packed keys exactly when equal tuples."""
    return (
        state.current_node, state.posture_valid,
        state.trajectory_valid, state.arm_moving, state.exposure_in_progress, state.interruption_active,
        state.fault_active, state.awaiting_resume, state.revalidation_required,
        state.compliance_mode, stabilization_elapsed(state, config),
        state.patient_last_assent is not None, state.patient_not_ok,
        state.self_test_result, state.stage_result, state.posture_result,
        state.plan_result, state.adjustments_result, state.retake_result,
        state.motion_done, state.session_status, state.current_view,
        state.views_acquired, tuple(sorted(state.retake_count.items())),
        tuple([t is not None for t in state.ledger.received]),
    )


def report_sha256(result) -> str:
    """sha256 of the reach report's JSON, keys sorted, as ``hazgate reach --json``
    orders them."""
    return hashlib.sha256(
        json.dumps(result.to_json_dict(), sort_keys=True).encode("utf-8")).hexdigest()


def _sharing_branch_into():
    """``ExecState.branch_into`` with a copy fault: the branch is left
    holding its parent's ledger object, so its writes reach the parent."""
    branch_into = ExecState.branch_into

    def sharing_branch_into(state, dup):
        branch_into(state, dup)
        dup.ledger = state.ledger

    return sharing_branch_into


class TestAlphabet:
    def test_eight_event_kinds(self):
        assert len(DEFAULT_ALPHABET) == 8

    def test_stimuli_expand_confirm_payloads(self):
        stimuli = stimuli_for(DEFAULT_ALPHABET)
        confirm = [payload for kind, payload in stimuli if kind == "commandConfirm"]
        assert len(confirm) == 8
        assert len(stimuli) == 15

    def test_every_declared_kind_is_a_letter(self, mammobot, config):
        # counts are not pinned: they move when the abstract key keeps
        # whether the stabilization window is running
        result = brute_force_reachability(mammobot, config, max_depth=4, alphabet=EVENT_KINDS)
        assert not result.unsafe_reachable
        assert result.complete
        assert result.cross_checked == result.states_explored - 1
        assert result.cross_check_disagreements == []

    def test_unknown_kind_rejected(self, mammobot, config):
        with pytest.raises(ValueError, match="unknown event kind 'bogus'"):
            brute_force_reachability(mammobot, config, alphabet=("tick", "bogus"))


class TestAbstractKey:
    def test_ledger_bits_follow_each_states_own_ledger(self, mammobot, config):
        # the key ends with one byte per (action, source) the state's ledger
        # requires, actions in sorted order: 1 when a confirmation is held
        for ledger in (config.ledger_requirements,
                       {"resume": ("Patient",), "exposure": ("Radiographer", "Patient")}):
            executive = SafetyExecutive(mammobot, replace(config, ledger_requirements=ledger))
            state = executive.init_state()
            state.ledger.record("exposure", "Radiographer", 0)
            expected = bytes([action == "exposure" and source == "Radiographer"
                              for action in sorted(ledger) for source in ledger[action]])
            assert abstract_key(state, config)[-len(expected):] == expected
            assert abstract_key(state.branch(), config)[-len(expected):] == expected

    def test_every_slot_is_keyed_or_excluded_with_a_reason(self, mammobot, config):
        # a new ExecState slot must change the key or join KEY_EXCLUDED
        initial = SafetyExecutive(mammobot, config).init_state()
        ledger = initial.ledger.copy()
        ledger.record("exposure", "Radiographer", 0)
        probes = {
            "current_node": "identify_stage",
            "posture_stable_since": -config.stabilization_window_ms,
            "patient_last_assent": 0,
            "views_acquired": frozenset({"CC"}),
            "retake_count": {"CC": 1},
            "current_view": "CC",
            "session_status": STATUS_ABANDONED,
            "ledger": ledger,
        }
        unkeyed = []
        for slot in ExecState.__slots__:
            if slot in KEY_EXCLUDED:
                continue
            value = getattr(initial, slot)
            probe = probes[slot] if slot in probes else (
                not value if isinstance(value, bool) else True)
            state = initial.branch()
            setattr(state, slot, probe)
            if abstract_key(state, config) == abstract_key(initial, config):
                unkeyed.append(slot)
        assert unkeyed == []

    @pytest.mark.parametrize("enabled,depth,alphabet", [
        (True, 8, DEFAULT_ALPHABET), (False, 6, DEFAULT_ALPHABET), (True, 4, EVENT_KINDS),
    ], ids=["protected-8", "unprotected-6", "every-kind-4"])
    def test_packed_key_is_exact(self, mammobot, config, monkeypatch, enabled, depth, alphabet):
        # every state the search keys: two packed keys are equal exactly
        # when their oracle tuples are
        key = reach.abstract_key
        by_oracle, by_packed = {}, {}

        def checking_key(state, key_config):
            packed = key(state, key_config)
            oracle = oracle_key(state, key_config)
            assert by_oracle.setdefault(oracle, packed) == packed, oracle
            assert by_packed.setdefault(packed, oracle) == oracle, oracle
            return packed

        monkeypatch.setattr(reach, "abstract_key", checking_key)
        result = brute_force_reachability(
            mammobot, config, max_depth=depth, alphabet=alphabet, executive_enabled=enabled,
            stop_at_first=False, cross_check=False)
        assert result.complete
        assert len(by_packed) == len(by_oracle) == result.states_explored

    def test_value_too_wide_for_its_field_raises(self, mammobot, config, monkeypatch):
        initial = SafetyExecutive(mammobot, config).init_state()
        for slot, value in (("posture_valid", 256), ("motion_done", -1),
                            ("compliance_mode", None), ("plan_result", 2)):
            state = initial.branch()
            setattr(state, slot, value)
            with pytest.raises((struct.error, KeyError)):
                abstract_key(state, config)
        # a 65,537th code does not fit its 16 bits
        monkeypatch.setattr(reach, "_CODES", reach._Codes((i, i) for i in range(2**16)))
        with pytest.raises(struct.error):
            abstract_key(initial, config)

    def test_no_stimulus_writes_the_generic_slots(self):
        actions = {payload.get("action") for kind, payload in stimuli_for(DEFAULT_ALPHABET)}
        assert not actions & {"decide", "advance"}


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

    def test_first_unsafe_stop_counts_every_visited_state(self, mammobot, config):
        # the search stops at the 11th transition, after 9 new states; all
        # 10 visited states are counted, not only those of completed depths
        result = brute_force_reachability(
            mammobot, config, max_depth=6, executive_enabled=False
        )
        assert not result.complete
        assert (result.states_explored, result.transitions, result.cross_checked) == (
            10, 11, 10)

    def test_full_search_at_depth_6(self, mammobot, config):
        result = brute_force_reachability(
            mammobot, config, max_depth=6, executive_enabled=False, stop_at_first=False
        )
        assert result.unsafe_reachable
        assert result.complete
        assert result.cross_check_disagreements == []
        assert (result.states_explored, result.transitions, result.cross_checked) == (
            10650, 63360, 10649)
        assert report_sha256(result) == (
            "8b71d36dc7e7869f648c43ac3b925ee80c72dbc4afe8abd71a859f3d964a6ed5")

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
        assert report_sha256(result) == (
            "595076628f15241ec0a0f6369fb51cf0c421382b6d5fd4531dbb6d18d1ce39ac")

    def test_protected_depth_12_pinned(self, mammobot, config):
        result = brute_force_reachability(mammobot, config, max_depth=12)
        assert not result.unsafe_reachable
        assert result.complete
        assert result.cross_check_disagreements == []
        assert (result.states_explored, result.transitions, result.cross_checked) == (
            10983, 139230, 10982)
        assert report_sha256(result) == (
            "680b2f908ec6fe7b9cc079dd18f458a6b3a25d51a9bdd656d2d07b1f06f1b564")

    def test_allocates_states_only_to_keep_for_expansion(self, mammobot, config, monkeypatch):
        # a transition that lands on a visited key, or on a last-layer state,
        # leaves its state as the spare the next transition writes into, so
        # a state is allocated only by the first transition and after each
        # of the 3,082 states kept for expansion: 3,083, where a branch()
        # per transition allocated 46,245
        branch = ExecState.branch
        allocated = []

        def counting_branch(state):
            allocated.append(None)
            return branch(state)

        monkeypatch.setattr(ExecState, "branch", counting_branch)
        result = brute_force_reachability(mammobot, config, max_depth=8, cross_check=False)
        assert result.transitions == 46245
        assert len(allocated) <= result.states_explored == 4383
        assert len(allocated) == 3083

    def test_cross_check_catches_a_branch_sharing_its_ledger(self, mammobot, config,
                                                              monkeypatch):
        # the replays share nothing with the search, so a faulty branch copy
        # shows up as disagreements rather than being repeated by the replay;
        # the fault is in branch_into, which a fresh branch and a recycled
        # one both run
        monkeypatch.setattr(ExecState, "branch_into", _sharing_branch_into())
        result = brute_force_reachability(
            mammobot, config, max_depth=8, executive_enabled=True
        )
        assert len(result.cross_check_disagreements) == 585
        assert all(d.startswith("state mismatch") for d in result.cross_check_disagreements)

    def test_replays_every_witness_path_once_depth_first(self, mammobot, config, monkeypatch):
        # one _replay call per cross-checked witness: each starts fresh with a
        # full path or resumes the previous call's session with one event, so
        # each call's full path is the previous one's plus its event or given
        # whole, and the full paths are the witness paths, each once
        replay = reach._replay
        paths, returned, handed = [], [], []

        def recording_replay(model, reach_config, events, executive, resume):
            handed.append(len(events))
            encoded = tuple(
                (e.timestamp, e.source, e.kind, tuple(sorted(e.payload.items())))
                for e in events)
            if resume is None:
                paths.append(encoded)
            else:
                assert resume is returned[-1] and len(encoded) == 1
                paths.append(paths[-1] + encoded)
            returned.append(replay(model, reach_config, events, executive, resume))
            return returned[-1]

        monkeypatch.setattr(reach, "_replay", recording_replay)
        result = brute_force_reachability(mammobot, config, max_depth=8)
        assert len(paths) == len(set(paths)) == result.cross_checked == 4382
        seen = {()}
        for path in paths:
            assert path[:-1] in seen  # depth first: a witness after the one it was found from
            seen.add(path)
        # 28,058 events when every witness replayed its whole path
        assert sum(handed) == 14544
        # witness order is discovery order: by depth, then by the place of the
        # witness it was found from, then by the stimulus that led from there
        stimulus = {(kind, tuple(sorted(payload.items()))): i
                    for i, (kind, payload) in enumerate(stimuli_for(DEFAULT_ALPHABET))}
        place, ordered = {(): -1}, []
        for depth in range(1, 9):
            for path in sorted((p for p in paths if len(p) == depth),
                               key=lambda p: (place[p[:-1]], stimulus[p[-1][2:]])):
                place[path] = len(ordered)
                ordered.append(path)
        assert len(ordered) == 4382
        assert hashlib.sha256(json.dumps(ordered).encode("utf-8")).hexdigest() == (
            "cd169de38cc2beea7fea045924cfcdd531b60687ed34168defb6992ca98b564b")

    def test_disagreements_name_each_confirmed_action(self, mammobot, config, monkeypatch):
        # a commandConfirm is written with its action, so each message names
        # one witness: two witnesses that differ only in an action read apart
        monkeypatch.setattr(ExecState, "branch_into", _sharing_branch_into())
        result = brute_force_reachability(mammobot, config, max_depth=3)
        disagreements = result.cross_check_disagreements
        assert len(disagreements) == len(set(disagreements)) == 66
        assert disagreements[0] == "state mismatch after ['commandConfirm:exposure']"
        monkeypatch.undo()

        monkeypatch.setattr(reach, "monitor_r24", lambda trace, cfg: MonitorVerdict("R24", VIOLATED))
        result = brute_force_reachability(mammobot, config, max_depth=3)
        disagreements = result.cross_check_disagreements
        assert disagreements[0] == (
            "verdict mismatch after ['commandConfirm:selfTest']: oracle=safe monitor=Violated")
        assert len(disagreements) == result.cross_checked == 206
        # in witness order, which is by depth, not in the depth-first order of the replays
        depths = [len(ast.literal_eval(d[d.index("["):d.index("]") + 1])) for d in disagreements]
        assert depths == sorted(depths) and depths[-1] == 3

    @pytest.mark.parametrize("enabled", [True, False])
    def test_resumed_replays_match_fresh_ones(self, mammobot, config, monkeypatch, enabled):
        # a resumed replay ends where the witness's whole path, played from a
        # fresh initial state of another executive, ends: same trace, log and key
        replay = reach._replay
        reach_config = replace(config, confirmation_staleness_ms=reach.REACH_STALENESS_MS)
        other = SafetyExecutive(mammobot, reach_config, enabled=enabled)
        full, resumed = [], []

        def checking_replay(model, reach_config, events, executive, resume):
            trace, state = replay(model, reach_config, events, executive, resume)
            full[:] = (full if resume else []) + list(events)
            if resume is not None:
                resumed.append(len(full))
                fresh_trace, fresh_state = play(other, full, close_out=False)
                assert trace.to_jsonl() == fresh_trace.to_jsonl()
                assert log_jsonl(trace.log) == log_jsonl(fresh_trace.log)
                assert abstract_key(state, reach_config) == abstract_key(fresh_state, reach_config)
            return trace, state

        monkeypatch.setattr(reach, "_replay", checking_replay)
        # unprotected, the search goes on past unsafe states until its budget runs out
        result = brute_force_reachability(mammobot, config, max_depth=8, executive_enabled=enabled,
                                          stop_at_first=False, state_budget=5000)
        assert result.cross_check_disagreements == []
        assert result.unsafe_reachable != enabled
        assert resumed and max(resumed) > 2

    def test_cross_check_starts_with_the_search_states_released(self, mammobot, config,
                                                                 monkeypatch):
        # the search keeps one record per state, not the states: only the
        # initial state and the last parent and branch, held by locals, live on
        cross_check = reach._cross_check
        alive = []

        def counting_cross_check(*args):
            gc.collect()
            alive.append(sum(isinstance(o, ExecState) for o in gc.get_objects()))
            return cross_check(*args)

        monkeypatch.setattr(reach, "_cross_check", counting_cross_check)
        brute_force_reachability(mammobot, config, max_depth=8)
        assert alive[0] <= 3, alive

    def test_search_memory_per_state(self, mammobot, config):
        # the traced peak of a search per state it found: 526-582 bytes with
        # tuple keys and tuple witness records, 308-332 packed and in columns
        # (the first search in a process reads the most)
        tracemalloc.start()
        try:
            result = brute_force_reachability(mammobot, config, max_depth=10, cross_check=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.states_explored == 7522
        assert peak / result.states_explored <= 420

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: the key keeps whether the stabilization window has "
        "elapsed but not whether it is running, so it merges states whose "
        "futures differ and the counts depend on alphabet order"))
    def test_counts_independent_of_alphabet_order(self, mammobot, config):
        counts = []
        for alphabet in (DEFAULT_ALPHABET, DEFAULT_ALPHABET[::-1]):
            result = brute_force_reachability(
                mammobot, config, max_depth=5, alphabet=alphabet, cross_check=False
            )
            counts.append((result.states_explored, result.transitions))
        assert counts[0] == counts[1]

    def test_state_budget_marks_incomplete(self, mammobot, config):
        result = brute_force_reachability(
            mammobot, config, max_depth=8, executive_enabled=True,
            state_budget=50, cross_check=False,
        )
        assert not result.complete
        assert result.states_explored <= 51
