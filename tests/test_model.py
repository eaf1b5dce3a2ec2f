import hashlib
import random
from collections import deque
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import break_reachability, random_valid_model
from hazgate.model import (
    KIND_ACTION,
    Edge,
    ModelError,
    Node,
    ParseError,
    ProcessModel,
    parse_model,
    serialize_model,
    validate_model,
)

MINIMAL = """\
process minimal
initial start
final end
action work "Do the work" actor=A
edge start -> work
edge work -> end
"""

CANONICAL_GUARDS = [
    "systemReady",
    "processStageIdentified",
    "postureDetected",
    "trajectoryValid",
    "faultDetected",
    "interruptionHRI",
    "patientOK",
    "adjustmentsNeeded",
    "retakeNeeded",
    "processDone",
]


class TestCanonicalModel:
    def test_validates_cleanly(self, mammobot):
        assert validate_model(mammobot) == []

    def test_node_counts(self, mammobot):
        assert len(mammobot.actions()) == 8
        assert len(mammobot.decisions()) == 10

    def test_guard_spellings(self, mammobot):
        assert mammobot.guard_names() == CANONICAL_GUARDS

    def test_loopback_edges_are_exactly_the_documented_six(self, mammobot):
        order = {n.id: i for i, n in enumerate(mammobot.nodes)}
        loopbacks = {
            (e.src, e.dst, e.guard_value)
            for e in mammobot.edges
            if order[e.dst] < order[e.src]
        }
        assert loopbacks == {
            ("system_ready", "sys_init", False),
            ("stage_identified", "identify_stage", False),
            ("posture_detected", "determine_posture", False),
            ("trajectory_valid", "plan_trajectory", False),
            ("retake_needed", "perform_adjustments", True),
            ("process_done", "identify_stage", False),
        }

    def test_replan_loop(self, mammobot):
        assert [e.dst for e in mammobot.out_edges("trajectory_valid")
                if e.guard_value is False] == ["plan_trajectory"]

    def test_capture_flows_into_retake_check(self, mammobot):
        assert [e.dst for e in mammobot.out_edges("capture_xray")] == ["retake_needed"]

    def test_json_export_mirrors_fields(self, mammobot):
        data = mammobot.to_json_dict()
        assert data["schema_version"].startswith("process-model/")
        assert {n["id"] for n in data["nodes"]} == {n.id for n in mammobot.nodes}
        assert ProcessModel.from_json_dict(data) == mammobot

    def test_output_bytes_pinned(self, mammobot):
        """The bytes ``validate --json`` writes, key order included, and the
        canonical DSL text."""
        def sha256(text):
            return hashlib.sha256(text.encode("utf-8")).hexdigest()

        assert sha256(mammobot.to_json()) == (
            "d3279d81c481ccd525c4b6410e1b51d0ccfbb74c152ea3299df05fc8b4b56c0c")
        assert sha256(serialize_model(mammobot)) == (
            "1845013e2c25b487d80a8a2ff5e8deedb64ff79528167df30534d09482c3b3ae")


class TestParsing:
    def test_minimal_model(self):
        m = parse_model(MINIMAL)
        assert len(m.actions()) == 1
        assert validate_model(m) == []
        assert [e.dst for e in m.out_edges("work")] == ["end"]

    def test_minimal_roundtrip_and_line_count(self):
        m = parse_model(MINIMAL)
        text = serialize_model(m)
        content = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        assert len(content) == 6
        assert parse_model(text) == m

    def test_undeclared_guard_is_rejected(self):
        bad = MINIMAL.replace(
            'action work "Do the work" actor=A',
            'decision work "Work?" guard=patientReady\nguard patientOK "late decl"',
        )
        with pytest.raises(ParseError, match="undeclared guard"):
            parse_model(bad)

    def test_duplicate_id_is_rejected(self):
        with pytest.raises(ParseError, match="duplicate id"):
            parse_model(MINIMAL + 'action work "Again" actor=M\n')

    def test_syntax_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_model("process p\nedge a <- b\n")
        assert err.value.line == 2

    def test_unknown_keyword(self):
        with pytest.raises(ParseError, match="unknown keyword"):
            parse_model("flow x\n")

    def test_missing_actor_mode(self):
        with pytest.raises(ParseError, match="missing actor="):
            parse_model('process p\naction a "A"\n')


class TestValidation:
    def test_action_fan_out_diagnostic(self, mammobot):
        broken = replace(mammobot, edges=mammobot.edges + (Edge("capture_xray", "end"),))
        codes = {d.code for d in validate_model(broken)}
        assert "action-fan-out" in codes

    def test_decision_fan_out_diagnostic(self):
        text = MINIMAL.replace(
            'action work "Do the work" actor=A',
            'guard g "g"\ndecision work "Work?" guard=g',
        )
        with pytest.raises(ModelError) as err:
            parse_model(text)
        assert any(d.code == "decision-fan-out" for d in err.value.diagnostics)

    def test_unreachable_node_diagnostic(self):
        m = parse_model(MINIMAL)
        m = replace(m, nodes=m.nodes + (Node("island", KIND_ACTION, "Island", actor_mode="A"),),
                    edges=m.edges + (Edge("island", "end"),))
        codes = {d.code for d in validate_model(m)}
        assert "unreachable-node" in codes

    def test_initial_with_incoming_edge(self):
        m = parse_model(MINIMAL)
        m = replace(m, edges=m.edges + (Edge("work", "start"),))
        codes = {d.code for d in validate_model(m)}
        assert "initial-incoming" in codes
        assert "action-fan-out" in codes


def _oracle_reachable(edges, start):
    """Breadth-first reachability over a raw edge list."""
    adjacency = {}
    for src, dst in edges:
        adjacency.setdefault(src, []).append(dst)
    seen, todo = {start}, deque([start])
    while todo:
        node = todo.popleft()
        for nxt in adjacency.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


def test_reachability_diagnostics_agree_with_bfs_oracle_on_1000_models():
    rng = random.Random(20260810)
    for _ in range(1000):
        m = random_valid_model(rng)
        if rng.random() < 0.5:
            m = break_reachability(rng, m)
        diags = validate_model(m)
        ids = {n.id for n in m.nodes}
        fwd = _oracle_reachable([(e.src, e.dst) for e in m.edges], m.initial)
        bwd = _oracle_reachable([(e.dst, e.src) for e in m.edges], m.final)
        assert {d.subject for d in diags if d.code == "unreachable-node"} == ids - fwd
        assert {d.subject for d in diags if d.code == "dead-end"} == ids - bwd


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_roundtrip_property(seed):
    m = random_valid_model(random.Random(seed))
    assert validate_model(m) == []
    assert parse_model(serialize_model(m)) == m


class TestSuccessors:
    def test_every_decision_has_both_polarities(self, mammobot):
        for d in mammobot.decisions():
            assert len([e for e in mammobot.out_edges(d.id) if e.guard_value is True]) == 1
            assert len([e for e in mammobot.out_edges(d.id) if e.guard_value is False]) == 1
