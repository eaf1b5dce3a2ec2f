import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hazgate.datafiles import data_path
from hazgate.executive import ExecConfig, Event
from hazgate.scenarios import (
    MUTATIONS,
    TRANSFORM_FOR_GUIDEWORD,
    Injection,
    InjectionError,
    Scenario,
    Selector,
    apply_injection,
    nominal_timeline,
)


@pytest.fixture()
def timeline(config):
    return nominal_timeline(config)


def multiset(events):
    return Counter((e.source, e.kind) for e in events)


class TestGuidewordMapping:
    def test_fixed_transform_mapping(self):
        assert TRANSFORM_FOR_GUIDEWORD == {
            "Omission": "Drop",
            "Commission": "SpuriousInsert",
            "Early": "ShiftEarly",
            "Late": "ShiftLate",
            "Value": "CorruptValue",
        }


class TestDrop:
    def test_drop_removes_matched(self, timeline):
        inj = Injection(Selector(kind="exposureRequest", ordinal=1), "Drop", "shard:Capture X-ray/Omission")
        out = apply_injection(timeline, inj)
        assert len(out) == len(timeline) - 1
        assert sum(e.kind == "exposureRequest" for e in out) == 2

    def test_drop_is_submultiset(self, timeline):
        inj = Injection(Selector(kind="assent"), "Drop", "shard:Patient OK?/Omission")
        out = apply_injection(timeline, inj)
        assert multiset(out) <= multiset(timeline)

    def test_no_match_is_error(self, timeline):
        inj = Injection(Selector(kind="fault"), "Drop", "x")
        with pytest.raises(InjectionError, match="matched no events"):
            apply_injection(timeline, inj)


class TestShift:
    def test_shift_early_zero_is_identity(self, timeline):
        inj = Injection(Selector(kind="exposureRequest", ordinal=1), "ShiftEarly", "x", delta_ms=0)
        out = apply_injection(timeline, inj)
        assert [ (e.timestamp, e.kind) for e in out ] == [ (e.timestamp, e.kind) for e in timeline ]

    def test_shift_preserves_source_kind_multiset(self, timeline):
        inj = Injection(Selector(kind="exposureRequest", ordinal=2), "ShiftLate", "x", delta_ms=900)
        out = apply_injection(timeline, inj)
        assert multiset(out) == multiset(timeline)

    def test_shift_result_is_time_sorted(self, timeline):
        inj = Injection(Selector(kind="motionComplete", ordinal=1), "ShiftLate", "x", delta_ms=50_000)
        out = apply_injection(timeline, inj)
        times = [e.timestamp for e in out]
        assert times == sorted(times)

    def test_negative_time_rejected(self, timeline):
        first = next(e for e in timeline if e.kind == "postureUpdate")
        inj = Injection(Selector(kind="postureUpdate", ordinal=1), "ShiftEarly", "x",
                        delta_ms=first.timestamp + 1)
        with pytest.raises(InjectionError, match="negative"):
            apply_injection(timeline, inj)


class TestSpuriousInsert:
    def test_insert_adds_event(self, timeline):
        ghost = Event(4444, "Radiographer", "exposureRequest")
        inj = Injection(Selector(kind="exposureRequest"), "SpuriousInsert",
                        "shard:Capture X-ray/Commission", event=ghost)
        out = apply_injection(timeline, inj)
        assert len(out) == len(timeline) + 1
        assert multiset(timeline) <= multiset(out)

    def test_insert_without_event_rejected(self, timeline):
        inj = Injection(Selector(kind="exposureRequest"), "SpuriousInsert", "x")
        with pytest.raises(InjectionError, match="needs an event"):
            apply_injection(timeline, inj)


class TestCorruptValue:
    def test_mutates_payload_only(self, timeline):
        inj = Injection(Selector(kind="postureUpdate", ordinal=1), "CorruptValue", "x",
                        payload_field="valid", mutation="negate")
        out = apply_injection(timeline, inj)
        assert [(e.timestamp, e.source, e.kind) for e in out] == [
            (e.timestamp, e.source, e.kind) for e in timeline
        ]
        corrupted = [e for e in out if e.kind == "postureUpdate"][0]
        original = [e for e in timeline if e.kind == "postureUpdate"][0]
        assert corrupted.payload["valid"] is (not original.payload["valid"])

    def test_stale_duplicate_takes_previous_value(self, timeline):
        inj = Injection(
            Selector(kind="commandConfirm", action="stageIdentified", ordinal=2),
            "CorruptValue", "x", payload_field="view", mutation="staleDuplicate",
        )
        out = apply_injection(timeline, inj)
        stages = [e for e in out if e.payload.get("action") == "stageIdentified"]
        assert stages[1].payload["view"] == stages[0].payload["view"] == "CC"

    def test_unknown_mutation_rejected(self, timeline):
        assert "explode" not in MUTATIONS
        inj = Injection(Selector(kind="postureUpdate", ordinal=1), "CorruptValue", "x",
                        payload_field="valid", mutation="explode")
        with pytest.raises(InjectionError):
            apply_injection(timeline, inj)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_transform_algebra_property(seed):
    """Drop yields a sub-multiset; shifts and corruption preserve (source, kind)."""
    rng = random.Random(seed)
    config = ExecConfig()
    timeline = nominal_timeline(config, rng=rng)
    kinds = sorted({e.kind for e in timeline})
    kind = rng.choice(kinds)
    count = sum(e.kind == kind for e in timeline)
    ordinal = rng.randint(1, count)
    transform = rng.choice(["Drop", "ShiftEarly", "ShiftLate"])
    anchor = [e for e in timeline if e.kind == kind][ordinal - 1]
    delta = rng.randint(0, 2000)
    if transform == "ShiftEarly":
        delta = min(delta, anchor.timestamp)
    inj = Injection(Selector(kind=kind, ordinal=ordinal), transform, "prop", delta_ms=delta)
    out = apply_injection(timeline, inj)
    if transform == "Drop":
        assert multiset(out) <= multiset(timeline)
        assert len(out) == len(timeline) - 1
    else:
        assert multiset(out) == multiset(timeline)
        assert [e.timestamp for e in out] == sorted(e.timestamp for e in out)


class TestScenarioIO:
    def test_round_trip(self, timeline, tmp_path):
        scenario = Scenario(
            name="rt",
            base_timeline=timeline,
            injections=[
                Injection(Selector(kind="assent", ordinal=1), "Drop", "uca:UCA13"),
                Injection(Selector(kind="exposureRequest"), "SpuriousInsert", "uca:UCA29",
                          event=Event(100, "Radiographer", "exposureRequest")),
            ],
            expected_outcome="ViolationExpected",
            expected_requirement="R24",
            seed=9,
        )
        path = tmp_path / "sc.json"
        scenario.save(path)
        loaded = Scenario.load(path)
        assert loaded == scenario

    def test_shipped_scenarios_parse(self):
        for name in ("nominal.json", "capture_commission.json",
                     "arm_positioning_early.json", "uca28.json", "uca30.json"):
            scenario = Scenario.load(data_path("scenarios", name))
            assert scenario.base_timeline
            timeline = scenario.compiled_timeline()
            times = [e.timestamp for e in timeline]
            assert times == sorted(times)
