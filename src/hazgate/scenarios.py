"""Scenario scripts and guideword-mapped injection transforms.

A scenario is a nominal event timeline plus injections.  Each injection
carries a transform whose mapping to the deviation guidewords is fixed:
Omission -> Drop, Commission -> SpuriousInsert, Early -> ShiftEarly,
Late -> ShiftLate, Value -> CorruptValue.  Transforms never invent event
kinds; they remove, duplicate, retime or corrupt what the script already
contains, which keeps injected timelines legal inputs for the executive.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from .executive import _BOOLEAN_PAYLOAD_FIELDS, EVENT_KINDS, Event, ExecConfig
from .jsoncheck import json_field, json_int, json_keys, json_list, json_text, json_version
from .monitors import MONITORED_REQUIREMENTS

TRANSFORM_FOR_GUIDEWORD = {
    "Omission": "Drop",
    "Commission": "SpuriousInsert",
    "Early": "ShiftEarly",
    "Late": "ShiftLate",
    "Value": "CorruptValue",
}

TRANSFORMS = tuple(TRANSFORM_FOR_GUIDEWORD.values())
MUTATIONS = ("negate", "zero", "outOfRange", "staleDuplicate")

OUTCOME_SAFE_COMPLETION = "SafeCompletion"
OUTCOME_BLOCKED_SAFELY = "BlockedSafely"
OUTCOME_VIOLATION = "ViolationExpected"
EXPECTED_OUTCOMES = (OUTCOME_SAFE_COMPLETION, OUTCOME_BLOCKED_SAFELY, OUTCOME_VIOLATION)
SCENARIO_SCHEMA = "scenario/1"


class InjectionError(ValueError):
    pass


@dataclass(frozen=True)
class Selector:
    """Matches events by kind plus either an ordinal (1-based) or time range."""

    kind: str
    ordinal: int | None = None
    t_min: int | None = None
    t_max: int | None = None
    action: str | None = None  # commandConfirm payload action filter

    def matches(self, timeline: list[Event]) -> list[int]:
        hits = []
        nth = 0
        for i, event in enumerate(timeline):
            if event.kind != self.kind:
                continue
            if self.action is not None and event.payload.get("action") != self.action:
                continue
            nth += 1
            if self.ordinal is not None and nth != self.ordinal:
                continue
            if self.t_min is not None and event.timestamp < self.t_min:
                continue
            if self.t_max is not None and event.timestamp > self.t_max:
                continue
            hits.append(i)
        return hits

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.ordinal is not None:
            out["ordinal"] = self.ordinal
        if self.t_min is not None:
            out["t_min"] = self.t_min
        if self.t_max is not None:
            out["t_max"] = self.t_max
        if self.action is not None:
            out["action"] = self.action
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "Selector":
        json_keys(data, "selector", ("kind", "ordinal", "t_min", "t_max", "action"))
        kind = json_field(data, "kind", "selector")
        if kind not in EVENT_KINDS:
            raise ValueError(f"selector kind must be one of {', '.join(EVENT_KINDS)}, "
                             f"got {kind!r}")
        bounds = {key: data.get(key) for key in ("ordinal", "t_min", "t_max")}
        for key, value in bounds.items():
            if value is not None:
                json_int(value, f"selector {key}")
        if bounds["ordinal"] == 0:
            raise ValueError("selector ordinal counts from 1, got 0")
        if data.get("action") is not None:
            json_text(data["action"], "selector action")
        return cls(kind=kind, **bounds, action=data.get("action"))


@dataclass(frozen=True)
class Injection:
    target: Selector
    transform: str
    source_ref: str  # e.g. "shard:Capture X-ray/Commission" or "uca:UCA28"
    delta_ms: int = 0  # ShiftEarly / ShiftLate
    event: Event | None = None  # SpuriousInsert
    payload_field: str | None = None  # CorruptValue
    mutation: str | None = None  # CorruptValue

    def to_json_dict(self) -> dict:
        out: dict = {
            "target": self.target.to_json_dict(),
            "transform": self.transform,
            "source_ref": self.source_ref,
        }
        if self.transform in ("ShiftEarly", "ShiftLate"):
            out["delta_ms"] = self.delta_ms
        if self.event is not None:
            out["event"] = self.event.to_json_dict()
        if self.payload_field is not None:
            out["payload_field"] = self.payload_field
        if self.mutation is not None:
            out["mutation"] = self.mutation
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "Injection":
        json_keys(data, "injection", ("target", "transform", "source_ref", "delta_ms", "event",
                                      "payload_field", "mutation"))
        if data.get("payload_field") is not None:
            json_text(data["payload_field"], "injection payload_field")
        return cls(
            target=Selector.from_json_dict(json_field(data, "target", "injection")),
            transform=json_field(data, "transform", "injection"),
            source_ref=json_text(json_field(data, "source_ref", "injection"),
                                 "injection source_ref"),
            delta_ms=json_int(data.get("delta_ms", 0), "injection delta_ms"),
            event=Event.from_json_dict(data["event"]) if data.get("event") else None,
            payload_field=data.get("payload_field"),
            mutation=data.get("mutation"),
        )


def _stable_sort(timeline: list[Event]) -> list[Event]:
    return sorted(timeline, key=lambda e: e.timestamp)


def apply_injection(timeline: list[Event], inj: Injection) -> list[Event]:
    """Return a new timeline with the injection applied.

    Raises :class:`InjectionError` when the selector matches nothing (except
    SpuriousInsert, which needs no anchor) or a shift would produce negative
    time.
    """
    if inj.transform not in TRANSFORMS:
        raise InjectionError(f"unknown transform {inj.transform!r}")

    if inj.transform == "SpuriousInsert":
        if inj.event is None:
            raise InjectionError("SpuriousInsert needs an event")
        return _stable_sort(list(timeline) + [inj.event])

    matched = inj.target.matches(timeline)
    if not matched:
        raise InjectionError(f"selector matched no events: {inj.target}")
    matched_set = set(matched)

    if inj.transform == "Drop":
        return [e for i, e in enumerate(timeline) if i not in matched_set]

    if inj.transform in ("ShiftEarly", "ShiftLate"):
        delta = inj.delta_ms if inj.transform == "ShiftLate" else -inj.delta_ms
        out = []
        for i, event in enumerate(timeline):
            if i in matched_set:
                t = event.timestamp + delta
                if t < 0:
                    raise InjectionError("shift produces negative timestamp")
                out.append(Event(t, event.source, event.kind, dict(event.payload)))
            else:
                out.append(event)
        return _stable_sort(out)

    # CorruptValue: payload-only mutation
    if inj.payload_field is None or inj.mutation not in MUTATIONS:
        raise InjectionError("CorruptValue needs payload_field and a known mutation")
    out = []
    previous_value = None
    for i, event in enumerate(timeline):
        if event.kind == inj.target.kind and inj.payload_field in event.payload:
            if i not in matched_set:
                previous_value = event.payload[inj.payload_field]
        if i in matched_set:
            payload = dict(event.payload)
            value = payload.get(inj.payload_field)
            if inj.mutation == "negate":
                if not isinstance(value, (int, float)):  # a bool is an int
                    raise InjectionError(f"negate needs a boolean or a number, got {value!r}")
                payload[inj.payload_field] = (not value) if isinstance(value, bool) else -value
            elif inj.mutation == "zero":
                payload[inj.payload_field] = False if isinstance(value, bool) else 0
            elif inj.mutation == "outOfRange":
                if inj.payload_field in _BOOLEAN_PAYLOAD_FIELDS:  # the loader's rule
                    raise InjectionError(f"outOfRange cannot corrupt boolean payload field "
                                         f"{inj.payload_field!r}: it must stay true or false")
                payload[inj.payload_field] = "OUT-OF-RANGE" if isinstance(value, str) else 10**9
            elif inj.mutation == "staleDuplicate":
                if previous_value is not None:
                    payload[inj.payload_field] = previous_value
            out.append(Event(event.timestamp, event.source, event.kind, payload))
        else:
            out.append(event)
    return out


@dataclass
class Scenario:
    name: str
    base_timeline: list[Event]
    injections: list[Injection] = field(default_factory=list)
    expected_outcome: str = OUTCOME_SAFE_COMPLETION
    expected_requirement: str | None = None  # ViolationExpected only
    seed: int = 0
    unaimed: int = 0  # injections a generator drew but found no event to aim at

    def compiled_timeline(self) -> list[Event]:
        timeline = _stable_sort(list(self.base_timeline))
        for inj in self.injections:
            timeline = apply_injection(timeline, inj)
        return timeline

    def to_json_dict(self) -> dict:
        out = {
            "schema_version": SCENARIO_SCHEMA,
            "name": self.name,
            "seed": self.seed,
            "expected_outcome": {"kind": self.expected_outcome},
            "base_timeline": [e.to_json_dict() for e in self.base_timeline],
            "injections": [inj.to_json_dict() for inj in self.injections],
        }
        if self.expected_requirement:
            out["expected_outcome"]["requirement"] = self.expected_requirement
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "Scenario":
        json_keys(data, "scenario", ("schema_version", "name", "seed", "expected_outcome",
                                     "base_timeline", "injections"))
        json_version(data, "scenario", SCENARIO_SCHEMA)
        name = json_field(data, "name", "scenario")
        if not isinstance(name, str) or not name:
            raise ValueError(f"scenario name must be a non-empty string, got {name!r}")
        outcome = json_keys(data.get("expected_outcome", {}), "scenario expected_outcome",
                            ("kind", "requirement"))
        kind = outcome.get("kind", OUTCOME_SAFE_COMPLETION)
        if kind not in EXPECTED_OUTCOMES:
            raise ValueError(f"scenario expected_outcome kind must be one of "
                             f"{', '.join(EXPECTED_OUTCOMES)}, got {kind!r}")
        requirement = outcome.get("requirement")
        if "requirement" in outcome:
            if kind != OUTCOME_VIOLATION:
                raise ValueError(f"scenario expected_outcome requirement applies only to kind "
                                 f"{OUTCOME_VIOLATION}, not {kind}")
            if requirement not in MONITORED_REQUIREMENTS:
                raise ValueError(f"scenario expected_outcome requirement must be one of "
                                 f"{', '.join(MONITORED_REQUIREMENTS)}, got {requirement!r}")
        return cls(
            name=name,
            base_timeline=_parse_items(Event, json_field(data, "base_timeline", "scenario"),
                                       "scenario base_timeline"),
            injections=_parse_items(Injection, data.get("injections", []),
                                    "scenario injections"),
            expected_outcome=kind,
            expected_requirement=requirement,
            seed=json_int(data.get("seed", 0), "scenario seed"),
        )

    @classmethod
    def load(cls, path) -> "Scenario":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")


def _parse_items(cls, items, where: str) -> list:
    """``cls.from_json_dict`` of each item, naming the item a failure is in."""
    out = []
    for i, item in enumerate(json_list(items, where)):
        try:
            out.append(cls.from_json_dict(item))
        except ValueError as exc:
            raise ValueError(f"{where}[{i}]: {exc}") from None
    return out


def nominal_timeline(
    config: ExecConfig,
    rng: random.Random | None = None,
    retakes: dict[str, int] | None = None,
) -> list[Event]:
    """Full happy-path session script: self-test, per-view positioning and
    capture (with optional retakes), then confirmed release.

    With an rng, inter-event gaps jitter but ordering and window margins are
    preserved, so the script stays admissible under the enabled executive.
    """
    retakes = retakes or {}
    window = config.stabilization_window_ms

    def gap(base: int) -> int:
        return base if rng is None else base + rng.randint(0, 400)

    t = 0
    events: list[Event] = [
        Event(t, "System", "commandConfirm", {"action": "selfTest", "ready": True})
    ]

    def capture_block(t: int, view: str, retake: bool) -> int:
        # assent + radiographer confirm + gated exposure
        t += gap(200)
        events.append(Event(t, "Patient", "assent"))
        t += gap(200)
        events.append(Event(t, "Radiographer", "commandConfirm", {"action": "exposure"}))
        t += window + gap(100)  # exceed stabilization after last reposition
        events.append(Event(t, "Radiographer", "exposureRequest"))
        t += gap(400)
        events.append(Event(t, "System", "exposureComplete", {"retake": retake}))
        return t

    for view in config.required_views:
        t += gap(500)
        events.append(Event(t, "Radiographer", "commandConfirm",
                            {"action": "stageIdentified", "view": view}))
        t += gap(500)
        events.append(Event(t, "Sensor", "postureUpdate", {"valid": True}))
        t += window + gap(100)
        events.append(Event(t, "Radiographer", "commandConfirm", {"action": "planReady", "valid": True}))
        t += gap(300)
        events.append(Event(t, "Radiographer", "commandConfirm", {"action": "motionStart"}))
        t += gap(1200)
        events.append(Event(t, "System", "motionComplete"))
        t += gap(200)
        events.append(Event(t, "Radiographer", "commandConfirm",
                            {"action": "adjustments", "needed": False}))
        for _ in range(retakes.get(view, 0)):
            t = capture_block(t, view, retake=True)
            # retake loops back through adjustments: perform the motion again
            t += gap(300)
            events.append(Event(t, "Radiographer", "commandConfirm", {"action": "motionStart"}))
            t += gap(800)
            events.append(Event(t, "System", "motionComplete"))
        t = capture_block(t, view, retake=False)

    t += gap(300)
    events.append(Event(t, "Radiographer", "commandConfirm", {"action": "release"}))
    return events
