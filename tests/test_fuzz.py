"""Mutation fuzz of the JSON loaders: every input is bad input or runs.

Each case starts from a shipped file, replaces, deletes or inserts a few
JSON values anywhere in it, and loads the result.  The loader must either
raise ValueError, which ``hazgate`` reports as bad input (exit 2), or give
an object that the program runs without any other exception: a scenario,
injection, event or config through ``simulate.run_scenario`` with the
executive on and off, as ``hazgate simulate`` runs it, and shard rules
through the worksheet and its coverage report.
"""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hazgate.datafiles import data_path
from hazgate.executive import EVENT_KINDS, SOURCES, Event, ExecConfig, log_jsonl
from hazgate.model import NODE_KINDS, load_model
from hazgate.scenarios import MUTATIONS, TRANSFORMS, Scenario
from hazgate.shard import (
    GUIDEWORDS,
    ApplicabilityRule,
    coverage_report,
    generate_worksheet,
    load_shard_catalog,
)
from hazgate.simulate import check_expectation, run_scenario

FUZZ = settings(max_examples=40, deadline=None, derandomize=True)

_PAYLOAD_KEYS = ("action", "ready", "identified", "view", "valid", "needed", "guard", "value",
                 "retake", "detail")

# strings the loaders and the executive give meaning to, so that mutations
# often produce inputs that load
_WORDS = (
    *EVENT_KINDS, *SOURCES, *TRANSFORMS, *MUTATIONS, *GUIDEWORDS, *NODE_KINDS, *_PAYLOAD_KEYS,
    "selfTest", "stageIdentified", "planReady", "motionStart", "adjustments",
    "release", "decide", "advance", "exposure", "resume", "CC", "MLO-L", "t", "source",
    "kind", "payload", "target", "transform", "event", "payload_field", "mutation",
    "delta_ms", "ordinal", "t_min", "t_max", "ledger", "required_views", "step_cap",
    "guidewords", "justification", "Capture X-ray", "scenario/1", "exec-config/1",
)

_LEAVES = (st.none() | st.booleans() | st.integers(min_value=-2, max_value=40_000)
           | st.sampled_from(_WORDS) | st.text(max_size=3))
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(_WORDS) | st.text(max_size=3), inner,
                                     max_size=3)),
    max_leaves=5,
)


def _paths(doc, path=()):
    yield path
    children = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in children:
        yield from _paths(value, (*path, key))


@st.composite
def _mutated(draw, base):
    """``base`` with one to three values replaced, deleted or inserted."""
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        value = draw(_VALUES)
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        edit = draw(st.sampled_from(("replace", "delete", "insert")))
        if edit == "replace":
            parent[path[-1]] = value
        elif edit == "delete":
            del parent[path[-1]]
        elif isinstance(parent, list):
            parent.insert(path[-1], value)
        else:
            parent[draw(st.sampled_from(_WORDS))] = value
    return doc


def _shipped(*parts):
    return json.loads(data_path(*parts).read_text(encoding="utf-8"))


MODEL = load_model(data_path("mammobot.proc"))
CONFIG = ExecConfig.load(data_path("exec_config.json"))
SCENARIOS = [_shipped("scenarios", name) for name in ("uca28.json", "capture_commission.json")]
CATALOG = load_shard_catalog(data_path("shard_catalog.csv"))
# one shipped event of each kind, action and payload shape, plus the payload
# text fields the shipped scenarios leave unused
EVENTS = [*{(e["kind"], e["payload"].get("action"), *e["payload"]): e
            for s in SCENARIOS for e in s["base_timeline"]}.values(),
          {"t": 2000, "source": "Sensor", "kind": "fault", "payload": {"detail": "encoder"}},
          {"t": 2000, "source": "Radiographer", "kind": "commandConfirm",
           "payload": {"action": "decide", "guard": "adjustmentsNeeded", "value": False}}]
# one injection of each transform
INJECTIONS = [
    *(s["injections"][0] for s in SCENARIOS),
    {"target": {"kind": "commandConfirm", "ordinal": 1}, "transform": "CorruptValue",
     "source_ref": "uca:UCA01", "payload_field": "ready", "mutation": "negate"},
    {"target": {"kind": "assent", "ordinal": 2}, "transform": "Drop", "source_ref": "uca:UCA29"},
]
# the values each injection field is meant to hold
_INJECTION_FIELDS = {
    "target": st.fixed_dictionaries(
        {"kind": st.sampled_from(EVENT_KINDS)},
        optional={"ordinal": st.integers(min_value=0, max_value=3),
                  "action": st.sampled_from(("selfTest", "stageIdentified", "motionStart"))}),
    "transform": st.sampled_from(TRANSFORMS),
    "payload_field": st.sampled_from(_PAYLOAD_KEYS),
    "mutation": st.sampled_from(MUTATIONS),
    "delta_ms": st.integers(min_value=0, max_value=30_000),
    "event": st.sampled_from(EVENTS),
}
_CONTAINERS = (st.lists(_LEAVES, min_size=1, max_size=2)
               | st.dictionaries(st.sampled_from(_WORDS), _LEAVES, min_size=1, max_size=2))


@st.composite
def _respelled(draw, base, fields):
    """``base`` with one to three fields, mostly its own, each set to a value
    of the kind ``fields`` gives it, or to a list or an object."""
    doc = dict(base)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        key = draw(st.sampled_from(tuple(base) or tuple(fields)) | st.sampled_from(tuple(fields)))
        doc[key] = draw(fields.get(key, _LEAVES) | _CONTAINERS)
    return doc


def _retyped(event):
    payloads = _respelled(event["payload"], dict.fromkeys(_PAYLOAD_KEYS, _LEAVES))
    return payloads.map(lambda payload: {**event, "payload": payload})


def _runs(scenario, config=CONFIG):
    """What ``hazgate simulate --trace --log`` does, with the executive on and off."""
    for enabled in (True, False):
        try:
            result = run_scenario(MODEL, config, scenario, executive_enabled=enabled)
        except ValueError:
            continue  # e.g. an injection whose selector matches nothing: exit 2
        check_expectation(result)
        result.trace.to_jsonl()
        log_jsonl(result.trace.log)


def _load(loader, doc):
    try:
        return loader(doc)
    except ValueError:
        return None


class TestLoadersFuzz:
    @FUZZ
    @given(st.sampled_from(SCENARIOS).flatmap(_mutated))
    def test_scenario(self, doc):
        scenario = _load(Scenario.from_json_dict, doc)
        if scenario is not None:
            _runs(scenario)

    @pytest.mark.parametrize("base", INJECTIONS, ids=lambda i: i["transform"])
    @settings(FUZZ, max_examples=30)
    @given(data=st.data())
    def test_injection(self, base, data):
        injection = data.draw(_mutated(base) | _respelled(base, _INJECTION_FIELDS))
        scenario = _load(Scenario.from_json_dict, {**SCENARIOS[0], "injections": [injection]})
        if scenario is not None:
            _runs(scenario)

    @pytest.mark.parametrize("base", EVENTS, ids=lambda e: e["payload"].get("action", e["kind"]))
    @settings(FUZZ, max_examples=10)
    @given(data=st.data())
    def test_event(self, base, data):
        event = _load(Event.from_json_dict, data.draw(_mutated(base) | _retyped(base)))
        if event is not None:
            scenario = Scenario.from_json_dict(SCENARIOS[0])
            scenario.base_timeline.append(event)
            _runs(scenario)

    @FUZZ
    @given(_mutated(_shipped("exec_config.json")))
    def test_config(self, doc):
        config = _load(ExecConfig.from_json_dict, doc)
        if config is not None:
            for scenario in SCENARIOS:
                _runs(Scenario.from_json_dict(scenario), config)

    @FUZZ
    @given(_mutated(_shipped("shard_rules.json")))
    def test_rules(self, doc):
        rules = _load(ApplicabilityRule.from_json_dict, doc)
        if rules is not None:
            coverage_report(generate_worksheet(MODEL, rules), CATALOG)
