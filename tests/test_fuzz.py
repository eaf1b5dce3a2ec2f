"""Mutation fuzz of the loaders: every input is bad input or runs.

Each case starts from a shipped file, replaces, deletes or inserts a few
JSON values, CSV cells or rows, or process-model lines or tokens anywhere
in it, and loads the result.  The loader must either raise ValueError,
which ``hazgate`` reports as bad input (exit 2), or give an object that the
program runs without any other exception: a scenario, injection, event or
config through ``simulate.run_scenario`` with the executive on and off, as
``hazgate simulate`` runs it; shard rules through the worksheet and its
coverage report; a process model through what ``validate``, ``worksheet``
and ``simulate`` do with it; and each catalog, the requirements and the
trace links through the report that ``shard-report`` or ``stpa-report``
builds from them.
"""

import copy
import csv
import io
import json
import shlex

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hazgate.datafiles import data_path
from hazgate.executive import EVENT_KINDS, Event, ExecConfig
from hazgate.model import (
    ACTOR_MODES,
    NODE_KINDS,
    ModelError,
    ParseError,
    load_model,
    parse_model,
    validate_model,
)
from hazgate.reporting import build_shard_bundle, build_stpa_bundle
from hazgate.scenarios import MUTATIONS, TRANSFORMS, Scenario
from hazgate.session import SOURCES, log_jsonl
from hazgate.shard import (
    GUIDEWORDS,
    HAZARD_LEVELS,
    ApplicabilityRule,
    canonical_rules,
    coverage_report,
    generate_worksheet,
    load_shard_catalog,
)
from hazgate.simulate import check_expectation, run_scenario
from hazgate.stpa import (
    CATEGORIES,
    LINK_SOURCES,
    METHODOLOGIES,
    RELATIONS,
    ROLES,
    UCA_CATEGORIES,
    load_canonical_stpa,
    load_cue_catalog,
    load_requirements,
    load_trace_links,
    load_uca_catalog,
    trace_to_requirements,
)

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



def _leaves(words):
    return (st.none() | st.booleans() | st.integers(min_value=-2, max_value=40_000)
            | st.sampled_from(words) | st.text(max_size=3))


def _values(words):
    return st.recursive(
        _leaves(words),
        lambda inner: (st.lists(inner, max_size=3)
                       | st.dictionaries(st.sampled_from(words) | st.text(max_size=3), inner,
                                         max_size=3)),
        max_leaves=5,
    )


_LEAVES = _leaves(_WORDS)
_VALUES = _values(_WORDS)


def _paths(doc, path=()):
    yield path
    children = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in children:
        yield from _paths(value, (*path, key))


@st.composite
def _mutated(draw, base, values=_VALUES, words=_WORDS):
    """``base`` with one to three values replaced, deleted or inserted."""
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        value = draw(values)
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
            parent[draw(st.sampled_from(words))] = value
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


def _runs(scenario, config=CONFIG, model=MODEL):
    """What ``hazgate simulate --trace --log`` does, with the executive on and off."""
    for enabled in (True, False):
        try:
            result = run_scenario(model, config, scenario, executive_enabled=enabled)
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


PROC = data_path("mammobot.proc").read_text(encoding="utf-8")
# words the process-model parser gives meaning to
_PROC_WORDS = (
    "process", "guard", "initial", "final", "action", "decision", "edge", "->", "#",
    *(node.id for node in MODEL.nodes), *(guard.name for guard in MODEL.guards),
    *(f"actor={mode}" for mode in ACTOR_MODES), "actor=X", "when=true", "when=false",
    "when=maybe", "guard=patientOK", "guard=undeclared", "holds=x", "Capture X-ray",
    "Release patient", "",
)
_EDIT_CHARS = "\"'\\=# \t,\n"


@st.composite
def _mutated_proc(draw):
    """The shipped model's text with one to three lines deleted, repeated,
    inserted or cut short, or a token or a character of a line replaced,
    deleted or inserted."""
    lines = PROC.splitlines()
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        lines = lines or [""]
        i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        edit = draw(st.sampled_from(("delete", "repeat", "insert", "cut", "token", "char")))
        if edit == "delete":
            del lines[i]
        elif edit == "repeat":
            lines.insert(i, lines[i])
        elif edit == "insert":
            lines.insert(i, shlex.join(draw(st.lists(st.sampled_from(_PROC_WORDS),
                                                     min_size=1, max_size=5))))
        elif edit in ("cut", "token"):
            try:
                tokens = shlex.split(lines[i])
            except ValueError:  # an earlier edit left an open quote
                tokens = lines[i].split()
            j = draw(st.integers(min_value=0, max_value=len(tokens)))
            if edit == "cut":
                lines[i] = shlex.join(tokens[:j])
                continue
            word = draw(st.sampled_from(_PROC_WORDS))
            if j < len(tokens) and draw(st.booleans()):
                tokens[j] = word
            elif j < len(tokens):
                del tokens[j]
            else:
                tokens.insert(draw(st.integers(min_value=0, max_value=j)), word)
            lines[i] = shlex.join(tokens)
        else:
            k = draw(st.integers(min_value=0, max_value=len(lines[i])))
            lines[i] = lines[i][:k] + draw(st.sampled_from(_EDIT_CHARS)) + lines[i][k:]
    return "\n".join(lines) + "\n"


# lines that break one rule each, given the shipped model: a line rule, which
# the parser reports with its line number, or a graph rule
_BAD_PROC_LINES = (
    "process", "process other", "process a b", "flow x", 'action q "unterminated',
    "initial", "initial a b", "initial start", "initial sys_init", "initial start actor=A",
    "final", "final end", "final release_patient", "final end guard=patientOK",
    'guard patientOK "again"', "guard", 'guard newGuard "new" holds=yes', 'guard g "g" bad=x',
    'action sys_init "Again" actor=A', 'action x "X" actor=Q', 'action x "X"', "action x",
    'action x "X" actor=A', 'action x "X" actor=A guard=patientOK',
    'decision d "D?"', 'decision d "D?" guard=undeclared', 'decision d "D?" guard=patientOK',
    'decision patient_ok "Again?" guard=patientOK', 'decision d "D?" guard=patientOK actor=A',
    "edge start -> end", "edge start -> sys_init when=false", "edge x -> sys_init",
    "edge sys_init -> x", "edge sys_init -> end when=true", "edge end -> start",
    "edge patient_ok -> end when=true", "edge patient_ok -> end", "edge x <- y",
    "edge retake_needed -> end when=maybe", "edge capture_xray -> capture_xray",
)
# the diagnostics a parsed model can still raise: the parser raises a
# ParseError for every other rule before it validates the graph
_GRAPH_CODES = {
    "missing-name", "missing-initial", "missing-final", "dangling-edge", "initial-incoming",
    "action-fan-out", "decision-fan-out", "initial-fan-out", "final-fan-out",
    "polarity-on-action", "unreachable-node", "dead-end",
}


@st.composite
def _reordered_proc(draw):
    """The shipped model's text with one to four of its lines dropped,
    duplicated or swapped, or a bad line inserted."""
    lines = PROC.splitlines()
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        i = draw(st.integers(min_value=0, max_value=max(len(lines) - 1, 0)))
        edit = draw(st.sampled_from(("drop", "duplicate", "swap", "insert")) if lines
                    else st.just("insert"))
        if edit == "drop":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        elif edit == "swap":
            j = draw(st.integers(min_value=0, max_value=len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            lines.insert(i, draw(st.sampled_from(_BAD_PROC_LINES)))
    return "\n".join(lines) + "\n"


# words the catalog, requirements and trace-link loaders give meaning to
_CATALOG_WORDS = (
    *GUIDEWORDS, *HAZARD_LEVELS, *ROLES, *UCA_CATEGORIES, *CATEGORIES, *METHODOLOGIES,
    *RELATIONS, *LINK_SOURCES, "shard", "uca", "cue", "UCA01", "UCA99", "CUE01", "CUE08",
    "R1", "R24", "R99", "System initialisation", "Capture X-ray", "Capture X-ray/Late",
    "node", "guideword", "deviation", "hazard_level", "id", "role", "category", "kind", "ref",
    "relation", "source", "text", "refined", "methodology", "monitor_binding", "records",
    "requirements", "links", "schema_version", "shard-catalog/1", "requirements/1",
    "traceability/1", "# schema: uca-catalog/1",
)
_CATALOG_VALUES = _values(_CATALOG_WORDS)
_CELLS = st.sampled_from(_CATALOG_WORDS) | st.text(max_size=3)


@st.composite
def _mutated_csv(draw, text):
    """CSV ``text`` with one to three cells replaced, deleted or inserted or
    rows deleted or repeated, and maybe one character inserted anywhere."""
    rows = list(csv.reader(io.StringIO(text)))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        rows = rows or [[]]
        i = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        row = rows[i]
        j = draw(st.integers(min_value=0, max_value=max(len(row) - 1, 0)))
        edit = draw(st.sampled_from(("replace", "delete", "insert", "delete-row", "repeat-row")))
        if edit == "replace" and row:
            row[j] = draw(_CELLS)
        elif edit == "delete" and row:
            del row[j]
        elif edit in ("replace", "delete", "insert"):
            row.insert(j, draw(_CELLS))
        elif edit == "delete-row":
            del rows[i]
        else:
            rows.insert(i, list(row))
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    text = out.getvalue()
    if draw(st.booleans()):
        k = draw(st.integers(min_value=0, max_value=len(text)))
        text = text[:k] + draw(st.sampled_from(_EDIT_CHARS)) + text[k:]
    return text


@st.composite
def _retexted(draw, base):
    """``base`` with one to three text fields of its rows (a top-level key,
    a row index and a column, or deeper) replaced by catalog words, so that
    the result often loads."""
    doc = copy.deepcopy(base)
    texts = []
    for path in _paths(doc):
        if len(path) < 3:
            continue
        value = doc
        for key in path:
            value = value[key]
        if isinstance(value, str):
            texts.append(path)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        *parents, key = draw(st.sampled_from(texts))
        parent = doc
        for step in parents:
            parent = parent[step]
        parent[key] = draw(st.sampled_from(_CATALOG_WORDS))
    return doc


UCAS, CUES, REQUIREMENTS, LINKS = load_canonical_stpa()


def _shard_report(catalog, model=MODEL):
    """What ``hazgate shard-report`` renders, in each of its formats."""
    bundle = build_shard_bundle(model, canonical_rules(), catalog, {})
    for render in (bundle.to_json, bundle.to_markdown, bundle.to_csv):
        render()


def _stpa_report(ucas=UCAS, cues=CUES, requirements=REQUIREMENTS, links=LINKS):
    """What ``hazgate stpa-report`` renders, in each of its formats."""
    matrix = trace_to_requirements(ucas, cues, CATALOG, requirements, links)
    bundle = build_stpa_bundle(ucas, cues, requirements, matrix, {})
    for render in (bundle.to_json, bundle.to_markdown, bundle.to_csv):
        render()


def _shard_catalog(path):
    return load_shard_catalog(path, model=MODEL)  # as shard-report loads it


# shipped file -> its loader and the report built from what it loads, with
# the other shipped inputs
_CATALOGS = {
    "shard_catalog.csv": (_shard_catalog, _shard_report),
    "shard_catalog.json": (_shard_catalog, _shard_report),
    "uca_catalog.csv": (load_uca_catalog, lambda records: _stpa_report(ucas=records)),
    "cue_catalog.csv": (load_cue_catalog, lambda records: _stpa_report(cues=records)),
    "requirements.json": (load_requirements, lambda records: _stpa_report(requirements=records)),
    "traceability.json": (load_trace_links, lambda records: _stpa_report(links=records)),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _reports(path):
    """Load a catalog file as its command does and build that command's report."""
    loader, report = _CATALOGS[path.name]
    records = _load(loader, path)
    if records is not None:
        report(records)


class TestModelAndCatalogFuzz:
    @settings(FUZZ, max_examples=60)
    @given(_mutated_proc())
    def test_process_model(self, text):
        model = _load(parse_model, text)
        if model is None:
            return
        validate_model(model)  # validate
        model.to_json()
        generate_worksheet(model, canonical_rules())  # worksheet
        catalog = _load(lambda path: load_shard_catalog(path, model=model),  # shard-report
                        data_path("shard_catalog.csv"))
        if catalog is not None:
            _shard_report(catalog, model)
        for scenario in SCENARIOS:  # simulate
            _runs(Scenario.from_json_dict(scenario), model=model)

    @settings(FUZZ, max_examples=300)
    @given(_reordered_proc())
    def test_parsed_model_has_only_graph_diagnostics(self, text):
        """A model that parses is valid or breaks only graph rules, so the
        validator needs no check of its own for a line rule."""
        try:
            model = parse_model(text)
        except ParseError:
            return
        except ModelError as exc:
            assert {d.code for d in exc.diagnostics} <= _GRAPH_CODES
            return
        assert validate_model(model) == []

    @pytest.mark.parametrize("name", ("shard_catalog.csv", "uca_catalog.csv", "cue_catalog.csv"))
    @settings(FUZZ, max_examples=25)
    @given(data=st.data())
    def test_csv_catalog(self, workdir, name, data):
        path = workdir / name
        path.write_text(data.draw(_mutated_csv(data_path(name).read_text(encoding="utf-8"))),
                        encoding="utf-8")
        _reports(path)

    @pytest.mark.parametrize("name", ("shard_catalog.json", "requirements.json",
                                      "traceability.json"))
    @settings(FUZZ, max_examples=25)
    @given(data=st.data())
    def test_json_catalog(self, workdir, name, data):
        path = workdir / name
        base = _shipped(name)
        doc = data.draw(_mutated(base, _CATALOG_VALUES, _CATALOG_WORDS) | _retexted(base))
        path.write_text(json.dumps(doc), encoding="utf-8")
        _reports(path)
