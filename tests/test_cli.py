import json
import re

import pytest

from hazgate.cli import main
from hazgate.datafiles import data_path
from hazgate.session import ExecState
from hazgate.shard import load_shard_catalog
from hazgate.stpa import load_cue_catalog, load_uca_catalog

MODEL = str(data_path("mammobot.proc"))
CONFIG = str(data_path("exec_config.json"))
SHARD = str(data_path("shard_catalog.csv"))


class TestValidate:
    def test_canonical_model_exits_zero(self, capsys):
        assert main(["validate", MODEL]) == 0
        assert "ok: mammobot" in capsys.readouterr().out

    def test_broken_model_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.proc"
        bad.write_text("process p\ninitial s\nfinal e\n"
                       'action a "A" actor=A\nedge s -> a\n')  # a never reaches e
        assert main(["validate", str(bad)]) == 1

    def test_missing_file_exits_two(self):
        assert main(["validate", "/nowhere/never.proc"]) == 2

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2


class TestWorksheet:
    def test_emits_77_slots(self, capsys):
        assert main(["worksheet", MODEL]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 78  # header + slots


class TestShardReport:
    def test_complete_coverage_exits_zero(self, tmp_path):
        out = tmp_path / "report.md"
        code = main(["shard-report", MODEL, SHARD, "-o", str(out)])
        assert code == 0
        assert "fill_ratio: 1.000" in out.read_text()

    def test_drift_exits_one(self, tmp_path, capsys):
        partial = tmp_path / "partial.csv"
        lines = open(SHARD, encoding="utf-8").read().splitlines()
        partial.write_text("\n".join(lines[:30]) + "\n")
        assert main(["shard-report", MODEL, str(partial)]) == 1


class TestStpaReport:
    def test_clean_matrix_exits_zero(self, tmp_path):
        out = tmp_path / "stpa.json"
        code = main([
            "stpa-report", str(data_path("uca_catalog.csv")),
            str(data_path("cue_catalog.csv")), str(data_path("requirements.json")),
            "--format", "json", "-o", str(out),
        ])
        assert code == 0
        body = json.loads(out.read_text())
        assert body["clean"] is True

    def test_link_under_unregistered_requirement_exits_one(self, tmp_path):
        links = tmp_path / "traceability.json"
        links.write_text(json.dumps(_mutated(data_path("traceability.json"), lambda d: d[
            "links"].update(R99=[{"kind": "uca", "ref": "UCA01", "relation": "derivesFrom",
                                  "source": "stated"}]))))
        out = tmp_path / "stpa.json"
        code = main([
            "stpa-report", str(data_path("uca_catalog.csv")),
            str(data_path("cue_catalog.csv")), str(data_path("requirements.json")),
            "--links", str(links), "--format", "json", "-o", str(out),
        ])
        assert code == 1
        body = json.loads(out.read_text())
        assert body["clean"] is False
        assert "R99" in out.read_text()


class TestSimulate:
    def test_protected_uca28_exits_zero(self, capsys):
        scenario = str(data_path("scenarios", "uca28.json"))
        assert main(["simulate", MODEL, CONFIG, scenario]) == 0
        out = capsys.readouterr().out
        assert "BlockedSafely" in out
        assert "expectation: met" in out

    def test_unprotected_uca28_exits_one(self, capsys):
        scenario = str(data_path("scenarios", "uca28.json"))
        assert main(["simulate", MODEL, CONFIG, scenario, "--no-executive"]) == 1
        assert "VIOLATED" in capsys.readouterr().out

    def test_trace_and_log_files_written(self, tmp_path, capsys):
        scenario = str(data_path("scenarios", "nominal.json"))
        trace = tmp_path / "trace.jsonl"
        log = tmp_path / "log.jsonl"
        assert main(["simulate", MODEL, CONFIG, scenario,
                     "--trace", str(trace), "--log", str(log)]) == 0
        assert trace.read_text().count("\n") > 10
        first = json.loads(log.read_text().splitlines()[0])
        assert list(first) == ["t", "kind", "actor", "details"]

    def test_log_file_matches_reference_format(self, tmp_path, capsys):
        """The --log writer emits json.dumps compact lines, one per log entry."""
        from hazgate.executive import ExecConfig
        from hazgate.model import load_model
        from hazgate.scenarios import Scenario
        from hazgate.simulate import run_scenario

        scenario = str(data_path("scenarios", "uca28.json"))
        log = tmp_path / "log.jsonl"
        assert main(["simulate", MODEL, CONFIG, scenario, "--log", str(log)]) == 0
        result = run_scenario(load_model(MODEL), ExecConfig.load(CONFIG), Scenario.load(scenario))
        assert log.read_text() == "".join(
            json.dumps(e.to_json_dict(), separators=(",", ":")) + "\n" for e in result.trace.log)


class TestCampaignCommand:
    def test_small_campaign(self, tmp_path, capsys):
        out = tmp_path / "campaign.json"
        code = main(["campaign", MODEL, CONFIG, "-n", "40", "--seed", "5",
                     "--json", str(out)])
        assert code == 0
        body = json.loads(out.read_text())
        assert body["n"] == 40
        assert "soundness violations: 0" in capsys.readouterr().out


class TestReachCommand:
    def test_protected_shallow_exits_zero(self, capsys):
        assert main(["reach", MODEL, CONFIG, "--depth", "4"]) == 0
        out = capsys.readouterr().out
        assert "unsafe exposure reachable: False" in out
        assert out.endswith(" sequences, agree\n")

    def test_config_without_a_ledger_exits_zero(self, tmp_path, capsys):
        partial = tmp_path / "config.json"
        partial.write_text(json.dumps({"stabilization_window_ms": 10}))
        assert main(["reach", MODEL, str(partial), "--depth", "4"]) == 0
        assert "unsafe exposure reachable: False" in capsys.readouterr().out

    def test_disagreements_are_printed(self, tmp_path, capsys, monkeypatch):
        # a branch that shares its parent's ledger, as in
        # test_reach.py::test_cross_check_catches_a_branch_sharing_its_ledger
        branch = ExecState.branch

        def sharing_branch(state):
            dup = branch(state)
            dup.ledger = state.ledger
            return dup

        monkeypatch.setattr(ExecState, "branch", sharing_branch)
        report = tmp_path / "reach.json"
        assert main(["reach", MODEL, CONFIG, "--depth", "8", "--json", str(report)]) == 1
        body = json.loads(report.read_text())
        disagreements = body["cross_check_disagreements"]
        assert len(disagreements) == 585
        lines = capsys.readouterr().out.splitlines()
        assert lines[-7:] == [
            f"cross-check: {body['cross_checked']} sequences, DISAGREE",
            *[f"  {line}" for line in disagreements[:5]],
            "  (+580 more)",
        ]

    def test_unprotected_exits_one_with_counterexample(self, capsys):
        assert main(["reach", MODEL, CONFIG, "--depth", "4", "--no-executive",
                     "--no-cross-check"]) == 1
        assert "counterexample" in capsys.readouterr().out

    def test_negative_depth_exits_two(self, capsys):
        assert main(["reach", MODEL, CONFIG, "--depth", "-1"]) == 2
        captured = capsys.readouterr()
        assert "complete" not in captured.out
        assert len(captured.err.strip().splitlines()) == 1
        assert "depth" in captured.err


def _mutated(path, mutate):
    data = json.loads(open(path, encoding="utf-8").read())
    mutate(data)
    return data


_EXPECTED_REQUIREMENT = ("scenario expected_outcome requirement must be one of R1, R8, R14, "
                         "R15, R16, R20, R21, R23, R24, R25, R26, got ")


def _json_edit(mutate):
    """A rewrite of a JSON file's text that applies ``mutate`` to its data."""
    def rewrite(text):
        data = json.loads(text)
        mutate(data)
        return json.dumps(data)
    return rewrite


# inserts an exposure request with no anchor in the timeline
_SPURIOUS_REQUEST = {"target": {"kind": "exposureRequest"}, "transform": "SpuriousInsert",
                     "source_ref": "shard:Capture X-ray/Commission",
                     "event": {"t": 5900, "source": "Radiographer", "kind": "exposureRequest"}}
_SELECTOR_KIND = "selector kind must be one of commandConfirm, voiceStop, "

# negates the self-test's "ready" field
_CORRUPT_SELF_TEST = {"target": {"kind": "commandConfirm", "ordinal": 1},
                      "transform": "CorruptValue", "source_ref": "uca:UCA01",
                      "payload_field": "ready", "mutation": "negate"}


class TestMalformedInputs:
    """Malformed input exits 2 with a one-line reason, never 1 with a traceback."""

    SCENARIO = str(data_path("scenarios", "uca28.json"))

    @pytest.mark.parametrize("mutate,reason", [
        (lambda d: d.pop("name"), "missing 'name'"),
        (lambda d: d["base_timeline"][2].update(t="1000"),
         "base_timeline[2]: event t must be a non-negative integer"),
        (lambda d: d["base_timeline"][2].update(t=True),
         "event t must be a non-negative integer, got True"),
        (lambda d: d.update(injection=d.pop("injections")),
         "scenario has unknown key 'injection'"),
        (lambda d: d["base_timeline"][2].update(paylod=d["base_timeline"][2].pop("payload")),
         "base_timeline[2]: event has unknown key 'paylod'"),
        (lambda d: d.update(schema_version="scenario/9"),
         "scenario schema_version must be 'scenario/1', got 'scenario/9'"),
        (lambda d: d["base_timeline"][0]["payload"].update(action=["selfTest"]),
         "base_timeline[0]: event payload action must be text, got ['selfTest']"),
        (lambda d: d["base_timeline"][0]["payload"].update(action="decide", guard=["g"]),
         "base_timeline[0]: event payload guard must be text, got ['g']"),
        (lambda d: d["base_timeline"][1]["payload"].update(view={"name": "CC"}),
         "base_timeline[1]: event payload view must be text, got {'name': 'CC'}"),
        (lambda d: d["base_timeline"].insert(3, {"t": 2000, "source": "Sensor", "kind": "fault",
                                                 "payload": {"detail": ["encoder"]}}),
         "base_timeline[3]: event payload detail must be text, got ['encoder']"),
        (lambda d: d["base_timeline"].insert(3, {"t": 2000, "source": "Sensor", "kind": "fault",
                                                 "payload": {"detail": {"code": 7}}}),
         "base_timeline[3]: event payload detail must be text, got {'code': 7}"),
        (lambda d: d.update(injections=[dict(_CORRUPT_SELF_TEST, payload_field="action")]),
         "negate needs a boolean or a number, got 'selfTest'"),
        (lambda d: d.update(injections=[dict(_CORRUPT_SELF_TEST, payload_field=["ready"])]),
         "injections[0]: injection payload_field must be text, got ['ready']"),
        (lambda d: d.update(injections=[dict(
            _CORRUPT_SELF_TEST, target={"kind": "commandConfirm", "action": "stageIdentified",
                                        "ordinal": 1},
            payload_field="view", mutation="zero")]),
         "event at 500: payload view must be text, got 0"),
        (lambda d: d["expected_outcome"].update(requirement=["R24"]),
         _EXPECTED_REQUIREMENT + "['R24']"),
        (lambda d: d["expected_outcome"].update(requirement="R99"),
         _EXPECTED_REQUIREMENT + "'R99'"),
        (lambda d: d["expected_outcome"].update(requirement=7), _EXPECTED_REQUIREMENT + "7"),
        (lambda d: d["expected_outcome"].update(requirement=None),
         _EXPECTED_REQUIREMENT + "None"),
        (lambda d: d["expected_outcome"].update(kind="SafeCompletion"),
         "scenario expected_outcome requirement applies only to kind ViolationExpected, "
         "not SafeCompletion"),
        (lambda d: d["base_timeline"][2]["payload"].update(valid="false"),
         "base_timeline[2]: event payload valid must be true or false, got 'false'"),
        (lambda d: d["base_timeline"][0]["payload"].update(ready=1),
         "base_timeline[0]: event payload ready must be true or false, got 1"),
        (lambda d: d["base_timeline"][1]["payload"].update(identified=None),
         "base_timeline[1]: event payload identified must be true or false, got None"),
        (lambda d: d.update(injections=[dict(_CORRUPT_SELF_TEST, mutation="outOfRange")]),
         "outOfRange cannot corrupt boolean payload field 'ready': it must stay true or false"),
        (lambda d: d["injections"][0].update(source_ref=5),
         "injections[0]: injection source_ref must be text, got 5"),
        (lambda d: d["injections"][0].update(source_ref=None),
         "injections[0]: injection source_ref must be text, got None"),
        (lambda d: d.update(injections=[dict(_SPURIOUS_REQUEST, target={"kind": 5})]),
         _SELECTOR_KIND),
        (lambda d: d.update(injections=[dict(_SPURIOUS_REQUEST, target={"kind": "bogus"})]),
         "tick, got 'bogus'"),
        (lambda d: d["injections"][0]["target"].update(kind="bogus"), _SELECTOR_KIND),
        (lambda d: d.update(injections=[dict(_SPURIOUS_REQUEST, target={
            "kind": "exposureRequest", "action": ["x"]})]),
         "injections[0]: selector action must be text, got ['x']"),
        (lambda d: d["injections"][0]["target"].update(ordinal=0),
         "injections[0]: selector ordinal counts from 1, got 0"),
        (lambda d: d["injections"][0].update(event=_SPURIOUS_REQUEST["event"]),
         "injections[0]: ShiftEarly injection has unknown key 'event'"),
        (lambda d: d["injections"][0].update(payload_field="valid"),
         "injections[0]: ShiftEarly injection has unknown key 'payload_field'"),
        (lambda d: d["injections"][0].update(mutation="negate"),
         "injections[0]: ShiftEarly injection has unknown key 'mutation'"),
        (lambda d: d.update(injections=[dict(_SPURIOUS_REQUEST, delta_ms=999999)]),
         "injections[0]: SpuriousInsert injection has unknown key 'delta_ms'"),
        (lambda d: d["injections"][0].update(transform="Explode"),
         "injections[0]: injection transform must be one of Drop, SpuriousInsert, ShiftEarly, "
         "ShiftLate, CorruptValue, got 'Explode'"),
        (lambda d: d["injections"][0].update(transform=["ShiftEarly"]),
         "injections[0]: injection transform must be text, got ['ShiftEarly']"),
        (lambda d: d.update(injections=[{key: value for key, value in _SPURIOUS_REQUEST.items()
                                         if key != "event"}]),
         "injections[0]: SpuriousInsert needs an event"),
        (lambda d: d.update(injections=[dict(_SPURIOUS_REQUEST, event={})]),
         "injections[0]: event is missing 't'"),
        (lambda d: d.update(injections=[{key: value for key, value in _CORRUPT_SELF_TEST.items()
                                         if key != "payload_field"}]),
         "injections[0]: CorruptValue needs a payload_field"),
        (lambda d: d.update(injections=[dict(_CORRUPT_SELF_TEST, mutation="explode")]),
         "injections[0]: mutation must be one of negate, zero, outOfRange, staleDuplicate, "
         "got 'explode'"),
    ], ids=["no-name", "text-t", "bool-t", "misspelt-injections", "misspelt-payload",
            "foreign-version", "list-action", "list-guard", "object-view", "list-detail",
            "object-detail", "negated-text", "list-payload-field", "zero-view",
            "list-requirement",
            "unknown-requirement", "number-requirement", "null-requirement",
            "requirement-without-violation", "text-valid", "number-ready", "null-identified",
            "out-of-range-ready", "number-source-ref", "null-source-ref",
            "spurious-number-kind", "spurious-unknown-kind", "unknown-kind", "spurious-list-action",
            "zero-ordinal", "shift-with-event", "shift-with-payload-field",
            "shift-with-mutation", "insert-with-delta", "unknown-transform", "list-transform",
            "insert-without-event", "empty-event", "corrupt-without-payload-field",
            "unknown-mutation"])
    def test_malformed_scenario(self, tmp_path, capsys, mutate, reason):
        bad = tmp_path / "scenario.json"
        bad.write_text(json.dumps(_mutated(self.SCENARIO, mutate)))
        assert main(["simulate", MODEL, CONFIG, str(bad)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert reason in err

    @pytest.mark.parametrize("command,mutate,reason", [
        ("simulate", lambda d: d.update(stabilization_window_ms="abc"),
         "stabilization_window_ms must be a non-negative integer"),
        ("campaign", lambda d: d.update(required_views=[]),
         "required_views must name at least one view"),
        ("simulate", lambda d: d.update(required_views=["CC", "CC", "MLO-L"]),
         "config required_views names 'CC' more than once"),
        ("campaign", lambda d: d["ledger"].update(exposure=["Robot", "Patient"]),
         "names unknown 'Robot'"),
        ("simulate", lambda d: d.update(stabilisation_window_ms=0),
         "config has unknown key 'stabilisation_window_ms'"),
        ("simulate", lambda d: d.update(schema_version="exec-config/9"),
         "config schema_version must be 'exec-config/1', got 'exec-config/9'"),
        ("simulate", lambda d: d["ledger"].update(Resume=d["ledger"].pop("resume")),
         "config ledger has unknown key 'Resume'"),
        ("simulate", lambda d: d["ledger"].pop("resume"),
         "config ledger is missing 'resume'"),
        ("campaign", lambda d: d["ledger"].update(resume=[]),
         "config ledger 'resume' must name at least one source"),
        ("simulate", lambda d: d["ledger"].update(resume=["Radiographer", "Radiographer",
                                                          "Patient"]),
         "config ledger 'resume' names 'Radiographer' more than once"),
    ], ids=["text-window", "no-views", "repeated-view", "unknown-source", "misspelt-key",
            "foreign-version", "misspelt-ledger-action", "missing-ledger-action",
            "empty-ledger-action", "repeated-ledger-source"])
    def test_malformed_config(self, tmp_path, capsys, command, mutate, reason):
        bad = tmp_path / "config.json"
        bad.write_text(json.dumps(_mutated(CONFIG, mutate)))
        argv = {"simulate": ["simulate", MODEL, str(bad), self.SCENARIO],
                "campaign": ["campaign", MODEL, str(bad), "-n", "5", "--seed", "1"]}[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "soundness violations" not in captured.out
        assert len(captured.err.strip().splitlines()) == 1
        assert reason in captured.err

    @pytest.mark.parametrize("shipped,rewrite,reason", [
        ("uca_catalog.csv", lambda text: re.sub(r"(?m)^(\w+),[^,]*,", r"\1,", text),
         "uca_catalog.csv row 1: missing column 'node'"),
        ("requirements.json", _json_edit(lambda d: d["requirements"][0].pop("category")),
         "requirements.json row 1: missing column 'category'"),
        ("requirements.json", lambda text: json.dumps(json.loads(text)["requirements"]),
         "requirements.json must be a JSON object, got list"),
        ("shard_rules.json",
         _json_edit(lambda d: d["overrides"]["System ready?"].pop("justification")),
         "rules override 'System ready?' is missing 'justification'"),
        ("traceability.json", _json_edit(lambda d: d["links"]["R1"][0].update(relation="derives")),
         "traceability.json row 1: unknown relation 'derives'"),
        ("shard_catalog.json", _json_edit(lambda d: d.update(schema_version="shard-catalog/9")),
         "shard_catalog.json schema_version must be 'shard-catalog/1', got 'shard-catalog/9'"),
        ("requirements.json", _json_edit(lambda d: d.update(schema_version="requirements/9")),
         "requirements.json schema_version must be 'requirements/1', got 'requirements/9'"),
        ("traceability.json", _json_edit(lambda d: d.update(schema_version="traceability/9")),
         "traceability.json schema_version must be 'traceability/1', got 'traceability/9'"),
        ("shard_rules.json", _json_edit(lambda d: d.update(schema_version="shard-rules/9")),
         "rules schema_version must be 'shard-rules/1', got 'shard-rules/9'"),
        ("requirements.json", _json_edit(lambda d: d.update(notes="draft")),
         "requirements.json has unknown key 'notes'"),
        ("shard_rules.json",
         _json_edit(lambda d: d["defaults"].update(Actoin=d["defaults"].pop("Action"))),
         "rules defaults has unknown key 'Actoin'"),
        ("shard_catalog.csv", lambda text: text.replace("shard-catalog/1", "shard-catalog/9"),
         "shard_catalog.csv schema_version must be 'shard-catalog/1', got 'shard-catalog/9'"),
        ("uca_catalog.csv", lambda text: text.replace("uca-catalog/1", "cue-catalog/1"),
         "uca_catalog.csv schema_version must be 'uca-catalog/1', got 'cue-catalog/1'"),
        ("cue_catalog.csv", lambda text: text.replace("cue-catalog/1", "cue-catalog/2"),
         "cue_catalog.csv schema_version must be 'cue-catalog/1', got 'cue-catalog/2'"),
    ], ids=["uca-no-node", "requirement-no-category", "requirements-list",
            "override-no-justification", "link-relation", "catalog-foreign-version",
            "requirements-foreign-version", "links-foreign-version", "rules-foreign-version",
            "requirements-unknown-key", "misspelt-node-kind", "csv-catalog-foreign-version",
            "uca-foreign-version", "cue-foreign-version"])
    def test_malformed_catalog(self, tmp_path, capsys, shipped, rewrite, reason):
        bad = tmp_path / shipped
        bad.write_text(rewrite(data_path(shipped).read_text(encoding="utf-8")), encoding="utf-8")
        stpa = ["stpa-report"] + [str(bad if name == shipped else data_path(name)) for name in
                                  ("uca_catalog.csv", "cue_catalog.csv", "requirements.json")]
        argv = {"shard_rules.json": ["shard-report", MODEL, SHARD, "--rules", str(bad)],
                "shard_catalog.json": ["shard-report", MODEL, str(bad)],
                "shard_catalog.csv": ["shard-report", MODEL, str(bad)],
                "traceability.json": stpa + ["--links", str(bad)]}.get(shipped, stpa)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert reason in captured.err

    @pytest.mark.parametrize("shipped,load", [
        ("shard_catalog.csv", load_shard_catalog),
        ("uca_catalog.csv", load_uca_catalog),
        ("cue_catalog.csv", load_cue_catalog),
    ], ids=["shard", "uca", "cue"])
    def test_csv_catalog_without_schema_line_loads(self, tmp_path, shipped, load):
        lines = data_path(shipped).read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines[0].startswith("# schema: ")
        bare = tmp_path / shipped
        bare.write_text("".join(lines[1:]), encoding="utf-8")
        assert load(bare) == load(data_path(shipped))
