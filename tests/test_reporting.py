import pytest

from hazgate.campaign import run_random_campaign
from hazgate.datafiles import data_path
from hazgate.executive import ExecConfig
from hazgate.reporting import (
    build_campaign_bundle,
    build_shard_bundle,
    build_stpa_bundle,
    config_hash,
    emit_report,
)
from hazgate.shard import canonical_rules, load_shard_catalog
from hazgate.stpa import load_canonical_stpa, trace_to_requirements


@pytest.fixture(scope="module")
def shard_bundle(mammobot):
    catalog = load_shard_catalog(data_path("shard_catalog.csv"))
    return build_shard_bundle(mammobot, canonical_rules(), catalog, {"model": "m"})


class TestConfigHash:
    def test_stable(self, config):
        assert config_hash(config) == config_hash(config)

    def test_sensitive_to_values(self, config):
        other = ExecConfig(stabilization_window_ms=999)
        assert config_hash(config) != config_hash(other)


class TestShardBundle:
    def test_clean_and_complete(self, shard_bundle):
        assert shard_bundle.clean
        coverage = shard_bundle.section("coverage")
        assert coverage["slots"] == 77 and coverage["filled"] == 77

    def test_histogram_csv_header(self, shard_bundle):
        text = emit_report(shard_bundle, "csv")
        assert text.splitlines()[0] == "node,high,medium,low,annoyance"
        assert text.splitlines()[-1].startswith("TOTAL,33,19,11,14")

    def test_markdown_contains_guideword_table(self, shard_bundle):
        text = emit_report(shard_bundle, "md")
        assert "## guidewords" in text
        assert "| Omission |" in text

    def test_metadata_names_inputs_and_version(self, shard_bundle):
        assert shard_bundle.metadata["model"] == "m"
        assert "tool_version" in shard_bundle.metadata


class TestStpaBundle:
    def test_matrix_has_27_rows(self):
        ucas, cues, requirements, links = load_canonical_stpa()
        shard = load_shard_catalog(data_path("shard_catalog.csv"))
        matrix = trace_to_requirements(ucas, cues, shard, requirements, links)
        bundle = build_stpa_bundle(ucas, cues, requirements, matrix, {})
        table = bundle.section("traceability matrix")
        assert len(table["rows"]) == 27
        assert table["rows"][0][0] == "R1"
        assert table["rows"][-1][0] == "R27"
        assert bundle.clean


class TestDeterminism:
    def test_identical_bundles_identical_bytes(self, mammobot):
        catalog = load_shard_catalog(data_path("shard_catalog.csv"))
        a = build_shard_bundle(mammobot, canonical_rules(), catalog, {"model": "m"})
        b = build_shard_bundle(mammobot, canonical_rules(), catalog, {"model": "m"})
        for fmt in ("json", "md", "csv"):
            assert emit_report(a, fmt) == emit_report(b, fmt)

    def test_campaign_bundle_roundtrip(self, mammobot, config, tmp_path):
        report = run_random_campaign(mammobot, config, 50, seed=3)
        bundle = build_campaign_bundle(report, config, {"model": "m"})
        out = tmp_path / "campaign.md"
        emit_report(bundle, "md", out)
        text = out.read_text()
        assert "config_hash" in text
        assert "## verdicts" in text

    def test_unknown_format_rejected(self, shard_bundle):
        with pytest.raises(ValueError):
            emit_report(shard_bundle, "pdf")
