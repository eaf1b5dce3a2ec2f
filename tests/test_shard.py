import pytest

from hazgate.datafiles import data_path
from hazgate.model import parse_model
from hazgate.shard import (
    GUIDEWORD_DEFINITIONS,
    GUIDEWORDS,
    ApplicabilityRule,
    CatalogError,
    applicable_guidewords,
    canonical_rules,
    coverage_report,
    generate_worksheet,
    load_shard_catalog,
    severity_histogram,
)

MINIMAL = """\
process minimal
initial start
final end
action work "Do the work" actor=A
edge start -> work
edge work -> end
"""


@pytest.fixture(scope="module")
def rules():
    return canonical_rules()


@pytest.fixture()
def catalog():
    return load_shard_catalog(data_path("shard_catalog.csv"))


class TestGuidewords:
    def test_exactly_five_in_fixed_order(self):
        assert GUIDEWORDS == ("Omission", "Commission", "Early", "Late", "Value")

    def test_adapted_definitions(self):
        # frozen from the reference material during catalog transcription
        assert GUIDEWORD_DEFINITIONS["Omission"].startswith(
            "The robotic service is not performed when required"
        )
        assert GUIDEWORD_DEFINITIONS["Commission"].startswith(
            "A robotic service is performed without a valid trigger"
        )
        assert GUIDEWORD_DEFINITIONS["Early"].startswith(
            "The robotic service occurs earlier than intended"
        )
        assert GUIDEWORD_DEFINITIONS["Late"].startswith(
            "The robotic service occurs later than intended"
        )
        assert GUIDEWORD_DEFINITIONS["Value"].startswith(
            "The information (data) or physical output delivered has the wrong value"
        )
        assert set(GUIDEWORD_DEFINITIONS) == set(GUIDEWORDS)


class TestApplicability:
    def test_trajectory_valid_gets_decision_default(self, mammobot, rules):
        node = mammobot.node_by_label("Trajectory valid?")
        assert applicable_guidewords(node, rules) == ("Omission", "Commission", "Value")

    def test_capture_action_gets_all_five(self, mammobot, rules):
        node = mammobot.node_by_label("Capture X-ray")
        assert applicable_guidewords(node, rules) == GUIDEWORDS

    def test_fault_detected_override_restores_all_five(self, mammobot, rules):
        node = mammobot.node_by_label("Fault detected?")
        assert applicable_guidewords(node, rules) == GUIDEWORDS

    def test_hri_interruption_drops_early_only(self, mammobot, rules):
        node = mammobot.node_by_label("HRI interruption?")
        assert applicable_guidewords(node, rules) == ("Omission", "Commission", "Late", "Value")

    def test_override_requires_justification(self):
        rule = ApplicabilityRule()
        with pytest.raises(ValueError, match="justification"):
            rule.add_override("Patient OK?", ["Omission"], "  ")


class TestWorksheet:
    def test_canonical_slot_count_is_77(self, mammobot, rules):
        assert len(generate_worksheet(mammobot, rules)) == 77

    def test_default_rules_give_70_slots(self, mammobot):
        assert len(generate_worksheet(mammobot, ApplicabilityRule())) == 8 * 5 + 10 * 3

    def test_minimal_model_five_slots(self):
        slots = generate_worksheet(parse_model(MINIMAL), ApplicabilityRule())
        assert [s.guideword for s in slots] == list(GUIDEWORDS)

    def test_slot_order_follows_node_then_guideword_order(self, mammobot, rules):
        slots = generate_worksheet(mammobot, rules)
        node_order = [n.id for n in mammobot.nodes]
        positions = [node_order.index(s.node_id) for s in slots]
        assert positions == sorted(positions)


class TestCatalog:
    def test_loads_77_records(self, catalog):
        assert len(catalog) == 77

    def test_capture_commission_row(self, catalog):
        row = next(
            r for r in catalog
            if r.node_label == "Capture X-ray" and r.guideword == "Commission"
        )
        assert row.effects == "Unnecessary radiation dose"
        assert row.detection == "Two-step confirmation before exposure"
        assert row.hazard_level == "High"

    def test_json_mirror_matches_csv(self, catalog):
        assert load_shard_catalog(data_path("shard_catalog.json")) == catalog

    def test_empty_file_gives_empty_catalog(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("node,guideword,deviation,causes,effects,detection,recommendation,hazard_level\n")
        assert load_shard_catalog(empty) == []

    def test_unknown_hazard_level_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "node,guideword,deviation,causes,effects,detection,recommendation,hazard_level\n"
            "Capture X-ray,Commission,d,c,e,det,rec,Catastrophic\n"
        )
        with pytest.raises(CatalogError, match="hazard level"):
            load_shard_catalog(bad)

    def test_duplicate_row_rejected(self, tmp_path):
        bad = tmp_path / "dup.csv"
        bad.write_text(
            "node,guideword,deviation,causes,effects,detection,recommendation,hazard_level\n"
            "Capture X-ray,Commission,d,c,e,det,rec,High\n"
            "Capture X-ray,Commission,d,c2,e2,det2,rec2,Low\n"
        )
        with pytest.raises(CatalogError, match="duplicate"):
            load_shard_catalog(bad)

    def test_unresolvable_label_against_model(self, mammobot, tmp_path):
        bad = tmp_path / "label.csv"
        bad.write_text(
            "node,guideword,deviation,causes,effects,detection,recommendation,hazard_level\n"
            "Warp drive,Commission,d,c,e,det,rec,High\n"
        )
        with pytest.raises(CatalogError, match="unresolvable"):
            load_shard_catalog(bad, model=mammobot)


class TestCoverage:
    def test_canonical_coverage_is_complete(self, mammobot, rules, catalog):
        report = coverage_report(generate_worksheet(mammobot, rules), catalog)
        assert report.clean
        assert report.fill_ratio == 1.0
        assert report.total_slots == 77

    def test_deleting_a_node_creates_drift(self, mammobot, rules, catalog):
        # worksheet of a model without Patient OK? == canonical minus its slots
        slots = [
            s for s in generate_worksheet(mammobot, rules) if s.node_label != "Patient OK?"
        ]
        report = coverage_report(slots, catalog)
        assert {r.node_label for r in report.drift} == {"Patient OK?"}
        assert len(report.drift) == 5

    def test_empty_catalog_leaves_all_pending(self, mammobot, rules):
        report = coverage_report(generate_worksheet(mammobot, rules), [])
        assert len(report.pending) == 77
        assert report.fill_ratio == 0.0


class TestHistogram:
    def test_totals_match_transcription(self, catalog):
        hist = severity_histogram(catalog)
        assert hist["totals"] == {"High": 33, "Medium": 19, "Low": 11, "Annoyance": 14}
        assert sum(hist["totals"].values()) == len(catalog)

    def test_system_initialisation_breakdown(self, catalog):
        hist = severity_histogram(catalog)
        assert hist["per_node"]["System initialisation"] == {
            "High": 2, "Medium": 2, "Low": 0, "Annoyance": 1,
        }

    def test_single_row(self, catalog):
        hist = severity_histogram(catalog[:1])
        assert hist["totals"]["High"] == 1
        assert sum(hist["totals"].values()) == 1

    def test_order_is_ascending_severity(self, catalog):
        assert severity_histogram(catalog)["order"] == ("Annoyance", "Low", "Medium", "High")
