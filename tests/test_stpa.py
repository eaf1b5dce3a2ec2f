import pytest

from hazgate.datafiles import data_path
from hazgate.shard import CatalogError, load_shard_catalog
from hazgate.stpa import (
    load_canonical_stpa,
    load_cue_catalog,
    load_uca_catalog,
    trace_to_requirements,
)


@pytest.fixture(scope="module")
def catalogs():
    return load_canonical_stpa()


class TestCatalogs:
    def test_shipped_counts(self, catalogs):
        ucas, cues, _, _ = catalogs
        assert len(ucas) == 35
        assert [u.id for u in ucas] == [f"UCA{i:02d}" for i in range(1, 36)]
        assert len(cues) == 7
        assert [c.id for c in cues] == [f"CUE0{i}" for i in range(1, 8)]

    def test_role_partition(self, catalogs):
        ucas, _, _, _ = catalogs
        roles = [u.role for u in ucas]
        assert set(roles) <= {"R", "P"}
        assert roles.count("R") + roles.count("P") == 35

    def test_uca28_row(self, catalogs):
        ucas, _, _, _ = catalogs
        uca28 = next(u for u in ucas if u.id == "UCA28")
        assert uca28.causes == "Rushed workflow"
        assert uca28.detection == "Exposure gating"
        assert uca28.hazard_level == "High"
        assert uca28.node_label == "Capture X-ray"

    def test_hazard_levels_valid(self, catalogs):
        ucas, cues, _, _ = catalogs
        levels = {u.hazard_level for u in ucas} | {c.hazard_level for c in cues}
        assert levels <= {"High", "Medium", "Low", "Annoyance"}

    def test_histogram_totals_42(self, catalogs):
        ucas, cues, _, _ = catalogs
        assert len(ucas) + len(cues) == 42

    def test_bad_role_rejected(self, tmp_path):
        bad = tmp_path / "uca.csv"
        bad.write_text(
            "id,node,role,category,causes,effects,detection,recommendation,hazard_level\n"
            "UCA01,Capture X-ray,C,NotProvided,c,e,d,r,High\n"
        )
        with pytest.raises(CatalogError, match="role"):
            load_uca_catalog(bad)

    def test_bad_category_rejected(self, tmp_path):
        bad = tmp_path / "uca.csv"
        bad.write_text(
            "id,node,role,category,causes,effects,detection,recommendation,hazard_level\n"
            "UCA01,Capture X-ray,R,TooLate,c,e,d,r,High\n"
        )
        with pytest.raises(CatalogError, match="category"):
            load_uca_catalog(bad)

    def test_duplicate_uca_id_rejected(self, tmp_path):
        bad = tmp_path / "uca.csv"
        bad.write_text(
            "id,node,role,category,causes,effects,detection,recommendation,hazard_level\n"
            "UCA01,Capture X-ray,R,NotProvided,c,e,d,r,High\n"
            "UCA01,Capture X-ray,P,ProvidedUnsafe,c,e,d,r,Low\n"
        )
        with pytest.raises(CatalogError, match="duplicate"):
            load_uca_catalog(bad)

    def test_bad_cue_id_rejected(self, tmp_path):
        bad = tmp_path / "cue.csv"
        bad.write_text(
            "id,description,causes,effects,detection,recommendation,hazard_level\n"
            "CUE09,d,c,e,det,rec,High\n"
        )
        with pytest.raises(CatalogError, match="CUE id"):
            load_cue_catalog(bad)


class TestRequirements:
    def test_registry_has_r1_to_r27(self, catalogs):
        _, _, requirements, _ = catalogs
        assert [r.id for r in requirements] == [f"R{i}" for i in range(1, 28)]

    def test_methodology_spot_checks(self, catalogs):
        _, _, requirements, _ = catalogs
        by_id = {r.id: r for r in requirements}
        assert by_id["R24"].methodology == {"SHARD", "STPA"}
        assert by_id["R22"].methodology == {"STPA"}
        assert by_id["R14"].methodology == {"SHARD"}
        assert by_id["R16"].methodology == {"SHARD", "STPA"}
        assert by_id["R20"].methodology == {"SHARD"}
        assert by_id["R26"].methodology == {"STPA"}

    def test_categories(self, catalogs):
        _, _, requirements, _ = catalogs
        by_cat = {}
        for r in requirements:
            by_cat.setdefault(r.category, []).append(r.id)
        assert by_cat["Functional"] == [f"R{i}" for i in range(1, 10)]
        assert by_cat["Safety"] == [f"R{i}" for i in range(10, 17)]
        assert by_cat["HRI"] == ["R17", "R18", "R19"]
        assert by_cat["Additional"] == [f"R{i}" for i in range(20, 28)]


class TestTraceability:
    def test_canonical_matrix_is_clean(self, catalogs):
        ucas, cues, requirements, links = catalogs
        shard = load_shard_catalog(data_path("shard_catalog.csv"))
        matrix = trace_to_requirements(ucas, cues, shard, requirements, links)
        assert matrix.mismatches == []
        assert matrix.broken_refs == []

    def test_r24_links(self, catalogs):
        ucas, cues, requirements, links = catalogs
        shard = load_shard_catalog(data_path("shard_catalog.csv"))
        matrix = trace_to_requirements(ucas, cues, shard, requirements, links)
        refs = {(ln.kind, ln.ref) for ln in matrix.links_for("R24")}
        assert ("uca", "UCA28") in refs
        assert ("shard", "Capture X-ray/Early") in refs
        assert ("shard", "Capture X-ray/Commission") in refs

    def test_additional_requirements_all_derive_from_findings(self, catalogs):
        ucas, cues, requirements, links = catalogs
        shard = load_shard_catalog(data_path("shard_catalog.csv"))
        matrix = trace_to_requirements(ucas, cues, shard, requirements, links)
        for rid in [f"R{i}" for i in range(20, 28)]:
            assert any(
                ln.relation == "derivesFrom" for ln in matrix.links_for(rid)
            ), f"{rid} has no derivesFrom link"

    def test_empty_catalogs_flag_every_requirement(self, catalogs):
        _, _, requirements, links = catalogs
        matrix = trace_to_requirements([], [], [], requirements, links)
        flagged = {m.split(":")[0] for m in matrix.mismatches}
        assert {f"R{i}" for i in range(20, 28)} <= flagged
