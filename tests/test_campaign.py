import hashlib
from dataclasses import replace

import pytest

from hazgate import campaign
from hazgate.campaign import SOUNDNESS_REQUIREMENTS, run_random_campaign


class TestCampaign:
    def test_single_scenario(self, mammobot, config):
        report = run_random_campaign(mammobot, config, 1, seed=1)
        assert report.n == 1
        assert sum(report.outcomes.values()) == 1

    def test_n_zero_rejected(self, mammobot, config):
        with pytest.raises(ValueError):
            run_random_campaign(mammobot, config, 0, seed=1)

    def test_same_seed_identical_reports(self, mammobot, config):
        first = run_random_campaign(mammobot, config, 300, seed=99)
        second = run_random_campaign(mammobot, config, 300, seed=99)
        assert first.to_json() == second.to_json()

    @pytest.mark.parametrize("enabled,digest", [
        (True, "f3ca1f0a8ae9d91ebd1c8bfd8c2b0a5de3d7cdfadd1daba6491d3141ec230505"),
        (False, "48c331239d5d352bd6cc1df7df2e0f458b25ac3b27948cd94a2d29aacdccddee"),
    ])
    def test_report_bytes_pinned(self, mammobot, config, enabled, digest):
        """Report bytes for n=300, seed 7, as produced before the monitor bank
        shared its per-trace facts; a refactor of the monitors must keep them.
        Since then only ``injections_skipped`` moved (3 -> 18), when the
        injections the campaign draws but cannot aim began to count."""
        report = run_random_campaign(mammobot, config, 300, seed=7, executive_enabled=enabled)
        assert hashlib.sha256(report.to_json().encode("utf-8")).hexdigest() == digest

    def test_different_seeds_differ(self, mammobot, config):
        first = run_random_campaign(mammobot, config, 300, seed=1)
        second = run_random_campaign(mammobot, config, 300, seed=2)
        assert first.to_json() != second.to_json()

    def test_protected_campaign_is_sound(self, mammobot, config):
        report = run_random_campaign(mammobot, config, 1500, seed=7)
        assert report.violated_count(SOUNDNESS_REQUIREMENTS) == 0, report.violations[:5]
        assert report.injections_applied > 0

    def test_unprotected_campaign_finds_hazards(self, mammobot, config):
        report = run_random_campaign(mammobot, config, 300, seed=7,
                                     executive_enabled=False)
        assert report.violated_count() > 0
        assert report.outcomes.get("Violation", 0) > 0

    def test_soundness_set(self):
        assert SOUNDNESS_REQUIREMENTS == ("R14", "R20", "R21", "R23", "R24", "R25")


def _retakes_drawn(monkeypatch, mammobot, config) -> int:
    """Retakes in the nominal timelines a 20-scenario campaign at seed 1 draws."""
    scenarios = []
    generate = campaign.generate_campaign_scenario

    def recording(*args):
        scenarios.append(generate(*args))
        return scenarios[-1]

    monkeypatch.setattr(campaign, "generate_campaign_scenario", recording)
    report = run_random_campaign(mammobot, config, 20, seed=1)
    assert report.n == len(scenarios) == 20
    return sum(e.kind == "exposureComplete" and e.payload.get("retake") is True
               for scenario in scenarios for e in scenario.base_timeline)


def test_campaign_without_retakes_draws_none(monkeypatch, mammobot, config):
    """A config with no retake allowance is a valid campaign input."""
    assert _retakes_drawn(monkeypatch, mammobot, config) > 0
    assert _retakes_drawn(monkeypatch, mammobot, replace(config, max_retakes_per_view=0)) == 0


def test_every_sampled_injection_is_applied_or_skipped(monkeypatch, mammobot, config):
    """An injection the campaign draws but cannot aim counts as skipped."""
    sampled = []
    sample = campaign._sample_injection

    def recording(*args):
        sampled.append(sample(*args))
        return sampled[-1]

    monkeypatch.setattr(campaign, "_sample_injection", recording)
    report = run_random_campaign(mammobot, config, 300, seed=7)
    assert None in sampled
    assert report.injections_applied + report.injections_skipped == len(sampled)


def test_empty_catalog_is_not_replaced(monkeypatch, mammobot, config):
    """Only a catalog left at None defaults to the shipped one; an empty SHARD
    catalog beside the default UCA catalog draws UCA rows alone."""
    sampled = []
    sample = campaign._sample_injection

    def recording(rng, timeline, shard_catalog, ucas):
        sampled.append((shard_catalog, sample(rng, timeline, shard_catalog, ucas)))
        return sampled[-1][1]

    monkeypatch.setattr(campaign, "_sample_injection", recording)
    run_random_campaign(mammobot, config, 50, seed=3, shard_catalog=[])
    refs = [injection.source_ref for _, injection in sampled if injection is not None]
    assert refs and all(ref.startswith("uca:") for ref in refs)
    assert all(catalog == [] for catalog, _ in sampled)


def test_two_empty_catalogs_rejected(mammobot, config):
    with pytest.raises(ValueError, match="SHARD or UCA catalog"):
        run_random_campaign(mammobot, config, 5, seed=1, shard_catalog=[], ucas=[])
