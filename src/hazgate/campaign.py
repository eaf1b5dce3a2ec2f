"""Randomized injection campaigns over the safety executive.

Each campaign scenario is an independently seeded, jittered nominal session
with one or two injections sampled from the SHARD and UCA catalogs (the
deviation guideword or UCA category picks the transform; the finding's node
picks which events are targeted).  CorruptValue corrupts the boolean
payload field the executive declares for the target's kind or action
(``executive.NOMINAL_EVENTS``, ``CONFIRM_ACTIONS``), or a stage's view.
Scenarios run sequentially, each from a fresh initial state; reports
aggregate outcomes and per-requirement verdict counts and are
byte-reproducible from (model, config, n, seed).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from .datafiles import data_path
from .executive import CONFIRM_ACTIONS, NOMINAL_EVENTS, Event, ExecConfig
from .model import ProcessModel, normalize_label
from .monitors import (
    MONITORED_REQUIREMENTS,
    NOT_APPLICABLE,
    SATISFIED,
    VIOLATED,
    evaluate_monitors,
)
from .scenarios import (
    Injection,
    InjectionError,
    Scenario,
    Selector,
    TRANSFORM_FOR_GUIDEWORD,
    apply_injection,
    nominal_timeline,
)
from .shard import load_shard_catalog
from .simulate import classify_outcome, run_events
from .stpa import load_uca_catalog

SOUNDNESS_REQUIREMENTS = ("R14", "R20", "R21", "R23", "R24", "R25")

CATEGORY_TRANSFORM = {
    "NotProvided": "Drop",
    "ProvidedUnsafe": "SpuriousInsert",
    "WrongTimingOrSequence": "ShiftEarly",
    "WrongDurationOrPersistence": "ShiftLate",
}

# node label (normalized) -> event selectors that plausibly realise a
# deviation of that workflow step
_NODE_EVENT_KINDS = {
    "systeminitialisation": [("commandConfirm", "selfTest")],
    "systemready": [("commandConfirm", "selfTest")],
    "identifyprocessstage": [("commandConfirm", "stageIdentified")],
    "processstageidentified": [("commandConfirm", "stageIdentified")],
    "determinepatientposture": [("postureUpdate", None)],
    "posturedetected": [("postureUpdate", None)],
    "trajectoryplanning": [("commandConfirm", "planReady")],
    "trajectoryvalid": [("commandConfirm", "planReady")],
    "performarmpositioning": [("commandConfirm", "motionStart"), ("motionComplete", None)],
    "faultdetected": [("motionComplete", None)],
    "hriinterruption": [("commandConfirm", "motionStart")],
    "patientok": [("assent", None)],
    "adjustmentsneeded": [("commandConfirm", "adjustments")],
    "performpositioningadjustments": [("commandConfirm", "motionStart")],
    "capturexray": [("exposureRequest", None), ("commandConfirm", "exposure"),
                    ("exposureComplete", None)],
    "retakeneeded": [("exposureComplete", None)],
    "releasepatient": [("commandConfirm", "release")],
    "processdone": [("commandConfirm", "release")],
}


@dataclass
class CampaignReport:
    n: int
    seed: int
    executive_enabled: bool
    outcomes: dict = field(default_factory=dict)
    verdict_counts: dict = field(default_factory=dict)  # req -> status -> count
    violations: list = field(default_factory=list)  # (index, name, requirement, witness)
    injections_applied: int = 0
    injections_skipped: int = 0

    def violated_count(self, requirements=SOUNDNESS_REQUIREMENTS) -> int:
        return sum(
            self.verdict_counts.get(r, {}).get(VIOLATED, 0) for r in requirements
        )

    def to_json_dict(self) -> dict:
        return {
            "schema_version": "campaign-report/1",
            "n": self.n,
            "seed": self.seed,
            "executive_enabled": self.executive_enabled,
            "outcomes": {k: self.outcomes[k] for k in sorted(self.outcomes)},
            "verdict_counts": {
                r: {s: c for s, c in sorted(self.verdict_counts[r].items())}
                for r in sorted(self.verdict_counts)
            },
            "violations": [
                {"scenario": i, "name": n, "requirement": r, "witness": w}
                for i, n, r, w in self.violations
            ],
            "injections_applied": self.injections_applied,
            "injections_skipped": self.injections_skipped,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"


def _sample_injection(rng: random.Random, timeline, shard_catalog, ucas):
    """One catalog-sampled injection aimed at events the timeline contains,
    or None when the sampled row names no event of the timeline it can
    change; the campaign counts that injection as skipped."""
    if shard_catalog and (not ucas or rng.random() < 0.5):
        row = rng.choice(shard_catalog)
        transform = TRANSFORM_FOR_GUIDEWORD[row.guideword]
        node_key = normalize_label(row.node_label)
        source_ref = f"shard:{row.node_label}/{row.guideword}"
    else:
        row = rng.choice(ucas)
        transform = CATEGORY_TRANSFORM[row.category]
        node_key = normalize_label(row.node_label)
        source_ref = f"uca:{row.id}"

    choices = _NODE_EVENT_KINDS.get(node_key)
    if not choices:
        return None
    kind, action = rng.choice(choices)
    matches = Selector(kind=kind, action=action).matches(timeline)
    if not matches:
        return None
    ordinal = rng.randint(1, len(matches))
    target = Selector(kind=kind, action=action, ordinal=ordinal)
    anchor = timeline[matches[ordinal - 1]]

    if transform == "Drop":
        return Injection(target=target, transform="Drop", source_ref=source_ref)
    if transform == "SpuriousInsert":
        span = timeline[-1].timestamp
        ghost = Event(rng.randint(0, span), anchor.source, anchor.kind, dict(anchor.payload))
        return Injection(target=target, transform="SpuriousInsert",
                         source_ref=source_ref, event=ghost)
    if transform in ("ShiftEarly", "ShiftLate"):
        delta = rng.randint(100, 3000)
        if transform == "ShiftEarly":
            delta = min(delta, anchor.timestamp)
        return Injection(target=target, transform=transform,
                         source_ref=source_ref, delta_ms=delta)
    # CorruptValue: the event's first declared boolean field, or a stage's view
    fields = CONFIRM_ACTIONS[action] if kind == "commandConfirm" else NOMINAL_EVENTS[kind][1]
    payload_field = "view" if action == "stageIdentified" else next(iter(fields), None)
    if payload_field is None or payload_field not in anchor.payload:
        return None
    mutation = "staleDuplicate" if payload_field == "view" else "negate"
    return Injection(target=target, transform="CorruptValue", source_ref=source_ref,
                     payload_field=payload_field, mutation=mutation)


def generate_campaign_scenario(rng: random.Random, config: ExecConfig,
                               shard_catalog, ucas, index: int) -> Scenario:
    retakes = {}
    # every scenario takes the 0.3 draw, whatever the retake bound
    if rng.random() < 0.3 and config.max_retakes_per_view > 0:
        view = rng.choice(config.required_views)
        retakes[view] = rng.randint(1, config.max_retakes_per_view)
    timeline = nominal_timeline(config, rng=rng, retakes=retakes)
    injections, unaimed = [], 0
    for _ in range(rng.randint(1, 2)):
        injection = _sample_injection(rng, timeline, shard_catalog, ucas)
        if injection is None:
            unaimed += 1
        else:
            injections.append(injection)
    return Scenario(
        name=f"campaign-{index}",
        base_timeline=timeline,
        injections=injections,
        seed=index,
        unaimed=unaimed,
    )


def run_random_campaign(
    model: ProcessModel,
    config: ExecConfig,
    n: int,
    seed: int,
    shard_catalog=None,
    ucas=None,
    executive_enabled: bool = True,
    monitors=MONITORED_REQUIREMENTS,
) -> CampaignReport:
    if n < 1:
        raise ValueError("campaign needs n >= 1")
    if shard_catalog is None or ucas is None:
        shard_catalog = shard_catalog or load_shard_catalog(data_path("shard_catalog.csv"))
        ucas = ucas or load_uca_catalog(data_path("uca_catalog.csv"))

    master = random.Random(seed)
    child_seeds = [master.randrange(2**63) for _ in range(n)]
    report = CampaignReport(n=n, seed=seed, executive_enabled=executive_enabled)
    report.verdict_counts = {
        r: {SATISFIED: 0, VIOLATED: 0, NOT_APPLICABLE: 0} for r in monitors
    }

    for index, child_seed in enumerate(child_seeds):
        rng = random.Random(child_seed)
        scenario = generate_campaign_scenario(rng, config, shard_catalog, ucas, index)
        timeline = sorted(scenario.base_timeline, key=lambda e: e.timestamp)
        report.injections_skipped += scenario.unaimed
        for injection in scenario.injections:
            try:
                timeline = apply_injection(timeline, injection)
                report.injections_applied += 1
            except InjectionError:
                report.injections_skipped += 1
        trace = run_events(model, config, timeline, enabled=executive_enabled)
        verdicts = evaluate_monitors(trace, config, monitors)
        outcome, violated = classify_outcome(trace, verdicts)
        report.outcomes[outcome] = report.outcomes.get(outcome, 0) + 1
        for verdict in verdicts:
            report.verdict_counts[verdict.requirement][verdict.status] += 1
            if verdict.status == VIOLATED:
                report.violations.append(
                    (index, scenario.name, verdict.requirement, verdict.explanation)
                )
    return report
