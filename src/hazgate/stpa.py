"""Control-structure modelling, unsafe-control-action catalogs and
requirement traceability.

The control structure names the human and automated controllers, the
processes they act on, and the feedback loops between them.  Candidate
unsafe control actions are generated in four fixed categories for every
control action; the shipped catalogs carry the analysed findings (UCA01..35,
role-tagged R/P and mapped to process nodes, plus the cross-cutting common
user errors CUE01..07).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from .model import Node, normalize_label
from .shard import HAZARD_LEVELS, CatalogError, DeviationRecord, read_csv_rows

UCA_CATEGORIES = (
    "NotProvided",
    "ProvidedUnsafe",
    "WrongTimingOrSequence",
    "WrongDurationOrPersistence",
)

ROLES = ("R", "P")  # radiographer / patient

_UCA_ID = re.compile(r"^UCA\d{2}$")
_CUE_ID = re.compile(r"^CUE0[1-7]$")


@dataclass(frozen=True)
class ControlAction:
    controller: str
    name: str
    target: str


@dataclass(frozen=True)
class FeedbackChannel:
    source: str
    signal: str
    controller: str


@dataclass
class ControlStructure:
    controllers: tuple[str, ...]
    controlled_processes: tuple[str, ...]
    control_actions: list[ControlAction]
    feedback_channels: list[FeedbackChannel]

    def action(self, controller: str, name: str) -> ControlAction:
        for ca in self.control_actions:
            if ca.controller == controller and ca.name == name:
                return ca
        raise KeyError(f"no control action {controller}->{name}")


def canonical_control_structure() -> ControlStructure:
    """Controllers, processes and loops of the assisted-mammography system."""
    r, p, sx = "Radiographer", "Patient", "SafetyExecutive"
    arms, xray, wf = "RobotArms", "XRayUnit", "WorkflowState"
    return ControlStructure(
        controllers=(r, p, sx),
        controlled_processes=(arms, xray, wf),
        control_actions=[
            ControlAction(r, "motionStart", arms),
            ControlAction(r, "planApproval", wf),
            ControlAction(r, "stageAdvance", wf),
            ControlAction(r, "exposureTrigger", xray),
            ControlAction(r, "releaseCommand", arms),
            ControlAction(r, "stopRequest", wf),
            ControlAction(p, "assent", wf),
            ControlAction(p, "stopRequest", wf),
            ControlAction(p, "postureHold", arms),
            ControlAction(sx, "motionEnable", arms),
            ControlAction(sx, "exposureEnable", xray),
            ControlAction(sx, "complianceMode", arms),
        ],
        feedback_channels=[
            FeedbackChannel(arms, "forceTorque", sx),
            FeedbackChannel(arms, "motionStatus", r),
            FeedbackChannel(xray, "exposureStatus", r),
            FeedbackChannel(wf, "stageIndicator", r),
            FeedbackChannel(wf, "statusCues", p),
            FeedbackChannel(wf, "postureConfidence", sx),
        ],
    )


# Context-specific phrasing for well-known actions; generic templates cover
# the rest.
_TIMING_HINTS = {
    "exposureTrigger": "exposure triggered before posture stability confirmed",
    "motionStart": "motion started before posture validation and consent complete",
    "releaseCommand": "release commanded before motion complete and patient stable",
}


@dataclass
class UcaCandidate:
    action: ControlAction
    category: str
    description: str
    status: str = "Pending"


def generate_uca_candidates(cs: ControlStructure, action: ControlAction) -> list[UcaCandidate]:
    """Exactly one Pending candidate per category for the given action."""
    if action not in cs.control_actions:
        raise KeyError(f"unknown control action {action}")
    who, what = action.controller, action.name
    timing = f"{who} provides {what} too early, too late, or out of sequence"
    hint = _TIMING_HINTS.get(what)
    if hint:
        timing += f" (e.g., {hint})"
    texts = {
        "NotProvided": f"{who} does not provide {what} when it is required",
        "ProvidedUnsafe": f"{who} provides {what} when conditions make it unsafe",
        "WrongTimingOrSequence": timing,
        "WrongDurationOrPersistence": (
            f"{who} applies {what} for too long or stops it too soon"
        ),
    }
    return [UcaCandidate(action, cat, texts[cat]) for cat in UCA_CATEGORIES]


@dataclass(frozen=True)
class UcaRecord:
    id: str
    node_label: str
    role: str
    category: str
    causes: str
    effects: str
    detection: str
    recommendation: str
    hazard_level: str


@dataclass(frozen=True)
class CueRecord:
    id: str
    description: str
    causes: str
    effects: str
    detection: str
    recommendation: str
    hazard_level: str


def _check(cond: bool, where: str, message: str) -> None:
    if not cond:
        raise CatalogError(f"{where}: {message}")


def load_uca_catalog(path) -> list[UcaRecord]:
    records: list[UcaRecord] = []
    seen: set[str] = set()
    for i, raw in enumerate(read_csv_rows(path), start=1):
        where = f"{Path(path).name} row {i}"
        _check(bool(_UCA_ID.match(raw.get("id", ""))), where, f"bad UCA id {raw.get('id')!r}")
        _check(raw["id"] not in seen, where, f"duplicate id {raw['id']}")
        _check(raw.get("role") in ROLES, where, f"role must be R or P, got {raw.get('role')!r}")
        _check(raw.get("category") in UCA_CATEGORIES, where,
               f"unknown category {raw.get('category')!r}")
        _check(raw.get("hazard_level") in HAZARD_LEVELS, where,
               f"unknown hazard level {raw.get('hazard_level')!r}")
        seen.add(raw["id"])
        records.append(UcaRecord(
            id=raw["id"], node_label=raw["node"], role=raw["role"],
            category=raw["category"], causes=raw["causes"], effects=raw["effects"],
            detection=raw["detection"], recommendation=raw["recommendation"],
            hazard_level=raw["hazard_level"],
        ))
    return records


def load_cue_catalog(path) -> list[CueRecord]:
    records: list[CueRecord] = []
    seen: set[str] = set()
    for i, raw in enumerate(read_csv_rows(path), start=1):
        where = f"{Path(path).name} row {i}"
        _check(bool(_CUE_ID.match(raw.get("id", ""))), where, f"bad CUE id {raw.get('id')!r}")
        _check(raw["id"] not in seen, where, f"duplicate id {raw['id']}")
        _check(raw.get("hazard_level") in HAZARD_LEVELS, where,
               f"unknown hazard level {raw.get('hazard_level')!r}")
        seen.add(raw["id"])
        records.append(CueRecord(
            id=raw["id"], description=raw["description"], causes=raw["causes"],
            effects=raw["effects"], detection=raw["detection"],
            recommendation=raw["recommendation"], hazard_level=raw["hazard_level"],
        ))
    return records


def cue_applicability(cue: CueRecord, node: Node) -> bool:
    """CUEs are cross-cutting: applicable at every workflow node."""
    return True


# ---------------------------------------------------------------------------
# Requirements registry and traceability
# ---------------------------------------------------------------------------

REQUIREMENT_IDS = tuple(f"R{i}" for i in range(1, 28))
CATEGORIES = ("Functional", "Safety", "HRI", "Additional")
METHODOLOGIES = ("SHARD", "STPA")


@dataclass(frozen=True)
class RequirementSpec:
    id: str
    text: str
    refined: str | None
    category: str
    methodology: frozenset[str]
    monitor_binding: str


def load_requirements(path) -> list[RequirementSpec]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    specs: list[RequirementSpec] = []
    for raw in data["requirements"]:
        if raw["category"] not in CATEGORIES:
            raise CatalogError(f"{raw['id']}: unknown category {raw['category']!r}")
        meth = frozenset(raw["methodology"])
        if not meth or not meth <= set(METHODOLOGIES):
            raise CatalogError(f"{raw['id']}: bad methodology {sorted(meth)}")
        specs.append(RequirementSpec(
            id=raw["id"], text=raw["text"], refined=raw.get("refined"),
            category=raw["category"], methodology=meth,
            monitor_binding=raw["monitor_binding"],
        ))
    return specs


@dataclass(frozen=True)
class TraceLink:
    requirement: str
    kind: str  # shard | uca | cue
    ref: str
    relation: str  # derivesFrom | mitigates
    source: str  # stated | inferred


def load_trace_links(path) -> list[TraceLink]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    links: list[TraceLink] = []
    for rid, entries in data["links"].items():
        for entry in entries:
            links.append(TraceLink(
                requirement=rid, kind=entry["kind"], ref=entry["ref"],
                relation=entry["relation"], source=entry["source"],
            ))
    return links


_METHOD_FOR_KIND = {"shard": "SHARD", "uca": "STPA", "cue": "STPA"}


@dataclass
class TraceabilityMatrix:
    requirements: list[RequirementSpec]
    links: list[TraceLink]
    mismatches: list[str] = field(default_factory=list)
    broken_refs: list[TraceLink] = field(default_factory=list)
    residual: list[str] = field(default_factory=list)

    def links_for(self, requirement_id: str) -> list[TraceLink]:
        return [ln for ln in self.links if ln.requirement == requirement_id]

    @property
    def clean(self) -> bool:
        return not self.mismatches and not self.broken_refs


def trace_to_requirements(
    ucas: list[UcaRecord],
    cues: list[CueRecord],
    shard_catalog: list[DeviationRecord],
    requirements: list[RequirementSpec],
    links: list[TraceLink],
) -> TraceabilityMatrix:
    """Cross-check requirement methodology tags against their linked findings.

    A requirement tagged with a methodology must have at least one resolvable
    derivesFrom link of that analysis kind; findings referenced by no
    requirement are reported as residual risks.
    """
    uca_ids = {u.id for u in ucas}
    cue_ids = {c.id for c in cues}
    shard_keys = {
        (normalize_label(r.node_label), r.guideword) for r in shard_catalog
    }

    def resolves(link: TraceLink) -> bool:
        if link.kind == "uca":
            return link.ref in uca_ids
        if link.kind == "cue":
            return link.ref in cue_ids
        if link.kind == "shard":
            node, _, word = link.ref.rpartition("/")
            return (normalize_label(node), word) in shard_keys
        return False

    matrix = TraceabilityMatrix(requirements=requirements, links=links)
    by_req: dict[str, list[TraceLink]] = {}
    referenced: set[str] = set()
    for link in links:
        if not resolves(link):
            matrix.broken_refs.append(link)
            continue
        by_req.setdefault(link.requirement, []).append(link)
        referenced.add(f"{link.kind}:{link.ref}")

    for req in requirements:
        derived = [ln for ln in by_req.get(req.id, []) if ln.relation == "derivesFrom"]
        for method in sorted(req.methodology):
            if not any(_METHOD_FOR_KIND[ln.kind] == method for ln in derived):
                matrix.mismatches.append(
                    f"{req.id}: methodology {method} has no derivesFrom finding"
                )
        for link in by_req.get(req.id, []):
            if _METHOD_FOR_KIND[link.kind] not in req.methodology and link.relation == "derivesFrom":
                matrix.mismatches.append(
                    f"{req.id}: derivesFrom {link.kind}:{link.ref} outside its methodology tags"
                )

    referenced_shard = set()
    for link in links:
        if link.kind == "shard":
            node, _, word = link.ref.rpartition("/")
            referenced_shard.add((normalize_label(node), word))
    for u in ucas:
        if f"uca:{u.id}" not in referenced:
            matrix.residual.append(f"uca:{u.id}")
    for c in cues:
        if f"cue:{c.id}" not in referenced:
            matrix.residual.append(f"cue:{c.id}")
    for r in shard_catalog:
        if (normalize_label(r.node_label), r.guideword) not in referenced_shard:
            matrix.residual.append(f"shard:{r.node_label}/{r.guideword}")
    return matrix


def load_canonical_stpa():
    """Shipped catalogs, registry and trace links in one call."""
    from .datafiles import data_path

    ucas = load_uca_catalog(data_path("uca_catalog.csv"))
    cues = load_cue_catalog(data_path("cue_catalog.csv"))
    requirements = load_requirements(data_path("requirements.json"))
    links = load_trace_links(data_path("traceability.json"))
    return ucas, cues, requirements, links
