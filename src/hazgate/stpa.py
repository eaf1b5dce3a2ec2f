"""Unsafe-control-action catalogs and requirement traceability.

The shipped catalogs carry the analysed findings: UCA01..35, each keyed by
the workflow node label it applies at and the controller role (R/P) that
gives it, in one of four fixed categories, plus the cross-cutting common
user errors CUE01..07.  No control structure is modelled here, because the
rows name nodes and roles, not control actions.

The UCA and CUE catalogs, the requirements registry and the trace links are
read through the SHARD catalog's loader, :func:`hazgate.shard.load_records`.
It rejects, naming the file and row, a missing, null or unknown column, a
value outside its column's enumeration (UCA/CUE id pattern, role, category,
hazard level, methodology, and a link's kind, relation and source) and a
duplicate id or link.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path

from .jsoncheck import json_list, json_object
from .model import normalize_label
from .shard import (
    HAZARD_LEVELS,
    NODE_COLUMN,
    DeviationRecord,
    load_records,
    read_csv_rows,
    read_json_field,
)

UCA_CATEGORIES = (
    "NotProvided",
    "ProvidedUnsafe",
    "WrongTimingOrSequence",
    "WrongDurationOrPersistence",
)

ROLES = ("R", "P")  # radiographer / patient

_UCA_ID = re.compile(r"UCA\d{2}")
_CUE_ID = re.compile(r"CUE0[1-7]")


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


_record_id = attrgetter("id")


def load_uca_catalog(path) -> list[UcaRecord]:
    return load_records(
        read_csv_rows(path, "uca-catalog/1"), UcaRecord, Path(path).name, _record_id,
        renames=NODE_COLUMN,
        enums={"id": _UCA_ID, "role": ROLES, "category": UCA_CATEGORIES,
               "hazard_level": HAZARD_LEVELS},
    )


def load_cue_catalog(path) -> list[CueRecord]:
    return load_records(read_csv_rows(path, "cue-catalog/1"), CueRecord, Path(path).name,
                        _record_id, enums={"id": _CUE_ID, "hazard_level": HAZARD_LEVELS})


# ---------------------------------------------------------------------------
# Requirements registry and traceability
# ---------------------------------------------------------------------------

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
    rows, name = read_json_field(path, "requirements", "requirements/1")
    return load_records(json_list(rows, f"{name} requirements"), RequirementSpec, name,
                        _record_id, enums={"category": CATEGORIES, "methodology": METHODOLOGIES})


_METHOD_FOR_KIND = {"shard": "SHARD", "uca": "STPA", "cue": "STPA"}
RELATIONS = ("derivesFrom", "mitigates")
LINK_SOURCES = ("stated", "inferred")


@dataclass(frozen=True)
class TraceLink:
    requirement: str
    kind: str  # shard | uca | cue
    ref: str
    relation: str  # derivesFrom | mitigates
    source: str  # stated | inferred


def load_trace_links(path) -> list[TraceLink]:
    """One row per link: the links listed under each requirement id."""
    links, name = read_json_field(path, "links", "traceability/1")
    rows = [
        {**json_object(entry, f"{name} links {rid!r}"), "requirement": rid}
        for rid, entries in json_object(links, f"{name} links").items()
        for entry in json_list(entries, f"{name} links {rid!r}")
    ]
    return load_records(
        rows, TraceLink, name, lambda ln: (ln.requirement, ln.kind, ln.ref, ln.relation),
        enums={"kind": tuple(_METHOD_FOR_KIND), "relation": RELATIONS, "source": LINK_SOURCES},
    )


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
    requirement are reported as residual risks.  A link is broken when its
    finding is not in the catalogs or its requirement not in the registry.
    """
    def target(link: TraceLink) -> tuple:
        if link.kind == "shard":
            node, _, word = link.ref.rpartition("/")
            return ("shard", (normalize_label(node), word))
        return (link.kind, link.ref)

    findings = (  # (target key, residual label) per catalog row
        [(("uca", u.id), f"uca:{u.id}") for u in ucas]
        + [(("cue", c.id), f"cue:{c.id}") for c in cues]
        + [(("shard", r.key()), f"shard:{r.node_label}/{r.guideword}") for r in shard_catalog]
    )
    known = {key for key, _ in findings}
    registered = {req.id for req in requirements}
    matrix = TraceabilityMatrix(requirements=requirements, links=links)
    by_req: dict[str, list[TraceLink]] = {}
    referenced: set[tuple] = set()
    for link in links:
        if target(link) not in known or link.requirement not in registered:
            matrix.broken_refs.append(link)
            continue
        by_req.setdefault(link.requirement, []).append(link)
        referenced.add(target(link))

    for req in requirements:
        derived = [ln for ln in by_req.get(req.id, []) if ln.relation == "derivesFrom"]
        for method in sorted(req.methodology):
            if not any(_METHOD_FOR_KIND[ln.kind] == method for ln in derived):
                matrix.mismatches.append(
                    f"{req.id}: methodology {method} has no derivesFrom finding"
                )
        for link in derived:
            if _METHOD_FOR_KIND[link.kind] not in req.methodology:
                matrix.mismatches.append(
                    f"{req.id}: derivesFrom {link.kind}:{link.ref} outside its methodology tags"
                )
    matrix.residual = [label for key, label in findings if key not in referenced]
    return matrix


def load_canonical_stpa():
    """Shipped catalogs, registry and trace links in one call."""
    from .datafiles import data_path

    ucas = load_uca_catalog(data_path("uca_catalog.csv"))
    cues = load_cue_catalog(data_path("cue_catalog.csv"))
    requirements = load_requirements(data_path("requirements.json"))
    links = load_trace_links(data_path("traceability.json"))
    return ucas, cues, requirements, links
