"""SHARD guideword worksheets, reference catalog and coverage accounting.

Five guidewords (Omission, Commission, Early, Late, Value) are applied per
node of a process model.  Actions default to all five; decisions default to
{Omission, Commission, Value} because early/late evaluation of a purely
logical gateway manifests as a missing or wrong decision rather than a
distinct timing hazard.  Per-node overrides (with mandatory justification)
record where judgement departed from the defaults; hazard levels are
analyst-assigned data and are never recomputed here.

Every catalog row, here and in :mod:`hazgate.stpa`, goes through one loader,
:func:`load_records`.  It builds each record from its dataclass's fields and
rejects, naming the file and row, a missing, null or unknown column, a value
outside its column's allowed values or id pattern, and a repeated key.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, field, fields
from pathlib import Path

from .jsoncheck import json_field, json_keys, json_list, json_names, json_object, json_version
from .model import KIND_ACTION, KIND_DECISION, NODE_KINDS, Node, ProcessModel, normalize_label

GUIDEWORDS = ("Omission", "Commission", "Early", "Late", "Value")

GUIDEWORD_DEFINITIONS = {
    "Omission": (
        "The robotic service is not performed when required (e.g., the robot "
        "fails to detect a user request or does not deliver assistance)."
    ),
    "Commission": (
        "A robotic service is performed without a valid trigger (e.g., the "
        "robot initiates movement or communication without user command or "
        "environmental justification)."
    ),
    "Early": (
        "The robotic service occurs earlier than intended, such as the robot "
        "responding before a task condition is met or interrupting the user "
        "prematurely. This may be absolute or relative."
    ),
    "Late": (
        "The robotic service occurs later than intended (e.g., delayed "
        "response to a help request or late delivery of support that affects "
        "task performance)."
    ),
    "Value": (
        "The information (data) or physical output delivered has the wrong "
        "value (e.g., misinterpreted sensor data, incorrect movement "
        "parameters or excessive force)."
    ),
}

HAZARD_LEVELS = ("Annoyance", "Low", "Medium", "High")  # ascending severity

DEFAULT_APPLICABILITY = {
    KIND_ACTION: GUIDEWORDS,
    KIND_DECISION: ("Omission", "Commission", "Value"),
}

STATUS_PENDING = "Pending"
STATUS_FILLED = "Filled"

# the one column read into a field of another name (SHARD and UCA catalogs)
NODE_COLUMN = {"node": "node_label"}


class CatalogError(ValueError):
    """Schema violation in a catalog, requirements or trace-links file."""


def _ordered_guidewords(words) -> tuple[str, ...]:
    return tuple(w for w in GUIDEWORDS if w in set(words))


@dataclass
class ApplicabilityRule:
    """Default guideword sets per node kind plus per-node label overrides."""

    defaults: dict[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_APPLICABILITY)
    )
    overrides: dict[str, tuple[str, ...]] = field(default_factory=dict)
    justifications: dict[str, str] = field(default_factory=dict)

    def add_override(self, node_label: str, guidewords, justification: str) -> None:
        if not isinstance(justification, str) or not justification.strip():
            raise ValueError(f"override for {node_label!r} needs a justification")
        unknown = set(guidewords) - set(GUIDEWORDS)
        if unknown:
            raise ValueError(f"unknown guidewords in override: {sorted(unknown)}")
        key = normalize_label(node_label)
        self.overrides[key] = _ordered_guidewords(guidewords)
        self.justifications[key] = justification

    @classmethod
    def from_json_dict(cls, data: dict) -> "ApplicabilityRule":
        json_keys(data, "rules", ("schema_version", "defaults", "overrides"))
        json_version(data, "rules", "shard-rules/1")
        rule = cls()
        for kind, words in json_keys(data.get("defaults", {}), "rules defaults",
                                     NODE_KINDS).items():
            rule.defaults[kind] = _ordered_guidewords(
                json_names(words, f"rules defaults {kind!r}", GUIDEWORDS))
        for label, spec in json_object(data.get("overrides", {}), "rules overrides").items():
            where = f"rules override {label!r}"
            json_keys(spec, where, ("guidewords", "justification"))
            rule.add_override(label,
                              json_names(json_field(spec, "guidewords", where), where, GUIDEWORDS),
                              json_field(spec, "justification", where))
        return rule

    @classmethod
    def load(cls, path) -> "ApplicabilityRule":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


def canonical_rules() -> ApplicabilityRule:
    from .datafiles import data_path

    return ApplicabilityRule.load(data_path("shard_rules.json"))


def applicable_guidewords(node: Node, rules: ApplicabilityRule) -> tuple[str, ...]:
    """Override set when present, else the node-kind default (fixed order)."""
    override = rules.overrides.get(normalize_label(node.label))
    if override is not None:
        return override
    return rules.defaults.get(node.kind, ())


@dataclass
class WorksheetSlot:
    node_id: str
    node_label: str
    guideword: str
    status: str = STATUS_PENDING


def generate_worksheet(m: ProcessModel, rules: ApplicabilityRule) -> list[WorksheetSlot]:
    """One slot per applicable (node, guideword) pair, in model node order."""
    slots: list[WorksheetSlot] = []
    for node in m.nodes:
        for word in applicable_guidewords(node, rules):
            slots.append(WorksheetSlot(node.id, node.label, word))
    return slots


@dataclass(frozen=True)
class DeviationRecord:
    node_label: str
    guideword: str
    deviation: str
    causes: str
    effects: str
    detection: str
    recommendation: str
    hazard_level: str

    def key(self) -> tuple[str, str]:
        return (normalize_label(self.node_label), self.guideword)


def read_json_field(path, key: str, version: str) -> tuple:
    """The value under ``key`` of a catalog JSON file, and the file name.

    The file holds one object with ``key`` and an optional ``schema_version``,
    which must be ``version``; any other key is rejected.
    """
    name = Path(path).name
    with open(path, encoding="utf-8") as fh:
        data = json_keys(json.load(fh), name, ("schema_version", key))
    json_version(data, name, version)
    return json_field(data, key, name), name


def read_csv_rows(path, version: str) -> list[dict]:
    """CSV rows as dicts, without the ``#`` comment lines.

    A ``# schema: <version>`` comment, when present, must name ``version``,
    as ``schema_version`` must in a JSON file.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        lines = list(fh)
    for ln in lines:
        if ln.startswith("# schema:"):
            json_version({"schema_version": ln[len("# schema:"):].strip()}, Path(path).name,
                         version)
    return list(csv.DictReader(ln for ln in lines if not ln.startswith("#")))


def _check_value(value, column: str, allowed, at: str, kind: str) -> None:
    if not isinstance(value, str):
        raise CatalogError(f"{at}: {column} must be text, got {value!r}")
    if isinstance(allowed, re.Pattern):
        if not allowed.fullmatch(value):
            raise CatalogError(f"{at}: bad {kind} {column} {value!r}")
    elif allowed is not None and value not in allowed:
        raise CatalogError(f"{at}: unknown {column.replace('_', ' ')} {value!r}; "
                           f"known: {', '.join(allowed)}")


def load_records(rows, record_type, where: str, key, renames=None, enums=None) -> list:
    """One ``record_type`` per row of a catalog, after the shared schema checks.

    Each dataclass field reads the column of its name, or the column that
    ``renames`` maps to it.  A column with no field is rejected.  A field
    typed ``str | None`` may be absent or null; any other column must be
    present and hold text, or, for a ``frozenset`` field, a non-empty list
    of texts.  A column in ``enums`` must hold one of its allowed values, or
    match its id pattern (a compiled regex).  A row whose ``key(record)``
    repeats an earlier row's is a duplicate.
    """
    enums = enums or {}
    column_of = {name: column for column, name in (renames or {}).items()}
    schema = [(f.name, column_of.get(f.name, f.name), f.type) for f in fields(record_type)]
    kind = record_type.__name__.removesuffix("Record").upper()  # what an id pattern names
    records, seen = [], set()
    for i, raw in enumerate(rows, start=1):
        at = f"{where} row {i}"
        json_keys(raw, at, [column for _, column, _ in schema])
        values = {}
        for name, column, annotation in schema:  # annotations are strings here
            value = raw.get(column)
            many = annotation.startswith("frozenset")
            if value is None:
                if "None" not in annotation:
                    raise CatalogError(f"{at}: missing column {column!r}")
            elif many and (not isinstance(value, list) or not value):
                raise CatalogError(f"{at}: {column} must be a non-empty list, got {value!r}")
            else:
                for item in value if many else (value,):
                    _check_value(item, column, enums.get(column), at, kind)
            values[name] = frozenset(value) if many else value
        record = record_type(**values)
        record_key = key(record)
        if record_key in seen:
            raise CatalogError(f"{at}: duplicate record {record_key!r}")
        seen.add(record_key)
        records.append(record)
    return records


def load_shard_catalog(path, model: ProcessModel | None = None) -> list[DeviationRecord]:
    """Load and validate a deviation catalog (.csv or .json).

    Duplicate (node, guideword, deviation) triples are rejected.  When a
    model is supplied, every node label must resolve against it.
    """
    path = Path(path)
    if path.suffix == ".json":
        rows, _ = read_json_field(path, "records", "shard-catalog/1")
        rows = json_list(rows, f"{path.name} records")
    else:
        rows = read_csv_rows(path, "shard-catalog/1")
    records = load_records(
        rows, DeviationRecord, path.name, lambda rec: (*rec.key(), rec.deviation),
        renames=NODE_COLUMN, enums={"guideword": GUIDEWORDS, "hazard_level": HAZARD_LEVELS},
    )
    if model is not None:
        labels = {normalize_label(n.label) for n in model.nodes}
        for i, rec in enumerate(records, start=1):
            if normalize_label(rec.node_label) not in labels:
                raise CatalogError(f"{path.name} row {i}: unresolvable node label "
                                   f"{rec.node_label!r}")
    return records


@dataclass
class CoverageReport:
    total_slots: int
    filled_slots: int
    pending: list[WorksheetSlot]
    drift: list[DeviationRecord]  # catalog rows without a matching slot

    @property
    def fill_ratio(self) -> float:
        if not self.total_slots:
            return 1.0
        return self.filled_slots / self.total_slots

    @property
    def clean(self) -> bool:
        return not self.drift and not self.pending


def coverage_report(slots: list[WorksheetSlot], catalog: list[DeviationRecord]) -> CoverageReport:
    """Bijection check between worksheet slots and catalog rows.

    Marks each slot Filled when at least one catalog row matches its
    (label, guideword) key; rows matching no slot are reported as drift
    between the catalog and the model/rules.
    """
    slot_index: dict[tuple[str, str], list[WorksheetSlot]] = {}
    for slot in slots:
        slot_index.setdefault((normalize_label(slot.node_label), slot.guideword), []).append(slot)

    drift: list[DeviationRecord] = []
    for rec in catalog:
        matching = slot_index.get(rec.key())
        if matching is None:
            drift.append(rec)
        else:
            for slot in matching:
                if slot.status == STATUS_PENDING:
                    slot.status = STATUS_FILLED
    pending = [s for s in slots if s.status == STATUS_PENDING]
    filled = sum(1 for s in slots if s.status == STATUS_FILLED)
    return CoverageReport(
        total_slots=len(slots), filled_slots=filled, pending=pending, drift=drift
    )


def severity_histogram(catalog: list[DeviationRecord]) -> dict:
    """Totals per hazard level plus a per-node breakdown.

    Levels order ascending (Annoyance < Low < Medium < High) for sorting.
    """
    totals = {level: 0 for level in HAZARD_LEVELS}
    per_node: dict[str, dict[str, int]] = {}
    for rec in catalog:
        totals[rec.hazard_level] += 1
        node_counts = per_node.setdefault(rec.node_label, {level: 0 for level in HAZARD_LEVELS})
        node_counts[rec.hazard_level] += 1
    return {"totals": totals, "per_node": per_node, "order": HAZARD_LEVELS}
