"""Deterministic report bundles (markdown / json / csv).

Every bundle names its input files and the hash of the effective
configuration, so regenerating from identical inputs yields byte-identical
files and audit trails can tie findings back to exact tool settings.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from . import __version__
from .executive import ExecConfig
from .model import ProcessModel
from .shard import (
    GUIDEWORD_DEFINITIONS,
    GUIDEWORDS,
    HAZARD_LEVELS,
    ApplicabilityRule,
    coverage_report,
    generate_worksheet,
    severity_histogram,
)
from .stpa import TraceabilityMatrix


def config_hash(config: ExecConfig) -> str:
    payload = json.dumps(config.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


@dataclass
class ReportBundle:
    title: str
    metadata: dict = field(default_factory=dict)
    sections: list = field(default_factory=list)  # (name, kind, payload)
    csv_section: str | None = None
    clean: bool = True

    def add_keyvalues(self, name: str, values: dict) -> None:
        self.sections.append((name, "keyvalues", values))

    def add_table(self, name: str, columns: list[str], rows: list[list]) -> None:
        self.sections.append((name, "table", {"columns": columns, "rows": rows}))

    def section(self, name: str):
        for sec_name, _, payload in self.sections:
            if sec_name == name:
                return payload
        raise KeyError(name)

    def to_json(self) -> str:
        body = {
            "title": self.title,
            "metadata": self.metadata,
            "clean": self.clean,
            "sections": [
                {"name": name, "kind": kind, "payload": payload}
                for name, kind, payload in self.sections
            ],
        }
        return json.dumps(body, indent=2, sort_keys=True) + "\n"

    def to_markdown(self) -> str:
        lines = [f"# {self.title}", ""]
        for key in sorted(self.metadata):
            lines.append(f"- {key}: {self.metadata[key]}")
        lines.append("")
        for name, kind, payload in self.sections:
            lines.append(f"## {name}")
            lines.append("")
            if kind == "keyvalues":
                for key in payload:
                    lines.append(f"- {key}: {payload[key]}")
            else:
                columns, rows = payload["columns"], payload["rows"]
                lines.append("| " + " | ".join(columns) + " |")
                lines.append("|" + "|".join(" --- " for _ in columns) + "|")
                for row in rows:
                    lines.append("| " + " | ".join(str(v) for v in row) + " |")
            lines.append("")
        return "\n".join(lines)

    def to_csv(self) -> str:
        import csv
        import io

        name = self.csv_section or next(
            (n for n, kind, _ in self.sections if kind == "table"), None
        )
        if name is None:
            raise ValueError("bundle has no table section to emit as CSV")
        payload = self.section(name)
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(payload["columns"])
        writer.writerows(payload["rows"])
        return buffer.getvalue()


def emit_report(bundle: ReportBundle, fmt: str, path=None) -> str:
    if fmt == "json":
        text = bundle.to_json()
    elif fmt in ("md", "markdown"):
        text = bundle.to_markdown()
    elif fmt == "csv":
        text = bundle.to_csv()
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def build_shard_bundle(model: ProcessModel, rules: ApplicabilityRule, catalog,
                       inputs: dict) -> ReportBundle:
    slots = generate_worksheet(model, rules)
    coverage = coverage_report(slots, catalog)
    histogram = severity_histogram(catalog)

    bundle = ReportBundle(
        title=f"Deviation worksheet report: {model.name}",
        metadata={"tool_version": __version__, **inputs},
        csv_section="severity histogram",
    )
    bundle.clean = coverage.clean
    bundle.add_keyvalues("coverage", {
        "slots": coverage.total_slots,
        "filled": coverage.filled_slots,
        "fill_ratio": f"{coverage.fill_ratio:.3f}",
        "pending": len(coverage.pending),
        "drift_rows": len(coverage.drift),
    })
    if coverage.drift:
        bundle.add_table(
            "drift (catalog rows without slots)",
            ["node", "guideword", "deviation"],
            [[r.node_label, r.guideword, r.deviation] for r in coverage.drift],
        )
    if coverage.pending:
        bundle.add_table(
            "pending slots",
            ["node", "guideword"],
            [[s.node_label, s.guideword] for s in coverage.pending],
        )
    label_order = [n.label for n in model.nodes if n.label in histogram["per_node"]]
    rows = [
        [label] + [histogram["per_node"][label][level] for level in reversed(HAZARD_LEVELS)]
        for label in label_order
    ]
    rows.append(["TOTAL"] + [histogram["totals"][level] for level in reversed(HAZARD_LEVELS)])
    bundle.add_table("severity histogram",
                     ["node", "high", "medium", "low", "annoyance"], rows)
    bundle.add_table("guidewords", ["guideword", "adapted definition"],
                     [[w, GUIDEWORD_DEFINITIONS[w]] for w in GUIDEWORDS])
    return bundle


def build_stpa_bundle(ucas, cues, requirements, matrix: TraceabilityMatrix,
                      inputs: dict) -> ReportBundle:
    bundle = ReportBundle(
        title="Unsafe-control-action and requirements traceability report",
        metadata={"tool_version": __version__, **inputs},
    )
    bundle.clean = matrix.clean
    roles = [u.role for u in ucas]
    bundle.add_keyvalues("catalog summary", {
        "uca_records": len(ucas),
        "cue_records": len(cues),
        "radiographer_errors": roles.count("R"),
        "patient_errors": roles.count("P"),
    })
    level_counts = {level: 0 for level in HAZARD_LEVELS}
    for record in list(ucas) + list(cues):
        level_counts[record.hazard_level] += 1
    bundle.add_table("hazard levels", ["level", "count"],
                     [[level, level_counts[level]] for level in reversed(HAZARD_LEVELS)])
    rows = []
    for req in requirements:
        links = matrix.links_for(req.id)
        derives = "; ".join(
            f"{ln.kind}:{ln.ref}" for ln in links if ln.relation == "derivesFrom"
        )
        mitigates = "; ".join(
            f"{ln.kind}:{ln.ref}" for ln in links if ln.relation == "mitigates"
        )
        rows.append([
            req.id, req.category, "+".join(sorted(req.methodology)),
            req.monitor_binding, derives or "-", mitigates or "-",
        ])
    bundle.add_table(
        "traceability matrix",
        ["requirement", "category", "methodology", "monitor", "derives from", "mitigates"],
        rows,
    )
    if matrix.mismatches:
        bundle.add_table("methodology mismatches", ["finding"],
                         [[m] for m in matrix.mismatches])
    if matrix.broken_refs:
        bundle.add_table("broken references", ["requirement", "link"],
                         [[ln.requirement, f"{ln.kind}:{ln.ref}"] for ln in matrix.broken_refs])
    bundle.add_keyvalues("residual findings (not linked to any requirement)", {
        "count": len(matrix.residual),
        "refs": ", ".join(matrix.residual[:12]) + ("..." if len(matrix.residual) > 12 else ""),
    })
    return bundle


def build_campaign_bundle(report, config: ExecConfig, inputs: dict) -> ReportBundle:
    bundle = ReportBundle(
        title=f"Injection campaign report (n={report.n}, seed={report.seed})",
        metadata={
            "tool_version": __version__,
            "config_hash": config_hash(config),
            "executive_enabled": report.executive_enabled,
            **inputs,
        },
    )
    bundle.clean = report.violated_count() == 0
    bundle.add_keyvalues("outcomes", {k: report.outcomes[k] for k in sorted(report.outcomes)})
    bundle.add_table(
        "verdicts",
        ["requirement", "satisfied", "violated", "not applicable"],
        [
            [r, counts.get("Satisfied", 0), counts.get("Violated", 0),
             counts.get("NotApplicable", 0)]
            for r, counts in sorted(report.verdict_counts.items())
        ],
    )
    bundle.add_keyvalues("injections", {
        "applied": report.injections_applied,
        "skipped": report.injections_skipped,
    })
    if report.violations:
        bundle.add_table(
            "violations",
            ["scenario", "name", "requirement", "witness"],
            [list(v) for v in report.violations[:100]],
        )
    return bundle
