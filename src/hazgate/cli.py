"""Command-line interface.

Subcommands: validate, worksheet, shard-report, stpa-report, simulate,
campaign, reach, check.  Exit codes: 0 success, 1 findings (violations,
coverage drift, reachable unsafe states, failed criteria), 2 usage or I/O
errors.  The environment variable HAZGATE_DATA_DIR overrides the shipped
data directory for every default path.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .datafiles import data_path


def _add_format_args(parser):
    parser.add_argument("--format", choices=["md", "json", "csv"], default="md")
    parser.add_argument("-o", "--output", help="write the report to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hazgate",
        description="Hazard-management toolkit: process models, safety executive, "
                    "deviation/UCA worksheets, fault-injection simulation and "
                    "bounded verification.",
    )
    parser.add_argument("--version", action="version", version=f"hazgate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a process model")
    p.add_argument("model")
    p.add_argument("--json", dest="json_out",
                   help="also write the JSON mirror of the model here")

    p = sub.add_parser("worksheet", help="emit the guideword worksheet slots as CSV")
    p.add_argument("model")
    p.add_argument("--rules", help="applicability rules JSON (default: shipped rules)")
    p.add_argument("-o", "--output")

    p = sub.add_parser("shard-report", help="coverage and severity report for a catalog")
    p.add_argument("model")
    p.add_argument("catalog")
    p.add_argument("--rules")
    _add_format_args(p)

    p = sub.add_parser("stpa-report", help="UCA/CUE summary and requirements traceability")
    p.add_argument("uca")
    p.add_argument("cue")
    p.add_argument("requirements")
    p.add_argument("--links", help="traceability links JSON (default: shipped)")
    _add_format_args(p)

    p = sub.add_parser("simulate", help="run one scenario through the executive")
    p.add_argument("model")
    p.add_argument("config")
    p.add_argument("scenario")
    p.add_argument("--no-executive", action="store_true",
                   help="run unprotected (hazard-realism baseline)")
    p.add_argument("--trace", help="write the step trace as JSON Lines")
    p.add_argument("--log", help="write the session log as JSON Lines")

    p = sub.add_parser("campaign", help="randomized catalog-sampled injection campaign")
    p.add_argument("model")
    p.add_argument("config")
    p.add_argument("-n", type=int, required=True, help="number of scenarios")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--no-executive", action="store_true")
    p.add_argument("--json", dest="json_out", help="write the JSON report here")
    p.add_argument("--md", dest="md_out", help="write the Markdown summary here")

    p = sub.add_parser("reach", help="bounded exhaustive reachability of unsafe exposure")
    p.add_argument("model")
    p.add_argument("config")
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--no-executive", action="store_true")
    p.add_argument("--no-cross-check", action="store_true")
    p.add_argument("--json", dest="json_out")

    sub.add_parser("check", help="run the full acceptance suite")
    return parser


def cmd_validate(args) -> int:
    from .model import ModelError, ParseError, load_model

    try:
        model = load_model(args.model)
    except (ParseError, ModelError) as exc:
        print(f"invalid: {exc}")
        return 1
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(model.to_json())
    print(f"ok: {model.name} ({len(model.actions())} actions, "
          f"{len(model.decisions())} decisions, {len(model.guards)} guards)")
    return 0


def _load_rules(path):
    from .shard import ApplicabilityRule, canonical_rules

    return ApplicabilityRule.load(path) if path else canonical_rules()


def cmd_worksheet(args) -> int:
    import csv

    from .model import load_model
    from .shard import generate_worksheet

    model = load_model(args.model)
    slots = generate_worksheet(model, _load_rules(args.rules))
    out = open(args.output, "w", newline="", encoding="utf-8") if args.output else sys.stdout
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["node", "label", "guideword", "status"])
    for slot in slots:
        writer.writerow([slot.node_id, slot.node_label, slot.guideword, slot.status])
    if args.output:
        out.close()
        print(f"{len(slots)} slots -> {args.output}")
    return 0


def cmd_shard_report(args) -> int:
    from .model import load_model
    from .reporting import build_shard_bundle, emit_report
    from .shard import load_shard_catalog

    model = load_model(args.model)
    catalog = load_shard_catalog(args.catalog, model=model)
    bundle = build_shard_bundle(model, _load_rules(args.rules), catalog,
                                {"model": args.model, "catalog": args.catalog})
    text = emit_report(bundle, args.format, args.output)
    if not args.output:
        print(text, end="")
    return 0 if bundle.clean else 1


def cmd_stpa_report(args) -> int:
    from .reporting import build_stpa_bundle, emit_report
    from .shard import load_shard_catalog
    from .stpa import (
        load_cue_catalog,
        load_requirements,
        load_trace_links,
        load_uca_catalog,
        trace_to_requirements,
    )

    ucas = load_uca_catalog(args.uca)
    cues = load_cue_catalog(args.cue)
    requirements = load_requirements(args.requirements)
    links = load_trace_links(args.links or data_path("traceability.json"))
    shard = load_shard_catalog(data_path("shard_catalog.csv"))
    matrix = trace_to_requirements(ucas, cues, shard, requirements, links)
    bundle = build_stpa_bundle(ucas, cues, requirements, matrix,
                               {"uca": args.uca, "cue": args.cue,
                                "requirements": args.requirements})
    text = emit_report(bundle, args.format, args.output)
    if not args.output:
        print(text, end="")
    return 0 if bundle.clean else 1


def cmd_simulate(args) -> int:
    from .executive import ExecConfig
    from .model import load_model
    from .scenarios import Scenario
    from .session import log_jsonl
    from .simulate import check_expectation, run_scenario

    model = load_model(args.model)
    config = ExecConfig.load(args.config)
    scenario = Scenario.load(args.scenario)
    result = run_scenario(model, config, scenario,
                          executive_enabled=not args.no_executive)
    expectation_ok, why = check_expectation(result)
    print(f"scenario: {scenario.name}")
    print(f"executive: {'enabled' if result.executive_enabled else 'DISABLED'}")
    print(f"outcome: {result.outcome} (final node {result.trace.final_node}, "
          f"status {result.trace.final_status})")
    for verdict in result.verdicts:
        marker = {"Satisfied": "ok ", "Violated": "VIOLATED", "NotApplicable": "n/a"}
        print(f"  {verdict.requirement:4s} {marker[verdict.status]:8s} {verdict.explanation}")
    print(f"expectation: {'met' if expectation_ok else 'NOT MET'} ({why})")
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(result.trace.to_jsonl())
    if args.log:
        with open(args.log, "w", encoding="utf-8") as fh:
            fh.write(log_jsonl(result.trace.log))
    return 1 if result.violated else 0


def cmd_campaign(args) -> int:
    from .campaign import run_random_campaign
    from .executive import ExecConfig
    from .model import load_model
    from .reporting import build_campaign_bundle, emit_report

    model = load_model(args.model)
    config = ExecConfig.load(args.config)
    report = run_random_campaign(model, config, args.n, seed=args.seed,
                                 executive_enabled=not args.no_executive)
    bundle = build_campaign_bundle(report, config,
                                   {"model": args.model, "config": args.config})
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    if args.md_out:
        emit_report(bundle, "md", args.md_out)
    print(f"{report.n} scenarios (seed {report.seed}): outcomes {dict(sorted(report.outcomes.items()))}")
    print(f"soundness violations: {report.violated_count()}")
    return 0 if report.violated_count() == 0 else 1


def cmd_reach(args) -> int:
    from .executive import ExecConfig
    from .model import load_model
    from .reach import brute_force_reachability

    model = load_model(args.model)
    config = ExecConfig.load(args.config)
    result = brute_force_reachability(
        model, config, max_depth=args.depth,
        executive_enabled=not args.no_executive,
        cross_check=not args.no_cross_check,
    )
    print(f"unsafe exposure reachable: {result.unsafe_reachable}")
    print(f"states explored: {result.states_explored}, transitions: {result.transitions}, "
          f"depth: {result.depth_reached}, complete: {result.complete}")
    if result.counterexample:
        print("counterexample:")
        for event in result.counterexample:
            print(f"  t={event.timestamp} {event.source} {event.kind} {event.payload}")
        print(f"  ({result.unsafe_detail})")
    disagreements = result.cross_check_disagreements
    if result.cross_checked:
        print(f"cross-check: {result.cross_checked} sequences, "
              f"{'DISAGREE' if disagreements else 'agree'}")
    shown = 5  # --json's report lists them all
    for line in disagreements[:shown]:
        print(f"  {line}")
    if len(disagreements) > shown:
        print(f"  (+{len(disagreements) - shown} more)")
    if args.json_out:
        import json

        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(result.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 1 if result.unsafe_reachable or disagreements else 0


def cmd_check(args) -> int:
    from .acceptance import run_acceptance

    results = run_acceptance()
    passed = sum(r.passed for r in results)
    print(f"\n{passed}/{len(results)} criteria passed")
    return 0 if passed == len(results) else 1


COMMANDS = {
    "validate": cmd_validate,
    "worksheet": cmd_worksheet,
    "shard-report": cmd_shard_report,
    "stpa-report": cmd_stpa_report,
    "simulate": cmd_simulate,
    "campaign": cmd_campaign,
    "reach": cmd_reach,
    "check": cmd_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
