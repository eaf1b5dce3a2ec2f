"""Executable acceptance suite.

Ten numbered criteria cover structural fidelity of the shipped reference
data, the interlock truth tables, stop safety across every workflow node,
campaign soundness, hazard realism of the seeded scenarios, agreement
between the simulator and the bounded reachability oracle, and session-log
completeness.  Each criterion reports pass/fail with its elapsed time and
is held to the stated runtime budget.  ``hazgate check`` runs them all.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import Counter
from dataclasses import dataclass

from .campaign import SOUNDNESS_REQUIREMENTS, run_random_campaign
from .datafiles import data_path
from .executive import (
    CONFIRM_ACTIONS,
    EVENT_KINDS,
    EXPOSURE_CONDITIONS,
    EXPOSURE_GATE,
    Event,
    ExecConfig,
    LOGGABLE_EVENT_FAMILY,
    NOMINAL_EVENTS,
    gate_failures,
    init_executive,
)
from .model import load_model, validate_model
from .monitors import SATISFIED, VIOLATED, evaluate_monitors, monitor_r8
from .reach import brute_force_reachability
from .scenarios import Scenario, nominal_timeline
from .session import SOURCES
from .shard import (
    GUIDEWORD_DEFINITIONS,
    GUIDEWORDS,
    canonical_rules,
    coverage_report,
    generate_worksheet,
    load_shard_catalog,
    severity_histogram,
)
from .simulate import run_events, run_scenario
from .stpa import load_canonical_stpa, trace_to_requirements

EXPECTED_GUARDS = [
    "systemReady", "processStageIdentified", "postureDetected", "trajectoryValid",
    "faultDetected", "interruptionHRI", "patientOK", "adjustmentsNeeded",
    "retakeNeeded", "processDone",
]

# methodology column of the refined/additional requirement tables, frozen
EXPECTED_METHODOLOGY = {
    "R1": {"SHARD"}, "R2": {"SHARD"}, "R3": {"SHARD", "STPA"},
    "R4": {"SHARD", "STPA"}, "R5": {"SHARD"}, "R6": {"SHARD", "STPA"},
    "R7": {"SHARD"}, "R8": {"SHARD"}, "R9": {"SHARD"}, "R10": {"STPA"},
    "R11": {"SHARD", "STPA"}, "R12": {"STPA"}, "R13": {"SHARD"},
    "R14": {"SHARD"}, "R15": {"SHARD"}, "R16": {"SHARD", "STPA"},
    "R17": {"SHARD"}, "R18": {"STPA"}, "R19": {"STPA"}, "R20": {"SHARD"},
    "R21": {"SHARD"}, "R22": {"STPA"}, "R23": {"SHARD", "STPA"},
    "R24": {"SHARD", "STPA"}, "R25": {"SHARD"}, "R26": {"STPA"},
    "R27": {"STPA"},
}

# adapted guideword definitions, frozen from the reference worksheet column
EXPECTED_DEFINITIONS = {
    "Omission": "The robotic service is not performed when required (e.g., "
                "the robot fails to detect a user request or does not deliver assistance).",
    "Commission": "A robotic service is performed without a valid trigger (e.g., the robot "
                  "initiates movement or communication without user command or "
                  "environmental justification).",
    "Early": "The robotic service occurs earlier than intended, such as the robot "
             "responding before a task condition is met or interrupting the user "
             "prematurely. This may be absolute or relative.",
    "Late": "The robotic service occurs later than intended (e.g., delayed response to a "
            "help request or late delivery of support that affects task performance).",
    "Value": "The information (data) or physical output delivered has the wrong value "
             "(e.g., misinterpreted sensor data, incorrect movement parameters or "
             "excessive force).",
}

DESIGNATED_SCENARIOS = (
    ("capture_commission.json", "R24"),
    ("arm_positioning_early.json", "R15"),
    ("uca28.json", "R24"),
    ("uca30.json", "R14"),
)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    elapsed_s: float
    budget_s: float
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] criterion {self.number:2d} {self.name:<28s} "
                f"{self.elapsed_s:7.2f}s (budget {self.budget_s:.0f}s)  {self.detail}")


def _criterion(number, name, budget_s):
    def wrap(fn):
        def run() -> CriterionResult:
            start = time.perf_counter()
            try:
                passed, detail = fn()
            except Exception as exc:  # a crash is a failure, not an abort
                passed, detail = False, f"exception: {exc!r}"
            elapsed = time.perf_counter() - start
            if passed and elapsed > budget_s:
                passed, detail = False, f"over budget: {elapsed:.2f}s > {budget_s}s; {detail}"
            return CriterionResult(number, name, passed, elapsed, budget_s, detail)

        run.number = number
        return run
    return wrap


def _model():
    return load_model(data_path("mammobot.proc"))


def _config():
    return ExecConfig.load(data_path("exec_config.json"))


@_criterion(1, "model fidelity", 1.0)
def criterion_1():
    model = _model()
    diags = validate_model(model)
    if diags:
        return False, f"diagnostics: {diags[:3]}"
    actions, decisions = len(model.actions()), len(model.decisions())
    if actions != 8 or decisions != 10:
        return False, f"got {actions} actions / {decisions} decisions"
    if model.guard_names() != EXPECTED_GUARDS:
        return False, f"guard names differ: {model.guard_names()}"
    return True, "8 actions, 10 decisions, canonical guard spellings"


@_criterion(2, "deviation catalog fidelity", 1.0)
def criterion_2():
    model = _model()
    rules = canonical_rules()
    catalog = load_shard_catalog(data_path("shard_catalog.csv"), model=model)
    slots = generate_worksheet(model, rules)
    if len(slots) != 77 or len(catalog) != 77:
        return False, f"slots={len(slots)} rows={len(catalog)} (expected 77/77)"
    coverage = coverage_report(slots, catalog)
    if not coverage.clean or coverage.fill_ratio != 1.0:
        return False, (f"coverage drift={len(coverage.drift)} "
                       f"pending={len(coverage.pending)}")
    if tuple(GUIDEWORDS) != ("Omission", "Commission", "Early", "Late", "Value"):
        return False, "guideword set/order wrong"
    for word, expected in EXPECTED_DEFINITIONS.items():
        if GUIDEWORD_DEFINITIONS[word] != expected:
            return False, f"adapted definition differs for {word}"
    histogram = severity_histogram(catalog)
    return True, (f"77 slots = 77 rows, full coverage, totals {histogram['totals']}")


@_criterion(3, "unsafe-control-action fidelity", 1.0)
def criterion_3():
    ucas, cues, _, _ = load_canonical_stpa()
    if [u.id for u in ucas] != [f"UCA{i:02d}" for i in range(1, 36)]:
        return False, f"UCA ids wrong ({len(ucas)} records)"
    if [c.id for c in cues] != [f"CUE0{i}" for i in range(1, 8)]:
        return False, f"CUE ids wrong ({len(cues)} records)"
    levels = {r.hazard_level for r in ucas} | {r.hazard_level for r in cues}
    if not levels <= {"High", "Medium", "Low", "Annoyance"}:
        return False, f"bad hazard levels {levels}"
    roles = {u.role for u in ucas}
    if not roles <= {"R", "P"}:
        return False, f"bad roles {roles}"
    return True, "35 UCA + 7 CUE records, valid roles and hazard levels"


@_criterion(4, "requirement registry fidelity", 1.0)
def criterion_4():
    ucas, cues, requirements, links = load_canonical_stpa()
    ids = [r.id for r in requirements]
    if ids != [f"R{i}" for i in range(1, 28)]:
        return False, f"ids {ids[:5]}..."
    for req in requirements:
        if set(req.methodology) != EXPECTED_METHODOLOGY[req.id]:
            return False, (f"{req.id} methodology {sorted(req.methodology)} != "
                           f"{sorted(EXPECTED_METHODOLOGY[req.id])}")
    shard = load_shard_catalog(data_path("shard_catalog.csv"))
    matrix = trace_to_requirements(ucas, cues, shard, requirements, links)
    if matrix.mismatches or matrix.broken_refs:
        return False, f"mismatches: {matrix.mismatches[:3]}{matrix.broken_refs[:3]}"
    return True, "R1-R27 present, methodology tags match, zero trace mismatches"


@_criterion(5, "exposure interlock truth table", 1.0)
def criterion_5():
    model, config = _model(), _config()
    allowed = 0
    now = 10_000
    for bits in itertools.product([False, True], repeat=len(EXPOSURE_CONDITIONS)):
        executive, state = init_executive(model, config)
        state.clock = now
        held = dict(zip(EXPOSURE_CONDITIONS, bits))
        state.posture_valid = held["postureValid"]
        state.posture_stable_since = (
            now - config.stabilization_window_ms if held["stabilizationElapsed"]
            else now - config.stabilization_window_ms + 1
        )
        state.arm_moving = not held["armImmobility"]
        if held["patientAssentFresh"]:
            state.ledger.record("exposure", "Patient", now)
        if held["radiographerConfirmFresh"]:
            state.ledger.record("exposure", "Radiographer", now)
        state.fault_active = not held["noFault"]
        state.interruption_active = not held["noInterruption"]
        state.revalidation_required = not held["noRevalidationPending"]
        granted = not gate_failures(EXPOSURE_GATE, executive, state)
        if granted != all(bits):  # brute-force conjunction oracle
            return False, f"gate disagrees with oracle at {bits}"
        allowed += granted
    if allowed != 1:
        return False, f"{allowed} rows allowed (expected exactly 1)"
    return True, "2^8 rows, exactly one grants exposure, gate == oracle"


def stop_sweep(model, config) -> dict:
    """Criterion 6's inputs by node: a nominal session with one retake and a
    voiceStop at the node's first traversal, for each action and decision
    node the session traverses.  One retake routes the session through the
    adjustment loop, so it traverses every such node of the canonical model."""
    events = nominal_timeline(config, retakes={"CC": 1})
    executive, state = init_executive(model, config)
    first_traversal: dict[str, int] = {}
    current_index = -1

    def hook(node_id, clock):
        first_traversal.setdefault(node_id, current_index)

    executive.transition_hook = hook
    hook(state.current_node, 0)
    for i, event in enumerate(events):
        current_index = i
        executive.handle_event(state, event)
    sweep = {}
    for node in [n.id for n in model.nodes if n.kind in ("Action", "Decision")]:
        if node in first_traversal:
            k = first_traversal[node]
            stop_t = events[k].timestamp if k >= 0 else 0
            sweep[node] = events[: k + 1] + [Event(stop_t, "Patient", "voiceStop")] + events[k + 1:]
    return sweep


@_criterion(6, "stop safety per node", 5.0)
def criterion_6():
    model, config = _model(), _config()
    sweep = stop_sweep(model, config)
    targets = [n.id for n in model.nodes if n.kind in ("Action", "Decision")]
    missing = [n for n in targets if n not in sweep]
    if missing:
        return False, f"nominal run never traverses {missing}"
    failures = []
    for node, timeline in sweep.items():
        trace = run_events(model, config, timeline, enabled=True)
        verdicts = evaluate_monitors(trace, config)
        bad = [v for v in verdicts if v.status == VIOLATED]
        r14 = next(v for v in verdicts if v.requirement == "R14")
        if bad or r14.status != SATISFIED:
            failures.append((node, [(v.requirement, v.explanation) for v in bad]))
    if failures:
        return False, f"{len(failures)} nodes failed: {failures[:3]}"
    return True, f"stop honoured at all {len(targets)} nodes within budget"


@_criterion(7, "campaign soundness", 60.0)
def criterion_7():
    model, config = _model(), _config()
    first = run_random_campaign(model, config, 10_000, seed=42)
    if first.violated_count(SOUNDNESS_REQUIREMENTS) != 0:
        return False, f"violations: {first.violations[:5]}"
    second = run_random_campaign(model, config, 10_000, seed=42)
    if first.to_json() != second.to_json():
        return False, "re-run with same seed produced different report bytes"
    return True, (f"10000 scenarios, zero violations of "
                  f"{'/'.join(SOUNDNESS_REQUIREMENTS)}, byte-identical re-run")


@_criterion(8, "hazard realism", 5.0)
def criterion_8():
    model, config = _model(), _config()
    problems = []
    for filename, requirement in DESIGNATED_SCENARIOS:
        scenario = Scenario.load(data_path("scenarios", filename))
        off = run_scenario(model, config, scenario, executive_enabled=False)
        verdict = off.verdict_for(requirement)
        if verdict is None or verdict.status != VIOLATED or verdict.witness is None:
            problems.append(f"{scenario.name}: no {requirement} violation when unprotected")
        on = run_scenario(model, config, scenario, executive_enabled=True)
        if on.outcome != "BlockedSafely" or on.violated:
            problems.append(f"{scenario.name}: protected run {on.outcome} {on.violated}")
    if problems:
        return False, "; ".join(problems[:3])
    return True, "4 seeded high-severity scenarios: violated unprotected, blocked protected"


@_criterion(9, "oracle equivalence", 120.0)
def criterion_9():
    model, config = _model(), _config()
    off = brute_force_reachability(model, config, max_depth=12, executive_enabled=False)
    if not off.unsafe_reachable or not off.counterexample:
        return False, "unsafe exposure not reachable with executive disabled"
    if off.cross_check_disagreements:
        return False, f"off-run disagreements: {off.cross_check_disagreements[:2]}"
    on = brute_force_reachability(model, config, max_depth=12, executive_enabled=True)
    if on.unsafe_reachable:
        return False, f"unsafe exposure reachable with executive enabled: {on.unsafe_detail}"
    if not on.complete:
        return False, "search did not complete within budget"
    if on.cross_check_disagreements:
        return False, f"on-run disagreements: {on.cross_check_disagreements[:2]}"
    return True, (f"disabled: counterexample of {len(off.counterexample)} event(s); "
                  f"enabled: {on.states_explored} states, depth {on.depth_reached}, "
                  f"{on.cross_checked} sequences cross-checked, full agreement")


def _random_timeline(rng: random.Random) -> list:
    actions = [*CONFIRM_ACTIONS, "decide", "advance", "bogus"]
    weights = {"needed": 0.5, "retake": 0.3}  # chance a drawn field is true; else 0.8
    t = 0
    events = []
    for _ in range(rng.randint(5, 40)):
        t += rng.randint(0, 3000)
        kind = rng.choice(EVENT_KINDS)
        payload = {}
        fields = NOMINAL_EVENTS[kind][1]
        if kind == "commandConfirm":
            payload["action"] = action = rng.choice(actions)
            fields = CONFIRM_ACTIONS.get(action, fields)
        for name in fields:
            payload[name] = rng.random() < weights.get(name, 0.8)
        events.append(Event(t, rng.choice(SOURCES), kind, payload))
    return events


@_criterion(10, "log completeness", 10.0)
def criterion_10():
    model, config = _model(), _config()
    rng = random.Random(20260810)
    family_kinds = set(LOGGABLE_EVENT_FAMILY.values())
    for i in range(1000):
        events = _random_timeline(rng)
        enabled = i % 2 == 0
        trace = run_events(model, config, events, enabled=enabled)
        expected = Counter(
            LOGGABLE_EVENT_FAMILY[e.kind] for e in events if e.kind in LOGGABLE_EVENT_FAMILY
        )
        actual = Counter(e.kind for e in trace.log if e.kind in family_kinds)
        if expected != actual:  # direct multiset oracle, independent of monitor
            return False, f"timeline {i}: multiset mismatch {expected} vs {actual}"
        times = [e.t for e in trace.log]
        if times != sorted(times):
            return False, f"timeline {i}: log timestamps decrease"
        if monitor_r8(trace, config).status == VIOLATED:
            return False, f"timeline {i}: monitor disagrees with oracle"
    return True, "1000 random timelines: event/log multisets equal, timestamps ordered"


ALL_CRITERIA = [
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
]


def run_acceptance(echo=print) -> list[CriterionResult]:
    results = []
    for criterion in ALL_CRITERIA:
        result = criterion()
        results.append(result)
        if echo is not None:
            echo(result.line())
    return results
