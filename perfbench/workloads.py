"""The four benchmark workloads, their pinned inputs and their correctness gates.

Every input the program receives is spelled out here rather than taken from
hazgate's defaults, so a later change to a default shows up as a changed
program, not as a silently changed workload.  Each workload runs one
verdict per call of ``run`` (a closed loop with one client: the next verdict
starts when the previous one is rendered), marks its scenarios on a
:class:`StepClock`, and returns a :class:`Rep` for the runner.

Import this module only after ``<checkout>/src`` is on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import json
import random
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from hazgate import acceptance, campaign, reach, reporting, simulate
from hazgate.executive import LOGGABLE_EVENT_FAMILY, Event, ExecConfig, init_executive
from hazgate.model import load_model
from hazgate.monitors import SATISFIED, VIOLATED
from hazgate.scenarios import Scenario, nominal_timeline
from hazgate.shard import load_shard_catalog
from hazgate.stpa import load_uca_catalog

from layers import Patches
from stepclock import StepClock

SOUNDNESS = ("R14", "R20", "R21", "R23", "R24", "R25")
MONITORS = ("R1", "R8", "R14", "R15", "R16", "R20", "R21", "R23", "R24", "R25", "R26")

CAMPAIGN_N = 2000

REACH_ALPHABET = (
    "commandConfirm", "postureUpdate", "motionComplete", "exposureRequest",
    "exposureComplete", "assent", "voiceStop", "tick",
)
REACH_DEPTH = 12
REACH_STATE_BUDGET = 1_000_000

SHIPPED_SCENARIOS = (
    "arm_positioning_early.json", "capture_commission.json", "nominal.json",
    "uca28.json", "uca30.json",
)
RANDOM_TIMELINES = 2000


@dataclass
class Context:
    """Program inputs loaded once per run from explicit paths in the checkout."""

    data: Path
    model: object
    config: ExecConfig
    shard_catalog: list
    ucas: list

    @classmethod
    def load(cls, root: Path) -> "Context":
        data = root / "src" / "hazgate" / "data"
        return cls(
            data=data,
            model=load_model(data / "mammobot.proc"),
            config=ExecConfig.load(data / "exec_config.json"),
            shard_catalog=load_shard_catalog(data / "shard_catalog.csv"),
            ucas=load_uca_catalog(data / "uca_catalog.csv"),
        )


@dataclass
class Rep:
    """One verdict: what it attempted, what went wrong, and its times.

    ``wall_s`` is wall time; ``work`` and ``scenarios`` are in reference
    loops (see :mod:`stepclock`)."""

    ops: int
    digest: str
    summary: dict
    wall_s: float
    work: float
    scenarios: array
    failures: list = field(default_factory=list)  # one line per failed operation
    known: list = field(default_factory=list)  # failures matching KNOWN_DEFECTS
    gates: list = field(default_factory=list)  # whole-verdict gate breaches


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _before(action):
    """Wrapper factory that calls ``action()`` before each call."""
    def make(fn):
        def hooked(*args, **kwargs):
            action()
            return fn(*args, **kwargs)
        return hooked
    return make


def _rep(clock: StepClock, ops: int, digest: str, summary: dict, **checks) -> Rep:
    wall, work, scenarios = clock.finish()
    return Rep(ops=ops, digest=digest, summary=summary, wall_s=wall, work=work,
               scenarios=scenarios, **checks)


# -- campaign-on / campaign-off --------------------------------------------


def check_campaign(report, enabled: bool) -> tuple[list, list]:
    """Failed scenarios and gate breaches of one campaign report."""
    failures, gates = [], []
    if sum(report.outcomes.values()) != report.n:
        gates.append(f"outcomes cover {sum(report.outcomes.values())} of {report.n} scenarios")
    if enabled:
        bad = sorted({(i, r) for i, _, r, _ in report.violations if r in SOUNDNESS})
        failures = [f"scenario {i}: protected run violates {r}" for i, r in bad]
        if not report.outcomes.get("SafeCompletion"):
            gates.append("no SafeCompletion: the protected campaign is vacuous")
    elif not any(r == "R24" for _, _, r, _ in report.violations):
        gates.append("no R24 violation: the unprotected baseline is vacuous")
    return failures, gates


class CampaignWorkload:
    def __init__(self, name: str, enabled: bool):
        self.name, self.enabled = name, enabled

    def prepare(self, ctx: Context, seed: int, patches: Patches, clock: StepClock) -> dict:
        patches.replace(campaign, "generate_campaign_scenario", _before(clock.scenario))
        return {"ctx": ctx, "seed": seed, "clock": clock}

    def warm_up(self, inputs: dict) -> None:
        ctx = inputs["ctx"]
        campaign.run_random_campaign(ctx.model, ctx.config, 20, inputs["seed"],
                                     shard_catalog=ctx.shard_catalog, ucas=ctx.ucas,
                                     executive_enabled=self.enabled, monitors=MONITORS)

    def ops_per_rep(self, inputs: dict) -> int:
        return CAMPAIGN_N

    def run(self, inputs: dict) -> Rep:
        ctx, clock = inputs["ctx"], inputs["clock"]
        clock.start()
        report = campaign.run_random_campaign(
            ctx.model, ctx.config, CAMPAIGN_N, inputs["seed"],
            shard_catalog=ctx.shard_catalog, ucas=ctx.ucas,
            executive_enabled=self.enabled, monitors=MONITORS,
        )
        clock.end_scenarios()
        text = report.to_json()  # hazgate campaign --json --md
        bundle = reporting.build_campaign_bundle(
            report, ctx.config, {"model": "mammobot.proc", "config": "exec_config.json"})
        bundle.to_markdown()
        clock.stop()
        failures, gates = check_campaign(report, self.enabled)
        if clock.scenario_count != CAMPAIGN_N:
            gates.append(f"{clock.scenario_count} scenarios generated, expected {CAMPAIGN_N}")
        return _rep(clock, report.n, _sha256(text),
                    {"outcomes": dict(sorted(report.outcomes.items())),
                     "violations": len(report.violations)},
                    failures=failures, gates=gates)


# -- reach-d12 ---------------------------------------------------------------


def check_reach(result) -> tuple[list, list]:
    failures = list(result.cross_check_disagreements)
    gates = []
    if result.unsafe_reachable:
        gates.append(f"unsafe exposure reachable: {result.unsafe_detail}")
    if not result.complete:
        gates.append("search did not complete within its state budget")
    if result.cross_checked == 0:
        gates.append("nothing cross-checked")
    return failures, gates


class ReachWorkload:
    name = "reach-d12"

    def prepare(self, ctx: Context, seed: int, patches: Patches, clock: StepClock) -> dict:
        # the search space is fixed by the pinned model, config and alphabet;
        # the seed does not enter it.  A key is computed once per transition,
        # which offers the reference loop a point every few microseconds;
        # each witness replay starts a scenario.
        patches.replace(reach, "abstract_key", _before(clock.step))
        patches.replace(reach, "_replay", _before(clock.scenario))
        return {"ctx": ctx, "clock": clock}

    def _search(self, ctx: Context, depth: int):
        return reach.brute_force_reachability(
            ctx.model, ctx.config, max_depth=depth, alphabet=REACH_ALPHABET,
            executive_enabled=True, state_budget=REACH_STATE_BUDGET,
            stop_at_first=True, cross_check=True,
        )

    def warm_up(self, inputs: dict) -> None:
        self._search(inputs["ctx"], 3)

    def ops_per_rep(self, inputs: dict) -> int:
        return 1  # a search that raised is one failed verdict; its witnesses are unknown

    def run(self, inputs: dict) -> Rep:
        ctx, clock = inputs["ctx"], inputs["clock"]
        clock.start()
        result = self._search(ctx, REACH_DEPTH)
        clock.end_scenarios()
        json.dumps(result.to_json_dict(), indent=2, sort_keys=True)  # hazgate reach --json
        clock.stop()
        failures, gates = check_reach(result)
        summary = {
            "states": result.states_explored, "transitions": result.transitions,
            "cross_checked": result.cross_checked,
            "disagreements": len(result.cross_check_disagreements),
            "unsafe_reachable": result.unsafe_reachable,
        }
        if clock.scenario_count != result.cross_checked:
            gates.append(f"{clock.scenario_count} replays for {result.cross_checked} cross-checks")
        return _rep(clock, result.cross_checked, _sha256(json.dumps(summary, sort_keys=True)),
                    summary, failures=failures, gates=gates)


# -- replay-mixed ------------------------------------------------------------


def _uncleared_fault_release(result, verdict) -> bool:
    """R20 flags a safe-path release although a fault raised before it was
    never cleared.  monitors._emergency_context treats any later resume as
    ending the fault, so it does not see the emergency; the release is the
    mandated safe-posture transition and R20 does not govern it."""
    if verdict.requirement != "R20" or not verdict.explanation.startswith("release at "):
        return False
    t = int(verdict.explanation.split()[2])
    log = result.trace.log
    faults = [e.t for e in log if e.kind == "fault" and e.t <= t]
    return bool(faults) and not any(
        e.kind == "faultCleared" and faults[-1] <= e.t <= t for e in log)


# known program defects: counted in `failed`, listed by name, and allowed to
# leave the run `correct`; any other failure makes it incorrect
KNOWN_DEFECTS = {"r20-uncleared-fault-release": _uncleared_fault_release}


def check_replay(kind: str, events, result) -> tuple[str | None, str | None]:
    """(failure, known defect name) for one replayed input."""
    if kind == "shipped":
        ok, why = simulate.check_expectation(result)
        return (None if ok else why), None
    if kind == "stop":
        r14 = result.verdict_for("R14")
        if result.violated or r14 is None or r14.status != SATISFIED:
            return f"violated {list(result.violated)}, R14 {r14 and r14.status}", None
        return None, None
    family = set(LOGGABLE_EVENT_FAMILY.values())
    expected = Counter(LOGGABLE_EVENT_FAMILY[e.kind] for e in events
                       if e.kind in LOGGABLE_EVENT_FAMILY)
    actual = Counter(e.kind for e in result.trace.log if e.kind in family)
    if expected != actual:
        return (f"event/log multiset mismatch: missing {dict(expected - actual)}, "
                f"extra {dict(actual - expected)}"), None
    times = [e.t for e in result.trace.log]
    if times != sorted(times):
        return "log timestamps decrease", None
    if not result.executive_enabled:
        return None, None
    unsound = [v for v in result.verdicts if v.status == VIOLATED and v.requirement in SOUNDNESS]
    if not unsound:
        return None, None
    why = "; ".join(f"{v.requirement}: {v.explanation}" for v in unsound)
    for name, matches in KNOWN_DEFECTS.items():
        if all(matches(result, v) for v in unsound):
            return why, name
    return why, None


def stop_sweep(ctx: Context) -> list:
    """Criterion 6's inputs: a voiceStop at the first traversal of each of the
    18 action and decision nodes of a nominal session with one retake."""
    events = nominal_timeline(ctx.config, retakes={"CC": 1})
    executive, state = init_executive(ctx.model, ctx.config)
    first: dict = {}
    current = -1

    def hook(node_id, clock):
        first.setdefault(node_id, current)

    executive.transition_hook = hook
    hook(state.current_node, 0)
    for current, event in enumerate(events):
        executive.handle_event(state, event)
    out = []
    for node in [n.id for n in ctx.model.nodes if n.kind in ("Action", "Decision")]:
        k = first[node]
        stop_t = events[k].timestamp if k >= 0 else 0
        out.append((f"stop@{node}",
                    events[: k + 1] + [Event(stop_t, "Patient", "voiceStop")] + events[k + 1:]))
    return out


class ReplayWorkload:
    name = "replay-mixed"

    def prepare(self, ctx: Context, seed: int, patches: Patches, clock: StepClock) -> dict:
        inputs = []  # (label, kind, events or None, Scenario, executive enabled)
        for filename in SHIPPED_SCENARIOS:
            scenario = Scenario.load(ctx.data / "scenarios" / filename)
            for enabled in (True, False):
                inputs.append((filename, "shipped", None, scenario, enabled))
        for label, events in stop_sweep(ctx):
            inputs.append((label, "stop", events, Scenario(label, events), True))
        rng = random.Random(seed)
        for i in range(RANDOM_TIMELINES):
            events = acceptance._random_timeline(rng)
            inputs.append((f"random#{i}", "random", events,
                           Scenario(f"random-{i}", events), i % 2 == 1))
        return {"ctx": ctx, "inputs": inputs, "clock": clock}

    def warm_up(self, inputs: dict) -> None:
        ctx = inputs["ctx"]
        for _, _, _, scenario, enabled in inputs["inputs"][:40]:
            simulate.run_scenario(ctx.model, ctx.config, scenario,
                                  executive_enabled=enabled).trace.to_jsonl()

    def ops_per_rep(self, inputs: dict) -> int:
        return len(inputs["inputs"])

    def run(self, inputs: dict) -> Rep:
        ctx, clock = inputs["ctx"], inputs["clock"]
        clock.start()
        failures, known, verdicts = [], [], []
        for label, kind, events, scenario, enabled in inputs["inputs"]:
            clock.scenario()
            result = simulate.run_scenario(ctx.model, ctx.config, scenario,
                                           executive_enabled=enabled)
            result.trace.to_jsonl()  # hazgate simulate --trace
            clock.stop()  # checks are not the program's time
            mode = "on" if enabled else "off"
            verdicts.append(f"{label}|{mode}|{result.outcome}|{','.join(result.violated)}")
            failure, defect = check_replay(kind, events, result)
            if failure is not None:
                failures.append(f"{label} ({mode}): {failure}")
                if defect is not None:
                    known.append(f"{defect}: {label} ({mode})")
        outcomes = Counter(v.split("|")[2] for v in verdicts)
        return _rep(clock, len(verdicts), _sha256("\n".join(verdicts)),
                    {"outcomes": dict(sorted(outcomes.items()))},
                    failures=failures, known=known)


# why each workload is there: README.md and BENCHMARK.json
WORKLOADS = {
    w.name: w for w in (
        CampaignWorkload("campaign-on", True),
        CampaignWorkload("campaign-off", False),
        ReachWorkload(),
        ReplayWorkload(),
    )
}
