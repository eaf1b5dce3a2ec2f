"""Per-layer spans and counts, taken from outside hazgate.

A traced run rebinds hazgate's public functions to timing wrappers before
the workload runs, so hazgate itself carries no tracing code.  Each span is
aggregated in memory by (parent span, span name): calls, total time and
self time, where self time is the span's duration minus the time of the
spans it caused.  Counts are taken at the same boundaries from the
arguments and results that cross them.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# per-layer metric -> unit; BENCHMARK.json lists exactly these names
PER_LAYER_UNITS = {
    "campaign.generate_s": "s",
    "scenarios.apply_injection_s": "s",
    "scenarios.injections_applied": "count",
    "scenarios.injections_skipped": "count",
    "scenarios.injection_applied_ratio": "ratio",
    "scenarios.events_per_scenario": "events",
    "simulate.run_events_s": "s",
    "simulate.self_s": "s",
    "executive.handle_event_s": "s",
    "executive.handle_event_calls": "count",
    "executive.us_per_event": "us",
    "executive.snapshot_s": "s",
    "executive.refusals": "count",
    "executive.grants": "count",
    "monitors.evaluate_s": "s",
    "monitors.traces": "count",
    "monitors.violations": "count",
    **{f"monitors.{r}_s": "s" for r in (
        "R1", "R8", "R14", "R15", "R16", "R20", "R21", "R23", "R24", "R25", "R26")},
    "reach.states": "count",
    "reach.transitions": "count",
    "reach.new_state_ratio": "ratio",
    "reach.transitions_per_s": "1/s",
    "reach.abstract_key_s": "s",
    "reach.abstract_key_calls": "count",
    "reach.search_self_s": "s",
    "reach.crosscheck_s": "s",
    "reach.cross_checked": "count",
    "reach.replay_events": "count",
    "reach.disagreements": "count",
    "reporting.report_s": "s",
    "reporting.report_bytes": "bytes",
    "setup.import_s": "s",
    "model.load_s": "s",
    "shard.load_s": "s",
    "stpa.load_s": "s",
    "trace.overhead_share": "share",
}

_REPORT_SPANS = ("reporting.campaign_json", "reporting.campaign_bundle",
                 "reporting.markdown", "reporting.trace_jsonl")


class Patches:
    """Rebinds a hazgate function or method everywhere it is bound, and undoes it.

    A function is replaced in every ``hazgate`` module namespace that binds
    it (``from .x import f`` copies included) and in module-level dicts such
    as ``monitors.MONITORS``; a method is replaced on its class.
    """

    def __init__(self):
        self._undo = []

    def replace(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        replacement = make(original)
        if isinstance(owner, type):
            setattr(owner, attr, replacement)
            self._undo.append((setattr, owner, attr, original))
            return
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "hazgate" or name.startswith("hazgate.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)
                    self._undo.append((setattr, module, key, original))
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = replacement
                            self._undo.append((dict.__setitem__, value, k, original))

    def restore(self) -> None:
        while self._undo:
            setter, target, key, original = self._undo.pop()
            setter(target, key, original)


class Tracer:
    """In-memory span aggregates keyed by (parent, name), plus counts."""

    def __init__(self):
        self.stack: list[list] = []  # open spans: [name, time of child spans]
        self.spans: dict[tuple, list] = {}  # (parent, name) -> [calls, total, self]
        self.counts: dict[str, int] = defaultdict(int)
        self.patches = Patches()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def wrap(self, name: str, fn, after=None, on_error=None):
        stack, spans, clock = self.stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                record = spans.get((parent, name))
                if record is None:
                    record = spans[(parent, name)] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]
            if after is not None:
                after(result, args, parent)
            return result

        return traced

    def install(self, owner, attr: str, name: str, after=None, on_error=None) -> None:
        self.patches.replace(owner, attr, lambda fn: self.wrap(name, fn, after, on_error))

    def uninstall(self) -> None:
        self.patches.restore()

    # -- aggregate queries --------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(r[0] for (_, n), r in self.spans.items() if n == name)

    def total(self, name: str, outside: str | None = None) -> float:
        """Total time of span ``name``; with ``outside``, only calls whose
        parent is not ``outside``."""
        return sum(r[1] for (p, n), r in self.spans.items()
                   if n == name and (outside is None or p != outside))

    def self_time(self, name: str) -> float:
        return sum(r[2] for (_, n), r in self.spans.items() if n == name)

    def edges(self) -> dict:
        return {f"{p or '-'} > {n}": {"calls": r[0], "total_s": r[1], "self_s": r[2]}
                for (p, n), r in sorted(self.spans.items(), key=lambda kv: -kv[1][1])}


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are taken at."""
    from hazgate import campaign, executive, monitors, reach, reporting, scenarios, simulate

    counts = tracer.counts

    def count_trace(trace, events):
        counts["executive.refusals"] += len(trace.refusals)
        counts["executive.grants"] += sum(
            1 for e in trace.log if e.kind == "exposure" and e.details == "granted")
        return len(events)

    def after_run_events(trace, args, parent):
        counts["scenarios.events"] += count_trace(trace, args[2])

    def after_replay(result, args, parent):
        counts["reach.replay_events"] += count_trace(result[0], args[2])

    def after_injection(result, args, parent):
        counts["scenarios.injections_applied"] += 1

    def on_injection_error(exc):
        if isinstance(exc, scenarios.InjectionError):
            counts["scenarios.injections_skipped"] += 1

    def after_evaluate(result, args, parent):
        counts["monitors.traces"] += 1

    def after_monitor(verdict, args, parent):
        counts["monitors.violations"] += verdict.status == monitors.VIOLATED
        if parent != "monitors.evaluate":
            counts["monitors.traces"] += 1  # a monitor called on its own, as reach does

    def after_search(result, args, parent):
        counts["reach.states"] += result.states_explored
        counts["reach.transitions"] += result.transitions
        counts["reach.cross_checked"] += result.cross_checked
        counts["reach.disagreements"] += len(result.cross_check_disagreements)

    def after_render(text, args, parent):
        counts["reporting.report_bytes"] += len(text.encode("utf-8"))

    tracer.install(campaign, "generate_campaign_scenario", "campaign.generate")
    tracer.install(scenarios, "apply_injection", "scenarios.apply_injection",
                   after_injection, on_injection_error)
    tracer.install(simulate, "run_events", "simulate.run_events", after_run_events)
    tracer.install(executive.SafetyExecutive, "handle_event", "executive.handle_event")
    tracer.install(executive.ExecState, "snapshot", "executive.snapshot")
    tracer.install(monitors, "evaluate_monitors", "monitors.evaluate", after_evaluate)
    for requirement, monitor in monitors.MONITORS.items():
        tracer.install(monitors, monitor.__name__, f"monitors.{requirement}", after_monitor)
    tracer.install(reach, "brute_force_reachability", "reach.search", after_search)
    tracer.install(reach, "abstract_key", "reach.abstract_key")
    tracer.install(reach, "_cross_check", "reach.crosscheck")
    tracer.install(reach, "_replay", "reach.replay", after_replay)
    tracer.install(campaign.CampaignReport, "to_json", "reporting.campaign_json", after_render)
    tracer.install(reporting, "build_campaign_bundle", "reporting.campaign_bundle")
    tracer.install(reporting.ReportBundle, "to_markdown", "reporting.markdown", after_render)
    tracer.install(simulate.Trace, "to_jsonl", "reporting.trace_jsonl", after_render)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one verdict (setup and overhead are added by the runner)."""
    c, t = tracer.counts, tracer
    applied, skipped = c["scenarios.injections_applied"], c["scenarios.injections_skipped"]
    handle_calls = t.calls("executive.handle_event")
    monitor_spans = [n for (_, n) in t.spans if n.startswith("monitors.R")]
    search_s = t.total("reach.search")
    crosscheck_s = t.total("reach.crosscheck")
    out = {
        "campaign.generate_s": t.total("campaign.generate"),
        "scenarios.apply_injection_s": t.total("scenarios.apply_injection"),
        "scenarios.injections_applied": applied,
        "scenarios.injections_skipped": skipped,
        "scenarios.injection_applied_ratio": _ratio(applied, applied + skipped),
        "scenarios.events_per_scenario": _ratio(c["scenarios.events"],
                                                t.calls("simulate.run_events")),
        "simulate.run_events_s": t.total("simulate.run_events"),
        "simulate.self_s": t.self_time("simulate.run_events"),
        "executive.handle_event_s": t.total("executive.handle_event"),
        "executive.handle_event_calls": handle_calls,
        "executive.us_per_event": _ratio(t.total("executive.handle_event") * 1e6, handle_calls),
        "executive.snapshot_s": t.total("executive.snapshot"),
        "executive.refusals": c["executive.refusals"],
        "executive.grants": c["executive.grants"],
        # the monitor bank: evaluate_monitors plus monitors called on their own
        "monitors.evaluate_s": t.total("monitors.evaluate") + sum(
            t.total(n, outside="monitors.evaluate") for n in set(monitor_spans)),
        "monitors.traces": c["monitors.traces"],
        "monitors.violations": c["monitors.violations"],
        "reach.states": c["reach.states"],
        "reach.transitions": c["reach.transitions"],
        "reach.new_state_ratio": _ratio(c["reach.states"], c["reach.transitions"]),
        "reach.transitions_per_s": _ratio(c["reach.transitions"], search_s - crosscheck_s),
        "reach.abstract_key_s": t.total("reach.abstract_key"),
        "reach.abstract_key_calls": t.calls("reach.abstract_key"),
        "reach.search_self_s": t.self_time("reach.search"),
        "reach.crosscheck_s": crosscheck_s,
        "reach.cross_checked": c["reach.cross_checked"],
        "reach.replay_events": c["reach.replay_events"],
        "reach.disagreements": c["reach.disagreements"],
        "reporting.report_s": sum(t.total(n) for n in _REPORT_SPANS),
        "reporting.report_bytes": c["reporting.report_bytes"],
    }
    for requirement in ("R1", "R8", "R14", "R15", "R16", "R20", "R21", "R23", "R24", "R25",
                        "R26"):
        out[f"monitors.{requirement}_s"] = t.total(f"monitors.{requirement}")
    return out
