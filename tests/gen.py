"""Random generators shared by property tests."""

from __future__ import annotations

import random
from dataclasses import replace

from hazgate.model import (
    KIND_ACTION,
    KIND_DECISION,
    KIND_FINAL,
    KIND_INITIAL,
    Edge,
    GuardDecl,
    Node,
    ProcessModel,
)

ACTORS = ("A", "M", "SA")


def random_valid_model(rng: random.Random, max_actions: int = 6) -> ProcessModel:
    """Build a random model satisfying every structural invariant.

    Construction is a forward chain of actions with optional decision
    diamonds; each decision's false edge loops back to an action at or
    before the decision, which preserves reachability in both directions.
    """
    n_actions = rng.randint(1, max_actions)
    action_ids = [f"a{i}" for i in range(n_actions)]
    nodes = [Node("start", KIND_INITIAL, "start"), Node("end", KIND_FINAL, "end")]
    nodes += [
        Node(aid, KIND_ACTION, f"Step {i}", actor_mode=rng.choice(ACTORS))
        for i, aid in enumerate(action_ids)
    ]
    guards: list[GuardDecl] = []
    edges = [Edge("start", action_ids[0])]

    prev_index = 0
    for nxt in action_ids[1:] + ["end"]:
        prev = action_ids[prev_index]
        if rng.random() < 0.5:
            k = len(guards)
            guard = GuardDecl(f"g{k}", f"condition {k}")
            guards.append(guard)
            did = f"d{k}"
            nodes.append(Node(did, KIND_DECISION, f"Check {k}?", guard=guard.name))
            edges.append(Edge(prev, did))
            edges.append(Edge(did, nxt, True))
            back = action_ids[rng.randint(0, prev_index)]
            edges.append(Edge(did, back, False))
        else:
            edges.append(Edge(prev, nxt))
        prev_index += 1

    return ProcessModel(
        name=f"rand{rng.randint(0, 9999)}",
        nodes=nodes,
        edges=edges,
        guards=guards,
        initial="start",
        final="end",
    )


def break_reachability(rng: random.Random, m: ProcessModel) -> ProcessModel:
    """Add nodes that violate reachability and/or co-reachability."""
    kind = rng.choice(("orphan", "trap"))
    if kind == "orphan":
        # reaches final but nothing reaches it
        node, edge = Node("orphan", KIND_ACTION, "Orphan", actor_mode="A"), Edge("orphan", "end")
    else:
        # self-looping island: unreachable and a dead end
        node, edge = Node("trap", KIND_ACTION, "Trap", actor_mode="A"), Edge("trap", "trap")
    return replace(m, nodes=m.nodes + (node,), edges=m.edges + (edge,))
