"""Guarded activity-diagram process models.

A process model is a directed graph of action and decision nodes.  Actions
carry an actor annotation (A: automated, M: manual, SA: semi-automated) and
have exactly one outgoing edge; decisions evaluate a named boolean guard and
have exactly one outgoing edge per polarity.  Models are written in a
line-oriented DSL (``.proc`` files)::

    # hazgate process v1
    process minimal
    guard go "ready to proceed"
    initial start
    final end
    action work "Do the work" actor=A
    edge start -> work
    edge work -> end

Parsing, validation, serialization and the graph queries used by the
analysis and simulation layers all live here.  Each rule has one home.
``parse_model`` checks what one line shows, and reports it with that line's
number: syntax, actor modes, guards declared before use, and ids and guards
declared once.  ``validate_model`` checks only the graph: initial and final
nodes, edge ends, fan-out, and reachability.
"""

from __future__ import annotations

import json
import shlex
from collections import deque
from dataclasses import asdict, dataclass

DSL_VERSION = "hazgate process v1"
SCHEMA_VERSION = "process-model/1"

ACTOR_MODES = ("A", "M", "SA")

KIND_ACTION = "Action"
KIND_DECISION = "Decision"
KIND_INITIAL = "Initial"
KIND_FINAL = "Final"
NODE_KINDS = (KIND_ACTION, KIND_DECISION, KIND_INITIAL, KIND_FINAL)


class ParseError(ValueError):
    """Syntax error in DSL text, with 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, col {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class ModelError(ValueError):
    """A parsed model violates structural invariants."""

    def __init__(self, diagnostics: list["Diagnostic"]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class Diagnostic:
    """One violated invariant, naming the offending node or edge."""

    code: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}({self.subject}): {self.message}"


@dataclass(frozen=True)
class GuardDecl:
    name: str
    description: str = ""
    true_polarity: str = ""


@dataclass(frozen=True)
class Node:
    id: str
    kind: str
    label: str
    actor_mode: str | None = None  # Actions only
    guard: str | None = None  # Decisions only


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    guard_value: bool | None = None  # present iff src is a Decision


@dataclass(frozen=True)
class ProcessModel:
    """A process model, an immutable value: its node, edge and guard lists
    are tuples, whatever the constructor was given.  An executive built from
    a model stays exact for as long as the model lives; derive a variant
    with ``dataclasses.replace``."""

    name: str
    nodes: tuple[Node, ...] = ()
    edges: tuple[Edge, ...] = ()
    guards: tuple[GuardDecl, ...] = ()
    initial: str = ""
    final: str = ""

    def __post_init__(self):
        for name in ("nodes", "edges", "guards"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    def node_by_label(self, label: str) -> Node:
        key = normalize_label(label)
        for n in self.nodes:
            if normalize_label(n.label) == key:
                return n
        raise KeyError(f"no node labelled {label!r}")

    def out_edges(self, node_id: str) -> list[Edge]:
        return [e for e in self.edges if e.src == node_id]

    def actions(self) -> list[Node]:
        return [n for n in self.nodes if n.kind == KIND_ACTION]

    def decisions(self) -> list[Node]:
        return [n for n in self.nodes if n.kind == KIND_DECISION]

    def guard_names(self) -> list[str]:
        return [g.name for g in self.guards]

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "initial": self.initial,
            "final": self.final,
            "guards": [asdict(g) for g in self.guards],
            "nodes": [asdict(n) for n in self.nodes],
            "edges": [
                {"from": e.src, "to": e.dst, "guard_value": e.guard_value}
                for e in self.edges
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ProcessModel":
        return cls(
            name=data["name"],
            nodes=[Node(**n) for n in data["nodes"]],
            edges=[Edge(e["from"], e["to"], e["guard_value"]) for e in data["edges"]],
            guards=[GuardDecl(**g) for g in data["guards"]],
            initial=data["initial"],
            final=data["final"],
        )

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=False) + "\n"


def normalize_label(label: str) -> str:
    """Case- and punctuation-insensitive key for matching display labels."""
    return "".join(ch for ch in label.lower() if ch.isalnum())


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _split(line: str, lineno: int) -> list[str]:
    try:
        return shlex.split(line, comments=False, posix=True)
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from exc


def _kv(token: str, key: str, lineno: int) -> str:
    prefix = key + "="
    if not token.startswith(prefix):
        raise ParseError(f"expected {key}=..., got {token!r}", lineno)
    return token[len(prefix):]


def parse_model(text: str) -> ProcessModel:
    """Parse DSL text into a validated :class:`ProcessModel`.

    Raises :class:`ParseError` at the first line that breaks a line rule
    (syntax, a bad actor, an undeclared guard, a repeated id or guard), and
    :class:`ModelError` with every ``missing-name`` and graph diagnostic.
    """
    name = ""
    ends = {"initial": "", "final": ""}
    nodes: list[Node] = []
    edges: list[Edge] = []
    guards: list[GuardDecl] = []
    seen_ids: dict[str, int] = {}
    seen_guards: dict[str, int] = {}

    def declare_node(node: Node, lineno: int) -> None:
        if node.id in seen_ids:
            raise ParseError(
                f"duplicate id {node.id!r} (first declared on line {seen_ids[node.id]})",
                lineno,
            )
        seen_ids[node.id] = lineno
        nodes.append(node)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = _split(line, lineno)
        keyword, args = tokens[0], tokens[1:]

        if keyword == "process":
            if len(args) != 1:
                raise ParseError("process takes exactly one name", lineno)
            name = args[0]
        elif keyword == "guard":
            if not args:
                raise ParseError("guard needs a name", lineno)
            guard = args[0]
            if guard in seen_guards:
                raise ParseError(
                    f"duplicate guard {guard!r} (first declared on line {seen_guards[guard]})",
                    lineno,
                )
            seen_guards[guard] = lineno
            description = args[1] if len(args) > 1 else ""
            polarity = ""
            for extra in args[2:]:
                polarity = _kv(extra, "holds", lineno)
            guards.append(GuardDecl(guard, description, polarity))
        elif keyword in ("initial", "final"):
            if len(args) != 1:
                raise ParseError(f"{keyword} takes exactly one id", lineno)
            if ends[keyword]:
                raise ParseError(f"{keyword} already declared", lineno)
            kind = KIND_INITIAL if keyword == "initial" else KIND_FINAL
            declare_node(Node(args[0], kind, args[0]), lineno)
            ends[keyword] = args[0]
        elif keyword == "action":
            if len(args) < 2:
                raise ParseError('action needs: action <id> "<label>" actor=<A|M|SA>', lineno)
            node_id, label = args[0], args[1]
            actor = None
            for extra in args[2:]:
                actor = _kv(extra, "actor", lineno)
            if actor is None:
                raise ParseError(f"action {node_id!r} missing actor=", lineno)
            if actor not in ACTOR_MODES:
                raise ParseError(
                    f"action {node_id!r}: actor must be one of {'/'.join(ACTOR_MODES)}", lineno
                )
            declare_node(Node(node_id, KIND_ACTION, label, actor_mode=actor), lineno)
        elif keyword == "decision":
            if not args:
                raise ParseError("decision needs an id", lineno)
            node_id = args[0]
            label = node_id
            guard = None
            for extra in args[1:]:
                if extra.startswith("guard="):
                    guard = _kv(extra, "guard", lineno)
                else:
                    label = extra
            if guard is None:
                raise ParseError(f"decision {node_id!r} missing guard=", lineno)
            if guard not in seen_guards:
                raise ParseError(
                    f"undeclared guard {guard!r} referenced by decision {node_id!r}", lineno
                )
            declare_node(Node(node_id, KIND_DECISION, label, guard=guard), lineno)
        elif keyword == "edge":
            if len(args) < 3 or args[1] != "->":
                raise ParseError("edge needs: edge <from> -> <to> [when=true|false]", lineno)
            src, dst = args[0], args[2]
            guard_value = None
            for extra in args[3:]:
                value = _kv(extra, "when", lineno)
                if value not in ("true", "false"):
                    raise ParseError("when= must be true or false", lineno)
                guard_value = value == "true"
            edges.append(Edge(src, dst, guard_value))
        else:
            raise ParseError(f"unknown keyword {keyword!r}", lineno)

    model = ProcessModel(name, nodes, edges, guards, **ends)
    diagnostics = validate_model(model)
    if not name:
        diagnostics.insert(0, Diagnostic("missing-name", "<model>", "no process declaration"))
    if diagnostics:
        raise ModelError(diagnostics)
    return model


def load_model(path) -> ProcessModel:
    with open(path, encoding="utf-8") as fh:
        return parse_model(fh.read())


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _reachable(edges_from: dict[str, list[Edge]], start: str) -> set[str]:
    seen = {start}
    todo = deque([start])
    while todo:
        for edge in edges_from.get(todo.popleft(), ()):
            if edge.dst not in seen:
                seen.add(edge.dst)
                todo.append(edge.dst)
    return seen


def validate_model(m: ProcessModel) -> list[Diagnostic]:
    """Check the graph rules; an empty result means the model is valid.

    The line rules belong to ``parse_model``: each node's kind and
    annotations, actor modes, declared guards, and ids and guards declared
    once.  A model built by hand is taken to keep them.
    """
    diags: list[Diagnostic] = []
    id_set = {n.id for n in m.nodes}
    if not m.initial or m.initial not in id_set:
        diags.append(Diagnostic("missing-initial", m.initial or "<none>", "no initial node"))
    if not m.final or m.final not in id_set:
        diags.append(Diagnostic("missing-final", m.final or "<none>", "no final node"))

    edges_by_src: dict[str, list[Edge]] = {}
    reversed_by_dst: dict[str, list[Edge]] = {}
    for e in m.edges:
        label = f"{e.src}->{e.dst}"
        if e.src not in id_set:
            diags.append(Diagnostic("dangling-edge", label, f"unknown source {e.src!r}"))
        elif e.dst not in id_set:
            diags.append(Diagnostic("dangling-edge", label, f"unknown target {e.dst!r}"))
        else:
            edges_by_src.setdefault(e.src, []).append(e)
            reversed_by_dst.setdefault(e.dst, []).append(Edge(e.dst, e.src))

    if m.initial in reversed_by_dst:
        diags.append(Diagnostic("initial-incoming", m.initial, "initial node has incoming edges"))

    for n in m.nodes:
        out = edges_by_src.get(n.id, [])
        if n.kind in (KIND_ACTION, KIND_INITIAL):  # one plain outgoing edge
            if len(out) != 1 and n.kind == KIND_ACTION:
                diags.append(Diagnostic("action-fan-out", n.id,
                                        f"action has {len(out)} outgoing edges, needs 1"))
            elif len(out) != 1:
                diags.append(Diagnostic("initial-fan-out", n.id,
                                        "initial needs exactly 1 outgoing edge"))
            diags += [Diagnostic("polarity-on-action", f"{e.src}->{e.dst}",
                                 "when= on a non-decision edge")
                      for e in out if e.guard_value is not None]
        elif n.kind == KIND_DECISION:
            if len(out) != 2 or {e.guard_value for e in out} != {False, True}:
                diags.append(Diagnostic("decision-fan-out", n.id,
                                        "decision needs exactly one true edge and one false edge"))
        elif n.kind == KIND_FINAL and out:
            diags.append(Diagnostic("final-fan-out", n.id, "final node has outgoing edges"))

    for end, edges, code, message in (
        (m.initial, edges_by_src, "unreachable-node", "not reachable from initial"),
        (m.final, reversed_by_dst, "dead-end", "final not reachable from this node"),
    ):
        if end in id_set:
            reached = _reachable(edges, end)
            diags += [Diagnostic(code, n.id, message) for n in m.nodes if n.id not in reached]

    return diags


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def serialize_model(m: ProcessModel) -> str:
    """Emit canonical DSL text; ``parse_model`` of the result equals ``m``."""
    lines = [f"# {DSL_VERSION}", f"process {m.name}"]
    if m.guards:
        lines.append("")
    for g in m.guards:
        entry = f"guard {g.name} {_quote(g.description)}"
        if g.true_polarity:
            entry += f" holds={_quote(g.true_polarity)}"
        lines.append(entry)
    lines.append("")
    for n in m.nodes:
        if n.kind == KIND_INITIAL:
            lines.append(f"initial {n.id}")
        elif n.kind == KIND_FINAL:
            lines.append(f"final {n.id}")
        elif n.kind == KIND_ACTION:
            lines.append(f"action {n.id} {_quote(n.label)} actor={n.actor_mode}")
        elif n.kind == KIND_DECISION:
            lines.append(f"decision {n.id} {_quote(n.label)} guard={n.guard}")
    lines.append("")
    for e in m.edges:
        entry = f"edge {e.src} -> {e.dst}"
        if e.guard_value is not None:
            entry += f" when={'true' if e.guard_value else 'false'}"
        lines.append(entry)
    return "\n".join(lines) + "\n"
