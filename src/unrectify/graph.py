"""Immutable directed acyclic computation graphs.

A graph has one input node (always id 0), arcs carrying elements, and one
output node.  Nodes coordinate the arcs: a relay node forwards its single
incoming arc value, a concat node stacks incoming arc values in a fixed
order, an add node sums them, and a duplicate node is a relay whose value
fans out over several outgoing arcs.  Values, and anything else carried
node by node, are computed by one walk, ``propagate``, over the ancestor
closure of a node in topological order; a walk that wants only the node's
value drops each value after its last reader.  ``Dag.closure`` is the one
validity gate of the queries: every walk starts from it, so an invalid graph
is refused with its validation report before any value is computed.  Graphs
are immutable once built; the combinators ``series``, ``concatenate``, and
``duplicate`` return new graphs and never mutate their arguments.
"""
from __future__ import annotations

import heapq
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Optional, Sequence

import numpy as np

from . import elements as el
from .basis import _all_finite, _pattern_code, activation_eval

__all__ = [
    "ROLE_INPUT",
    "ROLE_RELAY",
    "ROLE_CONCAT",
    "ROLE_ADD",
    "ROLE_DUPLICATE",
    "ROLES",
    "GraphConstructionError",
    "InvalidGraphError",
    "Node",
    "Arc",
    "Dag",
    "GraphBuilder",
    "ValidationReport",
    "validate",
    "levels",
    "series",
    "concatenate",
    "duplicate",
    "computable_subgraph",
    "propagate",
    "forward",
    "forward_batch",
]

ROLE_INPUT = "input"
ROLE_RELAY = "relay"
ROLE_CONCAT = "concat"
ROLE_ADD = "add"
ROLE_DUPLICATE = "duplicate"
ROLES = frozenset({ROLE_INPUT, ROLE_RELAY, ROLE_CONCAT, ROLE_ADD, ROLE_DUPLICATE})


class GraphConstructionError(ValueError):
    """Raised when a combinator or builder is given inconsistent pieces."""


class InvalidGraphError(ValueError):
    """Raised when an operation requires a valid graph and validation fails."""


@dataclass(frozen=True)
class Node:
    id: int
    role: str
    concat_order: tuple[int, ...] = ()  # arc ids, for concat/add nodes


@dataclass(frozen=True, eq=False)
class Arc:
    id: int
    src: int
    dst: int
    elem: el.ArcElement


@dataclass(frozen=True)
class ValidationReport:
    problems: tuple[str, ...]
    node_count: int
    arc_count: int
    reachable_count: int
    is_acyclic: bool

    @property
    def ok(self) -> bool:
        return not self.problems

    def summary(self) -> str:
        status = "valid" if self.ok else "invalid"
        lines = [
            f"{status}: {self.node_count} nodes, {self.arc_count} arcs, "
            f"{self.reachable_count} reachable"
        ]
        lines.extend(f"  - {p}" for p in self.problems)
        return "\n".join(lines)


@dataclass(frozen=True, eq=False)
class Dag:
    """Directed acyclic computation graph over flat float vectors."""

    input_dim: int
    nodes: tuple[Node, ...]
    arcs: tuple[Arc, ...]
    output_node: int
    labels: dict = field(default_factory=dict)

    @cached_property
    def in_arcs(self) -> tuple[tuple[Arc, ...], ...]:
        incoming: list[list[Arc]] = [[] for _ in self.nodes]
        for arc in self.arcs:
            incoming[arc.dst].append(arc)
        return tuple(tuple(a) for a in incoming)

    @cached_property
    def out_arcs(self) -> tuple[tuple[Arc, ...], ...]:
        outgoing: list[list[Arc]] = [[] for _ in self.nodes]
        for arc in self.arcs:
            outgoing[arc.src].append(arc)
        return tuple(tuple(a) for a in outgoing)

    @cached_property
    def topo_order(self) -> tuple[int, ...]:
        """Topological order, smallest node id first among the available."""
        order = _lex_topological_order(len(self.nodes), self.arcs)
        if len(order) != len(self.nodes):
            raise InvalidGraphError("graph contains a cycle")
        return order

    @cached_property
    def _closures(self) -> dict[int, tuple[int, ...]]:
        return {}

    def closure(self, node_id: int) -> tuple[int, ...]:
        """The node and its ancestors in topological order, the node last:
        the nodes whose values fix the node's value.  An invalid graph is
        refused here with its validation report, so every walk of a query
        that starts from a closure checks the graph once."""
        self.require_valid()
        _require_node(self, node_id)  # before the cache, which takes 1.0 and True for 1
        if node_id not in self._closures:
            keep = ancestors(self, node_id) | {node_id}
            self._closures[node_id] = tuple(n for n in self.topo_order if n in keep)
        return self._closures[node_id]

    @cached_property
    def _releases(self) -> dict[int, tuple[tuple[int, ...], ...]]:
        return {}

    def releases(self, node_id: int) -> tuple[tuple[int, ...], ...]:
        """Per position of the node's closure, the nodes whose last reading
        arc within the closure enters the node at that position: once it
        is computed, their values are dead.  The node itself is never
        listed, since no arc of its closure reads it."""
        if node_id not in self._releases:
            closure = self.closure(node_id)
            last = {arc.src: pos for pos, nid in enumerate(closure) for arc in self.in_arcs[nid]}
            dead: list[list[int]] = [[] for _ in closure]
            for nid, pos in last.items():
                dead[pos].append(nid)
            self._releases[node_id] = tuple(map(tuple, dead))
        return self._releases[node_id]

    @cached_property
    def node_dims(self) -> tuple[int, ...]:
        self.require_valid()
        return _node_dims(self)[0]

    @cached_property
    def _validation(self) -> ValidationReport:
        return validate(self)

    def require_valid(self) -> None:
        report = self._validation
        if not report.ok:
            raise InvalidGraphError(report.summary())

    @property
    def output_dim(self) -> int:
        return self.node_dims[self.output_node]

    def __repr__(self) -> str:
        return (
            f"Dag(input_dim={self.input_dim}, nodes={len(self.nodes)}, "
            f"arcs={len(self.arcs)}, output={self.output_node})"
        )


def _lex_topological_order(n_nodes: int, arcs: Sequence[Arc]) -> tuple[int, ...]:
    """Kahn's order, smallest node id first among the available.  Nodes on or
    behind a cycle never become available, so they are missing from the
    result."""
    indeg = [0] * n_nodes
    succ: list[list[int]] = [[] for _ in range(n_nodes)]
    for arc in arcs:
        indeg[arc.dst] += 1
        succ[arc.src].append(arc.dst)
    ready = [v for v in range(n_nodes) if indeg[v] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    return tuple(order)


def _node_dim(role: str, in_dims: Sequence[int]) -> int:
    """Dimension of a non-input node from its incoming arcs' output dims."""
    if role == ROLE_CONCAT:
        return sum(in_dims)
    return in_dims[0] if in_dims else 0


def _node_dims(dag: Dag) -> tuple[tuple[int, ...], list[str]]:
    """Node output dimensions plus any dimension faults found on the way."""
    problems: list[str] = []
    dims = [0] * len(dag.nodes)
    for nid in dag.topo_order:
        node = dag.nodes[nid]
        if node.role == ROLE_INPUT:
            dims[nid] = dag.input_dim
            continue
        incoming = _ordered_in_arcs(dag, node)
        for arc in incoming:
            if arc.elem.in_dim != dims[arc.src]:
                problems.append(
                    f"arc {arc.id} ({arc.src}->{arc.dst}) declares input dim "
                    f"{arc.elem.in_dim} but node {arc.src} produces {dims[arc.src]}"
                )
        outs = [arc.elem.out_dim for arc in incoming]
        if node.role == ROLE_ADD and len(set(outs)) > 1:
            problems.append(
                f"dimension fault at node {nid}: add inputs differ {sorted(set(outs))}"
            )
        dims[nid] = _node_dim(node.role, outs)
    return tuple(dims), problems


def validate(dag: Dag) -> ValidationReport:
    """Structural and dimensional check; collects problems instead of raising."""
    problems: list[str] = []
    n = len(dag.nodes)

    for i, node in enumerate(dag.nodes):
        if node.id != i:
            problems.append(f"node ids must be dense 0..{n - 1}; position {i} holds id {node.id}")
        if node.role not in ROLES:
            problems.append(f"node {node.id} has unknown role {node.role!r}")
    if n == 0 or dag.nodes[0].role != ROLE_INPUT:
        problems.append("node 0 must be the input node")
    for node in dag.nodes[1:]:
        if node.role == ROLE_INPUT:
            problems.append(f"node {node.id} duplicates the input role")

    for i, arc in enumerate(dag.arcs):
        if arc.id != i:
            problems.append(f"arc ids must be dense; position {i} holds id {arc.id}")
        if not (0 <= arc.src < n and 0 <= arc.dst < n):
            problems.append(f"arc {arc.id} references a missing node")
            continue
        if arc.src == arc.dst:
            problems.append(f"arc {arc.id} is a self-loop on node {arc.src}")
    if problems:
        return ValidationReport(tuple(problems), n, len(dag.arcs), 0, False)

    order = _lex_topological_order(n, dag.arcs)
    is_acyclic = len(order) == n
    if not is_acyclic:
        problems.append(f"cycle through nodes {sorted(set(range(n)) - set(order))}")

    incoming, outgoing = dag.in_arcs, dag.out_arcs
    for node in dag.nodes:
        n_in = len(incoming[node.id])
        if node.role == ROLE_INPUT and n_in != 0:
            problems.append(f"input node has {n_in} incoming arcs")
        if node.role in (ROLE_RELAY, ROLE_DUPLICATE) and n_in != 1:
            problems.append(f"node {node.id} ({node.role}) needs exactly 1 incoming arc, has {n_in}")
        if node.role in (ROLE_CONCAT, ROLE_ADD):
            if n_in == 0:
                problems.append(f"node {node.id} ({node.role}) has no incoming arcs")
            ids = sorted(a.id for a in incoming[node.id])
            if sorted(node.concat_order) != ids:
                problems.append(
                    f"node {node.id} concat order {list(node.concat_order)} does not "
                    f"match its incoming arcs {ids}"
                )
    for node in dag.nodes[1:]:
        if not incoming[node.id]:
            problems.append(f"node {node.id} has in-degree 0 but is not the input")

    if not (0 <= dag.output_node < n):
        problems.append(f"output node {dag.output_node} does not exist")
        return ValidationReport(tuple(problems), n, len(dag.arcs), 0, is_acyclic)
    if outgoing[dag.output_node]:
        problems.append(f"output node {dag.output_node} has outgoing arcs")
    for node in dag.nodes:
        if node.id != dag.output_node and not outgoing[node.id]:
            problems.append(f"node {node.id} is a dead end (only the output may be a sink)")

    reach = _reach(outgoing, 0, "dst")
    unreachable = sorted(set(range(n)) - reach)
    if unreachable:
        problems.append(f"nodes unreachable from the input: {unreachable}")
    stranded = sorted(set(range(n)) - _reach(incoming, dag.output_node, "src"))
    if stranded:
        problems.append(f"nodes with no path to the output: {stranded}")

    if is_acyclic and not problems:
        _, dim_problems = _node_dims(dag)
        problems.extend(dim_problems)
    for name, nid in dag.labels.items():
        if not 0 <= nid < n:
            problems.append(f"label {name!r} names node {nid}, which does not exist")

    return ValidationReport(tuple(problems), n, len(dag.arcs), len(reach), is_acyclic)


def levels(dag: Dag) -> dict[int, int]:
    """Level of every node: arc count of the longest path from the input."""
    dag.require_valid()
    lvl = {0: 0}
    for nid in dag.topo_order:
        if nid == 0:
            continue
        lvl[nid] = max(lvl[arc.src] for arc in dag.in_arcs[nid]) + 1
    return lvl


def _ordered_in_arcs(dag: Dag, node: Node) -> tuple[Arc, ...]:
    if node.role in (ROLE_CONCAT, ROLE_ADD):
        return tuple(dag.arcs[a] for a in node.concat_order)
    return dag.in_arcs[node.id]


@np.errstate(over="ignore", invalid="ignore")  # a non-finite value is named below
def propagate(dag: Dag, node_id: int, start, through_arc, release: bool = False) -> dict:
    """Values over the node's closure, by induction from the input's ``start``.

    Each arc maps its source node's value by ``through_arc(arc, value)``;
    values keep their features on the last axis.  A relay or duplicate node
    takes its one arc value, a concat node stacks its arc values in concat
    order and an add node sums them.  The walk runs under one numpy error
    state that ignores overflow and invalid results, so a finite input that
    overflows warns nothing: a non-finite node value raises an error naming
    the arc that produced it, or the add node that overflowed.

    By default every value is kept, so the result is a whole trace.  With
    ``release`` a value is dropped as soon as the last arc that reads it
    within the closure has run (``Dag.releases``), so the walk holds only
    the values later arcs still read and the result holds the node's value
    alone; a walk that wants one node's value, such as ``affine_piece``'s
    walk of maps, uses it.  Neither mode changes a value or the order of
    the work.
    """
    values = {0: start}
    dead = dag.releases(node_id) if release else None
    for pos, nid in enumerate(dag.closure(node_id)[1:], start=1):
        node = dag.nodes[nid]
        arcs = _ordered_in_arcs(dag, node)
        parts = [through_arc(arc, values[arc.src]) for arc in arcs]
        if node.role == ROLE_CONCAT:
            value = np.concatenate(parts, axis=-1)
        else:
            value = parts[0]
            for p in parts[1:]:
                value = value + p
        if not _all_finite(value):
            for arc, part in zip(arcs, parts):
                if not _all_finite(part):
                    raise ValueError(f"arc {arc.id} produced non-finite values")
            raise ValueError(f"node {nid} produced non-finite values")
        values[nid] = value
        if release:
            for src in dead[pos]:
                del values[src]
    return values


class Trace(dict):
    """Node values of one evaluation by node id, with their graph and each
    activation arc's pattern by arc id, from the kernel call that gave the
    arc's value: its ids for one input, its ``basis._pattern_code`` (one
    int64 per row and a bound) for a batch."""

    def __init__(self, dag: Dag, values: dict, patterns: dict):
        super().__init__(values)
        self.dag, self.patterns = dag, patterns


def _evaluate(dag: Dag, xs, node_id: int, batch: bool) -> Trace:
    """Values and activation patterns of the node's closure on one input,
    or on a batch of row inputs."""
    arr = np.asarray(xs, dtype=float)
    if batch and (arr.ndim != 2 or arr.shape[1] != dag.input_dim):
        raise ValueError(f"batch must have shape (n, {dag.input_dim}), got {arr.shape}")
    if not batch and arr.shape != (dag.input_dim,):
        raise ValueError(f"input must have shape ({dag.input_dim},), got {arr.shape}")
    if not _all_finite(arr):
        raise ValueError("input entries must be finite")
    patterns: dict = {}

    def through_arc(arc, value):
        act = arc.elem.act
        try:
            if act is None:
                return arc.elem.apply(value)
            value, ids = activation_eval(act, arc.elem.pre_activation(value))
        except ValueError as exc:  # a nonlinearity's non-finite input
            raise ValueError(f"arc {arc.id} {exc}") from None
        patterns[arc.id] = _pattern_code(act, ids) if batch else ids
        return value

    return Trace(dag, propagate(dag, node_id, arr, through_arc), patterns)


def forward(dag: Dag, x) -> tuple[np.ndarray, Trace]:
    """Evaluate the graph on one input; returns (output, per-node trace)."""
    trace = _evaluate(dag, x, dag.output_node, batch=False)
    return trace[dag.output_node], trace


def forward_batch(dag: Dag, xs) -> tuple[np.ndarray, Trace]:
    """Evaluate the graph on a batch of row-vector inputs; returns (output, trace)."""
    trace = _evaluate(dag, xs, dag.output_node, batch=True)
    return trace[dag.output_node], trace


class GraphBuilder:
    """Mutable scratch pad for assembling a Dag node by node."""

    def __init__(self, input_dim: int):
        if input_dim < 1:
            raise GraphConstructionError("input dimension must be positive")
        self.input_dim = input_dim
        self.nodes: list[tuple[int, str]] = [(0, ROLE_INPUT)]
        self.arcs: list[Arc] = []
        self._incoming: list[list[int]] = [[]]  # arc ids, in concat order

    def dim(self, node_id: int) -> int:
        role = self.nodes[node_id][1]
        if role == ROLE_INPUT:
            return self.input_dim
        return _node_dim(role, [self.arcs[a].elem.out_dim for a in self._incoming[node_id]])

    def add_node(self, role: str) -> int:
        nid = len(self.nodes)
        self.nodes.append((nid, role))
        self._incoming.append([])
        return nid

    def connect(self, src: int, dst: int, elem: el.ArcElement) -> int:
        if self.dim(src) != elem.in_dim:
            raise GraphConstructionError(
                f"element input dimension {elem.in_dim} does not match node {src} "
                f"dimension {self.dim(src)}"
            )
        aid = len(self.arcs)
        self.arcs.append(Arc(aid, src, dst, elem))
        self._incoming[dst].append(aid)
        return aid

    def add_relay(self, src: int, elem: el.ArcElement) -> int:
        nid = self.add_node(ROLE_RELAY)
        self.connect(src, nid, elem)
        return nid

    def _insert(self, g: Dag, keep: Optional[set[int]] = None) -> dict[int, int]:
        """Copy a valid graph, or only its nodes ``keep`` and the arcs between
        them, over the builder's input node.  Arcs keep their order and are
        numbered on densely; returns the map from g's kept node ids."""
        g.require_valid()
        node_map = {0: 0}
        for node in g.nodes[1:]:
            if keep is None or node.id in keep:
                node_map[node.id] = self.add_node(node.role)
        arc_map = {}
        for arc in g.arcs:
            if arc.src in node_map and arc.dst in node_map:
                arc_map[arc.id] = aid = len(self.arcs)
                src, dst = node_map[arc.src], node_map[arc.dst]
                self.arcs.append(Arc(aid, src, dst, arc.elem))
        for node in g.nodes[1:]:
            if node.id in node_map:
                self._incoming[node_map[node.id]] = [arc_map[a.id] for a in _ordered_in_arcs(g, node)]
        return node_map

    def finish(self, output_node: int, labels: Optional[Mapping] = None) -> Dag:
        nodes = tuple(
            Node(nid, role, tuple(self._incoming[nid]) if role in (ROLE_CONCAT, ROLE_ADD) else ())
            for nid, role in self.nodes
        )
        dag = Dag(self.input_dim, nodes, tuple(self.arcs), output_node, dict(labels or {}))
        dag.require_valid()
        return dag


def _builder_from(dag: Dag) -> GraphBuilder:
    b = GraphBuilder(dag.input_dim)
    b._insert(dag)
    return b


def series(g: Dag, elem: el.ArcElement) -> Dag:
    """Feed the graph's output through one more element."""
    b = _builder_from(g)
    nid = b.add_relay(g.output_node, elem)
    return b.finish(nid, g.labels)


def concatenate(gs: Sequence[Dag]) -> Dag:
    """Merge graphs over a shared input and stack their outputs in order."""
    if not gs:
        raise GraphConstructionError("concatenate needs at least one channel")
    dims = {g.input_dim for g in gs}
    if len(dims) != 1:
        raise GraphConstructionError(f"channels consume different input spaces: {sorted(dims)}")
    b = GraphBuilder(gs[0].input_dim)
    outputs = [b._insert(g)[g.output_node] for g in gs]
    cat = b.add_node(ROLE_CONCAT)
    for out in outputs:
        b.connect(out, cat, el.Identity(b.dim(out)))
    return b.finish(cat)


def duplicate(g: Dag, m: int) -> Dag:
    """Stack m copies of the graph's output."""
    if m < 1:
        raise GraphConstructionError(f"duplicate needs at least one copy, got {m}")
    b = _builder_from(g)
    dim = g.node_dims[g.output_node]
    cat = b.add_node(ROLE_CONCAT)
    for _ in range(m):
        b.connect(g.output_node, cat, el.Identity(dim))
    return b.finish(cat, g.labels)


def _reach(adjacent, start: int, end: str) -> set[int]:
    """Nodes reached from ``start``, itself included, by walking the arcs
    ``adjacent[v]`` of each reached node v to their ``end``, "src" or "dst"."""
    seen = {start}
    frontier = [start]
    while frontier:
        for arc in adjacent[frontier.pop()]:
            nid = getattr(arc, end)
            if nid not in seen:
                seen.add(nid)
                frontier.append(nid)
    return seen


def _require_node(dag: Dag, node_id) -> None:
    """Reject anything but an integer (numpy's included) naming a node;
    a bool or a float is no node id, even when it equals one."""
    integral = isinstance(node_id, numbers.Integral) and not isinstance(node_id, bool)
    if not (integral and 0 <= node_id < len(dag.nodes)):
        raise ValueError(
            f"node {node_id} does not exist; node ids run from 0 to {len(dag.nodes) - 1}"
        )


def ancestors(dag: Dag, node_id: int) -> set[int]:
    """All nodes with a path to ``node_id`` (excluding the node itself)."""
    _require_node(dag, node_id)
    return _reach(dag.in_arcs, node_id, "src") - {node_id}


def computable_subgraph(dag: Dag, node_id: int) -> Dag:
    """Sub-graph of every input-to-node path, re-rooted with node as output.

    The kept node set is the ancestor closure of the query node, so the
    result is itself a valid graph computing exactly the value this node
    takes in the full graph.
    """
    b = GraphBuilder(dag.input_dim)
    node_map = b._insert(dag, set(dag.closure(node_id)))
    labels = {k: node_map[v] for k, v in dag.labels.items() if v in node_map}
    return b.finish(node_map[node_id], labels)
