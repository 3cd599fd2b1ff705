"""Network description files: a JSON tree of nodes, arcs, and elements.

Top level: ``{"input_dim": n, "nodes": [...], "arcs": [...]}`` plus an
optional ``output_node`` (otherwise the unique sink is the output) and an
optional ``labels`` map.  Matrices are nested row-major arrays.  See
docs/network_format.md for the full schema.

Loading is permissive about graph semantics (cycles, dimension faults) so
that ``validate`` can report problems on whatever the file describes;
structural errors in the file itself raise ``NetworkFormatError`` naming
the offending field.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from .basis import CpwlSpec, PoolSpec, TransformSpec
from .elements import (
    Activation,
    ActivationAffine,
    Affine,
    ArcElement,
    Identity,
    Linear,
    Transform,
    TransformAffine,
)
from .graph import Arc, Dag, Node, ROLE_RELAY, ROLES

__all__ = ["NetworkFormatError", "dag_to_dict", "dag_from_dict", "save_network", "load_network"]


class NetworkFormatError(ValueError):
    """Malformed network description file."""


def _act_to_dict(act) -> dict:
    if isinstance(act, PoolSpec):
        kind = "maxlu" if act.rectified else "maxpool"
        return {"pool": {"kind": kind, "block": act.block}}
    return {
        "cpwl": {
            "right": [[r, a] for r, a in act.right_pieces],
            "left": [[l, t] for l, t in act.left_pieces],
        }
    }


def _transform_to_dict(spec: TransformSpec) -> dict:
    data: dict[str, Any] = {"kind": spec.kind}
    if spec.kind == "softmax":
        data["lambda"] = spec.scale
    return data


def element_to_dict(elem: ArcElement) -> dict:
    data: dict[str, Any] = {"kind": elem.kind}
    if elem.weight is not None:
        data["W"] = elem.weight.tolist()
    if elem.bias is not None and np.any(elem.bias):
        data["b"] = elem.bias.tolist()
    if elem.act is not None:
        data.update(_act_to_dict(elem.act))
    if elem.spec is not None:
        data["transform"] = _transform_to_dict(elem.spec)
    return data


def _need(data: dict, key: str, where: str):
    if not isinstance(data, dict):
        raise NetworkFormatError(f"{where}: must be an object, got {type(data).__name__}")
    if key not in data:
        raise NetworkFormatError(f"{where}: missing field {key!r}")
    return data[key]


def _int(value, where: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise NetworkFormatError(f"{where}: must be an integer, got {value!r}") from None


def _matrix_from(data, where: str) -> np.ndarray:
    try:
        arr = np.array(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise NetworkFormatError(f"{where}: not a numeric matrix ({exc})") from None
    if arr.ndim != 2:
        raise NetworkFormatError(f"{where}: expected a 2-D row-major array")
    return arr


def _act_from_dict(data: dict, in_dim: int, where: str):
    if "pool" in data:
        pool = data["pool"]
        kind = _need(pool, "kind", f"{where}.pool")
        if kind not in ("maxlu", "maxpool"):
            raise NetworkFormatError(f"{where}.pool.kind: unknown pool {kind!r}")
        return PoolSpec(block=int(_need(pool, "block", f"{where}.pool")), rectified=kind == "maxlu")
    if "cpwl" in data:
        cpwl = data["cpwl"]
        try:
            return CpwlSpec(
                right_pieces=tuple((float(r), float(a)) for r, a in cpwl.get("right", [])),
                left_pieces=tuple((float(l), float(t)) for l, t in cpwl.get("left", [])),
            )
        except (AttributeError, TypeError, ValueError) as exc:
            raise NetworkFormatError(f"{where}.cpwl: {exc}") from None
    raise NetworkFormatError(f"{where}: activation needs a 'cpwl' or 'pool' field")


def _transform_from_dict(data: dict, where: str) -> TransformSpec:
    kind = _need(data, "kind", where)
    try:
        return TransformSpec(kind=kind, scale=float(data.get("lambda", 1.0)))
    except ValueError as exc:
        raise NetworkFormatError(f"{where}: {exc}") from None


def element_from_dict(data: dict, in_dim: int, where: str) -> ArcElement:
    kind = _need(data, "kind", where)
    try:
        if kind == "identity":
            return Identity(in_dim)
        if kind == "linear":
            return Linear(_matrix_from(_need(data, "W", where), f"{where}.W"))
        if kind == "affine":
            return Affine(_matrix_from(_need(data, "W", where), f"{where}.W"), data.get("b"))
        if kind == "activation":
            return Activation(_act_from_dict(data, in_dim, where), in_dim)
        if kind == "activation_affine":
            w = _matrix_from(_need(data, "W", where), f"{where}.W")
            return ActivationAffine(_act_from_dict(data, w.shape[0], where), w, data.get("b"))
        if kind == "transform":
            return Transform(_transform_from_dict(_need(data, "transform", where), f"{where}.transform"), in_dim)
        if kind == "transform_affine":
            w = _matrix_from(_need(data, "W", where), f"{where}.W")
            return TransformAffine(
                _transform_from_dict(_need(data, "transform", where), f"{where}.transform"), w, data.get("b")
            )
    except NetworkFormatError:
        raise
    except (TypeError, ValueError) as exc:
        raise NetworkFormatError(f"{where}: {exc}") from None
    raise NetworkFormatError(f"{where}: unknown element kind {kind!r}")


def dag_to_dict(dag: Dag) -> dict:
    nodes = []
    for node in dag.nodes:
        entry: dict[str, Any] = {"id": node.id, "role": node.role}
        if node.concat_order:
            entry["concat_order"] = list(node.concat_order)
        nodes.append(entry)
    arcs = []
    for arc in dag.arcs:
        arcs.append(
            {
                "src": arc.src,
                "dst": arc.dst,
                "elem": element_to_dict(arc.elem),
                "in_dim": arc.in_dim,
                "out_dim": arc.out_dim,
            }
        )
    data: dict[str, Any] = {
        "input_dim": dag.input_dim,
        "nodes": nodes,
        "arcs": arcs,
        "output_node": dag.output_node,
    }
    if dag.labels:
        data["labels"] = {str(k): int(v) for k, v in dag.labels.items()}
    return data


def dag_from_dict(data: dict) -> Dag:
    if not isinstance(data, dict):
        raise NetworkFormatError("top level must be an object")
    input_dim = _int(_need(data, "input_dim", "top level"), "input_dim")

    raw_nodes = _need(data, "nodes", "top level")
    raw_arcs = _need(data, "arcs", "top level")
    if not isinstance(raw_nodes, list) or not isinstance(raw_arcs, list):
        raise NetworkFormatError("nodes and arcs must be arrays")

    ids = []
    roles = {}
    orders = {}
    for i, entry in enumerate(raw_nodes):
        where = f"nodes[{i}]"
        nid = _int(_need(entry, "id", where), f"{where}.id")
        role = str(_need(entry, "role", where))
        if role == "output":
            role = ROLE_RELAY
        if role not in ROLES:
            raise NetworkFormatError(f"{where}.role: unknown role {role!r}")
        ids.append(nid)
        roles[nid] = role
        if "concat_order" in entry:
            order = entry["concat_order"]
            if not isinstance(order, list):
                raise NetworkFormatError(f"{where}.concat_order: must be an array")
            orders[nid] = tuple(_int(a, f"{where}.concat_order") for a in order)
    if sorted(ids) != list(range(len(ids))):
        raise NetworkFormatError("nodes: ids must be dense 0..n-1")

    arcs = []
    for i, entry in enumerate(raw_arcs):
        where = f"arcs[{i}]"
        src, dst, in_dim, out_dim = (
            _int(_need(entry, key, where), f"{where}.{key}")
            for key in ("src", "dst", "in_dim", "out_dim")
        )
        elem = element_from_dict(_need(entry, "elem", where), in_dim, f"{where}.elem")
        arcs.append(Arc(i, src, dst, elem, in_dim, out_dim))

    incoming: dict[int, list[int]] = {}
    has_out = set()
    for arc in arcs:
        incoming.setdefault(arc.dst, []).append(arc.id)
        has_out.add(arc.src)

    if "output_node" in data:
        output_node = _int(data["output_node"], "output_node")
    else:
        sinks = [nid for nid in ids if nid not in has_out]
        if len(sinks) != 1:
            raise NetworkFormatError(
                f"output_node missing and the sink is ambiguous (sinks: {sorted(sinks)})"
            )
        output_node = sinks[0]

    nodes = []
    for nid in range(len(ids)):
        role = roles[nid]
        if role in ("concat", "add"):
            order = orders.get(nid, tuple(incoming.get(nid, [])))
        else:
            order = ()
        nodes.append(Node(nid, role, order))

    labels = data.get("labels", {})
    if not isinstance(labels, dict):
        raise NetworkFormatError("labels: must be an object")
    labels = {str(k): _int(v, f"labels.{k}") for k, v in labels.items()}
    return Dag(input_dim, tuple(nodes), tuple(arcs), output_node, labels)


def save_network(dag: Dag, path) -> None:
    Path(path).write_text(json.dumps(dag_to_dict(dag), indent=1) + "\n")


def load_network(path) -> Dag:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise NetworkFormatError(f"{path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetworkFormatError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    return dag_from_dict(data)
