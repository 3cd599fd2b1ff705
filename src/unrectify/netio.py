"""Network description files: a JSON tree of nodes, arcs, and elements.

Top level: ``{"input_dim": n, "nodes": [...], "arcs": [...]}`` plus an
optional ``output_node`` (otherwise the unique sink is the output) and an
optional ``labels`` map.  A weight with fewer than half of its entries
nonzero is written sparse, as ``{"shape": [m, n], "index": [...],
"values": [...]}`` with strictly increasing flat row-major positions; every
other matrix is a nested row-major array.  Both forms load.  An element is
one ``ArcElement`` built from the parts present (``W``, ``b``, ``cpwl`` or
``pool``, ``transform``), and those parts must make its declared ``kind``:
a field of another kind, a field of no kind, and both ``cpwl`` and
``pool`` on one element are rejected.  See docs/network_format.md for the
full schema.

Loading is permissive about graph semantics (cycles, an arc whose source
node has another dimension) so that ``validate`` can report problems on
whatever the file describes.  Structural errors in the file itself raise
``NetworkFormatError`` naming the offending field; so does an arc whose
declared ``in_dim`` and ``out_dim`` are not the dimensions its element
maps, since the graph keeps only the element's.
"""
from __future__ import annotations

import json
import numbers
from pathlib import Path
from typing import Any

import numpy as np

from .basis import CpwlSpec, PoolSpec, TransformSpec
from .elements import ArcElement
from .graph import Arc, Dag, Node, ROLE_RELAY, ROLES

__all__ = ["NetworkFormatError", "dag_to_dict", "dag_from_dict", "save_network", "load_network"]


# entries a sparse weight may declare: 1 GiB as float64.  Its dense array is
# allocated from the declared shape alone, so a few bytes of file could
# otherwise ask for terabytes.
MAX_SPARSE_ENTRIES = 1 << 27


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


def _matrix_to(w: np.ndarray):
    """Nested rows, or the sparse form when fewer than half the entries are
    nonzero.  Positions are taken from the bits, so a -0.0 is kept."""
    flat = np.ravel(w)
    index = np.flatnonzero(flat.view(np.int64))
    if 2 * len(index) >= flat.size:
        return w.tolist()
    return {"shape": list(w.shape), "index": index.tolist(), "values": flat[index].tolist()}


def element_to_dict(elem: ArcElement) -> dict:
    data: dict[str, Any] = {"kind": elem.kind}
    if elem.weight is not None:
        data["W"] = _matrix_to(elem.weight)
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
    """An integer field: an integer, or a number with no fractional part."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise NetworkFormatError(f"{where}: must be an integer, got {value!r}")
    return int(value)


def _sparse_from(data: dict, where: str) -> np.ndarray:
    """Dense array of a sparse weight; finite values are ArcElement's check."""
    shape, index, values = (_need(data, key, where) for key in ("shape", "index", "values"))
    if not isinstance(shape, list) or len(shape) != 2:
        raise NetworkFormatError(f"{where}.shape: must be [rows, columns], got {shape!r}")
    m, n = (_int(v, f"{where}.shape") for v in shape)
    if m < 1 or n < 1:
        raise NetworkFormatError(f"{where}.shape: must be positive, got {[m, n]}")
    if m * n > MAX_SPARSE_ENTRIES:
        raise NetworkFormatError(
            f"{where}.shape: {[m, n]} declares {m * n} entries, above the cap of {MAX_SPARSE_ENTRIES}"
        )
    if not isinstance(index, list) or not isinstance(values, list):
        raise NetworkFormatError(f"{where}: index and values must be arrays")
    if len(index) != len(values):
        raise NetworkFormatError(f"{where}.values: {len(values)} values for {len(index)} index entries")
    if not set(map(type, index)) <= {int, float}:
        bad = next(v for v in index if type(v) not in (int, float))
        raise NetworkFormatError(f"{where}.index: must hold integers, got {bad!r}")
    out_of_range = NetworkFormatError(f"{where}.index: positions must lie in [0, {m * n})")
    try:
        flat = np.array(index, dtype=float)
    except OverflowError:
        raise out_of_range from None
    fractional = flat != np.floor(flat)
    if fractional.any():
        raise NetworkFormatError(f"{where}.index: must hold integers, got {index[fractional.argmax()]!r}")
    if np.any(np.diff(flat) <= 0):
        raise NetworkFormatError(f"{where}.index: must be strictly increasing")
    if len(flat) and (flat[0] < 0 or flat[-1] >= m * n):
        raise out_of_range
    try:
        vals = np.array(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise NetworkFormatError(f"{where}.values: not numeric ({exc})") from None
    if vals.ndim != 1:
        raise NetworkFormatError(f"{where}.values: must be a flat array of numbers")
    arr = np.zeros(m * n)
    arr[flat.astype(np.int64)] = vals
    return arr.reshape(m, n)


def _matrix_from(data, where: str) -> np.ndarray:
    if isinstance(data, dict):
        return _sparse_from(data, where)
    try:
        arr = np.array(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise NetworkFormatError(f"{where}: not a numeric matrix ({exc})") from None
    if arr.ndim != 2:
        raise NetworkFormatError(f"{where}: expected a 2-D row-major array")
    return arr


def _act_from_dict(data: dict, where: str):
    """The element's activation or block pool, or None when it has neither."""
    if "pool" in data and "cpwl" in data:
        raise NetworkFormatError(f"{where}: holds both 'pool' and 'cpwl'; an activation is one of them")
    if "pool" in data:
        pool = data["pool"]
        kind = _need(pool, "kind", f"{where}.pool")
        if kind not in ("maxlu", "maxpool"):
            raise NetworkFormatError(f"{where}.pool.kind: unknown pool {kind!r}")
        block = _int(_need(pool, "block", f"{where}.pool"), f"{where}.pool.block")
        return PoolSpec(block=block, rectified=kind == "maxlu")
    if "cpwl" in data:
        cpwl = data["cpwl"]
        try:
            return CpwlSpec(
                right_pieces=tuple((float(r), float(a)) for r, a in cpwl.get("right", [])),
                left_pieces=tuple((float(l), float(t)) for l, t in cpwl.get("left", [])),
            )
        except (AttributeError, TypeError, ValueError) as exc:
            raise NetworkFormatError(f"{where}.cpwl: {exc}") from None


def _transform_from_dict(data: dict, where: str) -> TransformSpec:
    kind = _need(data, "kind", where)
    try:
        return TransformSpec(kind=kind, scale=float(data.get("lambda", 1.0)))
    except (TypeError, ValueError) as exc:
        raise NetworkFormatError(f"{where}: {exc}") from None


# every field an element may hold; which of them make which kind is ArcElement's rule
_ELEMENT_FIELDS = ("kind", "W", "b", "cpwl", "pool", "transform")


def element_from_dict(data: dict, in_dim: int, where: str) -> ArcElement:
    kind = _need(data, "kind", where)
    unknown = sorted(set(data) - set(_ELEMENT_FIELDS))
    if unknown:
        fields = list(_ELEMENT_FIELDS)
        raise NetworkFormatError(f"{where}: unknown field {unknown[0]!r}; an element holds only {fields}")
    try:
        weight = _matrix_from(data["W"], f"{where}.W") if "W" in data else None
        bias = data.get("b")
        if bias is None and weight is not None and str(kind).endswith("affine"):
            bias = np.zeros(len(weight))
        spec = _transform_from_dict(data["transform"], f"{where}.transform") if "transform" in data else None
        dim = in_dim if weight is None else None
        elem = ArcElement(weight, bias, _act_from_dict(data, where), spec, dim)
    except NetworkFormatError:
        raise
    except (TypeError, ValueError) as exc:
        raise NetworkFormatError(f"{where}: {exc}") from None
    if elem.kind != kind:
        fields = sorted(k for k in data if k != "kind")
        raise NetworkFormatError(f"{where}: fields {fields} make kind {elem.kind!r}, not the declared {kind!r}")
    return elem


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
                "in_dim": arc.elem.in_dim,
                "out_dim": arc.elem.out_dim,
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
    if input_dim < 1:
        raise NetworkFormatError(f"input_dim: must be positive, got {input_dim}")

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
        if (elem.in_dim, elem.out_dim) != (in_dim, out_dim):
            raise NetworkFormatError(
                f"{where}: declares dims {in_dim}->{out_dim} but its element maps "
                f"{elem.in_dim}->{elem.out_dim}"
            )
        arcs.append(Arc(i, src, dst, elem))

    if "output_node" in data:
        output_node = _int(data["output_node"], "output_node")
    else:
        sinks = sorted(set(ids) - {arc.src for arc in arcs})
        if len(sinks) != 1:
            raise NetworkFormatError(
                f"output_node missing and the sink is ambiguous (sinks: {sinks})"
            )
        output_node = sinks[0]

    nodes = []
    for nid in range(len(ids)):
        role = roles[nid]
        if role in ("concat", "add"):
            order = orders[nid] if nid in orders else tuple(a.id for a in arcs if a.dst == nid)
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
