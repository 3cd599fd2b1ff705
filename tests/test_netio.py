import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_valid_dag
from unrectify import (
    Activation,
    ActivationAffine,
    Affine,
    Identity,
    Linear,
    NetworkFormatError,
    PoolSpec,
    Transform,
    TransformAffine,
    TransformSpec,
    build_demo_network,
    forward,
    hard_tanh_spec,
    identity_dag,
    load_network,
    save_network,
    series,
    validate,
)
from unrectify.cli import main
from unrectify.netio import dag_from_dict, dag_to_dict


def roundtrip(dag):
    return dag_from_dict(json.loads(json.dumps(dag_to_dict(dag))))


def assert_same_function(a, b, rng, n=20):
    for x in rng.standard_normal((n, a.input_dim)):
        ya, _ = forward(a, x)
        yb, _ = forward(b, x)
        assert np.array_equal(ya, yb)


def test_roundtrip_demo_network():
    rng = np.random.default_rng(0)
    demo = build_demo_network()
    again = roundtrip(demo)
    assert validate(again).ok
    assert again.labels == demo.labels
    assert_same_function(demo, again, rng)


def test_roundtrip_every_element_kind():
    rng = np.random.default_rng(1)
    g = identity_dag(4)
    g = series(g, Identity(4))
    g = series(g, Linear(rng.standard_normal((4, 4))))
    g = series(g, Affine(rng.standard_normal((4, 4)), rng.standard_normal(4)))
    g = series(g, Activation(hard_tanh_spec(), 4))
    g = series(g, ActivationAffine(PoolSpec(2, rectified=True), rng.standard_normal((4, 4))))
    g = series(g, Transform(TransformSpec("softmax", scale=2.0), 2))
    g = series(g, TransformAffine(TransformSpec("tanh"), rng.standard_normal((3, 2))))
    again = roundtrip(g)
    assert_same_function(g, again, rng)


def assert_same_arrays(a, b):
    """Every weight and bias of ``b`` equals the one of ``a`` by ``==``."""
    assert len(a.arcs) == len(b.arcs)
    for x, y in zip(a.arcs, b.arcs):
        for p, q in ((x.elem.weight, y.elem.weight), (x.elem.bias, y.elem.bias)):
            assert (p is None) == (q is None)
            if p is not None:
                assert p.shape == q.shape and np.array_equal(p, q)


def test_roundtrip_random_graphs(tmp_path):
    rng = np.random.default_rng(2)
    for i in range(5):
        dag = random_valid_dag(rng)
        path = tmp_path / f"net{i}.json"
        save_network(dag, path)
        again = load_network(path)
        assert validate(again).ok
        assert_same_arrays(dag, again)
        assert_same_function(dag, again, rng)


def _sparsified(dag, rng):
    """The graph with about three in four weight entries zeroed, some as -0.0."""
    arcs = []
    for arc in dag.arcs:
        elem = arc.elem
        if elem.weight is not None:
            w = np.where(rng.random(elem.weight.shape) < 0.75, 0.0, elem.weight)
            w[rng.random(w.shape) < 0.1] = -0.0
            elem = replace(elem, weight=w)
        arcs.append(replace(arc, elem=elem))
    return replace(dag, arcs=tuple(arcs))


def test_roundtrip_sparse_weights_bit_for_bit(tmp_path):
    rng = np.random.default_rng(21)
    for i in range(5):
        dag = _sparsified(random_valid_dag(rng), rng)
        path = tmp_path / f"net{i}.json"
        save_network(dag, path)
        written = json.loads(path.read_text())
        assert any(isinstance(a["elem"].get("W"), dict) for a in written["arcs"])
        again = load_network(path)
        assert_same_arrays(dag, again)
        for x, y in zip(dag.arcs, again.arcs):
            if x.elem.weight is not None:
                assert np.array_equal(np.signbit(x.elem.weight), np.signbit(y.elem.weight))
        assert_same_function(dag, again, rng)


def test_writer_picks_sparse_below_half_nonzero():
    w = np.random.default_rng(22).standard_normal((4, 4))
    assert dag_to_dict(series(identity_dag(4), Linear(w)))["arcs"][0]["elem"]["W"] == w.tolist()
    half = np.where(np.arange(16).reshape(4, 4) < 8, w, 0.0)
    assert dag_to_dict(series(identity_dag(4), Linear(half)))["arcs"][0]["elem"]["W"] == half.tolist()
    fewer = np.where(np.arange(16).reshape(4, 4) % 3 == 0, w, 0.0)
    stored = dag_to_dict(series(identity_dag(4), Linear(fewer)))["arcs"][0]["elem"]["W"]
    assert stored == {
        "shape": [4, 4],
        "index": [0, 3, 6, 9, 12, 15],
        "values": [float(v) for v in w.reshape(-1)[::3]],
    }


def test_lenet5_roundtrips_weight_for_weight(lenet5_file):
    dag, path = lenet5_file
    written = json.loads(path.read_text())
    sparse = [a["elem"]["W"] for a in written["arcs"] if isinstance(a["elem"].get("W"), dict)]
    assert sparse and all(len(w["index"]) * 2 < w["shape"][0] * w["shape"][1] for w in sparse)
    again = load_network(path)
    assert validate(again).ok
    assert_same_arrays(dag, again)


def test_dense_lenet5_file_loads_to_the_same_arrays(lenet5_file):
    dag, path = lenet5_file
    data = dag_to_dict(dag)
    for arc, entry in zip(dag.arcs, data["arcs"]):
        if arc.elem.weight is not None:
            entry["elem"]["W"] = arc.elem.weight.tolist()
    assert_same_arrays(load_network(path), dag_from_dict(data))


def test_output_role_alias_and_sink_inference():
    data = {
        "input_dim": 2,
        "nodes": [{"id": 0, "role": "input"}, {"id": 1, "role": "output"}],
        "arcs": [
            {"src": 0, "dst": 1, "elem": {"kind": "identity"}, "in_dim": 2, "out_dim": 2}
        ],
    }
    dag = dag_from_dict(data)
    assert dag.output_node == 1
    assert validate(dag).ok


def test_explicit_output_node_wins():
    data = {
        "input_dim": 2,
        "nodes": [{"id": 0, "role": "input"}, {"id": 1, "role": "relay"}],
        "arcs": [
            {"src": 0, "dst": 1, "elem": {"kind": "identity"}, "in_dim": 2, "out_dim": 2}
        ],
        "output_node": 1,
    }
    assert dag_from_dict(data).output_node == 1


def test_missing_field_names_location():
    data = {
        "input_dim": 2,
        "nodes": [{"id": 0, "role": "input"}, {"id": 1, "role": "relay"}],
        "arcs": [{"src": 0, "dst": 1, "elem": {"kind": "linear"}, "in_dim": 2, "out_dim": 2}],
    }
    with pytest.raises(NetworkFormatError, match=r"arcs\[0\]\.elem"):
        dag_from_dict(data)


def test_unknown_kind_rejected():
    data = {
        "input_dim": 2,
        "nodes": [{"id": 0, "role": "input"}, {"id": 1, "role": "relay"}],
        "arcs": [
            {"src": 0, "dst": 1, "elem": {"kind": "conv9000"}, "in_dim": 2, "out_dim": 2}
        ],
    }
    with pytest.raises(NetworkFormatError, match="conv9000"):
        dag_from_dict(data)


def test_non_numeric_matrix_rejected():
    data = {
        "input_dim": 2,
        "nodes": [{"id": 0, "role": "input"}, {"id": 1, "role": "relay"}],
        "arcs": [
            {
                "src": 0,
                "dst": 1,
                "elem": {"kind": "linear", "W": [["a", "b"]]},
                "in_dim": 2,
                "out_dim": 1,
            }
        ],
    }
    with pytest.raises(NetworkFormatError, match=r"arcs\[0\]\.elem\.W"):
        dag_from_dict(data)


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"input_dim": 2,\n  "nodes": [}')
    with pytest.raises(NetworkFormatError, match="line 2"):
        load_network(path)


def test_cyclic_file_loads_and_fails_validation():
    data = {
        "input_dim": 2,
        "nodes": [
            {"id": 0, "role": "input"},
            {"id": 1, "role": "relay"},
            {"id": 2, "role": "relay"},
        ],
        "arcs": [
            {"src": 0, "dst": 1, "elem": {"kind": "identity"}, "in_dim": 2, "out_dim": 2},
            {"src": 2, "dst": 1, "elem": {"kind": "identity"}, "in_dim": 2, "out_dim": 2},
            {"src": 1, "dst": 2, "elem": {"kind": "identity"}, "in_dim": 2, "out_dim": 2},
        ],
        "output_node": 2,
    }
    dag = dag_from_dict(data)
    report = validate(dag)
    assert not report.ok
    assert any("cycle" in p or "incoming" in p for p in report.problems)


def _small_network():
    return {
        "input_dim": 2,
        "nodes": [{"id": 0, "role": "input"}, {"id": 1, "role": "concat"}],
        "arcs": [
            {"src": 0, "dst": 1, "elem": {"kind": "identity"}, "in_dim": 2, "out_dim": 2}
        ],
        "output_node": 1,
        "labels": {"a": 1},
    }


def _sparse_weight(**fields):
    """Replace the arc's element by a 2x2 linear map with a sparse weight."""
    weight = {"shape": [2, 2], "index": [0, 3], "values": [1.0, 2.0], **fields}
    return _set(("arcs", 0, "elem"), {"kind": "linear", "W": weight})


def _set(path, value):
    def edit(data):
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return data

    return edit


def _ambiguous_sink(data):
    """Drop the output node and add a second node that no arc leaves."""
    del data["output_node"]
    data["nodes"].append({"id": 2, "role": "relay"})
    return data


@pytest.mark.parametrize(
    "edit, field",
    [
        (_set(("nodes", 1), 7), r"nodes\[1\]"),
        (_set(("nodes", 1, "id"), "x"), r"nodes\[1\]\.id"),
        (_set(("arcs", 0, "src"), "a"), r"arcs\[0\]\.src"),
        (_set(("arcs", 0, "elem"), 3), r"arcs\[0\]\.elem"),
        (_set(("labels",), ["a", 1]), "labels"),
        (_set(("labels", "a"), "z"), r"labels\.a"),
        (_set(("output_node",), "q"), "output_node"),
        (_set(("nodes", 1, "concat_order"), ["z"]), r"nodes\[1\]\.concat_order"),
        (_set(("input_dim",), 2.9), "input_dim"),
        (_set(("nodes", 1, "id"), 1.7), r"nodes\[1\]\.id"),
        (_set(("arcs", 0, "dst"), True), r"arcs\[0\]\.dst"),
        (
            _set(("arcs", 0, "elem"), {"kind": "activation", "pool": {"kind": "maxlu", "block": 2.9}}),
            r"arcs\[0\]\.elem\.pool\.block",
        ),
        (_sparse_weight(index=[0, 1.5]), r"arcs\[0\]\.elem\.W\.index"),
        (_sparse_weight(index=[0, True]), r"arcs\[0\]\.elem\.W\.index"),
        (_sparse_weight(index=[0, "3"]), r"arcs\[0\]\.elem\.W\.index"),
        (_sparse_weight(index=[-1, 3]), r"arcs\[0\]\.elem\.W\.index"),
        (_sparse_weight(index=[0, 4]), r"arcs\[0\]\.elem\.W\.index"),
        (_sparse_weight(index=[3, 3]), r"arcs\[0\]\.elem\.W\.index"),
        (_sparse_weight(index=[3, 0]), r"arcs\[0\]\.elem\.W\.index"),
        (_sparse_weight(values=[1.0, 2.0, 3.0]), r"arcs\[0\]\.elem\.W\.values"),
        (_sparse_weight(shape=[3]), r"arcs\[0\]\.elem\.W\.shape"),
        (_sparse_weight(shape=[0, 2]), r"arcs\[0\]\.elem\.W\.shape"),
        (_sparse_weight(shape=[2.5, 2]), r"arcs\[0\]\.elem\.W\.shape"),
        (_sparse_weight(values=[1.0, float("nan")]), r"arcs\[0\]\.elem: weight entries must be finite"),
        (_set(("arcs", 0, "elem"), {"kind": "linear"}), r"arcs\[0\]\.elem"),
        (_set(("arcs", 0, "elem"), {"kind": "activation"}), r"arcs\[0\]\.elem"),
        (_set(("nodes", 1), {"id": 1}), r"nodes\[1\]: missing field 'role'"),
        (_sparse_weight(index=3), r"arcs\[0\]\.elem\.W: index and values must be arrays"),
        (_sparse_weight(values="12"), r"arcs\[0\]\.elem\.W: index and values must be arrays"),
        (_sparse_weight(index=[0, 10**400]), r"arcs\[0\]\.elem\.W\.index: positions must lie"),
        (_sparse_weight(values=["a", "b"]), r"arcs\[0\]\.elem\.W\.values: not numeric"),
        (_sparse_weight(values=[[1.0], [2.0]]), r"arcs\[0\]\.elem\.W\.values: must be a flat array"),
        (_set(("arcs", 0, "elem"), {"kind": "linear", "W": [1.0, 2.0]}), r"arcs\[0\]\.elem\.W: expected a 2-D"),
        (
            _set(("arcs", 0, "elem"), {"kind": "activation", "pool": {"kind": "avg", "block": 2}}),
            r"arcs\[0\]\.elem\.pool\.kind: unknown pool 'avg'",
        ),
        (_set(("arcs", 0, "elem"), {"kind": "activation", "cpwl": {"right": [[1.0]]}}), r"arcs\[0\]\.elem\.cpwl"),
        (
            _set(("arcs", 0, "elem"), {"kind": "transform", "transform": {"kind": "softmax", "lambda": 0.0}}),
            r"arcs\[0\]\.elem\.transform: transform scale must be finite and positive",
        ),
        (lambda data: [data], "top level must be an object"),
        (_set(("nodes",), {}), "nodes and arcs must be arrays"),
        (_set(("arcs",), "0->1"), "nodes and arcs must be arrays"),
        (_set(("nodes", 1, "role"), "split"), r"nodes\[1\]\.role: unknown role 'split'"),
        (_set(("nodes", 1, "concat_order"), 0), r"nodes\[1\]\.concat_order: must be an array"),
        (_set(("nodes", 1, "id"), 2), r"nodes: ids must be dense"),
        (_ambiguous_sink, r"output_node missing and the sink is ambiguous \(sinks: \[1, 2\]\)"),
        (_set(("arcs", 0, "out_dim"), 3), r"^arcs\[0\]: declares dims 2->3 but its element maps 2->2$"),
        (
            _set(("arcs", 0, "elem"), {"kind": "linear", "W": [[1.0, 0.0, 0.0]]}),
            r"^arcs\[0\]: declares dims 2->2 but its element maps 3->1$",
        ),
    ],
    ids=[
        "node_entry", "node_id", "arc_src", "arc_elem",
        "labels", "label_value", "output_node", "concat_order",
        "fractional_input_dim", "fractional_node_id", "boolean_arc_dst", "fractional_pool_block",
        "sparse_fractional_index", "sparse_boolean_index", "sparse_string_index",
        "sparse_negative_index", "sparse_index_past_end", "sparse_repeated_index",
        "sparse_decreasing_index", "sparse_length_mismatch", "sparse_one_axis_shape",
        "sparse_empty_shape", "sparse_fractional_shape", "sparse_nan_value",
        "linear_without_W", "activation_without_cpwl_or_pool",
        "node_without_role", "sparse_index_not_array", "sparse_values_not_array",
        "sparse_index_past_float", "sparse_non_numeric_values", "sparse_nested_values",
        "dense_one_axis_W", "unknown_pool_kind", "cpwl_piece_of_one_number",
        "transform_lambda_not_positive", "top_level_not_object", "nodes_not_array",
        "arcs_not_array", "unknown_role", "concat_order_not_array", "node_ids_not_dense",
        "ambiguous_sink", "declared_out_dim", "declared_dims_of_a_weight",
    ],
)
def test_malformed_fields_are_named(edit, field):
    data = _small_network()
    assert validate(dag_from_dict(data)).ok
    data = edit(data)
    with pytest.raises(NetworkFormatError, match=field):
        dag_from_dict(data)


def _arc(src, dst, elem=None, out_dim=2):
    return {"src": src, "dst": dst, "elem": elem or {"kind": "identity"}, "in_dim": 2, "out_dim": out_dim}


def _add_node_of_unequal_inputs(data):
    """Make node 1 an add node over a 2-wide and a 3-wide arc."""
    data["nodes"][1]["role"] = "add"
    data["arcs"].append(_arc(0, 1, {"kind": "linear", "W": [[1.0, 0.0]] * 3}, out_dim=3))
    return data


_INPUT, _CONCAT = {"id": 0, "role": "input"}, {"id": 1, "role": "concat"}


@pytest.mark.parametrize(
    "edit, line",
    [
        (_set(("nodes", 0, "role"), "relay"), "node 0 must be the input node"),
        (_set(("nodes",), [_INPUT, _CONCAT, {"id": 2, "role": "input"}]), "node 2 duplicates the input role"),
        (_set(("arcs", 0, "dst"), 5), "arc 0 references a missing node"),
        (_set(("arcs",), [_arc(0, 1), _arc(1, 1)]), "arc 1 is a self-loop on node 1"),
        (_set(("arcs",), [_arc(0, 1), _arc(1, 0)]), "input node has 1 incoming arcs"),
        (_set(("nodes",), [_INPUT, _CONCAT, {"id": 2, "role": "add"}]), "node 2 (add) has no incoming arcs"),
        (
            _set(("nodes", 1, "concat_order"), [1]),
            "node 1 concat order [1] does not match its incoming arcs [0]",
        ),
        (_set(("output_node",), 7), "output node 7 does not exist"),
        (_add_node_of_unequal_inputs, "dimension fault at node 1: add inputs differ [2, 3]"),
    ],
    ids=[
        "node_0_not_input", "second_input", "arc_to_missing_node", "self_loop",
        "input_with_incoming_arc", "add_without_incoming_arcs", "concat_order_mismatch",
        "missing_output_node", "add_inputs_differ",
    ],
)
def test_validate_reports_each_structural_fault_of_a_file(tmp_path, capsys, edit, line):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(edit(_small_network())))
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("invalid: ") and f"  - {line}\n" in out


def test_validate_exits_2_on_dims_the_element_does_not_map(tmp_path, capsys):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(_set(("arcs", 0, "out_dim"), 3)(_small_network())))
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: arcs[0]: declares dims 2->3 but its element maps 2->2\n"
    assert captured.out == ""


_RELU = {"right": [[1.0, 0.0]], "left": []}


@pytest.mark.parametrize(
    "elem",
    [
        {"kind": "linear", "W": [[1.0, 0.0], [0.0, 1.0]], "b": [1.0, 1.0]},
        {"kind": "identity", "W": [[1.0, 0.0], [0.0, 1.0]]},
        {"kind": "activation", "W": [[1.0, 0.0], [0.0, 1.0]], "cpwl": _RELU},
        {"kind": "affine", "W": [[1.0, 0.0], [0.0, 1.0]], "cpwl": _RELU},
        {"kind": "transform", "W": [[1.0, 0.0], [0.0, 1.0]], "transform": {"kind": "tanh"}},
    ],
    ids=["linear_with_b", "identity_with_W", "activation_with_W", "affine_with_cpwl", "transform_with_W"],
)
def test_fields_outside_the_declared_kind_are_rejected(elem):
    data = _small_network()
    data["arcs"][0]["elem"] = elem
    with pytest.raises(NetworkFormatError, match=rf"arcs\[0\]\.elem.*'{elem['kind']}'"):
        dag_from_dict(data)


@pytest.mark.parametrize(
    "elem, message",
    [
        ({"kind": "affine", "W": [[1.0, 0.0], [0.0, 1.0]], "bias": [1.0, 1.0]}, "unknown field 'bias'"),
        ({"kind": "identity", "weight": [[1.0, 0.0], [0.0, 1.0]]}, "unknown field 'weight'"),
        ({"kind": "activation", "cpwl": _RELU, "Cpwl": _RELU}, "unknown field 'Cpwl'"),
        (
            {"kind": "activation", "pool": {"kind": "maxlu", "block": 2}, "cpwl": _RELU},
            "holds both 'pool' and 'cpwl'",
        ),
        (
            {"kind": "activation_affine", "W": [[1.0, 0.0], [0.0, 1.0]], "cpwl": _RELU, "pool": {"kind": "maxpool", "block": 2}},
            "holds both 'pool' and 'cpwl'",
        ),
    ],
    ids=["misspelt_bias", "identity_with_weight", "capitalised_cpwl", "pool_and_cpwl", "affine_pool_and_cpwl"],
)
def test_fields_of_no_kind_and_two_activations_are_rejected(elem, message):
    data = _small_network()
    data["arcs"][0]["elem"] = elem
    with pytest.raises(NetworkFormatError, match=rf"^arcs\[0\]\.elem: {message}"):
        dag_from_dict(data)


def test_integral_numbers_load_as_integers():
    data = _small_network()
    data["input_dim"] = 2.0
    data["arcs"][0]["dst"] = 1.0
    dag = dag_from_dict(data)
    assert validate(dag).ok
    assert dag_to_dict(dag) == dag_to_dict(dag_from_dict(_small_network()))

    data = _small_network()
    data["input_dim"] = data["arcs"][0]["in_dim"] = 3
    weight = {"shape": [2.0, 3.0], "index": [1.0, 5], "values": [4.0, -1.0]}
    data["arcs"][0]["elem"] = {"kind": "linear", "W": weight}
    dag = dag_from_dict(data)
    assert validate(dag).ok
    assert np.array_equal(dag.arcs[0].elem.weight, [[0.0, 4.0, 0.0], [0.0, 0.0, -1.0]])


def test_kind_strings_of_the_element_factories():
    rng = np.random.default_rng(3)
    w = rng.standard_normal((4, 4))
    cases = [
        (Identity(4), "identity"),
        (Linear(w), "linear"),
        (Affine(w, rng.standard_normal(4)), "affine"),
        (Affine(w), "affine"),
        (Affine(w, np.zeros(4)), "affine"),
        (Activation(hard_tanh_spec(), 4), "activation"),
        (ActivationAffine(PoolSpec(2, rectified=True), w), "activation_affine"),
        (Transform(TransformSpec("softmax", scale=2.0), 4), "transform"),
        (TransformAffine(TransformSpec("tanh"), w), "transform_affine"),
    ]
    for elem, kind in cases:
        g = series(identity_dag(4), elem)
        assert dag_to_dict(g)["arcs"][0]["elem"]["kind"] == kind
        again = roundtrip(g)
        assert again.arcs[0].elem.kind == kind


def test_arc_element_rejects_conflicting_parts():
    from unrectify import ArcElement

    w = np.eye(2)
    for parts, message in (
        (dict(bias=np.ones(2), dim=2), "bias needs a weight"),
        (dict(weight=w, dim=2), "dimensions from the weight"),
        (dict(weight=w, act=hard_tanh_spec(), spec=TransformSpec("tanh")), "not both"),
        (dict(act=PoolSpec(2), dim=3), "not a multiple of block 2"),
    ):
        with pytest.raises(ValueError, match=message):
            ArcElement(**parts)
