import json

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


def test_roundtrip_random_graphs(tmp_path):
    rng = np.random.default_rng(2)
    for i in range(5):
        dag = random_valid_dag(rng)
        path = tmp_path / f"net{i}.json"
        save_network(dag, path)
        again = load_network(path)
        assert validate(again).ok
        assert_same_function(dag, again, rng)


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


def _set(path, value):
    def edit(data):
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    return edit


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
    ],
    ids=[
        "node_entry", "node_id", "arc_src", "arc_elem",
        "labels", "label_value", "output_node", "concat_order",
    ],
)
def test_malformed_fields_are_named(edit, field):
    data = _small_network()
    assert validate(dag_from_dict(data)).ok
    edit(data)
    with pytest.raises(NetworkFormatError, match=field):
        dag_from_dict(data)


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
