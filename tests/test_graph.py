import warnings

import numpy as np
import pytest

from conftest import longest_path_levels, random_valid_dag
from unrectify import (
    Activation,
    ActivationAffine,
    Affine,
    Dag,
    GraphBuilder,
    GraphConstructionError,
    Identity,
    InvalidGraphError,
    Linear,
    Node,
    PoolSpec,
    TransformAffine,
    TransformSpec,
    affine_piece,
    build_demo_network,
    build_fusion_module,
    build_fusion_stack,
    build_lenet5,
    build_series_stack,
    certify,
    check_refinement,
    computable_subgraph,
    concatenate,
    count_regions_2d,
    duplicate,
    forward,
    forward_batch,
    identity_dag,
    levels,
    partition_stats,
    region_code,
    relu_spec,
    rescale_to_stability,
    series,
    validate,
)
from unrectify.graph import Arc, ROLE_INPUT, ROLE_RELAY, ancestors, propagate


def test_series_identity_is_identity():
    g = series(identity_dag(4), Identity(4))
    x = np.arange(4.0)
    y, _ = forward(g, x)
    assert np.array_equal(y, x)


def test_series_activation_affine():
    rng = np.random.default_rng(0)
    w = rng.standard_normal((3, 5))
    g = series(identity_dag(5), ActivationAffine(relu_spec(), w))
    x = rng.standard_normal(5)
    y, _ = forward(g, x)
    assert np.abs(y - np.maximum(w @ x, 0)).max() <= 1e-12


def test_series_dimension_mismatch_names_both_dims():
    g = identity_dag(3)
    with pytest.raises(GraphConstructionError, match=r"3.*4|4.*3"):
        series(g, Linear(np.ones((2, 4))))


def test_concatenate_two_identities():
    g = concatenate([identity_dag(2), identity_dag(2)])
    y, _ = forward(g, np.array([1.0, 2.0]))
    assert y.tolist() == [1.0, 2.0, 1.0, 2.0]


def test_concatenate_singleton_equivalent():
    rng = np.random.default_rng(1)
    base = series(identity_dag(3), ActivationAffine(relu_spec(), rng.standard_normal((4, 3))))
    wrapped = concatenate([base])
    for x in rng.standard_normal((100, 3)):
        ya, _ = forward(base, x)
        yb, _ = forward(wrapped, x)
        assert np.array_equal(ya, yb)


def test_concatenate_empty_rejected():
    with pytest.raises(GraphConstructionError):
        concatenate([])


def test_concatenate_mixed_input_dims_rejected():
    with pytest.raises(GraphConstructionError):
        concatenate([identity_dag(2), identity_dag(3)])


def test_duplicate_stacks_copies():
    g = duplicate(identity_dag(2), 3)
    y, _ = forward(g, np.array([1.0, 2.0]))
    assert y.tolist() == [1.0, 2.0, 1.0, 2.0, 1.0, 2.0]


def test_duplicate_once_equivalent():
    rng = np.random.default_rng(2)
    base = series(identity_dag(2), Affine(rng.standard_normal((3, 2)), rng.standard_normal(3)))
    doubled = duplicate(base, 1)
    for x in rng.standard_normal((100, 2)):
        assert np.array_equal(forward(base, x)[0], forward(doubled, x)[0])


def test_duplicate_zero_rejected():
    with pytest.raises(GraphConstructionError):
        duplicate(identity_dag(2), 0)


def test_combinators_leave_input_unchanged():
    g = identity_dag(2)
    series(g, Identity(2))
    duplicate(g, 2)
    assert len(g.nodes) == 1 and len(g.arcs) == 0


def test_forward_rejects_bad_inputs():
    g = identity_dag(3)
    with pytest.raises(ValueError):
        forward(g, np.ones(2))
    with pytest.raises(ValueError):
        forward(g, np.array([1.0, np.nan, 0.0]))


def test_finite_overflowing_node_values_pass_without_warning():
    # the node check's sum of squares overflows on entries near 1e160, but
    # every entry is finite: no warning, no error
    g = series(identity_dag(2), Affine(1e160 * np.eye(2)))
    x = np.array([1.0, -2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, _ = forward(g, x)
        assert out.tolist() == [1e160, -2e160]
        batch, _ = forward_batch(g, np.array([x, 2 * x]))
        assert batch.tolist() == [[1e160, -2e160], [2e160, -4e160]]
    # a non-finite node value is still refused, naming its arc: +inf, then
    # -inf; the walk's error state keeps the overflowing products quiet
    for sign in (1.0, -1.0):
        net = series(g, Affine(sign * 1e160 * np.eye(2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^arc 1 produced non-finite values$"):
                forward(net, x)
            with pytest.raises(ValueError, match="^arc 1 produced non-finite values$"):
                forward_batch(net, np.array([x, 2 * x]))


def test_add_node_whose_finite_arc_values_overflow_names_the_node():
    # both arc outputs are finite, 1e308 each; their sum overflows at the add
    # node, which is named, and numpy's overflow warning is not raised
    big = 1e308 * np.eye(1)
    for mode, node in (("probe", 3), ("compact", 1)):
        dag = build_fusion_stack([(big, None, big, None)], mode=mode)
        for run in (
            lambda: forward(dag, [1.0]),
            lambda: forward_batch(dag, [[0.5], [1.0]]),
            lambda: region_code(dag, dag.output_node, [1.0]),
            lambda: affine_piece(dag, dag.output_node, [1.0]),
        ):
            with pytest.raises(ValueError, match=f"^node {node} produced non-finite values$"):
                run()
        assert forward(dag, [0.5])[0].tolist() == [1e308]


def test_cached_closure_is_not_read_for_a_float_or_bool_id():
    net = series(identity_dag(2), Activation(relu_spec(), 2))
    assert net.closure(1) == (0, 1)
    for bad in (1.0, True, np.float64(1.0)):
        with pytest.raises(ValueError, match=f"^node {bad} does not exist; node ids run from 0 to 1$"):
            net.closure(bad)
    assert net.closure(np.int64(1)) == (0, 1)


def test_finite_inputs_near_overflow_pass_without_warning():
    # the input check's sum of squares overflows, but every entry is finite
    net = series(identity_dag(3), Activation(relu_spec(), 3))
    x = np.array([1e308, -1.7e308, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, _ = forward(net, x)
        assert out.tolist() == [1e308, 0.0, 1.0]
        batch, _ = forward_batch(net, np.array([x, -x]))
        assert batch.tolist() == [[1e308, 0.0, 1.0], [0.0, 1.7e308, 0.0]]
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="^input entries must be finite$"):
            forward(net, np.array([1e308, 1e308, bad]))


def test_arc_whose_finite_input_overflows_names_the_arc_without_warning():
    # the product overflows to inf, or to inf - inf = nan; the walk's error
    # state keeps numpy quiet, and the finite tests name the arc
    for weight, x in (([[1e200]], [1e200]), ([[1e200, -1e200]], [1e200, 1e200])):
        for elem, message in (
            (Affine(weight), "arc 0 produced non-finite values"),
            (ActivationAffine(relu_spec(), weight), "arc 0 activation input must be finite"),
        ):
            net = series(identity_dag(len(x)), elem)
            for run in (
                lambda: forward(net, x),
                lambda: forward_batch(net, [x, x]),
                lambda: region_code(net, net.output_node, x),
                lambda: affine_piece(net, net.output_node, x),
            ):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(ValueError, match=f"^{message}$"):
                        run()


def test_non_finite_arc_output_names_the_arc():
    g = identity_dag(2)
    for _ in range(2):
        g = series(g, Affine(1e200 * np.eye(2)))
    g = series(g, Activation(PoolSpec(2), 2))
    with pytest.raises(ValueError, match="arc 1 "):
        forward(g, np.ones(2))
    with pytest.raises(ValueError, match="arc 1 "):
        forward_batch(g, np.ones((3, 2)))
    with pytest.raises(ValueError, match="arc 1 "):
        region_code(g, g.output_node, np.ones(2))
    # an overflowing pre-activation fails inside the nonlinearity itself
    cpwl = build_series_stack([1e200 * np.ones((2, 2))] * 2)
    transform = series(identity_dag(2), Affine(1e200 * np.eye(2)))
    transform = series(transform, TransformAffine(TransformSpec("tanh"), 1e200 * np.eye(2)))
    for net in (cpwl, transform):
        for run in (
            lambda: forward(net, np.ones(2)),
            lambda: forward_batch(net, np.ones((3, 2))),
            lambda: region_code(net, net.output_node, np.ones(2)),
        ):
            with pytest.raises(ValueError, match="arc 1 "):
                run()
    with pytest.raises(ValueError, match="arc 1 "):
        affine_piece(cpwl, cpwl.output_node, np.ones(2))
    # a pre-activation of -inf beside a finite entry of its block would lose
    # the block max and leave every node value finite
    for rectified in (True, False):
        pool = ActivationAffine(PoolSpec(2, rectified=rectified), [[-1e200, 0.0], [0.0, 1.0]])
        net = series(series(identity_dag(2), Affine(np.eye(2))), pool)
        x = np.array([1e200, 0.5])
        for run in (
            lambda: forward(net, x),
            lambda: forward_batch(net, np.tile(x, (3, 1))),
            lambda: region_code(net, net.output_node, x),
            lambda: affine_piece(net, net.output_node, x),
        ):
            with pytest.raises(ValueError, match="^arc 1 activation input must be finite$"):
                run()


def test_non_finite_fortran_ordered_value_names_the_arc():
    g = build_fusion_module([np.eye(3), np.ones((3, 3))])
    for arc_id in range(len(g.arcs)):
        for entry in (np.inf, -np.inf, np.nan):

            def through_arc(arc, value):
                out = np.asfortranarray(np.ones((4, 3)) + value[:, :1])
                if arc.id == arc_id:
                    out[2, 1] = entry
                assert out.flags.f_contiguous and not out.flags.c_contiguous
                return out

            with pytest.raises(ValueError, match=f"^arc {arc_id} produced non-finite values$"):
                propagate(g, g.output_node, np.asfortranarray(np.zeros((4, 3))), through_arc)


def test_forward_trace_covers_all_nodes():
    rng = np.random.default_rng(3)
    dag = random_valid_dag(rng)
    x = rng.standard_normal(dag.input_dim)
    _, trace = forward(dag, x)
    assert set(trace) == {node.id for node in dag.nodes}


def test_forward_batch_matches_single():
    rng = np.random.default_rng(4)
    dag = random_valid_dag(rng)
    xs = rng.standard_normal((10, dag.input_dim))
    ys, _ = forward_batch(dag, xs)
    for i, x in enumerate(xs):
        y, _ = forward(dag, x)
        assert np.array_equal(ys[i], y)


def test_validate_reports_cycle():
    nodes = (
        Node(0, ROLE_INPUT),
        Node(1, ROLE_RELAY),
        Node(2, ROLE_RELAY),
        Node(3, ROLE_RELAY),
    )
    arcs = (
        Arc(0, 0, 1, Identity(2)),
        Arc(1, 1, 2, Identity(2)),
        Arc(2, 3, 1, Identity(2)),  # back-arc into the chain
        Arc(3, 2, 3, Identity(2)),
    )
    report = validate(Dag(2, nodes, arcs, 3))
    assert not report.ok
    assert any("cycle" in p for p in report.problems)


def test_validate_reports_dimension_fault_at_node():
    nodes = (Node(0, ROLE_INPUT), Node(1, ROLE_RELAY), Node(2, ROLE_RELAY))
    arcs = (
        Arc(0, 0, 1, Linear(np.ones((3, 2)))),
        Arc(1, 1, 2, Identity(4)),  # claims dim 4 but node 1 produces 3
    )
    report = validate(Dag(2, nodes, arcs, 2))
    assert not report.ok
    assert any("dim" in p for p in report.problems)


def test_validate_requires_single_sink():
    nodes = (Node(0, ROLE_INPUT), Node(1, ROLE_RELAY), Node(2, ROLE_RELAY))
    arcs = (
        Arc(0, 0, 1, Identity(2)),
        Arc(1, 0, 2, Identity(2)),
    )
    report = validate(Dag(2, nodes, arcs, 2))
    assert not report.ok


def test_validate_names_unreachable_and_stranded_nodes():
    # node 3 feeds the output but nothing feeds it; node 4 hangs off node 1
    nodes = (
        Node(0, ROLE_INPUT),
        Node(1, "duplicate"),
        Node(2, "add", (1, 2)),
        Node(3, ROLE_RELAY),
        Node(4, ROLE_RELAY),
    )
    arcs = (
        Arc(0, 0, 1, Identity(2)),
        Arc(1, 1, 2, Identity(2)),
        Arc(2, 3, 2, Identity(2)),
        Arc(3, 1, 4, Identity(2)),
    )
    report = validate(Dag(2, nodes, arcs, 2))
    assert "nodes unreachable from the input: [3]" in report.problems
    assert "nodes with no path to the output: [4]" in report.problems
    assert report.reachable_count == 4


def test_validate_names_a_label_of_a_missing_node():
    rng = np.random.default_rng(27)
    dag = build_fusion_module([rng.standard_normal((2, 2)), rng.standard_normal((2, 2))])
    assert len(dag.nodes) == 5 and validate(dag).ok
    ghost = Dag(dag.input_dim, dag.nodes, dag.arcs, dag.output_node, {**dag.labels, "ghost": 99})
    assert validate(ghost).problems == ("label 'ghost' names node 99, which does not exist",)


def test_levels_chain():
    g = identity_dag(2)
    for _ in range(5):
        g = series(g, Identity(2))
    assert sorted(levels(g).values()) == [0, 1, 2, 3, 4, 5]


def test_levels_match_relaxation_oracle():
    rng = np.random.default_rng(5)
    for _ in range(30):
        dag = random_valid_dag(rng)
        lvl = levels(dag)
        oracle = longest_path_levels(dag)
        assert [lvl[i] for i in range(len(dag.nodes))] == oracle


def test_levels_contiguous_on_random_dags():
    rng = np.random.default_rng(6)
    for _ in range(30):
        dag = random_valid_dag(rng)
        attained = sorted(set(levels(dag).values()))
        assert attained == list(range(attained[-1] + 1))


def test_subgraph_of_input_is_identity():
    rng = np.random.default_rng(7)
    dag = random_valid_dag(rng)
    sub = computable_subgraph(dag, 0)
    assert len(sub.nodes) == 1
    x = rng.standard_normal(dag.input_dim)
    assert np.array_equal(forward(sub, x)[0], x)


def test_subgraph_matches_full_trace_exactly():
    rng = np.random.default_rng(8)
    for _ in range(10):
        dag = random_valid_dag(rng)
        x = rng.standard_normal(dag.input_dim)
        _, trace = forward(dag, x)
        for node in dag.nodes:
            sub = computable_subgraph(dag, node.id)
            y, _ = forward(sub, x)
            assert np.array_equal(y, trace[node.id])


def test_subgraph_is_ancestor_closure():
    rng = np.random.default_rng(9)
    dag = random_valid_dag(rng)
    for node in dag.nodes:
        expected = ancestors(dag, node.id) | {node.id}
        sub = computable_subgraph(dag, node.id)
        assert len(sub.nodes) == len(expected)


def test_composition_algebra():
    rng = np.random.default_rng(10)
    for _ in range(10):
        dag = random_valid_dag(rng)
        out_dim = dag.node_dims[dag.output_node]
        w = rng.standard_normal((3, out_dim))
        extended = series(dag, ActivationAffine(relu_spec(), w))
        x = rng.standard_normal(dag.input_dim)
        y, _ = forward(extended, x)
        base, _ = forward(dag, x)
        assert np.abs(y - np.maximum(w @ base, 0)).max() <= 1e-12


def test_concat_dims_sum_and_add_requires_equal():
    rng = np.random.default_rng(11)
    g = concatenate([identity_dag(2), identity_dag(2), identity_dag(2)])
    assert g.node_dims[g.output_node] == 6


def _chain_file(arcs):
    return {
        "input_dim": 2,
        "nodes": [{"id": i, "role": r} for i, r in enumerate(("input", "relay", "relay"))],
        "arcs": arcs,
        "output_node": 2,
    }


def test_combinators_accept_arcs_out_of_topological_order():
    from unrectify.netio import dag_from_dict

    rng = np.random.default_rng(12)
    first = {"src": 0, "dst": 1, "in_dim": 2, "out_dim": 3,
             "elem": {"kind": "linear", "W": rng.standard_normal((3, 2)).tolist()}}
    second = {"src": 1, "dst": 2, "in_dim": 3, "out_dim": 1,
              "elem": {"kind": "linear", "W": rng.standard_normal((1, 3)).tolist()}}
    in_order = dag_from_dict(_chain_file([first, second]))
    reverse = dag_from_dict(_chain_file([second, first]))
    assert validate(reverse).ok
    xs = rng.standard_normal((5, 2))
    for combine in (
        lambda g: series(g, Identity(1)),
        lambda g: duplicate(g, 2),
        lambda g: concatenate([g, g]),
    ):
        expected, _ = forward_batch(combine(in_order), xs)
        got, _ = forward_batch(combine(reverse), xs)
        assert np.array_equal(got, expected)


def test_combinators_keep_a_permuted_concat_order():
    rng = np.random.default_rng(13)
    nodes = (Node(0, ROLE_INPUT), Node(1, "concat", (1, 0)))
    arcs = (
        Arc(0, 0, 1, Linear(rng.standard_normal((3, 2)))),
        Arc(1, 0, 1, Linear(rng.standard_normal((1, 2)))),
    )
    g = Dag(2, nodes, arcs, 1)
    xs = rng.standard_normal((5, 2))
    expected, _ = forward_batch(g, xs)
    for combined, copies in (
        (series(g, Identity(4)), 1),
        (duplicate(g, 2), 2),
        (concatenate([g, g]), 2),
    ):
        got, _ = forward_batch(combined, xs)
        assert np.array_equal(got, np.hstack([expected] * copies))


def _release_graphs():
    rng = np.random.default_rng(47)
    return [random_valid_dag(rng, n_ops=int(rng.integers(4, 14))) for _ in range(12)] + [
        build_demo_network(),
        build_lenet5(seed=0),
    ]


def test_release_schedule_drops_each_value_after_its_last_reader():
    for dag in _release_graphs():
        for node_id in range(len(dag.nodes)):
            closure = dag.closure(node_id)
            schedule = dag.releases(node_id)
            assert len(schedule) == len(closure)
            dropped = [nid for dead in schedule for nid in dead]
            assert sorted(dropped) == sorted(closure[:-1])  # each once, never the node
            for pos, dead in enumerate(schedule):
                for nid in dead:
                    readers = [p for p, dst in enumerate(closure) if any(a.src == nid for a in dag.in_arcs[dst])]
                    assert pos == max(readers)
            assert dag.releases(node_id) is schedule  # worked out once per node


def test_released_walk_returns_the_full_walks_bits_at_every_node():
    rng = np.random.default_rng(48)
    for dag in _release_graphs():
        xs = rng.uniform(-1.0, 1.0, (3, dag.input_dim))

        def through_arc(arc, value):
            return arc.elem.apply(value)

        for node_id in range(len(dag.nodes)):
            full = propagate(dag, node_id, xs, through_arc)
            released = propagate(dag, node_id, xs, through_arc, release=True)
            assert list(released) == [node_id]
            assert released[node_id].tobytes() == full[node_id].tobytes()
            assert released[node_id].strides == full[node_id].strides


def _cyclic_graph() -> Dag:
    """Input 0 feeds node 1 of the cycle 1 -> 2 -> 3 -> 1; node 3 is the output."""
    nodes = (Node(0, ROLE_INPUT), Node(1, ROLE_RELAY), Node(2, ROLE_RELAY), Node(3, ROLE_RELAY))
    arcs = (
        Arc(0, 0, 1, ActivationAffine(relu_spec(), np.eye(2))),
        Arc(1, 1, 2, Identity(2)),
        Arc(2, 3, 1, Identity(2)),
        Arc(3, 2, 3, Identity(2)),
    )
    return Dag(2, nodes, arcs, 3)


def _dead_end_graph() -> Dag:
    """Acyclic, but node 2 leads nowhere: only the output may be a sink."""
    nodes = (Node(0, ROLE_INPUT), Node(1, ROLE_RELAY), Node(2, ROLE_RELAY))
    arcs = (Arc(0, 0, 1, ActivationAffine(relu_spec(), np.eye(2))), Arc(1, 0, 2, Identity(2)))
    return Dag(2, nodes, arcs, 1)


_X = np.array([0.5, -1.0])
_XS = np.array([[0.5, -1.0], [1.0, 2.0], [-3.0, 0.25]])

# every query that reads a graph, on its output node
_GRAPH_QUERIES = {
    "forward": lambda g: forward(g, _X),
    "forward_batch": lambda g: forward_batch(g, _XS),
    "region_code": lambda g: region_code(g, g.output_node, _X),
    "affine_piece": lambda g: affine_piece(g, g.output_node, _X),
    "partition_stats": lambda g: partition_stats(g, g.output_node, _XS),
    "check_refinement": lambda g: check_refinement(g, g.output_node, 0, _XS),
    "count_regions_2d": lambda g: count_regions_2d(g, grid_n=3),
    "certify": certify,
    "rescale_to_stability": rescale_to_stability,
    "levels": levels,
    "computable_subgraph": lambda g: computable_subgraph(g, g.output_node),
}


@pytest.mark.parametrize("query", list(_GRAPH_QUERIES), ids=list(_GRAPH_QUERIES))
@pytest.mark.parametrize(
    "graph, problem",
    [(_cyclic_graph, "cycle through nodes"), (_dead_end_graph, "dead end")],
    ids=["cyclic", "dead_end"],
)
def test_every_query_refuses_an_invalid_graph_with_its_report(query, graph, problem):
    dag = graph()
    with pytest.raises(InvalidGraphError, match="^invalid:") as info:
        _GRAPH_QUERIES[query](dag)
    assert problem in str(info.value)
    assert str(info.value) == validate(dag).summary()


def test_topological_order_of_a_cyclic_graph_is_refused():
    # the order leaves out the nodes on and behind the cycle, so it is no order
    with pytest.raises(InvalidGraphError, match="^graph contains a cycle$"):
        _cyclic_graph().topo_order


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: forward_batch(identity_dag(3), np.ones(3)), ValueError, r"^batch must have shape \(n, 3\), got \(3,\)$"),
        (lambda: GraphBuilder(0), GraphConstructionError, "^input dimension must be positive$"),
    ],
    ids=["batch_of_one_vector", "builder_of_no_input"],
)
def test_graph_rejects_a_bad_batch_shape_and_input_size(make, error, message):
    with pytest.raises(error, match=message):
        make()
