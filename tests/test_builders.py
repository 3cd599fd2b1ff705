import numpy as np
import pytest

from unrectify import (
    Activation,
    ActivationAffine,
    Affine,
    GraphBuilder,
    GraphConstructionError,
    Identity,
    PoolSpec,
    build_demo_network,
    build_fusion_module,
    build_fusion_stack,
    build_lenet5,
    build_resnet_module,
    build_series_stack,
    conv2d_affine,
    forward,
    forward_batch,
    lenet5_probe_nodes,
    levels,
    maxpool_as_relu_network,
    relu_spec,
    validate,
)
from unrectify.graph import ROLE_CONCAT


def test_series_stack_matches_manual_composition():
    rng = np.random.default_rng(0)
    mats = [rng.standard_normal((4, 4)) for _ in range(3)]
    biases = [rng.standard_normal(4) for _ in range(3)]
    g = build_series_stack(mats, biases)
    x = rng.standard_normal(4)
    ref = x
    for w, b in zip(mats, biases):
        ref = np.maximum(w @ ref + b, 0)
    y, _ = forward(g, x)
    assert np.abs(y - ref).max() <= 1e-12


def test_fusion_module_function_and_labels():
    rng = np.random.default_rng(1)
    m1, m2 = rng.standard_normal((2, 3, 3))
    g = build_fusion_module([m1, m2])
    x = rng.standard_normal(3)
    y, trace = forward(g, x)
    assert np.abs(y - (np.maximum(m1 @ x, 0) + np.maximum(m2 @ x, 0))).max() <= 1e-12
    assert {"channel0", "channel1", "concat", "fusion"} <= set(g.labels)
    assert np.abs(trace[g.labels["channel0"]] - np.maximum(m1 @ x, 0)).max() == 0


def test_concatenate_then_fuse_equals_fusion_module():
    from unrectify import ActivationAffine, Linear, concatenate, identity_dag, relu_spec, series

    rng = np.random.default_rng(8)
    m1, m2 = rng.standard_normal((2, 3, 3))
    channels = [
        series(identity_dag(3), ActivationAffine(relu_spec(), m)) for m in (m1, m2)
    ]
    fused = series(concatenate(channels), Linear(np.hstack([np.eye(3), np.eye(3)])))
    module = build_fusion_module([m1, m2])
    for x in rng.standard_normal((100, 3)):
        assert np.array_equal(forward(fused, x)[0], forward(module, x)[0])


def test_fusion_stack_probe_and_compact_agree():
    rng = np.random.default_rng(2)
    layer_w = [
        (
            rng.standard_normal((4, 4)),
            rng.standard_normal(4),
            rng.standard_normal((4, 4)),
            rng.standard_normal(4),
        )
        for _ in range(3)
    ]
    probe = build_fusion_stack(layer_w, mode="probe")
    compact = build_fusion_stack(layer_w, mode="compact")
    xs = rng.standard_normal((50, 4))
    ya, _ = forward_batch(probe, xs)
    yb, _ = forward_batch(compact, xs)
    assert np.abs(ya - yb).max() <= 1e-12
    assert "layer2.top" in probe.labels and "layer2.top" not in compact.labels
    # compact: one node per layer, levels 0..3
    assert sorted(levels(compact).values()) == [0, 1, 2, 3]


def test_resnet_module_closed_form():
    rng = np.random.default_rng(3)
    w1 = rng.standard_normal((5, 5))
    b1 = rng.standard_normal(5)
    w2 = rng.standard_normal((5, 5))
    b2 = rng.standard_normal(5)
    g = build_resnet_module(w1, w2, b1, b2)
    for x in rng.standard_normal((1000, 5)):
        y, _ = forward(g, x)
        ref = np.maximum(x - (w2 @ np.maximum(w1 @ x + b1, 0) + b2), 0)
        assert np.abs(y - ref).max() <= 1e-12


def test_resnet_module_zero_branch_is_rectifier():
    rng = np.random.default_rng(4)
    w1 = rng.standard_normal((3, 3))
    g = build_resnet_module(w1, np.zeros((3, 3)))
    x = rng.standard_normal(3)
    y, _ = forward(g, x)
    assert np.array_equal(y, np.maximum(x, 0))


def test_resnet_shape_mismatch():
    with pytest.raises(GraphConstructionError):
        build_resnet_module(np.ones((3, 4)), np.ones((3, 4)))


def test_maxpool_network_small_case():
    net = maxpool_as_relu_network(2)
    y, _ = forward(net, np.array([1.0, 2.0]))
    assert abs(y[0] - 2.0) <= 1e-12


@pytest.mark.parametrize("block", [2, 4, 5, 8])
def test_maxpool_network_matches_direct_max(block):
    net = maxpool_as_relu_network(block)
    rng = np.random.default_rng(block)
    xs = rng.standard_normal((5000, block))
    ys, _ = forward_batch(net, xs)
    assert np.abs(ys[:, 0] - xs.max(axis=1)).max() <= 1e-12


def test_maxpool_network_rejects_small_blocks():
    with pytest.raises(GraphConstructionError):
        maxpool_as_relu_network(1)


def test_demo_network_structure():
    demo = build_demo_network()
    report = validate(demo)
    assert report.ok
    assert report.node_count == 12
    assert report.reachable_count == 12
    lvl = levels(demo)
    assert lvl[demo.labels["a"]] == 4
    assert lvl[demo.labels["c"]] == 1
    by_level = {}
    for nid, n in lvl.items():
        by_level.setdefault(n, []).append(nid)
    assert len(by_level[1]) == 4
    assert len(by_level[2]) == 1


def test_demo_subgraphs_nest():
    from unrectify.graph import ancestors

    demo = build_demo_network()
    closures = {
        name: ancestors(demo, demo.labels[name]) | {demo.labels[name]}
        for name in ("a", "b", "c")
    }
    assert closures["c"] < closures["b"] < closures["a"]
    assert len(closures["a"]) == 5


def test_conv2d_affine_matches_direct_convolution():
    rng = np.random.default_rng(5)
    kernel = rng.standard_normal((2, 3, 3))
    image = rng.standard_normal((2, 6, 6))
    w, b = conv2d_affine(kernel, 0.5, (2, 6, 6), stride=1, pad=1)
    out = (w @ image.reshape(-1) + b).reshape(6, 6)
    for i in range(6):
        for j in range(6):
            acc = 0.5
            for ci in range(2):
                for u in range(3):
                    for v in range(3):
                        ii, jj = i - 1 + u, j - 1 + v
                        if 0 <= ii < 6 and 0 <= jj < 6:
                            acc += kernel[ci, u, v] * image[ci, ii, jj]
            assert abs(out[i, j] - acc) <= 1e-12


def loop_conv2d_affine(kernel, bias, in_shape, stride=1, pad=0):
    """``conv2d_affine`` as the per-tap loop it was first written as; kept
    as an oracle."""
    in_ch, in_h, in_w = in_shape
    _, kh, kw = kernel.shape
    out_h = (in_h + 2 * pad - kh) // stride + 1
    out_w = (in_w + 2 * pad - kw) // stride + 1
    weight = np.zeros((out_h * out_w, in_ch * in_h * in_w))
    for i in range(out_h):
        for j in range(out_w):
            for ci in range(in_ch):
                for u in range(kh):
                    ii = i * stride - pad + u
                    if ii < 0 or ii >= in_h:
                        continue
                    for v in range(kw):
                        jj = j * stride - pad + v
                        if 0 <= jj < in_w:
                            weight[i * out_w + j, ci * in_h * in_w + ii * in_w + jj] = kernel[ci, u, v]
    return weight, np.full(out_h * out_w, float(bias))


@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("pad", [0, 1, 2, 3])
def test_conv2d_affine_equals_tap_loop(stride, pad):
    rng = np.random.default_rng(10 * stride + pad)
    for channels in range(1, 7):
        for plane in ((5, 5), (7, 5), (5, 9), (6, 8)):
            for k in (1, 5):
                kernel = rng.standard_normal((channels, k, k))
                got = conv2d_affine(kernel, 0.25, (channels, *plane), stride=stride, pad=pad)
                expected = loop_conv2d_affine(kernel, 0.25, (channels, *plane), stride=stride, pad=pad)
                assert got[0].shape == expected[0].shape
                assert got[0].tobytes() == expected[0].tobytes()
                assert got[1].tobytes() == expected[1].tobytes()


@pytest.mark.parametrize(
    "kernel_shape, in_shape, stride, pad, name",
    [
        ((1, 3, 3), (1, 5, 5), 0, 0, "stride"),
        ((1, 3, 3), (1, 5, 5), -1, 0, "stride"),
        ((1, 3, 3), (1, 5, 5), 1, -1, "pad"),
        ((1, 3, 3), (1, 1, 1), 1, 0, "in_shape"),
        ((1, 3, 3), (1, 5, 2), 1, 0, "in_shape"),
        ((3, 3), (1, 5, 5), 1, 0, "kernel"),
        ((2, 3, 3), (1, 5, 5), 1, 0, "kernel"),
    ],
)
def test_conv2d_affine_rejects_bad_arguments(kernel_shape, in_shape, stride, pad, name):
    with pytest.raises(ValueError, match=name):
        conv2d_affine(np.ones(kernel_shape), 0.0, in_shape, stride=stride, pad=pad)


def test_lenet5_dimensions_and_levels():
    dag = build_lenet5(seed=0)
    assert validate(dag).ok
    dims = dag.node_dims
    assert dag.input_dim == 784
    for c in range(6):
        assert dims[dag.labels[f"stage1.conv.{c}"]] == 784
        assert dims[dag.labels[f"stage1.pool.{c}.h"]] == 392
        assert dims[dag.labels[f"stage1.pool.{c}.v"]] == 196
    assert dims[dag.labels["stage1.concat"]] == 1176
    for c in range(16):
        assert dims[dag.labels[f"stage2.conv.{c}"]] == 100
        assert dims[dag.labels[f"stage2.pool.{c}.v"]] == 25
    assert dims[dag.labels["stage2.concat"]] == 400
    assert dims[dag.output_node] == 10

    lvl = levels(dag)
    probes = lenet5_probe_nodes(dag)
    for level, nodes in probes.items():
        assert {lvl[n] for n in nodes} == {level}
    x = np.random.default_rng(0).standard_normal(784)
    y, _ = forward(dag, x)
    assert y.shape == (10,)


def test_lenet5_pools_through_weightless_arcs():
    dag = build_lenet5(seed=0)
    weighted = [arc for arc in dag.arcs if arc.elem.weight is not None]
    assert len(weighted) == 25  # 6 + 16 convolution maps, 3 dense layers
    pooled = {dag.labels[f"stage{s}.pool.{c}.v"] for s, n in ((1, 6), (2, 16)) for c in range(n)}
    assert not {arc.dst for arc in weighted} & pooled


def _loop_window_order(w, bias, side):
    """Rows of a row-major side x side plane put in 2x2-window order,
    written out window by window."""
    rows = []
    for i in range(side // 2):
        for j in range(side // 2):
            for di in (0, 1):
                for dj in (0, 1):
                    rows.append((2 * i + di) * side + 2 * j + dj)
    return w[rows], bias[rows]


def _written_out_lenet5(seed):
    """LeNet-5 with each convolution stage written out on its own: the
    oracle for the shared stage helper."""
    rng = np.random.default_rng(seed)

    def kernels(n_out, n_in, k):
        return rng.standard_normal((n_out, n_in, k, k)) / np.sqrt(n_in * k * k)

    def dense(rows, cols):
        w = rng.standard_normal((rows, cols)) / np.sqrt(cols)
        return w, 0.1 * rng.standard_normal(rows)

    def pool_stage(b, src, side, label, labels):
        pool = PoolSpec(block=2, rectified=True)
        horiz = b.add_relay(src, Activation(pool, side * side))
        labels[label + ".h"] = horiz
        vert = b.add_relay(horiz, Activation(pool, side * side // 2))
        labels[label + ".v"] = vert
        return vert

    b = GraphBuilder(28 * 28)
    labels = {}
    act = relu_spec()
    k1 = kernels(6, 1, 5)
    bias1 = 0.1 * rng.standard_normal(6)
    stage1_out = []
    for c in range(6):
        w, bias = conv2d_affine(k1[c], bias1[c], (1, 28, 28), stride=1, pad=2)
        conv = b.add_relay(0, Affine(*_loop_window_order(w, bias, 28)))
        labels[f"stage1.conv.{c}"] = conv
        stage1_out.append(pool_stage(b, conv, 28, f"stage1.pool.{c}", labels))
    cat1 = b.add_node(ROLE_CONCAT)
    for nid in stage1_out:
        b.connect(nid, cat1, Identity(14 * 14))
    labels["stage1.concat"] = cat1
    k2 = kernels(16, 6, 5)
    bias2 = 0.1 * rng.standard_normal(16)
    stage2_out = []
    for c in range(16):
        w, bias = conv2d_affine(k2[c], bias2[c], (6, 14, 14), stride=1, pad=0)
        conv = b.add_relay(cat1, Affine(*_loop_window_order(w, bias, 10)))
        labels[f"stage2.conv.{c}"] = conv
        stage2_out.append(pool_stage(b, conv, 10, f"stage2.pool.{c}", labels))
    cat2 = b.add_node(ROLE_CONCAT)
    for nid in stage2_out:
        b.connect(nid, cat2, Identity(5 * 5))
    labels["stage2.concat"] = cat2
    w, bias = dense(120, 400)
    fc1 = b.add_relay(cat2, ActivationAffine(act, w, bias))
    w, bias = dense(84, 120)
    fc2 = b.add_relay(fc1, ActivationAffine(act, w, bias))
    w, bias = dense(10, 84)
    out = b.add_relay(fc2, Affine(w, bias))
    labels["logits"] = out
    return b.finish(out, labels)


def _same_array(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lenet5_equals_the_written_out_stages(seed):
    got, want = build_lenet5(seed=seed), _written_out_lenet5(seed)
    assert (got.input_dim, got.output_node) == (want.input_dim, want.output_node)
    assert got.nodes == want.nodes
    assert list(got.labels.items()) == list(want.labels.items())
    assert len(got.arcs) == len(want.arcs)
    for a, b in zip(got.arcs, want.arcs):
        assert (a.id, a.src, a.dst, a.elem.in_dim, a.elem.out_dim) == (b.id, b.src, b.dst, b.elem.in_dim, b.elem.out_dim)
        assert (a.elem.act, a.elem.spec, a.elem.dim) == (b.elem.act, b.elem.spec, b.elem.dim), a.id
        assert _same_array(a.elem.weight, b.elem.weight), a.id
        assert _same_array(a.elem.bias, b.elem.bias), a.id


def _row_major(window_ordered, side):
    """The side x side plane of a node held in 2x2-window order."""
    half = side // 2
    plane = np.empty((side, side))
    for i in range(half):
        for j in range(half):
            for k, (di, dj) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
                plane[2 * i + di, 2 * j + dj] = window_ordered[4 * (i * half + j) + k]
    return plane


def test_lenet5_pooling_matches_direct_2x2_maxlu():
    dag = build_lenet5(seed=1)
    draws = np.random.default_rng(1)  # build_lenet5(seed=1)'s kernels then biases, stage by stage
    x = np.random.default_rng(2).standard_normal(784)
    _, trace = forward(dag, x)
    planes = x.reshape(1, 28, 28)
    for stage, n_out, pad in ((1, 6, 2), (2, 16, 0)):
        n_in = len(planes)
        kernels = draws.standard_normal((n_out, n_in, 5, 5)) / np.sqrt(n_in * 25)
        biases = 0.1 * draws.standard_normal(n_out)
        padded = np.pad(planes, ((0, 0), (pad, pad), (pad, pad)))
        side, half = padded.shape[1] - 4, (padded.shape[1] - 4) // 2
        for c in range(n_out):
            conv = _row_major(trace[dag.labels[f"stage{stage}.conv.{c}"]], side)
            for r, s in np.ndindex(side, side):
                direct = np.sum(kernels[c] * padded[:, r : r + 5, s : s + 5]) + biases[c]
                assert abs(conv[r, s] - direct) <= 1e-12
            horiz = trace[dag.labels[f"stage{stage}.pool.{c}.h"]].reshape(half, half, 2)
            pooled = trace[dag.labels[f"stage{stage}.pool.{c}.v"]].reshape(half, half)
            for r, s in np.ndindex(half, half):
                block = conv[2 * r : 2 * r + 2, 2 * s : 2 * s + 2]
                assert list(horiz[r, s]) == [max(block[0].max(), 0.0), max(block[1].max(), 0.0)]
                assert pooled[r, s] == max(block.max(), 0.0)
        planes = trace[dag.labels[f"stage{stage}.concat"]].reshape(n_out, half, half)
