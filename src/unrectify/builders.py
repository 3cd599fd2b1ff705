"""Canned network constructors: stacks, fusion modules, residual blocks,
max-pool networks, and a LeNet-5 style convolutional graph.

Convolution layers are realized as explicit sparse-structured affine
matrices (unrolled taps), so every layer is an affine map plus activation
and the whole network stays inside the arc-element vocabulary.
"""
from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .basis import CpwlSpec, PoolSpec, relu_spec
from .elements import Activation, ActivationAffine, Affine, Identity, Linear
from .graph import (
    Dag,
    GraphBuilder,
    GraphConstructionError,
    ROLE_ADD,
    ROLE_CONCAT,
    series,
)

__all__ = [
    "identity_dag",
    "build_series_stack",
    "build_fusion_module",
    "build_fusion_stack",
    "build_resnet_module",
    "maxpool_as_relu_network",
    "build_demo_network",
    "build_lenet5",
    "lenet5_probe_nodes",
    "conv2d_affine",
]


def identity_dag(dim: int) -> Dag:
    """Single-node graph computing x -> x."""
    b = GraphBuilder(dim)
    return b.finish(0)


def build_series_stack(
    weights: Sequence[np.ndarray],
    biases: Optional[Sequence] = None,
    activation: Optional[CpwlSpec] = None,
) -> Dag:
    """Chain of activation(W x + b) layers applied in order."""
    if not weights:
        raise GraphConstructionError("a series stack needs at least one layer")
    act = activation if activation is not None else relu_spec()
    if biases is None:
        biases = [None] * len(weights)
    g = identity_dag(np.asarray(weights[0]).shape[1])
    for w, b in zip(weights, biases):
        g = series(g, ActivationAffine(act, w, b))
    return g


def _default_fuse(channel_dims: Sequence[int]) -> np.ndarray:
    if len(set(channel_dims)) != 1:
        raise GraphConstructionError(
            "default fusion weight needs equal channel dimensions; pass fuse_weight"
        )
    d = channel_dims[0]
    return np.hstack([np.eye(d)] * len(channel_dims))


def build_fusion_module(
    channel_weights: Sequence[np.ndarray],
    channel_biases: Optional[Sequence] = None,
    fuse_weight: Optional[np.ndarray] = None,
    activation: Optional[CpwlSpec] = None,
) -> Dag:
    """Channels activation(W_i x + b_i) concatenated then linearly fused.

    Labels mark each channel node (``channel0`` ...), the concatenation node
    (``concat``), and the fused output (``fusion``).
    """
    if not channel_weights:
        raise GraphConstructionError("a fusion module needs at least one channel")
    act = activation if activation is not None else relu_spec()
    if channel_biases is None:
        channel_biases = [None] * len(channel_weights)
    input_dim = np.asarray(channel_weights[0]).shape[1]

    b = GraphBuilder(input_dim)
    labels = {}
    channel_nodes = []
    for i, (w, bias) in enumerate(zip(channel_weights, channel_biases)):
        nid = b.add_relay(0, ActivationAffine(act, w, bias))
        channel_nodes.append(nid)
        labels[f"channel{i}"] = nid
    cat = b.add_node(ROLE_CONCAT)
    for nid in channel_nodes:
        b.connect(nid, cat, Identity(b.dim(nid)))
    labels["concat"] = cat
    fuse = fuse_weight if fuse_weight is not None else _default_fuse(
        [b.dim(n) for n in channel_nodes]
    )
    out = b.add_relay(cat, Linear(fuse))
    labels["fusion"] = out
    return b.finish(out, labels)


def build_fusion_stack(
    layer_weights: Sequence[tuple],
    mode: str = "probe",
    activation: Optional[CpwlSpec] = None,
) -> Dag:
    """Stack of two-channel fusion layers, fused by summation.

    ``layer_weights`` holds (w_top, b_top, w_bot, b_bot) per layer; each
    layer computes act(W_top u + b_top) + act(W_bot u + b_bot) of the
    previous layer's output u.

    ``probe`` mode materializes top/bottom channel nodes and sums them
    through identity arcs, labelling ``layer{j}.top|bottom|fusion`` so the
    per-channel partitions can be probed.  ``compact`` mode feeds both
    channel arcs straight into the summation node (one node per layer),
    which is the form whose per-level weight-norm sums are meaningful for
    stability certification.
    """
    if mode not in ("probe", "compact"):
        raise GraphConstructionError(f"unknown fusion stack mode {mode!r}")
    if not layer_weights:
        raise GraphConstructionError("a fusion stack needs at least one layer")
    act = activation if activation is not None else relu_spec()
    input_dim = np.asarray(layer_weights[0][0]).shape[1]

    b = GraphBuilder(input_dim)
    labels = {}
    cur = 0
    for j, (w_top, b_top, w_bot, b_bot) in enumerate(layer_weights, start=1):
        top_elem = ActivationAffine(act, w_top, b_top)
        bot_elem = ActivationAffine(act, w_bot, b_bot)
        if mode == "probe":
            top = b.add_relay(cur, top_elem)
            bot = b.add_relay(cur, bot_elem)
            fused = b.add_node(ROLE_ADD)
            b.connect(top, fused, Identity(b.dim(top)))
            b.connect(bot, fused, Identity(b.dim(bot)))
            labels[f"layer{j}.top"] = top
            labels[f"layer{j}.bottom"] = bot
        else:
            fused = b.add_node(ROLE_ADD)
            b.connect(cur, fused, top_elem)
            b.connect(cur, fused, bot_elem)
        labels[f"layer{j}.fusion"] = fused
        cur = fused
    return b.finish(cur, labels)


def build_resnet_module(
    w1: np.ndarray,
    w2: np.ndarray,
    b1=None,
    b2=None,
    activation: Optional[CpwlSpec] = None,
    outer_activation: bool = True,
) -> Dag:
    """Residual block: x plus a negated two-layer branch, optionally rectified.

    Computes act(x - (W2 act(W1 x + b1) + b2)) with the direct link carried
    by an identity arc into a summation node.  With ``outer_activation``
    False the summation node is the output, which is the form whose last
    level decides the weight-norm stability condition.
    """
    act = activation if activation is not None else relu_spec()
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    n = w1.shape[1]
    if w2.shape != (n, w1.shape[0]):
        raise GraphConstructionError(
            f"branch weights do not compose: {w1.shape} then {w2.shape}"
        )
    b2vec = np.zeros(n) if b2 is None else np.asarray(b2, dtype=float)

    b = GraphBuilder(n)
    branch = b.add_relay(0, ActivationAffine(act, w1, b1))
    total = b.add_node(ROLE_ADD)
    b.connect(0, total, Identity(n))
    b.connect(branch, total, Affine(-w2, -b2vec))
    labels = {"branch": branch, "sum": total}
    out = total
    if outer_activation:
        out = b.add_relay(total, Activation(act, n))
        labels["output"] = out
    return b.finish(out, labels)


def _selection_row(dim: int, index: int) -> np.ndarray:
    row = np.zeros((1, dim))
    row[0, index] = 1.0
    return row


def _pair_max(b: GraphBuilder, left: int, right: int) -> int:
    """Max of two scalar nodes: mean plus half the rectified differences."""
    cat = b.add_node(ROLE_CONCAT)
    b.connect(left, cat, Identity(1))
    b.connect(right, cat, Identity(1))
    avg = b.add_relay(cat, Linear([[0.5, 0.5]]))
    rect = b.add_relay(cat, ActivationAffine(relu_spec(), [[1.0, -1.0], [-1.0, 1.0]]))
    ravg = b.add_relay(rect, Linear([[0.5, 0.5]]))
    total = b.add_node(ROLE_ADD)
    b.connect(avg, total, Identity(1))
    b.connect(ravg, total, Identity(1))
    return total


def _max_of(b: GraphBuilder, coords: Sequence[int], dim: int) -> int:
    if len(coords) == 1:
        return b.add_relay(0, Linear(_selection_row(dim, coords[0])))
    if len(coords) % 2 == 0:
        half = len(coords) // 2
        left = _max_of(b, coords[:half], dim)
        right = _max_of(b, coords[half:], dim)
    else:
        left = _max_of(b, coords[:-1], dim)
        right = _max_of(b, coords[-1:], dim)
    return _pair_max(b, left, right)


def maxpool_as_relu_network(block: int) -> Dag:
    """Block max as a graph of affine maps and rectifier activations.

    Built recursively from the two-entry network max(u, v) =
    (u + v)/2 + (relu(u - v) + relu(v - u))/2; even block sizes split in
    half, odd sizes peel off the last coordinate.
    """
    if block < 2:
        raise GraphConstructionError(f"max-pool network needs block >= 2, got {block}")
    b = GraphBuilder(block)
    out = _max_of(b, list(range(block)), block)
    return b.finish(out)


def build_demo_network(seed: int = 0, dim: int = 3) -> Dag:
    """Small 12-node branching graph used in docs and tests.

    One chain of four rectified affine arcs, three extra level-1 branches,
    and three concatenation joins.  Labels: ``a`` (end of the chain, level
    4), ``b`` (level 3), ``c`` (level 1).
    """
    rng = np.random.default_rng(seed)
    act = relu_spec()

    def rmat(rows, cols):
        return rng.standard_normal((rows, cols))

    def ract(rows, cols):
        return ActivationAffine(act, rmat(rows, cols), rng.standard_normal(rows))

    b = GraphBuilder(dim)
    n1 = b.add_relay(0, ract(dim, dim))
    n2 = b.add_relay(n1, ract(dim, dim))
    n3 = b.add_relay(n2, ract(dim, dim))
    n4 = b.add_relay(n3, ract(dim, dim))
    n5 = b.add_relay(0, ract(dim, dim))
    n6 = b.add_relay(0, ract(dim, dim))
    n7 = b.add_relay(0, ract(dim, dim))
    n8 = b.add_node(ROLE_CONCAT)
    b.connect(n3, n8, ract(dim, dim))
    b.connect(n5, n8, ract(dim, dim))
    b.connect(n6, n8, ract(dim, dim))
    n9 = b.add_relay(n4, ract(dim, dim))
    n10 = b.add_node(ROLE_CONCAT)
    b.connect(n8, n10, ract(dim, 3 * dim))
    b.connect(n7, n10, ract(dim, dim))
    n11 = b.add_node(ROLE_CONCAT)
    b.connect(n9, n11, Identity(dim))
    b.connect(n10, n11, ract(dim, 2 * dim))
    return b.finish(n11, {"a": n4, "b": n3, "c": n1})


def conv2d_affine(
    kernel: np.ndarray,
    bias: float,
    in_shape: tuple[int, int, int],
    stride: int = 1,
    pad: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Unroll one output channel of a 2-D convolution into an affine map.

    ``kernel`` has shape (in_channels, k, k); the input vector is laid out
    channel-major, row-major within each channel.  Zero padding.  Returns
    (weight, bias_vector) mapping the flat input to the flat output plane.
    """
    kernel = np.asarray(kernel)
    if kernel.ndim != 3:
        raise ValueError(f"kernel must be 3-D (in_channels, kh, kw), got shape {kernel.shape}")
    for name, value, least in (("stride", stride, 1), ("pad", pad, 0)):
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    in_ch, in_h, in_w = in_shape
    kc, kh, kw = kernel.shape
    if kc != in_ch:
        raise ValueError(f"kernel expects {kc} channels, input has {in_ch}")
    out_h = (in_h + 2 * pad - kh) // stride + 1
    out_w = (in_w + 2 * pad - kw) // stride + 1
    if out_h < 1 or out_w < 1:
        raise ValueError(f"kernel {kh}x{kw} does not fit in_shape {in_shape} padded by {pad}")
    weight = np.zeros((out_h * out_w, in_ch * in_h * in_w))
    # one tap per (output row, output column, channel, kernel row, kernel column)
    shape = (out_h, out_w, in_ch, kh, kw)
    i, j, ci, u, v = np.ix_(*map(np.arange, shape))
    ii, jj = i * stride - pad + u, j * stride - pad + v
    inside = np.broadcast_to((ii >= 0) & (ii < in_h) & (jj >= 0) & (jj < in_w), shape)
    rows = np.broadcast_to(i * out_w + j, shape)[inside]
    cols = np.broadcast_to(ci * in_h * in_w + ii * in_w + jj, shape)[inside]
    weight[rows, cols] = np.broadcast_to(kernel[ci, u, v], shape)[inside]
    return weight, np.full(out_h * out_w, float(bias))


def _conv_stage(b: GraphBuilder, rng, src: int, in_shape, n_out: int, pad: int, name: str, labels: dict) -> int:
    """``n_out`` seeded 5x5 stride-1 convolution channels of the ``in_shape``
    planes at ``src``, each max-pooled 2x2 by two rectified block-2 pools,
    concatenated; returns the concatenation node.

    A ``{name}.conv.{c}`` node holds its side x side plane in 2x2-window
    order: window (i, j) of the row-major (side/2) x (side/2) grid of windows
    takes the four entries from 4*(i*side/2 + j), pixels (2i, 2j), (2i, 2j+1),
    (2i+1, 2j), (2i+1, 2j+1).  So ``{name}.pool.{c}.h`` holds each window's
    top-row then bottom-row maximum, and ``{name}.pool.{c}.v`` the pooled
    plane, row-major."""
    n_in, height, _ = in_shape
    kernels = rng.standard_normal((n_out, n_in, 5, 5)) / np.sqrt(n_in * 25)
    biases = 0.1 * rng.standard_normal(n_out)
    side = height + 2 * pad - 4  # output planes are side x side
    half = side // 2
    window_order = np.arange(side * side).reshape(half, 2, half, 2).transpose(0, 2, 1, 3).ravel()
    pool = PoolSpec(block=2, rectified=True)
    pooled = []
    for c in range(n_out):
        w, bias = conv2d_affine(kernels[c], biases[c], in_shape, pad=pad)
        conv = labels[f"{name}.conv.{c}"] = b.add_relay(src, Affine(w[window_order], bias[window_order]))
        horiz = labels[f"{name}.pool.{c}.h"] = b.add_relay(conv, Activation(pool, side * side))
        vert = labels[f"{name}.pool.{c}.v"] = b.add_relay(horiz, Activation(pool, side * half))
        pooled.append(vert)
    cat = b.add_node(ROLE_CONCAT)
    for nid in pooled:
        b.connect(nid, cat, Identity(half * half))
    labels[f"{name}.concat"] = cat
    return cat


def build_lenet5(seed: int = 0) -> Dag:
    """LeNet-5 shaped graph with seeded random weights.

    28x28 input; six 5x5 stride-1 pad-2 convolution channels, rectified 2x2
    pooling down to 14x14, concatenation, sixteen 5x5 pad-0 convolution
    channels, pooling to 5x5, concatenation, then 400-120-84-10 dense layers
    with rectifier activations between them.  Weights are random (scaled
    standard normal); the partition structure under study is architectural,
    so no training is involved.
    """
    rng = np.random.default_rng(seed)

    def dense(rows, cols):
        w = rng.standard_normal((rows, cols)) / np.sqrt(cols)
        return w, 0.1 * rng.standard_normal(rows)

    b = GraphBuilder(28 * 28)
    labels: dict = {}
    act = relu_spec()
    cat1 = _conv_stage(b, rng, 0, (1, 28, 28), 6, 2, "stage1", labels)
    cat2 = _conv_stage(b, rng, cat1, (6, 14, 14), 16, 0, "stage2", labels)

    w, bias = dense(120, 400)
    fc1 = b.add_relay(cat2, ActivationAffine(act, w, bias))
    w, bias = dense(84, 120)
    fc2 = b.add_relay(fc1, ActivationAffine(act, w, bias))
    w, bias = dense(10, 84)
    out = b.add_relay(fc2, Affine(w, bias))
    labels["logits"] = out
    return b.finish(out, labels)


def lenet5_probe_nodes(dag: Dag) -> dict[int, list[int]]:
    """Probe nodes by level: 3 and 7 are the per-channel pooled planes,
    4 and 8 the concatenations that fuse them."""
    probes = {
        3: [dag.labels[f"stage1.pool.{c}.v"] for c in range(6)],
        4: [dag.labels["stage1.concat"]],
        7: [dag.labels[f"stage2.pool.{c}.v"] for c in range(16)],
        8: [dag.labels["stage2.concat"]],
    }
    return probes
