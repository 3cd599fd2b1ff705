import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import PAIR_SWEEP_MODES, pair_sweep_sets, random_valid_dag, set_pair_sweep_mode
from unrectify import graph, partition
from unrectify import (
    Activation,
    ActivationAffine,
    CpwlSpec,
    NotPiecewiseAffineError,
    PartitionStats,
    PoolSpec,
    Transform,
    TransformAffine,
    TransformSpec,
    affine_piece,
    build_demo_network,
    build_fusion_module,
    build_fusion_stack,
    build_lenet5,
    build_series_stack,
    check_refinement,
    computable_subgraph,
    count_regions_2d,
    forward,
    forward_batch,
    fusion_partition_bound,
    hard_tanh_spec,
    identity_dag,
    lenet5_probe_nodes,
    partition_stats,
    relu_spec,
    series,
)
from unrectify.basis import cpwl_slope_offset, pool_ids
from unrectify.graph import propagate
from unrectify.partition import (
    _arc_pattern,
    _pattern_arcs,
    _region_labels,
    max_pairwise_distance,
    region_code,
)


def relu_layer(dim):
    return series(identity_dag(dim), Activation(relu_spec(), dim))


def test_region_code_single_relu_arc():
    code = region_code(relu_layer(2), 1, np.array([-1.0, 2.0]))
    assert code.segments == ((0, 1),)


def test_equal_codes_within_quadrant():
    net = relu_layer(3)
    a = region_code(net, 1, np.array([1.0, -2.0, 3.0]))
    b = region_code(net, 1, np.array([0.5, -0.1, 7.0]))
    assert a == b


def test_two_layer_tree_codes():
    net = series(relu_layer(2), ActivationAffine(relu_spec(), [[1.0, 1.0]], [-1.0]))
    xs = np.array(
        [[x, y] for x in np.linspace(-3, 3, 41) for y in np.linspace(-3, 3, 41)]
    )
    seen = {region_code(net, net.output_node, x).segments for x in xs}
    expected = {
        ((1, 1), (1,)),
        ((1, 1), (0,)),
        ((1, 0), (1,)),
        ((1, 0), (0,)),
        ((0, 1), (1,)),
        ((0, 1), (0,)),
        ((0, 0), (0,)),
    }
    assert seen == expected


def _is_subsequence(short, long):
    it = iter(long)
    return all(any(item == other for other in it) for item in short)


def test_nested_codes_are_subsequences():
    demo = build_demo_network()
    x = np.random.default_rng(0).standard_normal(3)
    outer = region_code(demo, demo.labels["a"], x)
    inner = region_code(demo, demo.labels["c"], x)
    assert _is_subsequence(inner.arc_ids, outer.arc_ids)
    paired_outer = list(zip(outer.arc_ids, outer.segments))
    paired_inner = list(zip(inner.arc_ids, inner.segments))
    assert _is_subsequence(paired_inner, paired_outer)


def test_affine_piece_identity():
    g = identity_dag(3)
    piece = affine_piece(g, 0, np.zeros(3))
    assert np.array_equal(piece.weight, np.eye(3))
    assert np.array_equal(piece.bias, np.zeros(3))


def test_affine_piece_fully_active_layer():
    rng = np.random.default_rng(1)
    w = rng.standard_normal((3, 3))
    b = rng.standard_normal(3)
    net = series(identity_dag(3), ActivationAffine(relu_spec(), w, b))
    x = np.linalg.solve(w, np.ones(3) * 5 - b)  # pre-activations all positive
    piece = affine_piece(net, net.output_node, x)
    assert np.abs(piece.weight - w).max() <= 1e-12
    assert np.abs(piece.bias - b).max() <= 1e-12


def test_affine_piece_matches_forward_on_shared_region():
    rng = np.random.default_rng(2)
    mats = rng.standard_normal((2, 4, 4))
    net = build_fusion_module(list(mats), [rng.standard_normal(4) for _ in range(2)])
    net = series(net, ActivationAffine(relu_spec(), rng.standard_normal((3, 4))))
    x = rng.standard_normal(4)
    piece = affine_piece(net, net.output_node, x)
    base = region_code(net, net.output_node, x)
    found = 0
    while found < 50:
        x2 = x + rng.standard_normal(4) * 1e-3
        if region_code(net, net.output_node, x2) == base:
            y, _ = forward(net, x2)
            assert np.abs(piece.apply(x2) - y).max() <= 1e-9
            found += 1


def test_affine_piece_with_pool():
    net = series(identity_dag(4), Activation(PoolSpec(2, rectified=True), 4))
    x = np.array([3.0, 1.0, -1.0, -2.0])
    piece = affine_piece(net, net.output_node, x)
    y, _ = forward(net, x)
    assert np.array_equal(piece.apply(x), y)
    assert np.array_equal(piece.weight, np.array([[1.0, 0, 0, 0], [0, 0, 0, 0]]))


def test_affine_piece_through_pooled_affine_arc():
    rng = np.random.default_rng(13)
    w = rng.standard_normal((6, 4))
    net = series(identity_dag(4), ActivationAffine(PoolSpec(2, rectified=True), w))
    for x in rng.standard_normal((20, 4)):
        piece = affine_piece(net, net.output_node, x)
        y, _ = forward(net, x)
        assert np.abs(piece.apply(x) - y).max() <= 1e-12


def test_affine_piece_rejects_transforms():
    net = series(identity_dag(3), Transform(TransformSpec("softmax"), 3))
    with pytest.raises(NotPiecewiseAffineError):
        affine_piece(net, net.output_node, np.zeros(3))


def test_code_piece_consistency_random_networks():
    rng = np.random.default_rng(3)
    for _ in range(5):
        dag = random_valid_dag(rng)
        xs = rng.standard_normal((200, dag.input_dim))
        ys, trace = forward_batch(dag, xs)
        codes = [region_code(dag, dag.output_node, x).segments for x in xs]
        by_code = {}
        for i, c in enumerate(codes):
            by_code.setdefault(c, []).append(i)
        for members in by_code.values():
            piece = affine_piece(dag, dag.output_node, xs[members[0]])
            for i in members:
                assert np.abs(piece.apply(xs[i]) - ys[i]).max() <= 1e-9
        out = dag.output_node
        assert partition_stats(dag, out, xs).region_count == len(by_code)
        assert check_refinement(dag, out, out, xs).fine_region_count == len(by_code)


def test_check_refinement_demo_graph():
    demo = build_demo_network()
    xs = np.random.default_rng(4).standard_normal((10_000, 3))
    report = check_refinement(demo, demo.labels["a"], demo.labels["c"], xs)
    assert report.ok
    assert report.sample_count == 10_000
    assert report.fine_region_count >= report.coarse_region_count


def test_check_refinement_same_node_trivial():
    demo = build_demo_network()
    xs = np.random.default_rng(5).standard_normal((100, 3))
    assert check_refinement(demo, demo.labels["a"], demo.labels["a"], xs).ok


def test_check_refinement_requires_subgraph_membership():
    demo = build_demo_network()
    xs = np.zeros((2, 3))
    with pytest.raises(ValueError):
        check_refinement(demo, demo.labels["a"], 5, xs)


def test_fusion_stack_consecutive_layers_refine():
    rng = np.random.default_rng(6)
    layer_w = [
        (
            rng.standard_normal((6, 6)),
            rng.standard_normal(6),
            rng.standard_normal((6, 6)),
            rng.standard_normal(6),
        )
        for _ in range(3)
    ]
    dag = build_fusion_stack(layer_w, mode="probe")
    xs = rng.standard_normal((1000, 6))
    for j in (1, 2):
        rep = check_refinement(
            dag, dag.labels[f"layer{j + 1}.fusion"], dag.labels[f"layer{j}.fusion"], xs
        )
        assert rep.ok
    for channel in ("top", "bottom"):
        rep = check_refinement(
            dag, dag.labels["layer1.fusion"], dag.labels[f"layer1.{channel}"], xs
        )
        assert rep.ok


def test_partition_stats_single_orthant():
    net = relu_layer(3)
    xs = np.abs(np.random.default_rng(7).standard_normal((50, 3)))
    stats = partition_stats(net, 1, xs)
    assert stats.region_count == 1
    assert stats.max_points_per_region == 50
    assert stats.multi_member_point_count == 50


def test_partition_stats_accounting():
    net = relu_layer(1)
    xs = np.array([[-2.0], [-1.0], [3.0]])
    stats = partition_stats(net, 1, xs)
    assert stats.region_count == 2
    assert stats.max_points_per_region == 2
    assert stats.multi_member_point_count == 2
    assert stats.max_intra_region_distance == 1.0


def test_partition_stats_subsample_flag():
    net = relu_layer(2)
    xs = np.abs(np.random.default_rng(8).standard_normal((200, 2)))
    exact = partition_stats(net, 1, xs, pair_cap=None)
    capped = partition_stats(net, 1, xs, pair_cap=100)
    assert not exact.distance_pairs_subsampled
    assert capped.distance_pairs_subsampled
    assert capped.max_intra_region_distance <= exact.max_intra_region_distance + 1e-12


def test_max_pairwise_distance_exact_blocked():
    rng = np.random.default_rng(9)
    pts = rng.standard_normal((500, 3))
    got, flagged = max_pairwise_distance(pts, pair_cap=None)
    brute = max(
        np.linalg.norm(pts[i] - pts[j]) for i in range(120) for j in range(120) if i < j
    )
    assert not flagged
    full = max(np.linalg.norm(p - q) for p in pts for q in pts)
    assert abs(got - full) <= 1e-9
    assert got >= brute


def test_max_pairwise_distance_tight_cluster_far_from_origin():
    rng = np.random.default_rng(23)
    pts = rng.standard_normal(784) + 1e-6 * rng.standard_normal((50, 784))
    got, flagged = max_pairwise_distance(pts, pair_cap=None)
    brute = max(np.linalg.norm(p - q) for p in pts for q in pts)
    assert not flagged
    assert abs(got - brute) <= 1e-9 * brute


@pytest.mark.parametrize("points", sorted(pair_sweep_sets()))
def test_max_pairwise_distance_equals_brute_force(monkeypatch, points):
    pts, _ = pair_sweep_sets()[points]
    i, j = np.triu_indices(len(pts), 1)
    brute = float(np.linalg.norm(pts[j] - pts[i], axis=1).max())
    for mode in PAIR_SWEEP_MODES:
        set_pair_sweep_mode(monkeypatch, *mode)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert max_pairwise_distance(pts, pair_cap=None) == (brute, False), mode


def test_max_pairwise_distance_near_ties_equal_brute_force():
    # scaled basis points are all about sqrt(2) apart, within 1e-13 of each
    # other, so the screen's rounding can rank a runner-up first; the
    # recheck must still find the largest
    rng = np.random.default_rng(24)
    for _ in range(200):
        k = int(rng.integers(20, 60))
        pts = np.diag(1.0 + 1e-13 * rng.random(k)) + 1e-3 * rng.standard_normal(k)
        i, j = np.triu_indices(k, 1)
        brute = float(np.linalg.norm(pts[j] - pts[i], axis=1).max())
        assert max_pairwise_distance(pts, pair_cap=None) == (brute, False)


@pytest.mark.parametrize("row", [0, 1, 2])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_max_pairwise_distance_rejects_non_finite_points(row, value):
    # the finite pair is 5 apart; a NaN used to drop out of the maximum
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 4.0]])
    pts[row, 0] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="points must be finite"):
            max_pairwise_distance(pts, pair_cap=None)


def sampled_loop_distance(pts, cap, seed):
    """The seeded pair sample of the distance sweep as a standalone loop:
    ``cap`` draws (i, j) in rounds of 2^17, i drawn before j, pairs with
    i == j skipped."""
    rng = np.random.default_rng(seed)
    best, remaining = 0.0, cap
    while remaining > 0:
        take = min(1 << 17, remaining)
        i = rng.integers(0, len(pts), size=take)
        j = rng.integers(0, len(pts), size=take)
        mask = i != j
        if mask.any():
            best = max(best, float(np.linalg.norm(pts[i[mask]] - pts[j[mask]], axis=1).max()))
        remaining -= take
    return best, True


@pytest.mark.parametrize("cap", [1, 100, 5000, (1 << 17) - 1, 1 << 17])
def test_max_pairwise_distance_sample_equals_seeded_loop(cap):
    # 600 points give 179,700 pairs, more than every cap
    pts = np.random.default_rng(25).standard_normal((600, 4))
    for seed in (0, 3):
        assert max_pairwise_distance(pts, pair_cap=cap, seed=seed) == sampled_loop_distance(
            pts, cap, seed
        )


def test_trace_of_other_samples_is_rejected():
    rng = np.random.default_rng(26)
    dag = build_fusion_module([rng.standard_normal((2, 2)), rng.standard_normal((2, 2))])
    xs = rng.standard_normal((50, 2))
    fine, coarse = dag.output_node, dag.labels["channel0"]
    _, other = forward_batch(dag, rng.standard_normal((50, 2)))
    _, short = forward_batch(dag, xs[:40])
    for trace in (other, short):
        with pytest.raises(ValueError, match="other samples"):
            partition_stats(dag, fine, xs, trace=trace)
        with pytest.raises(ValueError, match="other samples"):
            check_refinement(dag, fine, coarse, xs, trace=trace)
    _, own = forward_batch(dag, xs)
    assert partition_stats(dag, fine, xs, trace=own) == partition_stats(dag, fine, xs)
    assert check_refinement(dag, fine, coarse, xs, trace=own).ok


def test_monotone_stats_along_fusion_layers():
    rng = np.random.default_rng(10)
    layer_w = [
        (
            rng.standard_normal((5, 5)),
            rng.standard_normal(5),
            rng.standard_normal((5, 5)),
            rng.standard_normal(5),
        )
        for _ in range(3)
    ]
    dag = build_fusion_stack(layer_w, mode="probe")
    xs = rng.standard_normal((800, 5))
    _, trace = forward_batch(dag, xs)
    stats = [
        partition_stats(dag, dag.labels[f"layer{j}.fusion"], xs, trace=trace)
        for j in (1, 2, 3)
    ]
    for earlier, later in zip(stats, stats[1:]):
        assert later.region_count >= earlier.region_count
        assert later.max_intra_region_distance <= earlier.max_intra_region_distance
        assert later.max_points_per_region <= earlier.max_points_per_region


def test_count_regions_2d_canonical_cases():
    relu_net = relu_layer(2)
    max2 = series(identity_dag(2), Activation(PoolSpec(2, rectified=False), 2))
    maxlu = series(identity_dag(2), Activation(PoolSpec(2, rectified=True), 2))
    assert count_regions_2d(relu_net, grid_n=201) == 4
    assert count_regions_2d(max2, grid_n=201) == 2
    assert count_regions_2d(maxlu, grid_n=201) == 3
    assert count_regions_2d(relu_net, grid_n=401) == 4


def test_count_regions_2d_fusion_example():
    m1 = np.array([[1.0, 0.0], [0.0, 1.0]])
    m2 = np.array([[1.0, 1.0], [1.0, -1.0]])
    fusion = build_fusion_module([m1, m2])
    count = count_regions_2d(fusion, grid_n=301)
    ch0 = count_regions_2d(fusion, grid_n=301, node_id=fusion.labels["channel0"])
    ch1 = count_regions_2d(fusion, grid_n=301, node_id=fusion.labels["channel1"])
    assert count == 8
    assert ch0 == 4 and ch1 == 4
    assert count >= max(ch0, ch1)
    assert count <= fusion_partition_bound([ch0, ch1])


def test_count_regions_2d_random_fusions_respect_bound():
    rng = np.random.default_rng(12)
    for _ in range(10):
        fusion = build_fusion_module(
            [rng.standard_normal((2, 2)), rng.standard_normal((2, 2))]
        )
        total = count_regions_2d(fusion, grid_n=201)
        ch = [
            count_regions_2d(fusion, grid_n=201, node_id=fusion.labels[f"channel{i}"])
            for i in (0, 1)
        ]
        assert total <= fusion_partition_bound(ch)
        assert total >= max(ch)


def _lattice(box, grid_n):
    axis = np.linspace(box[0], box[1], grid_n)
    return np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)


def test_count_regions_2d_nine_rectifiers():
    # nine binary pattern entries: the alphabet no longer fits a uint8 radix
    rng = np.random.default_rng(21)
    w = rng.standard_normal((9, 2))
    b = rng.standard_normal(9)
    net = series(identity_dag(2), ActivationAffine(relu_spec(), w, b))
    signs = _lattice((-5.0, 5.0), 201) @ w.T + b > 0
    assert count_regions_2d(net, grid_n=201) == len(np.unique(signs, axis=0))


def test_region_labels_wide_alphabets_match_codes(monkeypatch):
    rng = np.random.default_rng(22)
    knots = np.linspace(-3.0, 3.0, 45)
    many_knots = CpwlSpec(right_pieces=[(0.1, k) for k in knots])
    nets = [
        # piece ids up to 2^45, far above the sample count
        series(identity_dag(2), ActivationAffine(many_knots, rng.standard_normal((3, 2)))),
        # 70 binary entries: the fold must renumber before passing 2^62
        series(identity_dag(2), ActivationAffine(relu_spec(), rng.standard_normal((70, 2)))),
    ]
    box, grid_n = (-4.0, 4.0), 41
    pts = _lattice(box, grid_n)
    monkeypatch.setattr(partition, "ROW_BLOCK", 8)
    for net in nets:
        codes = {region_code(net, net.output_node, x).segments for x in pts}
        assert len(codes) > 100
        assert partition_stats(net, net.output_node, pts).region_count == len(codes)
        assert count_regions_2d(net, box=box, grid_n=grid_n) == len(codes)


def _refinement_cases():
    rng = np.random.default_rng(23)

    def layer(g, act, n_out):
        w = rng.standard_normal((n_out, g.output_dim))
        return series(g, ActivationAffine(act, w, rng.standard_normal(n_out)))

    base = identity_dag(2)
    for lines in (3, 8, 25):
        yield layer(base, relu_spec(), lines)
    for _ in range(2):
        yield layer(layer(base, relu_spec(), 6), relu_spec(), 4)
    for rectified in (True, False):
        yield layer(base, PoolSpec(3, rectified=rectified), 9)
    for _ in range(2):
        yield build_fusion_module([rng.standard_normal((2, 2)), rng.standard_normal((2, 2))])


def test_count_regions_2d_equals_full_lattice_labels(monkeypatch):
    # cell refinement must count exactly the distinct codes of every lattice point
    for net in _refinement_cases():
        for box, grid_n in (((-5.0, 5.0), 101), ((-3.0, 4.0), 257)):
            expected = _region_labels(net, net.output_node, _lattice(box, grid_n))[1]
            for row_block in (1, 16, 128, grid_n + 43):
                monkeypatch.setattr(partition, "ROW_BLOCK", row_block)
                got = count_regions_2d(net, box=box, grid_n=grid_n)
                assert got == expected, (box, grid_n, row_block)


def test_count_regions_2d_labels_every_point_through_transforms(monkeypatch):
    # relu(tanh(x0 - 2) - tanh(x0 + 2) + 1) is active only near both ends of
    # the x0 range: one code on two pieces, whose corners all agree
    squash = TransformAffine(TransformSpec("tanh"), np.array([[1.0, 0.0], [1.0, 0.0]]), [-2.0, 2.0])
    gap = ActivationAffine(relu_spec(), np.array([[1.0, -1.0]]), np.array([1.0]))
    net = series(series(identity_dag(2), squash), gap)
    monkeypatch.setattr(partition, "ROW_BLOCK", 40)
    assert count_regions_2d(net, grid_n=41) == 2


def test_count_regions_2d_smallest_grids(monkeypatch):
    assert count_regions_2d(relu_layer(2), grid_n=1) == 1
    assert count_regions_2d(relu_layer(2), grid_n=2) == 4
    monkeypatch.setattr(partition, "ROW_BLOCK", 1)
    assert count_regions_2d(relu_layer(2), grid_n=2) == 4


def _seeded_layer(seed=1, units=8):
    rng = np.random.default_rng(seed)
    w, b = rng.standard_normal((units, 2)), rng.standard_normal(units)
    return series(identity_dag(2), ActivationAffine(relu_spec(), w, b))


def test_count_regions_2d_refines_the_whole_lattice_in_few_calls(monkeypatch):
    # one bisection over the whole lattice, not one per strip of ROW_BLOCK
    # rows: the strip walk made 129 labelling calls on this layer
    net = _seeded_layer()
    calls = []

    def counted(dag, node, xs, trace=None):
        calls.append(len(xs))
        return _region_labels(dag, node, xs, trace=trace)

    monkeypatch.setattr(partition, "_region_labels", counted)
    assert count_regions_2d(net, grid_n=2001) == 36  # as the strip walk counted
    assert len(calls) <= 64
    # each call but the last labels the distinct corners of one cell batch
    assert max(calls[:-1]) <= 4 * partition._CELL_BATCH


def test_count_regions_2d_memory_stays_bounded_by_the_cell_batch():
    net = _seeded_layer()
    count_regions_2d(net, grid_n=101)  # warm the code paths outside the measure
    tracemalloc.start()
    try:
        count_regions_2d(net, grid_n=2001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


@pytest.mark.parametrize("cell_batch", [1, 5])
def test_count_regions_2d_small_cell_batches_count_the_full_lattice(monkeypatch, cell_batch):
    monkeypatch.setattr(partition, "_CELL_BATCH", cell_batch)
    box, grid_n = (-5.0, 5.0), 101
    for net in _refinement_cases():
        expected = _region_labels(net, net.output_node, _lattice(box, grid_n))[1]
        assert count_regions_2d(net, box=box, grid_n=grid_n) == expected


@pytest.mark.parametrize(
    "box, message",
    [
        ((0.0, np.inf), "box bounds must be finite"),
        ((-np.inf, 1.0), "box bounds must be finite"),
        ((np.nan, 1.0), "box bounds must be finite"),
        ((1.0,), "box must be two numbers"),
        ((0.0, 1.0, 2.0), "box must be two numbers"),
        (5.0, "box must be two numbers"),
        (("a", 1.0), "box must be two numbers"),
        (None, "box must be two numbers"),
    ],
)
def test_count_regions_2d_rejects_a_bad_box(box, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            count_regions_2d(relu_layer(2), box=box, grid_n=11)


def test_count_regions_2d_takes_any_two_finite_numbers_as_box():
    net = relu_layer(2)
    assert count_regions_2d(net, box=np.array([-1.0, 2.0]), grid_n=11) == 4
    assert count_regions_2d(net, box=[3, -2], grid_n=11) == 4
    assert count_regions_2d(net, box=(1.0, 2.0), grid_n=11) == 1


def test_count_regions_2d_requires_2d():
    with pytest.raises(ValueError):
        count_regions_2d(relu_layer(3))


@pytest.mark.parametrize("name", ["grid_n"])
@pytest.mark.parametrize("value", [0, -3])
def test_count_regions_2d_rejects_empty_grid_arguments(name, value):
    with pytest.raises(ValueError, match=f"{name} must be at least 1, got {value}"):
        count_regions_2d(relu_layer(2), **{name: value})


@pytest.mark.parametrize("bad", [99, -1])
def test_unknown_node_ids_are_rejected(bad):
    net = relu_layer(2)
    xs = np.array([[1.0, -1.0], [-2.0, 3.0]])
    calls = [
        lambda: region_code(net, bad, xs[0]),
        lambda: affine_piece(net, bad, xs[0]),
        lambda: partition_stats(net, bad, xs),
        lambda: check_refinement(net, bad, 0, xs),
        lambda: count_regions_2d(net, grid_n=5, node_id=bad),
        lambda: computable_subgraph(net, bad),
    ]
    message = f"node {bad} does not exist; node ids run from 0 to 1"
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


def test_fusion_partition_bound():
    assert fusion_partition_bound([4, 4]) == 16
    assert fusion_partition_bound([1, 7]) == 7
    with pytest.raises(ValueError):
        fusion_partition_bound([0, 3])


def test_duplication_arcs_contribute_nothing_to_codes():
    from unrectify import duplicate

    rng = np.random.default_rng(11)
    base = series(identity_dag(3), ActivationAffine(relu_spec(), rng.standard_normal((3, 3))))
    stacked = duplicate(base, 3)
    x = rng.standard_normal(3)
    assert (
        region_code(base, base.output_node, x).segments
        == region_code(stacked, stacked.output_node, x).segments
    )


def test_transform_arcs_contribute_nothing_to_codes():
    net = series(identity_dag(3), Transform(TransformSpec("softmax"), 3))
    code = region_code(net, net.output_node, np.zeros(3))
    assert code.segments == ()
    assert code.arc_ids == ()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_queries_evaluate_only_the_node_closure():
    from unrectify import Affine

    rng = np.random.default_rng(13)
    dag = series(identity_dag(2), ActivationAffine(relu_spec(), rng.standard_normal((3, 2))))
    inner = dag.output_node
    for _ in range(2):
        dag = series(dag, Affine(1e200 * np.eye(3)))
    sub = computable_subgraph(dag, inner)
    xs = rng.standard_normal((40, 2))
    with pytest.raises(ValueError, match="non-finite"):
        forward_batch(dag, xs)
    assert region_code(dag, inner, xs[0]) == region_code(sub, sub.output_node, xs[0])
    piece, expected = affine_piece(dag, inner, xs[0]), affine_piece(sub, sub.output_node, xs[0])
    assert np.array_equal(piece.weight, expected.weight)
    assert np.array_equal(piece.bias, expected.bias)
    assert partition_stats(dag, inner, xs) == partition_stats(sub, sub.output_node, xs)
    assert check_refinement(dag, inner, 0, xs) == check_refinement(sub, sub.output_node, 0, xs)
    assert count_regions_2d(dag, grid_n=21, node_id=inner) == count_regions_2d(sub, grid_n=21)


def per_column_labels(dag, node_id, xs):
    """The per-column fold that the per-arc codes replaced, kept as an
    oracle: every pattern column folded alone as ``labels * k + col``."""
    _, trace = forward_batch(dag, xs)
    n = len(xs)
    labels = np.zeros(n, dtype=np.int64)
    bound = 1
    for arc in _pattern_arcs(dag, node_id):
        for col in _arc_pattern(arc, trace[arc.src]).T:
            k = int(col.max(initial=0)) + 1
            if k > n:
                values, col = np.unique(col, return_inverse=True)
                k = len(values)
            if bound * k > 1 << 62:
                values, labels = np.unique(labels, return_inverse=True)
                bound = len(values)
            labels = labels * k + col
            bound *= k
    values, labels = np.unique(labels, return_inverse=True)
    return labels, len(values)


def _fold_cases():
    rng = np.random.default_rng(30)
    knots = np.linspace(-3.0, 3.0, 45)
    many_knots = CpwlSpec(right_pieces=[(0.1, k) for k in knots])
    base = identity_dag(2)
    # piece ids up to 2^45: one column per run, renumbered to fold
    yield series(base, ActivationAffine(many_knots, rng.standard_normal((3, 2))))
    # 70 binary columns: a run of 62 and a run of 8
    yield series(base, ActivationAffine(relu_spec(), rng.standard_normal((70, 2))))
    # 130: two full runs, so the second must be renumbered to fold
    yield series(base, ActivationAffine(relu_spec(), rng.standard_normal((130, 2))))
    # 40 pool columns of radix 3: a run of 31 and a run of 9
    yield series(base, ActivationAffine(PoolSpec(2), rng.standard_normal((80, 2))))
    yield series(base, ActivationAffine(hard_tanh_spec(), rng.standard_normal((20, 2))))
    yield from _refinement_cases()
    for _ in range(6):
        yield random_valid_dag(rng)


@pytest.mark.parametrize("n", [0, 1, 2, 300])
def test_arc_code_fold_equals_per_column_fold(n):
    rng = np.random.default_rng(31)
    for dag in _fold_cases():
        xs = rng.uniform(-4.0, 4.0, (n, dag.input_dim))
        for node in range(len(dag.nodes)):
            labels, count = _region_labels(dag, node, xs)
            expected, expected_count = per_column_labels(dag, node, xs)
            assert count == expected_count
            assert np.array_equal(labels, expected)


def test_one_trace_labels_every_node_in_any_order():
    rng = np.random.default_rng(32)
    for dag in _fold_cases():
        xs = rng.uniform(-4.0, 4.0, (200, dag.input_dim))
        _, trace = forward_batch(dag, xs)
        for node in rng.permutation(len(dag.nodes)).tolist():
            labels, count = _region_labels(dag, node, xs, trace=trace)
            expected, expected_count = per_column_labels(dag, node, xs)
            assert count == expected_count
            assert np.array_equal(labels, expected)
            assert partition_stats(dag, node, xs, trace=trace) == partition_stats(dag, node, xs)


def test_lenet5_probe_labels_equal_per_column_fold():
    dag = build_lenet5(seed=0)
    rng = np.random.default_rng(37)
    protos = rng.uniform(0.0, 1.0, (3, 784))
    images = np.repeat(protos, 10, axis=0)
    images[:, 300:310] += 1e-3 * rng.standard_normal((30, 10))
    _, trace = forward_batch(dag, images)
    probes = lenet5_probe_nodes(dag)
    for node in (probes[8][0], probes[3][0], probes[7][5], probes[4][0]):
        labels, count = _region_labels(dag, node, images, trace=trace)
        expected, expected_count = per_column_labels(dag, node, images)
        assert count == expected_count
        assert np.array_equal(labels, expected)


def test_one_trace_derives_each_arc_pattern_once(monkeypatch):
    derived = []

    def counting(arc, src_values):
        derived.append(arc.id)
        return _arc_pattern(arc, src_values)

    monkeypatch.setattr(partition, "_arc_pattern", counting)
    rng = np.random.default_rng(33)
    lw = [tuple(rng.standard_normal(shape) for shape in ((5, 5), 5, (5, 5), 5)) for _ in range(3)]
    dag = build_fusion_stack(lw, mode="probe")
    xs = rng.standard_normal((100, 5))
    _, trace = forward_batch(dag, xs)
    queried = set()
    for j in (3, 1, 2):
        for channel in ("bottom", "fusion", "top"):
            node = dag.labels[f"layer{j}.{channel}"]
            partition_stats(dag, node, xs, trace=trace)
            queried |= {arc.id for arc in _pattern_arcs(dag, node)}
    for j in (2, 1):
        fine, coarse = dag.labels[f"layer{j + 1}.fusion"], dag.labels[f"layer{j}.fusion"]
        assert check_refinement(dag, fine, coarse, xs, trace=trace).ok
    assert sorted(derived) == sorted(queried)

    # without a trace, a refinement check derives the fine node's arcs once
    derived.clear()
    fine, coarse = dag.labels["layer3.fusion"], dag.labels["layer2.top"]
    assert check_refinement(dag, fine, coarse, xs).ok
    assert sorted(derived) == sorted(arc.id for arc in _pattern_arcs(dag, fine))


def test_trace_of_another_graph_is_rejected():
    rng = np.random.default_rng(34)
    a, b = (build_fusion_module([rng.standard_normal((2, 2)), rng.standard_normal((2, 2))]) for _ in range(2))
    xs = rng.standard_normal((50, 2))
    fine, coarse = a.output_node, a.labels["channel0"]
    _, trace = forward_batch(a, xs)
    assert partition_stats(a, fine, xs, trace=trace) == partition_stats(a, fine, xs)
    assert trace.codes  # A's codes are filled
    for graph, given in ((b, trace), (b, dict(trace)), (a, dict(trace))):
        with pytest.raises(ValueError, match="another graph"):
            partition_stats(graph, fine, xs, trace=given)
        with pytest.raises(ValueError, match="another graph"):
            check_refinement(graph, fine, coarse, xs, trace=given)


def composed_piece(dag, node_id, x):
    """affine_piece's map composed from the identity at the input, as before
    arcs leaving the input took [W^T; b] directly; kept as an oracle."""
    _, trace = forward(dag, x)

    def through_arc(arc, m):
        elem = arc.elem
        if elem.weight is not None:
            m = m @ elem.weight.T
            if elem.bias is not None:
                m[-1] += elem.bias
        if elem.act is None:
            return m
        pre = elem.pre_activation(trace[arc.src])
        if isinstance(elem.act, PoolSpec):
            ids = pool_ids(elem.act, pre)
            picked = m[:, np.arange(len(ids)) * elem.act.block + ids - 1]
            return np.where(ids > 0, picked, 0.0)
        slope, offset = cpwl_slope_offset(elem.act, pre)
        m = m * slope
        m[-1] += offset
        return m

    m = propagate(dag, node_id, np.eye(dag.input_dim + 1, dag.input_dim), through_arc)[node_id]
    return m[:-1].T, m[-1]


def _assert_piece_equals_composition(dag, x):
    piece = affine_piece(dag, dag.output_node, x)
    weight, bias = composed_piece(dag, dag.output_node, x)
    assert (piece.weight == weight).all()
    assert (piece.bias == bias).all()


def test_affine_piece_equals_composition_through_the_identity():
    rng = np.random.default_rng(35)
    nets = list(_refinement_cases())
    for _ in range(3):
        d = int(rng.integers(2, 7))
        lw = [tuple(rng.standard_normal(shape) for shape in ((d, d), d, (d, d), d)) for _ in range(3)]
        nets += [build_fusion_stack(lw, mode="probe"), build_fusion_stack(lw, mode="compact")]
        dims = rng.integers(2, 9, 4).tolist()
        ws = [rng.standard_normal((dims[i + 1], dims[i])) for i in range(3)]
        nets.append(build_series_stack(ws, [rng.standard_normal(w.shape[0]) for w in ws]))
    for dag in nets:
        for x in rng.standard_normal((3, dag.input_dim)):
            _assert_piece_equals_composition(dag, x)


def test_affine_piece_equals_composition_on_lenet5():
    dag = build_lenet5(seed=0)
    _assert_piece_equals_composition(dag, np.random.default_rng(36).uniform(0.0, 1.0, 784))


def _count_pre_activations(monkeypatch):
    from unrectify import ArcElement

    calls = []
    original = ArcElement.pre_activation

    def counting(elem, values):
        calls.append(elem)
        return original(elem, values)

    monkeypatch.setattr(ArcElement, "pre_activation", counting)
    return calls


def _closure_arcs(dag, node):
    return [arc for nid in dag.closure(node) for arc in dag.in_arcs[nid]]


def test_lenet5_queries_compute_one_pre_activation_per_arc(monkeypatch):
    dag = build_lenet5(seed=0)
    rng = np.random.default_rng(38)
    xs = rng.uniform(0.0, 1.0, (2, 784))
    node = dag.labels["stage2.concat"]
    # the codes read the trace's pre-activations again, as the walk did before; kept as an oracle
    expected = []
    for x in xs:
        _, trace = forward_batch(dag, x[None])
        arcs = _pattern_arcs(dag, node)
        segments = tuple(tuple(_arc_pattern(arc, trace[arc.src])[0].tolist()) for arc in arcs)
        expected.append((tuple(arc.id for arc in arcs), segments))
    calls = _count_pre_activations(monkeypatch)
    for x, (arc_ids, segments) in zip(xs, expected):
        calls.clear()
        code = region_code(dag, node, x)
        assert (code.arc_ids, code.segments) == (arc_ids, segments)
        assert len(calls) == len(_closure_arcs(dag, node)) == 88
        assert len(set(map(id, calls))) == 88
    calls.clear()
    affine_piece(dag, dag.output_node, xs[0])
    arcs = _closure_arcs(dag, dag.output_node)
    assert len(calls) == len(arcs) == len(dag.arcs)
    assert {id(e) for e in calls} == {id(arc.elem) for arc in arcs}


def test_affine_piece_computes_one_pre_activation_per_arc(monkeypatch):
    rng = np.random.default_rng(39)
    nets = list(_refinement_cases()) + [build_demo_network(seed=3)]
    calls = _count_pre_activations(monkeypatch)
    for dag in nets:
        for node in range(len(dag.nodes)):
            calls.clear()
            affine_piece(dag, node, rng.standard_normal(dag.input_dim))
            assert len(calls) == len(_closure_arcs(dag, node))


def split_regions(labels):
    """Regions of two or more samples found by ``np.split`` of the stably
    sorted labels at every change, as the grouping was first written; kept
    as an oracle."""
    order = np.argsort(labels, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)
    return [g for g in groups if len(g) >= 2]


def loop_partition_stats(dag, node, xs, pair_cap=1_000_000, seed=0):
    """``partition_stats`` as one ``max_pairwise_distance`` call per region
    of ``split_regions``; kept as an oracle."""
    labels, count = _region_labels(dag, node, xs)
    sizes = np.bincount(labels, minlength=count)
    results = [max_pairwise_distance(xs[g], pair_cap=pair_cap, seed=seed) for g in split_regions(labels)]
    return PartitionStats(
        region_count=count,
        max_points_per_region=int(sizes.max()),
        max_intra_region_distance=max((d for d, _ in results), default=0.0),
        multi_member_point_count=int(sizes[sizes >= 2].sum()),
        distance_pairs_subsampled=any(flag for _, flag in results),
    )


def walk_violations(la, lb):
    """The refinement violations of fine labels ``la`` over coarse labels
    ``lb`` as the region walk names them: per fine region in label order,
    its first sample and its first sample of another coarse label, at most
    eight; kept as an oracle."""
    violations = []
    for chunk in split_regions(la):
        other = np.flatnonzero(lb[chunk] != lb[chunk[0]])
        if len(other):
            violations.append((int(chunk[0]), int(chunk[other[0]])))
            if len(violations) == 8:
                break
    return tuple(violations)


def test_shared_regions_equal_split_runs():
    rng = np.random.default_rng(38)
    for n, count in ((1, 1), (7, 7), (50, 1), (1000, 30), (1000, 900)):
        labels = np.unique(rng.integers(0, count, n), return_inverse=True)[1]
        got = partition._shared_regions(labels)
        expected = split_regions(labels)
        assert len(got) == len(expected)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))


def test_partition_stats_equal_region_loop_on_fusion_stacks():
    for seed in (0, 1, 2):
        rng = np.random.default_rng(40 + seed)
        d = 4 + 2 * seed
        lw = [tuple(rng.standard_normal(shape) for shape in ((d, d), d, (d, d), d)) for _ in range(3)]
        dag = build_fusion_stack(lw, mode="probe")
        xs = rng.standard_normal((1500, d))
        _, trace = forward_batch(dag, xs)
        for node in range(len(dag.nodes)):
            assert partition_stats(dag, node, xs, trace=trace) == loop_partition_stats(dag, node, xs), node


def test_partition_stats_equal_region_loop_on_lenet5_probes():
    # 784-wide rows: only regions of up to five points are pooled
    dag = build_lenet5(seed=0)
    rng = np.random.default_rng(39)
    protos = rng.uniform(0.0, 1.0, (4, 784))
    images = protos[rng.integers(0, 4, 40)]
    images = images + rng.choice([0.0, 1e-4, 1e-2, 0.3], (40, 1)) * rng.standard_normal((40, 784))
    _, trace = forward_batch(dag, images)
    probes = lenet5_probe_nodes(dag)
    for node in (probes[3][0], probes[4][0], probes[7][5], probes[8][0]):
        stats = partition_stats(dag, node, images, trace=trace)
        assert stats == loop_partition_stats(dag, node, images)
        assert stats.multi_member_point_count > 0


def orthant_points(rng, sizes):
    """``sizes[k]`` points in the k-th orthant of R^4, so a ReLU layer's
    regions hold exactly those counts."""
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=4)))
    return np.vstack([signs[k] * (0.01 + rng.random((m, 4))) for k, m in enumerate(sizes)])


def test_partition_stats_pools_regions_by_the_direct_threshold(monkeypatch):
    # at row width 4, 64 points give 2,016 pairs, 8,064 entries, within
    # DIRECT_ENTRIES; 65 points give 2,080 pairs, above it
    net = relu_layer(4)
    xs = orthant_points(np.random.default_rng(42), [0, 1, 2, 3, 5, 64, 65, 200, 2, 9])
    swept = []

    def recording(points, pair_cap=1_000_000, seed=0):
        swept.append(len(points))
        return max_pairwise_distance(points, pair_cap=pair_cap, seed=seed)

    for cap, expected_swept in ((None, [65, 200]), (1_000_000, [65, 200]), (100, [64, 65, 200])):
        oracle = loop_partition_stats(net, 1, xs, pair_cap=cap, seed=5)
        assert oracle.distance_pairs_subsampled == (cap == 100)
        monkeypatch.setattr(partition, "max_pairwise_distance", recording)
        for mode in PAIR_SWEEP_MODES:
            set_pair_sweep_mode(monkeypatch, *mode)
            swept.clear()
            assert partition_stats(net, 1, xs, pair_cap=cap, seed=5) == oracle, (cap, mode)
            if mode == PAIR_SWEEP_MODES[0]:  # the constants as shipped
                assert sorted(swept) == expected_swept, cap
        monkeypatch.undo()


def test_partition_stats_edge_cases_equal_region_loop():
    rng = np.random.default_rng(43)
    net = relu_layer(4)
    spread = orthant_points(rng, [1] * 16)
    cases = {
        "one sample": spread[:1],
        "all singletons": spread,
        "one region of all": np.abs(rng.standard_normal((90, 4))),
        "duplicated rows": np.vstack([spread, spread[:5], spread[3:4], spread[3:4]]),
        "duplicates only": np.repeat(spread[:6], 3, axis=0),
    }
    for name, xs in cases.items():
        for cap in (None, 2):
            assert partition_stats(net, 1, xs, pair_cap=cap) == loop_partition_stats(net, 1, xs, cap), name
    assert partition_stats(net, 1, spread).max_intra_region_distance == 0.0
    assert partition_stats(net, 1, cases["duplicates only"]).max_intra_region_distance == 0.0


def test_partition_stats_pooled_pairs_memory_stays_flat():
    # 800 regions of 25 points, 240,000 pooled pairs of 20-wide rows: the
    # gathered row differences alone would take 38 MB at once, and chunks
    # of PAIR_BLOCK entries keep the call near 10 MB
    rng = np.random.default_rng(44)
    weight = np.zeros((58, 20))
    weight[:39, 0] = weight[39:, 1] = 1.0
    bias = -np.concatenate([np.arange(1, 40), np.arange(1, 20)]).astype(float)
    net = series(identity_dag(20), ActivationAffine(relu_spec(), weight, bias))
    cells = np.repeat(np.array(list(itertools.product(range(40), range(20)))), 25, axis=0)
    xs = rng.standard_normal((20_000, 20))
    xs[:, :2] = cells + rng.uniform(0.1, 0.9, (20_000, 2))
    _, trace = forward_batch(net, xs)
    partition._region_labels(net, 1, xs, trace=trace)  # the arc codes go into the trace's table
    tracemalloc.start()
    try:
        stats = partition_stats(net, 1, xs, trace=trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (stats.region_count, stats.max_points_per_region) == (800, 25)
    assert stats == loop_partition_stats(net, 1, xs)
    assert peak < 16e6


@pytest.mark.parametrize("sizes", [(3, 3), (40, 2), (150, 7), (300, 300)])
def test_check_refinement_names_violations_as_the_region_walk(monkeypatch, sizes):
    # a coarse node in the fine node's closure cannot be violated, so the
    # labels are crafted: random ones, one refining pair, and that pair with
    # one sample moved to another coarse label
    demo = build_demo_network()
    fine, coarse = demo.labels["a"], demo.labels["c"]
    rng = np.random.default_rng(sum(sizes))
    xs = rng.standard_normal((300, 3))

    def dense(labels):
        return np.unique(labels, return_inverse=True)[1]

    la = dense(rng.integers(0, sizes[0], 300))
    lb = dense(rng.integers(0, sizes[1], 300))
    refining = dense(la // 2)
    moved = refining.copy()
    moved[split_regions(la)[-1][-1]] = refining.max() + 1
    labels = {fine: la}

    def crafted(dag, node, xs, trace=None):
        return labels[node], int(labels[node].max()) + 1

    monkeypatch.setattr(partition, "_region_labels", crafted)
    for coarse_labels in (lb, refining, moved):
        labels[coarse] = coarse_labels
        report = check_refinement(demo, fine, coarse, xs)
        expected = walk_violations(la, coarse_labels)
        assert report.violations == expected
        assert report.ok == (not expected)
        assert report.fine_region_count == la.max() + 1
        assert report.coarse_region_count == coarse_labels.max() + 1


@pytest.mark.parametrize("value", [0, -4])
def test_pair_caps_below_one_are_rejected(value):
    net = relu_layer(2)
    shared = np.random.default_rng(31).uniform(0.5, 1.5, size=(25, 2))  # one region
    apart = np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0]])  # no region shared
    message = f"pair_cap must be at least 1, got {value}"
    with pytest.raises(ValueError, match=message):
        max_pairwise_distance(shared, pair_cap=value)
    for xs in (shared, apart):
        with pytest.raises(ValueError, match=message):
            partition_stats(net, net.output_node, xs, pair_cap=value)
    assert max_pairwise_distance(shared, pair_cap=1)[1]
    assert partition_stats(net, net.output_node, apart, pair_cap=None).region_count == 3


QUERIES = {
    "region_code": region_code,
    "affine_piece": affine_piece,
    "forward": lambda dag, node, x: forward(dag, x),
}


@pytest.mark.parametrize("query", sorted(QUERIES))
@pytest.mark.parametrize("shape", [(4,), (1, 3)])
def test_single_input_queries_name_the_expected_shape(query, shape):
    net = relu_layer(3)
    message = re.escape(f"input must have shape (3,), got {shape}")
    with pytest.raises(ValueError, match=message):
        QUERIES[query](net, net.output_node, np.ones(shape))


def test_affine_piece_on_lenet5_holds_only_the_maps_later_arcs_read():
    # with every map of the closure kept until the call returns, the peak is 86 MB
    dag = build_lenet5(seed=0)
    x = np.random.default_rng(49).uniform(0.0, 1.0, 784)
    affine_piece(dag, dag.output_node, x)  # warm: element caches, closure and schedule
    tracemalloc.start()
    try:
        affine_piece(dag, dag.output_node, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40e6


def _full_walk_pieces(monkeypatch, dag, nodes, x):
    """affine_piece at each node with every map kept to the end, as before
    the walk released them; kept as an oracle."""
    with monkeypatch.context() as patch:
        patch.setattr(partition, "propagate", lambda *args, release: graph.propagate(*args))
        return [affine_piece(dag, n, x) for n in nodes]


def test_released_affine_piece_keeps_the_full_walks_bits(monkeypatch):
    rng = np.random.default_rng(50)
    cases = [random_valid_dag(rng, n_ops=int(rng.integers(4, 14))) for _ in range(12)]
    cases = [(dag, range(len(dag.nodes))) for dag in cases + [build_demo_network()]]
    lenet = build_lenet5(seed=0)
    probes = lenet5_probe_nodes(lenet)
    cases.append((lenet, [probes[3][0], probes[4][0], probes[7][0], probes[8][0], lenet.output_node]))
    for dag, nodes in cases:
        x = rng.uniform(0.0, 1.0, dag.input_dim)
        want = _full_walk_pieces(monkeypatch, dag, nodes, x)
        for node, w in zip(nodes, want):
            got = affine_piece(dag, node, x)
            for a, b in ((got.weight, w.weight), (got.bias, w.bias)):
                assert (a.tobytes(), a.strides) == (b.tobytes(), b.strides)
