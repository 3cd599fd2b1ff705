import numpy as np
import pytest

from conftest import PAIR_SWEEP_MODES, pair_sweep_sets, random_valid_dag, set_pair_sweep_mode
from unrectify import (
    Activation,
    ActivationAffine,
    CpwlSpec,
    NotPiecewiseAffineError,
    PoolSpec,
    Transform,
    TransformAffine,
    TransformSpec,
    affine_piece,
    build_demo_network,
    build_fusion_module,
    build_fusion_stack,
    check_refinement,
    computable_subgraph,
    count_regions_2d,
    forward,
    forward_batch,
    fusion_partition_bound,
    identity_dag,
    partition_stats,
    relu_spec,
    series,
)
from unrectify.partition import _region_labels, max_pairwise_distance, region_code


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


def test_region_labels_wide_alphabets_match_codes():
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
    for net in nets:
        codes = {region_code(net, net.output_node, x).segments for x in pts}
        assert len(codes) > 100
        assert partition_stats(net, net.output_node, pts).region_count == len(codes)
        assert count_regions_2d(net, box=box, grid_n=grid_n, row_block=8) == len(codes)


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


def test_count_regions_2d_equals_full_lattice_labels():
    # cell refinement must count exactly the distinct codes of every lattice point
    for net in _refinement_cases():
        for box, grid_n in (((-5.0, 5.0), 101), ((-3.0, 4.0), 257)):
            expected = _region_labels(net, net.output_node, _lattice(box, grid_n))[1]
            for row_block in (1, 16, 128, grid_n + 43):
                got = count_regions_2d(net, box=box, grid_n=grid_n, row_block=row_block)
                assert got == expected, (box, grid_n, row_block)


def test_count_regions_2d_labels_every_point_through_transforms():
    # relu(tanh(x0 - 2) - tanh(x0 + 2) + 1) is active only near both ends of
    # the x0 range: one code on two pieces, whose corners all agree
    squash = TransformAffine(TransformSpec("tanh"), np.array([[1.0, 0.0], [1.0, 0.0]]), [-2.0, 2.0])
    gap = ActivationAffine(relu_spec(), np.array([[1.0, -1.0]]), np.array([1.0]))
    net = series(series(identity_dag(2), squash), gap)
    assert count_regions_2d(net, grid_n=41, row_block=40) == 2


def test_count_regions_2d_smallest_grids():
    assert count_regions_2d(relu_layer(2), grid_n=1) == 1
    assert count_regions_2d(relu_layer(2), grid_n=2) == 4
    assert count_regions_2d(relu_layer(2), grid_n=2, row_block=1) == 4


def test_count_regions_2d_requires_2d():
    with pytest.raises(ValueError):
        count_regions_2d(relu_layer(3))


@pytest.mark.parametrize("name", ["grid_n", "row_block"])
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
