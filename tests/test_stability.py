import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import PAIR_SWEEP_MODES, pair_sweep_sets, random_cpwl_spec, random_valid_dag, set_pair_sweep_mode
from unrectify import (
    Activation,
    ActivationAffine,
    Affine,
    Arc,
    CpwlSpec,
    Dag,
    LevelSum,
    Linear,
    StabilityReport,
    build_demo_network,
    build_fusion_stack,
    build_lenet5,
    build_resnet_module,
    build_series_stack,
    certify,
    concatenate,
    empirical_gain,
    forward_batch,
    identity_dag,
    level_sums,
    levels,
    relu_spec,
    rescale_to_stability,
    resnet_link_condition,
    series,
    soundness_check,
    spectral_norm,
    svd_spectral_norm,
    uniform_bound,
)
from unrectify import stability
from unrectify.elements import element_bound, linear_part
from unrectify.stability import SUM_TOLERANCE, _level_value_matrices, _max_pair_ratios


def scaled_matrix(rng, shape, norm):
    w = rng.standard_normal(shape)
    return w * (norm / svd_spectral_norm(w))


def test_spectral_norm_identity_and_diagonal():
    assert abs(spectral_norm(np.eye(7)) - 1.0) <= 1e-12
    assert abs(spectral_norm(np.diag([3.0, -4.0])) - 4.0) <= 1e-10


def test_spectral_norm_matches_svd_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = rng.standard_normal((int(rng.integers(1, 65)), int(rng.integers(1, 65))))
        assert abs(spectral_norm(m) - svd_spectral_norm(m)) <= 1e-8


def test_spectral_norm_bounds_svd_on_lenet_arcs():
    weights = [linear_part(a.elem) for a in build_lenet5(seed=0).arcs]
    weights = [w for w in weights if w is not None]
    assert len(weights) == 25
    for w in weights:
        assert spectral_norm(w) >= svd_spectral_norm(w)


def test_spectral_norm_without_spectral_gap():
    # every singular value is 1; the smaller Gram matrix is an identity, so
    # the stated margin is 2(m+n)·eps·min(m, n), within 1e-12 up to n = 40
    rng = np.random.default_rng(22)
    for n in (2, 7, 40, 300):
        rows = np.sort(rng.choice(n, size=max(1, n // 2), replace=False))
        for w in (np.eye(n)[rng.permutation(n)], np.eye(n)[rows], np.eye(n)[rows].T):
            value = spectral_norm(w)
            margin = 2 * sum(w.shape) * np.finfo(float).eps * min(w.shape)
            assert 1.0 <= value <= 1.0 + margin
            if n <= 40:
                assert abs(value - 1.0) <= 1e-12


def test_spectral_norm_scaling_and_transpose():
    rng = np.random.default_rng(1)
    w = rng.standard_normal((6, 9))
    assert abs(spectral_norm(2.5 * w) - 2.5 * spectral_norm(w)) <= 1e-8
    assert abs(spectral_norm(w.T) - spectral_norm(w)) <= 1e-8
    assert spectral_norm(np.zeros((3, 5))) == 0.0


def test_spectral_norm_rejects_bad_input():
    with pytest.raises(ValueError):
        spectral_norm(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        spectral_norm(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_level_sums_single_arc():
    rng = np.random.default_rng(2)
    w = scaled_matrix(rng, (4, 4), 0.5)
    net = series(identity_dag(4), ActivationAffine(relu_spec(), w))
    sums = level_sums(net)
    assert len(sums) == 1
    assert abs(sums[0].sum - 0.5) <= 1e-9
    assert sums[0].frob_sum >= sums[0].sum


def test_level_sums_residual_block():
    rng = np.random.default_rng(3)
    w1 = scaled_matrix(rng, (4, 4), 0.7)
    w2 = scaled_matrix(rng, (4, 4), 0.3)
    block = build_resnet_module(w1, w2, outer_activation=False)
    sums = {entry.level: entry.sum for entry in level_sums(block)}
    assert abs(sums[1] - 0.7) <= 1e-9
    assert abs(sums[2] - (1.0 + 0.3)) <= 1e-9


def test_level_sums_compact_fusion_stack():
    rng = np.random.default_rng(4)
    norms = [(1.3, 0.4), (0.2, 0.1)]
    layer_w = [
        (scaled_matrix(rng, (5, 5), a), None, scaled_matrix(rng, (5, 5), b), None)
        for a, b in norms
    ]
    dag = build_fusion_stack(layer_w, mode="compact")
    sums = level_sums(dag)
    for entry, (a, b) in zip(sums, norms):
        assert abs(entry.sum - (a + b)) <= 1e-8


def test_frobenius_dominates_spectral_everywhere():
    rng = np.random.default_rng(5)
    layer_w = [
        (
            rng.standard_normal((6, 6)),
            rng.standard_normal(6),
            rng.standard_normal((6, 6)),
            rng.standard_normal(6),
        )
        for _ in range(4)
    ]
    dag = build_fusion_stack(layer_w, mode="compact")
    for entry in level_sums(dag):
        assert entry.frob_sum >= entry.sum - 1e-12


def test_certify_chain_geometric_recursion():
    rng = np.random.default_rng(6)
    mats = [scaled_matrix(rng, (6, 6), 0.9) for _ in range(5)]
    report = certify(build_series_stack(mats))
    assert report.stable_from == 1
    assert report.certified
    for n, value in enumerate(report.certified_C):
        assert abs(value - 0.9**n) <= 1e-9


def test_certify_zero_weights():
    net = build_series_stack([np.zeros((3, 3)), np.zeros((3, 3))])
    report = certify(net)
    assert report.certified
    assert report.certified_C[1] == 0.0
    assert report.certified_C[2] == 0.0


def test_certify_residual_block_condition():
    rng = np.random.default_rng(7)
    w1 = rng.standard_normal((4, 4))
    w2 = scaled_matrix(rng, (4, 4), 0.5)
    assert not certify(build_resnet_module(w1, w2, outer_activation=False)).certified
    report = certify(build_resnet_module(w1, np.zeros((4, 4)), outer_activation=False))
    assert report.certified
    assert report.stable_from == 2


def test_certified_running_max_stops_growing():
    rng = np.random.default_rng(8)
    layer_w = [
        (
            scaled_matrix(rng, (5, 5), 0.4),
            None,
            scaled_matrix(rng, (5, 5), 0.5),
            None,
        )
        for _ in range(4)
    ]
    report = certify(build_fusion_stack(layer_w, mode="compact"))
    assert report.stable_from == 1
    c = report.certified_C
    for n in range(report.stable_from, len(c)):
        assert c[n] <= max(c[:n]) + 1e-12


def test_rescale_leaves_stable_network_unchanged():
    rng = np.random.default_rng(9)
    mats = [scaled_matrix(rng, (4, 4), 0.8) for _ in range(3)]
    net = build_series_stack(mats)
    assert rescale_to_stability(net) is net


def test_rescale_two_arc_level():
    rng = np.random.default_rng(10)
    layer_w = [
        (scaled_matrix(rng, (4, 4), 2.0), None, scaled_matrix(rng, (4, 4), 2.0), None)
    ]
    dag = build_fusion_stack(layer_w, mode="compact")
    scaled = rescale_to_stability(dag)
    entry = level_sums(scaled)[0]
    assert abs(entry.sum - 1.0) <= 1e-9
    w = scaled.arcs[0].elem.weight
    assert abs(svd_spectral_norm(w) - 0.5) <= 1e-9


def test_rescale_idempotent():
    rng = np.random.default_rng(11)
    layer_w = [
        (
            rng.standard_normal((5, 5)),
            rng.standard_normal(5),
            rng.standard_normal((5, 5)),
            rng.standard_normal(5),
        )
        for _ in range(3)
    ]
    dag = build_fusion_stack(layer_w, mode="compact")
    once = rescale_to_stability(dag, use_frobenius=True)
    twice = rescale_to_stability(once, use_frobenius=True)
    assert twice is once


def test_rescale_frobenius_bounds_both_norms():
    rng = np.random.default_rng(12)
    layer_w = [
        (
            rng.standard_normal((6, 6)),
            rng.standard_normal(6),
            rng.standard_normal((6, 6)),
            rng.standard_normal(6),
        )
        for _ in range(5)
    ]
    dag = build_fusion_stack(layer_w, mode="compact")
    scaled = rescale_to_stability(dag, use_frobenius=True)
    for entry in level_sums(scaled):
        assert entry.frob_sum <= 1.0 + 1e-12
        assert entry.sum <= 1.0 + 1e-12


def svd_level_sums(dag, d):
    lvl = levels(dag)
    sums = np.zeros(max(lvl.values()) + 1)
    for arc in dag.arcs:
        w = linear_part(arc.elem)
        sums[lvl[arc.dst]] += 1.0 if w is None else svd_spectral_norm(w)
    return d * sums[1:]


def test_spectrally_rescaled_certificates_hold_against_svd():
    rng = np.random.default_rng(24)
    nets = []
    for _ in range(4):
        dim = int(rng.integers(8, 21))
        layer_w = [
            (
                rng.standard_normal((dim, dim)),
                rng.standard_normal(dim),
                rng.standard_normal((dim, dim)),
                rng.standard_normal(dim),
            )
            for _ in range(int(rng.integers(3, 6)))
        ]
        nets.append(build_fusion_stack(layer_w, mode="compact"))
        dims = [int(v) for v in rng.integers(4, 33, int(rng.integers(4, 7)))]
        nets.append(
            build_series_stack([rng.standard_normal((b, a)) for a, b in zip(dims, dims[1:])])
        )
    certified = 0
    for net in nets:
        scaled = rescale_to_stability(net)
        report = certify(scaled)
        if report.certified:
            certified += 1
            svd = svd_level_sums(scaled, report.d)
            assert np.all(svd[report.stable_from - 1 :] <= 1.0 + SUM_TOLERANCE)
    assert certified == len(nets)


def test_rescale_preserves_biases_and_function_shape():
    rng = np.random.default_rng(13)
    w = scaled_matrix(rng, (3, 3), 4.0)
    b = rng.standard_normal(3)
    net = series(identity_dag(3), ActivationAffine(relu_spec(), w, b))
    scaled = rescale_to_stability(net)
    assert np.array_equal(scaled.arcs[0].elem.bias, b)
    assert abs(svd_spectral_norm(scaled.arcs[0].elem.weight) - 1.0) <= 1e-9


def test_rescale_impossible_level_raises():
    # summation of two identity branches: unit contributions alone exceed 1
    from unrectify.graph import GraphBuilder, ROLE_ADD
    from unrectify import Identity

    b = GraphBuilder(3)
    top = b.add_relay(0, Activation(relu_spec(), 3))
    bot = b.add_relay(0, Activation(relu_spec(), 3))
    total = b.add_node(ROLE_ADD)
    b.connect(top, total, Identity(3))
    b.connect(bot, total, Identity(3))
    dag = b.finish(total)
    with pytest.raises(ValueError, match="unit arc contributions"):
        rescale_to_stability(dag)


def test_empirical_gain_linear_network():
    rng = np.random.default_rng(14)
    w = rng.standard_normal((4, 3))
    net = series(identity_dag(3), Linear(w))
    xs = rng.standard_normal((300, 3))
    curve = empirical_gain(net, xs)
    sigma = svd_spectral_norm(w)
    assert curve.gains[0] == 1.0
    assert curve.gains[1] <= sigma + 1e-9
    assert curve.gains[1] >= 0.9 * sigma


def test_empirical_gain_requires_two_distinct_samples():
    net = series(identity_dag(2), Linear(np.eye(2)))
    with pytest.raises(ValueError):
        empirical_gain(net, np.zeros((1, 2)))
    with pytest.raises(ValueError):
        empirical_gain(net, np.zeros((5, 2)))
    with pytest.raises(ValueError, match="distinct"):
        empirical_gain(net, np.tile([1.5, -2.0], (4, 1)))


def test_empirical_gain_subsampling_close_to_full():
    rng = np.random.default_rng(15)
    w = rng.standard_normal((3, 3))
    net = series(identity_dag(3), Linear(w))
    xs = rng.standard_normal((200, 3))
    full = empirical_gain(net, xs)
    sub = empirical_gain(net, xs, pair_budget=3000, seed=1)
    assert sub.pairs_subsampled and not full.pairs_subsampled
    assert sub.gains[1] <= full.gains[1] + 1e-12


def test_identity_network_gain_is_one():
    from unrectify import Identity

    net = series(identity_dag(3), Identity(3))
    xs = np.random.default_rng(16).standard_normal((50, 3))
    curve = empirical_gain(net, xs)
    assert abs(curve.gains[1] - 1.0) <= 1e-12


def test_soundness_on_certified_networks():
    rng = np.random.default_rng(17)
    for trial in range(5):
        depth = int(rng.integers(2, 5))
        layer_w = [
            (
                scaled_matrix(rng, (4, 4), float(rng.uniform(0.1, 0.5))),
                rng.standard_normal(4),
                scaled_matrix(rng, (4, 4), float(rng.uniform(0.1, 0.4))),
                rng.standard_normal(4),
            )
            for _ in range(depth)
        ]
        dag = build_fusion_stack(layer_w, mode="compact")
        report = certify(dag)
        assert report.certified
        xs = rng.standard_normal((120, 4))
        result = soundness_check(dag, xs, report=report)
        assert result.ok, result.violations


def test_soundness_chain_bound():
    rng = np.random.default_rng(18)
    mats = [scaled_matrix(rng, (5, 5), 0.9) for _ in range(4)]
    net = build_series_stack(mats)
    xs = rng.standard_normal((200, 5))
    result = soundness_check(net, xs)
    assert result.ok
    for lev, gain in zip(result.gain_curve.levels[1:], result.gain_curve.gains[1:]):
        assert gain <= 0.9**lev + 1e-6


def test_certify_weighs_transform_bound():
    from unrectify import TransformAffine, TransformSpec

    rng = np.random.default_rng(20)
    w = scaled_matrix(rng, (4, 4), 0.4)
    soft = TransformSpec("softmax", scale=2.0)
    net = series(identity_dag(4), TransformAffine(soft, w))
    report = certify(net)
    assert abs(report.d - 2.0) <= 1e-12
    assert abs(report.level_sums[0].sum - 0.8) <= 1e-9
    assert report.certified
    hot = series(identity_dag(4), TransformAffine(soft, scaled_matrix(rng, (4, 4), 0.6)))
    assert not certify(hot).certified


def loop_gain(dag, xs, min_distance=1e-9):
    """The per-row all-pairs sweep, the oracle the blocked Gram screen must
    equal bit for bit: gains per level and the number of pairs kept."""
    values = _level_value_matrices(dag, xs)
    gains = [1.0] + [0.0] * (len(values) - 1)
    used = 0
    for i in range(len(xs) - 1):
        nx = np.linalg.norm(xs[i + 1 :] - xs[i], axis=1)
        keep = nx >= min_distance
        if not keep.any():
            continue
        used += int(keep.sum())
        for lev in range(1, len(values)):
            dv = values[lev][i + 1 :] - values[lev][i]
            ratio = np.linalg.norm(dv[keep], axis=1) / nx[keep]
            gains[lev] = max(gains[lev], float(ratio.max()))
    return tuple(gains), used


def sweep_networks(dim):
    """Seeded networks over ``dim`` inputs: a rectifier series stack, the
    same stack without biases, whose values scale with the input so that
    pairs near the origin keep their differences, and for narrow inputs a
    compact fusion stack, raw and Frobenius-rescaled."""
    rng = np.random.default_rng(32 + dim)
    width = min(dim, 16)
    mats = [rng.standard_normal((width, dim)) / np.sqrt(dim)]
    mats += [rng.standard_normal((width, width)) for _ in range(2)]
    nets = {"series": build_series_stack(mats, [rng.standard_normal(width) for _ in mats])}
    nets["unbiased"] = build_series_stack(mats)
    if dim <= 16:
        layers = [
            (
                rng.standard_normal((dim, dim)),
                rng.standard_normal(dim),
                rng.standard_normal((dim, dim)),
                rng.standard_normal(dim),
            )
            for _ in range(3)
        ]
        nets["fusion"] = build_fusion_stack(layers, mode="compact")
        nets["fusion_rescaled"] = rescale_to_stability(nets["fusion"], use_frobenius=True)
    return nets


SWEEP_SETS = pair_sweep_sets()
SWEEP_CASES = [
    (points, net)
    for points, (xs, _) in SWEEP_SETS.items()
    for net in sweep_networks(xs.shape[1])
]


def sampled_loop_gain(dag, xs, budget, seed, min_distance=1e-9):
    """The seeded pair sample as a standalone loop, the oracle of the sampled
    sweep: ``budget`` draws (i, j) in rounds of 2^17, i drawn before j."""
    values = _level_value_matrices(dag, xs)
    rng = np.random.default_rng(seed)
    gains = [1.0] + [0.0] * (len(values) - 1)
    used, remaining = 0, budget
    while remaining > 0:
        take = min(1 << 17, remaining)
        i = rng.integers(0, len(xs), size=take)
        j = rng.integers(0, len(xs), size=take)
        nx = np.linalg.norm(xs[i] - xs[j], axis=1)
        keep = nx >= min_distance
        used += int(keep.sum())
        if keep.any():
            for lev in range(1, len(values)):
                dv = values[lev][i[keep]] - values[lev][j[keep]]
                ratio = np.linalg.norm(dv, axis=1) / nx[keep]
                gains[lev] = max(gains[lev], float(ratio.max()))
        remaining -= take
    return tuple(gains), used


@pytest.mark.parametrize("budget", [1, 3000, (1 << 17) - 1, 1 << 17, 200_000, 1 << 18])
def test_empirical_gain_sample_equals_seeded_loop(budget):
    # 800 rows, half of them repeated, so sampled pairs at distance zero are
    # dropped; 319,600 pairs exceed every budget
    rng = np.random.default_rng(34)
    dag = sweep_networks(3)["fusion"]
    xs = rng.standard_normal((800, 3))
    xs[400:] = xs[:400]
    for seed in (0, 5):
        gains, used = sampled_loop_gain(dag, xs, budget, seed)
        curve = empirical_gain(dag, xs, pair_budget=budget, seed=seed)
        assert curve.pairs_subsampled
        assert curve.gains == gains
        assert curve.pairs_used == used


@pytest.mark.parametrize("points,net", SWEEP_CASES)
def test_empirical_gain_equals_per_row_loop(monkeypatch, points, net):
    xs, min_distance = SWEEP_SETS[points]
    dag = sweep_networks(xs.shape[1])[net]
    gains, used = loop_gain(dag, xs, min_distance)
    for mode in PAIR_SWEEP_MODES:
        set_pair_sweep_mode(monkeypatch, *mode)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            curve = empirical_gain(dag, xs, min_distance=min_distance)
        assert not curve.pairs_subsampled
        assert curve.gains == gains, mode
        assert curve.pairs_used == used, mode


def test_pair_bounds_enclose_the_exact_squared_distances():
    # the screen's bounds against the squared brute-force norm of every pair,
    # subnormal squares included; the two-sign matrix is the x side's, the
    # default one each level's, whose upper bound must hold on its own
    for name, (xs, _) in SWEEP_SETS.items():
        n, k = xs.shape
        i, j = np.triu_indices(n, 1)
        exact = np.linalg.norm(xs[j] - xs[i], axis=1) ** 2
        both = stability._augment(xs, (-1.0, 1.0))
        lo, hi = (stability._pair_bounds(both, k, 0, n - 1, m)[i, j - 1] for m in (0, 1))
        level_hi = stability._pair_bounds(stability._augment(xs), k, 0, n - 1)[i, j - 1]
        assert (lo <= exact).all() and (exact <= hi).all() and (exact <= level_hi).all(), name


def test_empirical_gain_sweep_memory_stays_flat():
    # an n x n float matrix at n = 4,000 takes 128 MB; row blocks of
    # PAIR_BLOCK entries keep the whole call, forward pass included, near 10 MB
    rng = np.random.default_rng(33)
    layers = [
        (
            rng.standard_normal((20, 20)),
            rng.standard_normal(20),
            rng.standard_normal((20, 20)),
            rng.standard_normal(20),
        )
        for _ in range(5)
    ]
    dag = build_fusion_stack(layers, mode="compact")
    xs = rng.standard_normal((4000, 20))
    tracemalloc.start()
    try:
        curve = empirical_gain(dag, xs, pair_budget=8_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not curve.pairs_subsampled
    assert curve.pairs_used == 4000 * 3999 // 2
    assert peak < 16e6


def test_resnet_link_condition_matches_oracle():
    rng = np.random.default_rng(19)
    w1 = scaled_matrix(rng, (4, 4), 0.6)
    contracting = 0.5 * np.eye(4)
    ok, value = resnet_link_condition(contracting, np.eye(4))
    assert ok == (svd_spectral_norm(np.eye(4) - contracting) <= 1.0)
    assert abs(value - svd_spectral_norm(np.eye(4) - contracting)) <= 1e-8
    big = scaled_matrix(rng, (4, 4), 3.0)
    ok2, value2 = resnet_link_condition(w1, big)
    assert ok2 == (svd_spectral_norm(np.eye(4) - big @ w1) <= 1.0)


@pytest.mark.parametrize("budget", [2_000_000, 4])
def test_gain_of_a_graph_of_its_input_alone(budget):
    dag = identity_dag(2)
    xs = np.random.default_rng(41).standard_normal((6, 2))
    xs[5] = xs[0]  # one pair below the minimum distance
    curve = empirical_gain(dag, xs, pair_budget=budget, seed=3)
    _, used, subsampled = _max_pair_ratios([xs], xs, 1e-9, budget, 3)
    assert (curve.levels, curve.gains) == ((0,), (1.0,))
    assert (curve.pairs_used, curve.pairs_subsampled) == (used, subsampled)
    report = soundness_check(dag, xs, pair_budget=budget, seed=3)
    assert report.ok and report.gain_curve == curve


def _fresh_elements(dag):
    """The same graph with every element rebuilt, so no norm is remembered."""
    arcs = tuple(replace(a, elem=replace(a.elem)) for a in dag.arcs)
    return replace(dag, arcs=arcs)


def _mixed_fusion_stack():
    """Compact fusion stack whose odd layers exceed the budget."""
    rng = np.random.default_rng(42)
    layer_w = [
        (scaled_matrix(rng, (5, 5), a), None, scaled_matrix(rng, (5, 5), a), None)
        for a in (1.5, 0.2, 2.0, 0.3)
    ]
    return build_fusion_stack(layer_w, mode="compact")


def test_each_distinct_weight_norm_is_computed_once(monkeypatch):
    computed = []
    real = stability.spectral_norm
    monkeypatch.setattr(stability, "spectral_norm", lambda w: computed.append(w) or real(w))
    dag = _mixed_fusion_stack()
    first = certify(dag)
    scaled = rescale_to_stability(dag)
    second = certify(scaled)
    assert rescale_to_stability(scaled) is scaled
    third = certify(scaled)
    weights = {id(a.elem.weight) for g in (dag, scaled) for a in g.arcs if a.elem.weight is not None}
    untouched = sum(a.elem is b.elem for a, b in zip(dag.arcs, scaled.arcs) if a.elem.weight is not None)
    assert 0 < untouched < len(weights)
    assert len(computed) == len(weights)
    monkeypatch.undo()
    assert certify(_fresh_elements(dag)) == first
    assert certify(_fresh_elements(scaled)) == second == third


def test_lenet5_norms_are_computed_once(monkeypatch):
    # LeNet-5 cannot be rescaled: its pool-and-concat levels carry 6 and 16
    # unit arcs; the failed rescale still reads the norms certify computed
    computed = []
    real = stability.spectral_norm
    monkeypatch.setattr(stability, "spectral_norm", lambda w: computed.append(w) or real(w))
    dag = build_lenet5(seed=0)
    first = certify(dag)
    with pytest.raises(ValueError, match="level 2: unit arc contributions"):
        rescale_to_stability(dag)
    assert certify(dag) == first
    assert len(computed) == sum(a.elem.weight is not None for a in dag.arcs)
    monkeypatch.undo()
    assert certify(_fresh_elements(dag)) == first


def test_a_cpwl_with_zero_slopes_has_bound_zero():
    net = build_series_stack([5 * np.eye(2)], activation=CpwlSpec(right_pieces=((0.0, 0.0),)))
    report = certify(net)
    assert report.d == 0.0 and report.certified and report.level_sums[0].sum == 0.0


def test_an_affine_only_network_takes_bound_one_without_warning():
    net = series(series(identity_dag(3), Affine(3.0 * np.eye(3))), Linear(0.25 * np.eye(3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = certify(net)
        sums = level_sums(net)
        scaled = rescale_to_stability(net)
    assert report.d == 1.0 and certify(scaled).d == 1.0
    assert sums == list(report.level_sums)
    # spectral norms are upper bounds within a few ulps
    for got, want in zip([e.sum for e in sums], (3.0, 0.25)):
        assert want <= got <= want * (1.0 + 1e-13)
    for got, want in zip(report.certified_C, (1.0, 3.0, 0.75)):
        assert want <= got <= want * (1.0 + 1e-13)


@pytest.mark.parametrize("budget", [0, -4])
def test_empirical_gain_rejects_an_empty_pair_budget(budget):
    net = series(identity_dag(2), ActivationAffine(relu_spec(), np.eye(2)))
    xs = np.random.default_rng(17).standard_normal((25, 2))
    with pytest.raises(ValueError, match=f"pair_budget must be at least 1, got {budget}"):
        empirical_gain(net, xs, pair_budget=budget)
    with pytest.raises(ValueError, match=f"pair_budget must be at least 1, got {budget}"):
        soundness_check(net, xs, pair_budget=budget)


# The certificate as it stood before it read one table of arcs by level:
# level sums in one pass, the recursion in a second over a second grouping,
# the rescaled graph built by hand, and level matrices grouped by node.  The
# one-pass code must reproduce these bit for bit.


def _oracle_arcs_by_level(dag):
    lvl = levels(dag)
    per_level = {}
    for arc in dag.arcs:
        per_level.setdefault(lvl[arc.dst], []).append(arc)
    return lvl, per_level


def _oracle_share(arc, d):
    """An arc's gain bound, d with a nonlinearity and max(d, 1) without,
    over max(d, 1): at d >= 1 every arc counts d, which factors out."""
    return d if d < 1.0 and element_bound(arc.elem) is not None else 1.0


def _oracle_level_sums(dag, d, spectral):
    lvl, per_level = _oracle_arcs_by_level(dag)
    frob = stability._arc_norms(dag, "frobenius")
    out = []
    for n in range(1, max(lvl.values()) + 1):
        arcs = per_level.get(n, [])
        spec_total = max(d, 1.0) * sum(_oracle_share(a, d) * spectral[a.id] for a in arcs)
        frob_total = max(d, 1.0) * sum(_oracle_share(a, d) * frob[a.id] for a in arcs)
        out.append(LevelSum(level=n, sum=spec_total, frob_sum=frob_total))
    return out


def _oracle_certify(dag):
    d = uniform_bound(arc.elem for arc in dag.arcs)
    spectral = stability._arc_norms(dag, "spectral")
    sums = _oracle_level_sums(dag, d, spectral)
    stable_from = None
    for entry in reversed(sums):
        if entry.sum <= 1.0 + SUM_TOLERANCE:
            stable_from = entry.level
        else:
            break
    lvl, per_level = _oracle_arcs_by_level(dag)
    top = max(lvl.values())
    c = [1.0] + [0.0] * top
    for n in range(1, top + 1):
        total = 0.0
        for arc in per_level.get(n, []):
            total += _oracle_share(arc, d) * spectral[arc.id] * c[lvl[arc.src]]
        c[n] = max(d, 1.0) * total
    return StabilityReport(d=float(d), level_sums=tuple(sums), stable_from=stable_from, certified_C=tuple(c))


def _oracle_rescale(dag, use_frobenius=False):
    d = uniform_bound(arc.elem for arc in dag.arcs)
    norms = stability._arc_norms(dag, "frobenius" if use_frobenius else "spectral")
    lvl, per_level = _oracle_arcs_by_level(dag)
    factors = {}
    for n in range(1, max(lvl.values()) + 1):
        arcs = per_level.get(n, [])
        unit_mass = max(d, 1.0) * sum(_oracle_share(a, d) for a in arcs if a.elem.weight is None)
        weighted = max(d, 1.0) * sum(_oracle_share(a, d) * norms[a.id] for a in arcs if a.elem.weight is not None)
        if unit_mass + weighted <= 1.0 + SUM_TOLERANCE:
            continue
        if unit_mass > 1.0 + SUM_TOLERANCE or weighted == 0.0:
            raise ValueError(
                f"level {n}: unit arc contributions ({unit_mass:g}) already exceed "
                "the budget; rescaling weights cannot certify this level"
            )
        for arc in arcs:
            if arc.elem.weight is not None:
                factors[arc.id] = (1.0 - unit_mass) / weighted
    if not factors:
        return dag
    new_arcs = tuple(
        Arc(
            a.id,
            a.src,
            a.dst,
            replace(a.elem, weight=a.elem.weight * factors[a.id]) if a.id in factors else a.elem,
        )
        for a in dag.arcs
    )
    return Dag(dag.input_dim, dag.nodes, new_arcs, dag.output_node, dict(dag.labels))


def _oracle_level_value_matrices(dag, xs):
    _, trace = forward_batch(dag, xs)
    lvl = levels(dag)
    per_level = {}
    for nid, n in lvl.items():
        per_level.setdefault(n, []).append(nid)
    return [
        np.concatenate([trace[nid] for nid in sorted(per_level[n])], axis=1)
        for n in range(max(lvl.values()) + 1)
    ]


def _rescale_outcome(rescale, dag, use_frobenius):
    try:
        return rescale(dag, use_frobenius)
    except ValueError as exc:
        return str(exc)


def _same_arrays(a, b):
    return (a is None and b is None) or (a is not None and b is not None and np.array_equal(a, b))


def _assert_same_graph(got, want):
    assert (got.input_dim, got.nodes, got.output_node, got.labels) == (
        want.input_dim,
        want.nodes,
        want.output_node,
        want.labels,
    )
    assert len(got.arcs) == len(want.arcs)
    for a, b in zip(got.arcs, want.arcs):
        assert (a.id, a.src, a.dst, a.elem.in_dim, a.elem.out_dim) == (b.id, b.src, b.dst, b.elem.in_dim, b.elem.out_dim)
        assert (a.elem.act, a.elem.spec, a.elem.dim) == (b.elem.act, b.elem.spec, b.elem.dim)
        assert _same_arrays(a.elem.weight, b.elem.weight) and _same_arrays(a.elem.bias, b.elem.bias)


def _assert_matches_oracles(dag, samples):
    assert certify(dag) == _oracle_certify(dag)
    assert level_sums(dag) == _oracle_level_sums(
        dag, uniform_bound(a.elem for a in dag.arcs), stability._arc_norms(dag, "spectral")
    )
    for use_frobenius in (False, True):
        got = _rescale_outcome(rescale_to_stability, dag, use_frobenius)
        want = _rescale_outcome(_oracle_rescale, dag, use_frobenius)
        if isinstance(want, str):
            assert got == want
            continue
        _assert_same_graph(got, want)
        assert certify(got) == _oracle_certify(want)
    got = _level_value_matrices(dag, samples)
    want = _oracle_level_value_matrices(dag, samples)
    assert len(got) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def _oracle_fusion_stacks():
    rng = np.random.default_rng(23)
    layer_w = [
        (rng.standard_normal((6, 6)), rng.standard_normal(6), rng.standard_normal((6, 6)), None)
        for _ in range(3)
    ]
    raw = build_fusion_stack(layer_w, mode="compact")
    stacks = [_mixed_fusion_stack(), raw]
    return stacks + [rescale_to_stability(g, use_frobenius=f) for g in stacks for f in (False, True)]


@pytest.mark.parametrize("seed", range(40))
def test_one_pass_certificate_matches_the_two_pass_oracle_on_random_graphs(seed):
    rng = np.random.default_rng(seed)
    dag = random_valid_dag(rng, n_ops=int(rng.integers(4, 14)))
    samples = rng.standard_normal((7, dag.input_dim))
    _assert_matches_oracles(dag, samples)


def test_one_pass_certificate_matches_the_oracle_on_demo_lenet_and_fusion_stacks():
    rng = np.random.default_rng(29)
    demo = build_demo_network()
    per_level = list(levels(demo).values())
    assert any(per_level.count(n) > 1 for n in per_level)
    for dag in [demo, build_lenet5(seed=0), *_oracle_fusion_stacks()]:
        _assert_matches_oracles(dag, rng.standard_normal((5, dag.input_dim)))


def test_rescale_shares_untouched_elements_and_copies_labels():
    dag = _mixed_fusion_stack()
    for use_frobenius in (False, True):
        scaled = rescale_to_stability(dag, use_frobenius)
        want = _oracle_rescale(dag, use_frobenius)
        kept = [a.elem is w.elem for a, w in zip(dag.arcs, want.arcs)]
        assert any(kept) and not all(kept)
        assert [a.elem is s.elem for a, s in zip(dag.arcs, scaled.arcs)] == kept
        assert scaled.labels == dag.labels and scaled.labels is not dag.labels


HALF_SLOPE = CpwlSpec(right_pieces=((0.5, 0.0),))  # d = 0.5


def _growing_net():
    """A half-slope arc, then six affine arcs of gain 1.5: level n has gain
    0.5 * 1.5^(n - 1), so the network is not stable."""
    net = series(identity_dag(3), ActivationAffine(HALF_SLOPE, np.eye(3)))
    for _ in range(6):
        net = series(net, Affine(1.5 * np.eye(3)))
    return net


def test_affine_arcs_count_their_own_gain_when_d_is_below_one():
    xs = np.random.default_rng(51).uniform(0.1, 2.0, (40, 3))
    growing = _growing_net()
    report = certify(growing)
    assert report.d == 0.5 and not report.certified
    # spectral norms are upper bounds within a few ulps of 1.5
    exact = [1.0] + [0.5 * 1.5**k for k in range(7)]
    assert all(e <= c <= e * (1.0 + 1e-13) for c, e in zip(report.certified_C, exact))
    sums = [e.sum for e in report.level_sums]
    assert sums[0] == 0.5 and all(1.5 <= v <= 1.5 * (1.0 + 1e-13) for v in sums[1:])
    result = soundness_check(growing, xs)
    assert result.ok, result.violations
    assert result.gain_curve.gains[-1] > 5.6
    # an affine arc of gain 3 first: it counts 3, not d * 3
    first = series(series(identity_dag(3), Affine(3.0 * np.eye(3))), ActivationAffine(HALF_SLOPE, np.eye(3)))
    report = certify(first)
    assert report.stable_from == 2
    assert all(e <= c <= e * (1.0 + 1e-13) for c, e in zip(report.certified_C, (1.0, 3.0, 1.5)))
    result = soundness_check(first, xs)
    assert result.ok, result.violations


def test_rescale_counts_affine_arcs_at_their_own_gain_when_d_is_below_one():
    # level 2 is the concat of two half-slope channels: its two identity
    # arcs count 1 each, not d = 0.5 each, so no weight can bring it to one
    left = series(identity_dag(2), ActivationAffine(HALF_SLOPE, np.eye(2)))
    right = series(identity_dag(2), ActivationAffine(HALF_SLOPE, 0.5 * np.eye(2)))
    net = series(series(concatenate([left, right]), Affine(1.5 * np.eye(4))), ActivationAffine(HALF_SLOPE, np.eye(4)))
    with pytest.raises(ValueError, match="unit arc contributions"):
        rescale_to_stability(net)
    tight = series(series(identity_dag(2), Affine(3.0 * np.eye(2))), ActivationAffine(HALF_SLOPE, np.eye(2)))
    scaled = rescale_to_stability(tight)
    # the affine arc is scaled to norm one, not to the 2 that d * 3 <= 1 would allow
    assert abs(certify(scaled).level_sums[0].sum - 1.0) <= 1e-12
    assert abs(scaled.arcs[0].elem.weight[0, 0] - 1.0) <= 1e-12


def _random_cpwl_net(rng):
    """Parallel chains of affine, identity and CPWL arcs with one random
    spec, concatenated and continued; its slopes reach 2, so d may fall
    below one."""
    spec = random_cpwl_spec(rng)
    dim = int(rng.integers(1, 4))

    def grow(net, arcs):
        for _ in range(arcs):
            n_in, n_out = net.output_dim, int(rng.integers(1, 4))
            w = rng.uniform(0.2, 1.5) * rng.standard_normal((n_out, n_in))
            kind = int(rng.integers(0, 4))
            if kind == 0:
                elem = Affine(w, rng.standard_normal(n_out))
            elif kind == 1:
                elem = Linear(w)
            elif kind == 2:
                elem = Activation(spec, n_in)
            else:
                elem = ActivationAffine(spec, w, rng.standard_normal(n_out))
            net = series(net, elem)
        return net

    first = series(identity_dag(dim), Activation(spec, dim))  # one nonlinearity at least
    chains = [first] + [grow(identity_dag(dim), int(rng.integers(1, 4))) for _ in range(int(rng.integers(0, 3)))]
    chains[0] = grow(chains[0], int(rng.integers(0, 3)))
    net = concatenate(chains) if len(chains) > 1 else chains[0]
    return grow(net, int(rng.integers(0, 3)))


def test_one_pass_certificate_matches_the_oracle_on_random_cpwl_graphs():
    # random slopes put d below and above one, where arcs without a
    # nonlinearity count max(d, 1) and the others d
    rng = np.random.default_rng(56)
    bounds = []
    for _ in range(40):
        net = _random_cpwl_net(rng)
        bounds.append(certify(net).d)
        _assert_matches_oracles(net, rng.standard_normal((5, net.input_dim)))
    assert sum(d < 1.0 for d in bounds) >= 5 and sum(d > 1.0 for d in bounds) >= 5


def test_certified_values_bound_the_pair_gain_at_every_level():
    rng = np.random.default_rng(52)
    below_one = 0
    for _ in range(60):
        net = _random_cpwl_net(rng)
        report = certify(net)
        below_one += report.d < 1.0
        xs = 3.0 * rng.standard_normal((60, net.input_dim))
        gains = empirical_gain(net, xs).gains
        assert len(gains) == len(report.certified_C)
        for lev, (gain, bound) in enumerate(zip(gains, report.certified_C)):
            # C(n) is formed in round-to-nearest, so a tight gain may pass it by ulps
            assert gain <= bound * (1.0 + 1e-12) + 1e-300, (lev, gain, bound, report.d)
    assert below_one >= 8


def test_soundness_check_compares_each_level_with_its_own_bound():
    net = series(series(identity_dag(2), Affine(3.0 * np.eye(2))), Activation(relu_spec(), 2))
    xs = np.random.default_rng(53).uniform(0.5, 1.5, (20, 2))
    report = certify(net)
    assert soundness_check(net, xs, report=report).ok
    # C(2) lowered below the level-2 gain of 3; the running maximum, C(1) = 3, would hide it
    low = replace(report, certified_C=(1.0, report.certified_C[1], 1.0))
    result = soundness_check(net, xs, report=low)
    assert [v[0] for v in result.violations] == [2]
    assert result.violations[0][2] == 1.0


def _expected_selection_norm(cols):
    k = int(np.bincount(cols).max())
    root = np.sqrt(float(k))
    return float(root) if int(np.sqrt(k)) ** 2 == k else float(np.nextafter(root, np.inf))


def test_selection_norms_are_exact_square_roots_of_column_multiplicity():
    rng = np.random.default_rng(54)
    for _ in range(40):
        rows, cols_n = int(rng.integers(1, 40)), int(rng.integers(1, 12))
        cols = rng.integers(0, cols_n, rows)
        w = np.zeros((rows, cols_n))
        w[np.arange(rows), cols] = 1.0
        value = spectral_norm(w)
        assert value >= svd_spectral_norm(w)
        assert value == _expected_selection_norm(cols)
        net = series(identity_dag(cols_n), Linear(w))
        assert stability._arc_norms(net, "spectral")[0] == value
        # a -0.0 or any other entry makes it a general matrix: the eigensolve bound
        w[0, (cols[0] + 1) % cols_n] = -0.0 if cols_n > 1 else 0.0
        if cols_n > 1:
            assert spectral_norm(w) >= svd_spectral_norm(w)


@pytest.mark.parametrize("norm", [spectral_norm, svd_spectral_norm], ids=["spectral_norm", "svd_spectral_norm"])
def test_spectral_norm_of_an_empty_matrix_is_zero(norm):
    assert norm(np.zeros((0, 3))) == 0.0
