"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""
import time

import numpy as np
import pytest

from conftest import cpwl_reference, longest_path_levels, random_cpwl_spec, random_valid_dag
from unrectify import (
    Activation,
    PoolSpec,
    abs_spec,
    build_demo_network,
    build_fusion_stack,
    build_lenet5,
    build_resnet_module,
    build_series_stack,
    certify,
    check_refinement,
    count_regions_2d,
    cpwl_eval,
    forward_batch,
    hard_tanh_spec,
    identity_dag,
    leaky_relu_spec,
    lenet5_probe_nodes,
    levels,
    maxpool_as_relu_network,
    relu_spec,
    resnet_link_condition,
    series,
    soundness_check,
    spectral_norm,
    svd_spectral_norm,
    unrectify,
)
from unrectify.experiments import (
    ExperimentConfig,
    fusion_example_2d,
    run_fusion_stack,
    run_lenet_partition,
    run_regions_2d,
    run_stability_gain,
)


class report:
    """Prints '[criterion NN] PASS/FAIL - desc' when the block exits."""

    def __init__(self, num: int, desc: str):
        self.num = num
        self.desc = desc

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\n[criterion {self.num:02d}] {status} - {self.desc}")
        return False


@pytest.fixture(scope="module")
def fusion_run(tmp_path_factory):
    cfg = ExperimentConfig(
        experiment="fusion_stack",
        dims=14,
        layer_count=5,
        sample_count=5000,
        seed=7,
        output_dir=str(tmp_path_factory.mktemp("fusion")),
    )
    return run_fusion_stack(cfg)


def _structured_images(rng, count=500, prototypes=50):
    """Prototype images plus patch noise at mixed amplitudes, so samples
    collide on activation codes at coarse probes and split at finer ones."""
    protos = rng.standard_normal((prototypes, 784))
    images = np.empty((count, 784))
    for i in range(count):
        base = protos[i % prototypes].copy()
        amp = 10.0 ** rng.uniform(-4, 0)
        r0, c0 = rng.integers(0, 23, size=2)
        patch = np.zeros((28, 28))
        patch[r0 : r0 + 5, c0 : c0 + 5] = rng.standard_normal((5, 5))
        images[i] = base + amp * patch.reshape(-1)
    return images


@pytest.fixture(scope="module")
def lenet_setup():
    dag = build_lenet5(seed=11)
    images = _structured_images(np.random.default_rng(11))
    _, trace = forward_batch(dag, images)
    return dag, images, trace


def test_criterion_01_exact_2d_region_counts():
    started = time.perf_counter()
    relu_net = series(identity_dag(2), Activation(relu_spec(), 2))
    maxlu_net = series(identity_dag(2), Activation(PoolSpec(2, rectified=True), 2))
    max2_net = series(identity_dag(2), Activation(PoolSpec(2, rectified=False), 2))
    with report(1, "grid oracle: relu 4, maxlu2 3, max2 2, stable under refinement"):
        for net, expected in ((relu_net, 4), (maxlu_net, 3), (max2_net, 2)):
            assert count_regions_2d(net, box=(-5, 5), grid_n=2001) == expected
            assert count_regions_2d(net, box=(-5, 5), grid_n=4001) == expected
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_02_fusion_example_eight_regions():
    started = time.perf_counter()
    fusion = fusion_example_2d()
    with report(2, "two-channel fusion: 8 regions, above channels, below product bound"):
        count = count_regions_2d(fusion, box=(-5, 5), grid_n=2001)
        ch0 = count_regions_2d(fusion, box=(-5, 5), grid_n=2001, node_id=fusion.labels["channel0"])
        ch1 = count_regions_2d(fusion, box=(-5, 5), grid_n=2001, node_id=fusion.labels["channel1"])
        assert count == 8
        assert ch0 == 4 and ch1 == 4
        assert count >= ch0 and count >= ch1
        assert count <= ch0 * ch1 == 16
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_03_maxpool_network_equivalence():
    with report(3, "max-pool networks equal direct max on 1e5 inputs per block"):
        for block in (2, 4, 5, 8):
            net = maxpool_as_relu_network(block)
            xs = np.random.default_rng(block).standard_normal((100_000, block))
            ys, _ = forward_batch(net, xs)
            assert np.abs(ys[:, 0] - xs.max(axis=1)).max() <= 1e-12


def test_criterion_04_unrectify_and_reconstruction():
    rng = np.random.default_rng(4)
    xs = np.linspace(-6.0, 6.0, 20_001)
    named = {
        "relu": (relu_spec(), np.maximum(xs, 0.0)),
        "abs": (abs_spec(), np.abs(xs)),
        "leaky": (leaky_relu_spec(0.1), np.where(xs > 0, xs, 0.1 * xs)),
        "hard_tanh": (hard_tanh_spec(), np.clip(xs, -1.0, 1.0)),
    }
    with report(4, "activation reconstruction and un-rectifying identity at 1e-12"):
        for name, (spec, closed_form) in named.items():
            assert np.abs(cpwl_eval(spec, xs) - closed_form).max() <= 1e-12, name
            pattern = unrectify(spec, xs)
            recon = pattern.entries * xs + pattern.offsets
            assert np.abs(recon - closed_form).max() <= 1e-12, name
        # pieces of these cross the origin, so the bare linear identity holds
        for name in ("relu", "abs", "leaky"):
            spec, closed_form = named[name]
            pattern = unrectify(spec, xs)
            assert np.abs(pattern.entries * xs - closed_form).max() <= 1e-12, name
        for k in range(20):
            spec = random_cpwl_spec(rng)
            grid = rng.uniform(-8, 8, size=2000)
            ref = np.array([cpwl_reference(spec, float(x)) for x in grid])
            assert np.abs(cpwl_eval(spec, grid) - ref).max() <= 1e-12
            pattern = unrectify(spec, grid)
            assert np.abs(pattern.entries * grid + pattern.offsets - ref).max() <= 1e-12


def test_criterion_05_refinement_zero_violations(fusion_run, lenet_setup):
    started = time.perf_counter()
    with report(5, "refinement holds on demo graph, fusion stack, and probe levels"):
        demo = build_demo_network()
        xs = np.random.default_rng(5).standard_normal((10_000, 3))
        for fine, coarse in (("a", "c"), ("a", "b"), ("b", "c")):
            rep = check_refinement(demo, demo.labels[fine], demo.labels[coarse], xs)
            assert rep.ok, rep.violations

        dag = fusion_run.dag
        samples = np.random.default_rng(7).standard_normal((5000, 14))
        for j in range(1, 5):
            rep = check_refinement(
                dag, dag.labels[f"layer{j + 1}.fusion"], dag.labels[f"layer{j}.fusion"], samples
            )
            assert rep.ok, rep.violations
        for channel in ("top", "bottom"):
            rep = check_refinement(
                dag, dag.labels["layer1.fusion"], dag.labels[f"layer1.{channel}"], samples
            )
            assert rep.ok, rep.violations

        lenet, images, trace = lenet_setup
        probes = lenet5_probe_nodes(lenet)
        for b in probes[3]:
            assert check_refinement(lenet, probes[4][0], b, images, trace=trace).ok
        for a in probes[7]:
            assert check_refinement(lenet, a, probes[4][0], images, trace=trace).ok
        for b in probes[7]:
            assert check_refinement(lenet, probes[8][0], b, images, trace=trace).ok
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_lenet_probe_stats_monotone(lenet_setup):
    # not a numbered criterion: the probe-level statistics move the way the
    # refinement guarantees they must (counts up, occupancy and spread down)
    from unrectify import partition_stats

    dag, images, trace = lenet_setup
    probes = lenet5_probe_nodes(dag)
    merged = {}
    for level in (3, 4, 7, 8):
        per = [partition_stats(dag, n, images, trace=trace) for n in probes[level]]
        merged[level] = (
            max(s.region_count for s in per),
            max(s.max_points_per_region for s in per),
            max(s.max_intra_region_distance for s in per),
        )
    assert merged[3][1] > 1, "structured images should share coarse codes"
    for a, b in ((3, 4), (4, 7), (7, 8)):
        assert merged[b][0] >= merged[a][0]
        assert merged[b][1] <= merged[a][1]
        assert merged[b][2] <= merged[a][2] + 1e-12


def test_criterion_06_fusion_stack_qualitative(fusion_run):
    stats = fusion_run.stats
    with report(6, "fusion channel is finer per layer; stats monotone across layers"):
        for j in range(1, 6):
            fused = stats[(j, "fusion")]
            for channel in ("top", "bottom"):
                side = stats[(j, channel)]
                assert fused.region_count >= side.region_count, j
                assert fused.max_intra_region_distance <= side.max_intra_region_distance + 1e-12, j
                assert fused.multi_member_point_count <= side.multi_member_point_count, j
        for j in range(1, 5):
            assert stats[(j + 1, "fusion")].region_count >= stats[(j, "fusion")].region_count
            assert (
                stats[(j + 1, "fusion")].max_intra_region_distance
                <= stats[(j, "fusion")].max_intra_region_distance + 1e-12
            )


def test_criterion_07_gain_curves(tmp_path):
    started = time.perf_counter()
    cfg = ExperimentConfig(
        experiment="stability_gain",
        dims=20,
        layer_count=5,
        sample_count=2000,
        seed=3,
        output_dir=str(tmp_path),
    )
    result = run_stability_gain(cfg)
    with report(7, "unscaled gain grows; rescaled sums within budget and gain bounded"):
        raw = result.gain.gains[1:]
        increases = sum(1 for a, b in zip(raw, raw[1:]) if b > a)
        assert increases >= 3, raw
        for entry in result.rescaled_report.level_sums:
            assert entry.frob_sum <= 1.0 + 1e-12
            assert entry.sum <= 1.0 + 1e-12
        m = result.rescaled_report.stable_from
        assert m is not None
        gains = result.rescaled_gain.gains
        for n in range(m, len(gains)):
            assert gains[n] <= max(gains[:n]) + 1e-9, (n, gains)
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def _random_certified_network(rng):
    kind = int(rng.integers(0, 3))
    dim = int(rng.integers(3, 7))
    if kind == 0:
        depth = int(rng.integers(2, 6))
        mats = []
        for _ in range(depth):
            w = rng.standard_normal((dim, dim))
            mats.append(w * (rng.uniform(0.2, 0.95) / svd_spectral_norm(w)))
        return build_series_stack(mats)
    if kind == 1:
        layers = []
        for _ in range(int(rng.integers(1, 5))):
            budget = rng.uniform(0.3, 0.95)
            w1 = rng.standard_normal((dim, dim))
            w2 = rng.standard_normal((dim, dim))
            w1 *= budget * 0.5 / svd_spectral_norm(w1)
            w2 *= budget * 0.5 / svd_spectral_norm(w2)
            layers.append((w1, rng.standard_normal(dim), w2, rng.standard_normal(dim)))
        return build_fusion_stack(layers, mode="compact")
    w1 = rng.standard_normal((dim, dim))
    return build_resnet_module(w1, np.zeros((dim, dim)), b1=rng.standard_normal(dim),
                               outer_activation=False)


def test_criterion_08_certificate_soundness():
    rng = np.random.default_rng(8)
    with report(8, "empirical gain never beats the certified bound on 20 networks"):
        for _ in range(20):
            dag = _random_certified_network(rng)
            stability = certify(dag)
            assert stability.certified
            samples = rng.standard_normal((142, dag.input_dim))  # 10011 pairs
            result = soundness_check(dag, samples, report=stability, tolerance=1e-6)
            assert result.ok, result.violations


def test_criterion_09_residual_block_condition():
    rng = np.random.default_rng(9)
    with report(9, "addition-node condition certifies only at zero branch weight"):
        w1 = rng.standard_normal((4, 4))
        for norm in (0.5, 2.0):
            w2 = rng.standard_normal((4, 4))
            w2 *= norm / svd_spectral_norm(w2)
            block = build_resnet_module(w1, w2, outer_activation=False)
            assert not certify(block).certified
        zero_block = build_resnet_module(w1, np.zeros((4, 4)), outer_activation=False)
        assert certify(zero_block).certified

        cases = [
            (0.5 * np.eye(4), np.eye(4)),        # ||I - W2 W1|| = 0.5 -> stable flag
            (np.eye(4), 3.0 * np.eye(4)),        # ||I - W2 W1|| = 2.0 -> not
            (w1, rng.standard_normal((4, 4))),
        ]
        for a, b in cases:
            flag, value = resnet_link_condition(a, b)
            oracle = float(np.linalg.svd(np.eye(4) - b @ a, compute_uv=False)[0])
            assert abs(value - oracle) <= 1e-8
            assert flag == (oracle <= 1.0)


def test_criterion_10_level_contiguity():
    with report(10, "100 random graphs have contiguous level sets"):
        for seed in range(100):
            dag = random_valid_dag(np.random.default_rng(seed))
            lvl = levels(dag)
            attained = sorted(set(lvl.values()))
            assert attained == list(range(attained[-1] + 1)), seed
            oracle = longest_path_levels(dag)
            assert [lvl[i] for i in range(len(dag.nodes))] == oracle


def test_criterion_11_spectral_norm_oracle():
    rng = np.random.default_rng(11)
    with report(11, "spectral norm matches the SVD oracle to 1e-8 on 50 matrices"):
        for _ in range(50):
            shape = (int(rng.integers(1, 65)), int(rng.integers(1, 65)))
            w = rng.standard_normal(shape)
            assert abs(spectral_norm(w) - svd_spectral_norm(w)) <= 1e-8


def test_criterion_12_deterministic_outputs(tmp_path):
    def run_all(out_dir):
        paths = []
        cfg = ExperimentConfig(
            experiment="fusion_stack", dims=5, layer_count=2, sample_count=300,
            seed=9, output_dir=str(out_dir / "fusion"),
        )
        paths.append(run_fusion_stack(cfg).csv_path)
        cfg = ExperimentConfig(
            experiment="stability_gain", dims=6, layer_count=3, sample_count=150,
            seed=9, output_dir=str(out_dir / "gain"),
        )
        paths.extend(sorted(run_stability_gain(cfg).csv_paths.values()))
        cfg = ExperimentConfig(
            experiment="lenet_partition", seed=9, output_dir=str(out_dir / "lenet"),
        )
        paths.append(run_lenet_partition(cfg, synthetic=True, subset=30).csv_path)
        cfg = ExperimentConfig(
            experiment="regions_2d", grid_n=201, output_dir=str(out_dir / "regions"),
        )
        paths.append(run_regions_2d(cfg).csv_path)
        return paths

    with report(12, "repeated seeded runs emit byte-identical CSV files"):
        first = run_all(tmp_path / "a")
        second = run_all(tmp_path / "b")
        assert len(first) == len(second) == 7
        for pa, pb in zip(first, second):
            assert pa.name == pb.name
            assert pa.read_bytes() == pb.read_bytes(), pa.name
