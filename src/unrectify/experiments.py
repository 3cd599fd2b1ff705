"""Seeded, reproducible experiment runners behind the CLI.

Each runner builds its network and samples from ``numpy``'s seeded PCG64
generator (``default_rng``), computes everything through library calls, and
emits CSV files with stable headers and ``%.17g`` float formatting, so a
fixed seed yields byte-identical outputs on a platform.

Desk-scale defaults (5,000 fusion samples, 500 images) keep runs in the
minutes range; flags raise them to the full-size settings.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .builders import (
    build_fusion_module,
    build_fusion_stack,
    build_lenet5,
    identity_dag,
    lenet5_probe_nodes,
)
from .basis import PoolSpec, relu_spec
from .elements import Activation
from .graph import Dag, forward_batch, series
from .idx import load_idx
from .partition import (
    PartitionStats,
    count_regions_2d,
    fusion_partition_bound,
    partition_stats,
)
from .stability import GainCurve, StabilityReport, certify, empirical_gain, rescale_to_stability

__all__ = [
    "ExperimentConfig",
    "FusionStackResult",
    "StabilityGainResult",
    "LenetPartitionResult",
    "Regions2dResult",
    "run_fusion_stack",
    "run_stability_gain",
    "run_lenet_partition",
    "run_regions_2d",
    "STATS_HEADER",
    "LEVEL_HEADER",
    "GAIN_HEADER",
    "REGIONS_HEADER",
]

STATS_HEADER = (
    "layer_or_node,channel,region_count,max_points_per_region,"
    "max_intra_region_distance,multi_member_point_count"
)
LEVEL_HEADER = "level,sum,frob_sum,certified_C"
GAIN_HEADER = "level,max_gain"
REGIONS_HEADER = "network,region_count,product_bound"

EXPERIMENTS = ("fusion_stack", "lenet_partition", "stability_gain", "regions_2d")


@dataclass
class ExperimentConfig:
    """One experiment's settings, defaults included; the CLI passes only the
    flags given.  Left ``None``, ``dims`` is 20 for ``stability_gain`` and 14
    otherwise, and ``sample_count`` is 2,000 for ``stability_gain``, 500
    images for ``lenet_partition`` and 5,000 otherwise."""

    experiment: str
    dims: Optional[int] = None
    layer_count: int = 5
    sample_count: Optional[int] = None
    seed: int = 0
    pair_budget: int = 2_000_000
    grid_n: int = 2001
    output_dir: str = "out"

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.dims is None:
            self.dims = 20 if self.experiment == "stability_gain" else 14
        if self.sample_count is None:
            self.sample_count = {"stability_gain": 2000, "lenet_partition": 500}.get(self.experiment, 5000)
        for name in ("dims", "layer_count", "sample_count", "pair_budget", "grid_n"):
            if (value := getattr(self, name)) < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


def _write_csv(path: Path, header: str, rows: Sequence[Sequence]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [header]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", newline="\n")
    return path


def _stats_rows(entries: Sequence[tuple[str, str, PartitionStats]]) -> list[list]:
    return [
        [
            where,
            channel,
            s.region_count,
            s.max_points_per_region,
            s.max_intra_region_distance,
            s.multi_member_point_count,
        ]
        for where, channel, s in entries
    ]


def _exact_cap(n_samples: int, pair_budget: int) -> Optional[int]:
    """Pair cap for intra-region sweeps: exact at desk scale, bounded above it.

    Subsampled maxima are only lower estimates, which can invert the
    refinement inequalities the experiments are meant to exhibit, so the
    sweep stays exact whenever the whole sample set fits the budget."""
    all_pairs = n_samples * (n_samples - 1) // 2
    if all_pairs <= max(pair_budget, 10_000_000):
        return None
    return 20_000_000


def _fusion_inputs(cfg: ExperimentConfig) -> tuple[list[tuple[np.ndarray, ...]], np.ndarray]:
    """Seeded standard-normal (W_top, b_top, W_bottom, b_bottom) per layer and
    standard-normal sample rows, the inputs of both fusion experiments."""
    wseq, sseq = np.random.SeedSequence(cfg.seed).spawn(2)
    wrng = np.random.default_rng(wseq)
    d = cfg.dims
    layer_weights = [
        (
            wrng.standard_normal((d, d)),
            wrng.standard_normal(d),
            wrng.standard_normal((d, d)),
            wrng.standard_normal(d),
        )
        for _ in range(cfg.layer_count)
    ]
    return layer_weights, np.random.default_rng(sseq).standard_normal((cfg.sample_count, d))


@dataclass
class FusionStackResult:
    dag: Dag
    stats: dict[tuple[int, str], PartitionStats]
    csv_path: Path


def run_fusion_stack(cfg: ExperimentConfig) -> FusionStackResult:
    """Partition statistics per channel per layer of a two-channel fusion stack.

    Weights and biases are standard normal; inputs are standard normal
    rows.  Channels are probed at the top, bottom, and fused node of every
    layer.
    """
    layer_weights, samples = _fusion_inputs(cfg)
    dag = build_fusion_stack(layer_weights, mode="probe")
    _, trace = forward_batch(dag, samples)
    cap = _exact_cap(cfg.sample_count, cfg.pair_budget)

    stats: dict[tuple[int, str], PartitionStats] = {}
    entries = []
    for j in range(1, cfg.layer_count + 1):
        for channel in ("top", "bottom", "fusion"):
            node = dag.labels[f"layer{j}.{channel}"]
            s = partition_stats(dag, node, samples, pair_cap=cap, seed=cfg.seed, trace=trace)
            stats[(j, channel)] = s
            entries.append((f"layer{j}", channel, s))
    path = _write_csv(Path(cfg.output_dir) / "fusion_stats.csv", STATS_HEADER, _stats_rows(entries))
    return FusionStackResult(dag=dag, stats=stats, csv_path=path)


@dataclass
class StabilityGainResult:
    dag: Dag
    rescaled: Dag
    report: StabilityReport
    rescaled_report: StabilityReport
    gain: GainCurve
    rescaled_gain: GainCurve
    csv_paths: dict[str, Path]


def run_stability_gain(cfg: ExperimentConfig) -> StabilityGainResult:
    """Gain curves and certificates for the fusion stack, raw and rescaled.

    Uses the compact stack encoding (both channel arcs straight into each
    layer's summation node) so the per-level weight-norm sums are the two
    channel norms, the quantity the certificate constrains.  The rescaled
    run scales weights to bring Frobenius-norm level sums within budget.
    """
    layer_weights, samples = _fusion_inputs(cfg)
    dag = build_fusion_stack(layer_weights, mode="compact")

    report = certify(dag)
    gain = empirical_gain(dag, samples, pair_budget=cfg.pair_budget, seed=cfg.seed)
    rescaled = rescale_to_stability(dag, use_frobenius=True)
    rescaled_report = certify(rescaled)
    rescaled_gain = empirical_gain(rescaled, samples, pair_budget=cfg.pair_budget, seed=cfg.seed)

    out = Path(cfg.output_dir)
    paths = {}

    def level_rows(rep: StabilityReport):
        return [
            [entry.level, entry.sum, entry.frob_sum, rep.certified_C[entry.level]]
            for entry in rep.level_sums
        ]

    def gain_rows(curve: GainCurve):
        return [[lev, g] for lev, g in zip(curve.levels, curve.gains)]

    paths["levels_unscaled"] = _write_csv(out / "levels_unscaled.csv", LEVEL_HEADER, level_rows(report))
    paths["levels_rescaled"] = _write_csv(out / "levels_rescaled.csv", LEVEL_HEADER, level_rows(rescaled_report))
    paths["gain_unscaled"] = _write_csv(out / "gain_unscaled.csv", GAIN_HEADER, gain_rows(gain))
    paths["gain_rescaled"] = _write_csv(out / "gain_rescaled.csv", GAIN_HEADER, gain_rows(rescaled_gain))
    return StabilityGainResult(
        dag=dag,
        rescaled=rescaled,
        report=report,
        rescaled_report=rescaled_report,
        gain=gain,
        rescaled_gain=rescaled_gain,
        csv_paths=paths,
    )


@dataclass
class LenetPartitionResult:
    dag: Dag
    stats: dict[int, PartitionStats]
    per_node: dict[int, list[PartitionStats]]
    csv_path: Path
    synthetic: bool


def run_lenet_partition(
    cfg: ExperimentConfig,
    mnist_dir: Optional[str] = None,
    synthetic: bool = False,
    subset: Optional[int] = 500,
) -> LenetPartitionResult:
    """Partition statistics at the four probe levels of the LeNet-5 graph.

    Levels 3 and 7 hold parallel channels, so their row reports the maximum
    of each statistic over the channels; levels 4 and 8 are the fusing
    concatenations.  Weights are seeded random (the refinement behaviour is
    architectural).  Without IDX files, seeded standard-normal images stand
    in, with a warning.  A ``subset`` of 0 or None keeps every image.
    """
    if subset is not None and subset < 0:
        raise ValueError(f"subset must be at least 0, got {subset}")
    seeds = np.random.SeedSequence(cfg.seed).spawn(2)
    used_synthetic = False
    if mnist_dir and not synthetic:
        base = Path(mnist_dir)
        data = load_idx(base / "train-images-idx3-ubyte", base / "train-labels-idx1-ubyte")
        images = data.images
    else:
        if not synthetic:
            warnings.warn("no dataset directory given; using synthetic standard-normal images")
        used_synthetic = True
        count = subset if subset else cfg.sample_count
        images = np.random.default_rng(seeds[1]).standard_normal((count, 28 * 28))
    if subset:
        images = images[:subset]

    dag = build_lenet5(seed=cfg.seed)
    probes = lenet5_probe_nodes(dag)
    _, trace = forward_batch(dag, images)
    cap = _exact_cap(len(images), cfg.pair_budget)

    stats: dict[int, PartitionStats] = {}
    per_node: dict[int, list[PartitionStats]] = {}
    entries = []
    for level in (3, 4, 7, 8):
        node_stats = [
            partition_stats(dag, node, images, pair_cap=cap, seed=cfg.seed, trace=trace)
            for node in probes[level]
        ]
        per_node[level] = node_stats
        merged = PartitionStats(
            region_count=max(s.region_count for s in node_stats),
            max_points_per_region=max(s.max_points_per_region for s in node_stats),
            max_intra_region_distance=max(s.max_intra_region_distance for s in node_stats),
            multi_member_point_count=max(s.multi_member_point_count for s in node_stats),
            distance_pairs_subsampled=any(s.distance_pairs_subsampled for s in node_stats),
        )
        stats[level] = merged
        channel = "channels_max" if len(node_stats) > 1 else "concat"
        entries.append((f"level{level}", channel, merged))
    path = _write_csv(Path(cfg.output_dir) / "lenet_stats.csv", STATS_HEADER, _stats_rows(entries))
    return LenetPartitionResult(
        dag=dag, stats=stats, per_node=per_node, csv_path=path, synthetic=used_synthetic
    )


@dataclass
class Regions2dResult:
    counts: dict[str, int]
    bound: int
    channel_counts: tuple[int, int]
    csv_path: Path


def fusion_example_2d() -> Dag:
    """Two rectified linear channels over the plane, fused by summation.

    The four boundary lines pass through the origin with distinct
    directions, so the fused partition is a central arrangement.
    """
    m1 = np.array([[1.0, 0.0], [0.0, 1.0]])
    m2 = np.array([[1.0, 1.0], [1.0, -1.0]])
    return build_fusion_module([m1, m2])


def run_regions_2d(cfg: ExperimentConfig) -> Regions2dResult:
    """Exact grid-oracle region counts for the canonical 2-D activations."""
    relu_net = series(identity_dag(2), Activation(relu_spec(), 2))
    max2_net = series(identity_dag(2), Activation(PoolSpec(2, rectified=False), 2))
    maxlu_net = series(identity_dag(2), Activation(PoolSpec(2, rectified=True), 2))
    fusion = fusion_example_2d()

    counts = {
        "relu": count_regions_2d(relu_net, grid_n=cfg.grid_n),
        "max2": count_regions_2d(max2_net, grid_n=cfg.grid_n),
        "maxlu2": count_regions_2d(maxlu_net, grid_n=cfg.grid_n),
        "fusion": count_regions_2d(fusion, grid_n=cfg.grid_n),
    }
    ch = (
        count_regions_2d(fusion, grid_n=cfg.grid_n, node_id=fusion.labels["channel0"]),
        count_regions_2d(fusion, grid_n=cfg.grid_n, node_id=fusion.labels["channel1"]),
    )
    bound = fusion_partition_bound(ch)

    rows = [
        ["relu", counts["relu"], ""],
        ["max2", counts["max2"], ""],
        ["maxlu2", counts["maxlu2"], ""],
        ["fusion", counts["fusion"], bound],
    ]
    path = _write_csv(Path(cfg.output_dir) / "regions_2d.csv", REGIONS_HEADER, rows)
    return Regions2dResult(counts=counts, bound=bound, channel_counts=ch, csv_path=path)
