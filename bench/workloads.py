"""The four benchmark workloads and the checks on their outputs.

Each workload mirrors one experiment runner or CLI command: it calls the
package's public functions in the runner's order with the runner's
arguments, split into three timed phases.

* ``setup``: build or load the networks and inputs (``setup_s``).
* ``analyse``: everything from ready inputs to the results (``analysis_s``).
  It is a generator that yields between its stages.
* ``queries``: single-input ``region_code`` calls, each timed alone
  (``query_p50_ms``, ``query_p90_ms``).  ``run_pass`` runs them in blocks
  between the analysis stages, so that the query samples spread over the
  whole run instead of one burst a pass: the host's speed changes in
  phases of seconds, and a burst lands in one phase.

``prepare`` runs once per process, untimed: it writes the input files and
computes the independent reference values of ``oracles``.  ``check`` runs
after every pass, untimed, and records each checked result as one
operation.  The package is reached through module attributes at call time
(``ur.partition_stats``), so the tracer's wrappers see every call.
"""
from __future__ import annotations

import gc
import struct
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles

ur = None  # the unrectify package, bound by bind_package()
SUM_TOLERANCE = 1e-12  # the certificate's own per-level slack
REL = 1e-9  # distances and affine pieces, relative
SVD_REL = 1e-12  # norm sums against the SVD / Frobenius oracle, relative
GAIN_SLACK = 1e-6  # gain against the certified bound, as soundness_check uses
POPULATION_SEED = 0  # certify's networks: fixed, see Certify
LENET_SEED = 0  # LeNet-5 weights of lenet and certify, as criterion 05 fixes its own


def bind_package(module) -> None:
    global ur
    ur = module


class Tally:
    """Operations attempted, kept-fault failures, and any other failed check.

    A failed check is a wrong output and makes the run incorrect, except
    the one named fault kept on purpose (``fault=True``): it is counted in
    ``failed`` and leaves the run correct.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, ok: bool, what: str, fault: bool = False) -> None:
        self.attempted += 1
        if ok:
            return
        if fault:
            self.failed += 1
        else:
            self.problems.append(what)


def rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------- checks
# Plain functions over plain numbers, so the self-check can feed them
# corrupted results and see them rejected.


def check_stats(tally: Tally, where: str, stats, ref: dict) -> None:
    """Partition statistics against an independent re-count."""
    ok = (
        stats.region_count == ref["region_count"]
        and stats.max_points_per_region == ref["max_points_per_region"]
        and stats.multi_member_point_count == ref["multi_member_point_count"]
        and rel_close(stats.max_intra_region_distance, ref["max_intra_region_distance"], REL)
        and not stats.distance_pairs_subsampled
    )
    tally.op(ok, f"{where}: stats {stats} != re-count {ref}")


def check_gain(tally: Tally, where: str, gains, certified_c, pair_ratios, subsampled: bool) -> None:
    """Gain curve: level 0 is one, every sampled pair ratio is reached, and
    no level beats the running certified bound."""
    ok = not subsampled and gains[0] == 1.0
    running = 0.0
    for lev, g in enumerate(gains):
        running = max(running, certified_c[lev])
        ok = ok and g >= pair_ratios[lev] * (1.0 - SVD_REL) and g <= running + GAIN_SLACK
    tally.op(ok, f"{where}: gains {list(gains)} vs pair ratios {list(pair_ratios)}, C {list(certified_c)}")


def check_level_sums(tally: Tally, where: str, spectral, frobenius, stable_from, svd_ref, frob_ref) -> None:
    """Certificate level sums against SVD and Frobenius sums computed apart.

    A spectral sum below the SVD sum, or a "certified" verdict that the SVD
    sums do not support, is the kept power-iteration fault: counted as a
    failed operation.  A wrong Frobenius sum or level count is a wrong
    output.
    """
    if len(spectral) != len(svd_ref):
        tally.op(False, f"{where}: {len(spectral)} levels, expected {len(svd_ref)}")
        return
    for lev, (s, f, s_ref, f_ref) in enumerate(zip(spectral, frobenius, svd_ref, frob_ref), start=1):
        tally.op(rel_close(f, f_ref, SVD_REL), f"{where}: level {lev} frob sum {f!r} != {f_ref!r}")
        tally.op(s >= s_ref * (1.0 - SVD_REL), f"{where}: level {lev} spectral sum below SVD", fault=True)
    if stable_from is not None:
        held = all(s_ref <= 1.0 + SUM_TOLERANCE for s_ref in svd_ref[stable_from - 1 :])
        tally.op(held, f"{where}: certified from level {stable_from} against SVD sums", fault=True)
    else:
        tally.op(True, "")


def check_refinement_chain(tally: Tally, merged: dict, n_images: int, diameter: float) -> None:
    """LeNet probe levels 3 -> 4 -> 7 -> 8: counts never fall, occupancy
    and spread never grow, and nothing exceeds what the image set allows.

    Distances compare to REL: the same pair's distance can come out of the
    Gram-identity sweep 1e-10 relative apart at two levels (seen at seed 10).
    """
    levels = (3, 4, 7, 8)
    for lo, hi in zip(levels, levels[1:]):
        a, b = merged[lo], merged[hi]
        ok = (
            b.region_count >= a.region_count
            and b.max_points_per_region <= a.max_points_per_region
            and b.max_intra_region_distance <= a.max_intra_region_distance * (1.0 + REL)
        )
        tally.op(ok, f"levels {lo}->{hi}: {a} then {b}")
    for lev in levels:
        s = merged[lev]
        ok = s.region_count <= n_images and s.max_intra_region_distance <= diameter * (1.0 + REL)
        tally.op(ok, f"level {lev}: {s} against {n_images} images of diameter {diameter}")


def check_plane(tally: Tally, counts: dict, channels, bound: int, seeded: int, seeded_exact: int) -> None:
    """2-D grid counts against the analytic values of the paper's examples,
    and the seeded network's count against its exact line arrangement."""
    expected = {"relu": 4, "max2": 2, "maxlu2": 3, "fusion": 8}
    for name, want in expected.items():
        tally.op(counts[name] == want, f"plane {name}: {counts[name]} regions, expected {want}")
    tally.op(tuple(channels) == (4, 4) and bound == 16, f"plane channels {channels}, bound {bound}")
    tally.op(1 <= seeded <= seeded_exact, f"plane seeded: grid {seeded} > exact {seeded_exact}")


def merge_level(stats: list):
    """One row per LeNet probe level, as lenet-partition reports it."""
    return ur.PartitionStats(
        region_count=max(s.region_count for s in stats),
        max_points_per_region=max(s.max_points_per_region for s in stats),
        max_intra_region_distance=max(s.max_intra_region_distance for s in stats),
        multi_member_point_count=max(s.multi_member_point_count for s in stats),
        distance_pairs_subsampled=any(s.distance_pairs_subsampled for s in stats),
    )


def dag_arcs(dag):
    """(src, dst, weight or None) per arc, for the norm oracle."""
    from unrectify.elements import linear_part

    return [(a.src, a.dst, linear_part(a.elem)) for a in dag.arcs]


def check_report(tally: Tally, where: str, report, refs) -> None:
    """One certificate against (SVD, Frobenius) level sums computed apart."""
    tally.op(report.d == 1.0, f"{where}: uniform bound {report.d}, expected 1")
    check_level_sums(
        tally,
        where,
        [e.sum for e in report.level_sums],
        [e.frob_sum for e in report.level_sums],
        report.stable_from,
        *refs,
    )


def pair_cap_for(n: int):
    """The experiments' pair cap: exact up to 10M pairs, 20M above."""
    return None if n * (n - 1) // 2 <= 10_000_000 else 20_000_000


def fusion_weights(seed: int, dims: int, layers: int, samples: int):
    """The fusion experiments' seeded weights and standard-normal samples."""
    wseq, sseq = np.random.SeedSequence(seed).spawn(2)
    wrng = np.random.default_rng(wseq)
    lw = [
        (
            wrng.standard_normal((dims, dims)),
            wrng.standard_normal(dims),
            wrng.standard_normal((dims, dims)),
            wrng.standard_normal(dims),
        )
        for _ in range(layers)
    ]
    return lw, np.random.default_rng(sseq).standard_normal((samples, dims))


def run_pass(wl, tally: Tally, tracer=None, setup_min_s: float = 0.0, keep: bool = False) -> dict:
    """One whole pass: set-up, analysis and queries timed, then checked.

    Set-up repeats until ``setup_min_s`` have gone, so a set-up of a few
    milliseconds still gives a steady median; the last one is analysed.
    A traced pass sets up once.  ``keep`` returns the pass's state, result
    and answers too; otherwise they are dropped, so that passes do not
    pile up in ``peak_rss_mb``.
    """
    gc.collect()
    phase = tracer.enter if tracer is not None else (lambda name: None)
    setups = []
    phase("setup")
    while not setups or (sum(setups) < setup_min_s and tracer is None):
        t0 = time.perf_counter()
        state = wl.setup()
        setups.append(time.perf_counter() - t0)
    calls = wl.queries(state)
    size = -(-len(calls) // (wl.STAGES + 1))
    stages = wl.analyse(state)
    analysis, answers, latencies = 0.0, [], []
    result = None
    while result is None:
        phase("analyse")
        t0 = time.perf_counter()
        try:
            next(stages)
        except StopIteration as stop:
            result = stop.value
        analysis += time.perf_counter() - t0
        phase("query")
        block = calls[:size] if result is None else calls
        calls = calls[len(block) :]
        for call in block:
            t0 = time.perf_counter()
            answers.append(call())
            latencies.append((time.perf_counter() - t0) * 1e3)
    phase("")
    wl.check(tally, state, result, answers)
    out = {"setups": setups, "analysis_s": analysis, "latencies": latencies}
    if keep:
        out["outputs"] = (state, result, answers)
    return out


@dataclass
class Workload:
    seed: int
    small: bool
    workdir: Path
    ref: dict = field(default_factory=dict)

    def prepare(self) -> None:
        """Untimed, once per process: input files and reference values."""

    STAGES = 1  # yields of analyse(); queries run in STAGES + 1 blocks

    def setup(self):
        raise NotImplementedError

    def analyse(self, state):
        """Generator: yields between stages, returns the result."""
        raise NotImplementedError

    def queries(self, state) -> list:
        """Zero-argument region_code calls, in answer order."""
        raise NotImplementedError

    def check(self, tally: Tally, state, result, answers) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------- lenet


def prototype_images(rng, count: int) -> np.ndarray:
    """Smooth 28x28 grey prototypes: four Gaussian blobs each, 0..255."""
    yy, xx = np.mgrid[0:28, 0:28]
    protos = []
    for _ in range(count):
        img = np.zeros((28, 28))
        for _ in range(4):
            cy, cx = rng.uniform(6, 22, 2)
            s = rng.uniform(2, 4)
            img += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * s * s))
        protos.append(np.clip(np.round(255 * img / img.max()), 0, 255))
    return np.array(protos)


def lenet_images(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n uint8 images: a prototype plus a 3x3 patch moved by -1..1 grey level."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])
    protos = prototype_images(rng, 10)
    labels = rng.integers(0, 10, n)
    out = protos[labels].copy()
    for img in out:
        y, x = rng.integers(0, 26, 2)
        img[y : y + 3, x : x + 3] += rng.integers(-1, 2, (3, 3))
    return np.clip(out, 0, 255).astype(np.uint8).reshape(n, 784), labels.astype(np.uint8)


def write_idx(images_path: Path, labels_path: Path, images: np.ndarray, labels: np.ndarray) -> None:
    images_path.write_bytes(struct.pack(">IIII", 0x803, len(images), 28, 28) + images.tobytes())
    labels_path.write_bytes(struct.pack(">II", 0x801, len(labels)) + labels.tobytes())


class Lenet(Workload):
    """LeNet-5 partition analysis, as lenet-partition and criterion 05 do it."""

    STAGES = 5

    # (fine, coarse) refinement probes covering the 3->4, 4->7, 7->8
    # transitions; the full 38-pair set would take ~17 s a pass.
    PAIRS = ((4, 0, 3, 0), (4, 0, 3, 5), (7, 0, 4, 0), (7, 15, 4, 0), (8, 0, 7, 0), (8, 0, 7, 15))

    def prepare(self):
        self.n = 40 if self.small else 128
        self.n_pieces = 1 if self.small else 2
        images, labels = lenet_images(self.seed, self.n)
        self.images_path = self.workdir / f"lenet-images-{self.seed}-{self.n}.idx"
        self.labels_path = self.workdir / f"lenet-labels-{self.seed}-{self.n}.idx"
        write_idx(self.images_path, self.labels_path, images, labels)
        xs = images.astype(float) / 255.0
        self.ref["diameter"] = oracles.brute_max_distance(xs)

    def setup(self):
        data = ur.load_idx(self.images_path, self.labels_path)
        dag = ur.build_lenet5(seed=LENET_SEED)
        return dag, data.images

    def analyse(self, state):
        dag, images = state
        probes = ur.lenet5_probe_nodes(dag)
        _, trace = ur.forward_batch(dag, images)
        cap = pair_cap_for(len(images))
        stats = {}
        for level in (3, 4, 7, 8):
            stats[level] = [
                ur.partition_stats(dag, node, images, pair_cap=cap, seed=self.seed, trace=trace)
                for node in probes[level]
            ]
            yield
        refinements = [
            ur.check_refinement(dag, probes[fl][fi], probes[cl][ci], images, trace=trace)
            for fl, fi, cl, ci in self.PAIRS
        ]
        yield
        pieces = [ur.affine_piece(dag, dag.output_node, x) for x in images[: self.n_pieces]]
        return probes, stats, refinements, pieces

    def queries(self, state):
        dag, images = state
        node = dag.labels["stage2.concat"]
        return [lambda x=x: ur.region_code(dag, node, x) for x in images]

    def check(self, tally, state, result, answers):
        dag, images = state
        probes, stats, refinements, pieces = result
        for rep in refinements:
            tally.op(rep.ok and rep.sample_count == len(images), f"refinement violated: {rep}")
        merged = {level: merge_level(s) for level, s in stats.items()}
        check_refinement_chain(tally, merged, len(images), self.ref["diameter"])
        for level, per in stats.items():
            for s in per:
                tally.op(not s.distance_pairs_subsampled, f"level {level}: sweep subsampled")
        tally.op(
            len(set(answers)) == merged[8].region_count,
            f"{len(set(answers))} distinct region codes, batch count {merged[8].region_count}",
        )
        logits = dag.output_node
        for x, piece in zip(images, pieces):
            code = ur.region_code(dag, logits, x)
            step = 1e-7 * np.random.default_rng(self.seed).standard_normal(len(x))
            near = x + step
            while ur.region_code(dag, logits, near) != code:
                step /= 8
                near = x + step
            ok = True
            for p in (x, near):
                y, _ = ur.forward(dag, p)
                ok = ok and np.linalg.norm(piece.apply(p) - y) <= REL * max(1.0, np.linalg.norm(y))
            tally.op(ok, "affine piece does not reproduce forward")


# ---------------------------------------------------------------- fusion


class Fusion(Workload):
    """fusion-stack then stability-gain, at their default sizes."""

    STAGES = 6

    def sizes(self):
        if self.small:
            return (6, 3, 300), (8, 3, 200)
        return (14, 5, 5000), (20, 5, 2000)

    def prepare(self):
        probe, compact = self.sizes()
        lw, xs = fusion_weights(self.seed, *probe)
        bits, _ = oracles.fusion_stack(lw, xs)
        self.ref["stats"] = {}
        for j in range(1, len(lw) + 1):
            below = [b for pair in bits[: j - 1] for b in pair]
            top, bot = bits[j - 1]
            for channel, cols in (("top", below + [top]), ("bottom", below + [bot]), ("fusion", below + [top, bot])):
                labels = oracles.group_rows(np.hstack(cols))
                self.ref["stats"][(j, channel)] = oracles.region_stats(labels, xs)
        self.n_queries = 20 if self.small else 200
        self.ref["query_bits"] = [
            np.hstack([b for pair in bits[:j] for b in pair])[: self.n_queries] for j in range(1, len(lw) + 1)
        ]

        clw, cxs = fusion_weights(self.seed, *compact)
        rng = np.random.default_rng(self.seed)
        pairs = rng.integers(0, len(cxs), (2000, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        scaled = []
        for w_top, b_top, w_bot, b_bot in clw:
            total = np.sqrt((w_top**2).sum()) + np.sqrt((w_bot**2).sum())
            f = 1.0 / total if total > 1.0 + SUM_TOLERANCE else 1.0
            scaled.append((w_top * f, b_top, w_bot * f, b_bot))
        self.ref["ratios"] = [self._pair_ratios(w, cxs, pairs) for w in (clw, scaled)]

    @staticmethod
    def _pair_ratios(lw, xs, pairs):
        _, values = oracles.fusion_stack(lw, xs)
        i, j = pairs[:, 0], pairs[:, 1]
        dx = np.linalg.norm(xs[i] - xs[j], axis=1)
        return [float((np.linalg.norm(v[i] - v[j], axis=1) / dx).max()) for v in values]

    def setup(self):
        probe, compact = self.sizes()
        lw, xs = fusion_weights(self.seed, *probe)
        dag = ur.build_fusion_stack(lw, mode="probe")
        clw, cxs = fusion_weights(self.seed, *compact)
        cdag = ur.build_fusion_stack(clw, mode="compact")
        return dag, xs, cdag, cxs

    def analyse(self, state):
        dag, xs, cdag, cxs = state
        _, trace = ur.forward_batch(dag, xs)
        cap = pair_cap_for(len(xs))
        layers = self.sizes()[0][1]
        stats = {}
        for j in range(1, layers + 1):
            for channel in ("top", "bottom", "fusion"):
                node = dag.labels[f"layer{j}.{channel}"]
                stats[(j, channel)] = ur.partition_stats(dag, node, xs, pair_cap=cap, seed=self.seed, trace=trace)
            yield
        report = ur.certify(cdag)
        gain = ur.empirical_gain(cdag, cxs, pair_budget=2_000_000, seed=self.seed)
        yield
        rescaled = ur.rescale_to_stability(cdag, use_frobenius=True)
        rescaled_report = ur.certify(rescaled)
        rescaled_gain = ur.empirical_gain(rescaled, cxs, pair_budget=2_000_000, seed=self.seed)
        return stats, (report, gain), (rescaled_report, rescaled_gain)

    def queries(self, state):
        dag, xs, _, _ = state
        nodes = [dag.labels[f"layer{j}.fusion"] for j in range(1, self.sizes()[0][1] + 1)]
        return [lambda x=x, node=node: ur.region_code(dag, node, x) for node in nodes for x in xs[: self.n_queries]]

    def check(self, tally, state, result, answers):
        stats, raw, rescaled = result
        for key, s in stats.items():
            check_stats(tally, f"layer{key[0]}.{key[1]}", s, self.ref["stats"][key])
        for (report, gain), ratios, name in zip((raw, rescaled), self.ref["ratios"], ("raw", "rescaled")):
            check_gain(tally, name, gain.gains, report.certified_C, ratios, gain.pairs_subsampled)
        tally.op(rescaled[0].certified, "Frobenius-rescaled stack does not certify")
        for j, bits in enumerate(self.ref["query_bits"]):
            codes = answers[j * self.n_queries : (j + 1) * self.n_queries]
            tally.op(oracles.same_partition(codes, bits), f"layer{j + 1}.fusion: query codes split wrongly")


# ---------------------------------------------------------------- plane


class Plane(Workload):
    """regions-2d: the canonical 2-D networks plus one seeded rectifier layer.

    The seeded layer has eight units: more than eight binary pattern entries
    overflow the packed code path of count_regions_2d.
    """

    UNITS = 8
    HALF = 5.0
    STAGES = 6

    def prepare(self):
        self.grid = 201 if self.small else 2001
        rng = np.random.default_rng(self.seed)
        self.w = rng.standard_normal((self.UNITS, 2))
        self.b = rng.standard_normal(self.UNITS)
        self.ref["exact"] = oracles.arrangement_regions_in_box(self.w, self.b, self.HALF)
        n_queries = 20 if self.small else 800
        p = self.points = rng.uniform(-self.HALF, self.HALF, (n_queries, 2))
        m2 = p @ np.array([[1.0, 1.0], [1.0, -1.0]]).T
        top = p.max(axis=1) > 0.0
        self.ref["query_bits"] = {
            "relu": p > 0.0,
            "max2": (p[:, 1] > p[:, 0])[:, None],
            "maxlu2": np.stack([top, top & (p[:, 1] > p[:, 0])], axis=1),
            "fusion": np.hstack([p > 0.0, m2 > 0.0]),
            "seeded": oracles.relu_bits(p @ self.w.T + self.b),
        }

    def setup(self):
        base = ur.identity_dag(2)
        return {
            "relu": ur.series(base, ur.Activation(ur.relu_spec(), 2)),
            "max2": ur.series(base, ur.Activation(ur.PoolSpec(2, rectified=False), 2)),
            "maxlu2": ur.series(base, ur.Activation(ur.PoolSpec(2, rectified=True), 2)),
            "fusion": ur.build_fusion_module([np.eye(2), np.array([[1.0, 1.0], [1.0, -1.0]])]),
            "seeded": ur.series(base, ur.ActivationAffine(ur.relu_spec(), self.w, self.b)),
        }

    def analyse(self, nets):
        box = (-self.HALF, self.HALF)
        counts = {}
        for name in ("relu", "max2", "maxlu2", "fusion"):
            counts[name] = ur.count_regions_2d(nets[name], box=box, grid_n=self.grid)
            yield
        fusion = nets["fusion"]
        channels = []
        for c in (0, 1):
            node = fusion.labels[f"channel{c}"]
            channels.append(ur.count_regions_2d(fusion, box=box, grid_n=self.grid, node_id=node))
            yield
        bound = ur.fusion_partition_bound(channels)
        seeded = ur.count_regions_2d(nets["seeded"], box=box, grid_n=self.grid)
        return counts, channels, bound, seeded

    def queries(self, nets):
        return [
            lambda dag=nets[name], p=p: ur.region_code(dag, dag.output_node, p)
            for name in self.ref["query_bits"]
            for p in self.points
        ]

    def check(self, tally, nets, result, answers):
        counts, channels, bound, seeded = result
        check_plane(tally, counts, channels, bound, seeded, self.ref["exact"])
        n = len(self.points)
        for k, (name, bits) in enumerate(self.ref["query_bits"].items()):
            codes = answers[k * n : (k + 1) * n]
            tally.op(oracles.same_partition(codes, bits), f"plane {name}: query codes split wrongly")


# ---------------------------------------------------------------- certify


def population(small: bool):
    """Random compact fusion stacks and series stacks, from a fixed seed.

    Every spectral norm of these networks comes out of power iteration a
    few 1e-11 short of its SVD value, so their certificates carry the kept
    fault on every run; the networks therefore must not depend on --seed.
    """
    rng = np.random.default_rng(POPULATION_SEED)
    nets = []
    for _ in range(2 if small else 4):
        d = int(rng.integers(8, 21))
        layers = int(rng.integers(3, 6))
        lw = [
            (rng.standard_normal((d, d)), rng.standard_normal(d), rng.standard_normal((d, d)), rng.standard_normal(d))
            for _ in range(layers)
        ]
        nets.append(("fusion", lw))
    for _ in range(2 if small else 4):
        dims = [int(v) for v in rng.integers(4, 33, int(rng.integers(4, 7)))]
        ws = [rng.standard_normal((dims[i + 1], dims[i])) for i in range(len(dims) - 1)]
        nets.append(("series", (ws, [rng.standard_normal(w.shape[0]) for w in ws])))
    return nets


def population_bits(kind, params, xs):
    if kind == "fusion":
        return np.hstack([b for pair in oracles.fusion_stack(params, xs)[0] for b in pair])
    return oracles.series_stack_bits(*params, xs)


LENET_WRITER = """
import os, sys
sys.path.insert(0, sys.argv[1])
from unrectify import build_lenet5, save_network
save_network(build_lenet5(seed=int(sys.argv[3])), sys.argv[2] + ".tmp")
os.replace(sys.argv[2] + ".tmp", sys.argv[2])
"""


class Certify(Workload):
    """`unrectify certify net.json` on LeNet-5, then a population of random
    stacks certified, rescaled with spectral and with Frobenius norms, and
    certified again.

    LeNet-5 is built with seed 0 and the population from a fixed seed: the
    kept power-iteration fault must fail on the same operations in every
    run.  --seed picks the query points only.
    """

    STAGES = 9

    def prepare(self):
        self.net_path = self.workdir / f"lenet5-seed{LENET_SEED}.json"
        if not self.net_path.exists():
            # a child process writes it, so the 0.9 GB peak of json.dumps
            # stays out of this process's peak_rss_mb
            src = str(Path(ur.__file__).resolve().parents[1])
            subprocess.run(
                [sys.executable, "-c", LENET_WRITER, src, str(self.net_path), str(LENET_SEED)], check=True
            )
        built = ur.build_lenet5(seed=LENET_SEED)
        self.ref["lenet"] = oracles.norm_level_sums(len(built.nodes), dag_arcs(built))
        del built
        rng = np.random.default_rng(self.seed)
        per_net = 10 if self.small else 200
        self.points = []
        for kind, params in population(self.small):
            dim = params[0][0].shape[1]
            xs = rng.standard_normal((per_net, dim))
            self.points.append((xs, population_bits(kind, params, xs)))

    def setup(self):
        dag = ur.load_network(self.net_path)
        nets = []
        for kind, params in population(self.small):
            if kind == "fusion":
                nets.append(ur.build_fusion_stack(params, mode="compact"))
            else:
                nets.append(ur.build_series_stack(*params))
        return dag, nets

    def analyse(self, state):
        dag, nets = state
        lenet_report = ur.certify(dag)
        yield
        reports = []
        for net in nets:
            variants = [(net, ur.certify(net))]
            for use_frobenius in (False, True):
                scaled = ur.rescale_to_stability(net, use_frobenius=use_frobenius)
                variants.append((scaled, ur.certify(scaled)))
            reports.append(variants)
            yield
        return lenet_report, reports

    def queries(self, state):
        _, nets = state
        return [
            lambda net=net, x=x: ur.region_code(net, net.output_node, x)
            for net, (xs, _) in zip(nets, self.points)
            for x in xs
        ]

    def check(self, tally, state, result, answers):
        lenet_report, reports = result
        check_report(tally, "lenet", lenet_report, self.ref["lenet"])
        for k, variants in enumerate(reports):
            for (net, report), name in zip(variants, ("raw", "spectral", "frobenius")):
                refs = oracles.norm_level_sums(len(net.nodes), dag_arcs(net))
                check_report(tally, f"population {k} {name}", report, refs)
            tally.op(variants[2][1].certified, f"population {k}: Frobenius-rescaled does not certify")
        start = 0
        for k, (xs, bits) in enumerate(self.points):
            codes = answers[start : start + len(xs)]
            start += len(xs)
            tally.op(oracles.same_partition(codes, bits), f"population {k}: query codes split wrongly")


WORKLOADS = {"lenet": Lenet, "fusion": Fusion, "plane": Plane, "certify": Certify}


def make(name: str, seed: int, small: bool, workdir: Path) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[name](seed=seed, small=small, workdir=workdir)
    wl.prepare()
    return wl
