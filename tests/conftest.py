"""Shared test helpers: independent oracles, random generators and the
saved LeNet-5 file."""
from __future__ import annotations

import struct

import numpy as np
import pytest

from unrectify import (
    Activation,
    ActivationAffine,
    Affine,
    CpwlSpec,
    Identity,
    Linear,
    build_lenet5,
    concatenate,
    duplicate,
    identity_dag,
    partition,
    relu_spec,
    save_network,
    series,
    stability,
)


def cpwl_reference(spec: CpwlSpec, x: float) -> float:
    """Branch-based evaluation: find the active pieces, accumulate their
    affine contributions.  Independent of the vectorized ramp-sum path."""
    total = 0.0
    for coeff, knot in spec.right_pieces:
        if x > knot:
            total += coeff * (x - knot)
    for coeff, knot in spec.left_pieces:
        if x < knot:
            total += coeff * (knot - x)
    return total


def random_cpwl_spec(rng: np.random.Generator, max_side: int = 3) -> CpwlSpec:
    def side(count):
        return tuple(
            (float(rng.uniform(-2, 2)), float(rng.uniform(-3, 3))) for _ in range(count)
        )

    n_right = int(rng.integers(0, max_side + 1))
    n_left = int(rng.integers(0 if n_right else 1, max_side + 1))
    return CpwlSpec(right_pieces=side(n_right), left_pieces=side(n_left))


def random_element(rng: np.random.Generator, in_dim: int):
    kind = int(rng.integers(0, 5))
    out = int(rng.integers(1, 5))
    if kind == 0:
        return Identity(in_dim)
    if kind == 1:
        return Linear(rng.standard_normal((out, in_dim)))
    if kind == 2:
        return Affine(rng.standard_normal((out, in_dim)), rng.standard_normal(out))
    if kind == 3:
        return Activation(relu_spec(), in_dim)
    return ActivationAffine(
        relu_spec(), rng.standard_normal((out, in_dim)), rng.standard_normal(out)
    )


def random_valid_dag(rng: np.random.Generator, input_dim: int | None = None, n_ops: int = 8):
    """Random graph built only through the closed combinators."""
    if input_dim is None:
        input_dim = int(rng.integers(1, 5))
    pool = [identity_dag(input_dim)]
    for _ in range(n_ops):
        op = int(rng.integers(0, 4))
        if op == 3 and len(pool) < 4:
            pool.append(identity_dag(input_dim))
        elif op == 2:
            i = int(rng.integers(0, len(pool)))
            pool[i] = duplicate(pool[i], int(rng.integers(1, 4)))
        elif op == 1 and len(pool) > 1:
            k = int(rng.integers(2, len(pool) + 1))
            picked = [pool.pop(int(rng.integers(0, len(pool)))) for _ in range(k)]
            pool.append(concatenate(picked))
        else:
            i = int(rng.integers(0, len(pool)))
            g = pool[i]
            out_dim = g.node_dims[g.output_node]
            pool[i] = series(g, random_element(rng, out_dim))
    return concatenate(pool) if len(pool) > 1 else pool[0]


def longest_path_levels(dag) -> list[int]:
    """Longest-path levels by plain relaxation; independent of the library's
    topological-order computation."""
    n = len(dag.nodes)
    lvl = [0] * n
    changed = True
    while changed:
        changed = False
        for arc in dag.arcs:
            if lvl[arc.src] + 1 > lvl[arc.dst]:
                lvl[arc.dst] = lvl[arc.src] + 1
                changed = True
    return lvl


def write_idx_pair(dirpath, images: np.ndarray, labels) -> tuple[str, str]:
    """Write a minimal IDX image/label file pair; images are (n, 28, 28) uint8."""
    images = np.asarray(images, dtype=np.uint8)
    n = len(images)
    img_path = str(dirpath / "train-images-idx3-ubyte")
    lbl_path = str(dirpath / "train-labels-idx1-ubyte")
    with open(img_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, 28, 28))
        fh.write(images.tobytes())
    with open(lbl_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, n))
        fh.write(bytes(int(v) for v in labels))
    return img_path, lbl_path


def pair_sweep_sets() -> dict[str, tuple[np.ndarray, float]]:
    """Named (points, min_distance) sets for the exact pair sweeps: the
    smallest set, a count that leaves a short last row block, duplicated
    rows, a lattice with many pairs exactly at ``min_distance``, a
    1e-6-spread cluster around a far 784-dimensional centre, a spread set
    with a 1e-8-spread cloud around one of its points, and a cluster at the
    origin whose squared distances are subnormal."""
    rng = np.random.default_rng(31)
    base = rng.standard_normal((150, 6))
    spread = rng.standard_normal((40, 6))
    centre = 50.0 * rng.standard_normal(784)
    return {
        "two": (rng.standard_normal((2, 6)), 1e-9),
        "uneven_blocks": (rng.standard_normal((777, 6)), 1e-9),
        "duplicates": (np.vstack([base, base[:40], base[:3]]), 1e-9),
        # coordinates on a 0.25 grid: differences, squares and the square
        # root of 0.25 are exact, so many pairs sit at exactly 0.5
        "at_min_distance": (0.25 * rng.integers(-2, 3, size=(200, 4)), 0.5),
        "far_cluster": (centre + 1e-6 * rng.standard_normal((60, 784)), 1e-9),
        # pairs 1e-8 apart carry the local slopes, which beat the secants of
        # the spread points; the cloud sits away from the first row, which
        # the screen shifts to the origin, so it is below the screen's
        # resolution there
        "near_pairs": (np.vstack([spread, spread[1] + 1e-8 * rng.standard_normal((60, 6))]), 1e-9),
        # the first row at the origin and 12 rows within 1e-156 of it: their
        # squared distances are subnormal, so no reciprocal of their bounds
        # is a normal number; every pair counts, however close
        "subnormal": (
            np.vstack([np.zeros((1, 6)), 4e-158 * rng.standard_normal((12, 6)), rng.standard_normal((6, 6))]),
            0.0,
        ),
    }


# the pair sweep's row block and partition_stats' pooling threshold: as
# shipped, with every region screened, and with one-row blocks
PAIR_SWEEP_MODES = (
    (stability.PAIR_BLOCK, partition.DIRECT_ENTRIES),
    (stability.PAIR_BLOCK, 0),
    (50, 0),
)


def set_pair_sweep_mode(monkeypatch, block: int, direct: int) -> None:
    monkeypatch.setattr(stability, "PAIR_BLOCK", block)
    monkeypatch.setattr(partition, "DIRECT_ENTRIES", direct)


@pytest.fixture(scope="session")
def lenet5_file(tmp_path_factory):
    """``build_lenet5(seed=0)`` and the network file it was saved to."""
    dag = build_lenet5(seed=0)
    path = tmp_path_factory.mktemp("lenet5") / "lenet5.json"
    save_network(dag, path)
    return dag, path
