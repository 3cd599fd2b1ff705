"""Independent computations the benchmark checks the program against.

Everything here is plain numpy over inputs the benchmark generated itself:
sign patterns of rectifier layers, brute-force distances, SVD norm sums
over a longest-path levelling, and line-arrangement counts.  None of it
calls the partition or stability code it is used to check.
"""
from __future__ import annotations

from itertools import combinations

import numpy as np


def relu_bits(pre: np.ndarray) -> np.ndarray:
    """Rectifier pattern: a coordinate is active when strictly positive."""
    return pre > 0.0


def fusion_stack(layer_weights, xs: np.ndarray):
    """Forward pass of a two-channel fusion stack, each layer feeding
    relu(Wt u + bt) + relu(Wb u + bb) onward.

    Returns the (top, bottom) rectifier patterns per layer and the values
    per level, the input first.
    """
    u = xs
    bits, values = [], [xs]
    for w_top, b_top, w_bot, b_bot in layer_weights:
        pre_top = u @ w_top.T + b_top
        pre_bot = u @ w_bot.T + b_bot
        bits.append((relu_bits(pre_top), relu_bits(pre_bot)))
        u = np.maximum(pre_top, 0.0) + np.maximum(pre_bot, 0.0)
        values.append(u)
    return bits, values


def series_stack_bits(weights, biases, xs: np.ndarray) -> np.ndarray:
    """Stacked rectifier patterns of a series stack, layer after layer."""
    h = xs
    bits = []
    for w, b in zip(weights, biases):
        pre = h @ w.T + b
        bits.append(relu_bits(pre))
        h = np.maximum(pre, 0.0)
    return np.hstack(bits)


def group_rows(bits: np.ndarray) -> np.ndarray:
    """Region label per row: equal rows share a label."""
    if bits.shape[1] == 0:
        return np.zeros(len(bits), dtype=np.int64)
    packed = np.packbits(bits, axis=1)
    _, labels = np.unique(packed, axis=0, return_inverse=True)
    return labels.reshape(-1)


def brute_max_distance(points: np.ndarray) -> float:
    """Largest pairwise distance from explicit differences (no Gram identity)."""
    best = 0.0
    for i in range(len(points) - 1):
        d = np.sqrt(((points[i + 1 :] - points[i]) ** 2).sum(axis=1)).max()
        best = max(best, float(d))
    return best


def region_stats(labels: np.ndarray, xs: np.ndarray) -> dict:
    """Region count, largest occupancy, multi-member count and largest
    intra-region distance of a labelled sample set."""
    sizes = np.bincount(labels)
    order = np.argsort(labels, kind="stable")
    groups = np.split(order, np.cumsum(sizes)[:-1])
    max_dist = max((brute_max_distance(xs[g]) for g in groups if len(g) >= 2), default=0.0)
    return {
        "region_count": int(len(sizes)),
        "max_points_per_region": int(sizes.max()),
        "multi_member_point_count": int(sizes[sizes >= 2].sum()),
        "max_intra_region_distance": max_dist,
    }


def same_partition(codes, bits: np.ndarray) -> bool:
    """True when two labellings of the same points induce one partition:
    equal codes exactly where the reference rows are equal."""
    ref = group_rows(bits)
    pairs = {(c, int(r)) for c, r in zip(codes, ref)}
    return len(pairs) == len(set(codes)) == len(set(ref.tolist()))


def longest_path_levels(n_nodes: int, edges) -> list[int]:
    """Arc count of the longest input-to-node path, by relaxation in a
    topological order computed here (Kahn's algorithm)."""
    indeg = [0] * n_nodes
    out: list[list[int]] = [[] for _ in range(n_nodes)]
    for src, dst in edges:
        indeg[dst] += 1
        out[src].append(dst)
    level = [0] * n_nodes
    ready = [v for v in range(n_nodes) if indeg[v] == 0]
    while ready:
        v = ready.pop()
        for w in out[v]:
            level[w] = max(level[w], level[v] + 1)
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return level


def norm_level_sums(n_nodes: int, arcs, d: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """(SVD spectral, Frobenius) d-scaled level sums for levels 1..L.

    ``arcs`` holds (src, dst, weight or None); weightless arcs count one.
    """
    level = longest_path_levels(n_nodes, [(s, t) for s, t, _ in arcs])
    top = max(level)
    svd = np.zeros(top + 1)
    frob = np.zeros(top + 1)
    for src, dst, w in arcs:
        if w is None:
            svd[level[dst]] += 1.0
            frob[level[dst]] += 1.0
        else:
            svd[level[dst]] += np.linalg.svd(w, compute_uv=False)[0]
            frob[level[dst]] += np.sqrt((np.asarray(w) ** 2).sum())
    return d * svd[1:], d * frob[1:]


def arrangement_regions_in_box(w: np.ndarray, b: np.ndarray, half: float) -> int:
    """Regions cut from the open square (-half, half)^2 by the lines
    w_i . x + b_i = 0 in general position: 1 + lines meeting the square +
    crossings inside it."""
    corners = np.array([[s * half, t * half] for s in (-1, 1) for t in (-1, 1)])
    vals = corners @ w.T + b
    meets = (vals.min(axis=0) < 0.0) & (vals.max(axis=0) > 0.0)
    crossings = 0
    for i, j in combinations(range(len(w)), 2):
        a = np.array([w[i], w[j]])
        if abs(np.linalg.det(a)) < 1e-12:
            continue
        p = np.linalg.solve(a, -np.array([b[i], b[j]]))
        if np.all(np.abs(p) < half):
            crossings += 1
    return 1 + int(meets.sum()) + crossings
