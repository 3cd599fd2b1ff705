"""Input-space partition analysis via stacked activation patterns.

Every activation arc splits the input space; the concatenation of the
activation patterns collected along all paths into a node identifies which
affine piece of that node's function is active.  Partitions are represented
by these sampled region codes rather than explicit polyhedra; a dense 2-D
grid oracle covers the small exact cases.

A batch of samples is labelled by one primitive, ``_region_labels``: it folds
the pattern columns, in code order, into one dense integer label per sample,
so equal labels mean equal codes and label order is the lexicographic order
of the codes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .basis import PoolSpec, cpwl_piece_ids, cpwl_slope_offset, pool_ids
from .elements import activation_of, linear_part, pre_activation, transform_of
from .graph import Arc, Dag, ancestors, forward, forward_batch
from .parallel import parallel_map

__all__ = [
    "RegionCode",
    "AffinePiece",
    "PartitionStats",
    "RefinementReport",
    "NotPiecewiseAffineError",
    "region_code",
    "affine_piece",
    "check_refinement",
    "partition_stats",
    "count_regions_2d",
    "fusion_partition_bound",
    "max_pairwise_distance",
]


class NotPiecewiseAffineError(ValueError):
    """Raised when an affine piece is requested through a transform arc."""


@dataclass(frozen=True)
class RegionCode:
    """Stacked activation patterns identifying one affine piece.

    ``segments`` holds one integer tuple per activation arc of the queried
    node's computable sub-graph, in a fixed arc order (``arc_ids``), so codes
    of nested sub-graphs are sub-sequences of each other.
    """

    arc_ids: tuple[int, ...]
    segments: tuple[tuple[int, ...], ...]


@dataclass(frozen=True, eq=False)
class AffinePiece:
    """The affine map active on one partition region."""

    weight: np.ndarray
    bias: np.ndarray

    def apply(self, x) -> np.ndarray:
        return np.asarray(x, dtype=float) @ self.weight.T + self.bias


@dataclass(frozen=True)
class PartitionStats:
    region_count: int
    max_points_per_region: int
    max_intra_region_distance: float
    multi_member_point_count: int
    distance_pairs_subsampled: bool = False


@dataclass(frozen=True)
class RefinementReport:
    ok: bool
    sample_count: int
    fine_region_count: int
    coarse_region_count: int
    violations: tuple[tuple[int, int], ...]


def _pattern_arcs(dag: Dag, node_id: int) -> list[Arc]:
    """Activation arcs of the node's computable sub-graph in code order:
    by the whole graph's topological rank of the head node, then by arc id.
    A smaller ancestor closure keeps the relative order, which is what keeps
    nested codes sub-sequences."""
    dag.require_valid()
    keep = ancestors(dag, node_id) | {node_id}
    rank = {nid: i for i, nid in enumerate(dag.topo_order)}
    arcs = [
        arc
        for arc in dag.arcs
        if arc.src in keep and arc.dst in keep and activation_of(arc.elem) is not None
    ]
    arcs.sort(key=lambda a: (rank[a.dst], a.id))
    return arcs


def _arc_pattern(arc: Arc, src_values: np.ndarray) -> np.ndarray:
    """Integer pattern ids for one activation arc, batch in rows."""
    act = activation_of(arc.elem)
    pre = pre_activation(arc.elem, src_values)
    if isinstance(act, PoolSpec):
        return pool_ids(act, pre)
    return cpwl_piece_ids(act, pre)


def _region_labels(
    dag: Dag, node_id: int, xs: np.ndarray, trace: Optional[dict] = None
) -> tuple[np.ndarray, int]:
    """Dense region label per sample and the number of distinct regions.

    Walks the node's activation arcs in code order, one arc's patterns at a
    time, and folds each pattern column into an int64 label as
    ``labels * k + col`` with ``k = col.max() + 1``.  A column whose values
    exceed the sample count is first renumbered densely, and the labels are
    renumbered densely (``np.unique``) before a product could pass 2^62, so
    the fold never overflows.  Renumbering keeps order, so label order is the
    lexicographic order of the codes.
    """
    arcs = _pattern_arcs(dag, node_id)
    if trace is None:
        _, trace = forward_batch(dag, xs)
    n = len(xs)
    labels = np.zeros(n, dtype=np.int64)
    bound = 1  # every label is below this
    for arc in arcs:
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


def _shared_regions(labels: np.ndarray) -> list[np.ndarray]:
    """Sample indices of every region holding two or more samples, in label
    order."""
    order = np.argsort(labels, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)
    return [g for g in groups if len(g) >= 2]


def region_code(dag: Dag, node_id: int, x) -> RegionCode:
    """Region code of one input at one node."""
    xs = np.asarray(x, dtype=float).reshape(1, -1)
    arcs = _pattern_arcs(dag, node_id)
    _, trace = forward_batch(dag, xs)
    # CPWL patterns carry one id per coordinate, pool patterns one per block;
    # both equal the arc's output dimension.
    segments = tuple(tuple(_arc_pattern(arc, trace[arc.src])[0].tolist()) for arc in arcs)
    return RegionCode(tuple(a.id for a in arcs), segments)


def affine_piece(dag: Dag, node_id: int, x) -> AffinePiece:
    """Affine map active on the region containing x, composed arc by arc.

    Each activation is replaced by its active linear pieces (a selection for
    pools); concatenations stack maps, summations add them.  Transforms are
    not piecewise-affine, so their presence in the sub-graph is an error.
    """
    dag.require_valid()
    keep = ancestors(dag, node_id) | {node_id}
    for arc in dag.arcs:
        if arc.src in keep and arc.dst in keep and transform_of(arc.elem) is not None:
            raise NotPiecewiseAffineError(
                f"arc {arc.id} applies a transform; the function is not piecewise affine"
            )
    _, trace = forward(dag, x)
    dim_in = dag.input_dim
    arc_by_id = {arc.id: arc for arc in dag.arcs}

    maps: dict[int, tuple[np.ndarray, np.ndarray]] = {
        0: (np.eye(dim_in), np.zeros(dim_in))
    }

    def through_arc(arc: Arc) -> tuple[np.ndarray, np.ndarray]:
        a_mat, c_vec = maps[arc.src]
        w = linear_part(arc.elem)
        if w is not None:
            bias = getattr(arc.elem, "bias", None)
            a_mat = w @ a_mat
            c_vec = w @ c_vec + (bias if bias is not None else 0.0)
        act = activation_of(arc.elem)
        if act is None:
            return a_mat, c_vec
        pre = pre_activation(arc.elem, trace[arc.src])
        if isinstance(act, PoolSpec):
            ids = pool_ids(act, pre)
            sel = np.zeros((ids.shape[-1], pre.shape[-1]))
            for blk, code in enumerate(ids):
                if code > 0:
                    sel[blk, blk * act.block + (code - 1)] = 1.0
            return sel @ a_mat, sel @ c_vec
        slope, offset = cpwl_slope_offset(act, pre)
        return slope[:, None] * a_mat, slope * c_vec + offset

    for nid in dag.topo_order:
        if nid not in keep or nid == 0:
            continue
        node = dag.nodes[nid]
        arcs = [arc_by_id[a] for a in node.concat_order] if node.concat_order else list(
            dag.in_arcs[nid]
        )
        parts = [through_arc(arc) for arc in arcs]
        if node.role == "concat":
            maps[nid] = (
                np.vstack([p[0] for p in parts]),
                np.concatenate([p[1] for p in parts]),
            )
        elif node.role == "add":
            a_mat = parts[0][0]
            c_vec = parts[0][1]
            for p in parts[1:]:
                a_mat = a_mat + p[0]
                c_vec = c_vec + p[1]
            maps[nid] = (a_mat, c_vec)
        else:
            maps[nid] = parts[0]

    a_mat, c_vec = maps[node_id]
    a_mat = a_mat.copy()
    c_vec = c_vec.copy()
    a_mat.setflags(write=False)
    c_vec.setflags(write=False)
    return AffinePiece(weight=a_mat, bias=c_vec)


def check_refinement(
    dag: Dag, fine_node: int, coarse_node: int, samples, trace: Optional[dict] = None
) -> RefinementReport:
    """Verify that equal codes at the fine node imply equal codes at the
    coarse node over all sample pairs.  The coarse node must belong to the
    fine node's computable sub-graph."""
    xs = np.asarray(samples, dtype=float)
    keep = ancestors(dag, fine_node) | {fine_node}
    if coarse_node not in keep:
        raise ValueError(
            f"node {coarse_node} is not in the computable sub-graph of node {fine_node}"
        )
    if trace is None:
        _, trace = forward_batch(dag, xs)
    la, na = _region_labels(dag, fine_node, xs, trace=trace)
    lb, nb = _region_labels(dag, coarse_node, xs, trace=trace)

    violations: list[tuple[int, int]] = []
    for chunk in _shared_regions(la):
        group_lb = lb[chunk]
        if (group_lb != group_lb[0]).any():
            other = chunk[np.flatnonzero(group_lb != group_lb[0])[0]]
            violations.append((int(chunk[0]), int(other)))
            if len(violations) >= 8:
                break
    return RefinementReport(
        ok=not violations,
        sample_count=len(xs),
        fine_region_count=na,
        coarse_region_count=nb,
        violations=tuple(violations),
    )


def max_pairwise_distance(
    points: np.ndarray, pair_cap: Optional[int] = 1_000_000, seed: int = 0
) -> tuple[float, bool]:
    """Largest pairwise Euclidean distance within a point set.

    Exact (blockwise, without materializing the full distance matrix) when
    the pair count fits the cap; above the cap a seeded uniform sample of
    ``pair_cap`` pairs gives a lower estimate, flagged in the result.
    """
    pts = np.asarray(points, dtype=float)
    g = len(pts)
    if g < 2:
        return 0.0, False
    pairs = g * (g - 1) // 2
    if pair_cap is None or pairs <= pair_cap:
        # ||a||^2 + ||b||^2 - 2a.b cancels badly when the points sit far from
        # the origin relative to their spread; centring first avoids it
        centred = pts - pts.mean(axis=0)
        sq = np.einsum("ij,ij->i", centred, centred)
        best = 0.0
        block = 2048
        for i0 in range(0, g, block):
            pi = centred[i0 : i0 + block]
            sqi = sq[i0 : i0 + block]
            for j0 in range(i0, g, block):
                pj = centred[j0 : j0 + block]
                d2 = sqi[:, None] + sq[j0 : j0 + block][None, :] - 2.0 * (pi @ pj.T)
                m = float(d2.max())
                if m > best:
                    best = m
        return float(np.sqrt(max(best, 0.0))), False
    rng = np.random.default_rng(seed)
    best = 0.0
    remaining = int(pair_cap)
    chunk = 1 << 18
    while remaining > 0:
        take = min(chunk, remaining)
        i = rng.integers(0, g, size=take)
        j = rng.integers(0, g, size=take)
        mask = i != j
        if mask.any():
            d = np.linalg.norm(pts[i[mask]] - pts[j[mask]], axis=1)
            m = float(d.max())
            if m > best:
                best = m
        remaining -= take
    return best, True


def partition_stats(
    dag: Dag,
    node_id: int,
    samples,
    pair_cap: Optional[int] = 1_000_000,
    seed: int = 0,
    trace: Optional[dict] = None,
) -> PartitionStats:
    """Partition statistics of a sample set at one node.

    Samples are grouped by region code; the intra-region distance is the
    exact max pairwise distance per group (groups swept in parallel), capped
    per ``max_pairwise_distance``.
    """
    xs = np.asarray(samples, dtype=float)
    if len(xs) == 0:
        raise ValueError("partition statistics need at least one sample")
    labels_arr, n_regions = _region_labels(dag, node_id, xs, trace=trace)
    sizes = np.bincount(labels_arr, minlength=n_regions)

    groups = _shared_regions(labels_arr)

    def sweep(chunk):
        return max_pairwise_distance(xs[chunk], pair_cap=pair_cap, seed=seed)

    results = parallel_map(sweep, groups)
    max_dist = max((d for d, _ in results), default=0.0)
    subsampled = any(flag for _, flag in results)
    return PartitionStats(
        region_count=int(n_regions),
        max_points_per_region=int(sizes.max()) if len(sizes) else 0,
        max_intra_region_distance=float(max_dist),
        multi_member_point_count=int(sizes[sizes >= 2].sum()),
        distance_pairs_subsampled=subsampled,
    )


def fusion_partition_bound(channel_counts: Sequence[int]) -> int:
    """Product bound on the region count of a fused partition."""
    total = 1
    for count in channel_counts:
        if count < 1:
            raise ValueError(f"region counts must be positive, got {count}")
        total *= int(count)
    return total


def count_regions_2d(
    dag: Dag,
    box: tuple[float, float] = (-5.0, 5.0),
    grid_n: int = 2001,
    node_id: Optional[int] = None,
    row_block: int = 128,
) -> int:
    """Distinct region codes over a grid_n x grid_n lattice on box^2.

    A lower bound on the true region count that stabilizes as the grid is
    refined.  Streams the lattice in row blocks and keeps one representative
    point per region label of each block; labelling the pooled
    representatives counts the distinct codes over the whole lattice.
    """
    if dag.input_dim != 2:
        raise ValueError("the grid oracle needs a 2-D input space")
    node = dag.output_node if node_id is None else node_id
    lo, hi = float(box[0]), float(box[1])
    axis = np.linspace(lo, hi, grid_n)

    reps = []
    for r0 in range(0, grid_n, row_block):
        rows = axis[r0 : r0 + row_block]
        pts = np.empty((len(rows) * grid_n, 2))
        pts[:, 0] = np.repeat(rows, grid_n)
        pts[:, 1] = np.tile(axis, len(rows))
        labels, count = _region_labels(dag, node, pts)
        pick = np.empty(count, dtype=np.intp)
        pick[labels] = np.arange(len(labels))  # any member represents its label
        reps.append(pts[pick])
    return _region_labels(dag, node, np.vstack(reps))[1]
