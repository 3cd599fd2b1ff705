"""Input-space partition analysis via stacked activation patterns.

Every activation arc splits the input space; the concatenation of the
activation patterns collected along all paths into a node identifies which
affine piece of that node's function is active.  Partitions are represented
by these sampled region codes rather than explicit polyhedra.  A 2-D lattice
count covers the small exact cases: without transforms each region is an
intersection of half-spaces, hence convex, so the count refines only the
lattice cells whose corners carry different codes, over the whole lattice at
once in batches of ``_CELL_BATCH`` cells; ``partition_stats`` pools regions
under ``DIRECT_ENTRIES``.

A batch of samples is labelled by one primitive, ``_region_labels``: it folds
the codes of the node's activation arcs, in code order, into one dense integer
label per sample, so equal labels mean equal codes and label order is the
lexicographic order of the codes.  An arc's code, its pattern block folded
into one int64 per sample, is kept in a table of the batch's trace, so all
queries on one ``forward_batch`` trace derive each arc's patterns once.

The single-input queries, ``region_code`` and ``affine_piece``, compute one
pre-activation per arc: the evaluation walk hands each activation arc's
pre-activation over, and the pattern is read from it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .basis import PoolSpec, cpwl_piece_ids, cpwl_slope_offset, pool_ids
from .graph import Arc, Dag, Trace, _evaluate, propagate
from . import stability

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

DIRECT_ENTRIES = 1 << 13  # regions this small (pairs x row width) are pooled unscreened
ROW_BLOCK = 128  # count_regions_2d's starting cell side, and its rows per call through a transform
_CELL_BATCH = 2048  # live cells whose corners count_regions_2d labels in one call


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
    by the topological rank of the head node, then by arc id.  A smaller
    ancestor closure keeps the relative order, which is what keeps nested
    codes sub-sequences."""
    dag.require_valid()
    arcs = (arc for nid in dag.closure(node_id) for arc in dag.in_arcs[nid])
    return [arc for arc in arcs if arc.elem.act is not None]


def _first_transform(dag: Dag, node_id: int) -> Optional[Arc]:
    """First transform arc of the node's computable sub-graph, or None."""
    arcs = (arc for nid in dag.closure(node_id) for arc in dag.in_arcs[nid])
    return next((arc for arc in arcs if arc.elem.spec is not None), None)


def _pattern(act, pre: np.ndarray) -> np.ndarray:
    """Integer pattern ids of an activation at its pre-activation."""
    if isinstance(act, PoolSpec):
        return pool_ids(act, pre)
    return cpwl_piece_ids(act, pre)


def _arc_pattern(arc: Arc, src_values: np.ndarray) -> np.ndarray:
    """Integer pattern ids for one activation arc, batch in rows."""
    return _pattern(arc.elem.act, arc.elem.pre_activation(src_values))


def _fold(labels: np.ndarray, bound: int, col: np.ndarray, k: int) -> tuple[np.ndarray, int]:
    """``labels * k + col`` and its bound, for labels below ``bound`` and a
    column below k.  Before a product could pass 2^62 the labels, then if
    need be the column, are renumbered densely, which keeps their order."""
    if bound * k > 1 << 62:
        values, labels = np.unique(labels, return_inverse=True)
        bound = len(values)
        if bound * k > 1 << 62:
            values, col = np.unique(col, return_inverse=True)
            k = len(values)
    return labels * k + col, bound * k


def _arc_code(trace: Trace, arc: Arc) -> tuple[np.ndarray, int]:
    """The arc's pattern rows as one code per sample in their lexicographic
    order, and a bound above every code, derived once per trace.  Ids are
    below a radix (``block + 1`` for a pool, 2^pieces for a CPWL bitmask);
    each run of columns whose radix product fits in 2^62 is one matmul with
    their place values, and the runs go through ``_fold``.
    """
    if arc.id not in trace.codes:
        act = arc.elem.act
        radix = act.block + 1 if isinstance(act, PoolSpec) else 1 << act.piece_count
        width = 62 // (radix - 1).bit_length()  # radix ** width <= 2^62
        place = radix ** np.arange(width - 1, -1, -1)
        pattern = _arc_pattern(arc, trace[arc.src])
        code, bound = np.zeros(len(pattern), dtype=np.int64), 1
        for start in range(0, pattern.shape[1], width):
            run = pattern[:, start : start + width]
            code, bound = _fold(code, bound, run @ place[-run.shape[1] :], radix ** run.shape[1])
        trace.codes[arc.id] = code, bound
    return trace.codes[arc.id]


def _region_labels(
    dag: Dag, node_id: int, xs: np.ndarray, trace: Optional[Trace] = None
) -> tuple[np.ndarray, int]:
    """Dense region label per sample and the number of distinct regions.

    Folds the node's arc codes (``_arc_code``, kept in the trace's table) in
    code order as ``labels * k + code`` and renumbers densely at the end, so
    label order is the lexicographic order of the codes.  A given ``trace``
    must be the one ``forward_batch(dag, xs)`` returned: one of another graph
    is refused, and its input values are compared with ``xs``.
    """
    arcs = _pattern_arcs(dag, node_id)
    if trace is None:
        trace = _evaluate(dag, xs, node_id, batch=True)
    elif not isinstance(trace, Trace) or trace.dag is not dag:
        raise ValueError("the trace belongs to another graph")
    elif not np.array_equal(trace.get(0), xs):
        raise ValueError("the trace belongs to other samples: its input values differ")
    labels, bound = np.zeros(len(xs), dtype=np.int64), 1
    for arc in arcs:
        labels, bound = _fold(labels, bound, *_arc_code(trace, arc))
    values, labels = np.unique(labels, return_inverse=True)
    return labels, len(values)


def _shared_regions(labels: np.ndarray) -> list[np.ndarray]:
    """Sample indices of every region holding two or more samples, in label
    order: runs of the stably sorted samples, ended by the cumulative counts
    of the dense labels."""
    order = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels)
    ends = np.cumsum(sizes)
    return [order[e - m : e] for e, m in zip(ends[sizes >= 2].tolist(), sizes[sizes >= 2].tolist())]


def region_code(dag: Dag, node_id: int, x) -> RegionCode:
    """Region code of one input at one node, read from a one-row batch."""
    x = np.asarray(x, dtype=float)
    if x.shape != (dag.input_dim,):
        raise ValueError(f"input must have shape ({dag.input_dim},), got {x.shape}")
    arcs = _pattern_arcs(dag, node_id)
    pres: dict = {}
    _evaluate(dag, x[None], node_id, batch=True, pres=pres)
    # CPWL patterns carry one id per coordinate, pool patterns one per block;
    # both equal the arc's output dimension.
    segments = tuple(tuple(_pattern(arc.elem.act, pres[arc.id])[0].tolist()) for arc in arcs)
    return RegionCode(tuple(a.id for a in arcs), segments)


def affine_piece(dag: Dag, node_id: int, x) -> AffinePiece:
    """Affine map active on the region containing x, composed arc by arc.

    Each activation is replaced by its active linear pieces (a selection for
    pools); concatenations stack maps, summations add them.  A map is carried
    as one augmented matrix M with [x, 1] @ M the node value, so it walks the
    graph like a value does.  Only the queried node's map is returned, so
    the walk drops each map once the last arc that reads it has run
    (``propagate``'s ``release``); on LeNet-5 that keeps about 20 MB of maps
    alive instead of 82 MB.  Transforms are not piecewise-affine, so their
    presence in the sub-graph is an error.
    """
    dag.require_valid()
    arc = _first_transform(dag, node_id)
    if arc is not None:
        raise NotPiecewiseAffineError(
            f"arc {arc.id} applies a transform; the function is not piecewise affine"
        )
    pres: dict = {}
    _evaluate(dag, x, node_id, batch=False, pres=pres)

    def through_arc(arc: Arc, m: np.ndarray) -> np.ndarray:
        elem = arc.elem
        if elem.weight is not None:
            # at the input m is the identity start: take [W^T; 0] without the product
            m = np.vstack([elem.weight.T, np.zeros(len(elem.weight))]) if arc.src == 0 else m @ elem.weight.T
            if elem.bias is not None:
                m[-1] += elem.bias
        if isinstance(elem.act, PoolSpec):
            ids = pool_ids(elem.act, pres[arc.id])
            picked = m[:, np.arange(len(ids)) * elem.act.block + ids - 1]
            picked[:, ids == 0] = 0.0  # the gather is a fresh array
            return picked
        if elem.act is None:
            return m
        slope, offset = cpwl_slope_offset(elem.act, pres[arc.id])
        m = m * slope
        m[-1] += offset
        return m

    start = np.eye(dag.input_dim + 1, dag.input_dim)
    m = propagate(dag, node_id, start, through_arc, release=True)[node_id]
    weight, bias = m[:-1].T.copy(), m[-1].copy()
    weight.setflags(write=False)
    bias.setflags(write=False)
    return AffinePiece(weight=weight, bias=bias)


def check_refinement(
    dag: Dag, fine_node: int, coarse_node: int, samples, trace: Optional[Trace] = None
) -> RefinementReport:
    """Verify that equal codes at the fine node imply equal codes at the
    coarse node over all sample pairs.  The coarse node must belong to the
    fine node's computable sub-graph.  A given ``trace`` must be the one
    ``forward_batch(dag, samples)`` returned; the arc codes in its table are
    shared with every other query on it."""
    xs = np.asarray(samples, dtype=float)
    if coarse_node not in dag.closure(fine_node):
        raise ValueError(
            f"node {coarse_node} is not in the computable sub-graph of node {fine_node}"
        )
    if trace is None:
        trace = _evaluate(dag, xs, fine_node, batch=True)
    la, na = _region_labels(dag, fine_node, xs, trace=trace)
    lb, nb = _region_labels(dag, coarse_node, xs, trace=trace)

    # the fine labels refine the coarse ones iff each fine label meets one coarse label
    ok = np.unique(la * nb + lb).size == na
    violations: list[tuple[int, int]] = []
    for chunk in [] if ok else _shared_regions(la):
        group_lb = lb[chunk]
        if (group_lb != group_lb[0]).any():
            other = chunk[np.flatnonzero(group_lb != group_lb[0])[0]]
            violations.append((int(chunk[0]), int(other)))
            if len(violations) >= 8:
                break
    return RefinementReport(
        ok=ok,
        sample_count=len(xs),
        fine_region_count=na,
        coarse_region_count=nb,
        violations=tuple(violations),
    )


def max_pairwise_distance(
    points: np.ndarray, pair_cap: Optional[int] = 1_000_000, seed: int = 0
) -> tuple[float, bool]:
    """Largest pairwise Euclidean distance within a point set, and whether
    the pairs were sampled.

    This is the pair sweep ``stability._max_pair_ratios`` with denominator
    one, which states its rounding bound.  When the pair count fits the cap
    the value equals the brute-force maximum of
    ``np.linalg.norm(pts[j] - pts[i], axis=1)`` bit for bit; above the cap a
    seeded uniform sample of ``pair_cap`` pairs gives a lower estimate.
    """
    if pair_cap is not None and pair_cap < 1:
        raise ValueError(f"pair_cap must be at least 1, got {pair_cap}")
    pts = np.asarray(points, dtype=float)
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    if len(pts) < 2:
        return 0.0, False
    best, _, subsampled = stability._max_pair_ratios([pts], budget=pair_cap, seed=seed)
    return float(best[0]), subsampled


def partition_stats(
    dag: Dag,
    node_id: int,
    samples,
    pair_cap: Optional[int] = 1_000_000,
    seed: int = 0,
    trace: Optional[Trace] = None,
) -> PartitionStats:
    """Partition statistics of a sample set at one node.

    Samples are grouped by region code; the intra-region distance is the
    largest pairwise distance in a group, as ``max_pairwise_distance`` with
    the same ``pair_cap`` and ``seed`` computes it.  The groups within the
    cap of at most ``DIRECT_ENTRIES`` pairs x row width, too small to repay
    a screen, are pooled into one chunked gather of the same exact form,
    which gives the same maximum bit for bit; each other group keeps its
    own call.  A given ``trace`` must be the one
    ``forward_batch(dag, samples)`` returned; the arc codes in its table are
    shared with every other query on it.
    """
    xs = np.asarray(samples, dtype=float)
    if len(xs) == 0:
        raise ValueError("partition statistics need at least one sample")
    if pair_cap is not None and pair_cap < 1:
        raise ValueError(f"pair_cap must be at least 1, got {pair_cap}")
    labels_arr, n_regions = _region_labels(dag, node_id, xs, trace=trace)
    sizes = np.bincount(labels_arr, minlength=n_regions)

    pooled, results = {}, []  # regions to pool, by size; (distance, sampled) per measure
    for chunk in _shared_regions(labels_arr):
        pairs = len(chunk) * (len(chunk) - 1) // 2
        direct = pairs * xs.shape[1] <= DIRECT_ENTRIES
        if direct and (pair_cap is None or pairs <= pair_cap):
            pooled.setdefault(len(chunk), []).append(chunk)
        else:
            results.append(max_pairwise_distance(xs[chunk], pair_cap=pair_cap, seed=seed))
    if pooled:
        i, j = [], []
        for size, group in pooled.items():
            members, (a, b) = np.stack(group), np.triu_indices(size, 1)
            i.append(members[:, a].ravel())
            j.append(members[:, b].ravel())
        results.append((stability._exact_ratios([xs], np.hstack(i), np.hstack(j))[0][0], False))
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


def _bisect(cells: np.ndarray, axis: int) -> np.ndarray:
    """Halve the cells (first row, last row, first column, last column) longer
    than one step along ``axis``, 0 or 2; the halves share the middle line."""
    split = cells[axis + 1] - cells[axis] > 1
    upper, lower = cells[:, split], cells.copy()
    upper[axis] = lower[axis + 1, split] = (cells[axis, split] + cells[axis + 1, split]) // 2
    return np.hstack([lower, upper])


def _representatives(dag: Dag, node: int, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense region labels of the points and one point per label."""
    labels, count = _region_labels(dag, node, pts)
    pick = np.empty(count, dtype=np.intp)
    pick[labels] = np.arange(len(labels))  # any member represents its label
    return labels, pts[pick]


def count_regions_2d(
    dag: Dag,
    box: tuple[float, float] = (-5.0, 5.0),
    grid_n: int = 2001,
    node_id: Optional[int] = None,
) -> int:
    """Distinct region codes over a grid_n x grid_n lattice on box^2.

    A lower bound on the true region count that stabilizes as the grid is
    refined.  Without a transform arc in the node's sub-graph each code fixes
    one affine map, so its region is an intersection of half-planes, hence
    convex: a rectangle whose four corners share a code holds no other code.
    The whole lattice is then refined at once, from cells of ``ROW_BLOCK``
    points a side.  Each round labels the distinct corners of the live cells,
    ``_CELL_BATCH`` cells per labelling call, keeps one point per label, and
    bisects the cells whose corners disagree along each side longer than one
    step.  Transforms (softmax, sigmoid, tanh) break convexity; with one,
    every lattice point is labelled, ``ROW_BLOCK`` rows per call.  Labelling
    the kept points counts the distinct codes over the whole lattice.
    """
    if dag.input_dim != 2:
        raise ValueError("the grid oracle needs a 2-D input space")
    if grid_n < 1:
        raise ValueError(f"grid_n must be at least 1, got {grid_n}")
    try:
        lo, hi = (float(v) for v in box)
    except (TypeError, ValueError):
        raise ValueError(f"box must be two numbers, got {box!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"box bounds must be finite, got {box!r}")
    node = dag.output_node if node_id is None else node_id
    axis = np.linspace(lo, hi, grid_n)

    reps = []
    if _first_transform(dag, node) is not None:
        for r0 in range(0, grid_n, ROW_BLOCK):
            pts = np.stack(np.broadcast_arrays(axis[r0 : r0 + ROW_BLOCK, None], axis), axis=-1)
            # labels live to the next strip: freed at once, glibc returned and re-faulted their pages
            labels, kept = _representatives(dag, node, pts.reshape(-1, 2))
            reps.append(kept)
        return _region_labels(dag, node, np.vstack(reps))[1]

    # the starting cells: runs of ROW_BLOCK lattice indices on each axis
    first = np.arange(0, grid_n, ROW_BLOCK)
    last = np.minimum(first + ROW_BLOCK, grid_n) - 1
    cells = np.stack(np.broadcast_arrays(first[:, None], last[:, None], first, last)).reshape(4, -1)
    while cells.size:
        halves = []
        for start in range(0, cells.shape[1], _CELL_BATCH):
            batch = cells[:, start : start + _CELL_BATCH]
            # row-major lattice index of each corner, shape (2, 2, cells)
            flat = (batch[:2] * grid_n)[:, None] + batch[None, 2:]
            idx, inverse = np.unique(flat, return_inverse=True)
            row = idx // grid_n
            labels, kept = _representatives(dag, node, np.column_stack([axis[row], axis[idx - row * grid_n]]))
            reps.append(kept)
            corners = labels[inverse].reshape(flat.shape)
            split = (corners != corners[0, 0]).any(axis=(0, 1))
            split &= (batch[1] - batch[0] > 1) | (batch[3] - batch[2] > 1)
            halves.append(_bisect(_bisect(batch[:, split], 0), 2))
        cells = np.hstack(halves)
    return _region_labels(dag, node, np.vstack(reps))[1]
