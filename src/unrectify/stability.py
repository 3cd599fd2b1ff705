"""Stability certification from per-level weight-norm sums.

For a valid graph whose nonlinearities have uniform gain bound d (read from
the elements; 1 when it has none), the certified Lipschitz value of the
level-n stacked function follows the recursion

    C(0) = 1,   C(n) = sum over level-n nodes a, incoming arcs b->a of
                       g_ab * ||W_ab||_2 * C(level(b)),

where g_ab is d for an arc with an activation or transform and max(d, 1)
for an arc with none (an affine map is ||W||-Lipschitz, whatever d is).
Identity, duplication, and bare-activation arcs contribute a unit norm,
and bias terms drop out of differences.  C(n) bounds the gain of level n
itself.  If every level from some m onward satisfies
sum g_ab * ||W_ab||_2 <= 1, the running maximum of C stops growing and the
network is certified stable.  ``certify`` forms the level
sums, C(n) and the stable suffix in one pass over the arcs grouped by level.
The recursion sums channel contributions at concatenations; a
root-sum-square combination would be tighter, but the summed form is the
one the certificate is proven for, so the certifier keeps it.

Every ||W||_2 is an upper bound, not an estimate: the top eigenvalue of the
smaller Gram matrix G from a symmetric eigensolve, plus the rounding margin
2(m+n)·eps·trace(G), square-rooted (see ``spectral_norm``).  The certificate
therefore never rests on a norm rounded low.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .basis import _all_finite
from .elements import element_bound, uniform_bound
from .graph import Arc, Dag, forward_batch, levels

__all__ = [
    "LevelSum",
    "StabilityReport",
    "GainCurve",
    "SoundnessReport",
    "spectral_norm",
    "svd_spectral_norm",
    "level_sums",
    "certify",
    "rescale_to_stability",
    "empirical_gain",
    "soundness_check",
    "resnet_link_condition",
    "SUM_TOLERANCE",
]

SUM_TOLERANCE = 1e-12
PAIR_BLOCK = 1 << 15  # bounds per row block and matrix of a pair sweep's screen: 16 rows at n = 2,000
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def svd_spectral_norm(w) -> float:
    """Dense SVD largest singular value; the reference oracle."""
    arr = np.asarray(w, dtype=float)
    if arr.size == 0:
        return 0.0
    return float(np.linalg.svd(arr, compute_uv=False)[0])


def _selection_columns(weight: np.ndarray) -> Optional[np.ndarray]:
    """Column each row of a float matrix picks, when every row holds a
    single entry 1.0 and all other entries are +0.0; None otherwise.  The
    whole matrix is scanned only when its first row passes."""
    bits = weight.view(np.int64)
    if np.count_nonzero(bits[0]) != 1:
        return None
    rows, cols = np.nonzero(bits)
    if len(rows) != len(bits) or (rows != np.arange(len(bits))).any():
        return None
    return cols if (weight[rows, cols] == 1.0).all() else None


def _selection_norm(cols: np.ndarray) -> float:
    """Spectral norm of a selection picking columns ``cols``: S^T S is
    diagonal with the column multiplicities, so the norm is the square root
    of the largest, k.  It is exact when k is a perfect square and otherwise
    the correctly rounded root moved up one float, an upper bound."""
    k = int(np.bincount(cols).max())
    root = math.sqrt(k)
    return root if math.isqrt(k) ** 2 == k else math.nextafter(root, math.inf)


def spectral_norm(w) -> float:
    """Largest singular value of ``w``, rounded up to a guaranteed upper bound.

    Takes the top eigenvalue of the smaller Gram matrix G from the symmetric
    eigensolver, adds the rounding margin 2(m+n)·eps·trace(G) for an m×n
    matrix, and returns the square root.  The margin covers both errors:
    forming G in floating point moves it by at most gamma_k·||A||_F^2 in
    norm (k = max(m, n) terms per entry, gamma_k ≈ k·eps), and the backward
    stable eigensolver moves the top eigenvalue by a small multiple of
    n·eps·||G||_2.  Since trace(G) = ||A||_F^2 >= ||G||_2, the margin
    exceeds their sum, so the value is never below the true norm; it sits
    at most about 2(m+n)·eps·trace(G)/||A||_2^2 relative above it.

    A selection (every row a single entry 1.0, such as an identity) skips
    the eigensolve: its norm is known exactly (``_selection_norm``).
    """
    arr = np.asarray(w, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"spectral norm needs a matrix, got shape {arr.shape}")
    if not _all_finite(arr):
        raise ValueError("matrix entries must be finite")
    if arr.size == 0:
        return 0.0
    cols = _selection_columns(arr)
    if cols is not None:
        return _selection_norm(cols)
    gram = arr @ arr.T if arr.shape[0] <= arr.shape[1] else arr.T @ arr
    top = float(np.linalg.eigvalsh(gram)[-1])
    margin = 2.0 * sum(arr.shape) * np.finfo(float).eps * float(np.trace(gram))
    return float(np.sqrt(max(top, 0.0) + margin))


# spectral norm of each live element's weight: elements are immutable, so a
# norm that certify computed serves rescale_to_stability and later certifies
_SPECTRAL: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _arc_norms(dag: Dag, norm: str) -> dict[int, float]:
    """Weight-norm factor of every arc by arc id; weightless arcs count one."""
    out = {}
    for arc in dag.arcs:
        w = arc.elem.weight
        if w is None:
            out[arc.id] = 1.0
        elif norm == "spectral":
            if arc.elem not in _SPECTRAL:
                _SPECTRAL[arc.elem] = spectral_norm(w)
            out[arc.id] = _SPECTRAL[arc.elem]
        else:
            out[arc.id] = float(np.linalg.norm(w, "fro"))
    return out


@dataclass(frozen=True)
class LevelSum:
    level: int
    sum: float
    frob_sum: float


@dataclass(frozen=True)
class StabilityReport:
    d: float
    level_sums: tuple[LevelSum, ...]
    stable_from: Optional[int]
    certified_C: tuple[float, ...]

    @property
    def certified(self) -> bool:
        return self.stable_from is not None

    @property
    def verdict(self) -> str:
        return "certified stable" if self.certified else "not certified"


@dataclass(frozen=True)
class GainCurve:
    levels: tuple[int, ...]
    gains: tuple[float, ...]
    pairs_used: int
    pairs_subsampled: bool


@dataclass(frozen=True)
class SoundnessReport:
    ok: bool
    violations: tuple[tuple[int, float, float], ...]  # (level, gain, bound)
    gain_curve: GainCurve
    stability: StabilityReport


def _arcs_by_level(dag: Dag) -> tuple[dict[int, int], list[list[Arc]]]:
    """Level of every node, and the arcs into each level 0..L in arc-id order."""
    lvl = levels(dag)
    per_level: list[list[Arc]] = [[] for _ in range(max(lvl.values()) + 1)]
    for arc in dag.arcs:
        per_level[lvl[arc.dst]].append(arc)
    return lvl, per_level


def level_sums(dag: Dag) -> list[LevelSum]:
    """Gain-scaled sums of arc weight norms per destination level, 1..L.

    Only the linear part of each arc enters; biases cancel in differences.
    Identity, duplication, and bare activation or transform arcs have norm
    1; each arc's norm is scaled by its gain bound, d read from the elements
    or max(d, 1), as in ``certify``.
    """
    return list(certify(dag).level_sums)


def _arc_gains(dag: Dag) -> tuple[float, float, dict[int, float]]:
    """The uniform bound d, a common factor, and each arc's gain over it.

    d, read from the elements, bounds only the nonlinearities; an arc with
    no activation or transform has gain one, so it counts max(d, 1), and an
    arc with a nonlinearity counts d.  The common factor is max(d, 1) and an
    arc's share is its gain divided by it, d / d = 1 when d >= 1, so a sum
    formed as factor * sum(share * term) has the bits of d * sum(term).
    """
    d = uniform_bound(arc.elem for arc in dag.arcs)
    scale = max(d, 1.0)
    return d, scale, {a.id: 1.0 if element_bound(a.elem) is None else d / scale for a in dag.arcs}


def certify(dag: Dag) -> StabilityReport:
    """Certify stability: level sums, the first all-suffix-stable level, and
    the certified Lipschitz recursion values, in one pass over the levels;
    each arc's spectral norm is computed once and serves both.  Each arc
    counts its gain bound (``_arc_gains``): d, read from the elements, or
    max(d, 1) for an arc with no nonlinearity."""
    lvl, per_level = _arcs_by_level(dag)
    d, scale, share = _arc_gains(dag)
    spectral = _arc_norms(dag, "spectral")
    frob = _arc_norms(dag, "frobenius")
    sums, c, stable_from = [], [1.0], None
    for n, arcs in enumerate(per_level[1:], start=1):
        # plain += in arc order, so the totals round alike on every Python
        spec_total = frob_total = total = 0.0
        for arc in arcs:
            spec_total += share[arc.id] * spectral[arc.id]
            frob_total += share[arc.id] * frob[arc.id]
            total += share[arc.id] * spectral[arc.id] * c[lvl[arc.src]]
        sums.append(LevelSum(level=n, sum=scale * spec_total, frob_sum=scale * frob_total))
        c.append(scale * total)
        if not sums[-1].sum <= 1.0 + SUM_TOLERANCE:
            stable_from = None
        elif stable_from is None:
            stable_from = n
    return StabilityReport(
        d=d,
        level_sums=tuple(sums),
        stable_from=stable_from,
        certified_C=tuple(c),
    )


def rescale_to_stability(dag: Dag, use_frobenius: bool = False) -> Dag:
    """Scale weight matrices so every level's norm sum is at most one.

    Levels already within budget are untouched.  On a violating level the
    weighted arcs are scaled by the factor that lands the recomputed sum
    exactly at one; weightless arcs (unit contributions) cannot be scaled,
    so the weighted mass absorbs their share.  A level whose unit
    contributions alone exceed the budget cannot be repaired and raises.
    Only linear parts change; biases are preserved.
    """
    _, per_level = _arcs_by_level(dag)
    _, scale, share = _arc_gains(dag)
    norms = _arc_norms(dag, "frobenius" if use_frobenius else "spectral")

    factors: dict[int, float] = {}
    for n, arcs in enumerate(per_level[1:], start=1):
        unit_mass = weighted = 0.0
        for arc in arcs:
            if arc.elem.weight is None:
                unit_mass += share[arc.id]
            else:
                weighted += share[arc.id] * norms[arc.id]
        unit_mass, weighted = scale * unit_mass, scale * weighted
        total = unit_mass + weighted
        if total <= 1.0 + SUM_TOLERANCE:
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
    arcs = tuple(
        replace(a, elem=replace(a.elem, weight=a.elem.weight * factors[a.id])) if a.id in factors else a
        for a in dag.arcs
    )
    return replace(dag, arcs=arcs, labels=dict(dag.labels))


def _level_value_matrices(dag: Dag, xs: np.ndarray) -> list[np.ndarray]:
    """Stacked node values per level, level 0 first (the input itself); the
    nodes of level n >= 1 are the heads of its arcs, in id order."""
    _, trace = forward_batch(dag, xs)
    _, per_level = _arcs_by_level(dag)
    out = [trace[0]]
    for arcs in per_level[1:]:
        out.append(np.concatenate([trace[nid] for nid in sorted({a.dst for a in arcs})], axis=1))
    return out


def _augment(m: np.ndarray, signs: tuple[float, ...] = (1.0,)) -> np.ndarray:
    """Screen matrix of the rows of ``m``: column j is [-2 c_j; 1; a_j per
    sign], a_j = (1 + sign·rel)·s_j + sign·rel·tiny / 2 (``_max_pair_ratios``)."""
    k, c = m.shape[1], m - m[0]
    s, rel = np.einsum("ij,ij->i", c, c), 4.0 * (k + 8) * _EPS
    margins = ((1.0 + sign * rel) * s + sign * rel * _TINY / 2 for sign in signs)
    return np.vstack([-2.0 * c.T, np.ones(len(m)), *margins])


def _pair_bounds(aug: np.ndarray, k: int, i0: int, i1: int, margin: int = 0) -> np.ndarray:
    """Bounds on the squared distances from rows i0 + r to rows i0 + 1 +
    col of an ``_augment`` matrix, with its sign ``margin``: one product of
    the rows [c_i, (1 ± rel)·s_i, 1], read back exactly (-0.5·-2c = c)."""
    rows = np.zeros((i1 - i0, len(aug)))
    rows[:, :k] = aug[:k, i0:i1].T * -0.5
    rows[:, k], rows[:, k + 1 + margin] = aug[k + 1 + margin, i0:i1], 1.0
    return rows @ aug[:, i0 + 1 :]


def _exact_ratios(vs: list, i: np.ndarray, j: np.ndarray, xs=None, min_distance: float = 0.0):
    """Largest ratio per matrix of ``vs`` over the pairs (i, j) in the
    brute-force form ``np.linalg.norm(v[j] - v[i], axis=1)``, over the same
    form on ``xs`` if given, skipping pairs closer than ``min_distance``, and
    the number of pairs kept; gathered in chunks of about ``PAIR_BLOCK``
    entries, each denominator computed once for every matrix."""
    top, count = np.zeros(len(vs)), 0
    step = max(1, PAIR_BLOCK // max(v.shape[1] for v in vs))
    for s in range(0, len(i), step):
        a, b = i[s : s + step], j[s : s + step]
        if xs is not None:
            nx = np.linalg.norm(xs[b] - xs[a], axis=1)
            keep = nx >= min_distance
            a, b, nx = a[keep], b[keep], nx[keep]
        for k, v in enumerate(vs):
            ratio = np.linalg.norm(v[b] - v[a], axis=1)
            if xs is not None:
                ratio /= nx
            top[k] = max(top[k], ratio.max(initial=0.0))
        count += len(a)
    return top, count


def _max_pair_ratios(
    values: list[np.ndarray],
    xs: Optional[np.ndarray] = None,
    min_distance: float = 0.0,
    budget: Optional[int] = None,
    seed: int = 0,
) -> tuple[np.ndarray, int, bool]:
    """Per matrix v of ``values``, the maximum over pairs i < j of
    ||v[j] - v[i]|| / ||xs[j] - xs[i]||, skipping pairs whose denominator is
    below ``min_distance``, the number of pairs kept, and whether the pairs
    were sampled.  Without ``xs`` the denominator is one and every pair is
    kept.  When the pairs outnumber ``budget``, ``budget`` seeded uniform
    draws (i, j), in rounds of 2^17 with i drawn before j, give a lower
    estimate instead, measured in the exact form below.

    The result equals brute force bit for bit: every ratio that can reach
    the result is computed as ``np.linalg.norm(v[j] - v[i], axis=1)`` over
    gathered rows, divided by the same form on ``xs``.  A screen picks those
    pairs in row blocks of about ``PAIR_BLOCK`` entries: per block and
    matrix, one product (``_pair_bounds``) forms the (k + 2)-term inner
    products [c_i, a_i, 1].[-2 c_j; 1; a_j] = s_i + s_j - 2 c_i.c_j ±
    rel·(S + tiny), with c_i row i less the first row, s_i = ||c_i||^2,
    a_i = (1 ± rel)·s_i ± rel·tiny / 2, S = s_i + s_j and rel = 4(k + 8)·eps
    for rows of dimension k.  It rounds by at most gamma_{k+2}·(2 ||c_i||·
    ||c_j|| + a_i + a_j) (Higham; gamma_m = m·u / (1 - m·u), u = eps / 2),
    about (k + 2)·eps·S; rounding s_i and a_i adds (k / 2 + 1)·eps·S, the
    shift 2·eps·S and the exact form's own rounding (k + 4)·eps·S.  rel·S
    covers the sum, and rel·tiny = 4(k + 8)·2^-1074 covers the fewer than
    4k + 4 roundings that can underflow, each by at most 2^-1075.  So the
    + and - products bound the squared norm the exact form computes.  A
    pair is counted, surely at least ``min_distance`` apart, when its lower
    bound lo clears the square and lo and 1 / lo are normal (so fl(1 / lo)
    is within u of 1 / lo); it is dropped when its upper bound falls short
    of the square; the rest are measured for every matrix at once.  A
    counted pair's score hi_v·fl(1 / lo) bounds its squared computed ratio
    within 2.1·eps, so a score of at most best^2·(1 - 16·eps) cannot raise
    the running maximum.  Only in a block whose top score passes is the top
    pair measured, raising the maximum, then every counted pair still above
    the threshold.  Without ``xs`` the score is the + bound itself.
    """
    n = len(values[0])

    def exact(vs, i, j):
        return _exact_ratios(vs, i, j, xs, min_distance)

    if budget is not None and n * (n - 1) // 2 > budget:
        rng = np.random.default_rng(seed)
        best, used = np.zeros(len(values)), 0
        for start in range(0, int(budget), 1 << 17):
            take = min(1 << 17, int(budget) - start)
            i = rng.integers(0, n, size=take)
            top, kept = exact(values, i, rng.integers(0, n, size=take))
            best, used = np.maximum(best, top), used + kept
        return best, used, True

    augs = [_augment(v) for v in values]
    x_aug = None if xs is None else _augment(xs, (-1.0, 1.0))
    best, used, step = np.zeros(len(values)), 0, max(1, PAIR_BLOCK // n)
    md2 = max(min_distance, 0.0) ** 2
    lower, upper, drop = max(md2 * (1.0 + 4.0 * _EPS), _TINY), 1.0 / _TINY, md2 * (1.0 - 4.0 * _EPS)
    for i0 in range(0, n - 1, step):
        i1 = min(i0 + step, n - 1)
        inv = None  # without xs every pair counts, at denominator one
        if xs is not None:
            lo, hi = (_pair_bounds(x_aug, xs.shape[1], i0, i1, margin) for margin in (0, 1))
            below = np.tri(i1 - i0, k=-1, dtype=bool)  # entry (r, col) is pair (i0 + r, i0 + 1 + col):
            lo[:, : i1 - i0][below] = hi[:, : i1 - i0][below] = -1.0  # col < r has j <= i
            sure = (lo > lower) & (lo <= upper)
            settled = sure | (hi < drop)
            if not settled.all():
                r, col = np.nonzero(~settled)
                top, kept = exact(values, i0 + r, i0 + 1 + col)
                best, used = np.maximum(best, top), used + kept
            used += int(np.count_nonzero(sure))
            inv = np.divide(1.0, lo, out=np.zeros_like(lo), where=sure)
        for lev, (v, aug) in enumerate(zip(values, augs)):
            score = _pair_bounds(aug, v.shape[1], i0, i1)
            if inv is not None:
                score *= inv
            k = int(np.argmax(score))
            if score.flat[k] <= best[lev] ** 2 * (1.0 - 16.0 * _EPS):
                continue  # a NaN score goes on to be measured
            if inv is None or inv.flat[k] > 0.0:
                r, col = np.divmod([k], score.shape[1])
                best[lev] = max(best[lev], exact([v], i0 + r, i0 + 1 + col)[0][0])
            reach = ~(score <= best[lev] ** 2 * (1.0 - 16.0 * _EPS)) & (True if inv is None else inv > 0.0)
            r, col = np.nonzero(reach)
            best[lev] = max(best[lev], exact([v], i0 + r, i0 + 1 + col)[0][0])
    return best, used if xs is not None else n * (n - 1) // 2, False


def empirical_gain(
    dag: Dag,
    samples,
    pair_budget: int = 2_000_000,
    seed: int = 0,
    min_distance: float = 1e-9,
) -> GainCurve:
    """Per-level maximum gain ||N_n(x) - N_n(y)|| / ||x - y|| over pairs.

    All pairs when the budget allows, otherwise a seeded uniform sample of
    ``pair_budget`` pairs.  Pairs closer than ``min_distance`` are skipped.
    Level n stacks the values of every level-n node; level 0 is the input,
    so its gain is exactly one.  The all-pairs maximum and pair count equal
    the brute-force loop over rows bit for bit; ``_max_pair_ratios`` states
    the rounding bound that makes them so.
    """
    xs = np.asarray(samples, dtype=float)
    if xs.ndim != 2 or len(xs) < 2:
        raise ValueError("empirical gain needs at least two samples")
    if not (xs != xs[0]).any():
        raise ValueError("empirical gain needs at least two distinct samples")
    if pair_budget is not None and pair_budget < 1:
        raise ValueError(f"pair_budget must be at least 1, got {pair_budget}")
    values = _level_value_matrices(dag, xs)
    # a graph of its input node alone still counts its pairs by the same rule
    gains, used, subsampled = _max_pair_ratios(values[1:] or values, xs, min_distance, pair_budget, seed)
    if used == 0:
        raise ValueError("all sample pairs are closer than the minimum distance")
    return GainCurve(
        levels=tuple(range(len(values))),
        gains=(1.0, *(float(g) for g in gains[: len(values) - 1])),
        pairs_used=used,
        pairs_subsampled=subsampled,
    )


def soundness_check(
    dag: Dag,
    samples,
    report: Optional[StabilityReport] = None,
    pair_budget: int = 2_000_000,
    seed: int = 0,
    tolerance: float = 1e-6,
) -> SoundnessReport:
    """Assert measured gains never beat the certified bound.

    The bound at level n is C(n) itself, which bounds the level-n gain for
    every input pair; a violation signals an implementation bug.
    """
    if report is None:
        report = certify(dag)
    curve = empirical_gain(dag, samples, pair_budget=pair_budget, seed=seed)
    violations = []
    for lev, gain in zip(curve.levels, curve.gains):
        bound = report.certified_C[lev]
        if gain > bound + tolerance:
            violations.append((lev, float(gain), float(bound)))
    return SoundnessReport(
        ok=not violations,
        violations=tuple(violations),
        gain_curve=curve,
        stability=report,
    )


def resnet_link_condition(w1, w2) -> tuple[bool, float]:
    """Alternative two-layer residual stability check.

    Evaluates ||I - W2 W1||_2 <= 1; informational only, applicable to the
    specific direct-link block shape rather than general graphs.
    """
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    value = spectral_norm(np.eye(w2.shape[0]) - w2 @ w1)
    return bool(value <= 1.0), float(value)
