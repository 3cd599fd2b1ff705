"""Stability certification from per-level weight-norm sums.

For a valid graph with uniform nonlinearity gain bound d, the certified
Lipschitz value of the level-n stacked function follows the recursion

    C(0) = 1,   C(n) = d * sum over level-n nodes a, incoming arcs b->a of
                        ||W_ab||_2 * C(level(b)),

where identity, duplication, and bare-activation arcs contribute a unit
factor and bias terms drop out of differences.  If every level from some m
onward satisfies d * sum ||W_ab||_2 <= 1, the running maximum of C stops
growing and the network is certified stable.  ``certify`` forms the level
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

import weakref
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .elements import uniform_bound
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
PAIR_BLOCK = 1 << 15  # Gram entries per row block of a pair sweep: 16 rows at n = 2,000
_EPS = np.finfo(float).eps


def svd_spectral_norm(w) -> float:
    """Dense SVD largest singular value; the reference oracle."""
    arr = np.asarray(w, dtype=float)
    if arr.size == 0:
        return 0.0
    return float(np.linalg.svd(arr, compute_uv=False)[0])


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
    """
    arr = np.asarray(w, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"spectral norm needs a matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    if arr.size == 0:
        return 0.0
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


def level_sums(dag: Dag, d: Optional[float] = None) -> list[LevelSum]:
    """d-scaled sums of arc weight norms per destination level, 1..L.

    Only the linear part of each arc enters; biases cancel in differences.
    Identity, duplication, and bare activation or transform arcs count 1.
    """
    return list(certify(dag, d).level_sums)


def certify(dag: Dag, d: Optional[float] = None) -> StabilityReport:
    """Certify stability: level sums, the first all-suffix-stable level, and
    the certified Lipschitz recursion values, in one pass over the levels;
    each arc's spectral norm is computed once and serves both."""
    dag.require_valid()
    if d is None:
        d = uniform_bound(arc.elem for arc in dag.arcs)
    if not 0.0 <= d < np.inf:
        raise ValueError(f"d must be finite and nonnegative, got {d}")
    spectral = _arc_norms(dag, "spectral")
    frob = _arc_norms(dag, "frobenius")
    lvl, per_level = _arcs_by_level(dag)
    sums, c, stable_from = [], [1.0], None
    for n, arcs in enumerate(per_level[1:], start=1):
        # plain += in arc order, so the totals round alike on every Python
        spec_total = frob_total = total = 0.0
        for arc in arcs:
            spec_total += spectral[arc.id]
            frob_total += frob[arc.id]
            total += spectral[arc.id] * c[lvl[arc.src]]
        sums.append(LevelSum(level=n, sum=d * spec_total, frob_sum=d * frob_total))
        c.append(d * total)
        if not sums[-1].sum <= 1.0 + SUM_TOLERANCE:
            stable_from = None
        elif stable_from is None:
            stable_from = n
    return StabilityReport(
        d=float(d),
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
    dag.require_valid()
    d = uniform_bound(arc.elem for arc in dag.arcs)
    norms = _arc_norms(dag, "frobenius" if use_frobenius else "spectral")
    _, per_level = _arcs_by_level(dag)

    factors: dict[int, float] = {}
    for n, arcs in enumerate(per_level[1:], start=1):
        unit_mass = weighted = 0.0
        for arc in arcs:
            if arc.elem.weight is None:
                unit_mass += 1.0
            else:
                weighted += norms[arc.id]
        unit_mass, weighted = d * unit_mass, d * weighted
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
    out = replace(dag, arcs=arcs, labels=dict(dag.labels))
    out.require_valid()
    return out


def _level_value_matrices(dag: Dag, xs: np.ndarray) -> list[np.ndarray]:
    """Stacked node values per level, level 0 first (the input itself); the
    nodes of level n >= 1 are the heads of its arcs, in id order."""
    _, trace = forward_batch(dag, xs)
    _, per_level = _arcs_by_level(dag)
    out = [trace[0]]
    for arcs in per_level[1:]:
        out.append(np.concatenate([trace[nid] for nid in sorted({a.dst for a in arcs})], axis=1))
    return out


def _screen(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Rows shifted by the first row, their squared norms, and the rounding
    factor 4(k + 8)·eps for rows of dimension k (see ``_max_pair_ratios``).
    Any shift keeps the bound; one near the points keeps it tight, and a
    sample row costs no reduction."""
    c = m - m[0]
    return c, np.einsum("ij,ij->i", c, c), 4.0 * (m.shape[1] + 8) * _EPS


def _gram_bound(screen, i0: int, i1: int, sign: float) -> np.ndarray:
    """Bound on the squared distances between rows i0..i1-1 and rows i0+1..
    of one screened matrix: s_i + s_j - 2 c_i.c_j moved by ``sign`` times
    the rounding term, an upper bound for +1 and a lower bound for -1."""
    c, sq, rel = screen
    out = c[i0:i1] @ c[i0 + 1 :].T
    out *= -2.0
    out += (1.0 + sign * rel) * sq[i0:i1, None]
    out += (1.0 + sign * rel) * sq[None, i0 + 1 :]
    return out


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
    gathered rows, divided by the same form on ``xs``.  A Gram screen picks
    those pairs.  The upper triangle is swept in row blocks of about
    ``PAIR_BLOCK`` entries.  Per block and matrix, one matmul of the rows
    shifted by the first row, c_i = v_i - v_0, gives the squared distances
    d = s_i + s_j - 2 c_i.c_j with s_i = ||c_i||^2.  For rows of dimension
    k each inner product rounds by at most gamma_k·||c_i||·||c_j|| (Higham,
    gamma_k = k·u / (1 - k·u), u = eps / 2), so d is within
    (k + 2)·eps·(s_i + s_j) of ||c_i - c_j||^2.  Rounding the shift moves
    that by at most 2·eps·(s_i + s_j), and the exact form's own rounding is
    below (k + 4)·eps·(s_i + s_j).  The margin 4(k + 8)·eps·(s_i + s_j)
    covers the three twice over, so d plus and minus it bound the squared
    norm the exact form computes.  Per block, the screened best pair of
    each matrix is measured exactly and raises a running maximum; then
    every pair whose upper bound can reach that maximum is measured exactly,
    which includes every pair whose denominator bound reaches zero.  Pairs
    surely at least ``min_distance`` apart are counted from the bound, the
    ambiguous ones are measured.
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

    screens = [_screen(v) for v in values]
    x_screen = None if xs is None else _screen(xs)
    best = np.zeros(len(values))
    md2 = max(min_distance, 0.0) ** 2
    used = 0
    step = max(1, PAIR_BLOCK // n)
    for i0 in range(0, n - 1, step):
        i1 = min(i0 + step, n - 1)
        if xs is None:
            # below the diagonal, entry (r, col) repeats a pair of this block
            # reversed, which has the same norm, and the diagonal is zero
            kept, inv, floor = True, 1.0, 1.0 - 4.0 * _EPS
        else:
            # entry (r, col) is the pair (i0 + r, i0 + 1 + col); j > i keeps col >= r
            tri = np.arange(i1 - i0)[:, None] <= np.arange(n - i0 - 1)
            lo = _gram_bound(x_screen, i0, i1, -1.0)
            hi = _gram_bound(x_screen, i0, i1, +1.0)
            sure = tri & (lo > md2 * (1.0 + 4.0 * _EPS))
            kept = tri & (hi >= md2 * (1.0 - 4.0 * _EPS))
            unsure = kept & ~sure
            if unsure.any():
                r, col = np.nonzero(unsure)
                used += exact([xs], i0 + r, i0 + 1 + col)[1]
            used += int(sure.sum())
            # lower bound on the squared denominator, less the comparison's rounding
            floor = np.maximum(lo, 0.0) * (1.0 - 4.0 * _EPS)
            inv = np.divide(1.0, lo, out=np.zeros_like(lo), where=sure)
        for lev, (v, screen) in enumerate(zip(values, screens)):
            hi_v = _gram_bound(screen, i0, i1, +1.0)
            score = hi_v * inv  # bounds the squared ratio of every sure pair
            k = int(np.argmax(score))
            if score.flat[k] > best[lev] ** 2:
                r, col = np.divmod([k], score.shape[1])
                best[lev] = max(best[lev], exact([v], i0 + r, i0 + 1 + col)[0][0])
            reach = (hi_v >= best[lev] ** 2 * floor) & kept
            if reach.any():
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

    The bound at level n is the running maximum of the certified recursion
    up to n; a violation signals an implementation bug, since the bound is
    proven for every input pair.
    """
    if report is None:
        report = certify(dag)
    curve = empirical_gain(dag, samples, pair_budget=pair_budget, seed=seed)
    violations = []
    running = 0.0
    for lev in curve.levels:
        running = max(running, report.certified_C[lev])
        gain = curve.gains[lev]
        if gain > running + tolerance:
            violations.append((lev, float(gain), float(running)))
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
