"""Point-wise CPWL activations, pooling activations, and Lipschitz transforms.

A scalar continuous piecewise-linear (CPWL) activation is stored as a sum of
shifted ramps,

    rho(x) = sum_i r_i * relu(x - a_i) + sum_j l_j * relu(t_j - x),

so every activation used here is a small ReLU network in disguise.  On each
breakpoint interval the function is affine, which lets us replace it with a
data-dependent linear factor per coordinate: ``rho(x) = slope(x) * x +
offset(x)`` where slope and offset are constant on the interval containing x.
The offset vanishes whenever the active piece's linear extension crosses the
origin (ReLU, |x|, leaky ReLU), so for those the pure ``slope * x`` identity
is exact.

Boundary convention: a right piece activates only for x strictly greater than
its breakpoint, a left piece only for x strictly smaller.  Points sitting on a
breakpoint therefore fold into the inactive side, which keeps the per-input
codes deterministic on measure-zero boundary sets.

The activation kernels run once per arc on every query, so each makes one
finite test (a sum of squares, ``_all_finite``) and one numpy pass per CPWL
piece or per pool column; none reduces over a short last axis.  Their
outputs keep the bits of a sum started from +0.0 and of a max reduction,
signed zeros included.  ``activation_eval`` gives the values and the pattern
ids from one call, a pool's from one fold; slopes are read from the id bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

__all__ = [
    "CpwlSpec",
    "PoolSpec",
    "TransformSpec",
    "UnRectifyingPattern",
    "MAXLU2_SYMBOLS",
    "cpwl_eval",
    "cpwl_piece_ids",
    "cpwl_slope_offset",
    "unrectify",
    "activation_eval",
    "activation_bound",
    "pool_values",
    "pool_ids",
    "maxlu2",
    "transform_eval",
    "relu_spec",
    "abs_spec",
    "leaky_relu_spec",
    "hard_tanh_spec",
]

Pieces = tuple[tuple[float, float], ...]


def _finite_pairs(pairs: Iterable[Sequence[float]], what: str) -> Pieces:
    out = []
    for pair in pairs:
        coeff, knot = float(pair[0]), float(pair[1])
        if not (np.isfinite(coeff) and np.isfinite(knot)):
            raise ValueError(f"{what} must have finite entries, got {pair!r}")
        out.append((coeff, knot))
    return tuple(out)


@dataclass(frozen=True)
class CpwlSpec:
    """Breakpoint/slope description of a point-wise CPWL activation.

    ``right_pieces`` holds (coefficient, breakpoint) pairs for relu(x - a)
    terms, ``left_pieces`` the pairs for relu(t - x) terms.
    """

    right_pieces: Pieces = ()
    left_pieces: Pieces = ()

    def __post_init__(self):
        object.__setattr__(
            self, "right_pieces", _finite_pairs(self.right_pieces, "right piece")
        )
        object.__setattr__(
            self, "left_pieces", _finite_pairs(self.left_pieces, "left piece")
        )
        if self.piece_count < 1:
            raise ValueError("a CPWL spec needs at least one piece")
        if self.piece_count > 62:
            raise ValueError("piece ids are packed into 62 bits")

    @property
    def piece_count(self) -> int:
        return len(self.right_pieces) + len(self.left_pieces)

    def breakpoints(self) -> tuple[float, ...]:
        knots = {k for _, k in self.right_pieces} | {k for _, k in self.left_pieces}
        return tuple(sorted(knots))


@dataclass(frozen=True)
class PoolSpec:
    """Block max activation.

    Consecutive blocks of ``block`` coordinates are reduced to their maximum.
    With ``rectified`` the block value is also clamped at zero (max over the
    rectified entries), which adds a "dead" state when the whole block is
    non-positive.
    """

    block: int
    rectified: bool = True

    def __post_init__(self):
        if self.block < 2:
            raise ValueError(f"pool block must be at least 2, got {self.block}")


@dataclass(frozen=True)
class TransformSpec:
    """Non-linear transform applied as a plain function of its input.

    ``kind`` is one of softmax, sigmoid, tanh.  ``scale`` is the softmax
    inverse temperature; the stored Lipschitz bound is ``scale`` for softmax
    and 1 for the saturating transforms.
    """

    kind: str
    scale: float = 1.0

    _KINDS = ("softmax", "sigmoid", "tanh")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown transform kind {self.kind!r}")
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ValueError("transform scale must be finite and positive")

    @property
    def lipschitz_bound(self) -> float:
        return float(self.scale) if self.kind == "softmax" else 1.0


ActivationLike = Union[CpwlSpec, PoolSpec]


@dataclass(frozen=True, eq=False)
class UnRectifyingPattern:
    """Data-dependent linear replacement of an activation at one input.

    ``entries`` is the per-coordinate linear factor (the diagonal of the
    replacement map), ``offsets`` the per-coordinate constant part, and
    ``piece_ids`` an integer per coordinate identifying which side of every
    breakpoint the coordinate sits on.  ``entries * x + offsets`` reproduces
    the activation exactly; offsets are zero whenever every active piece
    crosses the origin.
    """

    entries: np.ndarray
    offsets: np.ndarray
    piece_ids: np.ndarray


def _all_finite(arr: np.ndarray) -> bool:
    """Whether every entry of ``arr`` is finite, by one test in the common case.

    A sum of squares is non-finite if any entry is (or if it overflows), so
    the entries are tested one by one only when it is.  Order "K" reads them
    in memory order, so no layout is copied; vdot, unlike dot and sum, raises
    no overflow warning on finite entries.
    """
    flat = arr.ravel(order="K")
    return math.isfinite(np.vdot(flat, flat)) or bool(np.isfinite(arr).all())


def cpwl_eval(spec: CpwlSpec, x):
    """Evaluate the CPWL activation elementwise.

    One numpy pass per piece builds its ramp; the sum starts from the first
    term.  A right ramp at a zero knot skips ``x - 0.0`` and a unit
    coefficient skips ``1.0 * ramp``: ``np.maximum(t, 0.0)`` is +0.0 at
    t = ±0.0, so neither changes a bit.  For the same reason the first term
    is -0.0 only under a coefficient that is not positive, and then ``+ 0.0``
    gives the +0.0 of a sum started from +0.0.
    """
    arr = np.asarray(x, dtype=float)
    if not _all_finite(arr):
        raise ValueError("activation input must be finite")
    out = None
    for right, (coeff, knot) in _sided_pieces(spec):
        ramp = np.maximum((arr - knot if knot else arr) if right else knot - arr, 0.0)
        term = ramp if coeff == 1.0 else coeff * ramp
        if out is not None:
            out += term
        else:
            out = term + 0.0 if coeff <= 0.0 else term
    return float(out) if out.ndim == 0 else out


def cpwl_piece_ids(spec: CpwlSpec, x) -> np.ndarray:
    """Bitmask of strictly active pieces per coordinate: bit k for right
    piece k, bit ``len(right_pieces) + k`` for left piece k.  The first
    piece's bits start the mask; each further piece is one pass."""
    arr = np.asarray(x, dtype=float)
    ids = None
    for k, (right, (_, knot)) in enumerate(_sided_pieces(spec)):
        active = np.array(arr > knot if right else arr < knot, dtype=np.int64)
        if ids is None:
            ids = active
        else:
            ids |= active << k
    return ids


def _sided_pieces(spec: CpwlSpec):
    """(is right piece, (coefficient, knot)) over the right pieces, then the
    left ones: the order of the piece bits."""
    for piece in spec.right_pieces:
        yield True, piece
    for piece in spec.left_pieces:
        yield False, piece


def cpwl_slope_offset(spec: CpwlSpec, x) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate affine piece (slope, offset) active at x."""
    return _piece_slope_offset(spec, cpwl_piece_ids(spec, x))


def _piece_slope_offset(spec: CpwlSpec, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(slope, offset) of the pieces whose bits ``ids`` set, one pass per
    piece; adding a left piece's negated terms keeps the bits of subtracting."""
    slope = np.zeros(ids.shape)
    offset = np.zeros(ids.shape)
    for k, (right, (coeff, knot)) in enumerate(_sided_pieces(spec)):
        active = ids >> k & 1
        signed = coeff if right else -coeff
        slope += signed * active
        offset -= signed * knot * active
    return slope, offset


def unrectify(spec: CpwlSpec, x) -> UnRectifyingPattern:
    """Replace the activation at x by its active linear pieces."""
    arr = np.asarray(x, dtype=float)
    if not _all_finite(arr):
        raise ValueError("activation input must be finite")
    ids = cpwl_piece_ids(spec, arr)
    slope, offset = _piece_slope_offset(spec, ids)
    for a in (slope, offset, ids):
        a.setflags(write=False)
    return UnRectifyingPattern(entries=slope, offsets=offset, piece_ids=ids)


def activation_bound(spec: CpwlSpec) -> float:
    """Largest possible linear factor magnitude over all inputs.

    The factor is piecewise constant, so probing one point per breakpoint
    interval plus the breakpoints themselves (where the open-boundary rule
    can produce a distinct combination) is exhaustive.
    """
    knots = list(spec.breakpoints())
    probes = list(knots)
    probes.append(knots[0] - 1.0)
    probes.append(knots[-1] + 1.0)
    for lo, hi in zip(knots, knots[1:]):
        probes.append(0.5 * (lo + hi))
    slope, _ = cpwl_slope_offset(spec, np.asarray(probes))
    return float(np.max(np.abs(slope)))


def _pool_fold(spec: PoolSpec, arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Blockwise max along the last axis and the selection code per block,
    from one ufunc pass per block column, a strided view: a reduction over a
    short last axis is slow in numpy.  A strict ``>`` against the running
    max keeps the lowest index on a tie, and ``np.maximum`` returns its
    second operand on a tie, as the max reduction does, so a signed zero
    comes out as the reduction's did.  A rectified pool clamps at zero, and
    its block is dead unless the block max is strictly positive."""
    if arr.shape[-1] % spec.block:
        raise ValueError(
            f"pool input length {arr.shape[-1]} is not a multiple of block {spec.block}"
        )
    cols = [arr[..., i :: spec.block] for i in range(spec.block)]
    ids = np.add(cols[1] > cols[0], 1, dtype=np.int64)
    best = np.maximum(cols[0], cols[1])
    for i in range(2, spec.block):
        np.putmask(ids, cols[i] > best, i + 1)
        np.maximum(best, cols[i], out=best)
    if spec.rectified:
        ids *= best > 0.0
        np.maximum(best, 0.0, out=best)
    return best, ids


def activation_eval(act: ActivationLike, x) -> tuple[np.ndarray, np.ndarray]:
    """Values and pattern ids of the activation at x from one kernel call,
    bit for bit those of ``cpwl_eval`` or ``pool_values`` and of
    ``cpwl_piece_ids`` or ``pool_ids``; any non-finite entry is an error."""
    if not isinstance(act, PoolSpec):
        return cpwl_eval(act, x), cpwl_piece_ids(act, x)
    arr = np.asarray(x, dtype=float)
    if not _all_finite(arr):
        raise ValueError("activation input must be finite")
    return _pool_fold(act, arr)


def pool_values(spec: PoolSpec, x) -> np.ndarray:
    """Blockwise max along the last axis; rectified pools clamp at zero.
    Any non-finite entry is an error, even one the max would drop."""
    return activation_eval(spec, x)[0]


def pool_ids(spec: PoolSpec, x) -> np.ndarray:
    """Selection code per block: i+1 when entry i wins, 0 for a dead block.

    Ties select the lowest index.  Rectified pools are dead unless the block
    maximum is strictly positive; plain max pools always select.  A NaN
    wins its block, the first NaN if there are more, and is not positive.

    These are the codes of ``pool_values``' fold, with no finite test.  The
    fold keeps a NaN once it is met, so a block with a NaN is dead when
    rectified; only a plain pool then looks for its first NaN, once some
    block holds one.
    """
    arr = np.asarray(x, dtype=float)
    best, ids = _pool_fold(spec, arr)
    if not spec.rectified and math.isnan(np.vdot(best, best)):
        for i in reversed(range(spec.block)):
            ids[np.isnan(arr[..., i :: spec.block])] = i + 1
    return ids


MAXLU2_SYMBOLS = {0: "dead", 1: "sel_left", 2: "sel_right"}


def maxlu2(x) -> tuple[float, str]:
    """Rectified max of a 2-vector plus the selection symbol.

    Returns max(0, x1, x2) and one of ``sel_left`` (x1 >= x2 and x1 > 0),
    ``sel_right`` (x2 > x1 and x2 > 0), or ``dead``.
    """
    arr = np.asarray(x, dtype=float)
    if arr.shape != (2,):
        raise ValueError(f"maxlu2 expects a 2-vector, got shape {arr.shape}")
    value, ids = activation_eval(PoolSpec(block=2, rectified=True), arr)
    return float(value[0]), MAXLU2_SYMBOLS[int(ids[0])]


def transform_eval(spec: TransformSpec, x) -> np.ndarray:
    """Apply a transform; softmax normalizes over the last axis."""
    arr = np.asarray(x, dtype=float)
    if not _all_finite(arr):
        raise ValueError("transform input must be finite")
    if spec.kind == "softmax":
        z = spec.scale * arr
        z = z - z.max(axis=-1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=-1, keepdims=True)
    if spec.kind == "sigmoid":
        out = np.empty_like(arr)
        pos = arr >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
        ez = np.exp(arr[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out
    return np.tanh(arr)


def relu_spec() -> CpwlSpec:
    return CpwlSpec(right_pieces=((1.0, 0.0),))


def abs_spec() -> CpwlSpec:
    return CpwlSpec(right_pieces=((1.0, 0.0),), left_pieces=((1.0, 0.0),))


def leaky_relu_spec(alpha: float = 0.1) -> CpwlSpec:
    return CpwlSpec(right_pieces=((1.0, 0.0),), left_pieces=((-alpha, 0.0),))


def hard_tanh_spec() -> CpwlSpec:
    return CpwlSpec(
        right_pieces=((1.0, 0.0), (-1.0, 1.0)),
        left_pieces=((1.0, -1.0), (-1.0, 0.0)),
    )
