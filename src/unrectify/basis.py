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


def cpwl_eval(spec: CpwlSpec, x):
    """Evaluate the CPWL activation elementwise."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("activation input must be finite")
    out = np.zeros_like(arr)
    for coeff, knot in spec.right_pieces:
        out += coeff * np.maximum(arr - knot, 0.0)
    for coeff, knot in spec.left_pieces:
        out += coeff * np.maximum(knot - arr, 0.0)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def cpwl_piece_ids(spec: CpwlSpec, x) -> np.ndarray:
    """Bitmask of strictly active pieces per coordinate."""
    arr = np.asarray(x, dtype=float)
    ids = np.zeros(arr.shape, dtype=np.int64)
    for k, (_, knot) in enumerate(spec.right_pieces):
        ids |= (arr > knot).astype(np.int64) << k
    shift = len(spec.right_pieces)
    for k, (_, knot) in enumerate(spec.left_pieces):
        ids |= (arr < knot).astype(np.int64) << (shift + k)
    return ids


def cpwl_slope_offset(spec: CpwlSpec, x) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate affine piece (slope, offset) active at x."""
    arr = np.asarray(x, dtype=float)
    slope = np.zeros(arr.shape)
    offset = np.zeros(arr.shape)
    for coeff, knot in spec.right_pieces:
        active = arr > knot
        slope += coeff * active
        offset -= coeff * knot * active
    for coeff, knot in spec.left_pieces:
        active = arr < knot
        slope -= coeff * active
        offset += coeff * knot * active
    return slope, offset


def unrectify(spec: CpwlSpec, x) -> UnRectifyingPattern:
    """Replace the activation at x by its active linear pieces."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("activation input must be finite")
    slope, offset = cpwl_slope_offset(spec, arr)
    ids = cpwl_piece_ids(spec, arr)
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
    if not knots:
        knots = [0.0]
    probes = list(knots)
    probes.append(knots[0] - 1.0)
    probes.append(knots[-1] + 1.0)
    for lo, hi in zip(knots, knots[1:]):
        probes.append(0.5 * (lo + hi))
    slope, _ = cpwl_slope_offset(spec, np.asarray(probes))
    return float(np.max(np.abs(slope)))


def pool_values(spec: PoolSpec, x) -> np.ndarray:
    """Blockwise max along the last axis; rectified pools clamp at zero."""
    arr = np.asarray(x, dtype=float)
    # the max can drop a non-finite entry; a sum of squares is non-finite if
    # any entry is.  vdot, unlike dot and sum, raises no overflow warning.
    flat = arr.ravel(order="K")
    if not math.isfinite(np.vdot(flat, flat)) and not np.isfinite(arr).all():
        raise ValueError("activation input must be finite")
    if arr.shape[-1] % spec.block:
        raise ValueError(
            f"pool input length {arr.shape[-1]} is not a multiple of block {spec.block}"
        )
    blocks = arr.reshape(*arr.shape[:-1], arr.shape[-1] // spec.block, spec.block)
    out = blocks.max(axis=-1)
    if spec.rectified:
        out = np.maximum(out, 0.0)
    return out


def pool_ids(spec: PoolSpec, x) -> np.ndarray:
    """Selection code per block: i+1 when entry i wins, 0 for a dead block.

    Ties select the lowest index.  Rectified pools are dead unless the block
    maximum is strictly positive; plain max pools always select.
    """
    arr = np.asarray(x, dtype=float)
    blocks = arr.reshape(*arr.shape[:-1], arr.shape[-1] // spec.block, spec.block)
    sel = np.argmax(blocks, axis=-1).ravel()
    ids = sel.astype(np.int64) + 1
    if spec.rectified:
        # the winner's value (the first NaN, if any) read at its flat index:
        # cheaper than take_along_axis, and than a max over a short last axis
        ids[~(blocks.reshape(-1, spec.block)[np.arange(len(sel)), sel] > 0.0)] = 0
    return ids.reshape(blocks.shape[:-1])


MAXLU2_SYMBOLS = {0: "dead", 1: "sel_left", 2: "sel_right"}


def maxlu2(x) -> tuple[float, str]:
    """Rectified max of a 2-vector plus the selection symbol.

    Returns max(0, x1, x2) and one of ``sel_left`` (x1 >= x2 and x1 > 0),
    ``sel_right`` (x2 > x1 and x2 > 0), or ``dead``.
    """
    arr = np.asarray(x, dtype=float)
    if arr.shape != (2,):
        raise ValueError(f"maxlu2 expects a 2-vector, got shape {arr.shape}")
    spec = PoolSpec(block=2, rectified=True)
    value = float(pool_values(spec, arr)[0])
    return value, MAXLU2_SYMBOLS[int(pool_ids(spec, arr)[0])]


def transform_eval(spec: TransformSpec, x) -> np.ndarray:
    """Apply a transform; softmax normalizes over the last axis."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
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
