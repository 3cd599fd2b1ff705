"""Arc elements: the one payload type a graph arc carries.

An ``ArcElement`` applies an optional affine map x -> W x (+ b), then at
most one nonlinearity: a CPWL activation or block pool (``act``) or a
transform (``spec``).  A weightless element states its dimension in
``dim``.  The seven kinds of the network format (identity, linear, affine,
activation, activation_affine, transform, transform_affine) are derived
from which parts are present, and the functions named after them build
elements.  Elements are immutable and apply to batches (leading axes are
preserved, the last axis is the vector dimension).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .basis import (
    ActivationLike,
    PoolSpec,
    TransformSpec,
    _all_finite,
    activation_bound,
    cpwl_eval,
    pool_values,
    transform_eval,
)

__all__ = [
    "ArcElement",
    "Identity",
    "Linear",
    "Affine",
    "Activation",
    "ActivationAffine",
    "Transform",
    "TransformAffine",
    "linear_part",
    "activation_of",
    "element_bound",
    "uniform_bound",
]


def _matrix(value) -> np.ndarray:
    arr = np.array(value, dtype=float)
    if arr.ndim != 2 or 0 in arr.shape:
        raise ValueError(f"weight must be a non-empty 2-D matrix, got shape {arr.shape}")
    if not _all_finite(arr):
        raise ValueError("weight entries must be finite")
    arr.setflags(write=False)
    return arr


def _vector(value, rows: int) -> np.ndarray:
    arr = np.array(value, dtype=float).reshape(-1)
    if arr.shape != (rows,):
        raise ValueError(f"bias must have length {rows}, got {arr.shape}")
    if not _all_finite(arr):
        raise ValueError("bias entries must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ArcElement:
    """Optional affine map (bias None for a linear one), then at most one of
    an activation or a transform; ``dim`` is the size of a weightless one."""

    weight: Optional[np.ndarray] = None
    bias: Optional[np.ndarray] = None
    act: Optional[ActivationLike] = None
    spec: Optional[TransformSpec] = None
    dim: Optional[int] = None

    def __post_init__(self):
        if self.act is not None and self.spec is not None:
            raise ValueError("an element applies an activation or a transform, not both")
        if self.weight is None:
            if self.bias is not None:
                raise ValueError("a bias needs a weight")
            if self.dim is None or self.dim < 1:
                raise ValueError(f"{self.kind} dimension must be positive")
        elif self.dim is not None:
            raise ValueError("a weighted element takes its dimensions from the weight")
        else:
            object.__setattr__(self, "weight", _matrix(self.weight))
            if self.bias is not None:
                object.__setattr__(self, "bias", _vector(self.bias, self.weight.shape[0]))
        rows = self._rows
        if isinstance(self.act, PoolSpec) and rows % self.act.block:
            raise ValueError(
                f"activation input dim {rows} is not a multiple of block {self.act.block}"
            )

    @property
    def kind(self) -> str:
        if self.act is not None:
            nonlinear = "activation"
        elif self.spec is not None:
            nonlinear = "transform"
        else:
            return "identity" if self.weight is None else "linear" if self.bias is None else "affine"
        return nonlinear if self.weight is None else nonlinear + "_affine"

    @property
    def _rows(self) -> int:
        """Dimension the nonlinearity sees."""
        return self.dim if self.weight is None else self.weight.shape[0]

    @property
    def in_dim(self) -> int:
        return self.dim if self.weight is None else self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        if isinstance(self.act, PoolSpec):
            return self._rows // self.act.block
        return self._rows

    def pre_activation(self, values: np.ndarray) -> np.ndarray:
        """Input seen by the element's nonlinearity (affine part applied)."""
        if self.weight is None:
            return values
        out = values @ self.weight.T
        return out if self.bias is None else out + self.bias

    def apply(self, values: np.ndarray) -> np.ndarray:
        """The element's output values alone, with no pattern ids."""
        pre = self.pre_activation(values)
        if isinstance(self.act, PoolSpec):
            return pool_values(self.act, pre)
        if self.act is not None:
            return cpwl_eval(self.act, pre)
        if self.spec is not None:
            return transform_eval(self.spec, pre)
        return pre


def _zero_bias(weight) -> np.ndarray:
    return np.zeros(np.shape(weight)[:1])


def Identity(dim: int) -> ArcElement:
    return ArcElement(dim=dim)


def Linear(weight) -> ArcElement:
    return ArcElement(weight)


def Affine(weight, bias=None) -> ArcElement:
    return ArcElement(weight, _zero_bias(weight) if bias is None else bias)


def Activation(act: ActivationLike, dim: int) -> ArcElement:
    return ArcElement(act=act, dim=dim)


def ActivationAffine(act: ActivationLike, weight, bias=None) -> ArcElement:
    """Activation applied to the output of an affine map."""
    return ArcElement(weight, _zero_bias(weight) if bias is None else bias, act=act)


def Transform(spec: TransformSpec, dim: int) -> ArcElement:
    return ArcElement(spec=spec, dim=dim)


def TransformAffine(spec: TransformSpec, weight, bias=None) -> ArcElement:
    """Transform applied to the output of an affine map."""
    return ArcElement(weight, _zero_bias(weight) if bias is None else bias, spec=spec)


def linear_part(elem: ArcElement) -> Optional[np.ndarray]:
    """Weight matrix of the element's affine part, or None when there is none."""
    return elem.weight


def activation_of(elem: ArcElement) -> Optional[ActivationLike]:
    return elem.act


def element_bound(elem: ArcElement) -> Optional[float]:
    """Gain bound contributed by the element's nonlinearity, if any.

    CPWL activations bound the linear-factor magnitude; block max pools are
    selections with gain 1; transforms carry their Lipschitz bound.  Purely
    affine elements contribute nothing here.
    """
    if isinstance(elem.act, PoolSpec):
        return 1.0
    if elem.act is not None:
        return activation_bound(elem.act)
    if elem.spec is not None:
        return elem.spec.lipschitz_bound
    return None


def uniform_bound(elems: Iterable[ArcElement]) -> float:
    """Max nonlinearity gain bound over a collection of elements.

    With no nonlinear element present the bound is 1, which is exact: the
    certificate counts an arc with no nonlinearity at max(d, 1).
    """
    return float(max((b for b in map(element_bound, elems) if b is not None), default=1.0))
