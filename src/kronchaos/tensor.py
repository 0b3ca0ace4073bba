"""Order-k arrays, partial indices and the index algebra used by every bound.

Axes are labeled 1..k and coordinates are 1-based in the API; flat buffers
are 0-based row-major with axis 1 slowest.  This flattening convention is
the one induced by the Kronecker product: for x in R^{n_1}, y in R^{n_2},
the entry (x (x) y)[flatten_index((i_1, i_2))] equals x_{i_1} * y_{i_2}.

A square N x N matrix with N = n_1 ... n_d becomes a PartialArray on axes
1..2d; axis l holds the l-th row factor and axis l + d the l-th column factor.
Its partial traces are PartialArrays on the surviving labels.  ``dot_times``
combines disjoint partial indices, ``dot_plus`` places its second argument on
the shifted axes l + d.
"""

from __future__ import annotations

import itertools
import math
import string
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from .errors import (
    AxisSetError,
    CoordinateError,
    DisjointnessError,
    ShapeError,
    SizeError,
)

# Largest flat-buffer length a Dims may address.
MAX_TOTAL_SIZE = 2**62

# einsum subscript letters, one per array axis
_LETTERS = string.ascii_lowercase


@dataclass(frozen=True)
class Dims:
    """Per-axis sizes (n_1, ..., n_d) of an order-d array."""

    sizes: tuple[int, ...]

    def __init__(self, sizes: Iterable[int]):
        sizes = tuple(int(n) for n in sizes)
        if len(sizes) < 1:
            raise ShapeError("need at least one axis")
        if any(n < 1 for n in sizes):
            raise ShapeError(f"axis sizes must be >= 1, got {sizes}")
        total = 1
        for n in sizes:
            total *= n
            if total > MAX_TOTAL_SIZE:
                raise SizeError(f"total size exceeds {MAX_TOTAL_SIZE}")
        object.__setattr__(self, "sizes", sizes)

    @property
    def order(self) -> int:
        return len(self.sizes)

    @property
    def total(self) -> int:
        """N = n_1 * ... * n_d."""
        return math.prod(self.sizes)

    def size(self, axis: int) -> int:
        """Size of 1-based axis ``axis``."""
        if not 1 <= axis <= self.order:
            raise AxisSetError(f"axis {axis} not in [1, {self.order}]")
        return self.sizes[axis - 1]


@dataclass(frozen=True)
class PartialIndex:
    """1-based coordinates on a sorted subset of axes.

    There is exactly one PartialIndex on the empty axis set (``EMPTY_INDEX``).
    """

    axes: tuple[int, ...]
    values: tuple[int, ...]

    def __init__(self, coords: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = sorted(dict(coords).items()) if not isinstance(coords, Mapping) else sorted(coords.items())
        axes = tuple(a for a, _ in items)
        values = tuple(int(v) for _, v in items)
        if any(a < 1 for a in axes):
            raise AxisSetError(f"axes must be >= 1, got {axes}")
        if any(v < 1 for v in values):
            raise CoordinateError(f"coordinates must be >= 1, got {values}")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "values", values)

    @property
    def axis_set(self) -> frozenset[int]:
        return frozenset(self.axes)

    @property
    def coords(self) -> dict[int, int]:
        return dict(zip(self.axes, self.values))

    def __getitem__(self, axis: int) -> int:
        try:
            return self.values[self.axes.index(axis)]
        except ValueError:
            raise AxisSetError(f"axis {axis} not in {self.axes}") from None

    def __len__(self) -> int:
        return len(self.axes)


EMPTY_INDEX = PartialIndex({})


def dot_times(i: PartialIndex, j: PartialIndex) -> PartialIndex:
    """Combine partial indices on disjoint axis sets into one on the union."""
    overlap = i.axis_set & j.axis_set
    if overlap:
        raise DisjointnessError(f"axes overlap: {sorted(overlap)}")
    merged = i.coords
    merged.update(j.coords)
    return PartialIndex(merged)


def dot_plus(i: PartialIndex, j: PartialIndex, d: int) -> PartialIndex:
    """Place ``j`` on the shifted axes l + d and combine with ``i``.

    ``i`` lives on a subset of [2d], ``j`` on a subset of [d]; the result is a
    partial index of the order-2d array on axes(i) | (axes(j) + d).
    """
    if any(a > 2 * d for a in i.axes):
        raise AxisSetError(f"axes of first index exceed 2d = {2 * d}")
    if any(a > d for a in j.axes):
        raise AxisSetError(f"axes of second index exceed d = {d}")
    shifted = {a + d: v for a, v in j.coords.items()}
    overlap = i.axis_set & set(shifted)
    if overlap:
        raise DisjointnessError(f"axes overlap after shift: {sorted(overlap)}")
    merged = i.coords
    merged.update(shifted)
    return PartialIndex(merged)


def restrict(i: PartialIndex, axes: Iterable[int]) -> PartialIndex:
    """Restriction of ``i`` to a subset of its axes."""
    axes = frozenset(axes)
    if not axes <= i.axis_set:
        raise AxisSetError(f"{sorted(axes)} is not a subset of {i.axes}")
    return PartialIndex({a: v for a, v in i.coords.items() if a in axes})


def flatten_index(i: PartialIndex, dims: Dims) -> int:
    """1-based flat position of a full index, row-major with axis 1 slowest.

    Returns 1 + sum_l (i_l - 1) * prod_{m > l} n_m; bijective onto [N].
    """
    if i.axes != tuple(range(1, dims.order + 1)):
        raise AxisSetError(f"need a full index on [{dims.order}], got axes {i.axes}")
    pos = 0
    for axis, v in zip(i.axes, i.values):
        n = dims.size(axis)
        if not 1 <= v <= n:
            raise CoordinateError(f"coordinate {v} out of bound [1, {n}] on axis {axis}")
        pos = pos * n + (v - 1)
    return pos + 1


def unflatten_index(pos: int, dims: Dims) -> PartialIndex:
    """Inverse of :func:`flatten_index`."""
    if not 1 <= pos <= dims.total:
        raise CoordinateError(f"flat position {pos} out of [1, {dims.total}]")
    rem = pos - 1
    coords = {}
    for axis in range(dims.order, 0, -1):
        n = dims.size(axis)
        coords[axis] = rem % n + 1
        rem //= n
    return PartialIndex(coords)


def all_indices(dims: Dims, axes: Sequence[int] | None = None) -> Iterator[PartialIndex]:
    """All partial indices on ``axes`` (default: all axes), axis 1 slowest."""
    if axes is None:
        axes = range(1, dims.order + 1)
    axes = sorted(axes)
    ranges = [range(1, dims.size(a) + 1) for a in axes]
    for combo in itertools.product(*ranges):
        yield PartialIndex(dict(zip(axes, combo)))


class PartialArray:
    """Dense real array over a sorted subset of labeled axes.

    ``axes`` keeps the 1-based labels (1..2d for a rearranged matrix, the
    surviving ones for a partial trace); ``data`` has one ndarray axis per
    label, in label order.  The empty axis set holds a single scalar entry.
    """

    __slots__ = ("axes", "sizes", "data")

    def __init__(self, axes: Sequence[int], sizes: Sequence[int], data: np.ndarray, copy: bool = True):
        axes = tuple(int(a) for a in axes)
        sizes = tuple(int(n) for n in sizes)
        if tuple(sorted(axes)) != axes or len(set(axes)) != len(axes):
            raise AxisSetError(f"axes must be sorted and distinct, got {axes}")
        if len(axes) != len(sizes):
            raise ShapeError("axes and sizes must align")
        data = np.asarray(data, dtype=np.float64)
        if data.size != math.prod(sizes):
            raise ShapeError(f"buffer of length {data.size} != product of sizes {math.prod(sizes)}")
        data = data.reshape(sizes, order="C")
        if copy:
            data = data.copy()
        data.flags.writeable = False
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError("PartialArray is immutable")

    @property
    def order(self) -> int:
        return len(self.axes)

    def size(self, axis: int) -> int:
        try:
            return self.sizes[self.axes.index(axis)]
        except ValueError:
            raise AxisSetError(f"axis {axis} not in {self.axes}") from None

    def entry(self, i: PartialIndex) -> float:
        """Entry at an index on exactly this array's axes."""
        if i.axes != self.axes:
            raise AxisSetError(f"need an index on axes {self.axes}, got axes {i.axes}")
        for axis, v, n in zip(i.axes, i.values, self.sizes):
            if not 1 <= v <= n:
                raise CoordinateError(f"coordinate {v} out of bound [1, {n}] on axis {axis}")
        return float(self.data[tuple(v - 1 for v in i.values)])


ArrayLike = Union[PartialArray, np.ndarray]


def doubled_order(A: PartialArray) -> int:
    """Half order d of a full doubled array: axes 1..2d, axes l and l+d of equal size."""
    k = A.order
    if A.axes != tuple(range(1, k + 1)):
        raise AxisSetError(f"need a full doubled array on axes 1..{k}, got axes {A.axes}")
    if k == 0 or k % 2 != 0:
        raise ShapeError(f"order {k} is not a doubled order 2d >= 2")
    d = k // 2
    if A.sizes[:d] != A.sizes[d:]:
        raise ShapeError(f"axes l and l+d differ in size: {A.sizes}")
    return d


def as_partial(B: ArrayLike) -> PartialArray:
    """View any supported array type as a PartialArray with labeled axes."""
    if isinstance(B, PartialArray):
        return B
    data = np.asarray(B, dtype=np.float64)
    return PartialArray(tuple(range(1, data.ndim + 1)), data.shape, data, copy=False)


def rearrange_matrix(A: np.ndarray, dims: Dims) -> PartialArray:
    """Regard a square N x N matrix as an order-2d array on doubled dims.

    The entry at (i dot_plus i') equals A[flatten_index(i), flatten_index(i')];
    the rearrangement is bit-exact (a reshape, no arithmetic).
    """
    A = np.asarray(A, dtype=np.float64)
    N = dims.total
    if A.shape != (N, N):
        raise ShapeError(f"matrix shape {A.shape} does not match N = {N}")
    sizes = dims.sizes + dims.sizes
    return PartialArray(range(1, len(sizes) + 1), sizes, A)


def unrearrange_matrix(A: PartialArray) -> np.ndarray:
    """Inverse of :func:`rearrange_matrix`."""
    N = math.prod(A.sizes[: doubled_order(A)])
    return A.data.reshape(N, N, order="C").copy()


def frobenius(B: ArrayLike) -> float:
    """Square root of the sum of squared entries of a (partial) array."""
    data = as_partial(B).data
    return float(np.sqrt(np.add.reduce((data * data).reshape(-1))))
