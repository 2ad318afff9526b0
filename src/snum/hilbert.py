"""Hilbert-curve numbering of the dyadic cube families of the unit cube.

The generator is the classic reflect/rotate recursion expressed through
Gray-code "travel" frames: at each refinement level the local step sequence is
a rotated, reflected copy of the canonical Gray code.  The top-level frame is
fixed (independent of the order), which makes the self-similarity across
orders an exact identity: the level-(k-1) block order induced by the order-k
curve equals the order-(k-1) curve.

An ordering is one ``(N, d)`` integer array of cube coordinates in curve
order plus a dense inverse array from flat cell id to curve position.  The
table is refined level by level from the few distinct frames of each level, so
each cube is touched about once; the random-access ``decode``/``encode`` pair
and the two checkers run over whole arrays, one pass per level.  The two
checkers below are the actual contract; any generator passing both is
interchangeable with this one.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

MAX_CUBES = 1 << 22


class CapacityError(ValueError):
    """The requested table of 2^(dim*order) cubes exceeds the supported size."""


# -- Gray-code travel frames --------------------------------------------------
# Every helper acts elementwise on integer arrays: one frame per curve position.


def _gray(i):
    return i ^ (i >> 1)


def _gray_inverse(g, dim: int):
    i = g
    for shift in range(1, dim):  # g < 2^dim, so larger shifts add nothing
        i = i ^ (g >> shift)
    return i


def _travel(start, end, mask: int, i):
    # Gray code rotated so that step 0 is `start` and step `mask` is `end`
    travel_bit = start ^ end
    modulus = mask + 1
    g = _gray(i) * (travel_bit * 2)
    return ((g | (g // modulus)) & mask) ^ start


def _travel_inverse(start, end, mask: int, cell, dim: int):
    travel_bit = start ^ end
    modulus = mask + 1
    rg = (cell ^ start) * (modulus // (travel_bit * 2))
    return _gray_inverse((rg | (rg // modulus)) & mask, dim)


def _child_frame(start, end, mask: int, i):
    start_i = np.maximum(0, (i - 1) & ~1)  # largest even number <= i, clipped at 0
    end_i = np.minimum(mask, (i + 1) | 1)  # smallest odd number >= i, clipped at mask
    return _travel(start, end, mask, start_i), _travel(start, end, mask, end_i)


def _initial_frame(shape, dim: int):
    return np.zeros(shape, dtype=np.int64), np.full(shape, 1 << (dim - 1), dtype=np.int64)


def decode(index, dim: int, order: int) -> np.ndarray:
    """Zero-based curve positions (any integer array shape S) -> cube
    coordinates at the given order, shape S + (dim,)."""
    index = np.asarray(index, dtype=np.int64)
    mask = (1 << dim) - 1
    start, end = _initial_frame(index.shape, dim)
    axis_bits = np.arange(dim - 1, -1, -1)  # axis a is bit dim-1-a of a cell
    coords = np.zeros(index.shape + (dim,), dtype=np.int64)
    for level in range(order):
        chunk = (index >> (dim * (order - 1 - level))) & mask
        cell = _travel(start, end, mask, chunk)
        coords <<= 1
        coords |= (cell[..., None] >> axis_bits) & 1
        start, end = _child_frame(start, end, mask, chunk)
    return coords


def encode(coords, dim: int, order: int) -> np.ndarray:
    """Cube coordinates, shape S + (dim,) -> zero-based curve positions, shape S
    (inverse of decode)."""
    coords = np.asarray(coords, dtype=np.int64)
    mask = (1 << dim) - 1
    start, end = _initial_frame(coords.shape[:-1], dim)
    axis_bits = np.arange(dim - 1, -1, -1)
    index = np.zeros(coords.shape[:-1], dtype=np.int64)
    for level in range(order):
        cell = (((coords >> (order - 1 - level)) & 1) << axis_bits).sum(axis=-1)
        chunk = _travel_inverse(start, end, mask, cell, dim)
        index = (index << dim) | chunk
        start, end = _child_frame(start, end, mask, chunk)
    return index


class HilbertOrdering:
    """A bijective numbering {1, ..., N} -> cubes of the order-th dyadic
    generation, held as the ``(N, dim)`` array ``coords`` (row p is the cube
    numbered p + 1) and the dense array ``inverse`` from flat cell id to the
    0-based curve position (-1 for cells the numbering skips)."""

    def __init__(self, dim: int, order: int, coords):
        raw = np.asarray(coords)
        if raw.ndim != 2 or raw.shape[1] != dim:
            raise ValueError(f"coords must be an (N, {dim}) array, got shape {raw.shape}")
        if raw.size and (raw.min() < 0 or raw.max() >= 1 << order):
            raise ValueError("coords outside the level's index range")
        self._index(dim, order, raw.astype(np.int32))  # a copy: the caller keeps its array

    @classmethod
    def _own(cls, dim: int, order: int, coords: np.ndarray) -> HilbertOrdering:
        """The ordering of an ``(N, dim)`` int32 table in range that no one
        else holds: the table is frozen and kept, not copied."""
        ordering = cls.__new__(cls)
        ordering._index(dim, order, coords)
        return ordering

    def _index(self, dim: int, order: int, coords: np.ndarray) -> None:
        self.dim = dim
        self.order = order
        self.coords = coords
        self.coords.flags.writeable = False
        self._strides = (1 << order) ** np.arange(dim - 1, -1, -1, dtype=np.int64)
        flat = np.ravel_multi_index(tuple(self.coords.T), (1 << order,) * dim)
        self.inverse = np.full((1 << order) ** dim, -1, dtype=np.int32)
        self.inverse[flat] = np.arange(len(coords), dtype=np.int32)
        if np.count_nonzero(self.inverse >= 0) != len(coords):  # a repeated cell is numbered once
            raise ValueError("numbering is not injective")
        self.inverse.flags.writeable = False

    def __len__(self) -> int:
        return len(self.coords)

    def positions(self, cells) -> np.ndarray:
        """0-based curve position of each cell of an integer array of shape
        S + (dim,); -1 for cells off the grid or not numbered."""
        cells = np.asarray(cells, dtype=np.int64)
        on_grid = ((cells >= 0) & (cells < 1 << self.order)).all(axis=-1)
        flat = np.where(on_grid, cells @ self._strides, 0)
        return np.where(on_grid, self.inverse[flat], -1)

    @cached_property
    def is_face_adjacent(self) -> bool:
        return check_face_adjacency(self)[0]

    @cached_property
    def is_prefix_nested(self) -> bool:
        return check_prefix_nesting(self)[0]


def _cell_bits(cells, dim: int) -> np.ndarray:
    """Cells < 2^dim -> their axis bits as uint8, shape cells.shape + (dim,);
    axis a is bit dim-1-a of a cell."""
    octets = cells.astype("<u4").view(np.uint8).reshape(cells.shape + (4,))
    return np.unpackbits(octets, axis=-1, count=dim, bitorder="little")[..., ::-1]


def _curve_coords(dim: int, order: int) -> np.ndarray:
    """Rows ``decode(np.arange(2^(dim*order)))`` as int32, refined top-down:
    the children of cube p are rows p*2^dim .. p*2^dim + mask of the next
    level, each cube carries an index into that level's distinct frames, and
    the cells and child frames are computed once per distinct frame."""
    mask = (1 << dim) - 1
    steps = np.arange(mask + 1)
    coords = np.zeros((1 << (dim * order), dim), dtype=np.int32)
    start, end = _initial_frame((1, 1), dim)  # distinct frames, one per row
    state = np.zeros(1, dtype=np.intp)  # per cube: its row of start, end
    count = 1
    for level in range(order):
        cells = _travel(start, end, mask, steps)  # (frames, 2^dim)
        children = coords[: count << dim].reshape(count, mask + 1, dim)
        np.bitwise_or((coords[:count] << 1)[:, None], _cell_bits(cells, dim)[state], out=children)
        if level + 1 < order:
            child_start, child_end = _child_frame(start, end, mask, steps)
            frames, child = np.unique((child_start << dim) | child_end, return_inverse=True)
            start, end = (frames >> dim)[:, None], (frames & mask)[:, None]
            state = child.reshape(cells.shape)[state].ravel()
        count <<= dim
    return coords


def hilbert_order(dim: int, order: int) -> HilbertOrdering:
    """Materialize the order-th curve approximation as an ordering table."""
    if dim < 1 or order < 1:
        raise ValueError("need dim >= 1 and order >= 1")
    total = 1 << (dim * order)
    if total > MAX_CUBES:
        raise CapacityError(f"2^(dim*order) = {total} exceeds {MAX_CUBES}")
    return HilbertOrdering._own(dim, order, _curve_coords(dim, order))


def check_face_adjacency(ordering: HilbertOrdering):
    """True iff consecutive cubes differ by 1 in exactly one coordinate.

    Returns ``(ok, first_violation_index)`` where the index (1-based) points at
    the first pair (index, index+1) violating adjacency.
    """
    steps = np.diff(ordering.coords, axis=0)  # the one (N - 1, d) temporary
    np.abs(steps, out=steps)
    bad = np.flatnonzero(steps.sum(axis=1, dtype=np.int32) != 1)
    if bad.size:
        return False, int(bad[0]) + 1
    return True, None


def check_prefix_nesting(ordering: HilbertOrdering):
    """True iff every coarser cube's descendants occupy one contiguous block.

    Returns ``(True, None)`` or ``(False, (level, coords))``: at the coarsest
    violating level, the ancestor cube that the first re-entering run of
    cubes enters again, its coordinates a tuple of ints.
    """
    k, d = ordering.order, ordering.dim
    coords = ordering.coords
    for level in range(k):
        # flat ancestor ids, one axis at a time: no (N, d) copy
        flat = np.zeros(len(coords), dtype=np.int64)
        for a in range(d):
            flat <<= level
            flat |= coords[:, a] >> (k - level)
        run_starts = np.flatnonzero(np.diff(flat, prepend=-1))
        _, first = np.unique(flat[run_starts], return_index=True)
        reentry = np.ones(len(run_starts), dtype=bool)
        reentry[first] = False
        if reentry.any():
            row = coords[run_starts[np.argmax(reentry)]] >> (k - level)
            return False, (level, tuple(int(z) for z in row))
    return True, None
