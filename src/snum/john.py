"""Segment domains along the curve ordering, and constructive John
certificates with a dimension-only constant.

A segment domain is a union of consecutively numbered level-k cubes.  Under a
prefix-nested ordering its index interval decomposes canonically into maximal
filled dyadic cubes whose sizes are unimodal along the curve; the certificate
walks block centers from any start point toward the center of the middle-most
largest block, crossing shared faces at their midpoints.  Summing the segment
lengths with geometric series gives a constant depending only on the
dimension, never on the resolution or the index range.  The certificates are
built and proven in groups of domains: a group's blocks are one flat table,
read off the base-2^d digits of its endpoints, and each bisection level of a
group is one pass over flat (box, point) pair tables, whatever the number of
its domains.  Groups are sized by their real (face run, piece) pairs.

The production path, ``snum john`` and the ``john_uniformity`` selftest,
holds a domain only as its endpoints (i, j) in integer arrays, from
:func:`random_pairs` or :func:`exhaustive_pairs` through
:func:`verify_segment_domains` to :func:`_verify_group`.  The one-domain
objects (``segment_domain``, ``CubeUnion``, ``JohnCertificate``,
``john_bound_constructive``, ``verify_john_certificate``,
``oscillation_check``) serve only tests and the benchmark harness's span
tracer, which wraps four of them by name; they go once it traces the group
kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product

import numpy as np

from .hilbert import HilbertOrdering
from .spaces import GridFunction, GridMismatchError, LorentzParams, grid_gradient_lorentz_norm


DISTANCE_TABLE_ENTRIES = 4_000_000  # bound of a chunk's face pass and a group's first proof level
PAIR_TABLE_ENTRIES = 1 << 16  # floats held by one chunk of a pair table (see _pair_limit)
PROOF_MARGIN = 1e-9  # relative margin of the John proof's pass and fail tests


class ConstructionError(ValueError):
    """The ordering does not support the certificate construction."""


class CertificateInvalidError(ValueError):
    """The certificate's curve leaves the domain it claims to certify."""


@cache
def _corner_picks(dim: int) -> np.ndarray:
    """(2^dim, dim) booleans: every choice, per axis, of the own cell or the
    cell below it."""
    return np.array(list(product((False, True), repeat=dim)))


@cache
def _face_keys(dim: int, n: int) -> tuple:
    """Per direction 2a or 2a + 1 (the step -1 or +1 along axis a) on the
    n^dim grid: the flat cell id's strides and the shift of each direction's
    neighbour, and the integer key of a unit face.  The key is the direction,
    then the coordinates other than the first tangent axis t, then t in base
    n + 1, so a run along t never wraps onto the next line; for dim = 1 the
    keys 0 and 2 never step by 1, so no face merges."""
    strides = n ** np.arange(dim - 1, -1, -1, dtype=np.int64)
    shifts = np.repeat(strides, 2) * np.tile([-1, 1], dim)
    weights = np.zeros((2 * dim, dim), dtype=np.int64)
    per_direction = 2
    if dim > 1:
        for a in range(dim):
            t = 1 if a == 0 else 0
            others = [b for b in range(dim) if b != t]
            weights[2 * a : 2 * a + 2, others] = (n + 1) * n ** np.arange(dim - 1)
            weights[2 * a : 2 * a + 2, t] = 1
        per_direction = (n + 1) * n ** (dim - 1)
    return strides, shifts, weights, per_direction


def uniform_john_constant(dim: int) -> float:
    """Dimension-only constant: 4 * (2(2^d - 1) + 1/2 + (5/2) sqrt(d)).

    The bracket bounds |x - gamma(t)| / 2^-g for a curve point inside a filled
    generation-g cube (same-generation hops, face-midpoint entries, and the
    center legs, each summed as a geometric series); the factor 4 converts the
    boundary-distance lower bound 2^-(g+2).
    """
    return 4.0 * (2.0 * (2**dim - 1) + 0.5 + 2.5 * math.sqrt(dim))


def _ranges(starts, counts) -> np.ndarray:
    """The integer ranges starts[k] .. starts[k] + counts[k] - 1, one after
    another."""
    out = np.arange(counts.sum())
    out += np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return out


def _pair_limit(width: int) -> int:
    """Pairs per chunk of a (box, point) pair table: a kernel holds about
    four tables of ``width`` floats per pair, so about
    ``PAIR_TABLE_ENTRIES`` floats in all."""
    return max(1, PAIR_TABLE_ENTRIES // (4 * width))


def _spans(sizes, limit: int):
    """Consecutive items a .. b - 1 (one at least) whose sizes sum to at most
    ``limit``, from the first item to the last; yields a, b."""
    ends = np.cumsum(sizes)
    a = 0
    while a < len(sizes):
        base = int(ends[a - 1]) if a else 0
        b = max(a + 1, int(np.searchsorted(ends, base + limit, side="right")))
        yield a, b
        a = b


def _pairs(first, count, width: int):
    """Chunks of a (box, point) pair table in which point q meets the boxes
    first[q] .. first[q] + count[q] - 1, count[q] >= 1, point by point: the
    points a .. b - 1 (one at least) with at most ``_pair_limit(width)``
    pairs.  Yields a, b, the box of each pair and the first pair of each
    point within the chunk."""
    for a, b in _spans(count, _pair_limit(width)):
        starts = np.cumsum(count[a:b]) - count[a:b]
        yield a, b, _ranges(first[a:b], count[a:b]), starts


def _nearest_faces(points, lows, highs, first, count) -> np.ndarray:
    """Exact Euclidean distance from each point q to the nearest of the face
    runs first[q] .. first[q] + count[q] - 1.

    One flat (run, point) pair table per chunk (see :func:`_pairs`), of
    squared gaps summed axis by axis in ascending order and reduced per
    point.  A run's gap on an axis is clip(x, lo, hi) - x, which is
    max(lo - x, x - hi, 0) up to its exact sign (on the normal axis, where
    lo = hi, the plane difference lo - x), so every square is the per-face
    one and the nearest run is the nearest face.
    """
    squared = np.empty(len(points))
    for a, b, runs, starts in _pairs(first, count, 1):
        for axis in range(points.shape[1]):
            x = np.repeat(points[a:b, axis], count[a:b])
            gap = lows[:, axis].take(runs)
            np.maximum(gap, x, out=gap)
            np.minimum(gap, highs[:, axis].take(runs), out=gap)
            gap -= x
            gap *= gap
            if axis:
                table += gap
            else:  # 0.0 + x == x: the first axis starts the sum
                table = gap
        squared[a:b] = np.minimum.reduceat(table, starts)
    # sqrt is monotone and correctly rounded: sqrt of the min is exact
    return np.sqrt(squared)


def _farthest_corners(points, lows, highs, first, count) -> np.ndarray:
    """Distance from each point q to the farthest corner of the blocks
    first[q] .. first[q] + count[q] - 1: per axis the farther of a block's
    two faces.  One flat (block, point) pair table per chunk, reduced per
    point."""
    squared = np.empty(len(points))
    for a, b, blocks, starts in _pairs(first, count, points.shape[1]):
        p = np.repeat(points[a:b], count[a:b], axis=0)
        far = np.maximum(p - lows[blocks], highs[blocks] - p)
        far *= far
        squared[a:b] = np.maximum.reduceat(far.sum(axis=1), starts)
    return np.sqrt(squared)


def _members(ordering: HilbertOrdering, points, first, last, tol: float = 1e-9) -> np.ndarray:
    """Membership of each point in the closed union of the cubes at curve
    positions first .. last - 1, one range for all points or one per point:
    some member cell's closure holds the point, up to ``tol`` in cell units
    (faces belong).  A point on the far face of the grid is held by the cell
    below it; points further off the grid get cells off it, which belong to
    no union."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    s = pts * (1 << ordering.order)
    base = np.floor(s + tol)
    own = base.astype(np.int64)
    other = own - ((np.abs(s - base) <= tol) & (own >= 1))  # the cell below a face
    cells = np.where(_corner_picks(ordering.dim), other[:, None, :], own[:, None, :])
    pos = ordering.positions(cells)
    return ((pos >= np.asarray(first)[..., None]) & (pos < np.asarray(last)[..., None])).any(axis=1)


def _face_runs(ordering: HilbertOrdering, i, j) -> tuple:
    """Boundary faces of the domains i[g] .. j[g] (1-based, inclusive) as
    axis-aligned boxes (lows, highs), one degenerate axis, and each domain's
    number of them; a domain's boxes are consecutive, in domain order.

    Unit faces that lie in one plane and abut along a tangent axis are
    merged into one run.  IEEE subtraction is monotone, so a run's gap to a
    point on that axis is the least of its pieces' gaps and its other gaps
    are theirs: the nearest run is exactly as near as the nearest face.

    A unit face (cell, direction 2a or 2a + 1 for the step -1 or +1 along
    axis a) is on its domain's boundary iff its neighbour is off the grid or
    its curve position falls outside the domain.  Each gets one integer key
    (see :func:`_face_keys`) plus its domain's offset, so one sort groups the
    faces by domain and plane line, and a run is where the key steps by 1;
    the offsets are 2 apart at least, so no run crosses two domains.  A
    domain's runs come sorted by direction.
    """
    d, n = ordering.dim, 1 << ordering.order
    side = 1.0 / n
    strides, shifts, weights, per_direction = _face_keys(d, n)
    sizes = j - i + 1
    z = np.concatenate([ordering.coords[a - 1 : b] for a, b in zip(i.tolist(), j.tolist())])
    owner = np.repeat(np.arange(len(i), dtype=np.int32), sizes)
    low, high = (i - 1).astype(np.int32)[owner], j.astype(np.int32)[owner]
    flat = z @ strides.astype(np.int32)  # flat cell ids are below MAX_CUBES
    outside = np.empty((len(z), 2 * d), dtype=bool)
    for k, shift in enumerate(shifts.tolist()):  # one direction at a time: no (cells, 2 d) table
        # off-grid neighbours read some clipped entry; they are outside anyway
        neighbour = ordering.inverse.take(flat + shift, mode="clip")
        np.logical_or(neighbour < low, neighbour >= high, out=outside[:, k])
    outside[:, 0::2] |= z == 0
    outside[:, 1::2] |= z == n - 1
    cells, dirs = np.nonzero(outside)
    keys = (owner[cells] * (2 * d) + dirs) * per_direction
    for axis in range(d):
        keys += z[cells, axis] * weights[dirs, axis]
    order = np.argsort(keys, kind="stable")
    keys, cells, dirs = keys[order], cells[order], dirs[order]
    breaks = np.flatnonzero(keys[1:] - keys[:-1] != 1)
    starts = np.concatenate([[0], breaks + 1])
    ends = np.append(breaks, len(keys) - 1)
    first, last = z[cells[starts]], z[cells[ends]]
    a, up = np.divmod(dirs[starts], 2)
    lo, hi = first * side, (last + 1) * side
    rows = np.arange(len(starts))
    lo[rows, a] = hi[rows, a] = (first[rows, a] + up) * side
    return lo, hi, np.bincount(owner[cells[starts]], minlength=len(i))


class CubeUnion:
    """Closed union of the cubes numbered i..j (1-based, inclusive).

    ``coords`` is the ordering's ``(N, dim)`` array sliced to the union; a cell
    is a member iff its curve position falls in ``i-1 .. j-1``.
    """

    def __init__(self, ordering: HilbertOrdering, i: int, j: int):
        if not 1 <= i <= j <= len(ordering):
            raise IndexError(f"need 1 <= i <= j <= {len(ordering)}, got ({i}, {j})")
        self.ordering = ordering
        self.i = i
        self.j = j
        self.dim = ordering.dim
        self.level = ordering.order
        self.coords = ordering.coords[i - 1 : j]

    @cached_property
    def _face_arrays(self):
        """Boundary face runs (lows, highs) of this domain alone (see
        :func:`_face_runs`)."""
        return _face_runs(self.ordering, np.array([self.i]), np.array([self.j]))[:2]

    def boundary_distance(self, points) -> np.ndarray:
        """Exact Euclidean distance to the boundary, via the face runs (see
        :func:`_nearest_faces`)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        lows, highs = self._face_arrays
        every = np.broadcast_to(len(lows), len(pts))
        return _nearest_faces(pts, lows, highs, np.zeros_like(every), every)

    def cell_mask(self, cells_per_side: int) -> np.ndarray:
        """Boolean mask over the cells of a nested uniform grid."""
        k = self.level
        if cells_per_side % (1 << k):
            raise GridMismatchError(
                f"grid with {cells_per_side} cells per side is not nested "
                f"in the level-{k} cube family"
            )
        mask = np.zeros((1 << k,) * self.dim, dtype=bool)
        mask[tuple(self.coords.T)] = True
        for axis in range(self.dim):  # a level-k cube spans R >> k cells per side
            mask = np.repeat(mask, cells_per_side >> k, axis=axis)
        return mask


def _centers(coords, level) -> np.ndarray:
    """Centers 2^-level (z + 1/2) of level cubes, at one level or at one level
    per row; exact, since they are dyadic."""
    doubled = 2 * np.asarray(coords, dtype=np.int64) + 1.0
    return np.ldexp(doubled, -1 - np.asarray(level)[..., None])


def segment_domain(ordering: HilbertOrdering, i: int, j: int) -> CubeUnion:
    """The union of the cubes numbered i..j along the ordering."""
    return CubeUnion(ordering, i, j)


def _block_table(ordering: HilbertOrdering, i, j) -> tuple:
    """The certificates' blocks of the segment domains i[g] .. j[g] (1-based,
    inclusive), one domain after another: ``(block_start, levels, coords,
    center)``.  Domain g's blocks are rows ``block_start[g] ..
    block_start[g + 1] - 1``; block b is the dyadic cube ``2^-levels[b] *
    (coords[b] + [0, 1]^d)``, and ``center[g]`` counts from
    ``block_start[g]`` to the middle-most of the domain's largest blocks.

    The blocks tile the curve positions lo .. hi - 1 (lo = i - 1, hi = j)
    by maximal aligned runs of B^t positions, B = 2^d, so their sizes are
    unimodal along the curve.  With a_t = ceil(lo / B^t) and
    b_t = floor(hi / B^t), the top level T is the largest t with a_t < b_t;
    below it the left blocks are a_t .. B a_{t+1} - 1 and the right ones
    B b_{t+1} .. b_t - 1, in units of B^t, and at T they are a_T .. b_T - 1.
    Under a prefix-nested ordering the B^t positions of a block fill one cube
    of level k - t, whose coordinates are its first cube's shifted by t.
    """
    if not (ordering.is_face_adjacent and ordering.is_prefix_nested):
        raise ConstructionError(
            "construction needs a face-adjacent, prefix-nested ordering"
        )
    d, k = ordering.dim, ordering.order
    lo = np.asarray(i, dtype=np.int64)[:, None] - 1
    hi = np.asarray(j, dtype=np.int64)[:, None]
    shifts = d * np.arange(k + 2)  # B^t = 2^(d t), t = 0 .. k + 1
    a, b = -(-lo >> shifts), hi >> shifts
    rows = np.arange(len(lo))
    top = np.count_nonzero(a < b, axis=1) - 1  # a block of B^t fits iff one of B^(t-1) does
    t = np.arange(k + 1)
    below = t < top[:, None]
    left = np.where(below, (a[:, 1:] << d) - a[:, :-1], 0)
    right = np.where(below, b[:, :-1] - (b[:, 1:] << d), 0)
    whole = (b - a)[rows, top]
    center = left.sum(axis=1) + (whole - 1) // 2
    left[rows, top] = whole
    # per domain, the runs in curve order: left t = 0 .. k, then right t = k .. 0
    counts = np.concatenate([left, right[:, ::-1]], axis=1)
    first = np.concatenate([a[:, :-1], (b[:, 1:] << d)[:, ::-1]], axis=1)
    t = np.repeat(np.tile(np.concatenate([t, t[::-1]]), len(lo)), counts.ravel())
    positions = _ranges(first.ravel(), counts.ravel()) << (d * t)
    coords = ordering.coords[positions].astype(np.int64) >> t[:, None]
    block_start = np.concatenate([[0], np.cumsum(counts.sum(axis=1))])
    return block_start, k - t, coords, center


@dataclass
class JohnCertificate:
    """Certified curve construction: for every x of the domain and curve
    parameter t, dist(gamma(t), boundary) >= constant^-1 |x - gamma(t)|.

    Block b of the domain's maximal-block tiling is the dyadic cube
    ``2^-block_levels[b] * (block_coords[b] + [0, 1]^d)``.
    """

    union: CubeUnion
    center: np.ndarray
    constant: float
    block_levels: np.ndarray
    block_coords: np.ndarray
    center_block: int


class _Walks:
    """The walks of a group of certificates, as flat arrays.

    The certificates' blocks are concatenated: certificate g's are rows
    ``block_start[g] .. block_start[g + 1] - 1`` of ``lows``, ``highs`` and
    ``centers``, exact.  Every block o but a center block has one gate, the
    midpoint of the face it shares with its inner neighbour (o + 1 left of
    the center block, o - 1 right of it), and two walk segments: from the
    inner block's center to the gate, and from the gate to o's center.  For
    the k-th such block they are rows 2k and 2k + 1 of ``heads`` and
    ``tails``; both lie on the curves of o and of every block beyond it on
    its side, the blocks ``used_first`` .. ``used_first + used_count - 1``.
    ``half`` is each segment's half-step and ``length`` its half-length: the
    segments are dyadic, so twice ``length`` is exactly the full length.
    ``broken`` marks the certificates with a gate between blocks that do not
    touch, and ``separated`` those whose largest blocks are not consecutive.
    """

    def __init__(self, table):
        block_start, levels, coords, center = table
        self.dim = dim = coords.shape[1]
        count = len(block_start) - 1
        self.block_start = block_start
        self.block_owner = np.repeat(np.arange(count), np.diff(block_start))
        self.sides = np.ldexp(1.0, -levels)
        self.lows, self.highs = coords * self.sides[:, None], (coords + 1) * self.sides[:, None]
        self.centers = _centers(coords, levels)
        center = block_start[:-1] + center
        self.steps = np.arange(len(levels)) - center[self.block_owner]  # signed, out of the center
        top = levels == np.minimum.reduceat(levels, block_start[:-1])[self.block_owner]
        opens = top.copy()  # the first block of each run of largest blocks
        opens[1:] &= ~top[:-1] | (self.block_owner[1:] != self.block_owner[:-1])
        self.separated = np.bincount(self.block_owner[opens], minlength=count) > 1
        self.outer = outer = np.flatnonzero(self.steps)
        self.inner = inner = outer - np.sign(self.steps[outer])
        lo = np.maximum(self.lows[outer], self.lows[inner])
        hi = np.minimum(self.highs[outer], self.highs[inner])
        self.gates = 0.5 * (lo + hi)
        self.gate_owner = owner = self.block_owner[outer]
        self.broken = np.bincount(owner[(hi < lo).any(axis=1)], minlength=count) > 0
        self.heads = np.stack([self.centers[inner], self.gates], axis=1).reshape(-1, dim)
        self.tails = np.stack([self.gates, self.centers[outer]], axis=1).reshape(-1, dim)
        self.segment_owner = np.repeat(owner, 2)
        left = self.steps[outer] < 0
        used_first = np.where(left, self.block_start[owner], outer)
        used_end = np.where(left, outer + 1, self.block_start[owner + 1])
        self.used_first = np.repeat(used_first, 2)
        self.used_count = np.repeat(used_end - used_first, 2)
        self.half = 0.5 * (self.tails - self.heads)  # exact
        self.length = np.sqrt((self.half * self.half).sum(axis=1))

    def profile_bounds(self) -> np.ndarray:
        """The chain estimate of each certificate, evaluated on its actual
        generation profile (``nan`` where its walk is broken).

        A single block (a cube, or the full cube after the generations
        collapse) yields sqrt(d), the straight-segment diagonal/side ratio;
        otherwise the maximum over target/start block pairs of 4 * (half-
        diagonal legs plus the connecting path length) / (target side).  On
        each side of a certificate, position m is the block m steps out (0
        the center block), and the path from its center to the center
        block's sums the legs, two segments each, of positions 1 .. m; the
        pairs of positions t < x are one flat upper-triangular table.
        """
        count = len(self.block_start) - 1
        half = 0.5 * math.sqrt(self.dim)
        # per side (row 2g left, 2g + 1 right) and position: the block's
        # side and the path length from its center
        rows = 2 * self.block_owner + (self.steps > 0)
        reach = np.abs(self.steps)
        h = np.ones((2 * count, int(reach.max()) + 1))
        h[rows, reach] = self.sides
        h[rows[reach == 0] + 1, 0] = self.sides[reach == 0]  # both sides start there
        path = np.zeros(h.shape)
        full = 2.0 * self.length
        path[rows[self.outer], reach[self.outer]] = full[1::2] + full[0::2]
        np.cumsum(path, axis=1, out=path)
        last = np.zeros(2 * count, dtype=np.int64)
        np.maximum.at(last, rows, reach)
        side = np.repeat(np.arange(2 * count), last)
        t = _ranges(np.zeros_like(last), last)
        cnt = last[side] - t
        x = _ranges(t + 1, cnt)
        side, t = np.repeat(side, cnt), np.repeat(t, cnt)
        reach = half * h[side, x] + (path[side, x] - path[side, t]) + half * h[side, t]
        bound = np.full(count, math.sqrt(self.dim))
        np.maximum.at(bound, side // 2, 4.0 * reach / h[side, t])
        bound[self.broken] = math.nan
        return bound


def john_bound_constructive(omega: CubeUnion) -> JohnCertificate:
    """Certificate from the maximal-block labeling along the curve: a group
    of one (see :func:`_block_table`).

    The central point is the center of the middle-most largest filled cube;
    per curve direction the same-generation run lengths then satisfy
    m_1 <= 2(2^d - 2) and m_l <= 2^d - 1, and the summed chain gives the
    uniform constant of :func:`uniform_john_constant`, independent of the
    resolution and of the index range.
    """
    _, levels, coords, (c,) = _block_table(omega.ordering, [omega.i], [omega.j])
    return JohnCertificate(omega, _centers(coords[c], levels[c]), uniform_john_constant(omega.dim),
                           levels, coords, int(c))


def _verify_group(ordering: HilbertOrdering, i, j, constant, samples: int, table,
                  faces=None) -> list:
    """Prove each certificate's John condition on its domain, or find a pair
    that breaks it; all domains i[g] .. j[g] of the group at once.  The
    certificates are the rows of ``table`` (see :func:`_block_table`), each
    with its ``constant`` (one for all, or one per domain); ``faces`` are
    the domains' face runs (see :func:`_face_runs`; built by default).

    The condition: |x - gamma(t)| <= constant * dist(gamma(t), boundary) for
    every point x of the domain and every point gamma(t) of x's curve, which
    runs from x to the center of x's block and then along its side's walk
    to the center block (see :class:`_Walks`).
    - The first leg, gamma = x + tau (c - x) with c the block's center: the
      distance to the block's boundary is concave on the block, so it is at
      least tau side / 2 there, while |x - gamma| <= tau sqrt(d) side / 2.
      The leg's ratio is at most sqrt(d), so a constant that does not
      exceed sqrt(d) by the margin fails before any walk point.
    - On a walk segment, F(p) is the largest distance from p to a corner of
      the blocks whose curves use the segment, so the largest |x - p| over
      their points; D(p) is the distance to the domain's boundary.  Both
      are 1-Lipschitz, so on a piece of a segment with midpoint p and
      half-length h the ratio is at most (F + h) / (D - h).  The pieces
      start as the segments; a piece passes iff F + h <= constant (1 -
      ``PROOF_MARGIN``) (D - h), and every other piece is split in two.
      Each level measures the live pieces of every domain of the group in
      one flat (block, point) table of farthest corners and one flat (face
      run, point) table of distances.

    An evaluated F / D above constant (1 + ``PROOF_MARGIN``) is a real
    violating pair (a corner, p) and fails its domain at once; so does a
    domain that needs more than ``samples`` evaluated points.  Each domain's
    result is ``(ok, worst, evaluated, profile_bound)``: ``worst`` is
    max(sqrt(d), the largest evaluated F / D); or, for a certificate whose
    largest blocks are not consecutive or whose blocks do not touch, a
    ``ConstructionError``, and for one whose walk leaves its domain, a
    ``CertificateInvalidError``.  Every test is per piece or per domain, so
    a domain's result does not depend on its group.

    The margin: a midpoint at depth L (the segments are depth 0) is a dyadic
    rational with k + L + 2 fraction bits at level k, exact while
    L <= 51 - k (deeper the proof stops and fails), and so are the
    half-steps, the block bounds and the face runs.  So every difference in
    F and D is exact, and F, D and h carry only the roundings of d squares,
    their sum and a square root: each is within g = gamma_{d+1} of itself,
    relative.  A passing piece has h <= F + h <= C (D - h) to first order,
    so the error g (D + h) of D - h is at most g (2C + 1) (D - h); with the
    error g (F + h) on the left and four more roundings (the two sums, the
    product and C (1 - margin)), a passing test proves F + h <= C (D - h)
    while (2C + 2) g + 4u <= ``PROOF_MARGIN``, u = 2^-53.  The uniform
    constant meets this for every d <= 15 (9.3e-10 at d = 15), and by the
    same bounds a failing F / D exceeds C.
    """
    if samples < 1:
        raise ValueError("need samples >= 1")
    i, j = np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64)
    count, dim = len(i), ordering.dim
    if not count:
        return []
    walks = _Walks(table)
    # every walk vertex and segment midpoint lies in its own domain: it does
    # if its block (its own, a gate's outer one, a segment's) does, which on
    # a prefix-nested curve of every cube is an aligned run of positions;
    # the points of the other blocks are looked up
    t = np.maximum(ordering.order - table[1], 0)
    run = ordering.positions(table[2] << t[:, None]) >> (dim * t) << (dim * t)
    block = walks.block_owner
    held = (run >= i[block] - 1) & (run + (1 << (dim * t)) <= j[block])
    held &= (table[1] <= ordering.order) & ordering.is_prefix_nested
    held &= len(ordering) == 1 << (dim * ordering.order)
    mids = 0.5 * (walks.heads + walks.tails)  # exact
    block = np.concatenate([np.arange(len(t)), walks.outer,
                            np.stack([walks.inner, walks.outer], axis=1).ravel()])
    loose = np.flatnonzero(~held[block])
    owner = walks.block_owner[block[loose]]
    inside = _members(ordering, np.concatenate([walks.centers, walks.gates, mids])[loose],
                      (i - 1)[owner], j[owner])
    exits = np.bincount(owner[~inside], minlength=count) > 0

    constant = np.broadcast_to(np.asarray(constant, dtype=float), count)
    limit = constant * (1 - PROOF_MARGIN)
    worst = np.full(count, math.sqrt(dim))  # the first leg's bound
    evaluated = np.zeros(count, dtype=np.int64)
    ok = np.zeros(count, dtype=bool)
    live = ~walks.separated & ~walks.broken & ~exits & (worst <= limit)
    lows, highs, runs = _face_runs(ordering, i, j) if faces is None else faces
    first_run = np.cumsum(runs) - runs
    segment = np.flatnonzero(live[walks.segment_owner])  # the segment of each piece
    p = mids[segment]
    for depth in range(52 - ordering.order):  # midpoints stay exact dyadics
        own = walks.segment_owner[segment]
        pieces = np.bincount(own, minlength=count)
        ok |= live & (pieces == 0)
        live &= (pieces > 0) & (evaluated + pieces <= samples)
        keep = live[own]
        if not keep.any():
            break
        p, segment, own = p[keep], segment[keep], own[keep]
        evaluated[live] += pieces[live]
        F = _farthest_corners(p, walks.lows, walks.highs,
                              walks.used_first[segment], walks.used_count[segment])
        D = _nearest_faces(p, lows, highs, first_run[own], runs[own])
        with np.errstate(divide="ignore"):
            np.maximum.at(worst, own, F / D)
        live &= worst <= constant * (1 + PROOF_MARGIN)
        h = walks.length[segment] * 0.5**depth
        split = (F + h > limit[own] * (D - h)) & live[own]
        p, segment = p[split], segment[split]
        step = walks.half[segment] * 0.5 ** (depth + 1)  # a child's midpoint is this far away
        p = np.stack([p - step, p + step], axis=1).reshape(-1, dim)
        segment = np.repeat(segment, 2)

    results = []
    rows = zip(ok.tolist(), worst.tolist(), evaluated.tolist(), walks.profile_bounds().tolist())
    for separated, broken, leaves, row in zip(walks.separated.tolist(), walks.broken.tolist(),
                                              exits.tolist(), rows):
        if separated:
            results.append(ConstructionError("largest filled cubes are not consecutive"))
        elif broken:
            results.append(ConstructionError("blocks are not adjacent"))
        elif leaves:
            results.append(CertificateInvalidError("polyline exits the domain"))
        else:
            results.append(row)
    return results


def verify_john_certificate(omega: CubeUnion, cert: JohnCertificate, samples: int) -> tuple:
    """Prove the certificate's John condition on ``omega``, or find a pair
    that breaks it: a group of one (see :func:`_verify_group`).  Returns
    ``(ok, worst, evaluated)``; raises the ``ConstructionError`` or
    ``CertificateInvalidError`` that fails the domain."""
    table = (np.array([0, len(cert.block_levels)]), cert.block_levels, cert.block_coords,
             np.array([cert.center_block]))
    result = _verify_group(omega.ordering, [omega.i], [omega.j], cert.constant, samples, table)[0]
    if isinstance(result, Exception):
        raise result
    return result[:3]


def _pair_chunks(blocks, limit: int):
    """The pairs of ``blocks`` of (i, j) arrays, in order, as chunks of
    consecutive pairs whose domains hold at most ``limit`` cubes (one pair
    at least), whatever the blocks' boundaries: the last chunk of a block
    is held back, since it may take pairs of the next one."""
    i = j = np.zeros(0, dtype=np.int64)
    for more_i, more_j in blocks:
        i, j = np.concatenate([i, more_i]), np.concatenate([j, more_j])
        spans = list(_spans(j - i + 1, limit))
        for a, b in spans[:-1]:
            yield i[a:b], j[a:b]
        if spans:
            i, j = i[spans[-1][0] :], j[spans[-1][0] :]
    if len(i):
        yield i, j


def random_pairs(rng, total: int, count: int) -> tuple:
    """``count`` pairs 1 <= i <= j <= total as (i, j) arrays, drawn pair by
    pair: i uniform on 1 .. total, then j uniform on i .. total."""
    i, j = np.empty(count, dtype=np.int64), np.empty(count, dtype=np.int64)
    for k in range(count):
        i[k] = first = int(rng.integers(1, total + 1))
        j[k] = rng.integers(first, total + 1)
    return i, j


def exhaustive_pairs(total: int):
    """Every pair 1 <= i <= j <= total in row order, one row i per block."""
    return ((np.full(total + 1 - i, i), np.arange(i, total + 1)) for i in range(1, total + 1))


def verify_segment_domains(ordering: HilbertOrdering, blocks, samples: int):
    """Certify and prove the segment domains i[g] .. j[g] on the ordering,
    read from ``blocks`` of (i, j) integer arrays; yield ``(i, j, constant,
    results)`` per group, in pair order: the constant handed to the proof
    (:func:`uniform_john_constant`) and per domain ``(ok, worst, evaluated,
    profile_bound)`` (see :func:`_verify_group`), or the ``ConstructionError``
    or ``CertificateInvalidError`` that fails it.  A pair off 1 <= i <= j <= N
    raises ``IndexError``, and an ordering the certificates cannot use
    ``ConstructionError`` (see :func:`_block_table`).

    A chunk of pairs (see :func:`_pair_chunks`) has its block table and face
    runs built once; its face pass (2 d unit-face slots per cube, a few
    arrays each, see :func:`_face_runs`) holds at most
    ``DISTANCE_TABLE_ENTRIES`` / 4 slots, one domain at least.  A domain's
    first proof level measures its 2 (blocks - 1) walk segments (one point
    if none) against its face runs; a group takes the chunk's domains (one
    at least) while these pairs, four floats each, would fill at most
    ``DISTANCE_TABLE_ENTRIES``, so memory stays bounded however many pairs
    there are.  No domain's result depends on its group.
    """
    constant = uniform_john_constant(ordering.dim)
    for i, j in _pair_chunks(blocks, DISTANCE_TABLE_ENTRIES // (8 * ordering.dim)):
        if not ((1 <= i) & (i <= j) & (j <= len(ordering))).all():
            raise IndexError(f"need 1 <= i <= j <= {len(ordering)} for every pair")
        block_start, levels, coords, center = _block_table(ordering, i, j)
        lows, highs, runs = _face_runs(ordering, i, j)
        first_run = np.concatenate([[0], np.cumsum(runs)])
        pairs_per_domain = runs * np.maximum(1, 2 * (np.diff(block_start) - 1))
        for a, b in _spans(pairs_per_domain, DISTANCE_TABLE_ENTRIES // 4):
            rows = slice(block_start[a], block_start[b])
            faces = slice(first_run[a], first_run[b])
            group = (block_start[a : b + 1] - block_start[a], levels[rows], coords[rows],
                     center[a:b])
            yield i[a:b], j[a:b], constant, _verify_group(
                ordering, i[a:b], j[a:b], constant, samples, group,
                (lows[faces], highs[faces], runs[a:b]))


def oscillation_check(omega: CubeUnion, u: GridFunction, certificate: JohnCertificate | None = None):
    """Check osc(u; Omega) <= constant * ||gradient||_{d,1} on the subdomain.

    The oscillation of the interpolant over the closed union is the node range
    over member cells; the gradient norm restricts to member cells (extension
    by zero).  Returns ``(holds, oscillation, bound)``.
    """
    if certificate is None:
        certificate = john_bound_constructive(omega)
    if u.dim != omega.dim:
        raise GridMismatchError("dimension mismatch between function and domain")
    mask = omega.cell_mask(u.cells_per_side)
    node_mask = np.zeros((u.cells_per_side + 1,) * u.dim, dtype=bool)
    for offsets in product((0, 1), repeat=u.dim):
        view = node_mask[
            tuple(slice(o, u.cells_per_side + o) for o in offsets)
        ]
        view |= mask
    vals = u.nodal_values[node_mask]
    osc = float(vals.max() - vals.min())
    norm = grid_gradient_lorentz_norm(u.gradient_field(), LorentzParams(u.dim, 1),
                                      cell_mask=mask)
    bound = certificate.constant * norm
    return osc <= bound + 1e-12, osc, bound
