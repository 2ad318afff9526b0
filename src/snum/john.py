"""Segment domains along the curve ordering, and constructive John
certificates with a dimension-only constant.

A segment domain is a union of consecutively numbered level-k cubes.  Under a
prefix-nested ordering its index interval decomposes canonically into maximal
filled dyadic cubes whose sizes are unimodal along the curve; the certificate
walks block centers from any start point toward the center of the middle-most
largest block, crossing shared faces at their midpoints.  Summing the segment
lengths with geometric series gives a constant depending only on the
dimension, never on the resolution or the index range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import product

import numpy as np

from .hilbert import HilbertOrdering
from .spaces import GridFunction, GridMismatchError, LorentzParams, grid_gradient_lorentz_norm


DISTANCE_TABLE_ENTRIES = 4_000_000  # (runs, points) entries per boundary_distance table
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

    @property
    def cube_count(self) -> int:
        return self.j - self.i + 1

    def positions(self, cells) -> np.ndarray:
        """0-based position within the union of each cell (shape S + (dim,));
        -1 for cells outside it."""
        pos = self.ordering.positions(cells) - (self.i - 1)
        return np.where((pos >= 0) & (pos < self.cube_count), pos, -1)

    def contains_points(self, points, tol: float = 1e-9) -> np.ndarray:
        """Membership of each point in the closed union (faces belong): some
        member cell's closure holds the point, up to ``tol`` in cell units.  A
        point on the far face of the grid is held by the cell below it; points
        further off the grid get cells off it, which belong to no union."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        s = pts * (1 << self.level)
        base = np.floor(s + tol)
        own = base.astype(np.int64)
        other = own - ((np.abs(s - base) <= tol) & (own >= 1))  # the cell below a face
        cells = np.where(_corner_picks(self.dim), other[:, None, :], own[:, None, :])
        pos = self.ordering.positions(cells)
        return ((pos >= self.i - 1) & (pos < self.j)).any(axis=1)

    @cached_property
    def _face_arrays(self):
        """Boundary faces as axis-aligned boxes (lows, highs), one degenerate axis.

        Unit faces that lie in one plane and abut along a tangent axis are
        merged into one run.  IEEE subtraction is monotone, so a run's gap to a
        point on that axis is the least of its pieces' gaps and its other gaps
        are theirs: the nearest run is exactly as near as the nearest face.

        A unit face (cell, direction 2a or 2a + 1 for the step -1 or +1 along
        axis a) is on the boundary iff its neighbour is off the grid or its
        curve position falls outside the union.  Each gets one integer key (see
        :func:`_face_keys`), so one sort groups the faces by plane line and a
        run is where the key steps by 1.  The runs come sorted by direction.
        """
        d, n = self.dim, 1 << self.level
        side = 1.0 / n
        strides, shifts, weights, per_direction = _face_keys(d, n)
        z = self.coords.astype(np.int64)
        outside = np.empty((len(z), 2 * d), dtype=bool)
        np.equal(z, 0, out=outside[:, 0::2])
        np.equal(z, n - 1, out=outside[:, 1::2])
        # off-grid neighbours read some clipped entry; they are outside anyway
        neighbour = self.ordering.inverse.take((z @ strides)[:, None] + shifts, mode="clip")
        outside |= (neighbour < self.i - 1) | (neighbour >= self.j)
        cells, dirs = np.nonzero(outside)
        keys = dirs * per_direction + (z[cells] * weights[dirs]).sum(axis=1)
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
        return lo, hi

    @cached_property
    def _face_columns(self) -> tuple:
        """The face runs' lows and highs, shape (dim, runs, 1): one column of
        runs per axis."""
        return tuple(bounds.T[:, :, None].copy() for bounds in self._face_arrays)

    def boundary_distance(self, points) -> np.ndarray:
        """Exact Euclidean distance to the boundary, via the face decomposition.

        Per chunk of points, one (runs, points) table of squared gaps, summed
        axis by axis in ascending order and reduced over the runs.  A run's
        gap on an axis is clip(x, lo, hi) - x, which is max(lo - x, x - hi, 0)
        up to its exact sign (on the normal axis, where lo = hi, the plane
        difference lo - x), so every square is the per-face one and the
        nearest run is the nearest face.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        xs = np.ascontiguousarray(pts.T)  # (dim, points): each axis one contiguous row
        lows, highs = self._face_columns
        squared = np.empty(len(pts))
        chunk = max(1, min(len(pts), DISTANCE_TABLE_ENTRIES // lows.shape[1]))
        buffers = np.empty((2, lows.shape[1], chunk))  # the sum, and one axis's gaps
        for s in range(0, len(pts), chunk):
            x = xs[:, s : s + chunk]
            table, gap = buffers[:, :, : x.shape[1]]
            for b in range(self.dim):
                out = table if b == 0 else gap  # 0.0 + x == x: the first axis starts the sum
                np.maximum(x[b], lows[b], out=out)
                np.minimum(out, highs[b], out=out)
                out -= x[b]
                out *= out
                if b > 0:
                    table += gap
            table.min(axis=0, out=squared[s : s + chunk])
        # sqrt is monotone and correctly rounded: sqrt of the min is exact
        return np.sqrt(squared)

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


def _maximal_blocks(lo: int, hi: int, base: int):
    """Canonical tiling of the integer interval [lo, hi] by maximal aligned
    base**t blocks; block sizes are unimodal along the interval."""
    blocks = []
    pos = lo
    while pos <= hi:
        size = 1
        while pos % (size * base) == 0 and pos + size * base - 1 <= hi:
            size *= base
        blocks.append((pos, size))
        pos += size
    return blocks


@dataclass
class JohnCertificate:
    """Certified curve construction: for sampled x and curve parameter t,
    dist(gamma(t), boundary) >= constant^-1 |x - gamma(t)|.

    Block b of the domain's maximal-block tiling is the dyadic cube
    ``2^-block_levels[b] * (block_coords[b] + [0, 1]^d)``.
    """

    union: CubeUnion
    center: np.ndarray
    constant: float
    block_levels: np.ndarray
    block_coords: np.ndarray
    center_block: int
    runs_left: list
    runs_right: list
    _block_starts: np.ndarray = field(repr=False)  # 0-based first position per block

    def block_of_index(self, index):
        """Maximal-block position of 1-based cube indices (an int or an
        array), clamped to ``[0, len(block_levels) - 1]``."""
        found = np.searchsorted(self._block_starts, np.asarray(index) - 1, side="right") - 1
        return np.minimum(np.maximum(found, 0), len(self.block_levels) - 1)

    @cached_property
    def block_centers(self) -> np.ndarray:
        """One exact center per block."""
        return _centers(self.block_coords, self.block_levels)

    @cached_property
    def _block_bounds(self) -> tuple:
        """Each block's lows and highs, exact, (blocks, dim) each."""
        sides = np.ldexp(1.0, -self.block_levels)[:, None]
        return self.block_coords * sides, (self.block_coords + 1) * sides

    @cached_property
    def _walks(self) -> tuple:
        """The walks out of the center block toward the first and toward the
        last block: block centers alternating with shared-face midpoints, so
        a block m steps out is vertex 2m of its side's walk."""
        lows, highs = self._block_bounds
        # the shared face of blocks b and b + 1, and its midpoint
        lo, hi = np.maximum(lows[:-1], lows[1:]), np.minimum(highs[:-1], highs[1:])
        if (hi < lo).any():
            raise ConstructionError("blocks are not adjacent")
        gates = 0.5 * (lo + hi)
        c, centers = self.center_block, self.block_centers
        walks = []
        for ring, doors in ((centers[c::-1], gates[:c][::-1]), (centers[c:], gates[c:])):
            path = np.empty((2 * len(ring) - 1, self.union.dim))
            path[0::2], path[1::2] = ring, doors
            walks.append(path)
        return tuple(walks)

    @cached_property
    def profile_bound(self) -> float:
        """The chain estimate evaluated on the actual generation profile.

        A single block (a cube, or the full cube after the generations
        collapse) yields sqrt(d), the straight-segment diagonal/side ratio;
        otherwise the maximum over start/target block pairs of 4 * (half-diagonal
        legs plus the connecting path length) / (target side).
        """
        half = 0.5 * math.sqrt(self.union.dim)
        bound = math.sqrt(self.union.dim)
        c, sides = self.center_block, np.ldexp(1.0, -self.block_levels)
        for walk, h in zip(self._walks, (sides[c::-1], sides[c:])):
            # path length from each block's center to x0, one leg per block;
            # the walk is dyadic, so every squared segment length is exact
            step = walk[1:] - walk[:-1]
            step *= step
            segments = np.sqrt(step.sum(axis=1))
            pref = np.zeros(len(h))
            np.cumsum(segments[1::2] + segments[0::2], out=pref[1:])
            # row t: gamma(t) in block t; column x > t: x in an outer block
            reach = half * h + (pref - pref[:, None]) + half * h[:, None]
            bound = float(np.triu(4.0 * reach / h[:, None], 1).max(initial=bound))
        return bound


def john_bound_constructive(omega: CubeUnion) -> JohnCertificate:
    """Certificate from the maximal-block labeling along the curve.

    The central point is the center of the middle-most largest filled cube;
    per curve direction the same-generation run lengths then satisfy
    m_1 <= 2(2^d - 2) and m_l <= 2^d - 1, and the summed chain gives the
    uniform constant of :func:`uniform_john_constant`, independent of the
    resolution and of the index range.
    """
    ordering = omega.ordering
    if not (ordering.is_face_adjacent and ordering.is_prefix_nested):
        raise ConstructionError(
            "construction needs a face-adjacent, prefix-nested ordering"
        )
    d, k = omega.dim, omega.level
    raw = _maximal_blocks(omega.i - 1, omega.j - 1, 1 << d)
    starts = np.array([pos for pos, _ in raw])
    t = np.array([(size.bit_length() - 1) // d for _, size in raw])  # size = (2^d)^t
    levels = k - t
    coords = ordering.coords[starts].astype(np.int64) >> t[:, None]

    oldest = np.flatnonzero(levels == levels.min())
    if oldest[-1] - oldest[0] != len(oldest) - 1:
        raise ConstructionError("largest filled cubes are not consecutive")
    center_block = int(oldest[0] + (len(oldest) - 1) // 2)

    def runs(indices):
        out = []
        for lvl in levels[indices].tolist():
            if out and out[-1][0] == lvl:
                out[-1] = (lvl, out[-1][1] + 1)
            else:
                out.append((lvl, 1))
        return out

    return JohnCertificate(
        union=omega,
        center=_centers(coords[center_block], levels[center_block]),
        constant=uniform_john_constant(d),
        block_levels=levels,
        block_coords=coords,
        center_block=center_block,
        runs_left=runs(np.arange(center_block - 1, -1, -1)),
        runs_right=runs(np.arange(center_block + 1, len(levels))),
        _block_starts=starts,
    )


def verify_john_certificate(omega: CubeUnion, cert: JohnCertificate, samples: int) -> tuple:
    """Prove the certificate's John condition, or find a pair that breaks it.

    The condition: |x - gamma(t)| <= constant * dist(gamma(t), boundary) for
    every point x of the domain and every point gamma(t) of x's curve, which
    runs from x to the center of x's block and then along its side's walk
    to the center block.
    - The first leg, gamma = x + tau (c - x) with c the block's center: the
      distance to the block's boundary is concave on the block, so it is at
      least tau side / 2 there, while |x - gamma| <= tau sqrt(d) side / 2.
      The leg's ratio is at most sqrt(d), so a constant that does not
      exceed sqrt(d) by the margin fails before any walk point.
    - Walk segment s of one side is on the curves of the blocks at least
      s // 2 + 1 steps out on that side.  F(p) is the largest distance from
      p to a corner of those blocks, so the largest |x - p| over their
      points; D(p) is ``boundary_distance(p)``.  Both are 1-Lipschitz, so on
      a piece of a segment with midpoint p and half-length h the ratio is at
      most (F + h) / (D - h).  The pieces start as the segments; a piece
      passes iff F + h <= constant (1 - ``PROOF_MARGIN``) (D - h), and every
      other piece is split in two.  Each level measures the live pieces of
      both walks in one boundary-distance call and one masked
      (pieces, blocks) table of farthest corners.

    An evaluated F / D above constant (1 + ``PROOF_MARGIN``) is a real
    violating pair (a corner, p) and fails at once; so does a run that needs
    more than ``samples`` evaluated points.  Returns ``(ok, worst,
    evaluated)``: ``worst`` is max(sqrt(d), the largest evaluated F / D).

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
    walks = cert._walks
    heads = np.concatenate([W[:-1] for W in walks])
    tails = np.concatenate([W[1:] for W in walks])
    p = 0.5 * (heads + tails)  # the segments' midpoints, exact
    if not omega.contains_points(np.concatenate([*walks, p])).all():
        raise CertificateInvalidError("polyline exits the domain")
    worst = math.sqrt(omega.dim)  # the first leg's bound
    limit = cert.constant * (1 - PROOF_MARGIN)
    if worst > limit:
        return False, worst, 0

    # the blocks whose curves use each segment, one row per segment
    c, blocks = cert.center_block, np.arange(len(cert.block_levels))
    out = [np.arange(len(W) - 1)[:, None] // 2 + 1 for W in walks]
    uses = np.concatenate([blocks <= c - out[0], blocks >= c + out[1]])
    lows, highs = cert._block_bounds
    half = 0.5 * (tails - heads)  # each segment's half, exact
    length = np.sqrt((half * half).sum(axis=1))  # its half-length
    segment = np.arange(len(p))  # the segment of each piece
    evaluated = 0
    for depth in range(52 - omega.level):  # midpoints stay exact dyadics
        if not len(p):
            return True, worst, evaluated
        if evaluated + len(p) > samples:
            return False, worst, evaluated
        evaluated += len(p)
        # the farthest corner of a block: per axis the farther of its faces
        far = np.maximum(p[:, None] - lows, highs - p[:, None])
        far *= far
        F = np.sqrt(far.sum(axis=2).max(axis=1, where=uses[segment], initial=0.0))
        D = omega.boundary_distance(p)
        with np.errstate(divide="ignore"):
            worst = max(worst, float((F / D).max()))
        if worst > cert.constant * (1 + PROOF_MARGIN):
            return False, worst, evaluated
        h = length[segment] * 0.5**depth
        split = F + h > limit * (D - h)
        p, segment = p[split], segment[split]
        step = half[segment] * 0.5 ** (depth + 1)  # a child's midpoint is this far away
        p = np.concatenate([p - step, p + step])
        segment = np.concatenate([segment, segment])
    return False, worst, evaluated


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
