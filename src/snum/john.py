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
    def _face_groups(self) -> list:
        """The face runs grouped by normal axis a, the one axis where their
        lows equal their highs: ``(a, lows, highs)`` with lows and highs of
        shape (dim, runs, 1), one column of runs per axis."""
        lows, highs = self._face_arrays
        normal = (lows == highs).argmax(axis=1)  # nondecreasing: runs sort by direction
        bounds = np.searchsorted(normal, np.arange(self.dim + 1)).tolist()
        return [(a, lows[lo:hi].T[:, :, None].copy(), highs[lo:hi].T[:, :, None].copy())
                for a, (lo, hi) in enumerate(zip(bounds, bounds[1:])) if lo < hi]

    def boundary_distance(self, points) -> np.ndarray:
        """Exact Euclidean distance to the boundary, via the face decomposition.

        Per group of runs with one normal axis and per chunk of points, one
        (runs, points) table of squared gaps, summed axis by axis in ascending
        order and reduced over the runs.  On the normal axis a run's gap is the
        plane difference lo - x, on a tangent axis clip(x, lo, hi) - x: up to
        its exact sign, either is max(lo - x, x - hi, 0), so every square is
        the per-face one and the nearest run is the nearest face.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        xs = np.ascontiguousarray(pts.T)  # (dim, points): each axis one contiguous row
        squared = np.full(len(pts), np.inf)
        runs = max(lows.shape[1] for _, lows, _ in self._face_groups)
        chunk = max(1, min(len(pts), DISTANCE_TABLE_ENTRIES // runs))
        buffers = np.empty((2, runs, chunk))  # the sum, and one axis's gaps
        for a, lows, highs in self._face_groups:
            for s in range(0, len(pts), chunk):
                x = xs[:, s : s + chunk]
                table, gap = buffers[:, : lows.shape[1], : x.shape[1]]
                for b in range(self.dim):
                    out = table if b == 0 else gap  # 0.0 + x == x: the first axis starts the sum
                    if b == a:
                        np.subtract(lows[b], x[b], out=out)
                    else:
                        np.maximum(x[b], lows[b], out=out)
                        np.minimum(out, highs[b], out=out)
                        out -= x[b]
                    out *= out
                    if b > 0:
                        table += gap
                best = squared[s : s + chunk]
                np.minimum(best, table.min(axis=0), out=best)
        # sqrt is monotone and correctly rounded: sqrt of the min is exact
        return np.sqrt(squared)

    def random_points(self, rng, count: int) -> np.ndarray:
        """Uniform samples from the union."""
        side = 1.0 / (1 << self.level)
        picks = rng.integers(0, self.cube_count, size=count)
        points = self.coords.take(picks, axis=0) * side
        points += rng.uniform(0.0, side, size=(count, self.dim))
        return points

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
    def _walks(self) -> tuple:
        """The walks out of the center block toward the first and toward the
        last block: block centers alternating with shared-face midpoints, so
        a block m steps out is vertex 2m of its side's walk."""
        sides = np.ldexp(1.0, -self.block_levels)[:, None]
        lows, highs = self.block_coords * sides, (self.block_coords + 1) * sides
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


def verify_john_certificate(omega: CubeUnion, cert: JohnCertificate, samples: int, rng=None):
    """Sample start points and curve parameters; report the worst ratio.

    ``samples`` counts evaluated (start point, curve point) pairs.  Start
    points are all member-cube centers plus uniform interior points until the
    budget is met; curve points are the walk vertices and segment
    midpoints.  Passes iff max |x - gamma(t)| / dist(gamma(t), boundary) stays
    within the certified constant.
    """
    if samples < 1:
        raise ValueError("need samples >= 1")
    if rng is None:
        rng = np.random.default_rng(0)
    nblocks = len(cert.block_levels)

    # each walk sampled at its vertices and segment midpoints, in walk order:
    # the curve points of a block m steps out are the first 4m + 1 of its side
    walk_pts = []
    for W in cert._walks:
        Q = np.empty((2 * len(W) - 1, omega.dim))
        Q[0::2] = W
        Q[1::2] = 0.5 * (W[:-1] + W[1:])
        walk_pts.append(Q)
    curve_pts = np.concatenate(walk_pts)
    if not omega.contains_points(curve_pts).all():
        raise CertificateInvalidError("polyline exits the domain")
    steps = np.arange(nblocks) - cert.center_block
    counts = 4 * np.abs(steps) + 1

    # start points: member-cube centers first, then random interior fills.  A
    # fill maps to its block through the member cells' table; a draw that
    # rounds onto its cell's far face lands in the cell past it, clipped onto
    # the grid, and a position outside the union clamps to its ends as
    # block_of_index does
    blocks_of_cells = cert.block_of_index(np.arange(omega.i, omega.j + 1))
    pair_cost = counts + 1
    xs = [_centers(omega.coords, omega.level)]
    x_blocks = [blocks_of_cells]
    total = int(pair_cost[blocks_of_cells].sum())
    per_point = int(pair_cost.mean()) + 1
    n = 1 << omega.level
    grid = (n,) * omega.dim
    while total < samples:
        need = max(64, (samples - total) // per_point + 1)
        extra = omega.random_points(rng, need)
        cells = tuple((extra * n).astype(np.intp).T)
        where = omega.ordering.inverse[np.ravel_multi_index(cells, grid, mode="clip")] - (omega.i - 1)
        blocks = blocks_of_cells.take(where, mode="clip")
        xs.append(extra)
        x_blocks.append(blocks)
        total += int(pair_cost[blocks].sum())

    X = np.concatenate(xs)
    XB = np.concatenate(x_blocks)
    # the first leg, from x straight to its block's center: its midpoints and
    # the curve points measured in one boundary-distance call, one row per axis
    probes = np.empty((omega.dim, len(curve_pts) + len(X)))
    probes[:, : len(curve_pts)] = curve_pts.T
    mid = probes[:, len(curve_pts) :]
    for a in range(omega.dim):
        np.add(X[:, a], cert.block_centers[:, a].take(XB), out=mid[a])
    mid *= 0.5
    dist = omega.boundary_distance(probes.T)

    # per curve point, the largest squared distance to a start point whose
    # block's chain passes it; sqrt and the division are correctly rounded and
    # monotone, so these maxima give the largest ratio exactly
    key = XB.astype(np.min_scalar_type(nblocks))  # a small-int key sorts by radix
    by_block = np.argsort(key, kind="stable")
    ends = np.bincount(key, minlength=nblocks).cumsum().tolist()
    XT = np.take(X.T, by_block, axis=1)  # (dim, points), grouped by block
    columns = [[Q[:, a, None] for a in range(omega.dim)] for Q in walk_pts]
    far = [np.zeros(len(Q)) for Q in walk_pts]
    lo = 0
    for hi, step, count in zip(ends, steps.tolist(), counts.tolist()):
        if lo == hi:
            continue
        side = int(step > 0)
        P, M = columns[side], far[side][:count]
        for a in range(omega.dim):  # (curve points, points), summed axis by axis in place
            gap = P[a][:count] - XT[a, lo:hi]
            gap *= gap
            if a == 0:
                squared = gap
            else:
                squared += gap
        np.maximum(M, np.maximum.reduce(squared, axis=1), out=M)
        lo = hi
    walk_dist = dist[: len(walk_pts[0])], dist[len(walk_pts[0]) : len(curve_pts)]
    worst = max(float((np.sqrt(f) / D).max()) for f, D in zip(far, walk_dist))
    for a in range(omega.dim):  # the leg's norm, summed axis by axis as np.linalg.norm does
        leg = X[:, a] - mid[a]
        leg *= leg
        if a == 0:
            squared = leg
        else:
            squared += leg
    worst = max(worst, float((np.sqrt(squared) / dist[len(curve_pts) :]).max()))
    return worst <= cert.constant * (1 + 1e-9), worst


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
