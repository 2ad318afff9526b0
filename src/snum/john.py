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
from functools import cached_property
from itertools import product

import numpy as np

from .hilbert import HilbertOrdering
from .spaces import GridFunction, GridMismatchError, LorentzParams, grid_gradient_lorentz_norm


class ConstructionError(ValueError):
    """The ordering does not support the certificate construction."""


class CertificateInvalidError(ValueError):
    """The certificate's curve leaves the domain it claims to certify."""


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

    def _incident_positions(self, points, tol: float) -> np.ndarray:
        """Union positions of the cells whose closures hold each point, up to
        ``tol`` in cell units: shape (M, 2^dim), -1 where not a member.  A
        point on the far face of the grid is held by the cell below it; points
        further off the grid get cells off it, which belong to no union."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        n = 1 << self.level
        s = pts * n
        base = np.floor(s + tol)
        own = base.astype(np.int64)
        on_face = (np.abs(s - base) <= tol) & (base - 1 >= 0)
        other = np.where(on_face, base - 1, own).astype(np.int64)
        picks = np.array(list(product((False, True), repeat=self.dim)))
        cells = np.where(picks[None], other[:, None, :], own[:, None, :])
        return self.positions(cells)

    def contains_points(self, points, tol: float = 1e-9) -> np.ndarray:
        """Membership of each point in the closed union (faces belong)."""
        return (self._incident_positions(points, tol) >= 0).any(axis=1)

    @cached_property
    def _face_arrays(self):
        """Boundary faces as axis-aligned boxes (lows, highs), one degenerate axis.

        Unit faces that lie in one plane and abut along a tangent axis are
        merged into one run.  IEEE subtraction is monotone, so a run's gap to a
        point on that axis is the least of its pieces' gaps and its other gaps
        are theirs: the nearest run is exactly as near as the nearest face.

        Each unit face (cell, direction 2a or 2a + 1 for the step -1 or +1
        along axis a) gets one integer key: the direction, then the other
        coordinates, then the first tangent axis t in base n + 1, so one sort
        groups the faces by plane line and a run is where the key steps by 1.
        """
        d, n = self.dim, 1 << self.level
        side = 1.0 / n
        z = self.coords.astype(np.int64)
        steps = np.repeat(np.eye(d, dtype=np.int64), 2, axis=0) * np.tile([-1, 1], d)[:, None]
        cells, dirs = np.nonzero(self.positions(z[:, None, :] + steps) < 0)
        weights = np.zeros((2 * d, d), dtype=np.int64)
        per_direction = 2  # d = 1: keys 0 and 2 never step by 1, so no face merges
        if d > 1:
            for a in range(d):
                t = 1 if a == 0 else 0
                others = [b for b in range(d) if b != t]
                weights[2 * a : 2 * a + 2, others] = (n + 1) * n ** np.arange(d - 1)
                weights[2 * a : 2 * a + 2, t] = 1
            per_direction = (n + 1) * n ** (d - 1)
        keys = dirs * per_direction + (z[cells] * weights[dirs]).sum(axis=1)
        order = np.argsort(keys, kind="stable")
        starts = np.flatnonzero(np.concatenate([[True], np.diff(keys[order]) != 1]))
        ends = np.append(starts[1:], len(order)) - 1
        first, last = z[cells[order[starts]]], z[cells[order[ends]]]
        a, up = np.divmod(dirs[order[starts]], 2)
        lo, hi = first * side, (last + 1) * side
        rows = np.arange(len(starts))
        lo[rows, a] = hi[rows, a] = (first[rows, a] + up) * side
        return lo, hi

    def boundary_distance(self, points) -> np.ndarray:
        """Exact Euclidean distance to the boundary, via the face decomposition."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        lows, highs = self._face_arrays
        out = np.empty(len(pts))
        chunk = max(1, int(4_000_000 // max(len(lows), 1)))
        for s in range(0, len(pts), chunk):
            for a in range(self.dim):  # (points, faces), summed axis by axis in place
                x = pts[s : s + chunk, a, None]
                gap = lows[:, a] - x
                np.maximum(gap, x - highs[:, a], out=gap)
                np.maximum(gap, 0.0, out=gap)
                gap *= gap
                if a == 0:  # 0.0 + x == x: the first axis starts the sum
                    squared = gap
                else:
                    squared += gap
            # sqrt is monotone and correctly rounded: sqrt of the min is exact
            out[s : s + chunk] = np.sqrt(squared.min(axis=1))
        return out

    def random_points(self, rng, count: int) -> np.ndarray:
        """Uniform samples from the union."""
        side = 1.0 / (1 << self.level)
        picks = rng.integers(0, self.cube_count, size=count)
        anchors = self.coords[picks] * side
        return anchors + rng.uniform(0.0, side, size=(count, self.dim))

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
        return np.clip(found, 0, len(self.block_levels) - 1)

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
            segments = np.sqrt((np.diff(walk, axis=0) ** 2).sum(axis=1))
            pref = np.cumsum(np.concatenate([[0.0], segments[1::2] + segments[0::2]]))
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
    curve_pts = np.vstack(walk_pts)
    if not omega.contains_points(curve_pts).all():
        raise CertificateInvalidError("polyline exits the domain")
    walk_dist = np.split(omega.boundary_distance(curve_pts), [len(walk_pts[0])])
    steps = np.arange(nblocks) - cert.center_block
    counts = 4 * np.abs(steps) + 1

    # start points: member-cube centers first, then random interior fills;
    # a fill's cell maps to its block through the member cells' table, and
    # cells outside the union clamp to its ends as block_of_index does
    blocks_of_cells = cert.block_of_index(np.arange(omega.i, omega.j + 1))
    pair_cost = counts + 1
    cell_cost = pair_cost[blocks_of_cells]
    xs = [_centers(omega.coords, omega.level)]
    x_blocks = [blocks_of_cells]
    total = int(cell_cost.sum())
    per_point = int(pair_cost.mean()) + 1
    n = 1 << omega.level
    strides = n ** np.arange(omega.dim - 1, -1, -1)
    while total < samples:
        need = max(64, (samples - total) // per_point + 1)
        extra = omega.random_points(rng, need)
        cells = np.minimum((extra * n).astype(int), n - 1)
        where = omega.ordering.inverse[cells @ strides] - (omega.i - 1)
        where = np.minimum(np.maximum(where, 0), omega.cube_count - 1)
        xs.append(extra)
        x_blocks.append(blocks_of_cells[where])
        total += int(cell_cost[where].sum())

    X = np.vstack(xs)
    XB = np.concatenate(x_blocks)
    by_block = np.argsort(XB, kind="stable")
    edges = np.searchsorted(XB[by_block], np.arange(nblocks + 1))
    XT = X[by_block].T.copy()  # (dim, points), grouped by block
    worst = 0.0
    for b in range(nblocks):
        lo, hi = edges[b], edges[b + 1]
        if lo == hi:
            continue
        side = int(steps[b] > 0)
        P, D = walk_pts[side][: counts[b]], walk_dist[side][: counts[b]]
        for a in range(omega.dim):  # (points, curve points), summed axis by axis in place
            gap = XT[a, lo:hi, None] - P[:, a]
            gap *= gap
            if a == 0:
                squared = gap
            else:
                squared += gap
        # sqrt and the division are correctly rounded and monotone, so the
        # column maxima give the table's maximum ratio exactly
        worst = max(worst, float((np.sqrt(squared.max(axis=0)) / D).max()))
    # the first leg, from x straight to its block's center
    mid = 0.5 * (X + cert.block_centers[XB])
    dq = omega.boundary_distance(mid)
    worst = max(worst, float((np.linalg.norm(X - mid, axis=1) / dq).max()))
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
