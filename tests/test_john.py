import math
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from snum.hilbert import HilbertOrdering, hilbert_order
from snum.john import (
    DISTANCE_TABLE_ENTRIES,
    CertificateInvalidError,
    ConstructionError,
    john_bound_constructive,
    oscillation_check,
    segment_domain,
    uniform_john_constant,
    verify_john_certificate,
)
from snum.spaces import GridFunction, GridMismatchError


def _on_grid(fn, dim, cells_per_side):
    """The grid function with nodal values fn(x_1, ..., x_d) at the grid nodes."""
    axes = [np.arange(cells_per_side + 1) / cells_per_side] * dim
    return GridFunction(dim, cells_per_side, fn(*np.meshgrid(*axes, indexing="ij")))


def _unit_faces(omega):
    """(axis, plane, cell) of each unit face between a member cell and a
    neighbour outside the union, from the member cells; sorted."""
    members = {tuple(int(v) for v in z) for z in omega.coords}
    return sorted(
        (a, z[a] + (step == 1), z)
        for z in members for a in range(omega.dim) for step in (-1, 1)
        if z[:a] + (z[a] + step,) + z[a + 1 :] not in members
    )


@pytest.fixture(scope="module")
def ordering_k3():
    return hilbert_order(2, 3)


class TestSegmentDomain:
    def test_single_cube_center_distance(self, ordering_k3):
        omega = segment_domain(ordering_k3, 5, 5)
        center = (ordering_k3.coords[4] + 0.5) / 8
        assert omega.boundary_distance([center])[0] == pytest.approx(1 / 16, abs=0)

    def test_full_cube(self, ordering_k3):
        omega = segment_domain(ordering_k3, 1, 64)
        assert omega.boundary_distance([[0.5, 0.5]])[0] == pytest.approx(0.5, abs=0)
        assert omega.cube_count == len(ordering_k3)

    def test_four_cell_union_connected(self):
        ordering = hilbert_order(2, 2)
        omega = segment_domain(ordering, 2, 5)
        assert omega.cube_count == 4
        # consecutive cubes share a face, so the union is connected
        assert np.abs(np.diff(omega.coords, axis=0)).sum(axis=1).tolist() == [1, 1, 1]

    def test_index_range_checked(self, ordering_k3):
        with pytest.raises(IndexError):
            segment_domain(ordering_k3, 0, 5)
        with pytest.raises(IndexError):
            segment_domain(ordering_k3, 5, 65)
        with pytest.raises(IndexError):
            segment_domain(ordering_k3, 7, 6)

    def test_membership_includes_faces(self, ordering_k3):
        omega = segment_domain(ordering_k3, 1, 4)  # the first coarse quadrant
        pts = [[0.0, 0.0], [0.25, 0.25], [0.75, 0.75]]
        assert omega.contains_points(pts).tolist() == [True, True, False]

    def test_boundary_distance_exact_on_l_shape(self):
        # three cells of the first-order curve: (0,0),(0,1),(1,1)
        ordering = hilbert_order(2, 1)
        omega = segment_domain(ordering, 1, 3)
        # nearest boundary piece from (0.4, 0.4) is the face of the missing
        # cell at x = 1/2; from (0.4, 0.6), diagonally across the re-entrant
        # corner, the distance is to the corner point itself
        assert omega.boundary_distance([[0.4, 0.4]])[0] == pytest.approx(0.1, rel=1e-12)
        assert omega.boundary_distance([[0.25, 0.25]])[0] == pytest.approx(0.25, abs=0)
        assert omega.boundary_distance([[0.4, 0.6]])[0] == pytest.approx(
            math.hypot(0.1, 0.1), rel=1e-12
        )

    @pytest.mark.parametrize("dim,order,i,j", [
        (1, 6, 5, 40), (2, 5, 37, 811), (2, 5, 300, 420), (3, 3, 20, 390),
    ])
    def test_boundary_distance_matches_the_per_axis_expression(self, dim, order, i, j):
        # random, face, corner and off-grid points against every unit face,
        # over several chunks of the face table
        omega = segment_domain(hilbert_order(dim, order), i, j)
        side = 1.0 / (1 << order)
        faces = _unit_faces(omega)
        lows = np.array([z for _, _, z in faces]) * side
        highs = lows + side
        for row, (a, plane, _) in enumerate(faces):
            lows[row, a] = highs[row, a] = plane * side
        rng = np.random.default_rng(i)
        count = 3 * (4_000_000 // len(omega._face_arrays[0])) + 7
        grid = rng.integers(0, (1 << order) + 1, (count, dim)) / (1 << order)
        pts = rng.uniform(0.0, 1.0, (count, dim))
        pts[: count // 4] = grid[: count // 4]  # corners
        face = rng.integers(0, dim, count)
        rows = np.arange(count // 4, count // 2)
        pts[rows, face[rows]] = grid[rows, face[rows]]  # on a face plane
        pts[3 * count // 4 :] = rng.uniform(-0.5, 1.5, (count - 3 * count // 4, dim))
        expected = np.empty(count)
        for s in range(0, count, 1000):
            squared = 0.0
            for a in range(dim):
                x = pts[s : s + 1000, a, None]
                gap = np.maximum(lows[:, a] - x, x - highs[:, a])
                np.maximum(gap, 0.0, out=gap)
                squared = squared + gap * gap
            expected[s : s + 1000] = np.sqrt(squared.min(axis=1))
        assert (expected == 0).any() and (expected > 0).any()
        assert omega.boundary_distance(pts).tobytes() == expected.tobytes()

    def test_boundary_distance_peak_stays_within_the_table_bound(self):
        # 32 one-cell-wide stripes of the 512 x 512 grid: 64 runs per normal
        # axis, so one unchunked (runs, points) table over 300,000 points
        # would hold 19.2 M entries
        cells = [(x, y) for x in range(0, 512, 16) for y in range(512)]
        omega = segment_domain(HilbertOrdering(2, 9, cells), 1, len(cells))
        assert [lows.shape[1] for _, lows, _ in omega._face_groups] == [64, 64]
        pts = np.random.default_rng(3).uniform(0.0, 1.0, (300_000, 2))
        tracemalloc.start()
        try:
            omega.boundary_distance(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * DISTANCE_TABLE_ENTRIES * 8  # three float tables

    def test_membership_matches_cell_set(self, ordering_k3):
        # a point belongs iff some member cell's closure holds it; grid
        # points on faces and corners included, and points off the unit
        # square, which belong to no cell
        omega = segment_domain(ordering_k3, 6, 29)
        members = [tuple(z) for z in ordering_k3.coords[5:29].tolist()]
        ticks = np.arange(-2, 19) / 16
        pts = np.array([(x, y) for x in ticks for y in ticks]
                       + [(-0.3, 0.1), (0.1, -5.0), (1.2, 0.5), (0.5, 7.0)])
        expected = [
            any(all(c / 8 <= v <= (c + 1) / 8 for c, v in zip(cell, p)) for cell in members)
            for p in pts
        ]
        assert omega.contains_points(pts).tolist() == expected

    def test_positions_within_union(self, ordering_k3):
        omega = segment_domain(ordering_k3, 10, 20)
        assert np.array_equal(omega.positions(omega.coords), np.arange(11))
        outside = ordering_k3.coords[[8, 20]]  # cubes 9 and 21
        assert omega.positions(outside).tolist() == [-1, -1]

    @pytest.mark.parametrize("dim,order,i,j", [
        (1, 4, 3, 11), (2, 3, 3, 40), (2, 4, 17, 200), (3, 2, 5, 50),
    ])
    def test_face_runs_expand_to_the_neighbour_faces(self, dim, order, i, j):
        # every run is one plane piece; cut into unit faces, the runs give
        # exactly the faces between member cells and their non-members
        omega = segment_domain(hilbert_order(dim, order), i, j)
        lows, highs = omega._face_arrays
        flat = highs == lows
        assert flat.sum(axis=1).tolist() == [1] * len(lows)
        cells_lo = np.rint(lows * (1 << order)).astype(int)
        cells_hi = np.rint(highs * (1 << order)).astype(int)
        expanded = []
        for lo, hi, flat_axes in zip(cells_lo, cells_hi, flat):
            a = int(np.flatnonzero(flat_axes)[0])
            spans = [range(l, h) if b != a else [l] for b, (l, h) in enumerate(zip(lo, hi))]
            expanded += [(a, int(lo[a]), cell[:a] + cell[a + 1 :]) for cell in product(*spans)]
        expected = [(a, plane, z[:a] + z[a + 1 :]) for a, plane, z in _unit_faces(omega)]
        assert sorted(expanded) == expected
        if dim > 1:
            assert len(lows) < len(expected)

    def test_random_points_inside(self, ordering_k3):
        omega = segment_domain(ordering_k3, 3, 17)
        rng = np.random.default_rng(0)
        assert omega.contains_points(omega.random_points(rng, 200)).all()

    def test_cell_mask_needs_nested_grid(self, ordering_k3):
        omega = segment_domain(ordering_k3, 1, 8)
        with pytest.raises(GridMismatchError):
            omega.cell_mask(12)
        mask = omega.cell_mask(16)
        assert mask.sum() == 8 * 4  # 4 fine cells per member cube
        for k in range(1, 65):
            x, y = ordering_k3.coords[k - 1]
            assert mask[2 * x, 2 * y] == (k <= 8) and mask[2 * x + 1, 2 * y + 1] == (k <= 8)

    @pytest.mark.parametrize("dim,order,cells", [(2, 3, 8), (2, 3, 32), (2, 2, 24),
                                                 (3, 2, 4), (3, 2, 16), (3, 3, 64)])
    def test_cell_mask_equals_gathered_member_grid(self, dim, order, cells):
        # each fine cell reads the member flag of the level-k cube it lies in
        ordering = hilbert_order(dim, order)
        rng = np.random.default_rng(cells)
        for _ in range(4):
            i, j = sorted(rng.integers(1, len(ordering) + 1, 2).tolist())
            omega = segment_domain(ordering, i, j)
            member = np.zeros((1 << order,) * dim, dtype=bool)
            member[tuple(omega.coords.T)] = True
            idx = (np.arange(cells) << order) // cells
            mask = omega.cell_mask(cells)
            assert mask.dtype == bool and mask.flags.c_contiguous
            assert np.array_equal(mask, member[np.ix_(*([idx] * dim))])


class TestConstructiveCertificate:
    def test_single_cube_profile_is_diagonal_ratio(self, ordering_k3):
        cert = john_bound_constructive(segment_domain(ordering_k3, 7, 7))
        assert cert.profile_bound == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_full_cube_collapses_to_single_generation(self, ordering_k3):
        cert = john_bound_constructive(segment_domain(ordering_k3, 1, 64))
        assert len(cert.block_levels) == 1 and cert.block_levels[0] == 0
        assert cert.profile_bound == pytest.approx(math.sqrt(2), rel=1e-12)
        assert np.allclose(cert.center, [0.5, 0.5])

    def test_constant_shared_across_random_pairs(self):
        ordering = hilbert_order(2, 4)
        rng = np.random.default_rng(42)
        constants = set()
        for _ in range(500):
            i = int(rng.integers(1, 257))
            j = int(rng.integers(i, 257))
            cert = john_bound_constructive(segment_domain(ordering, i, j))
            constants.add(cert.constant)
            assert cert.profile_bound <= cert.constant + 1e-9
        assert constants == {uniform_john_constant(2)}

    def test_run_length_bounds_exhaustive(self):
        # per curve direction: first-generation extras <= 2(2^d - 2),
        # later generations <= 2^d - 1
        for order in (2, 3, 4):
            ordering = hilbert_order(2, order)
            total = len(ordering)
            for i in range(1, total + 1):
                for j in range(i, total + 1):
                    cert = john_bound_constructive(segment_domain(ordering, i, j))
                    top = cert.block_levels[cert.center_block]
                    for runs in (cert.runs_left, cert.runs_right):
                        for pos, (level, count) in enumerate(runs):
                            if pos == 0 and level == top:
                                assert count <= 2 * (2**2 - 2)
                            else:
                                assert count <= 2**2 - 1

    def test_requires_structured_ordering(self):
        cells = [(i, j) for i in range(2) for j in range(2)]
        row_major = HilbertOrdering(2, 1, cells)
        omega = segment_domain(row_major, 1, 4)
        with pytest.raises(ConstructionError):
            john_bound_constructive(omega)

    def test_walks_run_from_the_center_to_the_end_blocks_inside(self, ordering_k3):
        omega = segment_domain(ordering_k3, 3, 30)
        cert = john_bound_constructive(omega)
        left, right = cert._walks
        assert left[0].tolist() == right[0].tolist() == cert.center.tolist()
        assert left[-1].tolist() == cert.block_centers[0].tolist()
        assert right[-1].tolist() == cert.block_centers[-1].tolist()
        assert omega.contains_points(np.vstack([left, right])).all()


def _cubes(cert):
    """The certificate's blocks as (level, coords) pairs of ints."""
    return [(int(level), tuple(int(v) for v in z))
            for level, z in zip(cert.block_levels, cert.block_coords)]


def _side(cube):
    return 1.0 / (1 << cube[0])


def _block_center(cube):
    """Reference center of one block, from its level and coordinates."""
    level, coords = cube
    return (2 * np.asarray(coords, dtype=np.int64) + 1) / float(1 << (level + 1))


def _box(cube):
    """(lows, highs) of one block as exact dyadic floats."""
    h = _side(cube)
    return [z * h for z in cube[1]], [(z + 1) * h for z in cube[1]]


def _gate(a, b):
    """Reference midpoint of the shared face rectangle of two face-adjacent boxes."""
    alo, ahi = _box(a)
    blo, bhi = _box(b)
    gate = []
    for lo1, hi1, lo2, hi2 in zip(alo, ahi, blo, bhi):
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        if hi < lo:
            raise ConstructionError("blocks are not adjacent")
        gate.append(0.5 * (lo + hi))
    return gate


def _profile_bound_by_pairs(cert):
    """Reference profile bound: one leg and one start/target pair at a time."""
    d = cert.union.dim
    blocks = _cubes(cert)
    bound = math.sqrt(d)
    sides = [
        range(cert.center_block - 1, -1, -1),
        range(cert.center_block + 1, len(blocks)),
    ]
    for side in sides:
        idxs = [cert.center_block, *side]
        pref = [0.0]
        for inner, outer in zip(idxs, idxs[1:]):
            a, b = blocks[outer], blocks[inner]
            ca, cb = _block_center(a), _block_center(b)
            g = np.array(_gate(a, b))
            pref.append(pref[-1] + float(np.linalg.norm(ca - g) + np.linalg.norm(g - cb)))
        for t_pos in range(len(idxs)):
            h_t = _side(blocks[idxs[t_pos]])
            for x_pos in range(t_pos + 1, len(idxs)):
                h_x = _side(blocks[idxs[x_pos]])
                reach = (
                    0.5 * math.sqrt(d) * h_x
                    + (pref[x_pos] - pref[t_pos])
                    + 0.5 * math.sqrt(d) * h_t
                )
                bound = max(bound, 4.0 * reach / h_t)
    return bound


def _bisection_block(starts, nblocks, index):
    """Reference lookup: the largest block whose start is <= index - 1,
    clamped to block 0 from below."""
    pos = index - 1
    lo, hi = 0, nblocks - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if starts[mid] <= pos:
            lo = mid
        else:
            hi = mid - 1
    return lo


class TestBlockLookup:
    def test_matches_bisection_including_clamping(self):
        ordering = hilbert_order(2, 4)
        rng = np.random.default_rng(8)
        for _ in range(200):
            i = int(rng.integers(1, 257))
            j = int(rng.integers(i, 257))
            cert = john_bound_constructive(segment_domain(ordering, i, j))
            nblocks = len(cert.block_levels)
            # the domain, and positions before and after it
            indices = np.arange(max(1, i - 5), min(256, j + 5) + 1)
            indices = np.concatenate([[-3, 0], indices, [300]])
            expected = [_bisection_block(cert._block_starts, nblocks, int(x)) for x in indices]
            assert cert.block_of_index(indices).tolist() == expected
            assert [int(cert.block_of_index(int(x))) for x in indices] == expected
            assert min(expected) >= 0 and max(expected) <= nblocks - 1

    def test_block_centers_are_exact(self, ordering_k3):
        cert = john_bound_constructive(segment_domain(ordering_k3, 3, 50))
        for center, (level, coords) in zip(cert.block_centers, _cubes(cert)):
            exact = [Fraction(2 * z + 1, 1 << (level + 1)) for z in coords]
            assert [Fraction(v) for v in center] == exact

    def test_walks_match_block_by_block_chains(self, ordering_k3):
        # every order-3 domain in d = 2: the same vertices and the same
        # bound, bit for bit, as walking and pairing one block at a time
        total = len(ordering_k3)
        for i in range(1, total + 1):
            for j in range(i, total + 1):
                cert = john_bound_constructive(segment_domain(ordering_k3, i, j))
                for walk, expected in zip(cert._walks, _walks_reference(cert)):
                    assert walk.shape == expected.shape
                    assert walk.tobytes() == expected.tobytes(), (i, j)
                assert cert.profile_bound.hex() == _profile_bound_by_pairs(cert).hex(), (i, j)


def _face_arrays_reference(omega):
    """Reference face runs: one neighbour lookup and one lexsort per direction."""
    side = 1.0 / (1 << omega.level)
    lows, highs = [], []
    for a in range(omega.dim):
        for step in (-1, 1):
            nb = omega.coords.astype(np.int64)
            nb[:, a] += step
            z = omega.coords[omega.positions(nb) < 0].astype(np.int64)
            first = last = z
            if omega.dim > 1:  # runs along the first tangent axis t
                t = 1 if a == 0 else 0
                others = [b for b in range(omega.dim) if b != t]
                z = z[np.lexsort(z.T[[t, *others]])]
                breaks = (np.diff(z[:, others], axis=0) != 0).any(axis=1)
                breaks |= np.diff(z[:, t]) != 1
                starts = np.flatnonzero(np.concatenate([[True], breaks]))
                first = z[starts]
                last = z[np.append(starts[1:], len(z)) - 1]
            lo, hi = first * side, (last + 1) * side
            lo[:, a] = hi[:, a] = (first[:, a] + (1 if step == 1 else 0)) * side
            lows.append(lo)
            highs.append(hi)
    return np.concatenate(lows), np.concatenate(highs)


def _walks_reference(cert):
    """Reference walks out of the center block, one gate at a time."""
    blocks = _cubes(cert)
    walks = []
    for step, stop in ((-1, -1), (1, len(blocks))):
        path = [_block_center(blocks[cert.center_block])]
        for outer in range(cert.center_block + step, stop, step):
            path.append(np.array(_gate(blocks[outer], blocks[outer - step])))
            path.append(_block_center(blocks[outer]))
        walks.append(np.array(path))
    return tuple(walks)


def _profile_bound_reference(cert):
    """Reference profile bound: per-leg norms and an index-list upper triangle."""
    blocks = _cubes(cert)
    half = 0.5 * math.sqrt(cert.union.dim)
    bound = math.sqrt(cert.union.dim)
    sides = (range(cert.center_block, -1, -1), range(cert.center_block, len(blocks)))
    for walk, idxs in zip(_walks_reference(cert), sides):
        legs = [
            float(np.linalg.norm(walk[k + 1] - walk[k]) + np.linalg.norm(walk[k] - walk[k - 1]))
            for k in range(1, len(walk), 2)
        ]
        pref = np.cumsum([0.0, *legs])
        h = np.array([_side(blocks[b]) for b in idxs])
        reach = half * h + (pref - pref[:, None]) + half * h[:, None]
        outer = np.triu_indices(len(h), 1)
        bound = float((4.0 * reach / h[:, None])[outer].max(initial=bound))
    return bound


def _verify_reference(omega, cert, samples, rng):
    """Reference verifier: a block lookup per random batch and one
    (points, curve points, dim) table per block."""
    blocks = _cubes(cert)
    nblocks = len(blocks)
    walk_pts = []
    for W in _walks_reference(cert):
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

    blocks_of_cells = cert.block_of_index(np.arange(omega.i, omega.j + 1))
    xs = [(2 * omega.coords.astype(np.int64) + 1) / float(1 << (omega.level + 1))]
    x_blocks = [blocks_of_cells]
    pair_cost = counts + 1
    total = int(pair_cost[blocks_of_cells].sum())
    while total < samples:
        need = max(64, (samples - total) // (int(pair_cost.mean()) + 1) + 1)
        extra = omega.random_points(rng, need)
        n = 1 << omega.level
        cells = np.minimum((extra * n).astype(int), n - 1)
        eb = cert.block_of_index(omega.ordering.positions(cells) + 1)
        xs.append(extra)
        x_blocks.append(eb)
        total += int(pair_cost[eb].sum())

    X = np.vstack(xs)
    XB = np.concatenate(x_blocks)
    worst = 0.0
    by_block = np.argsort(XB, kind="stable")
    edges = np.searchsorted(XB[by_block], np.arange(nblocks + 1))
    for b in range(nblocks):
        pts_x = X[by_block[edges[b] : edges[b + 1]]]
        if not len(pts_x):
            continue
        side = int(steps[b] > 0)
        P, D = walk_pts[side][: counts[b]], walk_dist[side][: counts[b]]
        diff = pts_x[:, None, :] - P[None, :, :]
        ratios = np.sqrt((diff**2).sum(axis=2)) / D[None, :]
        worst = max(worst, float(ratios.max()))
    heads = np.array([_block_center(cube) for cube in blocks])
    mid = 0.5 * (X + heads[XB])
    dq = omega.boundary_distance(mid)
    worst = max(worst, float((np.linalg.norm(X - mid, axis=1) / dq).max()))
    return worst <= cert.constant * (1 + 1e-9), worst


class _FarFaceRng:
    """A generator whose uniform draws are all the largest float below
    ``high``, so a fill anchor + u in a cell off the grid's low faces rounds
    onto the cell's far face: its float cell is the next one."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.bit_generator = self._rng.bit_generator

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)

    def uniform(self, low, high, size):
        return np.full(size, np.nextafter(high, 0.0))


class TestReferenceParity:
    # a fill on a boundary face may put its first leg's midpoint there too:
    # distance 0, ratio inf, in both verifiers
    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    @pytest.mark.parametrize("i,j", [(1, 64), (5, 40), (17, 30)])
    def test_fills_rounded_into_the_next_cell_match_the_reference(self, ordering_k3, i, j):
        omega = segment_domain(ordering_k3, i, j)
        cells = (omega.random_points(_FarFaceRng(0), 400) * 8).astype(int)
        # the float cells leave the picked cells: off the grid or off the union
        pos = ordering_k3.positions(np.minimum(cells, 7))
        assert (cells == 8).any() or ((pos < i - 1) | (pos > j - 1)).any()
        cert = john_bound_constructive(omega)
        rng, rng_ref = _FarFaceRng(i), _FarFaceRng(i)
        ok, worst = verify_john_certificate(omega, cert, 4000, rng=rng)
        ref_ok, ref_worst = _verify_reference(omega, cert, 4000, rng_ref)
        assert (ok, worst.hex()) == (ref_ok, ref_worst.hex())
        assert rng.bit_generator.state == rng_ref.bit_generator.state


    @pytest.mark.parametrize("dim,order,count", [
        (1, 5, None), (2, 3, None), (2, 5, 200), (3, 3, 200),
    ])
    def test_bits_and_draws_match_the_reference(self, dim, order, count):
        # every domain of the small orderings, sampled ones of the larger:
        # the same face runs, bound, verdict, worst ratio and random draws;
        # every fifth certificate claims too small a constant, so fails
        ordering = hilbert_order(dim, order)
        total = len(ordering)
        if count is None:
            pairs = [(i, j) for i in range(1, total + 1) for j in range(i, total + 1)]
        else:
            draw = np.random.default_rng(10 * dim + order)
            starts = draw.integers(1, total + 1, count)
            pairs = [(int(i), int(draw.integers(i, total + 1))) for i in starts]
        rng, rng_ref = np.random.default_rng(order), np.random.default_rng(order)
        for n, (i, j) in enumerate(pairs):
            omega = segment_domain(ordering, i, j)
            lows, highs = omega._face_arrays
            ref_lows, ref_highs = _face_arrays_reference(omega)
            assert lows.shape == ref_lows.shape, (i, j)
            assert (lows.tobytes(), highs.tobytes()) == (ref_lows.tobytes(), ref_highs.tobytes())
            cert = john_bound_constructive(omega)
            assert cert.profile_bound.hex() == _profile_bound_reference(cert).hex(), (i, j)
            if n % 5 == 4:
                cert.constant = 1.5
            samples = (200, 1000, 4000)[n % 3]
            ok, worst = verify_john_certificate(omega, cert, samples, rng=rng)
            ref_ok, ref_worst = _verify_reference(omega, cert, samples, rng_ref)
            assert (ok, worst.hex()) == (ref_ok, ref_worst.hex()), (i, j)
            assert rng.bit_generator.state == rng_ref.bit_generator.state, (i, j)


class TestVerification:
    def test_single_cube_straight_segment(self, ordering_k3):
        omega = segment_domain(ordering_k3, 11, 11)
        cert = john_bound_constructive(omega)
        ok, worst = verify_john_certificate(omega, cert, 2000)
        assert ok
        assert worst <= math.sqrt(2) + 1e-9

    def test_wrong_constant_fails(self):
        ordering = hilbert_order(2, 1)
        omega = segment_domain(ordering, 1, 3)  # L-shaped
        cert = john_bound_constructive(omega)
        cert.constant = 1.0
        ok, worst = verify_john_certificate(omega, cert, 5000)
        assert not ok and worst > 1.0

    def test_sample_budget_validated(self, ordering_k3):
        omega = segment_domain(ordering_k3, 1, 4)
        cert = john_bound_constructive(omega)
        with pytest.raises(ValueError):
            verify_john_certificate(omega, cert, 0)

    def test_foreign_certificate_rejected(self, ordering_k3):
        inside = segment_domain(ordering_k3, 1, 4)
        outside = segment_domain(ordering_k3, 40, 50)
        cert = john_bound_constructive(outside)
        with pytest.raises(CertificateInvalidError):
            verify_john_certificate(inside, cert, 100)

    def test_exhaustive_order_two(self):
        ordering = hilbert_order(2, 2)
        rng = np.random.default_rng(5)
        for i in range(1, 17):
            for j in range(i, 17):
                omega = segment_domain(ordering, i, j)
                cert = john_bound_constructive(omega)
                ok, _ = verify_john_certificate(omega, cert, 2000, rng=rng)
                assert ok, (i, j)


class TestOscillationCheck:
    def test_constant_function_passes(self, ordering_k3):
        omega = segment_domain(ordering_k3, 2, 9)
        u = GridFunction(2, 16, np.full((17, 17), 2.5))
        holds, osc, bound = oscillation_check(omega, u)
        assert holds and osc == 0.0 and bound == 0.0

    def test_hat_in_one_cube(self, ordering_k3):
        omega = segment_domain(ordering_k3, 5, 12)
        center = (ordering_k3.coords[4] + 0.5) / 8  # cube 5
        r = 1 / 16  # half its side

        def hat(x, y):
            return np.maximum(0.0, r - np.hypot(x - center[0], y - center[1]))

        u = _on_grid(hat, 2, 64)
        holds, osc, bound = oscillation_check(omega, u)
        assert holds
        assert osc == pytest.approx(r, rel=1e-12)  # oscillation = cone height
        assert bound > osc  # slack from the certified constant

    def test_random_boundary_zero_trials(self, ordering_k3):
        rng = np.random.default_rng(17)
        for _ in range(100):
            i = int(rng.integers(1, 65))
            j = int(rng.integers(i, 65))
            omega = segment_domain(ordering_k3, i, j)
            u = GridFunction.random_interior(rng, 2, 16)
            holds, osc, bound = oscillation_check(omega, u)
            assert holds, (i, j, osc, bound)

    def test_dimension_mismatch(self, ordering_k3):
        omega = segment_domain(ordering_k3, 1, 4)
        u = GridFunction(3, 8, np.zeros((9, 9, 9)))
        with pytest.raises(GridMismatchError):
            oscillation_check(omega, u)

    def test_equal_resolution_grid(self, ordering_k3):
        # one grid cell per member cube is the coarsest nested resolution
        omega = segment_domain(ordering_k3, 3, 20)
        rng = np.random.default_rng(2)
        u = GridFunction.random_interior(rng, 2, 8)
        holds, osc, bound = oscillation_check(omega, u)
        assert holds

    def test_three_dimensional_union(self):
        ordering = hilbert_order(3, 2)
        omega = segment_domain(ordering, 5, 40)
        rng = np.random.default_rng(6)
        u = GridFunction.random_interior(rng, 3, 8)
        holds, osc, bound = oscillation_check(omega, u)
        assert holds and bound >= osc


def test_uniform_constant_values():
    assert uniform_john_constant(2) == pytest.approx(4 * (6 + 0.5 + 2.5 * math.sqrt(2)))
    assert uniform_john_constant(3) == pytest.approx(4 * (14 + 0.5 + 2.5 * math.sqrt(3)))
