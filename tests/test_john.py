import dataclasses
import math
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import snum.john as john_mod
from snum.hilbert import HilbertOrdering, hilbert_order
from snum.john import (
    DISTANCE_TABLE_ENTRIES,
    CertificateInvalidError,
    ConstructionError,
    _block_table,
    _members,
    _verify_group,
    _Walks,
    exhaustive_pairs,
    john_bound_constructive,
    oscillation_check,
    random_pairs,
    segment_domain,
    uniform_john_constant,
    verify_john_certificate,
    verify_segment_domains,
)
from snum.spaces import GridFunction, GridMismatchError


def _on_grid(fn, dim, cells_per_side):
    """The grid function with nodal values fn(x_1, ..., x_d) at the grid nodes."""
    axes = [np.arange(cells_per_side + 1) / cells_per_side] * dim
    return GridFunction(dim, cells_per_side, fn(*np.meshgrid(*axes, indexing="ij")))


def _contains(omega, points):
    """Membership of each point in the closed union of the domain."""
    return _members(omega.ordering, points, omega.i - 1, omega.j)


def _table(certs):
    """The block table of certificates, one after another (see
    :func:`_block_table`)."""
    sizes = [len(cert.block_levels) for cert in certs]
    return (np.concatenate([[0], np.cumsum(sizes)]),
            np.concatenate([cert.block_levels for cert in certs]),
            np.concatenate([cert.block_coords for cert in certs]),
            np.array([cert.center_block for cert in certs]))


def _verify(domains, certs, samples):
    """Prove the certificates on their domains as one group."""
    return _verify_group(domains[0].ordering, [omega.i for omega in domains],
                         [omega.j for omega in domains], [cert.constant for cert in certs],
                         samples, table=_table(certs))


def _profile_bound(cert):
    """The certificate's profile bound, as a group of one."""
    return float(_Walks(_table([cert])).profile_bounds()[0])


def _walks_of(cert):
    """The certificate's two walks out of its center block, vertex by
    vertex, rebuilt from the flat segments of a group of one: each block's
    first segment starts where the walk has got to, and its second starts
    at the first's gate."""
    flat = _Walks(_table([cert]))
    steps = flat.steps[flat.outer]
    walks = []
    for side in (steps < 0, steps > 0):
        path = [flat.centers[cert.center_block]]
        for k in np.flatnonzero(side)[np.argsort(np.abs(steps[side]))]:
            assert flat.heads[2 * k].tobytes() == path[-1].tobytes()
            assert flat.heads[2 * k + 1].tobytes() == flat.tails[2 * k].tobytes()
            path += [flat.tails[2 * k], flat.tails[2 * k + 1]]
        walks.append(np.array(path))
    return tuple(walks)


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
        assert len(omega.coords) == len(ordering_k3)

    def test_four_cell_union_connected(self):
        ordering = hilbert_order(2, 2)
        omega = segment_domain(ordering, 2, 5)
        assert len(omega.coords) == 4
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
        assert _contains(omega, pts).tolist() == [True, True, False]

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
        # 32 one-cell-wide stripes of the 512 x 512 grid: 128 runs, so one
        # unchunked (runs, points) table over 300,000 points would hold
        # 38.4 M entries
        cells = [(x, y) for x in range(0, 512, 16) for y in range(512)]
        omega = segment_domain(HilbertOrdering(2, 9, cells), 1, len(cells))
        assert len(omega._face_arrays[0]) == 128
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
        assert _contains(omega, pts).tolist() == expected

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
        assert _profile_bound(cert) == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_full_cube_collapses_to_single_generation(self, ordering_k3):
        cert = john_bound_constructive(segment_domain(ordering_k3, 1, 64))
        assert len(cert.block_levels) == 1 and cert.block_levels[0] == 0
        assert _profile_bound(cert) == pytest.approx(math.sqrt(2), rel=1e-12)
        assert np.allclose(cert.center, [0.5, 0.5])

    def test_constant_shared_across_random_pairs(self, monkeypatch):
        # the constant that every group's proof is handed is the one each
        # group reports, the uniform one, and every profile bound is below it
        ordering = hilbert_order(2, 4)
        prove, handed = john_mod._verify_group, []

        def recorded(ordering, i, j, constant, *args):
            handed.append(constant)
            return prove(ordering, i, j, constant, *args)

        monkeypatch.setattr(john_mod, "_verify_group", recorded)
        blocks = [random_pairs(np.random.default_rng(42), len(ordering), 500)]
        reported = []
        for i, j, constant, results in verify_segment_domains(ordering, blocks, 10_000):
            reported.append(constant)
            assert len(results) == len(i) == len(j)
            assert all(bound <= constant + 1e-9 for _, _, _, bound in results)
        assert handed == reported and set(reported) == {uniform_john_constant(2)}

    def test_run_length_bounds_exhaustive(self):
        # per curve direction: first-generation extras <= 2(2^d - 2),
        # later generations <= 2^d - 1; the same-level runs of every domain
        # at once, from one block table per order
        for order in (2, 3, 4, 5):
            i, j = np.triu_indices(1 << (2 * order))
            block_start, levels, _, center = _block_table(hilbert_order(2, order), i + 1, j + 1)
            owner = np.repeat(np.arange(len(i)), np.diff(block_start))
            steps = np.arange(len(levels)) - (block_start[:-1] + center)[owner]
            rows = np.flatnonzero(steps)  # the blocks out of the center, side by side
            opens = np.ones(len(rows), dtype=bool)  # a new run: a new side or a new level
            opens[1:] = ((np.diff(rows) != 1) | (np.diff(owner[rows]) != 0)
                         | (np.diff(levels[rows]) != 0))
            run = np.cumsum(opens) - 1
            count = np.bincount(run)
            first = np.bincount(run, weights=np.abs(steps[rows]) == 1) > 0  # next to the center
            top = (levels == levels[block_start[:-1] + center][owner])[rows][opens]
            assert len(count) > 0 and (count <= np.where(first & top, 2 * (2**2 - 2), 2**2 - 1)).all()

    def test_requires_structured_ordering(self):
        cells = [(i, j) for i in range(2) for j in range(2)]
        row_major = HilbertOrdering(2, 1, cells)
        omega = segment_domain(row_major, 1, 4)
        with pytest.raises(ConstructionError):
            john_bound_constructive(omega)

    def test_walks_run_from_the_center_to_the_end_blocks_inside(self, ordering_k3):
        omega = segment_domain(ordering_k3, 3, 30)
        cert = john_bound_constructive(omega)
        left, right = _walks_of(cert)
        centers = _Walks(_table([cert])).centers
        assert left[0].tolist() == right[0].tolist() == cert.center.tolist()
        assert left[-1].tolist() == centers[0].tolist()
        assert right[-1].tolist() == centers[-1].tolist()
        assert _contains(omega, np.vstack([left, right])).all()


def _maximal_blocks(lo: int, hi: int, base: int):
    """Reference tiling of the integer interval [lo, hi] by maximal aligned
    base**t blocks, one block at a time: (first position, size) pairs."""
    blocks = []
    pos = lo
    while pos <= hi:
        size = 1
        while pos % (size * base) == 0 and pos + size * base - 1 <= hi:
            size *= base
        blocks.append((pos, size))
        pos += size
    return blocks


def _reference_table(ordering, pairs):
    """Reference block table of the domains i..j, one domain at a time: the
    maximal blocks, and the middle-most of the largest, which are
    consecutive."""
    d, k = ordering.dim, ordering.order
    sizes, levels, coords, centers = [], [], [], []
    for i, j in pairs:
        blocks = _maximal_blocks(i - 1, j - 1, 1 << d)
        t = np.array([(size.bit_length() - 1) // d for _, size in blocks])  # size = (2^d)^t
        starts = np.array([pos for pos, _ in blocks])
        oldest = np.flatnonzero(t == t.max())
        assert oldest[-1] - oldest[0] == len(oldest) - 1
        sizes.append(len(blocks))
        levels.append(k - t)
        coords.append(ordering.coords[starts].astype(np.int64) >> t[:, None])
        centers.append(oldest[0] + (len(oldest) - 1) // 2)
    return (np.concatenate([[0], np.cumsum(sizes)]), np.concatenate(levels),
            np.concatenate(coords), np.array(centers))


def _drawn_pairs(total, seed, count=300):
    """The pairs that ``snum john --pairs count --seed seed`` draws."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        i = int(rng.integers(1, total + 1))
        pairs.append((i, int(rng.integers(i, total + 1))))
    return pairs


class TestBlockTable:
    @pytest.mark.parametrize("dim,order,seed", [
        (1, 5, None), (2, 3, None), (3, 2, None), (2, 4, None), (2, 5, 1), (2, 5, 2), (2, 5, 3),
    ])
    def test_matches_the_maximal_blocks(self, dim, order, seed):
        # every domain of the small orderings and the john-domains pairs
        # of order 5: the same blocks, coordinates and center, bit for bit
        ordering = hilbert_order(dim, order)
        total = len(ordering)
        if seed is None:
            pairs = [(i, j) for i in range(1, total + 1) for j in range(i, total + 1)]
        else:
            pairs = _drawn_pairs(total, seed)
        i, j = np.array(pairs).T
        table = _block_table(ordering, i, j)
        expected = _reference_table(ordering, pairs)
        assert [a.dtype for a in table[1:3]] == [np.int64, np.int64]
        for got, want in zip(table, expected):
            assert got.shape == want.shape and got.tobytes() == want.astype(got.dtype).tobytes()

    def test_a_group_of_one_is_the_certificate(self, ordering_k3):
        cert = john_bound_constructive(segment_domain(ordering_k3, 3, 50))
        for got, want in zip(_table([cert]), _block_table(ordering_k3, [3], [50])):
            assert got.tobytes() == want.tobytes()
        center = cert.block_coords[cert.center_block]
        assert cert.center.tolist() == ((center + 0.5) / (1 << cert.block_levels[cert.center_block])).tolist()


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


def _block_starts(cert):
    """The 0-based position of each block's first cube."""
    omega = cert.union
    sizes = np.left_shift(1, omega.dim * (omega.level - cert.block_levels))
    return omega.i - 1 + np.cumsum(sizes) - sizes


def _block_of_index(cert, index):
    """Maximal-block position of 1-based cube indices (an int or an
    array), clamped to ``[0, len(block_levels) - 1]``: ``searchsorted`` over
    the blocks' first positions."""
    found = np.searchsorted(_block_starts(cert), np.asarray(index) - 1, side="right") - 1
    return np.minimum(np.maximum(found, 0), len(cert.block_levels) - 1)


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
            expected = [_bisection_block(_block_starts(cert), nblocks, int(x)) for x in indices]
            assert _block_of_index(cert, indices).tolist() == expected
            assert [int(_block_of_index(cert, int(x))) for x in indices] == expected
            assert min(expected) >= 0 and max(expected) <= nblocks - 1

    def test_block_centers_are_exact(self, ordering_k3):
        cert = john_bound_constructive(segment_domain(ordering_k3, 3, 50))
        for center, (level, coords) in zip(_Walks(_table([cert])).centers, _cubes(cert)):
            exact = [Fraction(2 * z + 1, 1 << (level + 1)) for z in coords]
            assert [Fraction(v) for v in center] == exact

    def test_walks_match_block_by_block_chains(self, ordering_k3):
        # every order-3 domain in d = 2: the same vertices and the same
        # bound, bit for bit, as walking and pairing one block at a time
        total = len(ordering_k3)
        for i in range(1, total + 1):
            for j in range(i, total + 1):
                cert = john_bound_constructive(segment_domain(ordering_k3, i, j))
                for walk, expected in zip(_walks_of(cert), _walks_reference(cert)):
                    assert walk.shape == expected.shape
                    assert walk.tobytes() == expected.tobytes(), (i, j)
                assert _profile_bound(cert).hex() == _profile_bound_by_pairs(cert).hex(), (i, j)


def _face_arrays_reference(omega):
    """Reference face runs: one neighbour lookup and one lexsort per direction."""
    side = 1.0 / (1 << omega.level)
    lows, highs = [], []
    for a in range(omega.dim):
        for step in (-1, 1):
            nb = omega.coords.astype(np.int64)
            nb[:, a] += step
            pos = omega.ordering.positions(nb)
            z = omega.coords[(pos < omega.i - 1) | (pos >= omega.j)].astype(np.int64)
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


def _random_points(omega, rng, count):
    """Uniform samples from the union and the 0-based position within the
    union of the cube each was drawn in."""
    side = 1.0 / (1 << omega.level)
    picks = rng.integers(0, len(omega.coords), size=count)
    points = omega.coords[picks] * side + rng.uniform(0.0, side, size=(count, omega.dim))
    return points, picks


def _verify_reference(omega, cert, samples, rng):
    """Sampling verifier: start points are the member-cube centers and random
    fills, curve points the walk vertices, the segment midpoints and each
    first leg's midpoint; returns (passes, largest sampled ratio).  Every
    sampled ratio is attained by a real pair, so it bounds the supremum
    from below."""
    blocks = _cubes(cert)
    nblocks = len(blocks)
    walk_pts = []
    for W in _walks_reference(cert):
        Q = np.empty((2 * len(W) - 1, omega.dim))
        Q[0::2] = W
        Q[1::2] = 0.5 * (W[:-1] + W[1:])
        walk_pts.append(Q)
    curve_pts = np.vstack(walk_pts)
    if not _contains(omega, curve_pts).all():
        raise CertificateInvalidError("polyline exits the domain")
    walk_dist = np.split(omega.boundary_distance(curve_pts), [len(walk_pts[0])])
    steps = np.arange(nblocks) - cert.center_block
    counts = 4 * np.abs(steps) + 1

    blocks_of_cells = _block_of_index(cert, np.arange(omega.i, omega.j + 1))
    xs = [(2 * omega.coords.astype(np.int64) + 1) / float(1 << (omega.level + 1))]
    x_blocks = [blocks_of_cells]
    pair_cost = counts + 1
    total = int(pair_cost[blocks_of_cells].sum())
    while total < samples:
        need = max(64, (samples - total) // (int(pair_cost.mean()) + 1) + 1)
        extra, picks = _random_points(omega, rng, need)
        eb = _block_of_index(cert, omega.i + picks)
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


class TestReferenceParity:
    @pytest.mark.parametrize("dim,order,count", [
        (1, 5, None), (2, 3, None), (3, 2, None), (2, 5, 200), (3, 3, 200),
    ])
    def test_bits_and_draws_match_the_reference(self, dim, order, count):
        # every domain of the small orderings, sampled ones of the larger,
        # each set proven as one group:
        # the same face runs and profile bound bit for bit, and a proof that
        # is sound against the sampler's draws: it passes the uniform
        # constant and fails a constant just below the sampled worst ratio;
        # in the plane and in space it fails 1.5 at its first level unless
        # the domain is one square; a budget of one point fails every
        # multi-block domain
        ordering = hilbert_order(dim, order)
        total = len(ordering)
        if count is None:
            pairs = [(i, j) for i in range(1, total + 1) for j in range(i, total + 1)]
        else:
            draw = np.random.default_rng(10 * dim + order)
            starts = draw.integers(1, total + 1, count)
            pairs = [(int(i), int(draw.integers(i, total + 1))) for i in starts]
        rng = np.random.default_rng(order)
        domains = [segment_domain(ordering, i, j) for i, j in pairs]
        certs = [john_bound_constructive(omega) for omega in domains]
        proofs = _verify(domains, certs, 10_000)
        first_level = _verify(domains, certs, 1)
        segments, sampled = [], []
        for n, (omega, cert, proof, short) in enumerate(zip(domains, certs, proofs, first_level)):
            i, j = omega.i, omega.j
            lows, highs = omega._face_arrays
            ref_lows, ref_highs = _face_arrays_reference(omega)
            assert lows.shape == ref_lows.shape, (i, j)
            assert (lows.tobytes(), highs.tobytes()) == (ref_lows.tobytes(), ref_highs.tobytes())
            ok, worst, _, bound = proof
            assert bound.hex() == _profile_bound_reference(cert).hex(), (i, j)
            assert ok and math.sqrt(dim) <= worst <= cert.constant, (i, j)
            sampled_ok, ratio = _verify_reference(omega, cert, (200, 1000, 4000)[n % 3], rng)
            assert sampled_ok, (i, j)
            segments.append(2 * (len(cert.block_levels) - 1))
            assert short[0] == (segments[-1] == 0), (i, j)
            sampled.append(ratio)
        for cert, ratio in zip(certs, sampled):
            cert.constant = ratio * (1 - 1e-6)
        assert not any(ok for ok, *_ in _verify(domains, certs, 10_000))
        if dim > 1:  # on the line, 1.5 can exceed the supremum
            for cert in certs:
                cert.constant = 1.5
            for (i, j), count, (ok, _, early, _) in zip(
                    pairs, segments, _verify(domains, certs, 10_000)):
                assert ok == (count == 0 and dim == 2) and early <= count, (i, j)


def _key(result):
    """A proof result, comparable bit for bit."""
    if isinstance(result, Exception):
        return type(result), str(result)
    ok, worst, evaluated, bound = result
    return ok, worst.hex(), evaluated, bound.hex()


class TestGroups:
    def test_points_in_blocks_inside_the_domain_are_not_looked_up(self):
        # certificates of other domains, overlapping their own or not: the
        # same results as when every walk point is looked up
        ordering, looked_up = hilbert_order(2, 3), hilbert_order(2, 3)
        looked_up.__dict__["is_prefix_nested"] = False  # no block counts as inside
        rng = np.random.default_rng(5)
        i, j = np.sort(rng.integers(1, 65, (2, 400)), axis=0)
        table = _block_table(ordering, *np.sort(rng.integers(1, 65, (2, 400)), axis=0))
        results = [[_key(result) for result in _verify_group(
            o, i, j, uniform_john_constant(2), 2000, table=table)] for o in (ordering, looked_up)]
        assert results[0] == results[1]
        kinds = [row[0] for row in results[0]]
        assert kinds.count(CertificateInvalidError) > 100 and kinds.count(True) > 10

    def test_a_domain_does_not_depend_on_its_group(self, ordering_k3):
        # passing domains, one that runs out of the 14-point budget (2..60
        # needs 20), one that fails at once under a lowered constant, one
        # whose walk leaves its domain, one whose blocks do not touch and
        # one whose largest blocks are not consecutive: each gives the same
        # result in one group as alone
        pairs = [(3, 40), (1, 64), (7, 7), (16, 34), (2, 60), (40, 50), (20, 21), (9, 30)]
        domains = [segment_domain(ordering_k3, i, j) for i, j in pairs]
        certs = [john_bound_constructive(omega) for omega in domains]
        certs[5].constant = 4.0
        certs[6] = john_bound_constructive(segment_domain(ordering_k3, 1, 4))
        broken = dataclasses.replace(certs[3], block_coords=certs[3].block_coords.copy())
        broken.block_coords[-1, 0] += 2
        c = certs[0].center_block  # a finer block, then the center block again
        separated = dataclasses.replace(
            certs[0],
            block_levels=np.insert(certs[0].block_levels, c + 1,
                                   certs[0].block_levels[c] + [1, 0]),
            block_coords=np.insert(certs[0].block_coords, c + 1,
                                   certs[0].block_coords[c] * [[2], [1]], axis=0))
        domains += [domains[3], domains[0]]
        certs += [broken, separated]

        together = [_key(result) for result in _verify(domains, certs, 14)]
        alone = [_key(_verify([omega], [cert], 14)[0]) for omega, cert in zip(domains, certs)]
        assert together == alone
        assert [row[0] for row in together] == [
            True, True, True, True, False, False, CertificateInvalidError, True, ConstructionError,
            ConstructionError]
        assert [str(result) for result in _verify(domains, certs, 14)[-2:]] == [
            "blocks are not adjacent", "largest filled cubes are not consecutive"]
        assert together[4][2] <= 14 and float.fromhex(together[4][1]) <= 4.0
        assert float.fromhex(together[5][1]) > 4.0 * (1 + 1e-9) and together[5][2] < 14

    def test_distance_passes_grow_with_levels_not_domains(self, ordering_k3, monkeypatch):
        # all 2,080 (2, 3) domains: a group measures each bisection level of
        # all its domains in one distance pass, so the passes are at most the
        # groups times the levels of the deepest domain alone, and the groups
        # are few
        calls = {"groups": 0, "passes": 0}
        face_runs, nearest = john_mod._face_runs, john_mod._nearest_faces

        def counted_groups(*args):
            calls["groups"] += 1
            return face_runs(*args)

        def counted_passes(*args):
            calls["passes"] += 1
            return nearest(*args)

        monkeypatch.setattr(john_mod, "_face_runs", counted_groups)
        monkeypatch.setattr(john_mod, "_nearest_faces", counted_passes)
        rows = list(verify_segment_domains(ordering_k3, exhaustive_pairs(64), 10_000))
        i = np.concatenate([group[0] for group in rows])
        j = np.concatenate([group[1] for group in rows])
        assert np.array_equal(np.stack([i, j]), np.array(np.triu_indices(64)) + 1)
        assert all(result[0] for *_, results in rows for result in results)
        groups, passes = calls["groups"], calls["passes"]
        levels = 0
        for k in range(len(i)):  # each domain alone
            calls["passes"] = 0
            next(verify_segment_domains(ordering_k3, [(i[k : k + 1], j[k : k + 1])], 10_000))
            levels = max(levels, calls["passes"])
        assert levels <= passes <= groups * levels and 100 * groups < len(i)

    @pytest.mark.parametrize("limit", [1, 7, 100, 10_000])
    def test_chunks_do_not_depend_on_the_blocks(self, limit):
        # the pairs split at random into blocks, empty ones among them, give
        # the chunks of one block: a chunk may take pairs of the next block
        i, j = random_pairs(np.random.default_rng(limit), 64, 300)
        rng = np.random.default_rng(1)
        cuts = np.sort(rng.integers(0, 301, 40))
        blocks = [(i[a:b], j[a:b]) for a, b in zip([0, *cuts], [*cuts, 300])]
        spans = john_mod._spans(j - i + 1, limit)
        want = [(i[a:b].tolist(), j[a:b].tolist()) for a, b in spans]
        for parts in (blocks, [(i, j)]):
            chunks = john_mod._pair_chunks(parts, limit)
            assert [(a.tolist(), b.tolist()) for a, b in chunks] == want
        assert list(john_mod._pair_chunks([], limit)) == []

    def test_exhaustive_pairs_come_a_row_at_a_time(self):
        blocks = list(exhaustive_pairs(5))
        assert [(i.tolist(), j.tolist()) for i, j in blocks] == [
            ([k] * (6 - k), list(range(k, 6))) for k in range(1, 6)]

    def test_bad_pairs_and_orderings_are_refused(self, ordering_k3):
        for i, j in [(0, 5), (5, 65), (7, 6)]:
            with pytest.raises(IndexError, match="need 1 <= i <= j <= 64"):
                next(verify_segment_domains(ordering_k3, [([1, i], [2, j])], 100))
        row_major = HilbertOrdering(2, 1, [(i, j) for i in range(2) for j in range(2)])
        with pytest.raises(ConstructionError):
            next(verify_segment_domains(row_major, [([1], [4])], 100))

    @pytest.mark.parametrize("dim,order", [(2, 3), (3, 2)])
    def test_full_segment_length_is_twice_the_half_length(self, dim, order):
        # every walk segment is dyadic: the full lengths that the profile
        # bound sums are exactly twice the half-lengths that the proof uses
        ordering = hilbert_order(dim, order)
        total = len(ordering)
        i, j = np.triu_indices(total)
        walks = _Walks(_block_table(ordering, i + 1, j + 1))
        step = walks.tails - walks.heads
        step *= step
        full = np.sqrt(step.sum(axis=1))
        assert len(full) and full.tobytes() == (2.0 * walks.length).tobytes()


class TestVerification:
    def test_single_cube_straight_segment(self, ordering_k3):
        omega = segment_domain(ordering_k3, 11, 11)
        cert = john_bound_constructive(omega)
        # one block has no walk: only the first leg, whose bound is sqrt(d)
        assert verify_john_certificate(omega, cert, 1) == (True, math.sqrt(2), 0)

    def test_wrong_constant_fails(self):
        ordering = hilbert_order(2, 1)
        omega = segment_domain(ordering, 1, 3)  # L-shaped
        cert = john_bound_constructive(omega)
        cert.constant = 1.0
        ok, worst, _ = verify_john_certificate(omega, cert, 5000)
        assert not ok and worst > 1.0

    def test_budget_counts_evaluated_points(self, ordering_k3):
        omega = segment_domain(ordering_k3, 16, 34)
        cert = john_bound_constructive(omega)
        ok, worst, evaluated = verify_john_certificate(omega, cert, 10_000)
        assert ok and evaluated > 4 * (len(cert.block_levels) - 1)  # bisected twice
        assert verify_john_certificate(omega, cert, evaluated) == (True, worst, evaluated)
        ok, short, spent = verify_john_certificate(omega, cert, evaluated - 1)
        assert not ok and short <= worst and spent < evaluated

    def test_violation_is_a_real_pair(self, ordering_k3):
        # the failing ratio is attained at a walk point p, at depth at most 7,
        # by a corner of a block whose curve passes p
        omega = segment_domain(ordering_k3, 5, 40)
        cert = john_bound_constructive(omega)
        cert.constant = 4.0
        ok, worst, evaluated = verify_john_certificate(omega, cert, 10_000)
        assert not ok and worst > 4.0 * (1 + 1e-9) and evaluated < 10_000
        blocks, c = _cubes(cert), cert.center_block
        ratios = []
        for walk, outer in zip(_walks_reference(cert), (blocks[c - 1 :: -1], blocks[c + 1 :])):
            for m, cube in enumerate(outer, 1):  # its curve runs along segments 0 .. 2m - 1
                ends = walk[: 2 * m + 1]
                t = np.linspace(0.0, 1.0, 257)[:, None, None]
                points = (ends[:-1] + t * (ends[1:] - ends[:-1])).reshape(-1, omega.dim)
                corners = np.array(list(product(*zip(*_box(cube)))))
                far = np.linalg.norm(points[:, None] - corners, axis=2).max(axis=1)
                ratios.append(far / omega.boundary_distance(points))
        assert np.isclose(np.concatenate(ratios), worst, rtol=1e-12, atol=0).any()

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
        for i in range(1, 17):
            for j in range(i, 17):
                omega = segment_domain(ordering, i, j)
                cert = john_bound_constructive(omega)
                assert verify_john_certificate(omega, cert, 2000)[0], (i, j)


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
