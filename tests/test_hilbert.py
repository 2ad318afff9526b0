from fractions import Fraction

import numpy as np
import pytest

from snum.hilbert import (
    CapacityError,
    HilbertOrdering,
    check_face_adjacency,
    check_prefix_nesting,
    decode,
    encode,
    hilbert_order,
)


def _index_of(ordering, coords):
    """1-based curve index of the level-``order`` cube with these coordinates."""
    position = int(ordering.positions(np.array(coords)))
    if position < 0:
        raise KeyError(coords)
    return position + 1


class TestGenerator:
    def test_one_dimensional_scan(self):
        ordering = hilbert_order(1, 2)
        assert ordering.coords.tolist() == [[0], [1], [2], [3]]

    def test_first_order_u_shape(self):
        ordering = hilbert_order(2, 1)
        assert ordering.coords.tolist() == [[0, 0], [0, 1], [1, 1], [1, 0]]

    def test_pinned_curves(self):
        assert hilbert_order(2, 2).coords.tolist() == [
            [0, 0], [1, 0], [1, 1], [0, 1], [0, 2], [0, 3], [1, 3], [1, 2],
            [2, 2], [2, 3], [3, 3], [3, 2], [3, 1], [2, 1], [2, 0], [3, 0],
        ]
        assert hilbert_order(3, 1).coords.tolist() == [
            [0, 0, 0], [0, 0, 1], [0, 1, 1], [0, 1, 0],
            [1, 1, 0], [1, 1, 1], [1, 0, 1], [1, 0, 0],
        ]

    @pytest.mark.parametrize("dim,order", [(2, 3), (3, 3), (2, 6)])
    def test_structural_checks(self, dim, order):
        ordering = hilbert_order(dim, order)
        assert check_face_adjacency(ordering) == (True, None)
        assert check_prefix_nesting(ordering) == (True, None)

    @pytest.mark.parametrize("dim,orders", [(2, range(1, 7)), (3, range(1, 5))])
    def test_bijectivity_exhaustive(self, dim, orders):
        # decode/encode round trip in both directions: every position, every cell
        for order in orders:
            side, total = 1 << order, 1 << (dim * order)
            coords = decode(np.arange(total), dim, order)
            assert coords.shape == (total, dim)
            assert coords.min() == 0 and coords.max() == side - 1
            assert np.array_equal(encode(coords, dim, order), np.arange(total))
            assert len({tuple(row) for row in coords.tolist()}) == total
            grid = np.stack(np.unravel_index(np.arange(total), (side,) * dim), axis=-1)
            assert np.array_equal(decode(encode(grid, dim, order), dim, order), grid)

    @pytest.mark.parametrize("dim,order", [
        (dim, order) for dim in range(1, 7) for order in range(1, 16 // dim + 1)
    ] + [(10, 1), (8, 2)])
    def test_refined_table_equals_decode(self, dim, order):
        ordering = hilbert_order(dim, order)
        expected = decode(np.arange(1 << (dim * order)), dim, order)
        assert ordering.coords.dtype == np.int32
        assert np.array_equal(ordering.coords, expected)
        assert np.array_equal(ordering.positions(expected), np.arange(len(expected)))

    def test_refinement_makes_no_wide_temporary(self):
        import tracemalloc

        # 2^20 cubes in 10 dimensions: an int64 (N, d) offsets table alone
        # would be twice the final coords and inverse together, and a copy of
        # the built table would add the coords once more; the build peaks at
        # 1.34 times them
        tracemalloc.start()
        try:
            ordering = hilbert_order(10, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * (ordering.coords.nbytes + ordering.inverse.nbytes)

    def test_scalar_positions(self):
        # one position decodes to one coordinate row, and encodes back
        for i in (0, 5, 63):
            row = decode(i, 2, 3)
            assert row.shape == (2,)
            assert int(encode(row, 2, 3)) == i

    def test_index_lookup_roundtrip(self):
        ordering = hilbert_order(2, 3)
        for idx in (1, 17, 64):
            assert _index_of(ordering, ordering.coords[idx - 1]) == idx

    def test_positions_match_index_of(self):
        ordering = hilbert_order(2, 3)
        cells = np.array([[0, 0], [7, 7], [-1, 0], [8, 3]])
        pos = ordering.positions(cells)
        assert pos[0] == _index_of(ordering, (0, 0)) - 1
        assert pos[1] == _index_of(ordering, (7, 7)) - 1
        assert pos[2] == pos[3] == -1  # off the grid
        assert np.array_equal(ordering.positions(ordering.coords), np.arange(64))

    def test_self_similarity_exact(self):
        # blocks of 2^d consecutive cubes trace the coarser curve exactly,
        # for every order up to (2, 6) and (3, 4)
        for dim, order in [(2, k) for k in range(2, 7)] + [(3, k) for k in range(2, 5)]:
            fine = hilbert_order(dim, order)
            coarse = hilbert_order(dim, order - 1)
            block = 1 << dim
            parents = (fine.coords >> 1)[::block]
            assert np.array_equal(parents, coarse.coords)
            assert np.array_equal(  # each block is one parent cube
                (fine.coords >> 1).reshape(len(coarse), block, dim),
                np.broadcast_to(parents[:, None, :], (len(coarse), block, dim)),
            )

    def test_consecutive_center_distance(self):
        # locality: consecutive cube centers are exactly one side length apart
        ordering = hilbert_order(2, 4)
        side = Fraction(1, 16)
        centers = [[Fraction(2 * z + 1, 32) for z in row] for row in ordering.coords.tolist()]
        for a, b in zip(centers, centers[1:]):
            delta = [abs(x - y) for x, y in zip(a, b)]
            assert sorted(delta) == [0, side]

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            hilbert_order(2, 12)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            hilbert_order(0, 1)
        with pytest.raises(ValueError):
            hilbert_order(2, 0)

    def test_representation_is_two_arrays(self):
        ordering = hilbert_order(3, 2)
        assert ordering.coords.shape == (64, 3)
        assert ordering.inverse.shape == (64,)
        with pytest.raises(ValueError):
            ordering.coords[0, 0] = 1  # read-only: the inverse must stay valid


def _row_major(order):
    side = 1 << order
    return [(i, j) for i in range(side) for j in range(side)]


def _boustrophedon(order):
    side = 1 << order
    cells = []
    for x in range(side):
        ys = range(side) if x % 2 == 0 else range(side - 1, -1, -1)
        cells.extend((x, y) for y in ys)
    return cells


def _adjacency_by_loop(cells):
    """Reference: the pairwise loop over the cube list."""
    for i in range(len(cells) - 1):
        if sum(abs(x - y) for x, y in zip(cells[i], cells[i + 1])) != 1:
            return False, i + 1
    return True, None


def _nesting_by_loop(cells, order):
    """Reference: per level, a set of the ancestors already left behind."""
    for level in range(order):
        seen, current = set(), None
        for cell in cells:
            anc = tuple(z >> (order - level) for z in cell)
            if anc == current:
                continue
            if anc in seen:
                return False, (level, anc)
            seen.add(anc)
            current = anc
    return True, None


class TestCheckers:
    def test_match_loop_reference_on_corrupted_orderings(self):
        rng = np.random.default_rng(11)
        violations = 0
        for trial in range(600):
            dim, order = [(1, 4), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)][trial % 6]
            coords = hilbert_order(dim, order).coords.copy()
            if trial % 3 == 0:  # swap two rows
                i, j = rng.integers(0, len(coords), 2)
                coords[[i, j]] = coords[[j, i]]
            elif trial % 3 == 1:  # reverse a stretch
                i, j = sorted(rng.integers(0, len(coords), 2))
                coords[i : j + 1] = coords[i : j + 1][::-1].copy()
            else:
                coords = coords[rng.permutation(len(coords))]
            ordering = HilbertOrdering(dim, order, coords)
            cells = [tuple(row) for row in coords.tolist()]
            assert check_face_adjacency(ordering) == _adjacency_by_loop(cells)
            expected = _nesting_by_loop(cells, order)
            assert check_prefix_nesting(ordering) == expected
            violations += not expected[0]
        assert violations > 100  # the corruptions do exercise the failure path

    def test_first_bad_index_of_a_swapped_pair(self):
        # rows 1000 and 3000 of the (3, 5) table swapped: the pair that
        # enters the first moved row is the first violation
        coords = hilbert_order(3, 5).coords.copy()
        coords[[999, 2999]] = coords[[2999, 999]]
        steps = [sum(abs(int(a) - int(b)) for a, b in zip(u, v)) for u, v in zip(coords, coords[1:])]
        expected = next(k for k, step in enumerate(steps, 1) if step != 1)
        assert expected == 999
        assert check_face_adjacency(HilbertOrdering(3, 5, coords)) == (False, expected)

    def test_row_major_fails_adjacency(self):
        ordering = HilbertOrdering(2, 1, _row_major(1))
        ok, where = check_face_adjacency(ordering)
        assert not ok and where == 2  # wrap from (0,1) to (1,0)

    def test_boustrophedon_fails_nesting(self):
        # serpentine rows at order 2: columns x = 0, 1 run up through quadrant
        # (0,0) into (0,1) and back down into (0,0), the first re-entry
        ordering = HilbertOrdering(2, 2, _boustrophedon(2))
        assert check_face_adjacency(ordering)[0]
        assert check_prefix_nesting(ordering) == (False, (1, (0, 0)))

    def test_first_nesting_violation_at_level_two(self):
        # level-1 quadrants are visited one at a time (nested at level 1), but
        # the first quadrant's order-2 cells are row-major inside it, so a
        # level-2 cube is left and re-entered
        fine = hilbert_order(2, 3).coords
        quadrant = fine[:16]
        inner = sorted(range(16), key=lambda p: tuple(quadrant[p].tolist()))
        coords = np.vstack([quadrant[inner], fine[16:]])
        ordering = HilbertOrdering(2, 3, coords)
        assert check_prefix_nesting(ordering) == (False, (2, (0, 0)))
        ok, where = check_face_adjacency(ordering)
        assert not ok and where == 4  # row wrap from (0,3) to (1,0)

    def test_order_one_nesting_trivially_true(self):
        ordering = HilbertOrdering(2, 1, _row_major(1))  # not even face-adjacent
        assert check_prefix_nesting(ordering)[0]

    def test_duplicate_cube_rejected(self):
        with pytest.raises(ValueError, match="numbering is not injective"):
            HilbertOrdering(2, 1, [(0, 0)] * 4)

    def test_callers_array_is_neither_aliased_nor_frozen(self):
        cells = np.array(_row_major(1), dtype=np.int32)
        ordering = HilbertOrdering(2, 1, cells)
        assert cells.flags.writeable and not ordering.coords.flags.writeable
        assert not np.shares_memory(cells, ordering.coords)
        cells[0] = (1, 1)
        assert ordering.coords[0].tolist() == [0, 0]

    def test_malformed_coords_rejected(self):
        for coords in ([(0, 0), (0, 2)], [(0, 0), (0, -1)], [(0, 0, 0)]):
            with pytest.raises(ValueError):
                HilbertOrdering(2, 1, coords)

    def test_prefix_nesting_makes_no_wide_copy(self):
        import tracemalloc

        # 2^21 cubes: an int64 (N, 3) copy of the ancestors alone is 48 MB
        ordering = hilbert_order(3, 7)
        tracemalloc.start()
        try:
            verdict = check_prefix_nesting(ordering)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict == (True, None)
        assert peak <= 60 * 2**20
