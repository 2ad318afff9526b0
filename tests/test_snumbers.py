import dataclasses
import functools
import hashlib
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import snum.snumbers as snumbers_mod
from snum.cli import main as cli_main
from snum.hilbert import hilbert_order
from snum.john import segment_domain
from snum.snumbers import (
    Adversary,
    DegenerateBasisError,
    SNumberBound,
    Subspace,
    approximation_upper,
    bernstein_lower,
    bernstein_upper_1d,
    bernstein_upper_ddim,
    constants_adversary,
    gelfand_lower_adversary,
    gelfand_lower_bound,
    hat_functions,
    hat_subspace_ratio_closed_form,
    hat_subspace_ratio_grid,
    isomorphism_lower_1d,
    isomorphism_lower_ddim,
    kolmogorov_lower_witness,
    kolmogorov_upper_1d,
    midrange_deviation,
    random_grid_subspace,
    random_mean_zero_step_subspace,
    shipped_adversaries,
    snumber_axiom_suite,
    two_sided_spike,
    ZigzagResult,
    zigzag_find,
)
from snum.spaces import (
    CellField,
    GridFunction,
    GridMismatchError,
    LorentzParams,
    StepFunction1D,
    from_json_dict,
    grid_gradient_lorentz_norm,
    lorentz_norm,
    random_step_function,
    step_to_json_dict,
)
from snum.volterra import dipole, mean_zero_project, volterra_apply


def _dual_value(B, y):
    """The exact value y . lam of ``_chebyshev_certificate``'s weights, after
    checking them independently: >= 0, summing to 1, B^T lam = 0 exactly."""
    points, signs, weights = snumbers_mod._chebyshev_certificate(B, y)
    assert len(points) == len(set(points.tolist())) == len(weights)
    assert all(w >= 0 for w in weights) and sum(weights) == 1
    lam = [w * int(s) for w, s in zip(weights, signs)]
    for col in B.T:
        assert sum(l * Fraction(b) for l, b in zip(lam, col[points].tolist())) == 0
    return sum(l * Fraction(v) for l, v in zip(lam, y[points].tolist()))


def _chebyshev_problems(rng):
    """Small (B, y) Chebyshev problems: generic, y in the span, a duplicated
    and an all-zero column, and symmetric data with tied violations."""
    npts, m = int(rng.integers(6, 40)), int(rng.integers(0, 5))
    ts = np.sort(rng.uniform(-1, 1, npts))
    B = rng.standard_normal((npts, m))
    yield B, rng.standard_normal(npts)
    yield B, B @ rng.standard_normal(m)
    B2 = np.hstack([B, B[:, :1], np.zeros((npts, 1))])
    yield B2, rng.standard_normal(npts)
    sym = np.concatenate([-ts[::-1], ts])
    yield np.vander(sym, m + 1, increasing=True)[:, ::2], np.abs(sym) ** rng.integers(1, 4)


def _full_table(matrix, sets, alt):
    """The unpruned reference of ``_best_of_sets``: (values, coefficients)
    of every set, inf for a singular set, from ``_interpolants`` and then
    ``_sup_values`` on the nonsingular sets."""
    coeffs, good = snumbers_mod._interpolants(matrix, sets, alt)
    vals = np.full(len(sets), np.inf)
    vals[good] = snumbers_mod._sup_values(matrix, coeffs[good])
    return vals, coeffs


class TestSNumberBound:
    def test_interval_validated(self):
        with pytest.raises(ValueError):
            SNumberBound(kind="gelfand", n=1, lower=0.6, upper=0.5)
        with pytest.raises(ValueError):
            SNumberBound(kind="weyl", n=1)
        with pytest.raises(ValueError):
            SNumberBound(kind="gelfand", n=0)

    def test_json_round(self):
        b = SNumberBound(kind="isomorphism", n=2, lower=Fraction(1, 4))
        d = b.to_json_dict()
        assert d["lower"] == "1/4" and d["upper"] is None


class TestSubspace:
    def test_degenerate_basis_rejected(self):
        f = StepFunction1D.from_cells([1.0, -1.0])
        with pytest.raises(DegenerateBasisError):
            Subspace([f, f * 2.0])
        u = GridFunction.random_interior(np.random.default_rng(1), 2, 8)
        with pytest.raises(DegenerateBasisError):
            Subspace([u, u.combine([u], [1.0, 1.0])])

    def test_refinement_table_matches_pairwise_integrals(self):
        # the stacked table reproduces the pairwise exact integrals
        rng = np.random.default_rng(4)
        basis = [random_step_function(rng, max_pieces=9, exact=exact)
                 for exact in (True, False, True)]
        subspace = Subspace(basis)
        table = subspace.piece_values * subspace.piece_lengths
        pairwise = [[float(f.integrate_against(g)) for g in basis] for f in basis]
        assert subspace.piece_lengths.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(table @ subspace.piece_values.T, pairwise, rtol=1e-12, atol=1e-14)

    def test_dim(self):
        rng = np.random.default_rng(0)
        assert random_mean_zero_step_subspace(rng, 3, 16).dim == 3

    def test_grid_gram_in_blocks_keeps_rank_verdicts(self):
        rng = np.random.default_rng(5)
        basis = [GridFunction.random_interior(rng, 2, 8) for _ in range(3)]
        assert Subspace(basis).dim == 3
        with pytest.raises(DegenerateBasisError):
            Subspace([*basis, basis[0].combine(basis[1:], [1.0, -2.0, 0.5])])
        with pytest.raises(ValueError):  # unequal grids have no common Gram
            Subspace([basis[0], GridFunction.random_interior(rng, 2, 6)])

    def test_grid_gram_never_stacks_the_basis(self):
        import tracemalloc

        # 64 hats on 65^3 nodes: one stacked (64, 65^3) table would be 140.6 MB
        hats = hat_functions(3, 4, 64)
        dense = len(hats) * 65**3 * 8
        tracemalloc.start()
        try:
            Subspace(hats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= dense / 256

    def test_grid_gram_over_overlapping_boxes(self):
        # m = 5 leaves 12 pairs of overlapping trimmed boxes; the Gram's rank
        # verdicts match the dense Gram's, with overlaps and without
        hats = hat_functions(2, 5, 80)
        dense = np.stack([h.nodal_values.ravel() for h in hats])
        assert np.linalg.matrix_rank(dense @ dense.T) == len(hats) == Subspace(hats).dim
        with pytest.raises(DegenerateBasisError):
            Subspace([*hats, hats[0].combine(hats[1:2], [1.0, -1.0])])
        with pytest.raises(DegenerateBasisError):
            Subspace([hats[3], hats[3]])


class TestZigzag:
    def test_single_direction(self):
        # one alternation point: g = -e / e(t*) with t* the max of |e|
        e = np.array([0.5, -2.0, 1.0])[:, None]
        res = zigzag_find(e, eps=1e-9)
        assert res.status == "certified"
        assert res.witness.indices.tolist() == [1]
        assert res.witness.sup_norm_value == pytest.approx(1.0, abs=1e-12)
        assert res.witness.element[1] == pytest.approx(-1.0, abs=1e-12)

    def test_two_dim_matches_brute_force(self):
        ts = np.linspace(0.0, 1.0, 16)
        matrix = np.stack([np.cos(math.pi * ts), np.cos(2 * math.pi * ts)], axis=1)
        res = zigzag_find(matrix, eps=1e-6)
        assert res.status == "certified"

        # independent oracle: try every index pair directly
        best = math.inf
        for a, b in itertools.combinations(range(16), 2):
            sub = matrix[[a, b]]
            if abs(np.linalg.det(sub)) < 1e-12:
                continue
            c = np.linalg.solve(sub, [-1.0, 1.0])
            best = min(best, np.abs(matrix @ c).max())
        assert res.value == pytest.approx(best, rel=1e-12)
        assert res.value <= 1 + 1e-6

    def test_existence_on_random_spans(self):
        rng = np.random.default_rng(8)
        for n in (2, 3, 4):
            matrix = rng.standard_normal((40, n))
            res = zigzag_find(matrix, eps=0.05, rng=rng)
            assert res.status == "certified"
            w = res.witness
            alt = [(-1.0) ** (j + 1) for j in range(n)]
            assert np.allclose(w.element[list(w.indices)], alt, atol=1e-8)
            assert w.sup_norm_value <= 1.05

    def test_dimension_exceeds_points(self):
        with pytest.raises(ValueError):
            zigzag_find(np.ones((2, 3)))

    def test_index_set_builders_match_the_python_loops(self):
        cands = np.array([0, 2, 3, 5, 7, 8, 11])
        T = np.array([2, 5, 8])
        outside = cands[~np.isin(cands, T)]
        loop = [sorted((set(T.tolist()) - {t}) | {i}) for t in T.tolist() for i in outside.tolist()]
        assert snumbers_mod._exchanges(T, outside).tolist() == loop

    @pytest.mark.parametrize("m,n,lengths", [
        (239, 1, [239]),
        (500, 2, [100_000, 24_750]),
        (239, 2, [28_441]),
        (90, 3, [100_000, 17_480]),
        (42, 4, [100_000, 11_930]),
        (30, 5, [100_000, 42_506]),
        (7, 7, [1]),
        # n = 64 hats on 65 rows: the prefixes come from range(m - 2) only
        (65, 64, [65]),
    ])
    def test_combination_chunks_match_itertools(self, m, n, lengths):
        # sparse candidates: the chunks hold candidates, not positions
        cands = 3 * np.arange(m) + 1
        chunks = list(snumbers_mod._combination_chunks(cands, n))
        assert [len(c) for c in chunks] == lengths
        assert all(c.dtype == np.intp and c.shape[1] == n for c in chunks)
        assert np.concatenate(chunks).tolist() == [
            list(c) for c in itertools.combinations(cands.tolist(), n)
        ]

    def test_combination_chunks_stream(self, monkeypatch):
        import tracemalloc

        # the C(30, 5) escalation sweep in 1000-set chunks holds a few chunks
        # and groups at each level of its prefix recursion (5 -> 3 -> 1), not
        # its 142,506 sets (5.7 MB)
        monkeypatch.setattr(snumbers_mod, "CHUNK_SETS", 1000)
        total = math.comb(30, 5)
        tracemalloc.start()
        try:
            count = sum(len(c) for c in snumbers_mod._combination_chunks(np.arange(30), 5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == total
        assert peak <= 12 * 1000 * 5 * 8 < total * 5 * 8 / 10

    def test_one_set_when_n_is_the_candidate_count(self):
        # n = m has one subset, the candidates themselves: no prefix
        # recursion, whose ~n/2 levels (each with the m-row pair table) once
        # ended in a RecursionError at n = m = 1,024
        import inspect
        import sys

        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 40)
        try:
            chunks = list(snumbers_mod._combination_chunks(np.arange(120), 120))
        finally:
            sys.setrecursionlimit(limit)
        assert [c.tolist() for c in chunks] == [[list(range(120))]]

    # indices, value, status and evaluations recorded when index sets were
    # still tuples and lists: the array search walks the same path.  The
    # kicks and escalation paths were recorded again when each descent step
    # began taking peak-row exchanges first; the n = 2 case was recorded
    # before the pair sweep kept only the hull rows
    @pytest.mark.parametrize("matrix,seed,eps,indices,value,status,evaluations", [
        # exhaustive pairs: C(300, 2) = 44850 sets
        (np.random.default_rng(5).standard_normal((300, 2)), 0, 0.05,
         [92, 251], 1.0, "certified", 44850),
        # exhaustive: C(40, 3) = 9880 sets
        (np.random.default_rng(1).standard_normal((40, 3)), 0, 0.05,
         [8, 11, 31], 1.0, "certified", 9880),
        # exhaustive with tripled rows: the singular sets are never candidates
        (np.repeat(np.random.default_rng(3).standard_normal((8, 3)), 3, axis=0), 3, 0.05,
         [0, 6, 9], 0.9999999999999999, "certified", 2024),
        # local search: C(24, 7) > EXHAUSTIVE_LIMIT, one kick off the incumbent
        (np.random.default_rng(0).standard_normal((24, 7)), 0, 0.05,
         [6, 8, 9, 10, 13, 15, 23], 1.0000000000000002, "certified", 581),
        # eps = 0 is missed by one ulp, so the C(30, 5) = 142506 sets are swept
        (np.random.default_rng(0).standard_normal((30, 5)), 6, 0.0,
         [1, 4, 13, 15, 19], 1.0000000000000002, "inconclusive", 1025 + 142506),
    ], ids=["exhaustive-pairs", "exhaustive", "exhaustive-lp", "kicks", "escalation"])
    def test_search_path_pinned(self, matrix, seed, eps, indices, value, status, evaluations):
        res = zigzag_find(matrix, eps=eps, rng=np.random.default_rng(seed))
        assert res.witness.indices.tolist() == indices
        assert (res.value, res.status, res.evaluations) == (value, status, evaluations)

    def test_unsolvable_first_start_does_not_stop_the_search(self):
        # all rows but four planted ones are copies of one small row, so every
        # start with two copies is infeasible (value inf, no incumbent); the
        # search used to crash kicking off the missing incumbent
        rng = np.random.default_rng(0)
        matrix = np.tile(0.01 * rng.standard_normal(4), (45, 1))
        planted = np.sort(rng.choice(45, 4, replace=False))
        matrix[planted] = rng.standard_normal((4, 4))
        res = zigzag_find(matrix, rng=np.random.default_rng(0))
        assert res.status == "certified"
        assert res.witness.indices.tolist() == planted.tolist()
        assert res.evaluations > math.comb(45, 4)  # the escalation sweep ran

    def test_disjoint_supports_start_from_the_column_peaks(self):
        # tents on disjoint row blocks: nine one-row columns, then one tent on
        # 30 rows peaking at row 21.  Every start misses two or more columns,
        # so all its exchanges are singular and no start finds an incumbent;
        # one peak row per column interpolates the signs with value 1
        matrix = np.zeros((39, 10))
        matrix[np.arange(9), np.arange(9)] = 1.0
        matrix[9:, 9] = 1.0 - np.abs(np.arange(30) - 12) / 20
        res = zigzag_find(matrix, rng=np.random.default_rng(0))
        assert math.comb(39, 10) > snumbers_mod.ESCALATION_LIMIT  # local search only
        assert res.status == "certified" and res.value == 1.0
        assert res.witness.indices.tolist() == [*range(9), 21]

    def test_one_batch_keeps_one_value_table(self):
        import tracemalloc

        # n = 2 on 241 rows: all 28,920 pairs scored set by set stay below
        # one (241, 28920) value table
        matrix = np.random.default_rng(2).standard_normal((241, 2))
        sets = np.array(list(itertools.combinations(range(241), 2)))
        alt = snumbers_mod._alternation_target(2)
        tracemalloc.start()
        try:
            vals, _ = _full_table(matrix, sets, alt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(vals).all()
        assert peak <= vals.size * 241 * 8

    def test_a_value_does_not_depend_on_its_batch(self):
        # BLAS rounds a column of a wide product by where it sits; each set's
        # value is its own product, alone or as one of 515 sets
        rng = np.random.default_rng(11)
        for n in (5, 64):
            matrix = rng.standard_normal((512, n))
            coeffs = rng.standard_normal((515, n))
            alone = [snumbers_mod._sup_values(matrix, c[None])[0] for c in coeffs]
            assert snumbers_mod._sup_values(matrix, coeffs).tobytes() == np.array(alone).tobytes()

    def test_minimax_blocks_match_one_block(self, monkeypatch):
        # a 100 000-set chunk stays one block up to n = 6
        assert snumbers_mod.BLOCK_ENTRIES // 6**2 >= 100_000
        # tripled rows make singular sets
        rng = np.random.default_rng(3)
        matrix = np.repeat(rng.standard_normal((9, 4)), 3, axis=0)
        sets = np.array(list(itertools.combinations(range(27), 4)))
        results = []
        for entries in (10**9, 16 * 7):  # one block, then blocks of 7 sets
            monkeypatch.setattr(snumbers_mod, "BLOCK_ENTRIES", entries)
            vals, coeffs = _full_table(matrix, sets, np.array([-1.0, 1, -1, 1]))
            results.append((vals.tobytes(), coeffs.tobytes()))
        assert results[0] == results[1]
        assert np.isinf(vals).any() and np.isfinite(vals).any()


def _hat_like(rng, rows, n, noise=0.0):
    """One unit entry per row, ``rows // n`` rows per column, plus noise."""
    matrix = np.zeros((rows, n))
    matrix[np.arange(rows), np.arange(rows) * n // rows] = 1.0
    return matrix + noise * rng.standard_normal((rows, n))


def _descent_cases():
    rng = np.random.default_rng(12)
    near_singular = np.repeat(rng.standard_normal((21, 8)), 2, axis=0)
    near_singular += 1e-9 * rng.standard_normal(near_singular.shape)
    return [
        pytest.param(rng.standard_normal((36, 8)), id="dense-8"),
        pytest.param(rng.standard_normal((44, 12)), id="dense-12"),
        pytest.param(rng.standard_normal((34, 16)), id="dense-16"),
        # most exchanges put two rows of one column together: singular
        pytest.param(_hat_like(rng, 48, 12), id="hat-like"),
        # small integers: many exchanges tie exactly
        pytest.param(rng.integers(-2, 3, (40, 9)).astype(float), id="ties"),
        # pairs of nearly equal rows: ill-conditioned incumbents
        pytest.param(near_singular, id="near-singular"),
    ]


class TestFloorStop:
    def test_start_at_the_floor_makes_no_exchange(self, monkeypatch):
        # one unit row per column in the first start: its interpolant is
        # +-1 everywhere, value 1, and the search ends without a sweep
        batches = []

        def recorded(*args):
            batches.append(args)
            return best_of_sets(*args)

        best_of_sets = snumbers_mod._best_of_sets
        monkeypatch.setattr(snumbers_mod, "_best_of_sets", recorded)
        matrix = _hat_like(np.random.default_rng(0), 48, 12)
        res = zigzag_find(matrix, rng=np.random.default_rng(0))
        assert math.comb(48, 12) > snumbers_mod.ESCALATION_LIMIT  # local search only
        assert (res.value, res.status, res.evaluations) == (1.0, "certified", 0)
        assert [len(args[1]) for args in batches] == [1]
        assert (np.abs(matrix[res.witness.indices]).argmax(axis=1) == np.arange(12)).all()

    @pytest.mark.parametrize("matrix", _descent_cases())
    def test_skipped_sweeps_cannot_improve(self, monkeypatch, matrix):
        # every set that scores at most FLOOR ends its descent; the sweep it
        # skips finds no exchange below its value - 1e-12
        at_floor = []

        def recorded(scaled, sets, alt, bound):
            result = best_of_sets(scaled, sets, alt, bound)
            if result.value <= snumbers_mod.FLOOR:
                at_floor.append((scaled, result.set, alt, result.value))
            return result

        best_of_sets = snumbers_mod._best_of_sets
        monkeypatch.setattr(snumbers_mod, "_best_of_sets", recorded)
        res = zigzag_find(matrix, rng=np.random.default_rng(3))
        monkeypatch.undo()
        assert res.witness is not None and at_floor
        for scaled, T, alt, val in at_floor:
            cands = np.flatnonzero(np.abs(scaled.matrix).max(axis=1) > 1e-12)
            sets = snumbers_mod._exchanges(T, np.setdiff1d(cands, T))
            assert best_of_sets(scaled, sets, alt, val - 1e-12).set is None


class TestPeakRows:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_witnesses_are_full_sweep_optima(self, monkeypatch, n):
        # a descent takes peak-row exchanges first, yet every local-search
        # witness is at the floor or has no improving one-index exchange.
        # Dense Gaussian spans reach the floor, so the floor is lowered out
        # of reach, with four starts and two kicks each: every descent must
        # end at a full sweep.  eps = 1 keeps the escalation sweep out
        P = 100 if n == 3 else 50
        assert math.comb(P, n) > snumbers_mod.EXHAUSTIVE_LIMIT
        monkeypatch.setattr(snumbers_mod, "FLOOR", 0.0)
        monkeypatch.setattr(snumbers_mod, "RESTARTS", 4)
        monkeypatch.setattr(snumbers_mod, "KICKS", 2)
        for seed in range(3):
            matrix = np.random.default_rng(seed).standard_normal((P, n))
            res = zigzag_find(matrix, eps=1.0, rng=np.random.default_rng(seed))
            assert res.descents == 12 and not (res.escalated or res.floor_reached)
            assert res.full_sweeps >= res.descents and res.peak_sweeps > res.full_sweeps
            scaled = matrix / np.abs(matrix).max(axis=0)
            T = res.witness.indices
            sets = snumbers_mod._exchanges(T, np.setdiff1d(np.arange(P), T))
            alt = snumbers_mod._alternation_target(n)
            rows = snumbers_mod._Rows(scaled)
            assert snumbers_mod._best_of_sets(rows, sets, alt, res.value - 1e-12).set is None

    def test_counters_account_for_every_evaluation(self):
        # 24 rows, n = 7: a peak sweep scores 7 * PEAK_ROWS sets, a full one 7 * 17
        matrix = np.random.default_rng(0).standard_normal((24, 7))
        res = zigzag_find(matrix, rng=np.random.default_rng(0))
        assert res.evaluations == 7 * (snumbers_mod.PEAK_ROWS * res.peak_sweeps + 17 * res.full_sweeps)
        assert res.full_sweeps < res.peak_sweeps and res.floor_reached and not res.escalated
        assert res.descents == 2  # the first start and one kick
        # the escalation: eps = 0 is missed by one ulp
        res = zigzag_find(np.random.default_rng(0).standard_normal((30, 5)), eps=0.0,
                          rng=np.random.default_rng(6))
        assert res.escalated and res.floor_reached
        assert res.evaluations == 5 * (snumbers_mod.PEAK_ROWS * res.peak_sweeps
                                       + 25 * res.full_sweeps) + math.comb(30, 5)


def _full_pair_batches(batches):
    """The batch of every pair of candidate rows, one for each matrix of the
    recorded n = 2 sweep batches: what ``_best_pair`` stands for."""
    full = {}
    for matrix, _, alt, bound in batches:
        if id(matrix) not in full:
            cands = np.flatnonzero(np.abs(matrix).max(axis=1) > 1e-12)
            full[id(matrix)] = (matrix, next(snumbers_mod._combination_chunks(cands, 2)), alt, bound)
    return list(full.values())


def _assert_table_winner(matrix, sets, alt, bound=np.inf):
    """The pruned step picks the full table's first argmin below ``bound``:
    same index, set, coefficient bytes and value bits."""
    vals, coeffs = _full_table(matrix, sets, alt)
    val, best, c, rescored, _ = snumbers_mod._best_of_sets(snumbers_mod._Rows(matrix), sets, alt, bound)
    k = int(np.argmin(vals))
    assert 0 <= rescored <= len(sets)
    if not vals[k] < bound:
        assert (val, best, c) == (math.inf, None, None)
        return rescored
    assert np.flatnonzero((sets == best).all(axis=1)).tolist() == [k]
    assert c.tobytes() == coeffs[k].tobytes()
    assert val == vals[k]
    return rescored


class TestPrunedScoring:
    def test_interval_batches_match_the_full_table(self, monkeypatch):
        # the full n = 2 batches of the 20 seed-1 interval searches
        from snum.cli import RunConfig, _volterra_task

        batches = []

        def recorded(rows, *args):
            batches.append((rows.matrix, *args))
            return pruned(rows, *args)

        pruned = snumbers_mod._best_of_sets
        monkeypatch.setattr(snumbers_mod, "_best_of_sets", recorded)
        config = RunConfig(command="volterra", grid=240, seed=1, subspaces=20)
        _volterra_task(config, "bernstein", 2)
        monkeypatch.undo()
        batches = _full_pair_batches(batches)
        assert len(batches) == 20
        for matrix, sets, alt, bound in batches:
            assert sets.shape == (math.comb(239, 2), 2) and bound == np.inf
            assert _assert_table_winner(matrix, sets, alt, bound) <= 3

    def test_symmetric_chebyshev_incumbents(self):
        # 40 symmetric incumbents on a Chebyshev basis: mirrored exchanges
        # tie in exact arithmetic and differ by rounding, in either order
        P, n = 31, 8
        t = np.linspace(-1.0, 1.0, P)
        matrix = np.stack([np.cos(k * np.arccos(t)) for k in range(n)], axis=1)
        alt = snumbers_mod._alternation_target(n)
        rng = np.random.default_rng(0)
        for _ in range(40):
            half = np.sort(rng.choice(P // 2, n // 2, replace=False))
            T = np.sort(np.concatenate([half, P - 1 - half]))
            outside = np.setdiff1d(np.arange(P), T)
            _assert_table_winner(matrix, snumbers_mod._exchanges(T, outside), alt)

    def test_first_of_exact_ties_wins(self):
        # entries in {-1, 0, 1}: dyadic coefficients and exact values, so the
        # least value is shared by many sets and the first one must win
        matrix = np.random.default_rng(4).integers(-1, 2, (20, 3)).astype(float)
        sets = np.array(list(itertools.combinations(range(20), 3)))
        alt = snumbers_mod._alternation_target(3)
        vals, _ = _full_table(matrix, sets, alt)
        assert (vals == vals.min()).sum() > 10
        _assert_table_winner(matrix, sets, alt)

    def test_no_winner_at_or_above_the_bound(self):
        matrix = np.random.default_rng(9).standard_normal((60, 3))
        sets = np.array(list(itertools.combinations(range(60), 3)))
        alt = snumbers_mod._alternation_target(3)
        vals, _ = _full_table(matrix, sets, alt)
        least = vals.min()
        for bound in (least, least / 2):
            assert _assert_table_winner(matrix, sets, alt, bound) <= len(sets) // 100
            assert snumbers_mod._best_of_sets(snumbers_mod._Rows(matrix), sets, alt, bound)[1] is None
        _assert_table_winner(matrix, sets, alt, np.nextafter(least, np.inf))

    def test_exhaustive_search_rescores_few_sets(self):
        subspace = random_mean_zero_step_subspace(np.random.default_rng(1), 2, 240)
        matrix = snumbers_mod._volterra_node_matrix(subspace)
        assert matrix.shape == (241, 2)
        res = zigzag_find(matrix)
        # the two end nodes are zero: C(239, 2) sets, each counted once
        assert res.evaluations == math.comb(239, 2)
        assert 1 <= res.rescored <= 0.01 * res.evaluations

    def test_exhaustive_search_keeps_no_value_table(self):
        import tracemalloc

        matrix = np.random.default_rng(2).standard_normal((241, 2))
        tracemalloc.start()
        try:
            res = zigzag_find(matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.evaluations == math.comb(241, 2)
        assert peak <= 0.25 * 241 * math.comb(239, 2) * 8

    def test_one_wide_sweep_stays_small(self):
        import tracemalloc

        # n = 64 on 192 rows: one unblocked (8192, 64, 64) stack is 256 MiB
        rng = np.random.default_rng(0)
        matrix = _hat_like(rng, 192, 64, noise=0.05)
        matrix /= np.abs(matrix).max(axis=0)
        T = np.arange(64) * 3 + rng.integers(0, 3, 64)
        sets = snumbers_mod._exchanges(T, np.setdiff1d(np.arange(192), T))
        alt = snumbers_mod._alternation_target(64)
        assert len(sets) == 8192
        tracemalloc.start()
        try:
            val, best, *_ = snumbers_mod._best_of_sets(snumbers_mod._Rows(matrix), sets, alt, np.inf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert best is not None and math.isfinite(val)
        assert peak <= 3 * snumbers_mod.BLOCK_ENTRIES * 8


@functools.lru_cache(maxsize=None)
def _interval_searches(n):
    """The ``_best_of_sets`` batches and the search results of the bernstein
    rows of the seed-1 interval command at ``n``."""
    from snum.cli import RunConfig, _volterra_task

    batches, results = [], []
    best_of_sets, zigzag = snumbers_mod._best_of_sets, snumbers_mod.zigzag_find

    def recorded_batch(rows, *args):
        batches.append((rows.matrix, *args))
        return best_of_sets(rows, *args)

    def recorded_search(*args, **kwargs):
        results.append(zigzag(*args, **kwargs))
        return results[-1]

    snumbers_mod._best_of_sets, snumbers_mod.zigzag_find = recorded_batch, recorded_search
    try:
        _volterra_task(RunConfig(command="volterra", grid=240, seed=1, subspaces=20), "bernstein", n)
    finally:
        snumbers_mod._best_of_sets, snumbers_mod.zigzag_find = best_of_sets, zigzag
    return batches, results


def _unstaged_best(matrix, sets, alt, bound):
    """The exact path alone: LAPACK on every set, then the row-sampled prune."""
    coeffs, good = snumbers_mod._interpolants(matrix, sets, alt)
    vals = np.full(len(sets), np.inf)
    idx = np.flatnonzero(good)
    lower, least = snumbers_mod._row_lower_bounds(snumbers_mod._Rows(matrix), coeffs[idx])
    idx = idx[lower <= min(bound, least)]
    vals[idx] = snumbers_mod._sup_values(matrix, coeffs[idx])
    k = int(np.argmin(vals))
    if not vals[k] < bound:
        return math.inf, None, None
    return float(vals[k]), sets[k], coeffs[k]


def _assert_stage_parity(matrix, sets, alt, bound=np.inf):
    """``_best_of_sets`` gives the value bits, set and coefficient bytes of
    the unstaged composition; returns the number of sets solved."""
    picks = []
    for result in (_unstaged_best(matrix, sets, alt, bound),
                   snumbers_mod._best_of_sets(snumbers_mod._Rows(matrix), sets, alt, bound)):
        val, best, c = result[:3]
        picks.append((np.float64(val).tobytes(), best is None or best.tolist(),
                      c is None or c.tobytes()))
    assert picks[0] == picks[1]
    return result.solved


def _lapack_verdicts(matrix, sets):
    """The singularity verdicts of ``_interpolants``."""
    return snumbers_mod._interpolants(matrix, sets, np.ones(sets.shape[1]))[1]


def _threshold_family(scale):
    """Rows (1, 0) and (1, delta) for deltas within 40 ulps of 1e-12, scaled:
    each pair (0, i) has |det| over its Hadamard bound at 1e-12 +- ulps."""
    deltas = 1e-12 * (1 + np.arange(-40, 41) * 2.0**-52)
    matrix = scale * np.vstack([[1.0, 0.0], np.stack([np.ones_like(deltas), deltas], axis=1)])
    return matrix, np.array([[0, i] for i in range(1, len(matrix))])


def _small_rows_family(rng, eps, count=100):
    """Triples of rows, two of them eps times the third, whose determinant is
    zero but for its rounding; on these raw rows LU eliminates the small rows
    with multipliers of about 1, so LAPACK's determinant errs by about u / eps
    times the Hadamard product, and on the unit rows by about u."""
    rows = []
    for _ in range(count):
        big = np.array([eps, 1.0, 1.0]) * rng.uniform(0.5, 1, 3)
        one = eps * np.array([0.7, *rng.standard_normal(2)])
        two = eps * np.array([0.5, rng.standard_normal(), 0.0])
        cof = np.cross(big, one)
        two[2] = -(cof[0] * two[0] + cof[1] * two[1]) / cof[2]
        rows += [big, one, two]
    return np.array(rows), np.arange(3 * count).reshape(-1, 3)


class TestClosedFormStage:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_interval_batches_match_the_unstaged_path(self, n):
        batches, _ = _interval_searches(n)
        if n == 2:
            batches = _full_pair_batches(batches)
        # the 20 exhaustive sweeps at n = 1 and 2; the n = 3 descent starts,
        # peak-row and full exchange sweeps
        assert len(batches) == (20 if n < 3 else 180)
        solved = [_assert_stage_parity(*args) for args in batches]
        assert sum(solved) <= 0.15 * sum(len(args[1]) for args in batches)

    def test_search_solves_few_sets(self):
        _, results = _interval_searches(2)
        for res in results:
            assert res.evaluations == math.comb(239, 2)
            assert 1 <= res.solved <= 0.15 * res.evaluations

    def test_symmetric_chebyshev_incumbents(self):
        # mirrored exchanges tie in exact arithmetic; at n = 8 no stage runs
        P = 31
        t = np.linspace(-1.0, 1.0, P)
        rng = np.random.default_rng(0)
        for n in (2, 3, 8):
            matrix = np.stack([np.cos(k * np.arccos(t)) for k in range(n)], axis=1)
            alt = snumbers_mod._alternation_target(n)
            for _ in range(40):
                half = rng.choice(P // 2, n // 2, replace=False)
                T = np.sort(np.concatenate([half, P - 1 - half, np.arange(P // 2, P // 2 + n % 2)]))
                outside = np.setdiff1d(np.arange(P), T)
                _assert_stage_parity(matrix, snumbers_mod._exchanges(T, outside), alt)

    def test_exact_ties_and_bounds(self):
        matrix = np.random.default_rng(4).integers(-1, 2, (20, 3)).astype(float)
        sets = np.array(list(itertools.combinations(range(20), 3)))
        alt = snumbers_mod._alternation_target(3)
        vals, _ = _full_table(matrix, sets, alt)
        least = vals.min()
        assert (vals == least).sum() > 10
        for bound in (np.inf, np.nextafter(least, np.inf), least, least / 2):
            _assert_stage_parity(matrix, sets, alt, bound)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cofactors_are_the_adjugate(self, n):
        # C^T = det(A) inv(A), for each matrix A[:, :, i]
        A = np.random.default_rng(n).standard_normal((n, n, 50))
        adjugate = snumbers_mod._cofactors(A).transpose(2, 1, 0)
        stack = A.transpose(2, 0, 1)
        expected = np.linalg.det(stack)[:, None, None] * np.linalg.inv(stack)
        assert np.allclose(adjugate, expected, rtol=1e-12, atol=1e-12)

    def test_closed_form_verdicts_are_lapacks(self):
        # outside the band the closed form gives LAPACK's verdict; the
        # threshold families make a band-free verdict wrong
        rng = np.random.default_rng(6)
        families = [_threshold_family(scale) for scale in (1.0, 3.7, 1e-3, 123.4)]
        families += [_small_rows_family(rng, eps) for eps in (1e-6, 1e-8, 1e-10)]
        duplicated = np.repeat(rng.standard_normal((8, 3)), 3, axis=0)
        families.append((duplicated, np.array(list(itertools.combinations(range(24), 3)))))
        generic = rng.standard_normal((30, 2)) * np.logspace(-6, 0, 30)[:, None]
        families.append((generic, np.array(list(itertools.combinations(range(30), 2)))))
        for matrix, sets in families:
            stage = snumbers_mod._CramerSets(snumbers_mod._Rows(matrix), sets)
            lapack = _lapack_verdicts(matrix, sets)
            assert (stage.good <= lapack).all() and (stage.bad <= ~lapack).all()
        # the threshold families straddle SINGULAR_DET: LAPACK calls some of
        # their sets nonsingular and others singular
        for matrix, sets in families[:4]:
            assert 0 < _lapack_verdicts(matrix, sets).sum() < len(sets)

    def test_verdicts_do_not_depend_on_row_scale(self):
        # singular triples with two small rows, then every row rescaled by a
        # power of two: each stage calls every triple singular at both scales
        rng = np.random.default_rng(8)
        for eps in (1e-6, 1e-8, 1e-10):
            matrix, sets = _small_rows_family(rng, eps)
            scaled = matrix * 2.0 ** rng.integers(-40, 41, (len(matrix), 1))
            verdicts = [_lapack_verdicts(m, sets) for m in (matrix, scaled)]
            assert verdicts[0].tolist() == verdicts[1].tolist()
            assert not verdicts[0].any()
            for m in (matrix, scaled):
                assert not snumbers_mod._CramerSets(snumbers_mod._Rows(m), sets).good.any()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_slack_covers_lapack_coefficients(self, seed):
        # on every row, the Cramer lower bound stays below the exact path's
        # lower bound from LAPACK's coefficients, up to condition numbers 1e12
        rng = np.random.default_rng(seed)
        for n in (1, 2, 3):
            matrix = rng.standard_normal((40, n))
            matrix[20:] = matrix[:20] + 10.0 ** rng.uniform(-12, 0, (20, 1)) * rng.standard_normal((20, n))
            sets = np.sort(rng.choice(40, (400, n)), axis=1)
            sets = sets[(np.diff(sets, axis=1) > 0).all(axis=1)]
            alt = snumbers_mod._alternation_target(n)
            stage = snumbers_mod._CramerSets(snumbers_mod._Rows(matrix), sets)
            coeffs, slack = stage.interpolants(alt)
            exact, ok = snumbers_mod._interpolants(matrix, sets[stage.good], alt)
            assert ok.all()
            base = 2 * snumbers_mod.SCREEN_TOL * n * 2.0**-53 / (1 - n * 2.0**-53)
            exact_slack = base * np.abs(matrix).max() * np.abs(exact).sum(axis=1)
            assert (np.abs(matrix @ coeffs.T) - slack <= np.abs(matrix @ exact.T) - exact_slack).all()

    def test_adversarial_batches(self):
        rng = np.random.default_rng(7)
        for scale in (1.0, 1e-3):
            matrix, _ = _threshold_family(scale)
            matrix = np.vstack([matrix, rng.standard_normal((10, 2))])
            sets = np.array(list(itertools.combinations(range(len(matrix)), 2)))
            _assert_stage_parity(matrix, sets, snumbers_mod._alternation_target(2))
        for eps in (1e-6, 1e-10):
            matrix, sets = _small_rows_family(rng, eps)
            sets = np.vstack([sets, np.sort(rng.choice(len(matrix), (50, 3), replace=True), axis=1)])
            _assert_stage_parity(matrix, sets, snumbers_mod._alternation_target(3))


def _counted_dets(monkeypatch):
    """Record the number of stacks of each ``_unit_row_dets`` call."""
    calls, dets = [], snumbers_mod._unit_row_dets

    def counted(stack):
        calls.append(len(stack))
        return dets(stack)

    monkeypatch.setattr(snumbers_mod, "_unit_row_dets", counted)
    return calls


class TestOnePassScoring:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_good_sets_skip_lapacks_determinant(self, monkeypatch, n):
        # generic rows: the closed form calls every set good, so LAPACK only
        # solves the kept sets and never takes a determinant
        rng = np.random.default_rng(n)
        matrix = rng.standard_normal((30, n))
        sets = np.array(list(itertools.combinations(range(30), n)))
        alt = snumbers_mod._alternation_target(n)
        rows = snumbers_mod._Rows(matrix)
        assert snumbers_mod._CramerSets(rows, sets).good.all()
        calls = _counted_dets(monkeypatch)
        result = snumbers_mod._best_of_sets(rows, sets, alt, np.inf)
        assert result.solved >= 1 and calls == []
        monkeypatch.undo()
        _assert_stage_parity(matrix, sets, alt)

    @pytest.mark.parametrize("scale", [1.0, 3.7, 1e-3, 123.4])
    def test_band_sets_keep_lapacks_verdict(self, monkeypatch, scale):
        # the threshold family's pairs lie in the band, among good pairs of
        # generic rows: LAPACK takes the determinant of exactly the sets the
        # closed form does not call good, and its verdicts and coefficients
        # are those it gives with no verdict handed in
        matrix, _ = _threshold_family(scale)
        matrix = np.vstack([matrix, np.random.default_rng(2).standard_normal((10, 2))])
        sets = np.array(list(itertools.combinations(range(len(matrix)), 2)))
        alt = snumbers_mod._alternation_target(2)
        stage = snumbers_mod._CramerSets(snumbers_mod._Rows(matrix), sets)
        assert stage.band.sum() >= 81 and stage.good.any()
        coeffs, good = snumbers_mod._interpolants(matrix, sets, alt)
        assert 0 < good[stage.band].sum() < stage.band.sum()
        calls = _counted_dets(monkeypatch)
        handed, verdicts = snumbers_mod._interpolants(matrix, sets, alt, stage.good)
        assert calls == [int((~stage.good).sum())]
        assert verdicts.tolist() == good.tolist() and handed.tobytes() == coeffs.tobytes()
        monkeypatch.undo()
        _assert_stage_parity(matrix, sets, alt)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("over", [0, 1], ids=["at-cap", "over-cap"])
    def test_full_row_cap(self, monkeypatch, n, over):
        # 64 rows: a batch of FULL_ROW_ENTRIES / 64 sets is bounded on every
        # row, one more set is sampled on the peak rows; either way the
        # winner is the full table's
        P = 64
        m = snumbers_mod.FULL_ROW_ENTRIES // P + over
        rng = np.random.default_rng(n)
        matrix = rng.standard_normal((P, n))
        sets = np.unique(np.sort(rng.choice(P, (3 * m, n)), axis=1), axis=0)
        sets = sets[(np.diff(sets, axis=1) > 0).all(axis=1)]
        sets = sets[np.sort(rng.choice(len(sets), m, replace=False))]
        alt = snumbers_mod._alternation_target(n)
        paths, sample = [], snumbers_mod._peak_sample

        def recorded(rows, coeffs):
            result = sample(rows, coeffs)
            paths.append((len(coeffs), result[0] is None))
            return result

        monkeypatch.setattr(snumbers_mod, "_peak_sample", recorded)
        _assert_table_winner(matrix, sets, alt)
        # the first sample is of every set: the closed form's up to n = 3,
        # the exact path's beyond
        assert paths[0] == (m, not over)
        _assert_stage_parity(matrix, sets, alt)

    def test_interval_command_counts(self):
        # the seed-1 interval command: no more sets solved or rescored than
        # with the peak-row sample and the capped closed form, and every
        # evaluation still counted
        results = [res for n in (1, 2, 3) for res in _interval_searches(n)[1]]
        assert len(results) == 60
        assert sum(res.evaluations for res in results) == 585_864
        assert sum(res.solved for res in results) <= 1_777
        assert sum(res.rescored for res in results) <= 206


@functools.lru_cache(maxsize=None)
def _interval_node_matrices(seed):
    """The node matrices of the n = 2 bernstein rows of the interval command
    at ``seed``."""
    from snum.cli import RunConfig, _volterra_task

    matrices, zigzag = [], snumbers_mod.zigzag_find

    def recorded(matrix, *args, **kwargs):
        matrices.append(matrix)
        return zigzag(matrix, *args, **kwargs)

    snumbers_mod.zigzag_find = recorded
    try:
        _volterra_task(RunConfig(command="volterra", grid=240, seed=seed, subspaces=20), "bernstein", 2)
    finally:
        snumbers_mod.zigzag_find = zigzag
    return matrices


def _full_pair_sweep(rows, cands, alt):
    """Every pair of ``cands`` in one batch: the sweep without the hull-row prune."""
    return snumbers_mod._best_of_sets(rows, next(snumbers_mod._combination_chunks(cands, 2)), alt, math.inf)


def _scaled(matrix):
    """The matrix and candidate rows that ``zigzag_find`` sweeps."""
    scaled = matrix / np.abs(matrix).max(axis=0)
    return scaled, np.flatnonzero(np.abs(scaled).max(axis=1) > 1e-12)


def _assert_pair_parity(monkeypatch, matrix):
    """The hull-row sweep and the full batch pick the same pair with the same
    value bits and coefficient bytes, and ``zigzag_find`` reports the same
    witness, value, status and evaluations with either."""
    alt = snumbers_mod._alternation_target(2)
    scaled, cands = _scaled(matrix)
    picks = []
    for sweep in (snumbers_mod._best_pair, _full_pair_sweep):
        val, best, c = sweep(snumbers_mod._Rows(scaled), cands, alt)[:3]
        picks.append((np.float64(val).tobytes(), best is None or best.tolist(), c is None or c.tobytes()))
    assert picks[0] == picks[1]
    summaries = []
    for sweep in (snumbers_mod._best_pair, _full_pair_sweep):
        monkeypatch.setattr(snumbers_mod, "_best_pair", sweep)
        res = zigzag_find(matrix)
        w = res.witness
        summaries.append((w is None or (w.indices.tolist(), w.coefficients.tobytes()),
                          np.float64(res.value).tobytes(), res.status, res.evaluations))
    monkeypatch.undo()
    assert summaries[0] == summaries[1]
    assert summaries[0][3] == math.comb(len(_scaled(matrix)[1]), 2)


def _edge_rows(seed, k=8):
    """k rows on the edge from (1, y) to -(x, 1) of the symmetric hull, the
    same rows one ulp closer to 0, ten interior rows, then the two vertex
    rows.  In exact arithmetic an edge row paired with (x, 1) scores 1, the
    least value; rounding puts those values and the rows' gauges on either
    side of 1."""
    rng = np.random.default_rng(seed)
    a = np.array([1.0, rng.uniform(-0.5, 0.5)])
    b = np.array([rng.uniform(-0.5, 0.5), 1.0])
    t = rng.uniform(0, 1, (k, 1))
    on = t * a - (1 - t) * b
    return np.vstack([on, np.nextafter(on, 0), 0.5 * rng.uniform(-1, 1, (10, 2)), a, b])


def _pair_cases():
    rng = np.random.default_rng(21)
    theta = np.linspace(0.0, math.pi, 241, endpoint=False)
    return [
        pytest.param(rng.standard_normal((241, 2)), id="gaussian"),
        # every row is a vertex of the hull
        pytest.param(np.stack([np.cos(theta), np.sin(theta)], axis=1), id="circle"),
        # entries in {-1, 0, 1}: exact ties on the hull edges
        pytest.param(rng.integers(-1, 2, (60, 2)).astype(float), id="ties"),
        *[pytest.param(_edge_rows(seed), id=f"edge-{seed}") for seed in range(12)],
        pytest.param(np.repeat(rng.standard_normal((40, 2)), 3, axis=0), id="duplicated"),
        # every pair is singular: no hull, no winner
        pytest.param(np.outer(rng.standard_normal(50), [1.0, -2.0]), id="rank-one"),
    ]


def _recorded_pair_batches(monkeypatch, matrix):
    """The ``_best_of_sets`` batches of ``zigzag_find(matrix)`` and its result."""
    batches, best_of_sets = [], snumbers_mod._best_of_sets

    def recorded(*args):
        batches.append(args)
        return best_of_sets(*args)

    monkeypatch.setattr(snumbers_mod, "_best_of_sets", recorded)
    res = zigzag_find(matrix)
    monkeypatch.setattr(snumbers_mod, "_best_of_sets", best_of_sets)
    return batches, res


class TestHullPairs:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_interval_searches_match_the_full_batch(self, monkeypatch, seed):
        matrices = _interval_node_matrices(seed)
        assert len(matrices) == 20
        for matrix in matrices:
            _assert_pair_parity(monkeypatch, matrix)

    @pytest.mark.parametrize("matrix", _pair_cases())
    def test_pruned_sweep_matches_the_full_batch(self, monkeypatch, matrix):
        _assert_pair_parity(monkeypatch, matrix)

    def test_interval_sweeps_score_few_pairs(self, monkeypatch):
        # the hull holds a few of the 239 rows: one small batch per search
        for matrix in _interval_node_matrices(1):
            batches, res = _recorded_pair_batches(monkeypatch, matrix)
            assert len(batches) == 1 and len(batches[0][1]) <= 55
            assert res.evaluations == math.comb(239, 2)

    @pytest.mark.parametrize("matrix", [
        # the edge from (1, 0) to (1, 1e-8) has condition number about 2e8
        np.vstack([[1.0, 0.0], [1.0, 1e-8], [0.0, 1.0],
                   0.5 * np.random.default_rng(0).uniform(-1, 1, (30, 2))]),
        # a rank-one hull has singular edges
        np.outer(np.random.default_rng(1).standard_normal(30), [1.0, -2.0]),
    ], ids=["ill-conditioned", "rank-one"])
    def test_ill_conditioned_edges_keep_every_row(self, monkeypatch, matrix):
        assert snumbers_mod._gauge_bounds(*_scaled(matrix)) is None
        batches, res = _recorded_pair_batches(monkeypatch, matrix)
        assert [len(args[1]) for args in batches] == [math.comb(len(_scaled(matrix)[1]), 2)]
        assert res.evaluations == len(batches[0][1])

    def test_rows_that_reach_the_first_value_are_paired_again(self, monkeypatch):
        # every delta widened by 0.05: rows of gauge 0.94-0.96 in the square
        # hull of (1, 0) and (0, 1) fall outside the first batch, yet some of
        # their bounds (1 - delta) / s reach its value 1
        rng = np.random.default_rng(3)
        g, x = rng.uniform(0.94, 0.96, 60), rng.uniform(-1, 1, 60)
        matrix = np.vstack([np.stack([g * x, g * (1 - np.abs(x)) * rng.choice([-1, 1], 60)], axis=1),
                            [[1.0, 0.0], [0.0, 1.0]]])
        gauge_bounds = snumbers_mod._gauge_bounds

        def widened(*args):
            s, delta = gauge_bounds(*args)
            return s, delta + 0.05

        monkeypatch.setattr(snumbers_mod, "_gauge_bounds", widened)
        batches, res = _recorded_pair_batches(monkeypatch, matrix)
        assert len(batches) == 2 and res.value == 1.0
        scaled, cands = _scaled(matrix)
        s, delta = widened(scaled, cands)
        lower = dict(zip(cands.tolist(), ((1 - delta) / s).tolist()))
        kept = {tuple(pair) for args in batches for pair in args[1].tolist()}
        assert len(kept) < math.comb(len(cands), 2)
        for pair in itertools.combinations(cands.tolist(), 2):
            assert pair in kept or max(lower[pair[0]], lower[pair[1]]) > res.value
        _assert_pair_parity(monkeypatch, matrix)


class TestIsomorphism1d:
    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_exact_value(self, n):
        bound = isomorphism_lower_1d(n, 2 * n if n != 3 else 24)
        assert bound.lower == Fraction(1, 2 * n)
        assert bound.mode == "exact"
        assert bound.witness["factorization"]["identity_checked"]

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            isomorphism_lower_1d(2, 6)

    def test_blocks_are_unit_vectors_under_evaluation(self):
        bound = isomorphism_lower_1d(3, 24)
        blocks = [
            from_json_dict(b)
            for b in bound.witness["factorization"]["building_blocks"]
        ]
        points = [Fraction(2 * k - 1, 6) for k in (1, 2, 3)]
        for k, g in enumerate(blocks):
            curve = volterra_apply(g)
            values = [curve(t) for t in points]
            expected = [Fraction(int(j == k)) for j in range(3)]
            assert values == expected  # identity on basis vectors, bit for bit


class TestBernstein1d:
    def test_upper_random_three_dim(self):
        rng = np.random.default_rng(21)
        subspace = random_mean_zero_step_subspace(rng, 3, 64)
        bound = bernstein_upper_1d(subspace, eps=0.05, rng=rng)
        assert bound.status == "certified"
        assert float(bound.upper) <= 1.05 / 6 + 1e-12
        assert bound.witness["mass"] >= 6 - 1e-9

    def test_upper_single_dim_matches_operator_norm_scale(self):
        rng = np.random.default_rng(22)
        subspace = random_mean_zero_step_subspace(rng, 1, 16)
        bound = bernstein_upper_1d(subspace, eps=0.05, rng=rng)
        assert float(bound.upper) <= 1.05 * 0.5 + 1e-12

    def test_block_subspace_ratio_quarter(self):
        iso = isomorphism_lower_1d(2, 8)
        blocks = [
            from_json_dict(b) for b in iso.witness["factorization"]["building_blocks"]
        ]
        subspace = Subspace(blocks)
        low = bernstein_lower(subspace)
        assert low.status == "certified"
        assert float(low.lower) == pytest.approx(0.25, abs=1e-12)

        # the alternation route lands on the same value: the dual-route check
        up = bernstein_upper_1d(subspace, eps=0.05)
        assert up.witness["ratio_bound_for_subspace"] == pytest.approx(0.25, abs=1e-12)

        # independent oracle: dense sweep of the coefficient circle
        thetas = np.linspace(0, math.pi, 20_001)
        best = math.inf
        for th in thetas:
            f = blocks[0] * math.cos(th) + blocks[1] * math.sin(th)
            best = min(best, float(volterra_apply(f).sup_norm() / f.l1_norm()))
        assert best == pytest.approx(0.25, abs=1e-6)

    def test_single_dipole_ratio_half(self):
        f = dipole(0, 1, 4)
        low = bernstein_lower(Subspace([f]))
        assert float(low.lower) == pytest.approx(0.5, abs=1e-12)

    def test_lower_respects_isomorphism_chain(self):
        iso = isomorphism_lower_1d(2, 8)
        blocks = [
            from_json_dict(b) for b in iso.witness["factorization"]["building_blocks"]
        ]
        low = bernstein_lower(Subspace(blocks))
        assert float(low.lower) >= float(iso.lower) - 1e-12

    def test_node_matrix_is_running_sum_of_table(self):
        # bitwise the per-node evaluation of the antiderivatives, C-ordered
        rng = np.random.default_rng(6)
        for n, cells in [(1, 8), (3, 64), (5, 240)]:
            subspace = random_mean_zero_step_subspace(rng, n, cells)
            matrix = snumbers_mod._volterra_node_matrix(subspace)
            assert matrix.flags.c_contiguous
            curves = [volterra_apply(f) for f in subspace.basis]
            expected = np.array(
                [[float(curve(t)) for curve in curves] for t in subspace.breakpoints]
            )
            assert matrix.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n,cells", [(1, 8), (2, 7), (3, 64), (4, 239), (5, 240)])
    def test_table_path_matches_step_function_algebra(self, n, cells, monkeypatch):
        # bit for bit what the same draws give through StepFunction1D objects
        seed = [n, cells]
        subspace = random_mean_zero_step_subspace(np.random.default_rng(seed), n, cells)
        rng = np.random.default_rng(seed)
        basis = [mean_zero_project(StepFunction1D.from_cells(rng.standard_normal(cells).tolist()))
                 for _ in range(n)]
        assert subspace.piece_values.tobytes() == np.array([f.values for f in basis]).tobytes()
        assert subspace.knots == list(basis[0].breakpoints)

        found = []
        search = snumbers_mod.zigzag_find
        monkeypatch.setattr(snumbers_mod, "zigzag_find",
                            lambda *a, **k: found.append(search(*a, **k)) or found[-1])
        witness = bernstein_upper_1d(subspace, rng=np.random.default_rng(1)).witness
        w = found[0].witness
        c = [float(x) for x in w.coefficients]
        h = basis[0] * c[0]
        for ck, f in zip(c[1:], basis[1:]):
            h = h + f * ck
        curve = volterra_apply(h)
        t = subspace.breakpoints[w.indices]
        terms = ([abs(float(curve(t[0])))]
                 + [abs(float(curve(b)) - float(curve(a))) for a, b in zip(t, t[1:])]
                 + [abs(float(curve(t[-1])))])
        assert json.dumps(witness["element"]) == json.dumps(step_to_json_dict(h))
        assert witness["mass"] == float(h.l1_norm())
        assert json.dumps(witness["telescoping_terms"]) == json.dumps(terms)
        # a caller's basis of the same functions gives the same witness
        again = bernstein_upper_1d(Subspace(basis), rng=np.random.default_rng(1)).witness
        assert json.dumps(again, sort_keys=True) == json.dumps(witness, sort_keys=True)

    def test_reported_witnesses_read_back(self, tmp_path):
        # the interval rows of the CLI: the stored element carries the stored numbers
        out = tmp_path / "r.json"
        assert cli_main(["volterra", "--n", "1..3", "--grid", "240", "--kinds", "b",
                         "--subspaces", "20", "--seed", "1", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["results"]
        assert [r["n"] for r in rows] == [1, 2, 3]
        for row in rows:
            witness = json.loads(Path(row["witness_path"]).read_text())
            h = from_json_dict(witness["element"])
            assert h.l1_norm() == witness["mass"]
            assert abs(volterra_apply(h).sup_norm() - witness["sup_norm"]) <= 1e-12
            assert witness["ratio_bound_for_subspace"] == witness["sup_norm"] / witness["mass"]

    def test_lower_bits_pinned_on_selftest_subspaces(self):
        # the one_dim_bernstein selftest subspaces with n <= 3 (their searches
        # are exhaustive and draw nothing from the rng); digest of the values
        # recorded before bernstein_lower shared the batched solve
        rng = np.random.default_rng(20_240_501)
        values = [bernstein_lower(random_mean_zero_step_subspace(rng, n, 64)).lower
                  for n in (1, 2, 3) for _ in range(20)]
        assert hashlib.sha256(np.array(values).tobytes()).hexdigest() == (
            "8a8bf89820e46f24e64de6bdbb29f5cf723697c23a18a64ece0b200f359b32da"
        )

    def test_heuristic_path_reports_uncertified(self):
        # beyond the exact enumeration there is no certified lower bound
        rng = np.random.default_rng(5)
        subspace = random_mean_zero_step_subspace(rng, 4, 16)
        low = bernstein_lower(subspace)
        assert low.status == "inconclusive"
        assert low.lower is None
        assert low.upper is None
        assert "n = 3" in low.witness["reason"]


class TestGelfand:
    def test_no_functionals_gives_half(self):
        cert = gelfand_lower_adversary([], Fraction(1, 1000))
        assert cert.rho_bound == Fraction(1, 2)
        assert cert.witness.l1_norm() == 1

    def test_constant_functional_annihilated(self):
        g = StepFunction1D.indicator(0, 1, height=Fraction(7, 2), exact=True)
        cert = gelfand_lower_adversary([g], Fraction(1, 1000))
        assert cert.inner_products == [0]
        assert cert.rho_bound == Fraction(1, 2)

    def test_random_functionals_on_fine_grid(self):
        rng = np.random.default_rng(3)
        gs = [
            StepFunction1D.from_cells(
                [Fraction(int(v), 8) for v in rng.integers(-32, 33, size=256)],
                exact=True,
            )
            for _ in range(4)
        ]
        cert = gelfand_lower_adversary(gs, Fraction(1, 1000))
        assert cert.rho_bound >= Fraction(1, 2) - Fraction(1, 1000)
        assert volterra_apply(cert.witness)(cert.split_point) == Fraction(1, 2)

    def test_float_functionals(self):
        rng = np.random.default_rng(4)
        gs = [random_step_function(rng, max_pieces=12) for _ in range(3)]
        cert = gelfand_lower_adversary(gs, 1e-3)
        assert float(cert.rho_bound) >= 0.5 - 1e-3

    def test_adversary_size_capped_by_n(self):
        g = StepFunction1D.indicator(0, 1, exact=True)
        with pytest.raises(ValueError):
            gelfand_lower_bound(1, [[g]], Fraction(1, 1000))

    def test_eps_positive(self):
        with pytest.raises(ValueError):
            gelfand_lower_adversary([], 0)


class TestKolmogorov:
    def test_upper_quarter(self):
        bound = kolmogorov_upper_1d(2)
        assert bound.upper == Fraction(1, 4)

    def test_upper_confirmation_runs_once(self):
        # the n-independent confirmation is shared; witness as recorded before
        witnesses = [kolmogorov_upper_1d(n).witness for n in (2, 3, 7)]
        assert snumbers_mod._midrange_confirmation.cache_info().currsize == 1
        assert witnesses == 3 * [{
            "argument": "oscillation <= 1/2; midrange constant",
            "dipole_deviation": "1/4",
            "confirm_cells": 1024,
            "random_trials": 64,
            "worst_random_deviation": 0.20645005352823892,
        }]

    def test_upper_needs_n_at_least_two(self):
        with pytest.raises(ValueError):
            kolmogorov_upper_1d(1)

    def test_midrange_dipole_exact(self):
        assert midrange_deviation(dipole(0, 1, 1024)) == Fraction(1, 4)

    def test_midrange_rejects_non_mean_zero(self):
        with pytest.raises(ValueError):
            midrange_deviation(StepFunction1D.indicator(0, 0.5, exact=True))

    def test_spike_family_exact_properties(self):
        for k in (1, 2, 5, 10):
            f = two_sided_spike(k)
            assert f.l1_norm() == 1 and f.integral() == 0
            curve = volterra_apply(f)
            assert curve(Fraction(0)) == 0
            assert curve(Fraction(1, 2**k)) == Fraction(1, 2)

    def test_spike_samples_match_pointwise_evaluation(self):
        # the array evaluation is bit for bit the pointwise one on every point
        # set the witness samples, for every spike of the family
        rng = np.random.default_rng(0)
        family = [volterra_apply(two_sided_spike(k)) for k in range(1, 11)]
        for n in (2, 3, 4):
            for adv in shipped_adversaries(n, rng):
                pts = snumbers_mod._kolmogorov_sample_points(10, adv)
                for curve in family:
                    pointwise = np.array([float(curve(t)) for t in pts])
                    assert curve.sample(pts).tobytes() == pointwise.tobytes()

    def test_two_point_reference_value(self):
        # the generic two-point bound (b - a)/2 with a = 0, b = 1/2
        a, b = Fraction(0), Fraction(1, 2)
        assert (b - a) / 2 == Fraction(1, 4)

    def test_lower_against_constants(self):
        bound = kolmogorov_lower_witness(
            10, n=2, adversaries=[constants_adversary()]
        )
        assert float(bound.lower) >= 0.25 - 1e-3
        assert bound.witness["adversary_distances"]["constants"] == pytest.approx(
            0.25, abs=1e-9
        )

    def test_linear_adversary_distance_is_at_most_a_quarter(self):
        # the span of 1 and t holds the constants, whose distance is the
        # midrange bound 1/4; the LP it replaced recorded 0.25000000000000006
        for seed in (1, 2, 3):
            bound = kolmogorov_lower_witness(10, n=3, rng=np.random.default_rng(seed))
            assert bound.witness["adversary_distances"]["polynomials<= 1"] == 0.25
        alone = kolmogorov_lower_witness(10, n=3, adversaries=[snumbers_mod.polynomial_adversary(1)])
        assert alone.witness["adversary_distances"] == {"polynomials<= 1": 0.25}

    def test_distances_are_their_dual_values_rounded_down(self):
        family = [volterra_apply(two_sided_spike(k)) for k in range(1, 11)]
        for n in (2, 3, 4, 5):
            for adv in shipped_adversaries(n, np.random.default_rng(1)):
                pts = snumbers_mod._kolmogorov_sample_points(10, adv)
                for curve in family:
                    y = curve.sample(pts)
                    dist = snumbers_mod._chebyshev_distance(pts, y, adv.columns)
                    exact = _dual_value(adv.columns(pts), y)
                    assert Fraction(dist) <= exact < Fraction(math.nextafter(dist, math.inf))

    @pytest.mark.parametrize("seed", range(40))
    def test_exchange_matches_linprog(self, seed):
        linprog = pytest.importorskip("scipy.optimize").linprog
        for B, y in _chebyshev_problems(np.random.default_rng(seed)):
            dist = snumbers_mod._chebyshev_distance(None, y, lambda ts: B)
            assert Fraction(dist) <= max(Fraction(0), _dual_value(B, y))
            npts, m = B.shape
            res = linprog(
                c=[0.0] * m + [1.0],
                A_ub=np.vstack([np.hstack([-B, -np.ones((npts, 1))]),
                                np.hstack([B, -np.ones((npts, 1))])]),
                b_ub=np.concatenate([-y, y]),
                bounds=[(None, None)] * m + [(0.0, None)],
                method="highs",
            )
            assert res.success
            assert dist == pytest.approx(res.fun, abs=1e-10)

    def test_failed_certificate_raises(self, monkeypatch):
        ts = np.linspace(0.5, 1.0, 9)
        # a column within RANK_TOL of another is dropped, but it is not
        # annihilated exactly by the weights that annihilate the first
        near = lambda t: np.stack([t, t + 2.0**-40 * t**2], axis=1)
        with pytest.raises(RuntimeError, match="dropped column"):
            snumbers_mod._chebyshev_distance(ts, ts**2, near)
        monkeypatch.setattr(snumbers_mod, "MAX_EXCHANGES", 0)
        with pytest.raises(RuntimeError, match="did not converge"):
            snumbers_mod._chebyshev_distance(ts, ts**2, constants_adversary().columns)

    def test_lower_validations(self):
        with pytest.raises(ValueError):
            kolmogorov_lower_witness(1, n=2)
        with pytest.raises(ValueError):
            kolmogorov_lower_witness(40, n=2)
        with pytest.raises(ValueError):
            kolmogorov_lower_witness(5, n=1)
        big = Adversary("too big", 2, lambda ts: np.ones((len(ts), 2)))
        with pytest.raises(ValueError):
            kolmogorov_lower_witness(5, n=2, adversaries=[big])


class TestDdim:
    def test_plane_four_balls(self):
        bound = isomorphism_lower_ddim(2, 2, LorentzParams(2, 1))
        assert bound.lower == Fraction(1, 8)
        assert bound.mode == "exact"

    def test_three_dim_single_ball(self):
        bound = isomorphism_lower_ddim(3, 1, LorentzParams(3, 1), cells_per_side=8)
        assert bound.lower == Fraction(1, 6)

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_general_closed_form(self, m):
        d = 2
        bound = isomorphism_lower_ddim(d, m, LorentzParams(d, 1))
        n = m**d
        assert bound.lower == Fraction(1, 2 * m) / d
        assert float(bound.lower) == pytest.approx(n ** (-1 / d) / (2 * d), rel=1e-12)

    def test_grid_must_resolve_centers(self):
        with pytest.raises(GridMismatchError):
            isomorphism_lower_ddim(2, 3, LorentzParams(2, 1), cells_per_side=16)

    def test_dimension_at_least_two(self):
        with pytest.raises(ValueError):
            isomorphism_lower_ddim(1, 2, LorentzParams(1, 1))
        with pytest.raises(ValueError, match="dim >= 2"):
            bernstein_upper_ddim(Subspace(hat_functions(1, 2, 16)), curve_order=2)

    def test_hat_sandwich_n_four(self):
        hats = hat_functions(2, 2, 32)
        subspace = Subspace(hats)
        bound = bernstein_upper_ddim(subspace, curve_order=2, eps=0.05,
                                     rng=np.random.default_rng(0))
        assert bound.status == "certified"
        ratio = bound.witness["ratio_at_witness"]
        assert 0.125 - 1e-12 <= ratio <= bound.witness["chain_ratio_bound"]

    def test_inconclusive_chain_publishes_no_upper_value(self, monkeypatch):
        # the search keeps its witness but cannot certify it: the row keeps
        # the chain value in its witness, not as an upper bound
        search = snumbers_mod.zigzag_find

        def inconclusive(*args, **kwargs):
            return dataclasses.replace(search(*args, **kwargs), status="inconclusive")

        monkeypatch.setattr(snumbers_mod, "zigzag_find", inconclusive)
        bound = bernstein_upper_ddim(Subspace(hat_functions(2, 2, 32)), curve_order=2,
                                     eps=0.05, rng=np.random.default_rng(0))
        assert bound.status == "inconclusive" and bound.upper is None
        assert bound.witness["chain_ratio_bound"] > 0

    def test_hat_ratio_grid_close_to_closed_form(self):
        params = LorentzParams(2, 1)
        grid = hat_subspace_ratio_grid(hat_functions(2, 2, 32), params)
        closed = hat_subspace_ratio_closed_form(2, 2, params)
        assert grid == pytest.approx(closed, rel=0.02)

    def test_single_direction_no_alternation(self):
        hats = hat_functions(2, 1, 16)
        bound = bernstein_upper_ddim(Subspace(hats), curve_order=2)
        assert bound.witness["note"] == "single direction"
        assert bound.lower > 0 and bound.upper is None

    def test_chain_links_logged_with_slack(self):
        rng = np.random.default_rng(33)
        subspace = random_grid_subspace(rng, 3, 2, 32)
        bound = bernstein_upper_ddim(subspace, curve_order=4, rng=rng)
        w = bound.witness
        assert len(w["osc_links"]) == 2
        assert all(link["slack"] >= -1e-10 for link in w["osc_links"])
        assert w["holder"]["slack"] >= -1e-10 * w["holder"]["rhs"]
        assert w["lorsum"]["slack"] >= -1e-10 * w["lorsum"]["rhs"]

    @pytest.mark.parametrize("dim", [2, 3])
    def test_chain_norms_from_one_field_match_per_link_fields(self, monkeypatch, dim):
        # the chain masks one shared gradient field; a fresh field per link
        # gives the same norms bit for bit
        found = []

        def recorded(matrix, **kwargs):
            found.append(search(matrix, **kwargs))
            return found[-1]

        search = snumbers_mod.zigzag_find
        monkeypatch.setattr(snumbers_mod, "zigzag_find", recorded)
        if dim == 2:
            subspace, cells, order = Subspace(hat_functions(2, 2, 32)), 32, 2
        else:
            subspace = random_grid_subspace(np.random.default_rng(4), 4, 3, 16)
            cells, order = 16, 3
        bound = bernstein_upper_ddim(subspace, curve_order=order,
                                     rng=np.random.default_rng(0))
        v = subspace.element(found[0].witness.coefficients)
        params = LorentzParams(dim, 1)
        ordering = hilbert_order(dim, order)
        w = bound.witness
        assert len(w["osc_links"]) == subspace.dim - 1
        for link in w["osc_links"]:
            mask = segment_domain(ordering, *link["segment"]).cell_mask(cells)
            fresh = grid_gradient_lorentz_norm(v.gradient_field(), params, cell_mask=mask)
            assert link["gradient_norm"].hex() == fresh.hex()
        full = grid_gradient_lorentz_norm(v.gradient_field(), params)
        assert w["gradient_norm"].hex() == full.hex()

    @pytest.mark.parametrize("dim,order,cells,sample", [(2, 3, 48, None), (3, 2, 16, 300)])
    def test_curve_rows_are_the_segment_domains(self, dim, order, cells, sample):
        # rows p - 1 .. q - 1 hold the cells of segment domain p .. q: the same
        # multiset of values, so the same Lorentz norm bit for bit
        rng = np.random.default_rng(dim)
        ordering = hilbert_order(dim, order)
        params = LorentzParams(dim, 1)
        v = GridFunction.random_interior(rng, dim, cells)
        ties = rng.integers(0, 4, size=(cells,) * dim) * 0.5  # runs of equal values
        n = len(ordering)
        segments = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
        if sample is not None:
            picked = rng.choice(len(segments), size=sample, replace=False)
            segments = [(1, 1), (1, n), (n, n)] + [segments[k] for k in picked]
        for field in (v.gradient_field(), CellField(ties, cells**-dim)):
            rows = snumbers_mod._curve_rows(field, ordering)
            assert rows.values.shape == (n, (cells >> order) ** dim)
            assert rows.cell_measure == field.cell_measure
            for i, j in segments:
                seg = rows.values[i - 1:j]
                mask = segment_domain(ordering, i, j).cell_mask(cells)
                assert np.sort(seg, axis=None).tobytes() == np.sort(field.values[mask]).tobytes()
                by_rows = lorentz_norm(CellField(seg, field.cell_measure), params)
                by_mask = grid_gradient_lorentz_norm(field, params, cell_mask=mask)
                assert by_rows.hex() == by_mask.hex()

    def test_grid_resolution_must_match_curve(self):
        hats = hat_functions(2, 2, 16)
        with pytest.raises(GridMismatchError):
            bernstein_upper_ddim(Subspace(hats), curve_order=4)

    def test_hat_nodes_unchanged_where_the_boundary_was_exact(self):
        # m = 4: the interior-only evaluation gives the old nodal values bit
        # for bit; odd m: the boundary is exact 0 (it used to miss by rounding)
        for dim, m, cells in ((2, 4, 64), (3, 4, 32)):
            axis = np.arange(cells + 1) / cells
            mesh = np.meshgrid(*([axis] * dim), indexing="ij")
            centers = snumbers_mod._ball_centers(dim, m)
            for hat, center in zip(hat_functions(dim, m, cells), centers):
                dist = np.sqrt(sum((g - float(c)) ** 2 for g, c in zip(mesh, center)))
                old = np.maximum(0.0, 1.0 / (2 * m) - dist)
                assert hat.nodal_values.tobytes() == old.tobytes()
        for m in (3, 5, 7):
            hats = hat_functions(2, m, 16 * m)
            assert all(h.boundary_zero and h.nodal_values.max() > 0 for h in hats)

    @pytest.mark.parametrize("dim,m,cells", [(3, 4, 64), (2, 8, 64), (2, 3, 48)])
    def test_hats_match_the_meshgrid_profile(self, dim, m, cells):
        # the broadcast squares add the same floats in the same order as the
        # sum over a meshgrid of each hat's box: the same bits and origins
        r, half = 1.0 / (2 * m), cells // (2 * m)
        axis = np.arange(cells + 1) / cells
        centers = snumbers_mod._ball_centers(dim, m)
        for hat, center in zip(hat_functions(dim, m, cells), centers):
            box = tuple(slice(max(int(c * cells) - half, 1),
                              min(int(c * cells) + half, cells - 1) + 1) for c in center)
            mesh = np.meshgrid(*(axis[b] for b in box), indexing="ij")
            dist = np.sqrt(sum((g - float(c)) ** 2 for g, c in zip(mesh, center)))
            values = np.maximum(0.0, r - dist)
            trim = tuple(slice(ids.min(), ids.max() + 1) for ids in np.nonzero(values))
            assert hat.origin == tuple(b.start + t.start for b, t in zip(box, trim))
            assert np.array_equal(hat.values.view(np.int64), values[trim].view(np.int64))

    def test_hats_are_stored_on_their_boxes(self):
        # trimming drops only zeros: the box holds every nonzero node and
        # no face of it is all zero
        hats = hat_functions(3, 4, 64)
        assert sum(h.values.nbytes for h in hats) <= 64 * 17**3 * 8
        for h in hats[::7]:
            full = h.nodal_values
            assert np.count_nonzero(full) == np.count_nonzero(h.values)
            for a in range(3):
                assert np.take(h.values, 0, axis=a).any()
                assert np.take(h.values, -1, axis=a).any()

    def test_box_combine_matches_the_dense_sum_bitwise(self):
        # mixed signs, -1.0 on nodes where every hat is zero, and cancelling
        # pairs; the dense sum runs left to right from 0 over full arrays
        rng = np.random.default_rng(11)
        for dim, m, cells in ((2, 5, 80), (3, 2, 16), (2, 3, 12)):
            hats = hat_functions(dim, m, cells)
            for coeffs in (rng.normal(size=len(hats)),
                           [-1.0] * len(hats),
                           [(-1.0) ** k * 0.5 for k in range(len(hats))]):
                coeffs = [float(c) for c in coeffs]
                dense = sum(c * h.nodal_values for c, h in zip(coeffs, hats))
                combo = hats[0].combine(hats[1:], coeffs)
                assert combo.nodal_values.tobytes() == dense.tobytes()
            twice = hats[0].combine([hats[0]], [1.0, -1.0])
            assert twice.nodal_values.tobytes() == np.zeros((cells + 1,) * dim).tobytes()
        with pytest.raises(GridMismatchError):  # a box that fits, on another grid
            hats[0].combine(hat_functions(2, 3, 6)[:1], [1.0, 1.0])

    def test_values_at_matches_the_full_view(self):
        # every node of the grid: inside the box, outside it and on its faces
        for hat in hat_functions(3, 2, 16)[::3] + hat_functions(2, 5, 40)[::6]:
            ids = tuple(np.indices(hat.nodal_values.shape).reshape(hat.dim, -1))
            assert hat.values_at(ids).tobytes() == hat.nodal_values[ids].tobytes()

    def test_empty_hat_is_an_inconclusive_cube_record(self):
        # m = 6 at curve order 3: four balls hold no cube center
        hats = hat_functions(2, 6, 48)
        bound = bernstein_upper_ddim(Subspace(hats), curve_order=3)
        assert (bound.status, bound.upper, bound.operator) == ("inconclusive", None, "cube")
        assert bound.witness["empty_elements"] == [7, 10, 25, 28]
        assert "[7, 10, 25, 28]" in bound.witness["reason"]

    def test_failed_search_is_an_inconclusive_cube_record(self, monkeypatch):
        # force the alternation search to find no witness; also capture the
        # node matrix it was given: one row per cube center in curve order
        seen = []

        def no_witness(matrix, **kwargs):
            seen.append(matrix)
            return ZigzagResult(None, "inconclusive", math.inf, 0)

        monkeypatch.setattr(snumbers_mod, "zigzag_find", no_witness)
        hats = hat_functions(2, 2, 32)
        bound = bernstein_upper_ddim(Subspace(hats), curve_order=2)
        assert bound.status == "inconclusive"
        assert bound.to_json_dict()["operator"] == "cube"
        ordering = hilbert_order(2, 2)
        expected = [  # cube centers (2z + 1) / 8 are nodes 4(2z + 1) of the 32-cell grid
            [h.nodal_values[tuple(4 * (2 * z + 1) for z in row)] for h in hats]
            for row in ordering.coords.tolist()
        ]
        assert np.array_equal(seen[0], np.array(expected))


def test_gelfand_kolmogorov_separation():
    # the second scale splits: gelfand stays near 1/2 while kolmogorov is 1/4
    rng = np.random.default_rng(77)
    sets = [[random_step_function(rng, max_pieces=12, exact=True)] for _ in range(5)]
    gel = gelfand_lower_bound(2, sets, Fraction(1, 1000))
    kol = kolmogorov_upper_1d(2)
    assert float(gel.lower) >= 0.499
    assert float(gel.lower) > float(kol.upper)


class TestAxiomSuite:
    def _bundle(self):
        rng = np.random.default_rng(0)
        bounds = []
        for n in range(1, 5):
            bounds.append(isomorphism_lower_1d(n))
            bounds.append(approximation_upper(n))
            if n >= 2:
                bounds.append(kolmogorov_upper_1d(n))
            subspace = random_mean_zero_step_subspace(rng, min(n, 3), 16)
            bounds.append(bernstein_upper_1d(subspace, rng=rng))
        return bounds

    def test_consistent_bundle_passes(self):
        report = snumber_axiom_suite(self._bundle())
        assert report.passed, report.violations
        assert report.checked > 20

    def test_injected_chain_violation_flagged(self):
        fake = SNumberBound(kind="isomorphism", n=2, lower=0.4, label="fake")
        report = snumber_axiom_suite(self._bundle() + [fake])
        assert not report.passed
        assert any("isomorphism lower" in v for v in report.violations)

    def test_monotonicity_violation_flagged(self):
        increasing = [
            SNumberBound(kind="approximation", n=1, upper=0.5),
            SNumberBound(kind="approximation", n=3, upper=0.7),
        ]
        report = snumber_axiom_suite(increasing)
        assert not report.passed
        assert any("(S1)" in v for v in report.violations)

    def test_heuristic_bounds_ignored(self):
        noise = SNumberBound(
            kind="isomorphism", n=2, lower=0.9, status="heuristic"
        )
        report = snumber_axiom_suite(self._bundle() + [noise])
        assert report.passed
