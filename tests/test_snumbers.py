import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import snum.snumbers as snumbers_mod
from snum.hilbert import hilbert_order
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
    snumber_axiom_suite,
    two_sided_spike,
    ZigzagResult,
    zigzag_find,
)
from snum.spaces import (
    GridFunction,
    GridMismatchError,
    LorentzParams,
    StepFunction1D,
    from_json_dict,
    random_step_function,
)
from snum.volterra import dipole, volterra_apply


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
        chunks = list(snumbers_mod._combination_chunks(np.arange(42), 4))
        assert [len(c) for c in chunks] == [100_000, math.comb(42, 4) - 100_000]
        assert np.concatenate(chunks).tolist() == [
            list(c) for c in itertools.combinations(range(42), 4)
        ]

    # indices, value, status and evaluations recorded when index sets were
    # still tuples and lists: the array search walks the same path
    @pytest.mark.parametrize("matrix,seed,eps,indices,value,status,evaluations,lp_solves", [
        # exhaustive: C(40, 3) = 9880 sets
        (np.random.default_rng(1).standard_normal((40, 3)), 0, 0.05,
         [8, 11, 31], 1.0, "certified", 9880, 0),
        # exhaustive with tripled rows: singular sets go to the LP (64 per chunk)
        (np.repeat(np.random.default_rng(3).standard_normal((8, 3)), 3, axis=0), 3, 0.05,
         [0, 6, 9], 0.9999999999999999, "certified", 2024, 64),
        # local search: C(24, 7) > EXHAUSTIVE_LIMIT, seven kicks off the incumbent
        (np.random.default_rng(0).standard_normal((24, 7)), 0, 0.05,
         [6, 8, 11, 12, 16, 18, 21], 1.0, "certified", 2975, 0),
        # eps = 0 is missed by one ulp, so the C(30, 5) = 142506 sets are swept
        (np.random.default_rng(0).standard_normal((30, 5)), 0, 0.0,
         [1, 4, 13, 15, 19], 1.0000000000000002, "inconclusive", 2000 + 142506, 0),
    ], ids=["exhaustive", "exhaustive-lp", "kicks", "escalation"])
    def test_search_path_pinned(self, monkeypatch, matrix, seed, eps, indices, value,
                                status, evaluations, lp_solves):
        calls = []

        def counted_lp(*args):
            calls.append(1)
            return lp(*args)

        lp = snumbers_mod._minimax_lp
        monkeypatch.setattr(snumbers_mod, "_minimax_lp", counted_lp)
        res = zigzag_find(matrix, eps=eps, rng=np.random.default_rng(seed))
        assert res.witness.indices.tolist() == indices
        assert (res.value, res.status, res.evaluations) == (value, status, evaluations)
        assert len(calls) == lp_solves

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

    def test_hat_sandwich_n_four(self):
        hats = hat_functions(2, 2, 32)
        subspace = Subspace(hats)
        bound = bernstein_upper_ddim(subspace, curve_order=2, eps=0.05,
                                     rng=np.random.default_rng(0))
        assert bound.status == "certified"
        ratio = bound.witness["ratio_at_witness"]
        assert 0.125 - 1e-12 <= ratio <= bound.witness["chain_ratio_bound"]

    def test_hat_ratio_grid_close_to_closed_form(self):
        params = LorentzParams(2, 1)
        grid = hat_subspace_ratio_grid(2, 2, 32, params)
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

    def test_grid_resolution_must_match_curve(self):
        hats = hat_functions(2, 2, 16)
        with pytest.raises(GridMismatchError):
            bernstein_upper_ddim(Subspace(hats), curve_order=4)

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
        expected = [
            [h.nodal_values[tuple(int(c * 32) for c in ordering.cube(i).center())]
             for h in hats]
            for i in range(1, len(ordering) + 1)
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
