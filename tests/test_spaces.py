import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snum.snumbers import hat_functions
from snum.spaces import (
    CellField,
    ExactValueError,
    GridFunction,
    GridMismatchError,
    LorentzParams,
    MeanZeroTag,
    StepFunction1D,
    UnsupportedRegimeError,
    _layer_intervals,
    _sum_left,
    _value_measure_pairs,
    from_json_dict,
    grid_gradient_lorentz_norm,
    lorentz_norm,
    random_step_function,
    step_to_json_dict,
)
from snum.volterra import volterra_apply


def _on_grid(fn, dim, cells_per_side):
    """The grid function with nodal values fn(x_1, ..., x_d) at the grid nodes."""
    axes = [np.arange(cells_per_side + 1) / cells_per_side] * dim
    return GridFunction(dim, cells_per_side, fn(*np.meshgrid(*axes, indexing="ij")))


def quadrature_lorentz(f, p, q, samples=200_001, block=1 << 14):
    """Independent oracle: Riemann sum of p * mu(s)^(q/p) s^(q-1) ds, with
    mu(s) = |{|f| > s}| summed over the pieces for a block of samples at a
    time."""
    heights = np.abs(np.array([float(v) for v in f.values]))
    lengths = np.array([float(l) for l in f.lengths()])
    top = heights.max(initial=0.0)
    if top == 0:
        return 0.0
    s = np.linspace(0.0, top, samples)
    mids = 0.5 * (s[1:] + s[:-1])
    mu = np.concatenate([(heights > mids[i:i + block, None]) @ lengths
                         for i in range(0, len(mids), block)])
    ds = np.diff(s)
    return float((p * mu ** (q / p) * mids ** (q - 1) * ds).sum()) ** (1 / q)


def _left_to_right(terms):
    """0 + t_0 + t_1 + ..., one explicit addition at a time."""
    total = 0
    for term in terms:
        total = total + term
    return total


def _old_gradient_field(u):
    """``GridFunction.gradient_field`` as it was written with a fresh array
    per step: the oracle of the in-place version."""
    h = 1.0 / u.cells_per_side
    sq = None
    for a in range(u.dim):
        g = np.diff(u.nodal_values, axis=a)
        for b in range(u.dim):
            if b == a:
                continue
            lo = [slice(None)] * u.dim
            hi = [slice(None)] * u.dim
            lo[b] = slice(0, -1)
            hi[b] = slice(1, None)
            g = 0.5 * (g[tuple(lo)] + g[tuple(hi)])
        g = g / h
        sq = g**2 if sq is None else sq + g**2
    return CellField(np.sqrt(sq), h**u.dim)


def _distribution(f, t):
    """|{|f| > t}| for t >= 0, read off the layer table of ``lorentz_norm``."""
    thresholds, mus = _layer_intervals(f)
    layer = int(np.searchsorted(thresholds, t, side="right")) - 1
    return float(mus[layer]) if layer < len(mus) else 0.0


def _layer_intervals_by_level(f):
    """Reference layers: one distinct nonzero value at a time, as lists."""
    vals, meas = _value_measure_pairs(f)
    order = np.argsort(vals)
    vals, meas = vals[order], meas[order]
    thresholds = [0.0]
    mus = []
    total = float(meas.sum())
    uniq, starts = np.unique(vals, return_index=True)
    cum = np.concatenate([[0.0], np.cumsum(meas)])
    for u, s in zip(uniq, starts):
        if u == 0.0:
            continue
        mus.append(total - cum[s])
        thresholds.append(float(u))
    return thresholds, mus


def steps(min_pieces=1, max_pieces=8):
    @st.composite
    def build(draw):
        cuts = draw(
            st.lists(
                st.integers(1, 63),
                min_size=min_pieces - 1,
                max_size=max_pieces - 1,
                unique=True,
            )
        )
        bps = [0.0] + sorted(c / 64 for c in cuts) + [1.0]
        vals = draw(
            st.lists(
                st.floats(-8, 8, allow_nan=False),
                min_size=len(bps) - 1,
                max_size=len(bps) - 1,
            )
        )
        return StepFunction1D(bps, vals)

    return build()


class TestStepFunction:
    def test_construction_invariants(self):
        with pytest.raises(ValueError):
            StepFunction1D([0.0, 0.5], [1.0, 2.0])
        with pytest.raises(ValueError):
            StepFunction1D([0.0, 0.5, 0.5, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            StepFunction1D([0.1, 1.0], [1.0])

    def test_l1_norm_from_representation(self):
        f = StepFunction1D([0, Fraction(1, 4), 1], [Fraction(2), Fraction(-1)])
        assert f.l1_norm() == Fraction(2, 4) + Fraction(3, 4)

    def test_canonicalize_preserves_norm(self):
        f = StepFunction1D([0.0, 0.25, 0.5, 1.0], [2.0, 2.0, -1.0])
        g = f.canonicalize()
        assert g.piece_count == 2
        assert g.l1_norm() == f.l1_norm()

    def test_float_sums_add_left_to_right(self):
        # 1e16 + 1.0 rounds back to 1e16, so the pieces' terms (1e16, 1, -1e16)
        # add up to 0 from the left; a compensated sum (the builtin sum from
        # Python 3.12 on) would give 1
        left_to_right = _left_to_right
        f = StepFunction1D([0.0, 0.25, 0.5, 1.0], [4e16, 4.0, -2e16])
        one = StepFunction1D([0.0, 0.5, 1.0], [1.0, 1.0])
        lengths = (0.25, 0.25, 0.5)
        assert f.integral() == left_to_right(v * l for v, l in zip(f.values, lengths)) == 0.0
        assert f.integrate_against(one) == 0.0
        assert f.l1_norm() == left_to_right(abs(v) * l for v, l in zip(f.values, lengths))
        # Fraction sums stay exact
        exact = StepFunction1D([0, Fraction(1, 4), Fraction(1, 2), 1], [Fraction(4 * 10**16), 4, -2 * 10**16])
        exact_one = StepFunction1D([0, 1], [Fraction(1)])
        assert exact.integral() == exact.integrate_against(exact_one) == 1

    def test_sum_left_is_the_explicit_loop(self):
        # terms on which a compensated sum gives 1.0 (or 2.0) and the left
        # fold gives 0.0; neither side calls the builtin sum
        for terms in ([1e16, 1.0, -1e16], [1.0, 1e16, 1.0, -1e16, 0.5],
                      [0.1] * 10, [-0.0], []):
            got = _sum_left(terms)
            want = _left_to_right(terms)
            assert type(got) is type(want) and repr(got) == repr(want)
            assert _sum_left(iter(terms)) == want  # a generator, read once
        assert _sum_left([1e16, 1.0, -1e16]) == 0.0
        assert _sum_left([0.1] * 10) == 0.9999999999999999
        assert _sum_left([Fraction(10**16), 1, -(10**16)]) == 1

    def test_serialization_roundtrip(self):
        f = StepFunction1D([0, Fraction(1, 3), 1], [Fraction(5, 2), Fraction(-1)])
        g = from_json_dict(step_to_json_dict(f))
        assert g == f and g.is_exact

    def test_hash_agrees_with_equality(self):
        # one function on two breakpoint sets: equal, so one hash and one set entry
        a = StepFunction1D.from_cells([1.0, 1.0])
        b = StepFunction1D([0.0, 1.0], [1.0])
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        exact = StepFunction1D([0, Fraction(1, 2), 1], [Fraction(1), Fraction(1)])
        assert exact == b and hash(exact) == hash(b)
        assert len({a, StepFunction1D.from_cells([1.0, 2.0])}) == 2


class TestDistributionFunction:
    def test_indicator_below_height(self):
        f = StepFunction1D.indicator(0, 0.5)
        assert _distribution(f, 0.5) == 0.5

    def test_indicator_at_height_strict(self):
        f = StepFunction1D.indicator(0, 0.5)
        assert _distribution(f, 1.0) == 0

    def test_two_level_example(self):
        # enumerate pieces with |value| > 1.5: only the height-2 piece
        f = StepFunction1D(
            [0.0, 0.25, 0.5, 0.75, 1.0], [2.0, 0.0, -1.0, 0.0]
        )
        expected = sum(
            l for v, l in zip(f.values, f.lengths()) if abs(v) > 1.5
        )
        assert expected == 0.25
        assert _distribution(f, 1.5) == pytest.approx(0.25, abs=0)

    @given(steps())
    @settings(max_examples=60, deadline=None)
    def test_nonincreasing_and_right_continuous(self, f):
        levels = sorted({abs(v) for v in f.values})
        grid = [0.0] + levels
        mus = [_distribution(f, t) for t in grid]
        assert all(a >= b for a, b in zip(mus, mus[1:]))
        for t in levels:
            gap = min((u - t for u in levels if u > t), default=1.0)
            probe = t + gap / 2
            if not t < probe < t + gap:  # gap below float resolution
                continue
            assert _distribution(f, t) == _distribution(f, probe)


class TestLorentzNorm:
    def test_regime_validation(self):
        with pytest.raises(UnsupportedRegimeError):
            LorentzParams(2, 3)
        with pytest.raises(UnsupportedRegimeError):
            LorentzParams(0.5, 0.5)

    def test_indicator_half_measure(self):
        f = StepFunction1D.indicator(0, 0.5)
        oracle = quadrature_lorentz(f, 2, 1)
        assert oracle == pytest.approx(math.sqrt(2), rel=1e-4)
        assert lorentz_norm(f, LorentzParams(2, 1)) == pytest.approx(
            math.sqrt(2), rel=1e-14
        )

    def test_zero_function(self):
        assert lorentz_norm(StepFunction1D([0.0, 1.0], [0.0]), LorentzParams(2, 1)) == 0.0

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_full_indicator_cube_constant(self, d):
        f = StepFunction1D.indicator(0, 1)
        oracle = quadrature_lorentz(f, d, 1)
        assert oracle == pytest.approx(d, rel=1e-4)
        assert lorentz_norm(f, LorentzParams(d, 1)) == pytest.approx(d, rel=1e-14)
        exact = lorentz_norm(
            StepFunction1D.indicator(0, 1, exact=True),
            LorentzParams(d, 1),
            mode="exact",
        )
        assert exact == d

    def test_exact_mode_irrational_root_raises(self):
        f = StepFunction1D.indicator(0, Fraction(1, 3), exact=True)
        with pytest.raises(ExactValueError):
            lorentz_norm(f, LorentzParams(2, 1), mode="exact")

    def test_cell_field_matches_step(self):
        vals = [1.0, -2.0, 0.5, 0.0]
        f = StepFunction1D.from_cells(vals)
        field = CellField(np.array(vals), 0.25)
        for pq in [(2, 1), (3, 2), (2, 2)]:
            assert lorentz_norm(f, LorentzParams(*pq)) == pytest.approx(
                lorentz_norm(field, LorentzParams(*pq)), rel=1e-14
            )

    def test_layers_match_the_level_loop_bitwise(self):
        # ties, zeros of both signs and all-zero functions, cell fields and
        # step functions with unequal pieces
        rng = np.random.default_rng(3)
        funcs = [CellField(np.zeros((4, 4)), 1 / 16), StepFunction1D([0.0, 1.0], [0.0])]
        for _ in range(150):
            size = int(rng.integers(1, 300))
            levels = rng.integers(-5, 6, size) * rng.choice([0.25, 0.1, 1 / 3])
            levels[rng.random(size) < 0.2] = -0.0
            funcs.append(CellField(levels.reshape(1, -1), float(rng.choice([1 / size, 0.1]))))
            funcs.append(random_step_function(rng, max_pieces=20, exact=bool(rng.integers(2)),
                                              value_scale=1))
        for f in funcs:
            thresholds, mus = _layer_intervals(f)
            ref_thresholds, ref_mus = _layer_intervals_by_level(f)
            assert thresholds.tobytes() == np.array(ref_thresholds).tobytes()
            assert mus.tobytes() == np.array(ref_mus, dtype=float).tobytes()

    def test_cell_fields_sort_by_value_alone(self):
        # the value-only sort of a cell field gives the argsort path's layers
        # bit for bit: on a tie-heavy field and at cell measures that are not
        # powers of two (grid 48)
        def by_argsort(f):
            vals, meas = _value_measure_pairs(f)
            order = np.argsort(vals)
            vals, meas = vals[order], meas[order]
            cum = np.concatenate([[0.0], np.cumsum(meas)])
            first = vals != 0.0
            first[1:] &= vals[1:] != vals[:-1]
            starts = np.flatnonzero(first)
            return np.concatenate([[0.0], vals[starts]]), float(meas.sum()) - cum[starts]

        rng = np.random.default_rng(8)
        ties = rng.integers(-3, 4, size=(48, 48, 48)) * 0.25
        ties[rng.random(ties.shape) < 0.1] = -0.0
        hats = hat_functions(2, 3, 48)
        fields = [CellField(ties, 1 / 48**3), CellField(ties, 0.1),
                  hats[0].combine(hats[1:], rng.normal(size=len(hats))).gradient_field()]
        for f in fields:
            for got, want in zip(_layer_intervals(f), by_argsort(f)):
                assert got.tobytes() == want.tobytes()

    @given(steps(max_pieces=5), st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2), (2.5, 1.5)]))
    @settings(max_examples=25, deadline=None)
    def test_closed_form_matches_quadrature(self, f, pq):
        p, q = pq
        oracle = quadrature_lorentz(f, p, q, samples=40_001)
        value = lorentz_norm(f, LorentzParams(p, q))
        assert value == pytest.approx(oracle, rel=2e-4, abs=1e-9)

    @given(steps(), st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)]))
    @settings(max_examples=60, deadline=None)
    def test_homogeneity(self, f, pq):
        params = LorentzParams(*pq)
        base = lorentz_norm(f, params)
        scaled = lorentz_norm(f * -3.5, params)
        assert scaled == pytest.approx(3.5 * base, rel=1e-12, abs=1e-12)

    def test_exact_homogeneity(self):
        f = StepFunction1D.indicator(0, Fraction(1, 4), exact=True)
        params = LorentzParams(2, 1)
        assert lorentz_norm(f * Fraction(7, 3), params, mode="exact") == Fraction(
            7, 3
        ) * lorentz_norm(f, params, mode="exact")

    @given(steps(), steps(), st.sampled_from([(2, 1), (3, 1), (2, 2)]))
    @settings(max_examples=60, deadline=None)
    def test_monotonicity(self, f, g, pq):
        # |f| <= |f| + |g| pointwise on the common refinement
        fr, gr = StepFunction1D.common_refinement(f, g)
        dominating = StepFunction1D(
            fr.breakpoints, [abs(a) + abs(b) for a, b in zip(fr.values, gr.values)]
        )
        params = LorentzParams(*pq)
        assert lorentz_norm(f, params) <= lorentz_norm(dominating, params) + 1e-12


class TestMeanZeroTag:
    def test_exact_tag(self):
        f = StepFunction1D([0, Fraction(1, 2), 1], [Fraction(1), Fraction(-1)])
        assert MeanZeroTag(0).admits(f)

    def test_violation(self):
        f = StepFunction1D.indicator(0, 0.5)
        assert not MeanZeroTag(1e-6).admits(f)
        with pytest.raises(ValueError):
            MeanZeroTag(1e-6).require(f)


class TestGridFunction:
    def test_boundary_zero_enforced(self):
        vals = np.ones((3, 3))
        with pytest.raises(ValueError):
            GridFunction(2, 2, vals, boundary_zero=True)

    @pytest.mark.parametrize("dim,cells,shape,origin", [
        (1, 8, (3, 3), None),  # 9 values, but not a 1-d node row
        (2, 2, (9,), None),  # 9 values, but flat
        (2, 4, (4, 4), None),  # a whole-grid function needs every node
        (2, 4, (3, 3), (3, 0)),  # the box leaves the grid
        (2, 4, (2, 2), (-1, 0)),
        (2, 4, (2, 2, 2), (0, 0)),
    ])
    def test_mis_shaped_values_rejected(self, dim, cells, shape, origin):
        with pytest.raises(GridMismatchError) as err:
            GridFunction(dim, cells, np.ones(shape), origin=origin)
        assert str(shape) in str(err.value)
        assert str((cells + 1,) * dim) in str(err.value)

    def test_box_is_zero_outside(self):
        u = GridFunction(2, 4, np.arange(1.0, 7.0).reshape(2, 3), origin=(1, 2))
        full = u.nodal_values
        assert full.shape == (5, 5) and not full.flags.writeable
        assert full[1:3, 2:5].tobytes() == u.values.tobytes()
        assert np.count_nonzero(full) == 6 and u.sup_norm() == 6.0
        with pytest.raises(ValueError):  # node (1, 4) is on the grid's boundary
            GridFunction(2, 4, u.values, boundary_zero=True, origin=(1, 2))
        assert GridFunction(2, 4, u.values[:, :2], boundary_zero=True, origin=(1, 2)).boundary_zero

    def test_sup_norm_exact_on_nodes(self):
        vals = np.array([0.0, 1.0, -2.0, 0.0]).reshape(4)
        u = GridFunction(1, 3, vals)
        assert u.sup_norm() == 2.0

    def test_linear_ramp_gradient(self):
        # u = x_1 on a 2-d grid: |grad| = 1 on every cell, L^{2,2} norm 1
        u = _on_grid(lambda x, y: x, 2, 8)
        field = u.gradient_field()
        assert np.allclose(field.values, 1.0)
        assert grid_gradient_lorentz_norm(u.gradient_field(), LorentzParams(2, 2)) == pytest.approx(
            1.0, rel=1e-12
        )

    @pytest.mark.parametrize("dim,cells", [(2, 12), (2, 48), (3, 12), (3, 48)])
    def test_in_place_gradient_is_the_old_gradient(self, dim, cells):
        # whole-grid functions, box-stored hats and a box off the grid's
        # boundary; cells 12 and 48 are not powers of two
        rng = np.random.default_rng(dim * cells)
        hats = hat_functions(dim, 3, cells)
        box_shape = (cells // 2,) * dim
        funcs = [GridFunction.random_interior(rng, dim, cells),
                 _on_grid(lambda *x: np.prod(np.sin(7.0 * np.array(x)), axis=0), dim, cells),
                 hats[0], hats[-1],
                 hats[0].combine(hats[1:], rng.normal(size=len(hats)).tolist()),
                 GridFunction(dim, cells, rng.normal(size=box_shape), origin=(cells // 3,) * dim)]
        for u in funcs:
            got, want = u.gradient_field(), _old_gradient_field(u)
            assert got.values.shape == want.values.shape == (cells,) * dim
            assert np.array_equal(got.values.view(np.int64), want.values.view(np.int64))
            assert got.cell_measure == want.cell_measure

    def test_constant_function_zero_norm(self):
        u = GridFunction(2, 4, np.full((5, 5), 3.0))
        assert grid_gradient_lorentz_norm(u.gradient_field(), LorentzParams(2, 1)) == 0.0

    def test_cone_profile_gradient_norm(self):
        # |grad u| = indicator of a ball: norm d * |B|^(1/d); the grid
        # surrogate converges to it
        d, r = 2, 0.25
        exact_field = CellField(np.array([1.0]), math.pi * r**2)
        expect = d * (math.pi * r**2) ** (1 / d)
        assert lorentz_norm(exact_field, LorentzParams(d, 1)) == pytest.approx(
            expect, rel=1e-12
        )
        u = _on_grid(
            lambda x, y: np.maximum(0.0, r - np.hypot(x - 0.5, y - 0.5)), 2, 128
        )
        assert grid_gradient_lorentz_norm(u.gradient_field(), LorentzParams(2, 1)) == pytest.approx(
            expect, rel=0.05
        )


class TestSupNormDispatch:
    def test_curve_sup(self):
        f = StepFunction1D([0, Fraction(1, 2), 1], [Fraction(2), Fraction(-2)])
        assert volterra_apply(f).sup_norm() == 1


def test_distribution_of_grid_gradient():
    u = _on_grid(lambda x, y: x, 2, 4)  # |grad| = 1 per cell
    assert _distribution(u.gradient_field(), 0.5) == pytest.approx(1.0, abs=1e-12)
    assert _distribution(u.gradient_field(), 1.0) == 0.0


def test_random_step_function_reproducible():
    a = random_step_function(np.random.default_rng(5))
    b = random_step_function(np.random.default_rng(5))
    assert a == b
