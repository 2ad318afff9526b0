from fractions import Fraction

import numpy as np
import pytest

from snum.snumbers import two_sided_spike
from snum.spaces import StepFunction1D
from snum.volterra import (
    VolterraCurve,
    dipole,
    mean_zero_project,
    operator_norm_discrete,
    oscillation_bound_holds,
    volterra_apply,
)


def _slopes(curve):
    """The integrand's piece values, recovered from the curve (the inverse map)."""
    nodes, values = curve.breakpoints, curve.node_values
    return tuple((values[i + 1] - values[i]) / (nodes[i + 1] - nodes[i])
                 for i in range(len(nodes) - 1))


class TestVolterraApply:
    def test_tent(self):
        f = StepFunction1D([0, Fraction(1, 2), 1], [Fraction(2), Fraction(-2)])
        curve = volterra_apply(f)
        assert curve.node_values == (0, 1, 0)
        assert curve(Fraction(1, 2)) == 1
        assert curve.sup_norm() == 1

    def test_zero(self):
        curve = volterra_apply(StepFunction1D([Fraction(0), Fraction(1)], [Fraction(0)]))
        assert curve.sup_norm() == 0

    def test_spike_family_two_point_values(self):
        f = two_sided_spike(3)
        curve = volterra_apply(f)
        assert curve(Fraction(0)) == 0
        assert curve(Fraction(1, 8)) == Fraction(1, 2)
        assert f.l1_norm() == 1

    def test_boundary_value_vanishes_for_mean_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            f = mean_zero_project(
                StepFunction1D.from_cells(
                    [Fraction(int(v)) for v in rng.integers(-8, 9, size=12)],
                    exact=True,
                )
            )
            assert volterra_apply(f).node_values[-1] == 0

    def test_linearity_exact(self):
        f = StepFunction1D([0, Fraction(1, 3), 1], [Fraction(3), Fraction(-1)])
        g = StepFunction1D([0, Fraction(1, 2), 1], [Fraction(-2), Fraction(5)])
        lhs = volterra_apply(f * Fraction(2) + g * Fraction(-3))
        a, b = volterra_apply(f), volterra_apply(g)
        for t in [Fraction(0), Fraction(1, 6), Fraction(1, 3), Fraction(2, 3), Fraction(1)]:
            assert lhs(t) == 2 * a(t) - 3 * b(t)

    def test_slopes_recover_integrand(self):
        # the reduction is an isometry: the slope field is the function itself
        f = StepFunction1D([0, Fraction(1, 4), 1], [Fraction(5), Fraction(-2)])
        curve = volterra_apply(f)
        assert _slopes(curve) == f.values
        assert sum(abs(s) * l for s, l in zip(_slopes(curve), f.lengths())) == f.l1_norm()


class TestOperatorNorm:
    @pytest.mark.parametrize("cells", [2, 16, 256])
    def test_half_exactly(self, cells):
        value, witness = operator_norm_discrete(cells)
        assert value == Fraction(1, 2)
        assert witness.l1_norm() == 1
        assert volterra_apply(witness).sup_norm() == Fraction(1, 2)

    def test_too_few_cells(self):
        with pytest.raises(ValueError):
            operator_norm_discrete(1)

    def test_random_mean_zero_never_beats_half(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            vals = [Fraction(int(v)) for v in rng.integers(-9, 10, size=16)]
            f = mean_zero_project(StepFunction1D.from_cells(vals, exact=True))
            mass = f.l1_norm()
            if mass == 0:
                continue
            assert volterra_apply(f).sup_norm() <= mass / 2


class TestOscillation:
    def test_bound_holds_on_random(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            f = mean_zero_project(
                StepFunction1D.from_cells(rng.standard_normal(10).tolist())
            )
            mass = float(f.l1_norm())
            if mass < 1e-9:
                continue
            assert oscillation_bound_holds(f * (1.0 / mass), tol=1e-12)

    def test_requires_mean_zero(self):
        with pytest.raises(ValueError):
            oscillation_bound_holds(StepFunction1D.indicator(0, 0.5))


class TestMeanZeroProject:
    def test_constant_projects_to_zero(self):
        f = StepFunction1D.indicator(0, 1, exact=True)
        assert mean_zero_project(f).l1_norm() == 0

    def test_half_indicator(self):
        f = StepFunction1D.indicator(0, Fraction(1, 2), exact=True)
        g = mean_zero_project(f)
        assert g.values == (Fraction(1, 2), Fraction(-1, 2))

    def test_exact_mean_zero(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            f = StepFunction1D.from_cells(
                [Fraction(int(v), 4) for v in rng.integers(-20, 21, size=9)],
                exact=True,
            )
            assert mean_zero_project(f).integral() == 0


def test_dipole_structure():
    f = dipole(0, 3, 8)
    assert f.l1_norm() == 1 and f.integral() == 0
    curve = volterra_apply(f)
    assert curve.sup_norm() == Fraction(1, 2)


def test_curve_validation():
    with pytest.raises(ValueError):
        VolterraCurve((0, 1), (0, 1, 2))
