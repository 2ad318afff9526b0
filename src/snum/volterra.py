"""The integration operator f -> (t -> integral of f over [0, t]) on step
functions, acting exactly: the image is piecewise linear with the same
breakpoints, so its supremum norm is the exact maximum over node values."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .spaces import MeanZeroTag, StepFunction1D


@dataclass(frozen=True)
class VolterraCurve:
    """Continuous piecewise-linear antiderivative of a step function."""

    breakpoints: tuple
    node_values: tuple

    def __post_init__(self):
        if len(self.breakpoints) != len(self.node_values):
            raise ValueError("one node value per breakpoint")

    def sup_norm(self):
        # the max of |piecewise linear| sits at a breakpoint
        return max(abs(v) for v in self.node_values)

    def oscillation(self):
        return max(self.node_values) - min(self.node_values)

    def __call__(self, t):
        if not 0 <= t <= 1:
            raise ValueError("t outside [0, 1]")
        bps, vals = self.breakpoints, self.node_values
        for i in range(len(bps) - 1):
            if t <= bps[i + 1]:
                width = bps[i + 1] - bps[i]
                lam = (t - bps[i]) / width
                return (1 - lam) * vals[i] + lam * vals[i + 1]
        return vals[-1]

    def sample(self, ts) -> np.ndarray:
        """``[float(self(t)) for t in ts]`` as one array expression with the
        same float arithmetic: on the first piece whose right end is >= t,
        lam = (t - bp_i) / width_i and the value is
        (1 - lam) v_i + lam v_{i+1}.  Bit-for-bit equal to the pointwise
        calls when every breakpoint is a float (or converts to one exactly,
        as dyadic rationals do)."""
        ts = np.asarray(ts, dtype=float)
        if ts.size and not (0 <= ts.min() and ts.max() <= 1):
            raise ValueError("t outside [0, 1]")
        bps = np.array([float(b) for b in self.breakpoints])
        widths = np.array([float(b - a) for a, b in zip(self.breakpoints, self.breakpoints[1:])])
        vals = np.array([float(v) for v in self.node_values])
        i = np.clip(np.searchsorted(bps, ts) - 1, 0, len(widths) - 1)
        lam = (ts - bps[i]) / widths[i]
        return (1 - lam) * vals[i] + lam * vals[i + 1]


def volterra_apply(f: StepFunction1D) -> VolterraCurve:
    """Exact antiderivative; linear in f."""
    acc = [f.breakpoints[0] * 0]  # zero of the ambient number type
    for v, l in zip(f.values, f.lengths()):
        acc.append(acc[-1] + v * l)
    return VolterraCurve(tuple(f.breakpoints), tuple(acc))


def mean_zero_project(f: StepFunction1D) -> StepFunction1D:
    """Subtract the mean; the result integrates to 0 (exactly on exact data)."""
    m = f.integral()
    return StepFunction1D(f.breakpoints, [v - m for v in f.values])


def dipole(cell_a: int, cell_b: int, cells: int) -> StepFunction1D:
    """Unit-mass element: +mass on cell_a, -mass on cell_b of a uniform grid."""
    if cell_a == cell_b:
        raise ValueError("dipole needs two distinct cells")
    height = Fraction(cells, 2)
    values = [Fraction(0)] * cells
    values[cell_a] = height
    values[cell_b] = -height
    return StepFunction1D([Fraction(i, cells) for i in range(cells + 1)], values)


def operator_norm_discrete(cells: int):
    """Supremum of ||Vf||_inf over mean-zero unit-mass step functions on the
    uniform grid.

    The feasible set {sum f_i = 0, ||f||_1 <= 1} is a polytope and ||Vf||_inf
    is convex, so the supremum is attained at an extreme point: the two-cell
    dipoles, every one of which attains exactly 1/2.

    Returns ``(value, witness)`` with the value exact.
    """
    if cells < 2:
        raise ValueError("mean-zero nontrivial functions need at least 2 cells")
    witness = dipole(0, 1, cells)
    attained = volterra_apply(witness).sup_norm()
    assert attained == Fraction(1, 2) and witness.l1_norm() == 1
    # upper bound: |Vf(t)| = |(I_t - I_t^c)/2| <= ||f||_1 / 2 for mean-zero f,
    # and every dipole (the extreme points) attains mass/2 = 1/2 exactly
    return Fraction(1, 2), witness


def oscillation_bound_holds(f: StepFunction1D, tol=0) -> bool:
    """max_{u,v} |Vf(u) - Vf(v)| <= ||f||_1 / 2 for mean-zero f."""
    MeanZeroTag(tolerance=max(tol, 1e-12)).require(f)
    curve = volterra_apply(f)
    return curve.oscillation() <= f.l1_norm() / 2 + tol
