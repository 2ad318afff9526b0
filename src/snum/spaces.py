"""Step functions on the unit interval, Lorentz rearrangement norms, and
grid Sobolev functions on the unit cube.

All one-dimensional objects are exact step functions; every norm here is
evaluated in closed form per constancy interval of the distribution function,
so there is no quadrature error anywhere.  Two arithmetic modes exist: exact
rational (``Fraction`` data, used for witness constructions) and double
precision (used for searches).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

EXACT = "exact"
FLOAT = "float"


class UnsupportedRegimeError(ValueError):
    """Lorentz parameters outside the supported range 1 <= q <= p."""


class ExactValueError(ArithmeticError):
    """Requested an exact rational value that does not exist (irrational root)."""


class GridMismatchError(ValueError):
    """Grids of the operands are incompatible (not equal or nested)."""


def _sum_left(terms):
    """0 + t_0 + t_1 + ..., added left to right: exact for ``Fraction``
    terms, and for floats the same bits on every Python (the builtin
    ``sum`` compensates float sums from Python 3.12 on)."""
    return functools.reduce(operator.add, terms, 0)


def _is_rational(x) -> bool:
    return isinstance(x, Rational)


def _nth_root_exact(value: Fraction, n: int) -> Fraction:
    """Exact n-th root of a nonnegative Fraction, or ExactValueError."""
    if value < 0:
        raise ExactValueError("root of a negative value")
    if value == 0:
        return Fraction(0)

    def iroot(m: int) -> int:
        if m < 2 or n == 1:
            r = m
        else:
            r = 1 << ((m.bit_length() + n - 1) // n)  # Newton from above
            while True:
                nr = ((n - 1) * r + m // r ** (n - 1)) // n
                if nr >= r:
                    break
                r = nr
        if r**n != m:
            raise ExactValueError(f"{m} has no exact integer {n}-th root")
        return r

    return Fraction(iroot(value.numerator), iroot(value.denominator))


def _pow_exact(base: Fraction, expo: Fraction) -> Fraction:
    """base**expo as an exact Fraction, or ExactValueError."""
    base = Fraction(base)
    expo = Fraction(expo)
    if base == 0:
        if expo <= 0:
            raise ExactValueError("0 ** nonpositive exponent")
        return Fraction(0)
    powered = base ** expo.numerator
    return _nth_root_exact(powered, expo.denominator)


@dataclass(frozen=True)
class LorentzParams:
    """Parameters (p, q) of the rearrangement norm, restricted to 1 <= q <= p."""

    p: object
    q: object

    def __post_init__(self):
        if not self.p >= 1:
            raise UnsupportedRegimeError(f"p = {self.p} < 1")
        if not 1 <= self.q:
            raise UnsupportedRegimeError(f"q = {self.q} < 1")
        if self.q > self.p:
            raise UnsupportedRegimeError(
                f"q = {self.q} > p = {self.p}: outside the supported regime"
            )

    @property
    def is_rational(self) -> bool:
        return _is_rational(self.p) and _is_rational(self.q)


@dataclass(frozen=True)
class MeanZeroTag:
    """Asserts |integral of f| <= tolerance (0 in exact mode)."""

    tolerance: object = 0

    def __post_init__(self):
        if self.tolerance < 0:
            raise ValueError("tolerance must be nonnegative")

    def admits(self, f: "StepFunction1D") -> bool:
        return abs(f.integral()) <= self.tolerance

    def require(self, f: "StepFunction1D") -> None:
        if not self.admits(f):
            raise ValueError(
                f"function has mean {float(f.integral()):.3e}, "
                f"beyond tolerance {self.tolerance}"
            )


class StepFunction1D:
    """A function on [0, 1] with finitely many constant pieces.

    ``breakpoints`` is a strictly increasing sequence starting at 0 and ending
    at 1; ``values[i]`` is the value on (breakpoints[i], breakpoints[i+1]).
    Zero-length pieces are forbidden at construction.
    """

    __slots__ = ("breakpoints", "values")

    def __init__(self, breakpoints, values):
        breakpoints = tuple(breakpoints)
        values = tuple(values)
        if len(breakpoints) < 2:
            raise ValueError("need at least one piece")
        if len(values) != len(breakpoints) - 1:
            raise ValueError("piece count must equal breakpoint count - 1")
        if breakpoints[0] != 0 or breakpoints[-1] != 1:
            raise ValueError("breakpoints must start at 0 and end at 1")
        for a, b in zip(breakpoints, breakpoints[1:]):
            if not b > a:
                raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", breakpoints)
        object.__setattr__(self, "values", values)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("StepFunction1D is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_cells(cls, values, exact: bool = False):
        """Uniform grid function with len(values) equal cells."""
        n = len(values)
        if exact:
            bps = [Fraction(i, n) for i in range(n + 1)]
        else:
            bps = [i / n for i in range(n + 1)]
        return cls(bps, values)

    @classmethod
    def indicator(cls, a, b, height=1, exact: bool = False):
        """height * characteristic function of (a, b)."""
        zero = Fraction(0) if exact else 0.0
        one = Fraction(1) if exact else 1.0
        if exact:
            a, b = Fraction(a), Fraction(b)
        if not 0 <= a < b <= 1:
            raise ValueError("need 0 <= a < b <= 1")
        bps, vals = [zero], []
        if a > 0:
            bps.append(a)
            vals.append(zero)
        vals.append(height)
        if b < 1:
            bps.append(b)
            vals.append(zero)
        bps.append(one)
        return cls(bps, vals)

    # -- structure ----------------------------------------------------------

    @property
    def piece_count(self) -> int:
        return len(self.values)

    @property
    def is_exact(self) -> bool:
        return all(_is_rational(x) for x in self.breakpoints) and all(
            _is_rational(v) for v in self.values
        )

    def lengths(self):
        return tuple(b - a for a, b in zip(self.breakpoints, self.breakpoints[1:]))

    def canonicalize(self) -> "StepFunction1D":
        """Merge adjacent equal-valued pieces; norm-preserving."""
        bps = [self.breakpoints[0]]
        vals = []
        for i, v in enumerate(self.values):
            if vals and v == vals[-1]:
                bps[-1] = self.breakpoints[i + 1]
                continue
            vals.append(v)
            bps.append(self.breakpoints[i + 1])
        return StepFunction1D(bps, vals)

    def refine(self, breakpoints) -> "StepFunction1D":
        """Same function represented on the union of breakpoint sets."""
        merged = sorted(set(self.breakpoints) | set(breakpoints))
        vals = []
        j = 0
        for a in merged[:-1]:
            while self.breakpoints[j + 1] <= a:
                j += 1
            vals.append(self.values[j])
        return StepFunction1D(merged, vals)

    @staticmethod
    def common_refinement(f: "StepFunction1D", g: "StepFunction1D"):
        bps = sorted(set(f.breakpoints) | set(g.breakpoints))
        return f.refine(bps), g.refine(bps)

    # -- algebra ------------------------------------------------------------

    def __add__(self, other):
        f, g = StepFunction1D.common_refinement(self, other)
        return StepFunction1D(f.breakpoints, [a + b for a, b in zip(f.values, g.values)])

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, c):
        return StepFunction1D(self.breakpoints, [c * v for v in self.values])

    def __mul__(self, c):
        return self.__rmul__(c)

    def __eq__(self, other):
        if not isinstance(other, StepFunction1D):
            return NotImplemented
        a, b = StepFunction1D.common_refinement(self.canonicalize(), other.canonicalize())
        return a.breakpoints == b.breakpoints and a.values == b.values

    def __hash__(self):
        # equal functions share one canonical form, and equal numbers of any
        # type share one hash
        c = self.canonicalize()
        return hash((c.breakpoints, c.values))

    # -- integrals ----------------------------------------------------------

    def integral(self):
        return _sum_left(v * l for v, l in zip(self.values, self.lengths()))

    def l1_norm(self):
        return _sum_left(abs(v) * l for v, l in zip(self.values, self.lengths()))

    def integrate_against(self, g: "StepFunction1D"):
        """Exact integral of self * g."""
        f, g = StepFunction1D.common_refinement(self, g)
        return _sum_left(a * b * l for a, b, l in zip(f.values, g.values, f.lengths()))


@dataclass(frozen=True)
class CellField:
    """A cellwise-constant scalar field: flat values with a common cell measure."""

    values: np.ndarray
    cell_measure: float

    def value_measure_pairs(self):
        vals = np.abs(np.asarray(self.values, dtype=float)).ravel()
        return vals, np.full(vals.shape, float(self.cell_measure))


def _value_measure_pairs(f):
    if isinstance(f, StepFunction1D):
        return (
            np.abs(np.array([float(v) for v in f.values])),
            np.array([float(l) for l in f.lengths()]),
        )
    if isinstance(f, CellField):
        return f.value_measure_pairs()
    raise TypeError(f"no distribution data for {type(f).__name__}")


def _layer_intervals(f):
    """Thresholds 0 = t_0 < ... < t_M and measures mu_i = |{|f| > t_{i-1}}|,
    as arrays."""
    vals, meas = _value_measure_pairs(f)
    if isinstance(f, CellField):  # one common measure: sorted, it is the same array
        vals = np.sort(vals)
    else:
        order = np.argsort(vals)
        vals, meas = vals[order], meas[order]
    cum = np.concatenate([[0.0], np.cumsum(meas)])
    first = vals != 0.0  # the first nonzero entry of each run of equal values
    first[1:] &= vals[1:] != vals[:-1]
    starts = np.flatnonzero(first)
    # measure strictly above each level's predecessor
    mus = float(meas.sum()) - cum[starts]
    return np.concatenate([[0.0], vals[starts]]), mus


def lorentz_norm(f, params: LorentzParams, mode: str = FLOAT):
    """Rearrangement norm with distribution-function layers in closed form.

    The distribution function of a step/cell function is itself a step
    function of the threshold, so the defining integral is a finite sum of
    closed-form antiderivatives.  Homogeneous of degree 1.
    """
    if not isinstance(params, LorentzParams):
        params = LorentzParams(*params)
    if mode == EXACT:
        return _lorentz_norm_exact(f, params)
    p, q = float(params.p), float(params.q)
    ts, mus = _layer_intervals(f)
    if not len(mus):
        return 0.0
    if q == 1.0:
        return float(p * np.sum(mus ** (1.0 / p) * np.diff(ts)))
    acc = (p / q) * np.sum(mus ** (q / p) * np.diff(ts**q))
    return float(acc ** (1.0 / q))


def _lorentz_norm_exact(f, params: LorentzParams) -> Fraction:
    if not isinstance(f, StepFunction1D):
        raise ExactValueError("exact mode needs a StepFunction1D")
    if not (f.is_exact and params.is_rational):
        raise ExactValueError("exact mode needs rational data")
    p, q = Fraction(params.p), Fraction(params.q)
    layers = {}
    for v, l in zip(f.values, f.lengths()):
        if v != 0:
            layers[abs(v)] = layers.get(abs(v), Fraction(0)) + l
    if not layers:
        return Fraction(0)
    thresholds = sorted(layers)
    mu_above = Fraction(0)
    acc = Fraction(0)
    prev = [Fraction(0)] + thresholds[:-1]
    # mu on [t_{i-1}, t_i) is the total measure of levels >= t_i
    running = sum(layers.values())
    for lo, hi in zip(prev, thresholds):
        mu = running
        acc += (p / q) * _pow_exact(mu, q / p) * (hi**q - lo**q)
        running -= layers[hi]
    return _pow_exact(acc, 1 / q)


class GridFunction:
    """Continuous piecewise-multilinear function on the uniform grid over (0,1)^d.

    ``values`` holds the nodal values on a box of nodes that starts at node
    ``origin`` and has ``values.shape``; every node outside the box is 0.  A
    function on the whole grid is the box that covers it: origin 0 and shape
    ``(cells_per_side + 1,) * dim``.  The gradient surrogate is the
    multilinear gradient evaluated at cell centers, one constant vector per
    cell.
    """

    __slots__ = ("dim", "cells_per_side", "values", "origin", "boundary_zero")

    def __init__(self, dim, cells_per_side, values, boundary_zero=False, origin=None):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        nv = np.asarray(values, dtype=float)
        nodes = cells_per_side + 1
        if origin is None:  # the whole grid
            if nv.shape != (nodes,) * dim:
                raise GridMismatchError(
                    f"values of shape {nv.shape} do not match the grid's node "
                    f"shape {(nodes,) * dim}"
                )
            origin = (0,) * dim
        else:
            origin = tuple(int(o) for o in origin)
            if (nv.ndim != dim or len(origin) != dim
                    or any(o < 0 or o + s > nodes for o, s in zip(origin, nv.shape))):
                raise GridMismatchError(
                    f"a box of shape {nv.shape} at node {origin} leaves the grid's "
                    f"node shape {(nodes,) * dim}"
                )
        if boundary_zero:
            for a in range(dim):  # only box faces that lie on the grid's boundary
                faces = [0] if origin[a] == 0 else []
                if origin[a] + nv.shape[a] == nodes:
                    faces.append(-1)
                if any(np.any(np.take(nv, f, axis=a) != 0.0) for f in faces):
                    raise ValueError("boundary_zero set but boundary nodes are not 0")
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "cells_per_side", int(cells_per_side))
        object.__setattr__(self, "values", nv)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "boundary_zero", bool(boundary_zero))

    def __setattr__(self, *a):
        raise AttributeError("GridFunction is immutable")

    @property
    def box(self) -> tuple:
        """The slices of the full node grid that ``values`` covers."""
        return tuple(slice(o, o + s) for o, s in zip(self.origin, self.values.shape))

    @property
    def nodal_values(self) -> np.ndarray:
        """Read-only values at every node, shape ``(cells_per_side + 1,) * dim``."""
        if self.values.shape == (self.cells_per_side + 1,) * self.dim:
            full = self.values.view()
        else:
            full = np.zeros((self.cells_per_side + 1,) * self.dim)
            full[self.box] = self.values
        full.flags.writeable = False
        return full

    def values_at(self, node_ids) -> np.ndarray:
        """``nodal_values[node_ids]`` for nonnegative node ids, one integer
        array per axis, read from the box alone."""
        rel = [np.asarray(ids) - o for ids, o in zip(node_ids, self.origin)]
        inside = np.logical_and.reduce(
            [(r >= 0) & (r < s) for r, s in zip(rel, self.values.shape)]
        )
        out = np.zeros(inside.shape)
        out[inside] = self.values[tuple(r[inside] for r in rel)]
        return out

    @classmethod
    def random_interior(cls, rng, dim, cells_per_side, scale=1.0):
        """Gaussian nodal values on interior nodes, zero trace."""
        shape = (cells_per_side + 1,) * dim
        nv = np.zeros(shape)
        interior = (slice(1, -1),) * dim
        nv[interior] = scale * rng.standard_normal((cells_per_side - 1,) * dim)
        return cls(dim, cells_per_side, nv, boundary_zero=True)

    def combine(self, others, coefficients) -> "GridFunction":
        """The whole-grid function sum_k c_k f_k, summed left to right.

        Each term is added into its own box only.  The dense sum would add
        c_k * 0 = +-0 elsewhere, which changes no value: the accumulator starts
        at +0 and a sum of two floats is -0 only when both are, so it never
        holds -0.
        """
        funcs = [self, *others]
        if any((f.dim, f.cells_per_side) != (self.dim, self.cells_per_side) for f in others):
            raise GridMismatchError("combined functions live on different grids")
        nv = np.zeros((self.cells_per_side + 1,) * self.dim)
        for c, f in zip(coefficients, funcs):
            nv[f.box] += c * f.values
        return GridFunction(self.dim, self.cells_per_side, nv,
                            boundary_zero=all(f.boundary_zero for f in funcs))

    def sup_norm(self) -> float:
        # multilinear max over a cell sits at a vertex, so the node max is
        # exact; the nodes outside the box are 0
        return float(np.abs(self.values).max(initial=0.0))

    def gradient_field(self) -> CellField:
        """|gradient| at cell centers, cellwise-constant surrogate."""
        h = 1.0 / self.cells_per_side
        sq = None
        for a in range(self.dim):
            g = np.diff(self.nodal_values, axis=a)
            for b in range(self.dim):
                if b == a:
                    continue
                lo = [slice(None)] * self.dim
                hi = [slice(None)] * self.dim
                lo[b] = slice(0, -1)
                hi[b] = slice(1, None)
                g = np.add(g[tuple(lo)], g[tuple(hi)])
                g *= 0.5
            g /= h
            np.square(g, out=g)  # np.diff and np.add made g: it is ours to overwrite
            sq = g if sq is None else np.add(sq, g, out=sq)
        return CellField(np.sqrt(sq, out=sq), h**self.dim)


def grid_gradient_lorentz_norm(field: CellField, params, cell_mask=None):
    """Lorentz norm of a cellwise-constant |gradient| field, as returned by
    ``GridFunction.gradient_field`` (computed once, it serves every mask).

    ``cell_mask`` (boolean array over cells) restricts to a subdomain; the
    restricted field is the gradient extended by zero outside the mask.
    """
    if not isinstance(field, CellField):
        raise GridMismatchError(f"expected CellField, got {type(field).__name__}")
    if cell_mask is not None:
        mask = np.asarray(cell_mask, dtype=bool)
        if mask.shape != field.values.shape:
            raise GridMismatchError("cell mask shape differs from the cell grid")
        field = CellField(field.values[mask], field.cell_measure)
    return lorentz_norm(field, params)


# -- serialization -----------------------------------------------------------


def _num_to_json(x):
    if type(x) is float:
        return x
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (int, np.integer)):
        return int(x)
    return float(x)


def _num_from_json(x):
    if isinstance(x, str):
        num, den = x.split("/")
        return Fraction(int(num), int(den))
    return x


def step_to_json_dict(f: StepFunction1D) -> dict:
    return {
        "type": "step1d",
        "breakpoints": [_num_to_json(b) for b in f.breakpoints],
        "values": [_num_to_json(v) for v in f.values],
    }


def from_json_dict(d: dict):
    kind = d.get("type")
    if kind == "step1d":
        return StepFunction1D(
            [_num_from_json(b) for b in d["breakpoints"]],
            [_num_from_json(v) for v in d["values"]],
        )
    raise ValueError(f"unknown serialized type {kind!r}")


def random_step_function(rng, max_pieces=12, exact=False, value_scale=4):
    """Random step function for the property-test corpus."""
    pieces = int(rng.integers(1, max_pieces + 1))
    if exact:
        denom = 64
        cuts = sorted(rng.choice(np.arange(1, denom), size=pieces - 1, replace=False).tolist()) if pieces > 1 else []
        bps = [Fraction(0)] + [Fraction(int(c), denom) for c in cuts] + [Fraction(1)]
        vals = [Fraction(int(rng.integers(-value_scale * 8, value_scale * 8 + 1)), 8) for _ in range(pieces)]
    else:
        cuts = np.sort(rng.uniform(size=pieces - 1)).tolist() if pieces > 1 else []
        bps = [0.0] + cuts + [1.0]
        vals = rng.normal(scale=value_scale, size=pieces).tolist()
    return StepFunction1D(bps, vals)
