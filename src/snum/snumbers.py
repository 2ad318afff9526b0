"""Certified lower and upper bounds for Approximation, Gelfand, Kolmogorov,
Bernstein and Isomorphism numbers of the discretized embeddings.

Every estimator returns an :class:`SNumberBound` carrying a serializable
witness.  Only certified values are meant for acceptance checks; searches
that run out of budget report ``inconclusive`` rather than a false witness.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import NamedTuple

import numpy as np

from .hilbert import hilbert_order
from .john import uniform_john_constant
from .spaces import (
    EXACT,
    FLOAT,
    CellField,
    ExactValueError,
    GridFunction,
    GridMismatchError,
    LorentzParams,
    MeanZeroTag,
    StepFunction1D,
    _num_to_json,
    _sum_left,
    grid_gradient_lorentz_norm,
    lorentz_norm,
    step_to_json_dict,
)
from .volterra import dipole, mean_zero_project, volterra_apply

KINDS = ("approximation", "gelfand", "kolmogorov", "bernstein", "isomorphism")

OPERATOR_NORM = Fraction(1, 2)  # the embedding norm anchors s_1


class DegenerateBasisError(ValueError):
    """Basis elements supplied to a subspace are linearly dependent."""


@dataclass
class SNumberBound:
    """A certified interval [lower, upper] for one s-number, with witness.

    ``operator`` names which map the scale belongs to ("interval" for the
    integration operator on the unit interval, "cube" for the grid Sobolev
    embedding); cross-kind consistency is only meaningful per operator.
    """

    kind: str
    n: int
    lower: object = None  # None means -infinity (no certified lower bound)
    upper: object = None  # None means +infinity
    witness: dict = field(default_factory=dict)
    mode: str = FLOAT
    status: str = "certified"
    label: str = ""
    operator: str = "interval"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.lower is not None and self.upper is not None:
            if not self.lower <= self.upper:
                raise ValueError(
                    f"lower {self.lower} exceeds upper {self.upper}"
                )

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "lower": None if self.lower is None else _num_to_json(self.lower),
            "upper": None if self.upper is None else _num_to_json(self.upper),
            "status": self.status,
            "mode": self.mode,
            "label": self.label,
            "operator": self.operator,
            "witness": self.witness,
        }


class Subspace:
    """A finite-dimensional subspace given by a linearly independent basis.

    A step-function subspace is its cell table: ``piece_values`` (dim, pieces)
    on the intervals of lengths ``piece_lengths`` between the float
    ``breakpoints``, which are the ``knots`` in the basis's own numbers.  The
    table is either a (dim, cells) float array of values on equal cells, or
    the common refinement of a ``StepFunction1D`` basis.
    """

    def __init__(self, basis):
        if isinstance(basis, np.ndarray):
            self.breakpoints = np.arange(basis.shape[1] + 1) / basis.shape[1]
            self.knots = self.breakpoints.tolist()
            self.piece_values = basis
            self.piece_lengths = np.diff(self.breakpoints)
        else:
            basis = self.basis = list(basis)
        self.dim = len(basis)
        if not self.dim:
            raise DegenerateBasisError("empty basis")
        if isinstance(basis[0], StepFunction1D):
            self.knots = sorted(set().union(*[set(f.breakpoints) for f in basis]))
            self.breakpoints = np.array([float(b) for b in self.knots])
            self.piece_values = np.array(
                [[float(v) for v in f.refine(self.knots).values] for f in basis]
            )
            self.piece_lengths = np.array([float(b - a) for a, b in zip(self.knots, self.knots[1:])])
        if isinstance(basis[0], (np.ndarray, StepFunction1D)):
            table = self.piece_values * np.sqrt(self.piece_lengths)  # L2 inner products
            gram = table @ table.T
        else:  # one vdot per pair of overlapping boxes, never one (dim, nodes) table
            if len({(f.dim, f.cells_per_side) for f in self.basis}) > 1:
                raise GridMismatchError("basis functions live on different grids")
            lo = np.array([f.origin for f in self.basis])
            hi = lo + np.array([f.values.shape for f in self.basis])
            overlaps = np.all((lo[:, None] < hi[None]) & (lo[None] < hi[:, None]), axis=2)
            gram = np.zeros((self.dim, self.dim))
            for i, j in zip(*np.nonzero(np.triu(overlaps))):
                start, stop = np.maximum(lo[i], lo[j]), np.minimum(hi[i], hi[j])
                common = [self.basis[k].values[tuple(map(slice, start - lo[k], stop - lo[k]))]
                          for k in (i, j)]
                gram[i, j] = gram[j, i] = np.vdot(*common)
        if np.linalg.matrix_rank(gram) < self.dim:
            raise DegenerateBasisError("basis Gram matrix is singular")

    @functools.cached_property
    def basis(self) -> list:
        """A table's rows as step functions, built on first use."""
        return [StepFunction1D(self.knots, row) for row in self.piece_values.tolist()]

    def cell_values(self, coefficients) -> np.ndarray:
        """The values of sum_k c_k f_k on the pieces, summed left to right."""
        out = self.piece_values[0] * coefficients[0]
        for c, row in zip(coefficients[1:], self.piece_values[1:]):
            out = out + row * c
        return out

    def element(self, coefficients):
        """The combination sum_k c_k f_k of the basis, summed left to right."""
        coefficients = [float(c) for c in coefficients]
        if not hasattr(self, "knots"):  # a grid basis
            return self.basis[0].combine(self.basis[1:], coefficients)
        return StepFunction1D(self.knots, self.cell_values(coefficients).tolist())


def random_mean_zero_step_subspace(rng, n: int, cells: int) -> Subspace:
    """Random n-dimensional subspace of mean-zero step functions on equal cells.

    Each row is projected as ``mean_zero_project`` projects a
    ``StepFunction1D.from_cells``: its mean is the left-to-right sum of
    value times cell length.
    """
    values = rng.standard_normal((n, cells))
    lengths = np.diff(np.arange(cells + 1) / cells)
    means = np.cumsum(values * lengths, axis=1)[:, -1]
    return Subspace(values - means[:, None])


def random_grid_subspace(rng, n: int, dim: int, cells_per_side: int) -> Subspace:
    basis = [
        GridFunction.random_interior(rng, dim, cells_per_side) for _ in range(n)
    ]
    return Subspace(basis)


@dataclass
class FactorizationWitness:
    """A factorization identity = A o T o B with computable norms."""

    eval_points: list
    building_blocks: list
    norm_a: object
    norm_b: object
    identity_checked: bool = False

    def to_json_dict(self) -> dict:
        return {
            "eval_points": [[_num_to_json(c) for c in np.atleast_1d(p)] for p in self.eval_points],
            "building_blocks": self.building_blocks,
            "norm_a": _num_to_json(self.norm_a),
            "norm_b": _num_to_json(self.norm_b),
            "identity_checked": self.identity_checked,
        }


@dataclass
class ZigzagWitness:
    """An element of the subspace alternating between -1 and +1 at the
    sorted integer array ``indices``."""

    element: np.ndarray
    indices: np.ndarray
    sup_norm_value: float
    coefficients: np.ndarray

    def __post_init__(self):
        alt = _alternation_target(len(self.indices))
        if np.abs(self.element[self.indices] - alt).max() > 1e-7:
            raise ValueError("element does not alternate at the given indices")


@dataclass
class ZigzagResult:
    witness: object
    status: str  # "certified" or "inconclusive"
    value: float
    evaluations: int
    # search counters, none of them serialized
    rescored: int = 0  # index sets scored on every row
    solved: int = 0  # index sets factored by LAPACK
    descents: int = 0  # exchange descents, from starts and from kicks
    peak_sweeps: int = 0  # exchange batches that bring in a peak row
    full_sweeps: int = 0  # batches of every one-index exchange
    escalated: bool = False  # the exhaustive sweep ran after the local search
    floor_reached: bool = False  # the witness scores at most FLOOR


def _alternation_target(n: int) -> np.ndarray:
    return np.array([(-1.0) ** (j + 1) for j in range(n)])


# alternation-search budgets
EXHAUSTIVE_LIMIT = 100_000  # index sets swept exhaustively up front
ESCALATION_LIMIT = 20_000_000  # index sets swept when local search fails
RESTARTS = 12  # local-search starting sets
KICKS = 24  # two-index perturbations of the incumbent per start
MAX_SWEEPS = 80  # exchange sweeps per descent
PEAK_ROWS = 4  # rows of largest |g| brought in before a full exchange sweep
CHUNK_SETS = 100_000  # index sets per chunk of a lexicographic sweep
BLOCK_ENTRIES = 1 << 22  # matrix entries per stacked block of index sets
FULL_ROW_ENTRIES = 1 << 14  # (set, row) values of a batch small enough to bound on every row
FLOOR = 1.0 + 1e-12  # no set scores below 1 (|g| = 1 at its own points): a search here is done
SCREEN_TOL = 16  # safety factor on the prune stages' first-order rounding bounds
SCREEN_COND_LIMIT = 1e6  # a hull edge worse conditioned than this keeps every row

SINGULAR_DET = 1e-12  # a set is singular when |det| of its unit rows is at most this

# closed-form first stage of the exact batches
CRAMER_MAX_N = 3  # the cofactor formulas of ``_cofactors`` stop at 3 x 3
LOG_RANGE = 746  # no positive double has |log x| above this

BERNSTEIN_LOWER_MAX_N = 3  # vertex enumeration is exhaustive up to this n


def _unit_row_dets(stack):
    """LAPACK's |det| of each (n, n) matrix of ``stack`` with every row
    divided by its norm, which no row's scale changes; nan for a zero row."""
    norms = np.sqrt((stack * stack).sum(axis=-1))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.abs(np.linalg.det(stack / norms[..., None]))


def _interpolants(matrix, sets, alt, good=None):
    """(coefficients, good) of the interpolant of ``alt`` on each index set:
    one square solve of the set's own rows, for the sets whose unit-row
    |det| exceeds ``SINGULAR_DET`` (``good``); the others keep zeros.

    ``sets`` is an (m, n) integer array.  A caller that already has that
    verdict for some sets (the closed form's, outside its band) passes them
    as ``good``: LAPACK's determinant is taken only of the others, and the
    known sets are solved directly.  The (sets, n, n) stack is built, tested
    and solved in blocks of at most ``BLOCK_ENTRIES`` entries; each set is
    factored on its own, so neither the blocks nor the verdicts handed in
    change its coefficients.
    """
    m, n = sets.shape
    coeffs = np.zeros((m, n))
    good = np.zeros(m, dtype=bool) if good is None else good.copy()
    step = max(1, BLOCK_ENTRIES // (n * n))
    for start in range(0, m, step):
        sub = matrix[sets[start:start + step]]  # (block, n, n)
        ok = good[start:start + step]  # a view: LAPACK's verdicts land in ``good``
        todo = ~ok
        if todo.any():
            ok[todo] = _unit_row_dets(sub if todo.all() else sub[todo]) > SINGULAR_DET
        if ok.any():
            coeffs[start:start + step][ok] = np.linalg.solve(sub[ok], alt)
    return coeffs, good


def _sup_values(matrix, coeffs):
    """max |matrix @ c| for each row c of ``coeffs``, each from its own
    product: a value does not depend on the batch it is scored in, and it is
    the sup norm that ``zigzag_find`` reports for the same coefficients."""
    return np.fromiter((np.abs(matrix @ c).max() for c in coeffs), float, len(coeffs))


class _Rows:
    """A search's (npts, n) matrix with what every batch reads of it, taken
    once: its columns as contiguous arrays (``columns``), max|m|
    (``scale``), the row norms (``norms``) and the sorted distinct peak rows
    of its columns (``peaks``, with their ``peak_columns``)."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.columns = np.ascontiguousarray(matrix.T)
        size = np.abs(matrix)
        self.scale = size.max()
        self.norms = np.sqrt((matrix * matrix).sum(axis=1))
        self.peaks = np.unique(size.argmax(axis=0))
        self.peak_columns = self.columns[:, self.peaks]
        # ``_row_lower_bounds``' slack per unit of ||c||_1
        self.row_slack = 2 * SCREEN_TOL * _gamma(matrix.shape[1]) * self.scale


def _peak_sample(rows, coeffs):
    """(sampled, values): the largest |m . c| over a sample of the rows of
    ``rows.matrix`` for each row c of ``coeffs``.  A batch of at most
    ``FULL_ROW_ENTRIES`` (set, row) values samples every row (``sampled`` is
    None); a larger one samples each column's peak row."""
    if len(coeffs) * len(rows.matrix) <= FULL_ROW_ENTRIES:
        g, sampled = coeffs @ rows.columns, None
    else:
        g, sampled = coeffs @ rows.peak_columns, rows.peaks
    return sampled, np.abs(g, out=g).max(axis=1)


def _row_lower_bounds(rows, coeffs, slack=None):
    """(lower, least): for each row c of ``coeffs`` a lower bound on
    max |matrix @ c| as any product rounds it, and an upper bound on the
    least of those values; (empty, inf) for no rows.

    The values are sampled (``_peak_sample``).  A small batch is sampled on
    every row, so the least sampled value is a full value and gives the
    upper bound.  A larger one is sampled on each column's peak row, then on
    the peak row of the set with the least sampled value, until that row is
    already in the sample; that set's full value is the upper bound.  In any
    summation order, with or without fused multiply-adds, a computed m . c
    is within gamma_n sum_k |m_k c_k| <= gamma_n max|m| ||c||_1 of the exact
    one (gamma_n = n u / (1 - n u)).  A sampled value and the full
    product's value at the same row both carry that error, so each bound
    moves by twice it, times the safety factor ``SCREEN_TOL``: the default
    ``slack`` of each set.
    """
    if not len(coeffs):
        return np.empty(0), math.inf
    if slack is None:
        slack = rows.row_slack * np.abs(coeffs).sum(axis=1)
    sampled, values = _peak_sample(rows, coeffs)
    k = int(np.argmin(values))
    if sampled is None:
        return values - slack, values[k] + slack[k]
    while True:
        g = np.abs(rows.matrix @ coeffs[k])
        peak = int(np.argmax(g))
        if peak in sampled:
            return values - slack, g[peak] + slack[k]
        sampled = np.append(sampled, peak)
        np.maximum(values, np.abs(coeffs @ rows.matrix[peak]), out=values)
        k = int(np.argmin(values))


@functools.cache
def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u): the relative error of k roundings."""
    u = np.finfo(float).eps / 2
    return k * u / (1 - k * u)


@functools.cache
def _band_margin(n: int) -> tuple:
    """(a, b): ``_CramerSets``' band around ``SINGULAR_DET`` is
    a + b |D| / H wide on either side, safety factor included."""
    kappa = _gamma(n) * n**1.5 * 2 ** (n - 1) + np.finfo(float).eps / 2
    return (SCREEN_TOL * (_gamma(2 * n - 1) * math.sqrt(n) + math.expm1(n * math.log1p(kappa))),
            SCREEN_TOL * _gamma((n + 3) * n * (LOG_RANGE + 2) + 2))


# C[j, k] = A[j+1, k+1] A[j+2, k+2] - A[j+1, k+2] A[j+2, k+1] of a 3 x 3
# matrix A, indices mod 3, as positions 3 j + k among A's nine entries: the
# two factors of the nine first products, then of the nine second ones
_COFACTOR_TERMS = np.array([[3 * ((j + 1) % 3) + (k + a) % 3, 3 * ((j + 2) % 3) + (k + b) % 3]
                            for a, b in ((1, 2), (2, 1)) for j in range(3) for k in range(3)]).T


def _cofactors(A):
    """The cofactors C[j, k] of the matrices A[:, :, i] of an (n, n, m)
    array, written out for n <= 3."""
    n = len(A)
    if n == 1:
        return np.ones_like(A)
    if n == 2:  # C[j, k] = (-1)^(j+k) A[1-j, 1-k]
        return A[::-1, ::-1] * np.array([[1.0, -1.0], [-1.0, 1.0]])[:, :, None]
    flat = A.reshape(9, -1)
    terms = flat.take(_COFACTOR_TERMS[0], axis=0) * flat.take(_COFACTOR_TERMS[1], axis=0)
    return (terms[:9] - terms[9:]).reshape(3, 3, -1)


class _CramerSets:
    """Cramer's rule on each index set of an (m, n) array, n <= 3, with
    rounding bounds: the first stage in front of ``_interpolants``.

    The n^2 entries are gathered as contiguous (m,) columns of matrix.T; no
    (m, n, n) stack is built.  The explicit cofactors C give each
    determinant D and the numerators N = adj(A) b of c = N / D.  Only N
    depends on the right-hand side, so one instance serves every sign
    pattern b.  The bounds rest on the row norms r_j and their product H
    (Hadamard): a cofactor C[j, k] and the sum of the absolute products it
    is formed from are at most H / r_j, so the adjugate's absolute entries
    sum to at most W = n^2 H / min r, and D's products to sqrt(n) H.

    ``good``, ``bad`` and ``band`` sort the sets by the verdict of
    ``_interpolants``: is |D| / H, the |det| of the unit rows, above
    ``SINGULAR_DET``?  To first order and before the safety factor
    ``SCREEN_TOL``, the closed form's |D| / H and LAPACK's differ by at most:
    - gamma_{2n-1} sqrt(n), the cofactor formula's rounding;
    - (1 + kappa)^n - 1, the LU backward error on unit rows: with growth
      <= 2^(n-1) a row moves by gamma_n n^1.5 2^(n-1), and by u more from
      its division by the row norm (kappa);
    - (n + 3) n (``LOG_RANGE`` + 2) + 2 roundings relative to |D| / H:
      (n + 3) n ``LOG_RANGE`` + 2 in numpy's exp(sum log|u_ii|), n + 1 in
      each row norm on either side, and n in H and the division by it.
    Outside that margin (``_band_margin``) the closed form gives LAPACK's
    verdict, so ``_interpolants`` takes it; inside it (``band``) LAPACK
    decides.
    """

    def __init__(self, rows, sets):
        n = sets.shape[1]
        At = rows.columns.take(sets.T, axis=1)  # At[k, j] = A[j, k] = matrix[sets[:, j], k]
        self.n, self.scale = n, rows.scale
        self.cof = _cofactors(At)  # the transposed cofactors, cof[k, j] = C[j, k]
        self.det = (At[:, 0] * self.cof[:, 0]).sum(axis=0)
        norms = rows.norms[sets.T]  # row norms, (n, m)
        H = norms.prod(axis=0)
        self.rmax, rmin = norms.max(axis=0), norms.min(axis=0)
        self.det_err = _gamma(2 * n - 1) * math.sqrt(n) * H
        self.size = np.abs(self.det)
        fixed, relative = _band_margin(n)
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero row lands in the band
            self.adj_total = n * n * H / rmin
            rel = self.size / H
            margin = fixed + relative * rel
            self.good = rel - margin > SINGULAR_DET
            self.bad = rel + margin < SINGULAR_DET
        self.band = ~(self.good | self.bad)

    def interpolants(self, alt):
        """(coefficients, slack) of the ``good`` sets for the signs ``alt``
        (entries +-1, so the products with them are exact).

        The coefficients c are within err of the exact interpolant's and of
        LAPACK's ``solve``, where, to first order and times ``SCREEN_TOL``,
        sum(err) = u ||c||_1 + (gamma_{3n} (1 + n 2^(n-1) max|a| ||c||_1) W
        + det_err ||c||_1) / (|D| - det_err): N carries gamma_{2n-2} W,
        D carries ``det_err``, and ``solve``'s backward error
        gamma_{3n} |L||U| <= gamma_{3n} n 2^(n-1) max|a| meets
        |inv(A)| <= |adj(A)| / |D|.  ``slack`` bounds how far a row-sampled
        value of c lies above the same sample of LAPACK's coefficients, less
        that one's own ``_row_lower_bounds`` slack:
        max|m| sum(err) + 2 (SCREEN_TOL + 1) gamma_n max|m| (||c||_1 + sum(err)).
        """
        n = self.n
        u = np.finfo(float).eps / 2
        with np.errstate(divide="ignore", invalid="ignore"):
            c = (self.cof * alt[:, None]).sum(axis=1) / self.det  # (n, m)
            norm = np.abs(c).sum(axis=0)
            lapack = _gamma(3 * n) * (1 + n * 2 ** (n - 1) * self.rmax * norm) * self.adj_total
            spread = SCREEN_TOL * (u * norm + (lapack + self.det_err * norm) / (self.size - self.det_err))
            slack = self.scale * spread + 2 * (SCREEN_TOL + 1) * _gamma(n) * self.scale * (norm + spread)
        return c.T[self.good], slack[self.good]


def _closed_form_survivors(rows, sets, alt, bound: float):
    """(keep, good): the mask of the index sets that the exact path of
    ``_best_of_sets`` must still see, in batch order, and the closed form's
    nonsingular verdicts (``_CramerSets.good``), which are LAPACK's.

    Kept are the sets in the singularity ``band`` and the good sets whose
    Cramer lower bound (``_row_lower_bounds`` with the Cramer slack) can
    reach min(``bound``, U), where U is the bound on the least Cramer value.
    The slack keeps each set's lower bound below its exact value, and U
    above the exact value of the set it comes from.  So every set whose
    exact value ties or beats the least one is kept, and the exact path
    picks the full batch's winner from the kept sets.
    """
    cramer = _CramerSets(rows, sets)
    coeffs, slack = cramer.interpolants(alt)
    lower, least = _row_lower_bounds(rows, coeffs, slack)
    keep = cramer.band.copy()
    keep[np.flatnonzero(cramer.good)[lower <= min(bound, least)]] = True
    return keep, cramer.good


class _BatchResult(NamedTuple):
    """A batch's winner (value inf and no set if none) and its counts."""

    value: float
    set: np.ndarray | None
    coeffs: np.ndarray | None
    rescored: int  # index sets scored on every row
    solved: int  # index sets factored by LAPACK


def _best_of_sets(rows, sets, alt, bound: float) -> _BatchResult:
    """The first index set with the least interpolation minimax on the
    ``_Rows`` ``rows``, its value and coefficients, when that value is below
    ``bound``; value inf (and no set) otherwise.  This is the search's one
    exact scorer.

    With dim E = n and n constraints the interpolant is generically unique:
    one square solve per set (``_interpolants``); a singular set has no
    interpolant and cannot win.  Up to ``CRAMER_MAX_N`` a closed-form stage
    (``_closed_form_survivors``) first drops the sets that cannot win, and
    hands its nonsingular verdicts on: LAPACK takes the determinant of the
    band's sets only and solves the rest.  Of those, only the sets whose
    row-sampled lower bound (``_row_lower_bounds``, on every row for a
    batch of at most ``FULL_ROW_ENTRIES`` values) can still reach
    min(``bound``, the least set's value) are scored on every row, each on
    its own (``_sup_values``); their number is ``rescored``.  Every other
    set's value exceeds that minimum or reaches ``bound``, so the winner and
    its value are those of the full value table.
    """
    known = None
    if sets.shape[1] <= CRAMER_MAX_N:
        keep, known = _closed_form_survivors(rows, sets, alt, bound)
        sets, known = sets[keep], known[keep]
    coeffs, good = _interpolants(rows.matrix, sets, alt, known)
    vals = np.full(len(sets), np.inf)
    idx = np.flatnonzero(good)
    lower, least = _row_lower_bounds(rows, coeffs[idx])
    idx = idx[lower <= min(bound, least)]
    vals[idx] = _sup_values(rows.matrix, coeffs[idx])
    if not vals.min(initial=math.inf) < bound:
        return _BatchResult(math.inf, None, None, len(idx), len(sets))
    k = int(np.argmin(vals))
    return _BatchResult(float(vals[k]), sets[k], coeffs[k], len(idx), len(sets))


def _symmetric_hull(points):
    """The vertices v_0, ..., v_h of half the boundary of conv{+-points} of
    an (m, 2) array, counterclockwise from a point v_0 of largest norm to
    v_h = -v_0; None when the walk does not get there in 2m steps.

    Gift wrapping (Jarvis, 1973): each step takes the point of least turn
    from the last edge, the farthest one among exact ties.  Rounding may add
    a near-collinear vertex or miss one; ``_gauge_bounds`` holds for any
    vertices that are rows or negated rows.
    """
    pts = np.concatenate([points, -points])
    start = pts[int(np.argmax((pts * pts).sum(axis=1)))]
    hull, edge = [start], np.array([-start[1], start[0]])  # v_0's tangent
    for _ in range(len(pts)):
        d = pts - hull[-1]
        dist = (d * d).sum(axis=1)
        turn = np.arctan2(edge[0] * d[:, 1] - edge[1] * d[:, 0], d @ edge)
        turn[dist == 0] = np.inf
        ties = np.flatnonzero(turn == turn.min())
        k = ties[np.argmax(dist[ties])]
        hull.append(pts[k])
        if (pts[k] == -start).all():
            return np.array(hull)
        edge = d[k]
    return None


def _gauge_bounds(matrix, rows):
    """(s, delta) for the given rows of an (npts, 2) matrix, or None: in
    floats every pair of ``rows`` that contains row i and that LAPACK
    solves scores at least (1 - delta_i) / s_i in ``_best_of_sets``.

    s_i = ||lam||_1 bounds the gauge of m_i in K = conv{+-m_r} from above,
    where m_i = lam B for the rows B = [p_1; p_2] of the hull edge
    (``_symmetric_hull``) that gives the least ||lam||_1; for the edge whose
    cone holds m_i that is the gauge itself.  Let c be the coefficients of
    a pair holding row i, E = max_r |m_r . c| exactly, mu = max|m| and
    beta = sum |inv(B)|.  The p_k are rows up to sign, so ||c||_1 <= beta E.
    With rho = m_i - lam B (the residual of the computed lam),
    |m_i . c| <= s E + |rho| beta E, and ``solve``'s backward error
    gamma_6 |L||U| <= 4 gamma_6 mu gives |m_i . c| >= 1 - 4 gamma_6 mu beta E;
    so E >= 1 / (s + e) with e = (|rho| + 4 gamma_6 mu) beta.  The computed
    value is at least E - gamma_2 mu ||c||_1 >= E (1 - gamma_2 mu beta), so
    at least (1 - delta) / s with delta = gamma_2 mu beta + e / s, to which
    the rounding of rho itself adds gamma_3 (1 + s) mu beta / s; the whole
    is times ``SCREEN_TOL``.  None when the hull walk fails or an edge is
    worse conditioned than ``SCREEN_COND_LIMIT``, where that first-order
    bound is not to be trusted.
    """
    points = matrix[rows]
    hull = _symmetric_hull(points)
    if hull is None:
        return None
    B = np.stack([hull[:-1], hull[1:]], axis=1)  # (h, 2, 2): edge k from v_k to v_k+1
    with np.errstate(divide="ignore", invalid="ignore"):
        if not (np.linalg.cond(B) <= SCREEN_COND_LIMIT).all():
            return None
    inv = np.linalg.inv(B)
    lam = points @ inv  # (h, m, 2): m_i = lam[k, i] @ B[k]
    norms = np.abs(lam).sum(axis=2)
    edge = norms.argmin(axis=0)
    i = np.arange(len(points))
    s, lam = norms[edge, i], lam[edge, i]
    rho = np.abs(points - (lam[:, None] @ B[edge])[:, 0]).max(axis=1)
    beta = np.abs(inv).sum(axis=(1, 2))[edge]
    mu = np.abs(matrix).max()
    with np.errstate(divide="ignore"):
        delta = SCREEN_TOL * beta * (rho + (4 * _gamma(6) + _gamma(2) * s + _gamma(3) * (1 + s)) * mu) / s
    return s, delta


def _best_pair(rows, cands, alt) -> _BatchResult:
    """``_best_of_sets`` on every pair of ``cands`` of the ``_Rows`` ``rows``
    in lexicographic order with no bound, handed only the pairs that can
    still win.

    A pair scores at least the bound (1 - delta_i) / s_i of each of its
    rows (``_gauge_bounds``), and only rows on the boundary of K have a
    bound near 1.  The first batch pairs the rows with s_i (1 + delta_i) >= 1;
    its least value V is at or above the least of all.  Every pair with a
    row whose bound exceeds V scores above V, so the rows whose bound is at
    most V hold every pair that can tie or beat V; when some of them are
    outside the first batch, a second batch pairs them all.  The batches
    keep the lexicographic order, and ``_best_of_sets`` scores each set on
    its own, so the winner, its value and its coefficients are those of the
    full batch.  Without bounds, or when the first batch has no nonsingular
    pair, every pair is scored.  The counts add up over the batches.
    """
    def best(picked):
        return _best_of_sets(rows, picked[np.stack(np.triu_indices(len(picked), 1), axis=1)], alt, math.inf)

    bounds = _gauge_bounds(rows.matrix, cands)
    if bounds is None:
        return best(cands)
    s, delta = bounds
    top = s * (1 + delta) >= 1
    first = best(cands[top])
    if first.set is None:
        picked = cands
    else:
        reach = 1 - delta <= first.value * s
        if not (reach & ~top).any():
            return first
        picked = cands[reach]
    last = best(picked)
    return _BatchResult(*last[:3], first.rescored + last.rescored, first.solved + last.solved)


def _subset_groups(m: int, n: int):
    """The n-subsets of range(m) in lexicographic order, as arrays of at
    most ``CHUNK_SETS`` rows or one prefix's sets.

    Each (n - 2)-prefix, itself from the (n - 2)-subsets of range(m - 2) in
    order, is followed by every pair of positions after its last one: a
    tail of the row-major ``np.triu_indices`` pairs of range(m).
    """
    if n == m:  # the one set: no prefix recursion
        yield np.arange(m)[None]
        return
    if n == 1:
        yield np.arange(m)[:, None]
        return
    if n == 2:
        yield np.stack(np.triu_indices(m, 1), axis=1)
        return
    pairs = np.stack(np.triu_indices(m, 1), axis=1)
    first = np.concatenate([[0], np.cumsum(np.arange(m - 1, -1, -1))])  # pairs with first index < s
    for prefixes in _combination_chunks(np.arange(m - 2), n - 2):
        starts = first[prefixes[:, -1] + 1]
        sizes = len(pairs) - starts
        ends = np.cumsum(sizes)
        done = 0
        while done < len(prefixes):  # whole prefixes, about CHUNK_SETS sets at a time
            stop = max(done + 1, int(np.searchsorted(ends, ends[done] - sizes[done] + CHUNK_SETS, "right")))
            counts = sizes[done:stop]
            owner = np.repeat(np.arange(done, stop), counts)
            offset = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
            yield np.concatenate([prefixes[owner], pairs[starts[owner] + offset]], axis=1)
            done = stop


def _combination_chunks(cands: np.ndarray, n: int):
    """The n-subsets of ``cands`` in lexicographic order, as integer arrays
    of ``CHUNK_SETS`` rows (the last one shorter).  While the caller holds a
    chunk, only the pieces of the next one and the current group of
    ``_subset_groups`` are kept."""
    pending, count = [], 0
    for group in _subset_groups(len(cands), n):
        start = 0
        while start < len(group):
            take = min(len(group) - start, CHUNK_SETS - count)
            pending.append(group[start:start + take])
            start, count = start + take, count + take
            if count == CHUNK_SETS:
                chunk, pending, count = cands[np.concatenate(pending)], [], 0
                yield chunk
        del group
    if pending:
        chunk, pending = cands[np.concatenate(pending)], []
        yield chunk


def _exchanges(T: np.ndarray, outside: np.ndarray) -> np.ndarray:
    """Every one-index exchange of the sorted set ``T``, each row sorted:
    row pos * len(outside) + j swaps T[pos] for outside[j]."""
    n, m = len(T), len(outside)
    swapped = np.empty((n, m, n), dtype=np.result_type(T, outside))
    swapped[:, :, :n - 1] = T[None].repeat(n, axis=0)[~np.eye(n, dtype=bool)].reshape(n, 1, n - 1)
    swapped[:, :, n - 1] = outside
    swapped.sort(axis=2)
    return swapped.reshape(n * m, n)


def zigzag_find(matrix, eps: float = 0.05, rng=None) -> ZigzagResult:
    """Find g in the column span of ``matrix`` with g(t_j) = (-1)^j at n
    increasing positions and near-minimal sup norm.

    Every candidate is the interpolant of the signs on a nonsingular index
    set, scored by ``_best_of_sets``; a singular set is never a candidate.
    Exhaustive over index sets (lexicographic, ties to the first = smallest
    optimum) when the count fits ``EXHAUSTIVE_LIMIT``; at n = 2 that sweep
    scores only the pairs of rows on or near the boundary of the symmetric
    hull of the rows (``_best_pair``), with the full sweep's winner and
    evaluation count.  Otherwise iterated
    local search (one-index exchange descent: the exchanges that bring in
    the ``PEAK_ROWS`` rows of largest |g| first, every exchange when none
    of those improves, stopping at ``FLOOR``; with random two-index kicks
    and restarts).  If the search cannot certify
    sup norm <= 1 + eps and the set count fits ``ESCALATION_LIMIT``, the
    exhaustive sweep settles it.  If no incumbent is left after that, one
    descent starts from each column's peak row.  Never returns a false
    witness: a failed search reports ``inconclusive`` with the best element
    found.
    """
    matrix = np.asarray(matrix, dtype=float)
    npts, n = matrix.shape
    if n > npts:
        raise ValueError("subspace dimension exceeds the ambient dimension")
    if rng is None:
        rng = np.random.default_rng(0)
    alt = _alternation_target(n)
    # the span is invariant under column rescaling; normalize for conditioning
    col_scale = np.abs(matrix).max(axis=0)
    if (col_scale == 0).any():
        raise ValueError("a basis column is identically zero")
    matrix = matrix / col_scale
    row_scale = np.abs(matrix).max(axis=1)
    is_cand = row_scale > 1e-12  # the largest entry is now 1
    cands = np.flatnonzero(is_cand)
    if len(cands) < n:
        raise ValueError("not enough nonzero evaluation points")
    rows = _Rows(matrix)

    best_val, best_T, best_c = math.inf, None, None
    evals = rescored = solved = descents = peak_sweeps = full_sweeps = 0
    escalated = False

    def counted(batch):
        nonlocal rescored, solved
        rescored += batch.rescored
        solved += batch.solved
        return batch[:3]

    def improve(val, T, c):
        nonlocal best_val, best_T, best_c
        if val < best_val - 1e-12:
            best_val, best_T, best_c = val, T, c

    def outside_of(T):  # the candidates not in T, ascending
        free = is_cand.copy()
        free[T] = False
        return np.flatnonzero(free)

    def exhaustive_sweep():
        nonlocal evals
        for sets in _combination_chunks(cands, n):
            evals += len(sets)
            improve(*counted(_best_of_sets(rows, sets, alt, best_val - 1e-12)))

    def sweep(T, incoming, bound):
        nonlocal evals
        evals += n * len(incoming)
        return counted(_best_of_sets(rows, _exchanges(T, incoming), alt, bound))

    def descend(T):
        # Remez's rule first: bring in the rows outside T where the incumbent
        # g deviates most; every exchange only when none of those improves
        nonlocal descents, peak_sweeps, full_sweeps
        descents += 1
        cur_val, _, cur_c = counted(_best_of_sets(rows, T[None], alt, math.inf))
        for _ in range(MAX_SWEEPS):
            if cur_val <= FLOOR:
                break
            outside = outside_of(T)
            val = math.inf
            if cur_c is not None:  # a singular start has no g
                g = np.abs(matrix[outside] @ cur_c)
                peak_sweeps += 1
                peaks = np.sort(outside[np.argsort(-g, kind="stable")[:PEAK_ROWS]])
                val, S, c = sweep(T, peaks, cur_val - 1e-12)
            if not val < cur_val - 1e-12:
                full_sweeps += 1
                val, S, c = sweep(T, outside, cur_val - 1e-12)
            if not val < cur_val - 1e-12:
                break
            cur_val, T, cur_c = val, S, c
        return cur_val, T, cur_c

    total_sets = comb(len(cands), n)
    if total_sets <= EXHAUSTIVE_LIMIT and n == 2:
        evals += total_sets
        improve(*counted(_best_pair(rows, cands, alt)))
    elif total_sets <= EXHAUSTIVE_LIMIT:
        exhaustive_sweep()
    else:
        spread = np.unique(np.linspace(0, len(cands) - 1, n).round().astype(int))
        starts = [cands[spread]] if len(spread) == n else []
        for _ in range(3):  # extremal rows of random span elements
            g = matrix @ rng.standard_normal(n)
            top = cands[np.argsort(-np.abs(g[cands]))[: max(n, 3 * n)]]
            starts.append(np.sort(rng.choice(top, size=n, replace=False)))
        while len(starts) < RESTARTS:
            starts.append(np.sort(rng.choice(cands, size=n, replace=False)))

        for T in starts:
            improve(*descend(T))
            # iterated local search: random two-index kicks off the incumbent;
            # C(P, n) > EXHAUSTIVE_LIMIT leaves at least two candidates outside
            for _ in range(KICKS):
                if best_T is None or best_val <= FLOOR:
                    break
                T = best_T.copy()
                outside = outside_of(T)
                for pos in rng.choice(n, size=min(2, n), replace=False):
                    T[pos] = rng.choice(outside)
                    outside = outside[outside != T[pos]]
                improve(*descend(np.sort(T)))
            if best_val <= FLOOR:
                break
        escalated = best_val > 1.0 + eps and total_sets <= ESCALATION_LIMIT
        if escalated:
            exhaustive_sweep()
        if best_T is None:
            # disjoint supports (cube hats): every exchange of a set missing
            # two columns is singular, so start from one peak row per column
            peaks = cands[np.abs(matrix[cands]).argmax(axis=0)]
            if len(np.unique(peaks)) == n:
                improve(*descend(np.sort(peaks)))

    counters = dict(rescored=rescored, solved=solved, descents=descents, peak_sweeps=peak_sweeps,
                    full_sweeps=full_sweeps, escalated=escalated, floor_reached=best_val <= FLOOR)
    if best_T is None:
        return ZigzagResult(None, "inconclusive", math.inf, evals, **counters)
    g = matrix @ best_c
    # coefficients go back to the caller's basis
    witness = ZigzagWitness(g, best_T, float(np.abs(g).max()), best_c / col_scale)
    status = "certified" if witness.sup_norm_value <= 1.0 + eps else "inconclusive"
    return ZigzagResult(witness, status, witness.sup_norm_value, evals, **counters)


# -- one-dimensional estimators ------------------------------------------------


def isomorphism_lower_1d(n: int, cells: int | None = None) -> SNumberBound:
    """Factorize the n-dimensional identity through the integration operator.

    Evaluation at the midpoints (2k-1)/(2n) composed with the alternating
    block synthesis B(x) = 2n sum x_k (chi_{I_{2k-1}} - chi_{I_{2k}}) is the
    identity, with ||A|| = 1 and ||B|| = 2n; all checks are exact rational.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if cells is None:
        cells = 2 * n
    if cells % (2 * n):
        raise ValueError(f"cells = {cells} is not divisible by 2n = {2 * n}")

    blocks = []
    for k in range(1, n + 1):
        lo = Fraction(k - 1, n)
        mid = Fraction(2 * k - 1, 2 * n)
        hi = Fraction(k, n)
        pos = StepFunction1D.indicator(lo, mid, height=Fraction(2 * n), exact=True)
        neg = StepFunction1D.indicator(mid, hi, height=Fraction(2 * n), exact=True)
        blocks.append(pos - neg)
    points = [Fraction(2 * k - 1, 2 * n) for k in range(1, n + 1)]

    for k, g in enumerate(blocks):
        curve = volterra_apply(g)
        for j, t in enumerate(points):
            expected = Fraction(1) if j == k else Fraction(0)
            if curve(t) != expected:
                raise AssertionError("identity composition failed exactly")
        if g.l1_norm() != 2:
            raise AssertionError("block mass is off")

    witness = FactorizationWitness(
        eval_points=points,
        building_blocks=[step_to_json_dict(g) for g in blocks],
        norm_a=Fraction(1),
        norm_b=Fraction(2 * n),
        identity_checked=True,
    )
    return SNumberBound(
        kind="isomorphism",
        n=n,
        lower=Fraction(1, 2 * n),
        witness={"factorization": witness.to_json_dict(), "cells": cells},
        mode=EXACT,
        status="certified",
        label="interval embedding: isomorphism >= 1/(2n)",
    )


def _volterra_node_matrix(subspace: Subspace) -> np.ndarray:
    """V-images of the basis at ``subspace.breakpoints``, one column each: the
    running sums of the refinement table.

    Piecewise-linear maxima live at nodes, so the sampled sup norm is exact.
    The result is C-contiguous, which keeps ``matrix @ c`` on one BLAS path.
    """
    matrix = np.zeros((len(subspace.breakpoints), subspace.dim))
    np.cumsum((subspace.piece_values * subspace.piece_lengths).T, axis=0, out=matrix[1:])
    return matrix


def bernstein_upper_1d(subspace: Subspace, eps: float = 0.05, rng=None) -> SNumberBound:
    """Alternation-based upper bound on the Bernstein ratio of the subspace.

    The pullback h of the alternating element has mass at least 2n by
    telescoping (the last leg uses the zero boundary value of the
    antiderivative), so inf ||Vf||_inf / ||f||_1 <= sup_norm(Vh) / (2n).

    Everything is read off the subspace's cell table with running sums, left
    to right: the basis integrals are the last row of the node matrix, and
    the node values of Vh are those of ``volterra_apply(h)``, whose curve
    returns them exactly at float breakpoints.
    """
    n = subspace.dim
    matrix = _volterra_node_matrix(subspace)
    for mean in matrix[-1]:
        if not abs(mean) <= 1e-9:
            raise ValueError(f"function has mean {mean:.3e}, beyond tolerance 1e-09")
    res = zigzag_find(matrix, eps=eps, rng=rng)
    if res.witness is None:
        return SNumberBound(
            kind="bernstein", n=n, status="inconclusive", mode=FLOAT,
            witness={"reason": "alternation search failed"},
            label="interval embedding: bernstein <= (1+eps)/(2n)",
        )
    w = res.witness
    h = subspace.cell_values([float(c) for c in w.coefficients])
    nu = w.sup_norm_value
    l1 = float(np.cumsum(np.abs(h) * subspace.piece_lengths)[-1])

    nodes = np.cumsum(np.concatenate(([0.0], h * subspace.piece_lengths)))[w.indices]
    # the legs 0 -> t_1 -> ... -> t_n, and the boundary leg |Vh(1) - Vh(t_n)|
    telescoping = np.abs(np.concatenate((nodes[:1], np.diff(nodes), nodes[-1:]))).tolist()
    if l1 < _sum_left(telescoping) - 1e-6:
        raise AssertionError("mass breakdown below the telescoping sum")

    ratio_at_h = nu / l1
    universal = (1.0 + eps) / (2 * n)
    return SNumberBound(
        kind="bernstein",
        n=n,
        upper=universal if res.status == "certified" else None,
        witness={
            "alternation_points": subspace.breakpoints[w.indices].tolist(),
            "sup_norm": nu,
            "mass": l1,
            "telescoping_terms": telescoping,
            "ratio_bound_for_subspace": ratio_at_h,
            "element": {"type": "step1d", "breakpoints": [_num_to_json(b) for b in subspace.knots],
                        "values": h.tolist()},
            "eps": eps,
        },
        mode=FLOAT,
        status=res.status,
        label="interval embedding: bernstein <= (1+eps)/(2n)",
    )


def bernstein_lower(subspace: Subspace) -> SNumberBound:
    """inf over the unit mass sphere of the subspace of the sup norm of the
    antiderivative.

    For n <= BERNSTEIN_LOWER_MAX_N the infimum is computed exactly: it equals
    1 / max ||f||_1 over the vertices of the polytope {max |Vf| <= 1}, and
    every vertex activates n node constraints.  Larger n is reported
    ``inconclusive``.
    """
    n = subspace.dim
    if n > BERNSTEIN_LOWER_MAX_N:
        return SNumberBound(
            kind="bernstein", n=n, status="inconclusive", mode=FLOAT,
            witness={"reason": f"vertex enumeration stops at n = {BERNSTEIN_LOWER_MAX_N}"},
            label="bernstein >= subspace ratio (exact enumeration)",
        )
    matrix = _volterra_node_matrix(subspace)
    col_scale = np.abs(matrix).max(axis=0)
    if (col_scale == 0).any():
        raise DegenerateBasisError("a basis element integrates to zero everywhere")
    matrix = matrix / col_scale
    piece_vals = subspace.piece_values.T / col_scale

    live = np.nonzero(np.abs(matrix).max(axis=1) > 1e-14)[0]
    if len(live) < n:
        raise DegenerateBasisError("not enough active nodes for a vertex")
    combos = np.concatenate(list(_combination_chunks(live, n)))
    rows = _Rows(matrix)
    cramer = _CramerSets(rows, combos)  # nothing in it depends on the signs
    good = np.flatnonzero(cramer.good)
    best_mass, best_c = 0.0, None
    for signs in itertools.product((1.0, -1.0), repeat=n - 1):
        sigma = np.array((1.0, *signs))  # global sign symmetry fixes the first
        # LAPACK solves the sets whose Cramer lower bound can pass the cut,
        # and takes the determinant of the band's sets only
        keep = cramer.band.copy()
        keep[good[_row_lower_bounds(rows, *cramer.interpolants(sigma))[0] <= 1.0 + 1e-9]] = True
        coeffs, ok = _interpolants(matrix, combos[keep], sigma, cramer.good[keep])
        # the feasibility cut, on the sets whose lower bound does not exclude it
        cs = coeffs[ok]
        cs = cs[_row_lower_bounds(rows, cs)[0] <= 1.0 + 1e-9]
        cs = cs[_sup_values(matrix, cs) <= 1.0 + 1e-9]
        if not len(cs):
            continue
        masses = np.abs(piece_vals @ cs.T).T @ subspace.piece_lengths
        k = int(np.argmax(masses))
        if masses[k] > best_mass:
            best_mass, best_c = float(masses[k]), cs[k]
    if best_c is None:
        raise DegenerateBasisError("no polytope vertex found")
    value = 1.0 / best_mass
    f_star = subspace.element(best_c / col_scale / best_mass)
    return SNumberBound(
        kind="bernstein",
        n=n,
        lower=value,
        witness={
            "method": "vertex enumeration",
            "minimizer": step_to_json_dict(f_star),
            "sphere_mass": float(f_star.l1_norm()),
        },
        mode=FLOAT,
        status="certified",
        label="bernstein >= subspace ratio (exact enumeration)",
    )


@dataclass
class GelfandCertificate:
    """Witness for the adversarial lower bound against finitely many functionals."""

    witness: StepFunction1D
    rho_bound: object
    split_point: object
    inner_products: list
    cell_measure: object


def gelfand_lower_adversary(functionals, eps) -> GelfandCertificate:
    """Build a unit-mass mean-zero witness almost annihilating the functionals.

    The functional values are quantized into cells of diameter < eps over
    [-M, M]; a largest common preimage cell Omega carries a dipole split at
    the measure median, giving Vf(x) = 1/2, ||f||_1 = 1 and
    |integral f g_k| <= eps, hence rho >= 1/2 - eps.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    functionals = list(functionals)
    exact = all(g.is_exact for g in functionals)
    if exact:
        eps_c = Fraction(eps) if not isinstance(eps, float) else Fraction(eps).limit_denominator(10**9)
        half_cell = eps_c / 2
    else:
        half_cell = eps / 2

    if functionals:
        bps = sorted(set().union(*[set(g.breakpoints) for g in functionals]))
        refined = [g.refine(bps) for g in functionals]
        bound = max(max(abs(v) for v in g.values) for g in refined)
        keys = {}
        for i in range(len(bps) - 1):
            key = tuple(
                int((g.values[i] + bound) // half_cell) for g in refined
            )
            length = bps[i + 1] - bps[i]
            acc = keys.setdefault(key, [0 * length, []])
            acc[0] = acc[0] + length
            acc[1].append(i)
        # largest-measure cell; lexicographic key for reproducible ties
        best_key = min(keys, key=lambda k: (-keys[k][0], k))
        measure, piece_ids = keys[best_key]
        omega = [(bps[i], bps[i + 1]) for i in piece_ids]
    else:
        bps = [Fraction(0), Fraction(1)]
        measure = Fraction(1)
        omega = [(Fraction(0), Fraction(1))]

    # split at the measure median of Omega
    target = measure / 2
    acc = 0 * measure
    x = None
    for a, b in omega:
        if acc + (b - a) >= target:
            x = a + (target - acc)
            break
        acc = acc + (b - a)
    height = 1 / measure if isinstance(measure, Fraction) else 1.0 / measure

    points = sorted(set(bps) | {x})
    values = []
    for a, b in zip(points, points[1:]):
        inside = any(lo <= a and b <= hi for lo, hi in omega)
        if not inside:
            values.append(0 * height)
        elif b <= x:
            values.append(height)
        else:
            values.append(-height)
    f = StepFunction1D(points, values)

    if f.l1_norm() != 1 and abs(float(f.l1_norm()) - 1.0) > 1e-12:
        raise AssertionError("witness mass is off")
    vfx = volterra_apply(f)(x)
    if abs(float(vfx) - 0.5) > 1e-12:
        raise AssertionError("witness peak is off")

    ips = [f.integrate_against(g) for g in functionals]
    worst = max((abs(v) for v in ips), default=0 * vfx)
    if worst > half_cell * 1.0000001:  # cell diameter bounds every pairing
        raise AssertionError("functional pairing exceeds the quantization cell")
    rho = vfx - worst
    return GelfandCertificate(
        witness=f,
        rho_bound=rho,
        split_point=x,
        inner_products=ips,
        cell_measure=measure,
    )


def gelfand_lower_bound(n: int, functional_sets, eps) -> SNumberBound:
    """Aggregate the adversarial certificates into one Gelfand bound record."""
    worst = None
    payload = []
    for functionals in functional_sets:
        if len(functionals) >= n:
            raise ValueError("an adversary for c_n may use at most n-1 functionals")
        cert = gelfand_lower_adversary(functionals, eps)
        payload.append(
            {
                "m": len(functionals),
                "rho": _num_to_json(cert.rho_bound),
                "witness": step_to_json_dict(cert.witness),
            }
        )
        if worst is None or cert.rho_bound < worst:
            worst = cert.rho_bound
    exact = isinstance(worst, (Fraction, int))
    return SNumberBound(
        kind="gelfand",
        n=n,
        lower=worst,
        witness={"eps": _num_to_json(eps), "adversaries": payload},
        mode=EXACT if exact else FLOAT,
        status="certified",
        label="interval embedding: gelfand >= 1/2 - eps",
    )


def approximation_upper(n: int) -> SNumberBound:
    """The zero map has rank 0 < n, so the distance is the operator norm 1/2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return SNumberBound(
        kind="approximation",
        n=n,
        upper=OPERATOR_NORM,
        witness={"approximant": "zero map (rank 0)", "operator_norm": "1/2"},
        mode=EXACT,
        status="certified",
        label="interval embedding: approximation <= 1/2",
    )


def midrange_deviation(f: StepFunction1D):
    """inf over constants c of sup |Vf - c| for a unit-mass mean-zero element."""
    MeanZeroTag(tolerance=1e-12).require(f)
    if float(f.l1_norm()) > 1 + 1e-12:
        raise ValueError("needs ||f||_1 <= 1")
    curve = volterra_apply(f)
    return curve.oscillation() / 2


CONFIRM_CELLS = 1024  # grid of the dipole that attains the midrange bound
RANDOM_TRIALS = 64  # random unit-mass elements checked against the bound


@functools.cache
def _midrange_confirmation() -> float:
    """Check the n-independent midrange argument once per process: a dipole
    attains 1/4 exactly and random elements stay within it.  Returns the
    worst random deviation."""
    if midrange_deviation(dipole(0, 1, CONFIRM_CELLS)) != Fraction(1, 4):
        raise AssertionError("dipole confirmation failed")
    rng = np.random.default_rng(0)
    worst_random = max(
        float(midrange_deviation(random_unit_mean_zero(rng, cells=32)))
        for _ in range(RANDOM_TRIALS)
    )
    if worst_random > 0.25 + 1e-12:
        raise AssertionError("midrange argument violated")
    return worst_random


def kolmogorov_upper_1d(n: int) -> SNumberBound:
    """Approximate by constants: the antiderivative of a unit-mass mean-zero
    element oscillates at most 1/2, so the midrange constant is within 1/4;
    dipoles attain the bound exactly."""
    if n < 2:
        raise ValueError("constants only beat the operator norm from n = 2 on")
    worst_random = _midrange_confirmation()
    return SNumberBound(
        kind="kolmogorov",
        n=n,
        upper=Fraction(1, 4),
        witness={
            "argument": "oscillation <= 1/2; midrange constant",
            "dipole_deviation": "1/4",
            "confirm_cells": CONFIRM_CELLS,
            "random_trials": RANDOM_TRIALS,
            "worst_random_deviation": worst_random,
        },
        mode=EXACT,
        status="certified",
        label="interval embedding: kolmogorov <= 1/4 (n >= 2)",
    )


def random_unit_mean_zero(rng, cells: int = 32) -> StepFunction1D:
    f = mean_zero_project(
        StepFunction1D.from_cells(rng.standard_normal(cells).tolist())
    )
    norm = float(f.l1_norm())
    return f * (1.0 / norm)


def two_sided_spike(k: int) -> StepFunction1D:
    """Unit-mass element: spike of height 2^k next to 0, sink mirrored at 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    h = Fraction(2) ** k
    pos = StepFunction1D.indicator(
        Fraction(1, 2 ** (k + 1)), Fraction(1, 2**k), height=h, exact=True
    )
    neg = StepFunction1D.indicator(
        1 - Fraction(1, 2**k), 1 - Fraction(1, 2 ** (k + 1)), height=h, exact=True
    )
    return pos - neg


@dataclass
class Adversary:
    """A candidate approximating subspace, supplied as basis columns."""

    name: str
    dimension: int
    columns: object  # callable points -> (P, dimension)
    extra_points: tuple = ()


def constants_adversary() -> Adversary:
    return Adversary("constants", 1, lambda ts: np.ones((len(ts), 1)))


def polynomial_adversary(degree: int) -> Adversary:
    return Adversary(
        f"polynomials<= {degree}",
        degree + 1,
        lambda ts: np.vander(np.asarray(ts), degree + 1, increasing=True),
    )


def volterra_image_adversary(rng, dimension: int, cells: int = 32) -> Adversary:
    curves = []
    for _ in range(dimension):
        f = random_unit_mean_zero(rng, cells)
        curve = volterra_apply(f)
        curves.append(
            (
                np.array([float(b) for b in curve.breakpoints]),
                np.array([float(v) for v in curve.node_values]),
            )
        )

    def columns(ts):
        ts = np.asarray(ts, dtype=float)
        return np.stack(
            [np.interp(ts, bp, nv) for bp, nv in curves], axis=1
        )

    return Adversary(
        f"span of {dimension} antiderivative images",
        dimension,
        columns,
        extra_points=tuple(float(b) for b in curves[0][0]),
    )


def shipped_adversaries(n: int, rng) -> list:
    """Candidate subspaces of dimension < n for the Kolmogorov lower bound."""
    out = [constants_adversary()]
    if n >= 3:
        out.append(polynomial_adversary(n - 2))
    out.append(volterra_image_adversary(rng, n - 1))
    return out


RANK_TOL = 1e-10  # a pivot at most this times max|B| ends the column basis
EXCHANGE_TOL = 2.0**-40  # relative violation at which the exchange stops
MAX_EXCHANGES = 1000  # exchange steps per distance before giving up


def _pivot_basis(B):
    """(rows, cols) of a complete-pivoting elimination of B: the pivot rows
    and the columns that span B's column space, stopping at RANK_TOL."""
    A = B.copy()
    scale = np.abs(B).max(initial=0.0)
    rows, cols = [], []
    for _ in range(min(A.shape)):
        i, j = np.unravel_index(np.argmax(np.abs(A)), A.shape)
        if abs(A[i, j]) <= RANK_TOL * scale:
            break
        rows.append(int(i))
        cols.append(int(j))
        A -= np.outer(A[:, j] / A[i, j], A[i])
    return rows, cols


def _solve_fraction(M, rhs):
    """The solution of the square system M x = rhs in Fraction arithmetic,
    or None when M is singular; floats enter exactly."""
    rows = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(M.tolist(), rhs)]
    n = len(rows)
    for k in range(n):
        p = next((i for i in range(k, n) if rows[i][k]), None)
        if p is None:
            return None
        rows[k], rows[p] = rows[p], rows[k]
        for i in range(k + 1, n):
            f = rows[i][k] / rows[k][k]
            if f:
                for j in range(k, n + 1):
                    rows[i][j] -= f * rows[k][j]
    x = [Fraction(0)] * n
    for k in reversed(range(n)):
        x[k] = (rows[k][n] - sum(rows[k][j] * x[j] for j in range(k + 1, n))) / rows[k][k]
    return x


def _chebyshev_certificate(B, y):
    """Dual weights for min_c max_i |y_i - B_i c|: (points, signs, weights)
    with exact Fraction weights >= 0 summing to 1, such that
    lam = signs * weights on ``points`` satisfies B^T lam = 0 exactly.  By
    weak duality y . lam is then a lower bound on the distance.

    Stiefel's exchange, the simplex method on the dual max y.lam subject to
    B^T lam = 0 and ||lam||_1 <= 1.  The reference is r + 1 signed points,
    r = rank B: the pivot rows of ``_pivot_basis`` plus the point of largest
    |y|.  Each step solves the (r+1)-square system for the levelled
    coefficients c and error t, enters the point of largest violation
    |y_i - B_i c| - t and leaves by the ratio test, ties to the lowest index.
    The final reference's weights are then solved again in Fraction
    arithmetic (the samples are floats, so exact rationals) and checked.
    """
    rows, cols = _pivot_basis(B)
    r = len(rows)
    Bk = B[:, cols]
    rest = np.abs(y)
    rest[rows] = -1.0
    ref = np.array(rows + [int(np.argmax(rest))])
    # the reference rows' null vector: the last row in terms of the pivot rows
    null = np.append(np.linalg.solve(Bk[rows].T, -Bk[ref[-1]]) if r else [], 1.0)
    sig = np.where(null < 0, -1.0, 1.0)
    if null @ y[ref] < 0:
        sig = -sig
    for _ in range(MAX_EXCHANGES):
        M = np.vstack([(sig[:, None] * Bk[ref]).T, np.ones(r + 1)])
        Minv = np.linalg.inv(M)
        ct = Minv.T @ (sig * y[ref])
        Bc = Bk @ ct[:-1]
        err = y - Bc
        excess = np.abs(err) - ct[-1]
        j = int(np.argmax(excess))
        if excess[j] <= EXCHANGE_TOL * (np.abs(y).max() + np.abs(Bc).max()):
            break
        sj = 1.0 if err[j] > 0 else -1.0
        step = Minv @ np.append(sj * Bk[j], 1.0)
        up = np.flatnonzero(step > 0)
        ratios = Minv[up, -1] / step[up]
        ties = up[ratios == ratios.min()]
        k = ties[np.argmin(ref[ties])]
        ref[k], sig[k] = j, sj
    else:
        raise RuntimeError("Chebyshev exchange did not converge")
    weights = _solve_fraction(M, [0] * r + [1])
    if weights is None or min(weights) < 0:
        raise RuntimeError("Chebyshev certificate failed: negative or no weights")
    lam = [w * int(s) for w, s in zip(weights, sig)]
    dropped = [col for col in range(B.shape[1]) if col not in cols]
    if any(sum(l * Fraction(b) for l, b in zip(lam, B[ref, col].tolist())) for col in dropped):
        raise RuntimeError("Chebyshev certificate failed: a dropped column is not annihilated")
    return ref, sig, weights


def _chebyshev_distance(ts, y, columns) -> float:
    """The sampled sup distance from y to the span of columns(ts), from below:
    the exact value y . lam of ``_chebyshev_certificate``, rounded down.  It
    is <= the sampled distance, which is <= the true one."""
    y = np.asarray(y, dtype=float)
    points, signs, weights = _chebyshev_certificate(np.asarray(columns(ts), dtype=float), y)
    value = sum(w * int(s) * Fraction(v) for w, s, v in zip(weights, signs, y[points].tolist()))
    value = max(Fraction(0), value)
    bound = float(value)
    return bound if Fraction(bound) <= value else math.nextafter(bound, -math.inf)


def _kolmogorov_sample_points(k_max: int, adversary: Adversary) -> list:
    """Sorted float points where the spike family meets the adversary: a
    uniform grid, the dyadic ladders at both ends and the adversary's own."""
    ladder = [2.0**-j for j in range(1, k_max + 3)]
    return sorted(
        set(np.linspace(0.0, 1.0, 1025).tolist())
        | set(ladder)
        | {1.0 - t for t in ladder}
        | {1.5 * 2.0**-j for j in range(1, k_max + 3)}
        | {1.0 - 1.5 * 2.0**-j for j in range(1, k_max + 3)}
        | set(adversary.extra_points)
    )


def kolmogorov_lower_witness(k_max: int, n: int = 2, adversaries=None, rng=None) -> SNumberBound:
    """Shrinking-dipole family pinned at two points: the antiderivatives are 0
    at 0 and 1/2 at 2^-k while the mass stays 1, so no low-dimensional
    subspace can track them; the two-point gap 2^-k_max is the resolution.

    ``adversaries`` are candidate subspaces of dimension < n.  Per adversary
    the distance max_k dist(Vf_k, N) is certified by the exact dual weights
    of a sampled Chebyshev exchange (``_chebyshev_distance``; sampling and
    rounding down only lower it).  The returned lower bound is
    min(1/4 - 2^-k_max, the per-adversary distances).
    """
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    if k_max > 30:
        raise ValueError("k_max beyond the supported bit budget (30)")
    if n < 2:
        raise ValueError("use the operator norm for n = 1")
    if rng is None:
        rng = np.random.default_rng(0)
    if adversaries is None:
        adversaries = shipped_adversaries(n, rng)
    for adv in adversaries:
        if adv.dimension >= n:
            raise ValueError(f"adversary {adv.name!r} has dimension >= n")

    family = []
    for k in range(1, k_max + 1):
        f = two_sided_spike(k)
        if f.l1_norm() != 1:
            raise AssertionError("spike mass is off")
        curve = volterra_apply(f)
        if curve(Fraction(0)) != 0 or curve(Fraction(1, 2**k)) != Fraction(1, 2):
            raise AssertionError("two-point values are off")
        family.append(curve)

    delta = Fraction(1, 2**k_max)
    reference = Fraction(1, 4) - delta
    lower = reference
    per_adversary = {}
    for adv in adversaries:
        pts = _kolmogorov_sample_points(k_max, adv)
        dist = 0.0
        for curve in family:
            dist = max(dist, _chebyshev_distance(pts, curve.sample(pts), adv.columns))
        per_adversary[adv.name] = dist
        if dist < lower:
            lower = dist

    return SNumberBound(
        kind="kolmogorov",
        n=n,
        lower=lower,
        witness={
            "k_max": k_max,
            "two_point_gap": _num_to_json(delta),
            "reference_bound": _num_to_json(reference),
            "family": [step_to_json_dict(two_sided_spike(k)) for k in range(1, min(k_max, 6) + 1)],
            "adversary_distances": per_adversary,
        },
        mode=EXACT if lower == reference else FLOAT,
        status="certified",
        label="interval embedding: kolmogorov >= 1/4 - 2^-k_max (n >= 2)",
    )


# -- d-dimensional estimators ---------------------------------------------------


def _ball_centers(dim: int, m: int):
    return [
        tuple(Fraction(2 * a + 1, 2 * m) for a in idx)
        for idx in itertools.product(range(m), repeat=dim)
    ]


def hat_functions(dim: int, m: int, cells_per_side: int) -> list:
    """Cone profiles (radius - distance)+ over disjoint inscribed balls.

    Each profile is evaluated on the interior nodes of its ball's bounding
    box and is 0 elsewhere; boundary nodes are exact 0, which the float
    profile misses by rounding when m is odd.  It is stored on the box of its
    nonzero nodes.
    """
    if cells_per_side % (2 * m):
        raise GridMismatchError(
            f"need {2 * m} | cells_per_side so ball centers are grid nodes"
        )
    r = 1.0 / (2 * m)
    half = cells_per_side // (2 * m)  # the radius in cells
    axis = np.arange(cells_per_side + 1) / cells_per_side
    out = []
    for center in _ball_centers(dim, m):
        box = tuple(
            slice(max(int(c * cells_per_side) - half, 1),
                  min(int(c * cells_per_side) + half, cells_per_side - 1) + 1)
            for c in center
        )
        sq = 0.0  # each axis's squares broadcast along the others, added in axis order
        for a, (b, c) in enumerate(zip(box, center)):
            sq = sq + ((axis[b] - float(c)) ** 2).reshape((-1,) + (1,) * (dim - 1 - a))
        dist = np.sqrt(sq)
        values = np.maximum(0.0, r - dist)
        nonzero = np.nonzero(values)  # the center node is r > 0
        trim = tuple(slice(ids.min(), ids.max() + 1) for ids in nonzero)
        out.append(GridFunction(dim, cells_per_side, values[trim].copy(), boundary_zero=True,
                                origin=[b.start + t.start for b, t in zip(box, trim)]))
    return out


def isomorphism_lower_ddim(dim: int, m: int, params: LorentzParams,
                           cells_per_side: int | None = None) -> SNumberBound:
    """Hat-function factorization through n = m^d disjoint balls.

    Evaluation at the ball centers composed with the cone synthesis is the
    identity (checked in exact rational arithmetic); the synthesis norm is at
    most ||chi_Q|| / r by disjointness, so the bound is r / ||chi_Q||.
    """
    if dim < 2:
        raise ValueError("the cube construction needs dim >= 2")
    if m < 1:
        raise ValueError("m must be >= 1")
    if not isinstance(params, LorentzParams):
        params = LorentzParams(*params)
    if cells_per_side is None:
        cells_per_side = 16 * m
    if cells_per_side % (2 * m):
        raise GridMismatchError(
            f"balls of radius 1/{2*m} need {2*m} | cells_per_side "
            "(centers must be grid nodes)"
        )
    n = m**dim
    r = Fraction(1, 2 * m)
    centers = _ball_centers(dim, m)

    # exact identity: centers of distinct balls are >= 2r apart.  Centers are
    # (2a+1)/(2m) and r = 1/(2m), so |c_j - c_k| < r iff the integer squared
    # distance of the numerators 2a+1 is < 1
    nums = 2 * np.array(list(itertools.product(range(m), repeat=dim))) + 1
    d2 = ((nums[:, None, :] - nums[None, :, :]) ** 2).sum(axis=2)
    if not np.array_equal(d2 < 1, np.eye(n, dtype=bool)):
        raise AssertionError("ball geometry violated")

    full = StepFunction1D.indicator(0, 1, height=1, exact=True)
    try:
        chi_norm = lorentz_norm(full, params, mode=EXACT)
        lower = r / chi_norm
        mode = EXACT
    except ExactValueError:
        chi_norm = lorentz_norm(full, params)
        lower = float(r) / chi_norm
        mode = FLOAT

    witness = FactorizationWitness(
        eval_points=[list(c) for c in centers],
        building_blocks=[
            {"type": "cone", "center": [_num_to_json(c) for c in ctr],
             "radius": _num_to_json(r), "grid": cells_per_side}
            for ctr in centers
        ],
        norm_a=1,
        norm_b=chi_norm / r if mode == EXACT else chi_norm / float(r),
        identity_checked=True,
    )
    return SNumberBound(
        kind="isomorphism",
        n=n,
        lower=lower,
        witness={
            "factorization": witness.to_json_dict(),
            "space": [_num_to_json(params.p), _num_to_json(params.q)],
            "chi_Q_norm": _num_to_json(chi_norm),
        },
        mode=mode,
        status="certified",
        label="cube embedding: isomorphism >= n^(-1/d) / (2 ||chi_Q||)",
        operator="cube",
    )


def unit_ball_volume(dim: int) -> float:
    return math.pi ** (dim / 2) / math.gamma(dim / 2 + 1)


def hat_subspace_ratio_closed_form(dim: int, m: int, params: LorentzParams) -> float:
    """inf_{u in hat span} sup|u| / ||grad u|| in closed form.

    Disjoint supports make the gradient a layered indicator; the norm is
    monotone in each layer, so the infimum sits at equal coefficients, where
    the gradient is the indicator of all n balls.
    """
    if not isinstance(params, LorentzParams):
        params = LorentzParams(*params)
    p, q = float(params.p), float(params.q)
    r = 1.0 / (2 * m)
    n = m**dim
    measure = n * unit_ball_volume(dim) * r**dim
    norm = (p / q) ** (1 / q) * measure ** (1 / p)
    return r / norm


def hat_subspace_ratio_grid(hats: list, params: LorentzParams) -> float:
    """The same infimum on the declared grid surrogate (equal coefficients),
    for the ``hat_functions`` profiles ``hats``."""
    combo = hats[0].combine(hats[1:], [1.0] * len(hats))
    return combo.sup_norm() / grid_gradient_lorentz_norm(combo.gradient_field(), params)


def _curve_rows(field: CellField, ordering) -> CellField:
    """A cell field ``(R,) * d`` as one row per cube of ``ordering``, in curve
    order: row p holds the cells of the cube numbered p + 1.

    The cube indices are split by slices, so numpy puts the cube axis first
    and the gather is the only copy."""
    d, k = ordering.dim, 1 << ordering.order
    side = field.values.shape[0] // k
    idx = tuple(x for col in ordering.coords.T for x in (col, slice(None)))
    rows = field.values.reshape((k, side) * d)[idx].reshape(len(ordering.coords), -1)
    return CellField(rows, field.cell_measure)


def bernstein_upper_ddim(subspace: Subspace, curve_order: int, eps: float = 0.05,
                         rng=None) -> SNumberBound:
    """Alternation along the cube ordering plus the segment-domain chain.

    The element alternating at n ordered cube centers oscillates by 2 over
    each consecutive segment domain; each oscillation is at most the John
    constant times the local gradient norm; Hoelder and the summation property
    (overlap factor 2) then force ||grad v|| >= 2 (n-1)^(1/d) / (C 2^(1/d)),
    an upper bound of order n^(-1/d) on the subspace's Bernstein ratio.  Every
    link is returned with its numerical slack.
    """
    n = subspace.dim
    u0 = subspace.basis[0]
    if not isinstance(u0, GridFunction):
        raise GridMismatchError("needs a subspace of grid functions")
    d, R = u0.dim, u0.cells_per_side
    if d < 2:
        raise ValueError("the cube construction needs dim >= 2")
    if R % (1 << (curve_order + 1)):
        raise GridMismatchError(
            f"cube centers at order {curve_order} need "
            f"{1 << (curve_order + 1)} | cells_per_side"
        )
    params = LorentzParams(d, 1)
    if n == 1:
        # a one-dimensional subspace has a single ratio, a valid lower bound
        # for the first scale (and trivially at most the embedding norm)
        ratio = u0.sup_norm() / grid_gradient_lorentz_norm(u0.gradient_field(), params)
        return SNumberBound(
            kind="bernstein", n=1, lower=ratio,
            witness={"ratio_at_witness": ratio, "note": "single direction"},
            mode=FLOAT, status="certified",
            label="cube embedding: bernstein >= single-direction ratio (n = 1)",
            operator="cube",
        )

    ordering = hilbert_order(d, curve_order)
    stride = R >> (curve_order + 1)
    node_ids = tuple(((2 * ordering.coords + 1) * stride).T)  # cube centers, curve order
    matrix = np.column_stack([u.values_at(node_ids) for u in subspace.basis])
    empty = np.flatnonzero(~matrix.any(axis=0))
    if len(empty):  # e.g. a hat whose ball holds no cube center
        return SNumberBound(
            kind="bernstein", n=n, status="inconclusive", mode=FLOAT,
            witness={"reason": f"basis elements {empty.tolist()} vanish at every "
                               f"cube center at curve order {curve_order}",
                     "empty_elements": empty.tolist()},
            label="cube embedding: bernstein chain",
            operator="cube",
        )
    res = zigzag_find(matrix, eps=eps, rng=rng)
    if res.witness is None:
        return SNumberBound(
            kind="bernstein", n=n, status="inconclusive", mode=FLOAT,
            witness={"reason": "alternation search failed"},
            label="cube embedding: bernstein chain",
            operator="cube",
        )
    w = res.witness
    v = subspace.element(w.coefficients)
    sup_v = v.sup_norm()
    c_john = uniform_john_constant(d)
    d_conj = d / (d - 1)

    rows = _curve_rows(v.gradient_field(), ordering)  # shared by every link and the full norm
    osc_links = []
    seg_norms = []
    for a, b in zip(w.indices.tolist(), w.indices[1:].tolist()):
        # segment domain a + 1 .. b + 1: lorentz_norm sorts the cells' values
        # and every cell has the same measure, so their order is immaterial
        seg = lorentz_norm(CellField(rows.values[a:b + 1], rows.cell_measure), params)
        osc = abs(w.element[b] - w.element[a])
        osc_links.append(
            {"segment": [a + 1, b + 1], "oscillation": float(osc),
             "gradient_norm": seg, "slack": c_john * seg - float(osc)}
        )
        seg_norms.append(seg)
    seg_norms = np.array(seg_norms)

    holder_lhs = float(c_john * seg_norms.sum())
    holder_rhs = float(
        c_john * (n - 1) ** (1 / d_conj) * (seg_norms**d).sum() ** (1 / d)
    )
    full_norm = lorentz_norm(rows, params)
    lorsum_lhs = float((seg_norms**d).sum())
    lorsum_rhs = float(2 * full_norm**d)  # overlap factor: each cube in <= 2 segments

    chain_ratio = sup_v * c_john * 2 ** (1 / d) / (2 * (n - 1) ** (1 / d))
    direct_ratio = sup_v / full_norm
    return SNumberBound(
        kind="bernstein",
        n=n,
        # the C(d) n^(-1/d)-type value; it holds for every subspace, but only
        # a certified alternation witness carries it
        upper=chain_ratio if res.status == "certified" else None,
        witness={
            "alternation_indices": (w.indices + 1).tolist(),
            "sup_norm": float(w.sup_norm_value),
            "element_sup": sup_v,
            "gradient_norm": full_norm,
            "ratio_at_witness": direct_ratio,
            "chain_ratio_bound": chain_ratio,
            "john_constant": c_john,
            "osc_links": osc_links,
            "holder": {"lhs": holder_lhs, "rhs": holder_rhs,
                       "slack": holder_rhs - holder_lhs},
            "lorsum": {"lhs": lorsum_lhs, "rhs": lorsum_rhs,
                       "slack": lorsum_rhs - lorsum_lhs},
            "eps": eps,
        },
        mode=FLOAT,
        status=res.status,
        label="cube embedding: bernstein ratio <= C(d) n^(-1/d)",
        operator="cube",
    )


# -- consistency suite -----------------------------------------------------------


@dataclass
class AxiomReport:
    passed: bool
    checked: int
    violations: list


def snumber_axiom_suite(bounds) -> AxiomReport:
    """Cross-check a collection of bounds against the scale axioms.

    Checks run per operator: like-kind upper bounds must be non-increasing in
    n (and dominate later lower bounds); for the interval operator every kind
    is anchored at the norm 1/2 at n = 1; at equal n the chain isomorphism <=
    bernstein <= max(gelfand, kolmogorov) <= approximation must hold between
    certified bounds.
    """
    tol = 1e-9
    checked = 0
    violations = []

    def val(x):
        return float(x)

    certified = [b for b in bounds if b.status == "certified"]
    for op in sorted({b.operator for b in certified}):
        group = [b for b in certified if b.operator == op]
        by_kind = {k: [b for b in group if b.kind == k] for k in KINDS}

        for kind, items in by_kind.items():
            items = sorted(items, key=lambda b: b.n)
            for a, b in itertools.combinations(items, 2):  # a.n <= b.n
                if a.n == b.n:
                    continue
                if a.upper is not None and b.upper is not None:
                    checked += 1
                    if val(b.upper) > val(a.upper) + tol:
                        violations.append(
                            f"(S1) {op}/{kind}: upper at n={b.n} exceeds upper at n={a.n}"
                        )
                if a.upper is not None and b.lower is not None:
                    checked += 1
                    if val(b.lower) > val(a.upper) + tol:
                        violations.append(
                            f"(S1) {op}/{kind}: lower at n={b.n} exceeds upper at n={a.n}"
                        )

        if op == "interval":
            norm = float(OPERATOR_NORM)
            for kind, items in by_kind.items():
                for b in items:
                    if b.n != 1:
                        continue
                    if b.lower is not None:
                        checked += 1
                        if val(b.lower) > norm + tol:
                            violations.append(
                                f"(S1) {kind}: lower at n=1 exceeds the operator norm"
                            )
                    if b.upper is not None:
                        checked += 1
                        if val(b.upper) < norm - tol:
                            violations.append(
                                f"(S1) {kind}: upper at n=1 is below the operator norm"
                            )

        ns = sorted({b.n for b in group})
        for n in ns:
            at = {k: [b for b in by_kind[k] if b.n == n] for k in KINDS}

            def uppers(kind):
                return [val(b.upper) for b in at[kind] if b.upper is not None]

            def lowers(kind):
                return [val(b.lower) for b in at[kind] if b.lower is not None]

            for lo in lowers("isomorphism"):
                for up in uppers("bernstein"):
                    checked += 1
                    if lo > up + tol:
                        violations.append(
                            f"chain at n={n}: isomorphism lower {lo:.6g} "
                            f"> bernstein upper {up:.6g}"
                        )
            cd_uppers = uppers("gelfand") + uppers("kolmogorov")
            if cd_uppers:
                cd = max(cd_uppers)
                for lo in lowers("bernstein"):
                    checked += 1
                    if lo > cd + tol:
                        violations.append(
                            f"chain at n={n}: bernstein lower {lo:.6g} "
                            f"> max(c,d) upper {cd:.6g}"
                        )
                for up in uppers("approximation"):
                    checked += 1
                    if cd > up + tol:
                        violations.append(
                            f"chain at n={n}: max(c,d) upper {cd:.6g} "
                            f"> approximation upper {up:.6g}"
                        )
    return AxiomReport(passed=not violations, checked=checked, violations=violations)
