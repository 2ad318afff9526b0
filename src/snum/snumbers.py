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

import numpy as np
from scipy.optimize import linprog

from .hilbert import hilbert_order
from .john import segment_domain, uniform_john_constant
from .spaces import (
    EXACT,
    FLOAT,
    ExactValueError,
    GridFunction,
    GridMismatchError,
    LorentzParams,
    MeanZeroTag,
    StepFunction1D,
    _num_to_json,
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

    Step-function bases also keep their common refinement: ``piece_values``
    (dim, pieces) on the intervals of lengths ``piece_lengths`` between the
    float ``breakpoints``.
    """

    def __init__(self, basis):
        self.basis = list(basis)
        if not self.basis:
            raise DegenerateBasisError("empty basis")
        if isinstance(self.basis[0], StepFunction1D):
            bps = sorted(set().union(*[set(f.breakpoints) for f in self.basis]))
            self.breakpoints = np.array([float(b) for b in bps])
            self.piece_values = np.array(
                [[float(v) for v in f.refine(bps).values] for f in self.basis]
            )
            self.piece_lengths = np.array([float(b - a) for a, b in zip(bps, bps[1:])])
            table = self.piece_values * np.sqrt(self.piece_lengths)  # L2 inner products
        else:
            table = np.stack([f.nodal_values.ravel() for f in self.basis])
        gram = table @ table.T
        if np.linalg.matrix_rank(gram) < self.dim:
            raise DegenerateBasisError("basis Gram matrix is singular")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def element(self, coefficients):
        """The combination sum_k c_k f_k of the basis, summed left to right."""
        coefficients = [float(c) for c in coefficients]
        if isinstance(self.basis[0], GridFunction):
            return self.basis[0].combine(self.basis[1:], coefficients)
        out = self.basis[0] * coefficients[0]
        for c, f in zip(coefficients[1:], self.basis[1:]):
            out = out + f * c
        return out


def random_mean_zero_step_subspace(rng, n: int, cells: int) -> Subspace:
    """Random n-dimensional subspace of mean-zero step functions."""
    basis = []
    for _ in range(n):
        vals = rng.standard_normal(cells)
        basis.append(
            mean_zero_project(StepFunction1D.from_cells(vals.tolist()))
        )
    return Subspace(basis)


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


def _alternation_target(n: int) -> np.ndarray:
    return np.array([(-1.0) ** (j + 1) for j in range(n)])


# alternation-search budgets
EXHAUSTIVE_LIMIT = 100_000  # index sets swept exhaustively up front
ESCALATION_LIMIT = 20_000_000  # index sets swept when local search fails
RESTARTS = 12  # local-search starting sets
KICKS = 24  # two-index perturbations of the incumbent per start
MAX_SWEEPS = 80  # exchange sweeps per descent
LP_BUDGET = 64  # singular index sets per batch handed to the LP

BERNSTEIN_LOWER_MAX_N = 3  # vertex enumeration is exhaustive up to this n


def _minimax_lp(matrix: np.ndarray, T, alt) -> tuple:
    """min ||g||_inf over g in span with g[T] = alt (degenerate index sets)."""
    npts, n = matrix.shape
    a_eq = np.hstack([matrix[T], np.zeros((n, 1))])
    a_ub = np.vstack(
        [
            np.hstack([matrix, -np.ones((npts, 1))]),
            np.hstack([-matrix, -np.ones((npts, 1))]),
        ]
    )
    res = linprog(
        c=[0.0] * n + [1.0],
        A_ub=a_ub,
        b_ub=np.zeros(2 * npts),
        A_eq=a_eq,
        b_eq=alt,
        bounds=[(None, None)] * n + [(0.0, None)],
        method="highs",
    )
    if not res.success:
        return math.inf, None
    return float(res.fun), res.x[:n]


def _minimax_for_sets(matrix, sets, alt, lp_fallback=False):
    """Interpolation minimax per index set, batched.

    With dim E = n and n constraints the interpolant is generically unique:
    one square solve per set.  Singular sets are infeasible or need the LP.
    ``sets`` is an (m, n) integer array.  Returns (values, coefficient rows);
    infeasible sets get +inf.
    """
    m, n = sets.shape
    vals = np.full(m, np.inf)
    coeffs = np.zeros((m, n))
    sub = matrix[sets]  # (m, n, n)
    # Hadamard-relative singularity test: |det| <= product of row norms
    hadamard = np.sqrt((sub**2).sum(axis=2)).prod(axis=1) + 1e-300
    good = np.abs(np.linalg.det(sub)) > 1e-12 * hadamard
    if good.any():
        rhs = np.broadcast_to(alt, (int(good.sum()), n))[..., None]
        c = np.linalg.solve(sub[good], rhs)[..., 0]
        g = matrix @ c.T  # (npts, good)
        vals[good] = np.abs(g).max(axis=0)
        coeffs[good] = c
    if lp_fallback:
        for i in np.nonzero(~good)[0][:LP_BUDGET]:
            v, c = _minimax_lp(matrix, sets[i], alt)
            if c is not None:
                vals[i], coeffs[i] = v, c
    return vals, coeffs


def _combination_chunks(cands: np.ndarray, n: int):
    """The n-subsets of ``cands`` in lexicographic order, as integer arrays
    of at most 100 000 rows."""
    combos = itertools.combinations(cands.tolist(), n)
    while True:
        chunk = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(combos, 100_000)), dtype=np.intp
        )
        if not chunk.size:
            return
        yield chunk.reshape(-1, n)


def _exchanges(T: np.ndarray, outside: np.ndarray) -> np.ndarray:
    """Every one-index exchange of the sorted set ``T``, each row sorted:
    row pos * len(outside) + j swaps T[pos] for outside[j]."""
    n, m = len(T), len(outside)
    rest = np.broadcast_to(T, (n, n))[~np.eye(n, dtype=bool)].reshape(n, 1, n - 1)
    swapped = np.concatenate([np.broadcast_to(rest, (n, m, n - 1)),
                              np.broadcast_to(outside[:, None], (n, m, 1))], axis=2)
    return np.sort(swapped, axis=2).reshape(n * m, n)


def zigzag_find(matrix, eps: float = 0.05, rng=None) -> ZigzagResult:
    """Find g in the column span of ``matrix`` with g(t_j) = (-1)^j at n
    increasing positions and near-minimal sup norm.

    Exhaustive over index sets (lexicographic, ties to the first = smallest
    optimum) when the count fits ``EXHAUSTIVE_LIMIT``; otherwise iterated
    local search (one-index exchange descent with random two-index kicks and
    restarts).  If the search cannot certify sup norm <= 1 + eps and the set
    count fits ``ESCALATION_LIMIT``, the exhaustive sweep settles it.  Never
    returns a false witness: a failed search reports ``inconclusive`` with the
    best element found.
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
    cands = np.nonzero(row_scale > 1e-12 * (row_scale.max() + 1e-300))[0]
    if len(cands) < n:
        raise ValueError("not enough nonzero evaluation points")

    best_val, best_T, best_c = math.inf, None, None
    evals = 0

    def improve(val, T, c):
        nonlocal best_val, best_T, best_c
        if val < best_val - 1e-12:
            best_val, best_T, best_c = val, T, c

    def exhaustive_sweep():
        nonlocal evals
        for sets in _combination_chunks(cands, n):
            vals, coeffs = _minimax_for_sets(matrix, sets, alt, True)
            evals += len(sets)
            k = int(np.argmin(vals))
            improve(float(vals[k]), sets[k], coeffs[k])

    def descend(T):
        nonlocal evals
        vals, coeffs = _minimax_for_sets(matrix, T[None], alt, True)
        cur_val, cur_c = float(vals[0]), coeffs[0]
        for _ in range(MAX_SWEEPS):
            proposals = _exchanges(T, cands[~np.isin(cands, T)])
            vals, coeffs = _minimax_for_sets(matrix, proposals, alt)
            evals += len(proposals)
            k = int(np.argmin(vals))
            if not vals[k] < cur_val - 1e-12:
                break
            cur_val, T, cur_c = float(vals[k]), proposals[k], coeffs[k]
        return cur_val, T, cur_c

    total_sets = comb(len(cands), n)
    if total_sets <= EXHAUSTIVE_LIMIT:
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
                if best_T is None or best_val <= 1.0 + 1e-12:
                    break
                T = best_T.copy()
                outside = cands[~np.isin(cands, T)]
                for pos in rng.choice(n, size=min(2, n), replace=False):
                    T[pos] = rng.choice(outside)
                    outside = outside[outside != T[pos]]
                improve(*descend(np.sort(T)))
            if best_val <= 1.0 + 1e-12:
                break
        if best_val > 1.0 + eps and total_sets <= ESCALATION_LIMIT:
            exhaustive_sweep()

    if best_T is None:
        return ZigzagResult(None, "inconclusive", math.inf, evals)
    g = matrix @ best_c
    # coefficients go back to the caller's basis
    witness = ZigzagWitness(g, best_T, float(np.abs(g).max()), best_c / col_scale)
    status = "certified" if witness.sup_norm_value <= 1.0 + eps else "inconclusive"
    return ZigzagResult(witness, status, witness.sup_norm_value, evals)


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
    """
    n = subspace.dim
    for f in subspace.basis:
        MeanZeroTag(tolerance=1e-9).require(f)
    res = zigzag_find(_volterra_node_matrix(subspace), eps=eps, rng=rng)
    if res.witness is None:
        return SNumberBound(
            kind="bernstein", n=n, status="inconclusive", mode=FLOAT,
            witness={"reason": "alternation search failed"},
            label="interval embedding: bernstein <= (1+eps)/(2n)",
        )
    w = res.witness
    h = subspace.element(w.coefficients)
    nu = w.sup_norm_value
    l1 = float(h.l1_norm())

    curve = volterra_apply(h)
    t_pts = subspace.breakpoints[w.indices]
    telescoping = [abs(float(curve(t_pts[0])))]
    telescoping += [
        abs(float(curve(b)) - float(curve(a)))
        for a, b in zip(t_pts, t_pts[1:])
    ]
    telescoping.append(abs(float(curve(t_pts[-1]))))  # boundary leg: |Vh(1) - Vh(t_n)|
    if l1 < sum(telescoping) - 1e-6:
        raise AssertionError("mass breakdown below the telescoping sum")

    ratio_at_h = nu / l1
    universal = (1.0 + eps) / (2 * n)
    return SNumberBound(
        kind="bernstein",
        n=n,
        upper=universal if res.status == "certified" else None,
        witness={
            "alternation_points": t_pts.tolist(),
            "sup_norm": nu,
            "mass": l1,
            "telescoping_terms": telescoping,
            "ratio_bound_for_subspace": ratio_at_h,
            "element": step_to_json_dict(h),
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
    combos = np.array(list(itertools.combinations(live.tolist(), n)))
    if combos.size == 0:
        raise DegenerateBasisError("not enough active nodes for a vertex")
    best_mass, best_c = 0.0, None
    for signs in itertools.product((1.0, -1.0), repeat=n - 1):
        sigma = np.array((1.0, *signs))  # global sign symmetry fixes the first
        vals, coeffs = _minimax_for_sets(matrix, combos, sigma)
        cs = coeffs[vals <= 1.0 + 1e-9]
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


def _chebyshev_distance_lp(ts, y, columns) -> float:
    """min over the subspace of the sampled sup distance (<= the true one)."""
    B = columns(ts)
    npts, m = B.shape
    a_ub = np.vstack(
        [
            np.hstack([-B, -np.ones((npts, 1))]),
            np.hstack([B, -np.ones((npts, 1))]),
        ]
    )
    b_ub = np.concatenate([-y, y])
    res = linprog(
        c=[0.0] * m + [1.0],
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(None, None)] * m + [(0.0, None)],
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"distance LP failed: {res.message}")
    return float(res.fun)


def kolmogorov_lower_witness(k_max: int, n: int = 2, adversaries=None, rng=None) -> SNumberBound:
    """Shrinking-dipole family pinned at two points: the antiderivatives are 0
    at 0 and 1/2 at 2^-k while the mass stays 1, so no low-dimensional
    subspace can track them; the two-point gap 2^-k_max is the resolution.

    ``adversaries`` are candidate subspaces of dimension < n.  Per adversary
    the distance max_k dist(Vf_k, N) is certified by a sampled Chebyshev LP
    (sampling only lowers it).  The returned lower bound is
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

    ladder = [2.0**-j for j in range(1, k_max + 3)]
    base_pts = sorted(
        set(np.linspace(0.0, 1.0, 1025).tolist())
        | set(ladder)
        | {1.0 - t for t in ladder}
        | {1.5 * 2.0**-j for j in range(1, k_max + 3)}
        | {1.0 - 1.5 * 2.0**-j for j in range(1, k_max + 3)}
    )

    delta = Fraction(1, 2**k_max)
    reference = Fraction(1, 4) - delta
    lower = reference
    per_adversary = {}
    for adv in adversaries:
        pts = sorted(set(base_pts) | set(adv.extra_points))
        dist = 0.0
        for curve in family:
            y = np.array([float(curve(t)) for t in pts])
            dist = max(dist, _chebyshev_distance_lp(pts, y, adv.columns))
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
    """Cone profiles (radius - distance)+ over disjoint inscribed balls."""
    if cells_per_side % (2 * m):
        raise GridMismatchError(
            f"need {2 * m} | cells_per_side so ball centers are grid nodes"
        )
    r = 1.0 / (2 * m)
    axis = np.arange(cells_per_side + 1) / cells_per_side
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    out = []
    for center in _ball_centers(dim, m):
        dist = np.sqrt(
            sum((g - float(c)) ** 2 for g, c in zip(mesh, center))
        )
        out.append(
            GridFunction(dim, cells_per_side, np.maximum(0.0, r - dist),
                         boundary_zero=True)
        )
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

    # exact identity: centers of distinct balls are >= 2r apart
    for j, cj in enumerate(centers):
        for k, ck in enumerate(centers):
            d2 = sum((a - b) ** 2 for a, b in zip(cj, ck))
            inside = d2 < r**2
            if (j == k) != inside:
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


def hat_subspace_ratio_grid(dim: int, m: int, cells_per_side: int,
                            params: LorentzParams) -> float:
    """The same infimum on the declared grid surrogate (equal coefficients)."""
    hats = hat_functions(dim, m, cells_per_side)
    combo = hats[0].combine(hats[1:], [1.0] * len(hats))
    return combo.sup_norm() / grid_gradient_lorentz_norm(combo, params)


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
    if R % (1 << (curve_order + 1)):
        raise GridMismatchError(
            f"cube centers at order {curve_order} need "
            f"{1 << (curve_order + 1)} | cells_per_side"
        )
    params = LorentzParams(d, 1)
    if n == 1:
        # a one-dimensional subspace has a single ratio, a valid lower bound
        # for the first scale (and trivially at most the embedding norm)
        ratio = u0.sup_norm() / grid_gradient_lorentz_norm(u0, params)
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
    matrix = np.column_stack([u.nodal_values[node_ids] for u in subspace.basis])
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

    osc_links = []
    seg_norms = []
    for a, b in zip(w.indices.tolist(), w.indices[1:].tolist()):
        omega = segment_domain(ordering, a + 1, b + 1)
        seg = grid_gradient_lorentz_norm(v, params, cell_mask=omega.cell_mask(R))
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
    full_norm = grid_gradient_lorentz_norm(v, params)
    lorsum_lhs = float((seg_norms**d).sum())
    lorsum_rhs = float(2 * full_norm**d)  # overlap factor: each cube in <= 2 segments

    chain_ratio = sup_v * c_john * 2 ** (1 / d) / (2 * (n - 1) ** (1 / d))
    direct_ratio = sup_v / full_norm
    return SNumberBound(
        kind="bernstein",
        n=n,
        upper=chain_ratio,  # the C(d) n^(-1/d)-type value; holds for every subspace
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
