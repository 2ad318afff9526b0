"""Desk-scale acceptance checks.

Each check pins one headline claim with its tolerance and runtime budget.
`snum selftest` runs the whole matrix; the pytest suite wraps the same
functions one test per check, so there is a single source of truth.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .hilbert import check_face_adjacency, check_prefix_nesting, decode, hilbert_order
from .john import exhaustive_pairs, random_pairs, uniform_john_constant, verify_segment_domains
from .snumbers import (
    BERNSTEIN_LOWER_MAX_N,
    approximation_upper,
    bernstein_lower,
    bernstein_upper_1d,
    bernstein_upper_ddim,
    gelfand_lower_bound,
    hat_functions,
    hat_subspace_ratio_closed_form,
    hat_subspace_ratio_grid,
    isomorphism_lower_1d,
    isomorphism_lower_ddim,
    kolmogorov_lower_witness,
    kolmogorov_upper_1d,
    random_grid_subspace,
    random_mean_zero_step_subspace,
    random_unit_mean_zero,
    snumber_axiom_suite,
)
from .spaces import LorentzParams, StepFunction1D, _sum_left, lorentz_norm, random_step_function
from .volterra import operator_norm_discrete, volterra_apply


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


def _finish(name, t0, budget, problems, detail):
    elapsed = time.time() - t0
    if elapsed > budget:
        problems.append(f"runtime {elapsed:.1f}s exceeds budget {budget}s")
    return CheckResult(
        name=name,
        passed=not problems,
        detail="; ".join(problems) if problems else detail,
        elapsed=elapsed,
    )


def check_one_dim_isomorphism() -> CheckResult:
    """Exact-mode isomorphism lower bounds equal 1/(2n) with zero error."""
    t0 = time.time()
    problems = []
    cells = 5040  # divisible by 2n for every n <= 10
    for n in range(1, 11):
        bound = isomorphism_lower_1d(n, cells)
        if bound.lower != Fraction(1, 2 * n) or bound.mode != "exact":
            problems.append(f"n={n}: got {bound.lower}")
    return _finish(
        "one_dim_isomorphism", t0, 1.0, problems,
        "i_n lower = 1/(2n) exactly for n = 1..10",
    )


def check_one_dim_bernstein() -> CheckResult:
    """Certified alternation bounds b_n <= 1.05/(2n); for n <= 3 the exact
    subspace infimum sits below both the alternation ratio and 1/(2n)."""
    t0 = time.time()
    problems = []
    rng = np.random.default_rng(20_240_501)
    eps = 0.05
    for n in range(1, 6):
        cap = (1 + eps) / (2 * n)
        for trial in range(20):
            subspace = random_mean_zero_step_subspace(rng, n, 64)
            bound = bernstein_upper_1d(subspace, eps=eps, rng=rng)
            if bound.status != "certified":
                problems.append(f"n={n} trial {trial}: search inconclusive")
                continue
            ratio = bound.witness["ratio_bound_for_subspace"]
            if not (float(bound.upper) <= cap + 1e-12 and ratio <= cap + 1e-12):
                problems.append(f"n={n} trial {trial}: bound {bound.upper}, ratio {ratio}")
            if n <= BERNSTEIN_LOWER_MAX_N:
                low = bernstein_lower(subspace)
                if not (low.status == "certified"
                        and low.lower <= min(ratio, 1 / (2 * n)) + 1e-12):
                    problems.append(f"n={n} trial {trial}: exact infimum {low.lower} "
                                    f"above min(ratio {ratio}, 1/(2n))")
    return _finish(
        "one_dim_bernstein", t0, 120.0, problems,
        "b_n <= 1.05/(2n) certified on 20 random subspaces per n; exact "
        "subspace infima <= min(ratio, 1/(2n)) for n <= 3",
    )


def check_one_dim_gelfand_approximation() -> CheckResult:
    """Adversarial Gelfand bound >= 0.499 and approximation bound <= 0.5."""
    t0 = time.time()
    problems = []
    rng = np.random.default_rng(3331)
    eps = Fraction(1, 1000)
    for n in range(1, 11):
        sets = []
        for _ in range(20):
            m = int(rng.integers(0, min(4, n - 1) + 1))
            sets.append(
                [random_step_function(rng, max_pieces=16, exact=True) for _ in range(m)]
            )
        gel = gelfand_lower_bound(n, sets, eps)
        if not gel.lower >= Fraction(499, 1000):
            problems.append(f"n={n}: gelfand lower {gel.lower}")
        app = approximation_upper(n)
        if not app.upper <= Fraction(1, 2):
            problems.append(f"n={n}: approximation upper {app.upper}")
        if not gel.lower <= app.upper:
            problems.append(f"n={n}: sandwich broken")
    return _finish(
        "one_dim_gelfand_approximation", t0, 30.0, problems,
        "c_n >= 0.499 against 20 random functional sets per n; a_n <= 0.5",
    )


def check_one_dim_kolmogorov() -> CheckResult:
    """Midrange argument gives exactly 1/4; the shrinking-dipole family
    recovers >= 0.249 against every shipped adversary."""
    t0 = time.time()
    problems = []
    for n in range(2, 6):
        upper = kolmogorov_upper_1d(n)
        if upper.upper != Fraction(1, 4):
            problems.append(f"n={n}: upper {upper.upper}")
        lower = kolmogorov_lower_witness(10, n=n, rng=np.random.default_rng(500 + n))
        if not float(lower.lower) >= 0.249:
            problems.append(f"n={n}: lower {float(lower.lower)}")
        for name, dist in lower.witness["adversary_distances"].items():
            if dist < 0.249:
                problems.append(f"n={n}: adversary {name} at {dist}")
    return _finish(
        "one_dim_kolmogorov", t0, 60.0, problems,
        "d_n pinned in [0.249, 0.25] for n = 2..5",
    )


def check_operator_norm() -> CheckResult:
    """The discrete operator norm is exactly 1/2 on every grid."""
    t0 = time.time()
    problems = []
    for cells in (2, 16, 256):
        value, witness = operator_norm_discrete(cells)
        if value != Fraction(1, 2):
            problems.append(f"cells={cells}: {value}")
        if volterra_apply(witness).sup_norm() != Fraction(1, 2):
            problems.append(f"cells={cells}: witness does not attain 1/2")
    return _finish(
        "operator_norm_half", t0, 1.0, problems,
        "sup ||Vf||_inf over unit-mass mean-zero = 1/2 exactly for N in {2,16,256}",
    )


def check_hilbert_structure() -> CheckResult:
    """Face adjacency and prefix nesting hold exhaustively, and each table
    agrees with the random-access decode."""
    t0 = time.time()
    problems = []
    for dim, orders in ((2, range(1, 11)), (3, range(1, 8))):
        for order in orders:
            ordering = hilbert_order(dim, order)
            total = len(ordering)
            if total <= 1 << 16:
                spread = np.arange(total)
            else:  # 4,096 evenly spread positions, both ends included
                spread = np.linspace(0, total - 1, 4096).round().astype(np.int64)
            if not np.array_equal(ordering.coords[spread], decode(spread, dim, order)):
                problems.append(f"(d={dim},k={order}): table differs from decode")
            ok, where = check_face_adjacency(ordering)
            if not ok:
                problems.append(
                    f"(d={dim},k={order}): check_face_adjacency fails at index {where}"
                )
            ok, cube = check_prefix_nesting(ordering)
            if not ok:
                problems.append(
                    f"(d={dim},k={order}): check_prefix_nesting fails at {cube}"
                )
    return _finish(
        "hilbert_structure", t0, 30.0, problems,
        "adjacency + nesting pass and the tables match decode for (2,1..10) and (3,1..7)",
    )


def check_john_uniformity() -> CheckResult:
    """One constant per dimension; every constructive certificate verifies."""
    t0 = time.time()
    problems = []
    rng = np.random.default_rng(777)
    worst, points = 0.0, 0
    for order in (3, 4, 5):  # all 2,080 domains at order 3, 500 drawn ones above
        ordering = hilbert_order(2, order)
        blocks = exhaustive_pairs(64) if order == 3 else [random_pairs(rng, len(ordering), 500)]
        for i, j, constant, results in verify_segment_domains(ordering, blocks, 10_000):
            if constant != uniform_john_constant(2):  # the one handed to the proof
                problems.append(f"k={order}: constant {constant} is not the uniform one")
            for a, b, result in zip(i.tolist(), j.tolist(), results):
                if isinstance(result, Exception):
                    problems.append(f"k={order} ({a},{b}): {result}")
                    continue
                ok, ratio, evaluated, _ = result
                worst, points = max(worst, ratio), points + evaluated
                if not ok:
                    problems.append(f"k={order} ({a},{b}): ratio {ratio}")
    return _finish(
        "john_uniformity", t0, 180.0, problems,
        f"single constant {uniform_john_constant(2):.4f}; largest evaluated ratio {worst:.3f} "
        f"over {points} evaluated points",
    )


def check_cube_scaling() -> CheckResult:
    """Isomorphism bounds scale exactly as n^(-1/2)/4 in the plane; the
    hat-subspace ratios stay within a fixed interval after rescaling."""
    t0 = time.time()
    problems = []
    params = LorentzParams(2, 1)
    rescaled = []
    for m in (1, 2, 4, 8):
        n = m * m
        bound = isomorphism_lower_ddim(2, m, params)
        if bound.lower * m != Fraction(1, 4):
            problems.append(f"m={m}: lower * sqrt(n) = {bound.lower * m}")
        ratio = hat_subspace_ratio_grid(hat_functions(2, m, 16 * m), params)
        closed = hat_subspace_ratio_closed_form(2, m, params)
        if not float(bound.lower) <= ratio + 1e-12:
            problems.append(f"m={m}: grid ratio {ratio} below the certified lower bound")
        rescaled.append(ratio * math.sqrt(n))
        if abs(ratio - closed) > 0.05 * closed:
            problems.append(f"m={m}: grid ratio {ratio} far from closed form {closed}")
    if max(rescaled) > 4 * min(rescaled):
        problems.append(f"rescaled ratios vary too much: {rescaled}")
    return _finish(
        "cube_scaling", t0, 120.0, problems,
        f"i_n * sqrt(n) = 1/4 exactly; rescaled hat ratios {min(rescaled):.4f}..{max(rescaled):.4f}",
    )


def check_cube_bernstein_chain() -> CheckResult:
    """Every link of the segment-domain chain estimate holds with slack."""
    t0 = time.time()
    problems = []
    rng = np.random.default_rng(90_210)

    def slack_ok(slack, scale):
        return slack >= -1e-10 * max(1.0, abs(scale))

    for trial in range(10):
        subspace = random_grid_subspace(rng, 3, 2, 32)
        bound = bernstein_upper_ddim(subspace, curve_order=4, eps=0.05, rng=rng)
        if bound.status != "certified":
            problems.append(f"trial {trial}: search inconclusive")
            continue
        w = bound.witness
        for link in w["osc_links"]:
            if not slack_ok(link["slack"], link["oscillation"]):
                problems.append(f"trial {trial}: oscillation link {link}")
        if not slack_ok(w["holder"]["slack"], w["holder"]["rhs"]):
            problems.append(f"trial {trial}: Hoelder link {w['holder']}")
        if not slack_ok(w["lorsum"]["slack"], w["lorsum"]["rhs"]):
            problems.append(f"trial {trial}: summation link {w['lorsum']}")
        if not w["ratio_at_witness"] <= w["chain_ratio_bound"] + 1e-12:
            problems.append(f"trial {trial}: direct ratio above the chain bound")
    return _finish(
        "cube_bernstein_chain", t0, 120.0, problems,
        "all chain links hold with nonnegative slack on 10 random 3-dim subspaces",
    )


def _partition_restrictions(rng, f: StepFunction1D, parts: int):
    refined = f.refine(sorted({0.0, 1.0} | set(np.round(rng.uniform(size=3), 6))))
    labels = rng.integers(0, parts, size=refined.piece_count)
    out = []
    for p in range(parts):
        vals = [v if labels[i] == p else 0.0 for i, v in enumerate(refined.values)]
        out.append(StepFunction1D(refined.breakpoints, vals))
    return out


def check_property_suites() -> CheckResult:
    """Superadditivity, Lebesgue agreement, oscillation bound, chain consistency."""
    t0 = time.time()
    problems = []
    rng = np.random.default_rng(246_810)

    pairs = [(2, 1), (3, 1), (2, 2), (3, 2)]
    for trial in range(1000):
        p, q = pairs[trial % 4]
        f = random_step_function(rng, max_pieces=10)
        parts = int(rng.integers(1, 5))
        whole = lorentz_norm(f, LorentzParams(p, q)) ** p
        split = _sum_left(
            lorentz_norm(g, LorentzParams(p, q)) ** p
            for g in _partition_restrictions(rng, f, parts)
        )
        if split > whole + 1e-9:
            problems.append(f"superadditivity fails: {split} > {whole}")
            break

    for trial in range(200):
        p = [1.0, 2.0, 3.0, 2.5][trial % 4]
        f = random_step_function(rng, max_pieces=10)
        direct = _sum_left(
            abs(v) ** p * float(l) for v, l in zip(f.values, f.lengths())
        ) ** (1 / p)
        viaq = lorentz_norm(f, LorentzParams(p, p))
        if direct > 0 and abs(viaq - direct) > 1e-10 * direct:
            problems.append(f"L^(p,p) disagrees with L^p: {viaq} vs {direct}")
            break

    for trial in range(1000):
        f = random_unit_mean_zero(rng, cells=int(rng.integers(2, 40)))
        osc = volterra_apply(f).oscillation()
        if float(osc) > 0.5 + 1e-12:
            problems.append(f"oscillation {osc} above 1/2")
            break

    bounds = []
    for n in range(1, 6):
        bounds.append(isomorphism_lower_1d(n))
        bounds.append(approximation_upper(n))
        if n >= 2:
            bounds.append(kolmogorov_upper_1d(n))
        subspace = random_mean_zero_step_subspace(rng, min(n, 3), 32)
        bounds.append(bernstein_upper_1d(subspace, rng=rng))
    report = snumber_axiom_suite(bounds)
    if not report.passed:
        problems.extend(report.violations)
    return _finish(
        "property_suites", t0, 60.0, problems,
        "superadditivity (1000), Lebesgue agreement (200), oscillation (1000), chain consistency",
    )


ACCEPTANCE_CHECKS = (
    ("one_dim_isomorphism", check_one_dim_isomorphism),
    ("one_dim_bernstein", check_one_dim_bernstein),
    ("one_dim_gelfand_approximation", check_one_dim_gelfand_approximation),
    ("one_dim_kolmogorov", check_one_dim_kolmogorov),
    ("operator_norm_half", check_operator_norm),
    ("hilbert_structure", check_hilbert_structure),
    ("john_uniformity", check_john_uniformity),
    ("cube_scaling", check_cube_scaling),
    ("cube_bernstein_chain", check_cube_bernstein_chain),
    ("property_suites", check_property_suites),
)


def run_selftest(names=None, stream=None) -> int:
    """Run the acceptance matrix; returns a process exit status."""
    import sys

    stream = stream or sys.stdout
    known = {name for name, _ in ACCEPTANCE_CHECKS}
    if names:
        unknown = set(names) - known
        if unknown:
            stream.write(f"unknown checks: {', '.join(sorted(unknown))}\n")
            return 2
    failures = 0
    for name, check in ACCEPTANCE_CHECKS:
        if names and name not in names:
            continue
        result = check()
        mark = "PASS" if result.passed else "FAIL"
        stream.write(f"[{mark}] {name} ({result.elapsed:.1f}s): {result.detail}\n")
        if not result.passed:
            failures += 1
    return 1 if failures else 0
