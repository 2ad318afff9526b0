"""Batch front end: run estimator suites, emit result tables and witness
files, drive the structural checks.

Exit status: 0 on success, 1 when a certified invariant is violated, 2 on
usage errors.  Identical configurations (including the seed) reproduce the
result JSON byte for byte; there are no timestamps in the output.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import selftest as selftest_mod
from .hilbert import MAX_CUBES, check_face_adjacency, check_prefix_nesting, hilbert_order
from .john import uniform_john_constant, verify_segment_domains
from .snumbers import (
    DegenerateBasisError,
    SNumberBound,
    Subspace,
    approximation_upper,
    bernstein_upper_1d,
    bernstein_upper_ddim,
    gelfand_lower_bound,
    hat_functions,
    hat_subspace_ratio_grid,
    isomorphism_lower_1d,
    isomorphism_lower_ddim,
    kolmogorov_lower_witness,
    kolmogorov_upper_1d,
    random_mean_zero_step_subspace,
    snumber_axiom_suite,
)
from .spaces import (
    EXACT,
    LorentzParams,
    _num_from_json,
    _num_to_json,
    random_step_function,
    step_to_json_dict,
)
from .volterra import operator_norm_discrete

KIND_LETTERS = {"a": "approximation", "c": "gelfand", "d": "kolmogorov",
                "b": "bernstein", "i": "isomorphism"}
CUBE_KIND_LETTERS = {"b": "bernstein", "i": "isomorphism"}  # what `snum cube` computes
TABLE_BLOCK = 1 << 14  # ordering-table cells formatted per write


@dataclass
class RunConfig:
    """Everything that determines a run; the seed fixes every search."""

    command: str
    dimension: int = 1
    grid: int = 64
    n_list: tuple = ()
    kinds: tuple = ()
    seed: int = 0
    eps: float = 1e-3
    zigzag_eps: float = 0.05
    subspaces: int = 20
    space: tuple = ()
    curve_order: int = 3
    out: str | None = None
    csv: str | None = None
    plot_data: str | None = None

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["n_list"] = list(self.n_list)
        d["kinds"] = list(self.kinds)
        d["space"] = [_num_to_json(x) for x in self.space]
        return d


def _parse_exponent(text: str):
    value = Fraction(text.strip())
    return int(value) if value.denominator == 1 else value


def _parse_n_list(text: str):
    """An argparse type: a comma list of positive integers and ranges lo..hi."""
    out = []
    try:
        for part in text.split(","):
            part = part.strip()
            if ".." in part:
                lo, hi = part.split("..")
                out.extend(range(int(lo), int(hi) + 1))
            else:
                out.append(int(part))
    except ValueError:
        out = []
    if not out or any(n < 1 for n in out):
        raise argparse.ArgumentTypeError(f"bad n list {text!r}")
    return tuple(dict.fromkeys(out))


def _parse_kinds(args) -> tuple:
    letters = CUBE_KIND_LETTERS if args.command == "cube" else KIND_LETTERS
    kinds = []
    for letter in args.kinds.split(","):
        letter = letter.strip()
        if letter not in letters:
            raise ValueError(
                f"unknown kind {letter!r} in --kinds; choose from "
                + ", ".join(sorted(letters))
            )
        kinds.append(letters[letter])
    return tuple(kinds)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _nonnegative_float(text: str) -> float:
    value = _float_or_nan(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = _float_or_nan(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def _exponent_pair(text: str) -> tuple:
    """``p,q`` as exact exponents; the empty default stands for (dim, 1)."""
    if not text:
        return ()
    try:
        pair = tuple(_parse_exponent(x) for x in text.split(","))
    except (ValueError, ZeroDivisionError):
        pair = ()
    if len(pair) != 2:
        raise argparse.ArgumentTypeError(f"must be two exponents p,q, got {text!r}")
    return pair


def _rng_for(config: RunConfig, kind: str, n: int):
    kind_id = sorted(KIND_LETTERS.values()).index(kind)
    return np.random.default_rng([config.seed, kind_id, n])


def _volterra_task(config: RunConfig, kind: str, n: int) -> list:
    rng = _rng_for(config, kind, n)
    if kind == "isomorphism":
        return [isomorphism_lower_1d(n, config.grid)]
    if kind == "approximation":
        return [approximation_upper(n)]
    if kind == "gelfand":
        sets = []
        for _ in range(config.subspaces):
            m = int(rng.integers(0, min(4, n - 1) + 1))
            sets.append([random_step_function(rng, max_pieces=16, exact=True)
                         for _ in range(m)])
        return [gelfand_lower_bound(n, sets, Fraction(config.eps).limit_denominator(10**9))]
    if kind == "kolmogorov":
        if n == 1:
            value, attaining = operator_norm_discrete(max(config.grid, 2))
            return [SNumberBound(
                kind="kolmogorov", n=1, lower=value, upper=value,
                witness={"note": "first scale equals the operator norm",
                         "attaining_element": step_to_json_dict(attaining)},
                mode=EXACT, status="certified",
                label="interval embedding: kolmogorov at n=1 = 1/2",
            )]
        return [
            kolmogorov_upper_1d(n),
            kolmogorov_lower_witness(10, n=n, rng=rng),
        ]
    if kind == "bernstein":
        ratios = []
        worst = None
        for _ in range(config.subspaces):
            subspace = random_mean_zero_step_subspace(rng, n, config.grid)
            bound = bernstein_upper_1d(subspace, eps=config.zigzag_eps, rng=rng)
            ratios.append(bound.witness.get("ratio_bound_for_subspace"))
            if worst is None or (bound.upper or np.inf) >= (worst.upper or np.inf):
                worst = bound
        worst.witness["subspace_ratio_bounds"] = ratios
        worst.witness["subspaces_tested"] = config.subspaces
        return [worst]
    raise AssertionError(kind)


def _run_volterra(config: RunConfig) -> list:
    return [b for kind in config.kinds for n in config.n_list
            for b in _volterra_task(config, kind, n)]


def _run_cube(config: RunConfig) -> list:
    params = LorentzParams(*config.space) if config.space else LorentzParams(config.dimension, 1)
    bounds = []
    for m in config.n_list:  # here the list holds m values, n = m^d
        rng = _rng_for(config, "isomorphism", m)
        grid = config.grid
        block = 1 << (config.curve_order + 1)
        if grid % (2 * m) or grid % block:
            lcm = np.lcm(2 * m, block)
            grid = int(lcm * max(1, round(config.grid / lcm)))
        if "isomorphism" in config.kinds:
            bounds.append(isomorphism_lower_ddim(config.dimension, m, params, grid))
        if "bernstein" in config.kinds:
            hats = hat_functions(config.dimension, m, grid)
            bound = bernstein_upper_ddim(Subspace(hats), curve_order=config.curve_order,
                                         eps=config.zigzag_eps, rng=rng)
            bound.witness["grid_ratio_equal_coefficients"] = hat_subspace_ratio_grid(hats, params)
            bounds.append(bound)
    return bounds


def _emit(config: RunConfig, payload: dict) -> None:
    if config.out:
        out = Path(config.out)
        results = payload["results"]
        if results:
            wdir = out.with_name(out.stem + "-witnesses")
            wdir.mkdir(parents=True, exist_ok=True)
            used = set()
            for row in results:
                name = f"{row['kind']}-{row['n']}.json"
                serial = 2
                while name in used:  # e.g. upper and lower records at one scale
                    name = f"{row['kind']}-{row['n']}-{serial}.json"
                    serial += 1
                used.add(name)
                (wdir / name).write_text(
                    json.dumps(row["witness"], indent=2, sort_keys=True)
                )
                row["witness_path"] = str(wdir / name)
                del row["witness"]
        out.write_text(json.dumps(payload, indent=2, sort_keys=True))
    else:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    if config.csv:
        with open(config.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["kind", "n", "lower", "upper", "status", "witness_path"])
            for row in payload["results"]:
                writer.writerow([
                    row["kind"], row["n"], row["lower"], row["upper"],
                    row["status"], row.get("witness_path", ""),
                ])
    if config.plot_data:
        with open(config.plot_data, "w") as fh:
            fh.write("kind\tn\tlower\tupper\tlog_n\tlog_lower\tlog_upper\n")
            for row in payload["results"]:
                lo, up, n = row["lower"], row["upper"], row["n"]

                def flog(x):
                    v = _as_float(x)
                    return "" if v is None or v <= 0 else f"{np.log(v):.12g}"

                fh.write(
                    f"{row['kind']}\t{n}\t{_fmt(lo)}\t{_fmt(up)}\t"
                    f"{np.log(n):.12g}\t{flog(lo)}\t{flog(up)}\n"
                )


def _as_float(x):
    return None if x is None else float(_num_from_json(x))


def _fmt(x):
    v = _as_float(x)
    return "" if v is None else f"{v:.12g}"


def _run_hilbert(args) -> int:
    ordering = hilbert_order(args.dim, args.order)
    status = 0
    if args.check:
        ok_adj, where = check_face_adjacency(ordering)
        ok_nest, reentered = check_prefix_nesting(ordering)
        if not ok_adj:
            sys.stderr.write(f"check_face_adjacency: FAIL at index {where}\n")
            status = 1
        if not ok_nest:
            level, coords = reentered
            sys.stderr.write(f"check_prefix_nesting: FAIL at level {level} cube "
                             f"({', '.join(map(str, coords))})\n")
            status = 1
        if status == 0:
            sys.stdout.write("check_face_adjacency: ok\ncheck_prefix_nesting: ok\n")
    if args.format == "json":
        chunks = _hilbert_json(ordering)
    else:  # a file gets csv.writer's bytes, stdout bare rows
        chunks = _hilbert_csv(ordering, b"\r\n" if args.out else b"\n", header=bool(args.out))
    if args.out:
        with open(args.out, "wb") as fh:
            fh.writelines(chunks)
    elif not args.check:
        sys.stdout.flush()  # text written so far goes out before the table's bytes
        sys.stdout.buffer.writelines(chunks)
        if args.format == "json":
            sys.stdout.buffer.write(b"\n")
    return status


def _table_blocks(ordering, index_last: bool):
    """Per block of at most ``TABLE_BLOCK`` cells: the cell count and each
    cell's 1-based index and coordinates, flattened to Python ints."""
    for lo in range(0, len(ordering), TABLE_BLOCK):
        coords = ordering.coords[lo:lo + TABLE_BLOCK]
        index = np.arange(lo + 1, lo + len(coords) + 1)[:, None]
        columns = [coords, index] if index_last else [index, coords]
        yield len(coords), tuple(np.hstack(columns).ravel().tolist())


def _hilbert_json(ordering):
    """The bytes of ``json.dumps({"dim": d, "order": k, "cells": [{"index": i,
    "coords": [...]}, ...]}, indent=2, sort_keys=True)`` in blocks of cells,
    formatted from the arrays without building the cell dicts."""
    coords = b",\n".join([b"        %d"] * ordering.dim)
    cell = b'    {\n      "coords": [\n' + coords + b'\n      ],\n      "index": %d\n    }'
    yield b'{\n  "cells": [\n'
    separator = b""
    for count, values in _table_blocks(ordering, index_last=True):
        yield separator + b",\n".join([cell] * count) % values
        separator = b",\n"
    yield b'\n  ],\n  "dim": %d,\n  "order": %d\n}' % (ordering.dim, ordering.order)


def _hilbert_csv(ordering, newline: bytes, header: bool):
    """Rows ``index,z0,...`` each ended by ``newline``, in blocks of cells;
    with the header and b"\\r\\n" these are the bytes ``csv.writer`` writes."""
    names = ["index"] + [f"z{a}" for a in range(ordering.dim)]
    row = b",".join([b"%d"] * len(names)) + newline
    if header:
        yield ",".join(names).encode() + newline
    for count, values in _table_blocks(ordering, index_last=False):
        yield (row * count) % values


def _run_john(args) -> int:
    ordering = hilbert_order(args.dim, args.order)
    total = len(ordering)
    if args.exhaustive:
        pairs = ((i, j) for i in range(1, total + 1) for j in range(i, total + 1))
    else:  # the seed draws only the pairs
        rng = np.random.default_rng(args.seed)
        pairs = []
        for _ in range(args.pairs):
            i = int(rng.integers(1, total + 1))
            pairs.append((i, int(rng.integers(i, total + 1))))
    status = 0
    constant = uniform_john_constant(args.dim)  # every certificate's constant
    # opened first: an unwritable path fails before any domain is measured
    with open(args.out, "w", newline="") if args.out else nullcontext(sys.stdout) as target:
        writer = csv.writer(target)
        writer.writerow(["i", "j", "constant", "profile_bound", "worst_ratio", "verdict"])
        for omega, _, result in verify_segment_domains(ordering, pairs, args.samples):
            if isinstance(result, Exception):  # a failed row, not a usage error
                sys.stderr.write(f"snum john: domain {omega.i}..{omega.j}: {result}\n")
                ok, worst, bound = False, math.inf, math.nan
            else:
                ok, worst, _, bound = result
            if not ok:
                status = 1
            writer.writerow([omega.i, omega.j, f"{constant:.12g}", f"{bound:.12g}",
                             f"{worst:.12g}", "pass" if ok else "fail"])
    return status


def _check_size(args, flag: str, order: int) -> None:
    """A usage error naming ``flag`` when the ordering's 2^(dim*order) cubes
    exceed ``MAX_CUBES``."""
    if args.dim * order > MAX_CUBES.bit_length() - 1:  # log2(MAX_CUBES)
        args.usage_error(f"argument {flag}: 2^(dim*{flag[2:].replace('-', '_')}) = "
                         f"2^{args.dim * order} cubes exceed {MAX_CUBES}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snum",
        description="certified s-number bounds with inspectable witnesses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_vol = sub.add_parser("volterra", help="interval embedding estimators")
    p_vol.add_argument("--n", type=_parse_n_list, required=True, help="scale list, e.g. 1..5 or 1,2,8")
    p_vol.add_argument("--grid", type=_positive_int, default=240)
    p_vol.add_argument("--kinds", default="i,b,c,d,a")
    p_vol.add_argument("--seed", type=_nonnegative_int, default=0)
    p_vol.add_argument("--eps", type=_positive_float, default=1e-3,
                       help="functional quantization step")
    p_vol.add_argument("--zigzag-eps", type=_nonnegative_float, default=0.05)
    p_vol.add_argument("--subspaces", type=_positive_int, default=20)
    p_vol.add_argument("--out")
    p_vol.add_argument("--csv")
    p_vol.add_argument("--plot-data")

    p_cube = sub.add_parser("cube", help="cube embedding estimators")
    p_cube.add_argument("--dim", type=_positive_int, default=2)
    p_cube.add_argument("--m", type=_parse_n_list, required=True, help="balls per side, e.g. 1,2,4")
    p_cube.add_argument("--space", type=_exponent_pair, default="",
                        help="Lorentz exponents p,q")
    p_cube.add_argument("--curve-order", type=_positive_int, default=3)
    p_cube.add_argument("--grid", type=_positive_int, default=32)
    p_cube.add_argument("--kinds", default="i,b")
    p_cube.add_argument("--zigzag-eps", type=_nonnegative_float, default=0.05)
    p_cube.add_argument("--seed", type=_nonnegative_int, default=0)
    p_cube.add_argument("--out")
    p_cube.add_argument("--csv")
    p_cube.add_argument("--plot-data")

    p_hil = sub.add_parser("hilbert", help="emit and check the cube ordering")
    p_hil.add_argument("--dim", type=_positive_int, required=True)
    p_hil.add_argument("--order", type=_positive_int, required=True)
    p_hil.add_argument("--check", action="store_true")
    p_hil.add_argument("--format", choices=["json", "csv"], default="json")
    p_hil.add_argument("--out")

    p_john = sub.add_parser("john", help="segment-domain certificates")
    p_john.add_argument("--dim", type=_positive_int, required=True)
    p_john.add_argument("--order", type=_positive_int, required=True)
    group = p_john.add_mutually_exclusive_group()
    group.add_argument("--pairs", type=_positive_int, default=100)
    group.add_argument("--exhaustive", action="store_true")
    p_john.add_argument("--samples", type=_positive_int, default=10_000,
                        help="per-domain budget of walk points the John proof "
                             "evaluates; a domain whose proof needs more fails")
    p_john.add_argument("--seed", type=_nonnegative_int, default=0)
    p_john.add_argument("--out")

    for command in (p_vol, p_cube, p_hil, p_john):  # usage errors found after parsing name the command
        command.set_defaults(usage_error=command.error)

    p_self = sub.add_parser("selftest", help="run the acceptance matrix")
    p_self.add_argument("--only", default="", help="comma list of check names")
    return parser


def run(config: RunConfig) -> int:
    """Run an estimator suite described by a configuration record."""
    if config.command == "volterra":
        for n in config.n_list:
            if "isomorphism" in config.kinds and config.grid % (2 * n):
                sys.stderr.write(f"grid {config.grid} is not divisible by 2n = {2*n}\n")
                return 2
            if "bernstein" in config.kinds and n >= config.grid:
                sys.stderr.write(f"grid {config.grid} holds only {config.grid - 1} mean-zero "
                                 f"dimensions, too few for a bernstein subspace of n = {n}\n")
                return 2
        bounds = _run_volterra(config)
    elif config.command == "cube":
        bounds = _run_cube(config)
    else:
        raise ValueError(f"run() drives volterra/cube, not {config.command!r}")
    report = snumber_axiom_suite(bounds)
    _emit(config, {
        "config": config.to_json_dict(),
        "results": [b.to_json_dict() for b in bounds],
        "consistency": {"passed": report.passed, "checked": report.checked,
                        "violations": report.violations},
    })
    if not report.passed:
        sys.stderr.write("consistency violations:\n  " + "\n  ".join(report.violations) + "\n")
        return 1
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "volterra":
            config = RunConfig(
                command="volterra",
                grid=args.grid,
                n_list=args.n,
                kinds=_parse_kinds(args),
                seed=args.seed,
                eps=args.eps,
                zigzag_eps=args.zigzag_eps,
                subspaces=args.subspaces,
                out=args.out,
                csv=args.csv,
                plot_data=args.plot_data,
            )
            return run(config)
        if args.command == "cube":
            if args.dim < 2:
                args.usage_error("argument --dim: the cube construction needs dim >= 2")
            _check_size(args, "--curve-order", args.curve_order)
            config = RunConfig(
                command="cube",
                dimension=args.dim,
                grid=args.grid,
                n_list=args.m,
                kinds=_parse_kinds(args),
                seed=args.seed,
                zigzag_eps=args.zigzag_eps,
                space=args.space,
                curve_order=args.curve_order,
                out=args.out,
                csv=args.csv,
                plot_data=args.plot_data,
            )
            return run(config)
        if args.command == "hilbert":
            _check_size(args, "--order", args.order)
            return _run_hilbert(args)
        if args.command == "john":
            _check_size(args, "--order", args.order)
            return _run_john(args)
        if args.command == "selftest":
            names = {s.strip() for s in args.only.split(",") if s.strip()} or None
            return selftest_mod.run_selftest(names)
    except DegenerateBasisError as exc:  # a failed certified invariant, not a usage error
        sys.stderr.write(f"snum {args.command}: basis is not linearly independent: {exc}\n")
        return 1
    except (KeyError, ValueError, OSError) as exc:  # OSError names the path
        parser.error(str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
