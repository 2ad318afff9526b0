"""The benchmark's workloads and the checks on their outputs.

Each workload is one ``snum`` command line built from the seed.  Its checker
reads what one invocation left in its working directory and returns
``(attempted, problems)``: the number of operations checked (a result row, a
checker or a domain, plus the invocation itself) and one message per failed
operation.  No checker pins a digest of the output, so that any correct output
passes.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

INTERVAL_N = range(1, 4)
ZIGZAG_EPS = 0.05  # the CLI's default --zigzag-eps
KINDS = ("isomorphism", "bernstein", "gelfand", "kolmogorov", "approximation")
HILBERT_DIM, HILBERT_ORDER = 3, 6
JOHN_PAIRS = 300


def _value(x):
    """A result value as an exact Fraction (rational strings) or a float."""
    if isinstance(x, str):
        return Fraction(x)
    return x


def _interval_row_problems(row) -> list:
    kind, n = row["kind"], row["n"]
    lower, upper = _value(row["lower"]), _value(row["upper"])
    where = f"{kind} n={n}"
    if row["status"] != "certified":
        return [f"{where}: status {row['status']}"]
    if kind == "isomorphism" and lower != Fraction(1, 2 * n):
        return [f"{where}: lower {row['lower']} is not 1/(2n)"]
    if kind == "approximation" and upper != Fraction(1, 2):
        return [f"{where}: upper {row['upper']} is not 1/2"]
    if kind == "gelfand" and not (lower is not None and lower >= Fraction("0.499")):
        return [f"{where}: lower {row['lower']} below 0.499"]
    if kind == "bernstein":
        # the same float expression the estimator states, with rounding room
        limit = (1 + ZIGZAG_EPS) / (2 * n) * (1 + 1e-12)
        if upper is None or not upper <= limit:
            return [f"{where}: upper {row['upper']} above (1+eps)/(2n)"]
    if kind == "kolmogorov":
        if n == 1 and not (lower == upper == Fraction(1, 2)):
            return [f"{where}: first scale {row['lower']}..{row['upper']} is not 1/2"]
        if n > 1 and upper is not None and upper != Fraction(1, 4):
            return [f"{where}: upper {row['upper']} is not 1/4"]
        if n > 1 and lower is not None and not lower >= Fraction("0.249"):
            return [f"{where}: lower {row['lower']} below 0.249"]
    return []


def _interval_expected() -> list:
    keys = []
    for kind in KINDS:
        for n in INTERVAL_N:
            keys.append((kind, n))
            if kind == "kolmogorov" and n > 1:  # an upper and a lower record
                keys.append((kind, n))
    return keys


def check_interval(work: Path, stdout: str) -> tuple[int, list]:
    expected = _interval_expected()
    payload = json.loads((work / "result.json").read_text())
    problems = []
    missing = list(expected)
    for row in payload["results"]:
        key = (row["kind"], row["n"])
        if key in missing:
            missing.remove(key)
            problems += _interval_row_problems(row)
        else:
            problems.append(f"unexpected row {key}")
    problems += [f"missing row {key}" for key in missing]
    if not payload["consistency"]["passed"]:
        problems.append(f"consistency: {payload['consistency']['violations']}")
    return len(expected) + 1, problems


def check_cube(work: Path, stdout: str) -> tuple[int, list]:
    payload = json.loads((work / "result.json").read_text())
    rows = {row["kind"]: row for row in payload["results"]}
    problems = []
    for kind in ("isomorphism", "bernstein"):
        row = rows.get(kind)
        if row is None:
            problems.append(f"missing {kind} row")
            continue
        if row["status"] != "certified":
            problems.append(f"{kind}: status {row['status']}")
            continue
        if kind == "isomorphism":
            if not _value(row["lower"]) > 0:
                problems.append(f"isomorphism: lower {row['lower']} is not positive")
            continue
        w = json.loads((work / row["witness_path"]).read_text())
        links = [("osc", link) for link in w["osc_links"]]
        links += [("holder", w["holder"]), ("lorsum", w["lorsum"])]
        bad = [f"{name} slack {link['slack']}" for name, link in links if not link["slack"] >= 0]
        if len(w["osc_links"]) != 63:
            bad.append(f"{len(w['osc_links'])} oscillation links, want n-1 = 63")
        if not w["ratio_at_witness"] <= w["chain_ratio_bound"]:
            bad.append(f"ratio_at_witness {w['ratio_at_witness']} above "
                       f"chain_ratio_bound {w['chain_ratio_bound']}")
        if row["upper"] != w["chain_ratio_bound"]:
            bad.append("upper differs from chain_ratio_bound")
        if bad:
            problems.append("bernstein chain: " + "; ".join(bad))
    if not payload["consistency"]["passed"]:
        problems.append(f"consistency: {payload['consistency']['violations']}")
    return 3, problems


def check_table(cells, dim: int, order: int) -> list:
    """Problems with an emitted ordering table: it must be a face-adjacent
    bijection from 1..2^(dim*order) onto the cubes of the grid."""
    side = 1 << order
    total = side**dim
    index = np.array([c["index"] for c in cells])
    coords = np.array([c["coords"] for c in cells])
    if coords.shape != (total, dim):
        return [f"table shape {coords.shape}, want {(total, dim)}"]
    problems = []
    if not np.array_equal(index, np.arange(1, total + 1)):
        problems.append("indices are not 1..N in order")
    if coords.min() < 0 or coords.max() >= side:
        problems.append("coordinates outside the grid")
    elif len(np.unique(np.ravel_multi_index(coords.T, (side,) * dim))) != total:
        problems.append("table is not a bijection onto the grid")
    steps = np.abs(np.diff(coords, axis=0)).sum(axis=1)
    if (steps != 1).any():
        problems.append(f"cells {int(np.argmax(steps != 1)) + 1} and next are not face-adjacent")
    return problems


def check_hilbert(work: Path, stdout: str) -> tuple[int, list]:
    problems = [f"missing line {line!r}" for line in
                ("check_face_adjacency: ok", "check_prefix_nesting: ok")
                if line not in stdout.splitlines()]
    table = json.loads((work / "table.json").read_text())
    if (table["dim"], table["order"]) != (HILBERT_DIM, HILBERT_ORDER):
        problems.append(f"table header {table['dim']}, {table['order']}")
    bad = check_table(table["cells"], HILBERT_DIM, HILBERT_ORDER)
    if bad:
        problems.append("table: " + "; ".join(bad))
    return 3, problems


def check_john(work: Path, stdout: str) -> tuple[int, list]:
    with open(work / "john.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    for row in rows[:JOHN_PAIRS]:
        if row["verdict"] != "pass" or not float(row["worst_ratio"]) <= float(row["constant"]):
            problems.append(f"domain {row['i']}..{row['j']}: {row['verdict']}, "
                            f"worst {row['worst_ratio']} vs {row['constant']}")
    if len(rows) < JOHN_PAIRS:
        problems += [f"domain {k} missing" for k in range(len(rows) + 1, JOHN_PAIRS + 1)]
    elif len(rows) > JOHN_PAIRS:
        problems.append(f"{len(rows)} domains, want {JOHN_PAIRS}")
    constants = {row["constant"] for row in rows}
    if len(constants) != 1:
        problems.append(f"{len(constants)} distinct John constants")
    return JOHN_PAIRS + 1, problems


def check_outputs(workload, work: Path, stdout: str) -> tuple[int, list]:
    """Run the workload's checker; output it cannot read is one failed operation."""
    try:
        return workload.check(work, stdout)
    except (OSError, ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return 1, [f"unreadable output: {type(exc).__name__}: {exc}"]


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int], list]
    check: Callable[[Path, str], tuple]


WORKLOADS = {
    w.name: w
    for w in [
        Workload("interval", lambda seed: [
            "volterra", "--n", f"1..{INTERVAL_N[-1]}", "--grid", "240", "--kinds", "i,b,c,d,a",
            "--subspaces", "20", "--seed", str(seed), "--out", "result.json",
        ], check_interval),
        Workload("cube-chain", lambda seed: [
            "cube", "--dim", "3", "--m", "4", "--curve-order", "3", "--grid", "64",
            "--seed", str(seed), "--out", "result.json",
        ], check_cube),
        # `snum hilbert` takes no seed: the ordering is the same for every seed
        Workload("hilbert-table", lambda seed: [
            "hilbert", "--dim", str(HILBERT_DIM), "--order", str(HILBERT_ORDER), "--check",
            "--format", "json", "--out", "table.json",
        ], check_hilbert),
        Workload("john-domains", lambda seed: [
            "john", "--dim", "2", "--order", "5", "--pairs", str(JOHN_PAIRS),
            "--samples", "10000", "--seed", str(seed), "--out", "john.csv",
        ], check_john),
    ]
}
