"""Check that the benchmark counts a corrupted output as a failure.

Run from the root of an snum checkout::

    python3 perfbench/corruption_check.py

For each workload it runs the real command once (seed 1, about 40 s in all),
requires the output to pass its checker, then applies several corruptions,
one at a time to a fresh copy, and requires each to be counted as at least
one failed operation.  Exit status 0 iff every case behaves.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS, check_outputs  # noqa: E402


def _edit_json(path: Path, fn) -> None:
    data = json.loads(path.read_text())
    fn(data)
    path.write_text(json.dumps(data))


def _edit_rows(rows, kind, n, **changes):
    for row in rows:
        if row["kind"] == kind and row["n"] == n:
            row.update(changes)
            return
    raise LookupError((kind, n))


def _edit_csv(path: Path, fn) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    fn(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _witness(work: Path, kind: str) -> Path:
    rows = json.loads((work / "result.json").read_text())["results"]
    return work / next(r["witness_path"] for r in rows if r["kind"] == kind)


def _swap_cells(table):
    cells = table["cells"]
    cells[10]["coords"], cells[20]["coords"] = cells[20]["coords"], cells[10]["coords"]


def _duplicate_cell(table):
    table["cells"][5]["coords"] = list(table["cells"][4]["coords"])


# workload -> [(description, corrupt(work_dir) -> new stdout or None)]
CORRUPTIONS = {
    "interval": [
        ("isomorphism value off", lambda w: _edit_json(
            w / "result.json", lambda d: _edit_rows(d["results"], "isomorphism", 3, lower="1/7"))),
        ("bernstein inconclusive", lambda w: _edit_json(
            w / "result.json",
            lambda d: _edit_rows(d["results"], "bernstein", 3, status="inconclusive"))),
        ("bernstein above (1+eps)/(2n)", lambda w: _edit_json(
            w / "result.json", lambda d: _edit_rows(d["results"], "bernstein", 2, upper=0.3))),
        ("gelfand too low", lambda w: _edit_json(
            w / "result.json", lambda d: _edit_rows(d["results"], "gelfand", 3, lower="2/5"))),
        ("row missing", lambda w: _edit_json(
            w / "result.json", lambda d: d["results"].pop(7))),
        ("consistency failed", lambda w: _edit_json(
            w / "result.json", lambda d: d["consistency"].update(passed=False))),
        ("truncated", lambda w: (w / "result.json").write_text(
            (w / "result.json").read_text()[:500])),
    ],
    "cube-chain": [
        ("negative link slack", lambda w: _edit_json(
            _witness(w, "bernstein"), lambda d: d["osc_links"][3].update(slack=-1e-9))),
        ("Hoelder slack negative", lambda w: _edit_json(
            _witness(w, "bernstein"), lambda d: d["holder"].update(slack=-0.5))),
        ("ratio above chain bound", lambda w: _edit_json(
            _witness(w, "bernstein"),
            lambda d: d.update(ratio_at_witness=2 * d["chain_ratio_bound"]))),
        ("bernstein inconclusive", lambda w: _edit_json(
            w / "result.json",
            lambda d: _edit_rows(d["results"], "bernstein", 64, status="inconclusive"))),
        ("witness missing", lambda w: _witness(w, "bernstein").unlink()),
    ],
    "hilbert-table": [
        ("checker line missing", lambda w: "check_face_adjacency: ok\n"),
        ("cells swapped", lambda w: _edit_json(w / "table.json", _swap_cells)),
        ("cell duplicated", lambda w: _edit_json(w / "table.json", _duplicate_cell)),
        ("table missing", lambda w: (w / "table.json").unlink()),
    ],
    "john-domains": [
        ("verdict fail", lambda w: _edit_csv(w / "john.csv", lambda r: r[17].__setitem__(5, "fail"))),
        ("second constant", lambda w: _edit_csv(
            w / "john.csv", lambda r: r[30].__setitem__(2, "41.0"))),
        ("domain missing", lambda w: _edit_csv(w / "john.csv", lambda r: r.pop(100))),
    ],
}


def main() -> int:
    root = Path.cwd()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + os.pathsep + env.get("PYTHONPATH", "")
    bad = 0
    with tempfile.TemporaryDirectory(dir=root, prefix=".perfbench_check-") as tmp:
        for name, cases in CORRUPTIONS.items():
            workload = WORKLOADS[name]
            clean = Path(tmp) / name
            clean.mkdir()
            proc = subprocess.run([sys.executable, "-m", "snum.cli", *workload.argv(1)],
                                  cwd=clean, env=env, capture_output=True, text=True)
            attempted, problems = check_outputs(workload, clean, proc.stdout)
            ok = proc.returncode == 0 and not problems
            print(f"{'PASS' if ok else 'FAIL'} {name}: clean output, {attempted} operations, "
                  f"{len(problems)} failed {problems[:3]}")
            bad += not ok
            for description, corrupt in cases:
                work = Path(tmp) / f"{name}-case"
                shutil.copytree(clean, work)
                stdout = corrupt(work)
                attempted, problems = check_outputs(
                    workload, work, proc.stdout if stdout is None else stdout)
                ok = len(problems) >= 1
                print(f"{'PASS' if ok else 'FAIL'} {name}: {description} -> "
                      f"{len(problems)} of {attempted} operations failed")
                bad += not ok
                shutil.rmtree(work)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
