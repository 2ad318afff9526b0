"""The snum benchmark: real ``snum`` command lines in fresh processes.

Run from the root of a checkout::

    python3 perfbench/run.py --workload interval --seed 1 --seconds 32 --trace 0

Each invocation is ``snum.cli.main(argv)`` in a fresh child process (see
``child.py``), one child at a time, so every invocation pays the import and
first-call costs a user pays.  ``SNUM_THREADS`` and the BLAS thread count are
left at the user's defaults and recorded.  A run repeats rounds of one
import-only probe and one invocation, at least twice and as often as fits in
``--seconds``, checks every output and reports medians.  Its inputs depend
only on ``--seed``.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` each round runs an untraced and a traced invocation, and the
last line reports the per-layer metrics (see ``spans.py``).  The line before
it holds the run conditions and every per-invocation value.  The exit status is 0 when the
benchmark ran, even if outputs were wrong (``correct`` says so), and 2 when
the checkout holds no program to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, check_outputs  # noqa: E402

CHILD_TIMEOUT_S = 150
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "success_ratio": "ratio"}

# traced span -> what is reported for it: the number of spans and/or their
# summed self time
LAYER_SPANS = {
    "snumbers.zigzag_find": ("calls", "self_s"),
    "snumbers.Subspace.init": ("self_s",),
    "snumbers.bernstein_upper_1d": ("self_s",),
    "snumbers.bernstein_upper_ddim": ("self_s",),
    "snumbers.kolmogorov_lower_witness": ("self_s",),
    "snumbers.kolmogorov_upper_1d": ("self_s",),
    "snumbers.gelfand_lower_bound": ("self_s",),
    "snumbers.isomorphism_lower_ddim": ("self_s",),
    "snumbers.hat_functions": ("self_s",),
    "snumbers.snumber_axiom_suite": ("self_s",),
    "volterra.curve_eval": ("calls", "self_s"),
    "volterra.volterra_apply": ("self_s",),
    "spaces.grid_gradient_lorentz_norm": ("calls", "self_s"),
    "spaces.lorentz_norm": ("calls", "self_s"),
    "hilbert.hilbert_order": ("self_s",),
    "hilbert.check_face_adjacency": ("self_s",),
    "hilbert.check_prefix_nesting": ("self_s",),
    "john.segment_domain": ("self_s",),
    "john.john_bound_constructive": ("self_s",),
    "john.verify_john_certificate": ("calls", "self_s"),
    "john.boundary_distance": ("calls", "self_s"),
}
LAYER_COUNTS = ["snumbers.zigzag_find.evaluations", "hilbert.hilbert_order.cubes",
                "john.verify_john_certificate.failed", "john.boundary_distance.points"]


def layer_units() -> dict:
    units = {"cli.self_s": "s", "cli.bytes_out": "bytes"}
    for span, kinds in LAYER_SPANS.items():
        for kind in kinds:
            units[f"{span}.{kind}"] = "s" if kind == "self_s" else "count"
    units.update({name: "count" for name in LAYER_COUNTS})
    units.update({"snumbers.zigzag_find.evals_per_s": "1/s",
                  "snumbers.zigzag_find.certified_ratio": "ratio",
                  "hilbert.bytes_per_cube": "bytes",
                  "trace.overhead_s": "s"})
    return units


def self_times(spans) -> dict:
    """Per span name: number of spans and summed self time, where a span's
    self time is its duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for sid, name, start, end, parent, thread in spans:
        if parent is not None:
            children[parent].append((start, end))
    calls, self_s = defaultdict(int), defaultdict(float)
    for sid, name, start, end, parent, thread in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        calls[name] += 1
        self_s[name] += (end - start) - covered
    return {"calls": calls, "self_s": self_s}


def layer_metrics(spans, counts, hilbert_bytes, hilbert_cubes, bytes_out) -> dict:
    agg = self_times(spans)
    out = {"cli.self_s": agg["self_s"]["cli.main"], "cli.bytes_out": bytes_out}
    for span, kinds in LAYER_SPANS.items():
        for kind in kinds:
            out[f"{span}.{kind}"] = agg[kind].get(span, 0)
    for name in LAYER_COUNTS:
        out[name] = counts.get(name, 0)
    zz_calls, zz_self = out["snumbers.zigzag_find.calls"], out["snumbers.zigzag_find.self_s"]
    out["snumbers.zigzag_find.evals_per_s"] = (
        out["snumbers.zigzag_find.evaluations"] / zz_self if zz_self > 0 else 0.0)
    out["snumbers.zigzag_find.certified_ratio"] = (
        counts.get("snumbers.zigzag_find.certified", 0) / zz_calls if zz_calls else 0.0)
    out["hilbert.bytes_per_cube"] = hilbert_bytes / hilbert_cubes if hilbert_cubes else 0.0
    return out


def tree_digest(work: Path, stdout: str) -> tuple[str, int]:
    """Digest of every output file (path and bytes) and of stdout; total bytes."""
    h = hashlib.sha256(stdout.encode())
    total = 0
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        h.update(str(path.relative_to(work)).encode() + b"\0" + data)
    return h.hexdigest(), total


def _mem_available_mb():
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def read_conditions(root: Path) -> dict:
    revision = dirty = None
    if (root / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True)
            status = subprocess.run(["git", "status", "--porcelain"], cwd=root,
                                    capture_output=True, text=True)
        except OSError:  # no git program
            rev = status = None
        if rev is not None and rev.returncode == 0:
            revision = rev.stdout.strip()
            dirty = bool(status.stdout.strip())
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": revision,
        "git_dirty": dirty,
        "src_sha256": src.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "snum_threads": os.environ.get("SNUM_THREADS"),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "mem_available_mb": _mem_available_mb(),
    }


class Run:
    def __init__(self, root: Path, workload, seed: int):
        self.root = root
        self.workload = workload
        self.argv = workload.argv(seed)
        self.base = root / ".perfbench_out" / f"{workload.name}-{os.getpid()}"
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.count = 0
        self.digest = None
        self.attempted = 0
        self.problems = []

    def _child(self, argv, trace: bool):
        self.count += 1
        inv = self.base / f"inv{self.count}"
        work = inv / "work"
        work.mkdir(parents=True)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(inv), "1" if trace else "0", *argv],
                cwd=work, env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:  # the child has been killed
            stdout = (exc.stdout or b"").decode(errors="replace")
            proc = subprocess.CompletedProcess(exc.cmd, -9, stdout,
                                               f"killed after {CHILD_TIMEOUT_S} s")
        report_path = inv / "report.json"
        report = json.loads(report_path.read_text()) if report_path.is_file() else None
        return inv, work, proc, report

    def _check_source(self, report) -> str | None:
        expected = self.root / "src" / "snum" / "cli.py"
        if Path(report["snum_file"]).resolve() != expected.resolve():
            return f"snum imported from {report['snum_file']}, not {expected}"
        return None

    def probe(self) -> float | None:
        """Set-up time of one import-only child; None if the import failed,
        which the next invocation then reports."""
        inv, work, proc, report = self._child([], trace=False)
        shutil.rmtree(inv)
        if proc.returncode != 0 or report is None or self._check_source(report):
            return None
        return report["setup_s"]

    def invoke(self, trace: bool) -> dict | None:
        """One invocation, checked; returns its report (None if it crashed)."""
        inv, work, proc, report = self._child(self.argv, trace)
        failures = []
        attempted, problems = check_outputs(self.workload, work, proc.stdout)
        self.attempted += attempted + 1  # the checked operations and the invocation
        self.problems += problems[:attempted]
        digest, bytes_out = tree_digest(work, proc.stdout)
        if proc.returncode != 0 or report is None or report["status"] != 0:
            failures.append(f"exit {proc.returncode}: {proc.stderr[-500:]}")
        elif problem := self._check_source(report):
            failures.append(problem)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            failures.append("outputs differ from the run's first invocation")
        if failures:
            self.problems.append(f"invocation {self.count}: " + "; ".join(failures))
        if report is not None:
            report["bytes_out"] = bytes_out
            spans_path = inv / "spans.json"
            if spans_path.is_file():
                report["spans"] = json.loads(spans_path.read_text())
        shutil.rmtree(inv)
        return report if report is not None and "wall_s" in report else None


def median(values):
    return statistics.median(values) if values else 0.0


def run_workload(root: Path, args) -> None:
    conditions = read_conditions(root)
    conditions["loadavg_before"] = os.getloadavg()
    # byte-compile the sources once, as an installed package would be
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(root / "src" / "snum")],
                   check=True, capture_output=True)

    run = Run(root, WORKLOADS[args.workload], args.seed)
    try:
        start = time.perf_counter()
        setups, plain, traced = [], [], []
        modes = [False, True] if args.trace else [False]
        rounds = 0
        while True:  # stop before a round would end past --seconds
            round_start = time.perf_counter()
            setups.append(run.probe())
            for trace in modes:
                report = run.invoke(trace)
                if report is not None:
                    (traced if trace else plain).append(report)
            rounds += 1
            now = time.perf_counter()
            if rounds * len(modes) >= 2 and now + (now - round_start) - start > args.seconds:
                break
            if run.count - rounds > len(plain) + len(traced):
                break  # an invocation crashed; report the failures
    finally:
        shutil.rmtree(run.base, ignore_errors=True)
        if run.base.parent.is_dir() and not any(run.base.parent.iterdir()):
            run.base.parent.rmdir()
    conditions["loadavg_after"] = os.getloadavg()
    if plain:
        conditions["versions"] = plain[0]["versions"]
        conditions["blas"] = plain[0]["blas"]

    failed = min(len(run.problems), run.attempted)
    attempted = max(run.attempted, 1)
    setups = [t for t in setups if t is not None] + [r["setup_s"] for r in plain + traced]
    if args.trace:
        units = layer_units()
        per_inv = [layer_metrics(r["spans"], r["counts"], r["hilbert_bytes"],
                                 r["hilbert_cubes"], r["bytes_out"]) for r in traced]
        values = {name: median([m[name] for m in per_inv]) for name in units
                  if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (median([r["wall_s"] for r in traced])
                                      - median([r["wall_s"] for r in plain]))
    else:
        units = END_TO_END
        values = {name: median([r[name] for r in plain])
                  for name in ("wall_s", "cpu_s", "peak_rss_mb")}
        values["setup_s"] = median(setups)
        values["success_ratio"] = 1.0 - failed / attempted

    detail = {
        "workload": args.workload, "seed": args.seed, "argv": run.argv,
        "trace": args.trace, "conditions": conditions,
        "setup_s": setups,
        "invocations": [{k: r[k] for k in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")}
                        | {"traced": trace}
                        for trace, reports in ((False, plain), (True, traced))
                        for r in reports],
        "problems": run.problems[:50],
    }
    for name in units:
        print(f"{args.workload:14s} {name:40s} {values[name]:>16.6g} {units[name]}")
    print(f"{args.workload:14s} {'failure_ratio':40s} {failed / attempted:>16.6g} "
          f"({failed} of {attempted} operations)")
    print(json.dumps({"perfbench": detail}))
    print(json.dumps({
        "correct": failed == 0 and bool(plain),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "snum" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no program at {root / 'src' / 'snum'}; "
                         "run from the root of an snum checkout\n")
        return 2
    for name in (WORKLOADS if args.workload == "all" else [args.workload]):
        run_workload(root, argparse.Namespace(**{**vars(args), "workload": name}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
