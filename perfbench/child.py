"""One fresh-process invocation of the ``snum`` command line.

Usage: ``python3 child.py REPORT_DIR TRACE ARG...`` from the directory that
receives the program's output files.  ``snum`` must be importable (the caller
puts the checkout's ``src`` on ``PYTHONPATH``).  The child times the import of
``snum.cli`` and the call ``snum.cli.main(ARGS)``, and writes
``REPORT_DIR/report.json``; with ``TRACE`` = 1 it also traces the layers and
writes ``REPORT_DIR/spans.json``.  With no ARG it only times the import.
"""

import json
import os
import resource
import sys
import time


def _blas_threads():
    """OpenBLAS's own thread count, or None where it cannot be queried."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def main():
    report_dir, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    t0 = time.perf_counter()
    import snum.cli
    setup_s = time.perf_counter() - t0
    if not argv:  # a set-up probe: the import alone
        with open(os.path.join(report_dir, "report.json"), "w") as fh:
            json.dump({"status": 0, "setup_s": setup_s, "snum_file": snum.cli.__file__}, fh)
        return

    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    t1 = time.perf_counter()
    try:
        if tracer is None:
            status = snum.cli.main(argv)
        else:
            status = tracer.run_root(snum.cli.main, argv)
    except SystemExit as exc:  # argparse usage errors
        status = 0 if exc.code is None else exc.code
    wall_s = time.perf_counter() - t1
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    sys.stdout.flush()

    import numpy
    import scipy

    report = {
        "status": status if isinstance(status, int) else 1,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,
        "snum_file": snum.cli.__file__,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "blas": {"library": numpy.__config__.CONFIG.get("Build Dependencies", {})
                 .get("blas", {}).get("name"),
                 "threads": _blas_threads()},
    }
    if tracer is not None:
        report["hilbert_bytes"], report["hilbert_cubes"] = tracer.ordering_bytes()
        report["counts"] = dict(tracer.counts)
        with open(os.path.join(report_dir, "spans.json"), "w") as fh:
            json.dump(tracer.spans, fh, separators=(",", ":"))
    with open(os.path.join(report_dir, "report.json"), "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
