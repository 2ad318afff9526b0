"""Span tracing installed from outside the program.

``Tracer.install()`` replaces each traced function in every ``snum`` module
namespace that binds it (the CLI imports the estimators by name, and
``snum.snumbers`` imports ``hilbert_order`` and ``segment_domain``), and
patches the traced methods on their classes.  Each call records a span
``(id, name, start, end, parent, thread)``; a call on a thread with no open
span (a ``ThreadPoolExecutor`` worker) is parented to the root span, which the
caller opens around ``snum.cli.main``.  Spans stay in memory until the caller
writes them out.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
import tracemalloc
from collections import Counter

ROOT_ID = 0
ROOT_NAME = "cli.main"


def _count_zigzag(tracer, args, kwargs, result):
    tracer.counts["snumbers.zigzag_find.evaluations"] += result.evaluations
    tracer.counts["snumbers.zigzag_find.certified"] += result.status == "certified"


def _count_cubes(tracer, args, kwargs, result):
    tracer.counts["hilbert.hilbert_order.cubes"] += len(result)
    call = (args, tuple(sorted(kwargs.items())))
    if call not in tracer.hilbert_calls:
        tracer.hilbert_calls.append(call)


def _count_john_failed(tracer, args, kwargs, result):
    tracer.counts["john.verify_john_certificate.failed"] += not result[0]


def _count_points(tracer, args, kwargs, result):
    tracer.counts["john.boundary_distance.points"] += len(result)


# (module, attribute or Class.method, span name, counter hook)
TARGETS = [
    ("snum.snumbers", "zigzag_find", "snumbers.zigzag_find", _count_zigzag),
    ("snum.snumbers", "Subspace.__init__", "snumbers.Subspace.init", None),
    ("snum.snumbers", "bernstein_upper_1d", "snumbers.bernstein_upper_1d", None),
    ("snum.snumbers", "bernstein_upper_ddim", "snumbers.bernstein_upper_ddim", None),
    ("snum.snumbers", "kolmogorov_lower_witness", "snumbers.kolmogorov_lower_witness", None),
    ("snum.snumbers", "kolmogorov_upper_1d", "snumbers.kolmogorov_upper_1d", None),
    ("snum.snumbers", "gelfand_lower_bound", "snumbers.gelfand_lower_bound", None),
    ("snum.snumbers", "isomorphism_lower_ddim", "snumbers.isomorphism_lower_ddim", None),
    ("snum.snumbers", "hat_functions", "snumbers.hat_functions", None),
    ("snum.snumbers", "snumber_axiom_suite", "snumbers.snumber_axiom_suite", None),
    ("snum.volterra", "VolterraCurve.__call__", "volterra.curve_eval", None),
    ("snum.volterra", "volterra_apply", "volterra.volterra_apply", None),
    ("snum.spaces", "grid_gradient_lorentz_norm", "spaces.grid_gradient_lorentz_norm", None),
    ("snum.spaces", "lorentz_norm", "spaces.lorentz_norm", None),
    ("snum.hilbert", "hilbert_order", "hilbert.hilbert_order", _count_cubes),
    ("snum.hilbert", "check_face_adjacency", "hilbert.check_face_adjacency", None),
    ("snum.hilbert", "check_prefix_nesting", "hilbert.check_prefix_nesting", None),
    ("snum.john", "segment_domain", "john.segment_domain", None),
    ("snum.john", "john_bound_constructive", "john.john_bound_constructive", None),
    ("snum.john", "verify_john_certificate", "john.verify_john_certificate", _count_john_failed),
    ("snum.john", "CubeUnion.boundary_distance", "john.boundary_distance", _count_points),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.hilbert_calls = []  # distinct (args, kwargs) of hilbert_order calls
        self.originals = {}  # span name -> the unwrapped function
        self._ids = itertools.count(ROOT_ID + 1)
        self._local = threading.local()
        self._hook_lock = threading.Lock()  # hooks run on worker threads too

    def _wrap(self, name, fn, hook):
        clock = time.perf_counter
        spans, local, ids = self.spans, self._local, self._ids
        self.originals[name] = fn

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else ROOT_ID
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, threading.get_ident()))
            if hook is not None:
                with self._hook_lock:
                    hook(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "snum" or key.startswith("snum."))]
        for module_name, attr, name, hook in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._wrap(name, getattr(cls, meth), hook))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, hook)
            for m in modules:
                if getattr(m, attr, None) is original:
                    setattr(m, attr, wrapped)

    def run_root(self, fn, *args):
        """Call ``fn`` inside the root span on this thread."""
        self._local.stack = [ROOT_ID]
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._local.stack = []
            self.spans.append((ROOT_ID, ROOT_NAME, start, end, None, threading.get_ident()))

    def ordering_bytes(self):
        """Bytes retained by each distinct ordering the run built, and its cubes.

        Each distinct ``hilbert_order`` call is repeated once, untraced and
        outside the root span, under ``tracemalloc``, so that allocation
        tracing does not slow the traced spans.
        """
        hilbert_order = self.originals["hilbert.hilbert_order"]
        total_bytes = total_cubes = 0
        for args, kwargs in self.hilbert_calls:
            tracemalloc.start()
            try:
                ordering = hilbert_order(*args, **dict(kwargs))
                total_bytes += tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            total_cubes += len(ordering)
            del ordering
        return total_bytes, total_cubes
