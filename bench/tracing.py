"""Span tracing of cylgauge from outside the package.

`Tracer.install` replaces every public function of the traced modules, in
every cylgauge namespace that binds it (the defining module and each module
that imported it by name), with a wrapper that records a span.  A few
methods on the hot element and report paths are wrapped on their classes.
Nothing in cylgauge is edited; `uninstall` puts the originals back.

A span is (id, parent id, name, start, end, work key, work amount).  Spans
stay in memory until `write`.  Monte Carlo samplers run on worker threads,
so the wrapper of `chunked_mc_vector` wraps the sampler it is given and
passes its own span id down as the sampler's parent.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import itertools
import json
import math
import sys
import threading
import time
from collections import defaultdict

import numpy as np

MODULES = (
    "groups", "spectral", "lattice", "montecarlo", "reduction",
    "coherent", "bargmann", "dynamics", "reporting", "cli",
)

# (module, class, method): methods traced besides the public functions
METHODS = (
    ("groups", "ComplexGroupElement", "__mul__"),
    ("reporting", "Report", "to_csv"),
    ("reporting", "Report", "to_json"),
)


def _holonomy_work(sig, args, kwargs, result):
    group, coords = args[0], np.asarray(args[1])
    if group.value != "su2":  # the U(1) path is a mean and an exp, not the kernel
        return None, 0
    kind = "complex" if np.iscomplexobj(coords) else "real"
    return f"lattice.holonomy_traces.{kind}.N{coords.shape[1]}", coords.shape[0] * coords.shape[1]


def _sample_complex_work(sig, args, kwargs, result):
    re, im = result
    return "lattice.sample_complex_batch", re.size + im.size


def _characters_work(sig, args, kwargs, result):
    return "spectral.su2_characters_from_traces", int(np.asarray(args[1]).size)


def _refinement_work(name):
    def work(sig, args, kwargs, result):
        return name, _bound(sig, args, kwargs)["n_samples"]
    return work


def _haar_work(sig, args, kwargs, result):
    bound = _bound(sig, args, kwargs)
    if bound["method"] != "quadrature":
        return None, 0
    level = bound["level"]
    nodes = 0
    for lv in (level, max(2, level // 2)):  # the fine grid and its error grid
        if bound["group"].value == "u1":
            nodes += lv
        else:
            nodes += 4 * lv if bound["class_function"] else 4 * lv**3
    return "groups.haar_integrate", nodes


def _mul_work(sig, args, kwargs, result):
    return f"groups.mul_{args[0].group.value}", 1


def _calls(name):
    return lambda sig, args, kwargs, result: (name, 1)


WORK = {
    "lattice.holonomy_traces": _holonomy_work,
    "lattice.sample_complex_batch": _sample_complex_work,
    "spectral.su2_characters_from_traces": _characters_work,
    "reduction.pushforward_refinement": _refinement_work("reduction.pushforward_refinement"),
    "reduction.gram_matrix_refinement": _refinement_work("reduction.gram_matrix_refinement"),
    "groups.haar_integrate": _haar_work,
    "groups.mul": _mul_work,
    "groups.exp_map": _calls("groups.exp_map"),
    "groups.polar_decompose": _calls("groups.polar_decompose"),
    "spectral.heat_kernel": _calls("spectral.heat_kernel"),
    "lattice.gauge_transform": _calls("lattice.gauge_transform"),
    "coherent.coherent_overlap": _calls("coherent.coherent_overlap"),
}

def _bound(sig, args, kwargs):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, work=None, parent=None):
        """Return fn recording a span `name`; `parent` is used when the
        calling thread has no open span (a worker thread)."""
        tracer = self
        chunks = name == "montecarlo.chunked_mc_vector"
        sig = inspect.signature(fn) if work is not None or chunks else None
        wraps_sampler = chunks or name == "montecarlo.chunked_mc"

        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            up = stack[-1] if stack else parent
            if wraps_sampler:
                sampler = args[0]
                module = sampler.__module__.rpartition(".")[2]
                args = (tracer.wrap(f"{module}.{sampler.__qualname__}", sampler, parent=sid),) + args[1:]
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            key, amount = (None, 0)
            if chunks:
                b = _bound(sig, args, kwargs)
                key, amount = "montecarlo.chunks", math.ceil(b["n_samples"] / b["chunk_size"])
            elif work is not None:
                key, amount = work(sig, args, kwargs, result)
            tracer.spans.append((sid, up, name, start, end, key, amount))
            return result

        return functools.wraps(fn)(traced)

    @contextlib.contextmanager
    def span(self, name):
        """Record a span opened by the benchmark itself; the "bench." prefix
        keeps it out of the module totals."""
        stack = self._stack()
        sid, up = next(self._ids), (stack[-1] if stack else None)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, up, "bench." + name, start, end, name, 1))

    def install(self):
        namespaces = [m for n, m in sys.modules.items() if n == "cylgauge" or n.startswith("cylgauge.")]
        for short in MODULES:
            module = sys.modules[f"cylgauge.{short}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                wrapper = self.wrap(name, fn, WORK.get(name))
                for ns in namespaces:
                    if vars(ns).get(attr) is fn:
                        self._undo.append((ns, attr, fn))
                        setattr(ns, attr, wrapper)
        for short, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"cylgauge.{short}"], cls_name)
            fn = vars(cls)[meth]
            name = f"{short}.{meth.strip('_')}"
            self._undo.append((cls, meth, fn))
            setattr(cls, meth, self.wrap(name, fn, WORK.get(name)))

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for sid, up, name, start, end, _, _ in self.spans:
                fh.write(json.dumps([sid, up, name, start, end]) + "\n")


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def summarize(spans):
    """Per-module self time and calls, and per-key work and busy time.

    Self time is a span's duration minus the part of it its child spans
    cover; children running on parallel threads are counted once.
    """
    children = defaultdict(list)
    for sid, up, _, start, end, _, _ in spans:
        if up is not None:
            children[up].append((start, end))
    self_s = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(float)
    busy = defaultdict(float)
    for sid, _, name, start, end, key, amount in spans:
        module = name.partition(".")[0]
        self_s[module] += (end - start) - _covered(children.get(sid, ()))
        calls[module] += 1
        if key is not None:
            work[key] += amount
            busy[key] += end - start
    return self_s, calls, work, busy
