"""Spans around the module-level bindings through which fibpart's layers
call each other, installed only for a traced run.

Each target function gets one wrapper, bound in place of the function
under every name that holds it in any loaded fibpart module, so calls
from other layers (which imported it with `from .x import f`) go through
the wrapper too.  A span records (name, start, end, parent).  Self time
is a span's duration minus the time covered by its child spans.  Calls
are counted per name and per (parent, name) pair, so "count_F calls made
from stability_count" is a pair count.  A target that no longer exists is
listed as absent rather than stopping the run.
"""

import gc
import inspect
import sys
import time

# (module, function): the layer boundaries the per-layer metrics read
TARGETS = (
    ("fibcore", "zeckendorf"), ("fibcore", "content"),
    ("counting", "assoc_multivector"), ("counting", "assoc_vector"),
    ("counting", "canonical_form"), ("counting", "continuant"),
    ("counting", "count_F"), ("counting", "chi"), ("counting", "poly_D"),
    ("counting", "poly_mul"), ("counting", "fib_poly"),
    ("contfrac", "word_of"), ("contfrac", "cf_expand"),
    ("orbits", "is_essential"), ("orbits", "theta"), ("orbits", "epsilon"),
    ("enumeration", "minimal_essential"), ("enumeration", "commutative_words"),
    ("enumeration", "stability_count"),
    ("chi_analysis", "x_sum"), ("chi_analysis", "count_zero_chi"),
    ("chi_analysis", "hull_points"), ("chi_analysis", "computed_hull_points"),
    ("chi_analysis", "upper_hull"),
)

SPAN_CAP = 200000          # spans kept for the trace file; totals count all


class Tracer:
    def __init__(self):
        self.enabled = False
        self.stack = []            # [name, start, child_seconds, span index]
        self.spans = []            # (name, start, end, parent span index)
        self.calls = {}
        self.self_s = {}
        self.pairs = {}            # (parent name, name) -> calls
        self.absent = []
        self._undo = []
        self.gc_s = 0.0
        self.gc_runs = 0
        self._gc_start = None

    # -- spans ---------------------------------------------------------------
    def enter(self, name):
        parent = self.stack[-1] if self.stack else None
        pname = parent[0] if parent else None
        self.calls[name] = self.calls.get(name, 0) + 1
        key = (pname, name)
        self.pairs[key] = self.pairs.get(key, 0) + 1
        idx = len(self.spans) if len(self.spans) < SPAN_CAP else None
        if idx is not None:
            self.spans.append(None)
        self.stack.append([name, time.perf_counter(), 0.0, idx,
                           parent[3] if parent else None])

    def leave(self):
        name, start, child, idx, pidx = self.stack.pop()
        end = time.perf_counter()
        dur = end - start
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        if self.stack:
            self.stack[-1][2] += dur
        if idx is not None:
            self.spans[idx] = (name, start, end, pidx)

    def _segment(self, name):
        # a generator's resumption: time it like a call, count no call
        parent = self.stack[-1] if self.stack else None
        self.stack.append([name, time.perf_counter(), 0.0, None,
                           parent[3] if parent else None])

    def wrap(self, name, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                tracer.enter(name)
                try:
                    gen = fn(*args, **kwargs)
                finally:
                    tracer.leave()
                return tracer._drive(name, gen)
            return gen_wrapper

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.leave()
        return wrapper

    def _drive(self, name, gen):
        while True:
            self._segment(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self.leave()
            yield item

    # -- installation --------------------------------------------------------
    def install(self, package="fibpart"):
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == package or k.startswith(package + "."))]
        for mod_name, fn_name in TARGETS:
            mod = sys.modules.get("%s.%s" % (package, mod_name))
            fn = getattr(mod, fn_name, None) if mod is not None else None
            name = "%s.%s" % (mod_name, fn_name)
            if not callable(fn):
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapper)
                        self._undo.append((m, attr, fn))
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        for m, attr, fn in reversed(self._undo):
            setattr(m, attr, fn)
        self._undo.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase, info):
        if not self.enabled:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_runs += 1
            self._gc_start = None

    # -- readings ------------------------------------------------------------
    def self_ms(self, name):
        return self.self_s.get(name, 0.0) * 1000

    def pair_calls(self, parents, name):
        return sum(c for (p, n), c in self.pairs.items() if n == name and p in parents)
