"""Spans around the program's layers, recorded from the benchmark's side.

`Tracer.install()` replaces every public function of the intshuffle modules
(and the term ops of `_kernel.impl`) with a wrapper that records a span:
name, start, end, parent span and op id.  It replaces each function under
every name it is bound to in any intshuffle module, so `from .poly import
exact_div` bindings are traced too.  Two kinds of function are left alone:
`mono_mul`, which runs once per pair of monomials inside `mul_terms`, below
the term-op boundary, and functions that call themselves (`expr.infer`,
`expr.evaluate`), because a wrapper would double the depth of a recursion
that already nears Python's limit on long polynomial texts; their time
counts in their caller's span.

A span's self time is its duration minus the durations of its child spans;
children never overlap because the program is single-threaded.
"""

from __future__ import annotations

import gc
import sys
import time
import types
from array import array

LAYER_MODULES = ("poly", "shuffle", "generators", "conditions", "expr", "cli")
KERNEL_SKIP = {"mono_mul"}


# counters kept at a span boundary: name -> fn(counts, result, *args)
def _count_mul(counts, result, a, b):
    counts["kernel.mul_terms_pairs"] += len(a) * len(b)
    counts["kernel.mul_terms_out"] += len(result)


def _count_div(counts, result, a, sa, sb):
    counts["kernel.div_binomial_terms"] += len(a)


def _count_add(counts, result, a, b):
    counts["kernel.add_terms_copied"] += len(a) if a else len(b)


def _count_shuffle(counts, result, left, right):
    counts["shuffle.out_terms"] += len(result.poly.terms)


def _count_render(counts, result, p):
    counts["poly.render_terms"] += len(p.terms)


def _count_substitute(counts, result, p, images):
    counts["poly.substitute_in_terms"] += len(p.terms)


def _count_parse(counts, result, text):
    counts["expr.parse_chars"] += len(text)


COUNTERS = {
    "kernel.mul_terms": _count_mul,
    "kernel.div_binomial": _count_div,
    "kernel.add_terms": _count_add,
    "kernel.sub_terms": _count_add,
    "shuffle.shuffle": _count_shuffle,
    "poly.render": _count_render,
    "poly.substitute": _count_substitute,
    "expr.parse": _count_parse,
}

# per-layer time metric -> traced functions whose self times it sums
SELF_TIMES = {
    "kernel.mul_terms_s": ["kernel.mul_terms"],
    "kernel.div_binomial_s": ["kernel.div_binomial"],
    "kernel.permute_s": ["kernel.permute_slots", "kernel.swap_z"],
    "kernel.add_terms_s": ["kernel.add_terms", "kernel.sub_terms"],
    "shuffle.shuffle_s": ["shuffle.shuffle"],
    "poly.render_s": ["poly.render"],
    "poly.substitute_s": ["poly.substitute"],
    "poly.exact_div_s": ["poly.exact_div"],
    "poly.relabel_z_s": ["poly.relabel_z", "poly.permute_z"],
    "poly.is_symmetric_s": ["poly.is_symmetric"],
    "expr.parse_s": ["expr.parse"],
    "generators.reduce_s": ["generators.reduce2", "generators.reduce3"],
    "generators.verify_certificate_s": ["generators.verify_certificate"],
    "generators.verify_lemma_s": ["generators.verify_lemma"],
    "conditions.ideal_certificate_s": ["conditions.ideal_certificate"],
    "conditions.verify_ideal_certificate_s": ["conditions.verify_ideal_certificate"],
    "conditions.wheel_check_s": ["conditions.wheel_check"],
    "conditions.corollary_check_s": ["conditions.corollary_check"],
    "cli.main_s": ["cli.main"],
}
CALLS = {
    "shuffle.shuffle_calls": "shuffle.shuffle",
    "poly.exact_div_calls": "poly.exact_div",
    "expr.parse_calls": "expr.parse",
}
COUNT_NAMES = ["kernel.mul_terms_pairs", "kernel.mul_terms_out", "kernel.div_binomial_terms",
               "kernel.add_terms_copied", "shuffle.out_terms", "poly.render_terms",
               "poly.substitute_in_terms", "expr.parse_chars"]


def _recursive(fn: types.FunctionType) -> bool:
    return fn.__name__ in fn.__code__.co_names


def traced_functions() -> dict:
    """Traced name -> original function, found by walking the modules."""
    found = {}
    for short in LAYER_MODULES:
        module = sys.modules.get(f"intshuffle.{short}")
        if module is None:
            continue
        for attr, value in vars(module).items():
            if (not attr.startswith("_") and isinstance(value, types.FunctionType)
                    and value.__module__ == module.__name__ and not _recursive(value)):
                found[f"{short}.{attr}"] = value
    kernel = sys.modules.get("intshuffle._kernel")
    impl = getattr(kernel, "impl", None)
    if impl is not None:
        for attr, value in vars(impl).items():
            if (not attr.startswith("_") and attr not in KERNEL_SKIP
                    and callable(value) and getattr(value, "__module__", None) == impl.__name__):
                found[f"kernel.{attr}"] = value
    return found


class Tracer:
    def __init__(self):
        self.names: list = []
        self.name_ids: dict = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.stack: list = []  # [name id, span index, child time]
        self.op_id = -1
        self._restore: list = []
        self.reset_totals()

    def reset_totals(self):
        self.self_time: dict = {}
        self.calls: dict = {}
        self.counts = {name: 0 for name in COUNT_NAMES}
        self.gc_pause = 0.0
        self.gc_collections = 0

    # -- install / remove -------------------------------------------------------

    def install(self):
        originals = traced_functions()
        by_id = {id(fn): name for name, fn in originals.items()}
        wrappers = {name: self._wrap(name, fn) for name, fn in originals.items()}
        targets = [m for n, m in list(sys.modules.items())
                   if (n == "intshuffle" or n.startswith("intshuffle.")) and m is not None]
        kernel = sys.modules.get("intshuffle._kernel")
        impl = getattr(kernel, "impl", None)
        if impl is not None and impl not in targets:
            targets.append(impl)
        for module in targets:
            for attr, value in list(vars(module).items()):
                name = by_id.get(id(value))
                if name is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[name])
        gc.callbacks.append(self._gc_callback)

    def remove(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    def _gc_callback(self, phase, info):
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self.gc_pause += time.perf_counter() - self._gc_t0
            self.gc_collections += 1

    def _wrap(self, name: str, fn):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        count = COUNTERS.get(name)
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            index = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1][1] if stack else -1)
            tracer.span_op.append(tracer.op_id)
            tracer.span_end.append(0.0)
            frame = [nid, index, 0.0]
            stack.append(frame)
            t0 = clock()
            tracer.span_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tracer.span_end[index] = t1
                duration = t1 - t0
                tracer.self_time[nid] = tracer.self_time.get(nid, 0.0) + duration - frame[2]
                tracer.calls[nid] = tracer.calls.get(nid, 0) + 1
                if stack:
                    stack[-1][2] += duration
            if count is not None:
                count(tracer.counts, result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- results ---------------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.span_start)

    def check_spans(self, first: int = 0) -> None:
        """Raise if any span's children cover more than the span itself."""
        n = len(self.span_start)
        child = [0.0] * (n - first)
        for i in range(first, n):
            parent = self.span_parent[i]
            if parent >= first:
                child[parent - first] += self.span_end[i] - self.span_start[i]
        for i in range(first, n):
            duration = self.span_end[i] - self.span_start[i]
            if duration < 0 or child[i - first] > duration + 1e-9:
                raise RuntimeError(f"span {i} ({self.names[self.span_name[i]]}) has "
                                   f"children longer than itself")

    def layer_metrics(self, scale: float) -> dict:
        """Per-layer totals since the last reset; times are multiplied by scale."""
        out = {}
        ids = self.name_ids
        for metric, names in SELF_TIMES.items():
            out[metric] = scale * sum(self.self_time.get(ids.get(n, -1), 0.0) for n in names)
        for metric, name in CALLS.items():
            out[metric] = self.calls.get(ids.get(name, -1), 0)
        out.update(self.counts)
        out["gc.pause_s"] = scale * self.gc_pause
        out["gc.collections"] = self.gc_collections
        return out

    def self_time_by_name(self) -> dict:
        return {self.names[i]: t for i, t in self.self_time.items()}

    def write_spans(self, path: str, first: int, last: int) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tparent\top\tname\tstart_s\tend_s\n")
            for i in range(first, last):
                handle.write(f"{i}\t{self.span_parent[i]}\t{self.span_op[i]}\t"
                             f"{self.names[self.span_name[i]]}\t"
                             f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n")
