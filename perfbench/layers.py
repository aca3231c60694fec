"""Spans at graphdet's layer boundaries, recorded only in traced passes.

``Tracer.install`` replaces, in the namespaces of ``graphdet.verify`` and
``graphdet.algebra``, the names those modules import from ``graphs``,
``algebra``, ``laplace``, ``poly`` and ``potts`` (and verify's own chunking,
oracle and comparison helpers) with wrappers that record one span per call:
layer, start, end and the enclosing span.  Nothing in the program changes.
Calls a module makes to its own functions are not wrapped, so a layer's
numbers are its cost as its callers see it.

Spans are kept in flat arrays while the pass runs and are reduced once at
the end: per layer the call count, the inclusive time (spans not nested in
a span of the same layer) and the self time (span minus its child spans),
plus the call tree as collapsed paths.

A forked pool worker restores the original names as soon as it starts, so
workers are seen only at the ``_run_chunked`` boundary, with the CPU they
used taken from ``RUSAGE_CHILDREN`` around each chunked call.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import resource
import time
from array import array

# module -> imported name -> layer
WRAPPED = {
    "verify": {
        "_classify_key": "graphs.classify",
        "classify": "graphs.classify",
        "class_sum": "algebra.build",
        "universal_det": "algebra.build",
        "universal_codim1": "algebra.build",
        "theta": "algebra.build",
        "concat_product": "algebra.build",
        "laplace": "laplace.laplace",
        "b_op": "laplace.b_op",
        "pairing": "poly.pairing",
        "determinant": "poly.det",
        "minor": "poly.det",
        "potts": "potts",
        "potts_value": "potts",
        "count_orientations": "potts",
        "shave": "potts",
        "universal_potts": "potts",
        "_run_chunked": "verify.chunked",
        "rooted_forest_poly": "verify.oracle",
        "_sum_diff": "verify.compare",
    },
    "algebra": {
        "_classify_key": "graphs.classify",
        "classify": "graphs.classify",
    },
}

# Every span layer, in report order; "verify.cell" is opened by child.py.
LAYERS = (
    "verify.cell",
    "graphs.classify",
    "algebra.build",
    "laplace.laplace",
    "laplace.b_op",
    "poly.pairing",
    "poly.det",
    "potts",
    "verify.chunked",
    "verify.oracle",
    "verify.compare",
)

# Counters recorded beside the spans; all are whole numbers except the CPU.
COUNTERS = (
    "graphs.classify_misses",
    "algebra.build_terms",
    "laplace.terms_in",
    "laplace.terms_out",
    "poly.pairing_terms_in",
    "poly.pairing_monomials_out",
    "verify.pools_started",
    "verify.worker_cpu_s",
)


def metric_name(layer: str, what: str) -> str:
    """``graphs.classify`` + ``calls`` -> ``graphs.classify_calls``;
    ``potts`` + ``calls`` -> ``potts.calls``."""
    return f"{layer}_{what}" if "." in layer else f"{layer}.{what}"


def size(x) -> int:
    """Terms of a FormalSum or MultiPoly, summed over a GradedElement's parts."""
    parts = getattr(x, "parts", None)
    if parts is not None:
        return sum(size(p) for p in parts.values())
    return len(x._terms)


def _no_enter(args):
    return None


def _no_leave(token, result):
    pass


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    def __init__(self):
        self.layer_id = {name: i for i, name in enumerate(LAYERS)}
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.cache_seen = False
        self.originals: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, layer: str):
        i = len(self.layer)
        self.layer.append(self.layer_id[layer])
        self.parent.append(self.stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(i)
        try:
            yield
        finally:
            self.end[i] = time.perf_counter()
            self.stack.pop()

    def _wrap(self, fn, layer: str, enter, leave):
        """A wrapper recording one span per call; ``enter(args)`` runs before
        the span opens and its result goes to ``leave(token, result)``."""
        lid = self.layer_id[layer]
        layer_a, parent_a, start_a, end_a = self.layer, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            token = enter(args)
            i = len(layer_a)
            layer_a.append(lid)
            parent_a.append(stack[-1])
            end_a.append(0.0)
            stack.append(i)
            start_a.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_a[i] = clock()
                stack.pop()
            leave(token, result)
            return result

        return wrapper

    def _measures(self, graphs):
        """(enter, leave) hooks per layer, for the counters beside the spans."""
        c = self.counters
        cache = getattr(graphs, "_DIR_CACHE", None)

        def classify_enter(args):
            return len(cache)

        def classify_leave(before, result):
            c["graphs.classify_misses"] += len(cache) - before

        def build_leave(_, result):
            c["algebra.build_terms"] += size(result)

        def laplace_enter(args):
            return size(args[0])

        def laplace_leave(terms_in, result):
            c["laplace.terms_in"] += terms_in
            c["laplace.terms_out"] += size(result)

        def pairing_enter(args):
            return size(args[1])

        def pairing_leave(terms_in, result):
            c["poly.pairing_terms_in"] += terms_in
            c["poly.pairing_monomials_out"] += size(result)

        def chunked_enter(args):
            return _children_cpu()

        def chunked_leave(before, result):
            c["verify.worker_cpu_s"] += _children_cpu() - before

        hooks = {
            "algebra.build": (_no_enter, build_leave),
            "laplace.laplace": (laplace_enter, laplace_leave),
            "poly.pairing": (pairing_enter, pairing_leave),
            "verify.chunked": (chunked_enter, chunked_leave),
        }
        self.cache_seen = cache is not None
        if self.cache_seen:
            hooks["graphs.classify"] = (classify_enter, classify_leave)
        return hooks

    def _replace(self, module, name: str, new) -> None:
        self.originals.append((module, name, getattr(module, name)))
        setattr(module, name, new)

    def install(self) -> None:
        """Wrap the boundary names; forked workers undo it when they start."""
        hooks = self._measures(importlib.import_module("graphdet.graphs"))
        for modname, names in WRAPPED.items():
            module = importlib.import_module(f"graphdet.{modname}")
            for name, layer in names.items():
                fn = getattr(module, name, None)
                if callable(fn):
                    enter, leave = hooks.get(layer, (_no_enter, _no_leave))
                    self._replace(module, name, self._wrap(fn, layer, enter, leave))

        verify = importlib.import_module("graphdet.verify")
        pool = getattr(verify, "ProcessPoolExecutor", None)
        if pool is not None:
            counters = self.counters

            class CountingPool(pool):
                def __init__(self, *args, **kwargs):
                    counters["verify.pools_started"] += 1
                    super().__init__(*args, **kwargs)

            self._replace(verify, "ProcessPoolExecutor", CountingPool)
        os.register_at_fork(after_in_child=self.restore)

    def restore(self) -> None:
        for module, name, original in reversed(self.originals):
            setattr(module, name, original)
        self.originals.clear()

    # -- reduction -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer metrics, the counters and the collapsed call tree."""
        n = len(self.layer)
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        nl = len(LAYERS)
        calls = [0] * nl
        incl = [0.0] * nl
        self_t = [0.0] * nl
        child = [0.0] * n
        chain = [0] * n  # bit set of the layers on the path to the root
        path = [0] * n
        path_ids: dict[tuple[int, int], int] = {}
        path_names: list[str] = []
        for i in range(n):
            lid = layer[i]
            p = parent[i]
            d = end[i] - start[i]
            if p >= 0:
                child[p] += d
                above, ppath = chain[p], path[p]
            else:
                above, ppath = 0, -1
            calls[lid] += 1
            if not above >> lid & 1:
                incl[lid] += d
            chain[i] = above | 1 << lid
            key = (ppath, lid)
            pid = path_ids.get(key)
            if pid is None:
                pid = path_ids[key] = len(path_names)
                prefix = path_names[ppath] + ";" if ppath >= 0 else ""
                path_names.append(prefix + LAYERS[lid])
            path[i] = pid
        tree_calls = [0] * len(path_names)
        tree_incl = [0.0] * len(path_names)
        tree_self = [0.0] * len(path_names)
        for i in range(n):
            d = end[i] - start[i]
            s = d - child[i]
            self_t[layer[i]] += s
            pid = path[i]
            tree_calls[pid] += 1
            tree_incl[pid] += d
            tree_self[pid] += s

        out: dict = {}
        for lid, name in enumerate(LAYERS):
            if name == "verify.cell":
                out["verify.cells"] = calls[lid]
            else:
                out[metric_name(name, "calls")] = calls[lid]
            out[metric_name(name, "s")] = incl[lid]
            out[metric_name(name, "self_s")] = self_t[lid]
        misses = self.counters["graphs.classify_misses"]
        nclass = calls[self.layer_id["graphs.classify"]]
        out["graphs.classify_cache_hit_ratio"] = (
            (nclass - misses) / nclass if nclass and self.cache_seen else 0.0
        )
        for name in COUNTERS:
            if name != "graphs.classify_misses":
                out[name] = self.counters[name]
        tree = sorted(
            [path_names[p], tree_calls[p], tree_incl[p], tree_self[p]]
            for p in range(len(path_names))
        )
        return {"metrics": out, "tree": tree}
