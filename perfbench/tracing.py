"""Spans and counts recorded around calls into the package's public layers.

Nothing here edits the package.  A traced run uses a counting subclass of
``DatasetKernelOracle`` and rebinds five names in ``krrsolve.krr``'s
namespace, and only there, for the duration of one solve.  Spans are kept
in memory as (id, name, start, end, parent) and turned into per-layer
metrics after the run.  A layer's self time is its span minus its children.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

import krrsolve.krr as krr_module
from krrsolve.kernels import DatasetKernelOracle
from krrsolve.pcg import LinearOperator

BLOCK = "kernels.block"
MATVEC = "kernels.matvec"
FACTOR = "lowrank.build_factor"
RPC_BUILD = "precond.build_rpc_preconditioner"
KRILL_BUILD = "precond.krill_from_sketch"
EMBEDDING = "sketch.build_embedding"
PCG = "pcg.pcg"
OPERATOR = "pcg.operator"
PRECOND_APPLY = "precond.apply"
SOLVE = "krr.solve"
LOAD = "data.load"
STANDARDIZE = "data.standardize"


class Tracer:
    def __init__(self):
        self.spans = []  # [id, name, start, end, parent, attrs]
        self._stack = []

    @contextmanager
    def span(self, name):
        """Record one span; the caller may add attributes to the yielded dict."""
        record = [len(self.spans), name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None, {}]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield record[5]
        finally:
            self._stack.pop()
            record[3] = time.perf_counter()

    def as_dicts(self):
        return [dict(id=i, name=n, start=s, end=e, parent=p, **a)
                for i, n, s, e, p, a in self.spans]


class CountingOracle(DatasetKernelOracle):
    """Times and counts every kernel block and matvec the solvers request."""

    def __init__(self, features, spec, memory_budget, tracer: Tracer):
        super().__init__(features, spec, memory_budget=memory_budget)
        self.tracer = tracer

    def block(self, rows, cols):
        with self.tracer.span(BLOCK) as attrs:
            out = super().block(rows, cols)
            attrs["entries"] = out.size
        return out

    def matvec(self, v):
        with self.tracer.span(MATVEC):
            return super().matvec(v)


def _spanned(tracer, name, fn, on_result=None):
    def wrapper(*args, **kwargs):
        with tracer.span(name) as attrs:
            out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(attrs, args, out)
        return out
    return wrapper


def _traced_pcg(tracer, real_pcg):
    def pcg(product, b, epsilon, precond=None, **kwargs):
        def apply(v):
            with tracer.span(OPERATOR):
                return product.apply(v)

        def inverse(v):
            with tracer.span(PRECOND_APPLY):
                return precond(v)

        with tracer.span(PCG):
            return real_pcg(LinearOperator(product.n, apply), b, epsilon,
                            None if precond is None else inverse, **kwargs)
    return pcg


def _record_rank(attrs, args, factor):
    attrs["rank_requested"] = args[1]
    attrs["rank"] = factor.rank


@contextmanager
def traced_layers(tracer: Tracer):
    """Rebind the solvers' collaborators in ``krrsolve.krr`` to traced ones."""
    saved = {name: getattr(krr_module, name) for name in
             ("build_factor", "build_rpc_preconditioner", "krill_from_sketch",
              "build_embedding", "pcg")}
    replacements = {
        "build_factor": _spanned(tracer, FACTOR, saved["build_factor"], _record_rank),
        "build_rpc_preconditioner": _spanned(tracer, RPC_BUILD,
                                             saved["build_rpc_preconditioner"]),
        "krill_from_sketch": _spanned(tracer, KRILL_BUILD, saved["krill_from_sketch"]),
        "build_embedding": _spanned(tracer, EMBEDDING, saved["build_embedding"]),
        "pcg": _traced_pcg(tracer, saved["pcg"]),
    }
    for name, fn in replacements.items():
        setattr(krr_module, name, fn)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(krr_module, name, fn)


def self_times(spans):
    """Span id -> duration minus the durations of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _descendants(spans, root_id):
    inside = {root_id}
    for s in spans:  # parents always precede their children
        if s["parent"] in inside:
            inside.add(s["id"])
    return [s for s in spans if s["id"] in inside]


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced run, from its recorded spans.

    Kernel, factor, preconditioner and PCG metrics count only spans under
    the last solve span, so an untraced warm-up solve on the same counting
    oracle does not count.
    """
    own = self_times(spans)
    solve = [s for s in spans if s["name"] == SOLVE][-1]
    under_solve = _descendants(spans, solve["id"])

    def named(name, pool=under_solve):
        return [s for s in pool if s["name"] == name]

    def total(name, pool=under_solve):
        return sum(s["end"] - s["start"] for s in named(name, pool))

    def median_duration(name):
        return _median([s["end"] - s["start"] for s in named(name)])

    def entries(pool):
        return sum(s["entries"] for s in pool if s["name"] == BLOCK)

    factors = named(FACTOR)
    iteration_s = []
    for run in named(PCG):
        starts = [s["start"] for s in _descendants(spans, run["id"])
                  if s["name"] == OPERATOR] + [run["end"]]
        iteration_s += [b - a for a, b in zip(starts, starts[1:])]
    return {
        "kernels.entries": entries(under_solve),
        "kernels.block_calls": len(named(BLOCK)),
        "kernels.block_s": total(BLOCK),
        "kernels.matvec_calls": len(named(MATVEC)),
        "kernels.matvec_s": median_duration(MATVEC),
        "lowrank.factor_s": total(FACTOR),
        "lowrank.entries": sum(entries(_descendants(spans, f["id"])) for f in factors),
        "lowrank.rank": sum(f["rank"] for f in factors),
        "lowrank.rank_requested": sum(f["rank_requested"] for f in factors),
        "precond.build_s": total(RPC_BUILD) + total(KRILL_BUILD),
        "precond.apply_calls": len(named(PRECOND_APPLY)),
        "precond.apply_s": median_duration(PRECOND_APPLY),
        "sketch.build_s": total(EMBEDDING),
        "pcg.operator_s": total(OPERATOR),
        "pcg.operator_calls": len(named(OPERATOR)),
        "pcg.precond_s": total(PRECOND_APPLY),
        "pcg.self_s": sum(own[s["id"]] for s in named(PCG)),
        "pcg.iter_s": _median(iteration_s),
        "data.load_s": total(LOAD, spans),
        "data.standardize_s": total(STANDARDIZE, spans),
        "krr.solve_self_s": own[solve["id"]],
        "trace.solve_s": solve["end"] - solve["start"],
        "trace.self_sum_s": sum(own[s["id"]] for s in under_solve),
    }
