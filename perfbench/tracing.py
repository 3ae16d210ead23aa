"""Span tracing of finpolylog's layers, installed from outside the package.

Each traced callable is replaced, at the name its caller looks it up by,
with a wrapper that records one span: name, parent span, start and end.
Spans live in flat arrays in memory and are written out once, at the end
of the batch.  A span is closed in ``finally``, so calls that raise (for
example ``lhat_eval`` on an inadmissible point) are still counted.

Self time of a span is its duration minus the durations of its direct
children; a layer's ``*_s`` metric is the sum of self time over its spans.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter

import numpy as np

# Layer metric -> span name whose self time it sums.
SELF_TIME = {
    "poly.mul_fast_s": "poly.mul_fast",
    "poly.mul_s": "poly.mul",
    "poly.add_s": "poly.add",
    "poly.evaluate_s": "poly.evaluate",
    "finlog.lhat_apply_s": "finlog.lhat_apply",
    "finlog.lhat_eval_s": "finlog.lhat_eval",
    "catalog.build_s": "catalog.build",
    "catalog.verify_strong_s": "catalog.verify_strong",
    "catalog.verify_weak_s": "catalog.verify_weak",
    "solver.columns_s": "solver.columns",
    "solver.matrix_s": "solver.matrix",
    "solver.rref_s": "solver.rref",
    "cocycle.phi_table_s": "cocycle.phi_table",
    "cocycle.coboundary_s": "cocycle.coboundary",
    "cocycle.group_check_s": "cocycle.group_check",
    "cocycle.checks_s": "cocycle.checks",
    "derivation.derive_s": "derivation.derive",
    "padic.s": "padic",
    "cli.self_s": "cli",
}

# Layer metric -> span name whose number of spans it counts.
CALLS = {
    "poly.mul_fast_calls": "poly.mul_fast",
    "poly.mul_calls": "poly.mul",
    "poly.add_calls": "poly.add",
    "poly.evaluate_calls": "poly.evaluate",
    "finlog.lhat_apply_calls": "finlog.lhat_apply",
    "finlog.lhat_eval_calls": "finlog.lhat_eval",
    "catalog.build_calls": "catalog.build",
    "solver.rref_calls": "solver.rref",
    "cocycle.phi_table_calls": "cocycle.phi_table",
}

# Counters kept by the wrappers themselves.
COUNTERS = (
    "poly.mul_fast_out_terms",
    "poly.mul_pairs",
    "fields.elem_ops",
    "finlog.lhat_eval_inadmissible",
    "catalog.points_checked",
    "catalog.points_skipped",
    "solver.rref_rows",
    "solver.rref_pivots",
    "cocycle.group_triples",
)


class Tracer:
    """In-memory span recorder; one per traced batch."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts = Counter()
        self.max_terms = 0

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, on_result=None, on_error=None):
        """Return ``fn`` wrapped so that every call records one span.

        ``on_result(args, result)`` runs after a normal return and
        ``on_error(exc)`` before an exception propagates.
        """
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def count(self, key: str, fn):
        """Return ``fn`` wrapped to bump counter ``key`` per call, no span."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def self_times(self) -> dict:
        """Sum of self time per span name, in seconds."""
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end, dtype=np.float64) - np.frombuffer(
            self.span_start, dtype=np.float64
        )
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        own = np.bincount(
            np.frombuffer(self.span_name, dtype=np.int32),
            weights=dur - child,
            minlength=len(self.names),
        )
        return {name: float(own[i]) for i, name in enumerate(self.names)}

    def span_counts(self) -> dict:
        n = np.bincount(
            np.frombuffer(self.span_name, dtype=np.int32), minlength=len(self.names)
        )
        return {name: int(n[i]) for i, name in enumerate(self.names)}

    def metrics(self) -> dict:
        """Per-layer metrics of everything recorded so far."""
        own = self.self_times()
        calls = self.span_counts()
        out = {key: own.get(name, 0.0) for key, name in SELF_TIME.items()}
        out.update({key: calls.get(name, 0) for key, name in CALLS.items()})
        out.update({key: self.counts[key] for key in COUNTERS})
        out["poly.max_terms"] = self.max_terms
        attempted = out["catalog.points_checked"] + out["catalog.points_skipped"]
        out["catalog.admissible_ratio"] = (
            out["catalog.points_checked"] / attempted if attempted else 0.0
        )
        rows = out["solver.rref_rows"]
        out["solver.rref_pivot_ratio"] = out["solver.rref_pivots"] / rows if rows else 0.0
        return out

    def save(self, path) -> None:
        """Write every span (name id, parent id, start, end) as an .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


def install(tracer: Tracer, cli_module):
    """Patch finpolylog's layer entry points with ``tracer`` wrappers.

    Every patch replaces the attribute the calling code actually looks up:
    ``catalog`` imported ``lhat_apply``/``lhat_eval`` by name, ``derivation``
    imported ``verify_weak``/``verify_strong`` by name, ``cli`` imported
    ``derive`` by name, and ``SparsePoly.__mul__`` finds
    ``_mul_prime_fast`` as a module global.  Returns the wrapped
    ``cli.main``, which is the root span of each CLI call.
    """
    from finpolylog import catalog, cocycle, derivation, fields, padic, poly, solver
    from finpolylog.errors import InadmissiblePoint

    counts = tracer.counts

    def mul_fast_done(args, result):
        f, g = args
        n = len(result.terms)
        counts["poly.mul_fast_out_terms"] += n
        tracer.max_terms = max(tracer.max_terms, n, len(f.terms), len(g.terms))

    poly._mul_prime_fast = tracer.wrap(
        "poly.mul_fast", poly._mul_prime_fast, on_result=mul_fast_done
    )

    def mul_done(args, result):
        f, g = args
        if isinstance(g, poly.SparsePoly):
            counts["poly.mul_pairs"] += len(f.terms) * len(g.terms)

    SP = poly.SparsePoly
    SP.__mul__ = tracer.wrap("poly.mul", SP.__mul__, on_result=mul_done)
    SP.__rmul__ = tracer.wrap("poly.mul", SP.__rmul__, on_result=mul_done)
    SP.__add__ = tracer.wrap("poly.add", SP.__add__)
    SP.__radd__ = tracer.wrap("poly.add", SP.__radd__)
    poly.RatFunc.evaluate = tracer.wrap("poly.evaluate", poly.RatFunc.evaluate)

    FE = fields.FieldElement
    for attr in ("__add__", "__radd__", "__mul__", "__rmul__"):
        setattr(FE, attr, tracer.count("fields.elem_ops", getattr(FE, attr)))

    def inadmissible(exc):
        if isinstance(exc, InadmissiblePoint):
            counts["finlog.lhat_eval_inadmissible"] += 1

    catalog.lhat_apply = tracer.wrap("finlog.lhat_apply", catalog.lhat_apply)
    catalog.lhat_eval = tracer.wrap(
        "finlog.lhat_eval", catalog.lhat_eval, on_error=inadmissible
    )
    catalog.build = tracer.wrap("catalog.build", catalog.build)

    def weak_done(args, verdict):
        counts["catalog.points_checked"] += verdict.points_checked
        counts["catalog.points_skipped"] += verdict.points_skipped

    for module in (catalog, derivation):
        module.verify_strong = tracer.wrap("catalog.verify_strong", module.verify_strong)
        module.verify_weak = tracer.wrap(
            "catalog.verify_weak", module.verify_weak, on_result=weak_done
        )
    cli_module.derive = tracer.wrap("derivation.derive", cli_module.derive)

    def rref_done(args, result):
        counts["solver.rref_rows"] += int(args[0].shape[0])
        counts["solver.rref_pivots"] += len(result[0])

    solver.equation_columns = tracer.wrap("solver.columns", solver.equation_columns)
    solver.columns_matrix = tracer.wrap("solver.matrix", solver.columns_matrix)
    solver._rref = tracer.wrap("solver.rref", solver._rref, on_result=rref_done)

    def group_done(args, result):
        counts["cocycle.group_triples"] += result.checked

    cocycle.phi_table = tracer.wrap("cocycle.phi_table", cocycle.phi_table)
    cocycle.coboundary_solve = tracer.wrap("cocycle.coboundary", cocycle.coboundary_solve)
    cocycle.group_check = tracer.wrap(
        "cocycle.group_check", cocycle.group_check, on_result=group_done
    )
    for attr in (
        "check_cocycle",
        "check_homogeneity",
        "check_equation_B",
        "check_equation_C",
        "verify_certificate",
    ):
        setattr(cocycle, attr, tracer.wrap("cocycle.checks", getattr(cocycle, attr)))

    for attr in ("besser_coefficients", "clean_check", "verify_recursion"):
        setattr(padic, attr, tracer.wrap("padic", getattr(padic, attr)))

    return tracer.wrap("cli", cli_module.main)
