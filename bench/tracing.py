"""Spans around the public functions of each weakhopf module.

``instrumented(tracer, modules)`` monkeypatches the functions listed in
``TARGETS`` for the duration of a ``with`` block and restores every original
afterwards; nothing under ``src/`` changes.  A module-level function is
replaced in every module that imported it by name, so calls from other
modules, from ``cli`` and from the corpus generator are all seen.

Each call opens a frame.  When it returns, its self time is its duration
minus its children's durations minus the tracer's own bookkeeping for those
children (counting matrix nonzeros, recording spans), so per-key self times
plus bookkeeping plus the time outside every span add up to the traced wall
time exactly.  Spans (name, start, end, parent, self time) are kept in memory
and written out once; the three highest-frequency leaves (``Vector.tensor``,
scalar ``parse`` and ``fmt``, tens of thousands of calls per pass) are folded
into their parent's totals instead of getting a span each.

A key's ``calls`` count only entry calls (the caller is not the same key),
and a layer's ``errors`` count exceptions leaving the layer.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from time import perf_counter

LAYERS = ("tensor_space", "weak_hopf", "scalars", "groupoid", "partial_actions",
          "dualization", "globalization", "jsonio", "report", "cli")

LEAVES = {"tensor_space.vec_tensor", "scalars.parse", "scalars.fmt"}


# -- computed counts at the call boundary -------------------------------------------

def _nnz(m) -> int:
    """Nonzero entries of a LinMap, memoised on the (immutable) map."""
    cached = m.__dict__.get("_bench_nnz")
    if cached is None:
        cached = sum(1 for row in m.rows for x in row if x)
        m.__dict__["_bench_nnz"] = cached
    return cached


def _count_matmul(counts, a, b):
    rows, inner, cols = a.codomain.dim, a.domain.dim, b.domain.dim
    counts["matmul_dense_madds"] += rows * inner * cols
    counts["matmul_nnz"] += _nnz(a) + _nnz(b)
    counts["matmul_entries"] += rows * inner + inner * cols


def _count_kron(counts, a, b):
    counts["kron_entries"] += (a.codomain.dim * b.codomain.dim
                               * a.domain.dim * b.domain.dim)


def _count_pointwise(counts, alg, power, x, y):
    counts["pointwise_pairs"] += len(x.nonzeros()) * len(y.nonzeros())


def _count_report(counts, result):
    counts["report_results"] += len(result["results"])
    counts["report_failed"] += sum(1 for r in result["results"]
                                   if not r["passed"] and not r["skipped"])


def _count_bytes_out(counts, result):
    counts["bytes_out"] += len(result.encode("utf-8"))


# (module, attribute path, key, counter before the call, counter on the result)
TARGETS = [
    ("scalars", "RationalField.parse", "scalars.parse", None, None),
    ("scalars", "PrimeField.parse", "scalars.parse", None, None),
    ("scalars", "RationalField.fmt", "scalars.fmt", None, None),
    ("scalars", "PrimeField.fmt", "scalars.fmt", None, None),
    ("tensor_space", "LinMap.__matmul__", "tensor_space.matmul", _count_matmul, None),
    ("tensor_space", "LinMap.tensor", "tensor_space.kron", _count_kron, None),
    ("tensor_space", "Vector.tensor", "tensor_space.vec_tensor", None, None),
    ("tensor_space", "LinMap.from_function", "tensor_space.from_function", None, None),
    ("tensor_space", "rref", "tensor_space.elim", None, None),
    ("tensor_space", "rref_with_transform", "tensor_space.elim", None, None),
    ("tensor_space", "solve", "tensor_space.elim", None, None),
    ("tensor_space", "solve_coordinates", "tensor_space.elim", None, None),
    ("tensor_space", "left_inverse_on_image", "tensor_space.elim", None, None),
    ("tensor_space", "image_basis", "tensor_space.elim", None, None),
    ("tensor_space", "LinMap.inverse", "tensor_space.elim", None, None),
    ("tensor_space", "Subspace.from_vectors", "tensor_space.elim", None, None),
    ("tensor_space", "Subspace.contains", "tensor_space.elim", None, None),
    ("weak_hopf", "check_weak_bialgebra", "weak_hopf.wb", None, None),
    ("weak_hopf", "check_weak_hopf", "weak_hopf.wh", None, None),
    ("weak_hopf", "check_identities", "weak_hopf.identities", None, None),
    ("weak_hopf", "is_hopf", "weak_hopf.hopf", None, None),
    ("weak_hopf", "eps_t", "weak_hopf.eps_st", None, None),
    ("weak_hopf", "eps_s", "weak_hopf.eps_st", None, None),
    ("weak_hopf", "WeakHopfData.Ht", "weak_hopf.eps_st", None, None),
    ("weak_hopf", "WeakHopfData.Hs", "weak_hopf.eps_st", None, None),
    ("weak_hopf", "WeakHopfData.antipode_inverse", "weak_hopf.eps_st", None, None),
    ("weak_hopf", "pointwise_product", "weak_hopf.pointwise", _count_pointwise, None),
    ("weak_hopf", "dualize", "weak_hopf.dualize", None, None),
    ("groupoid", "validate_groupoid", "groupoid.build", None, None),
    ("groupoid", "groupoid_from_spec", "groupoid.build", None, None),
    ("groupoid", "disjoint_union_of_cyclic", "groupoid.build", None, None),
    ("groupoid", "cyclic_group_groupoid", "groupoid.build", None, None),
    ("groupoid", "two_object_iso_groupoid", "groupoid.build", None, None),
    ("groupoid", "trivial_groupoid", "groupoid.build", None, None),
    ("groupoid", "groupoid_algebra", "groupoid.build", None, None),
    ("groupoid", "dual_groupoid_algebra", "groupoid.build", None, None),
    ("groupoid", "abelian_group_weak_hopf", "groupoid.build", None, None),
    ("partial_actions", "check_module_coalgebra", "partial_actions.mc", None, None),
    ("partial_actions", "check_partial_module_coalgebra", "partial_actions.pmc", None, None),
    ("partial_actions", "check_module_algebra", "partial_actions.ma", None, None),
    ("partial_actions", "check_partial_module_algebra", "partial_actions.pma", None, None),
    ("partial_actions", "check_lambda_partial", "partial_actions.lambda", None, None),
    ("partial_actions", "check_lambda_global", "partial_actions.lambda", None, None),
    ("partial_actions", "check_k_partial_action_group_criterion",
     "partial_actions.lambda", None, None),
    ("partial_actions", "check_dual_k_partial_action_criterion",
     "partial_actions.lambda", None, None),
    ("partial_actions", "lambda_action", "partial_actions.lambda", None, None),
    ("partial_actions", "to_kG_action", "partial_actions.equiv", None, None),
    ("partial_actions", "from_kG_action", "partial_actions.equiv", None, None),
    ("partial_actions", "validate_groupoid_partial_action",
     "partial_actions.gpa_validate", None, None),
    ("partial_actions", "induce_partial_action", "partial_actions.induce", None, None),
    ("dualization", "dualize_coalgebra_action", "dualization.transfer", None, None),
    ("dualization", "undualize_algebra_action", "dualization.transfer", None, None),
    ("dualization", "dualize_right_coalgebra_action", "dualization.transfer", None, None),
    ("dualization", "undualize_left_algebra_action", "dualization.transfer", None, None),
    ("dualization", "dual_convolution_algebra", "dualization.transfer", None, None),
    ("globalization", "find_basis_grouplikes", "globalization.grouplikes", None, None),
    ("globalization", "standard_globalization", "globalization.build", None, None),
    ("globalization", "check_globalization", "globalization.check", None, None),
    ("globalization", "dual_globalization_transfer", "globalization.dual_transfer",
     None, None),
    ("report", "Report.to_json", "report.to_json", None, _count_report),
    ("report", "compare_maps", "report.compare", None, None),
    ("report", "compare_vectors", "report.compare", None, None),
    ("report", "compare_scalars", "report.compare", None, None),
    ("cli", "main", "cli.main", None, None),
] + [
    ("jsonio", name, "jsonio.load", None, None)
    for name in ("linmap_from_json", "tensor3_from_json", "algebra_from_json",
                 "coalgebra_from_json", "weakhopf_from_json", "action_from_json",
                 "action_groupoid_from_json", "lambda_from_json", "gpa_from_json",
                 "triple_from_json", "abelian_group_from_spec")
] + [
    ("jsonio", name, "jsonio.emit", None, None)
    for name in ("linmap_to_json", "tensor3_to_json", "algebra_to_json",
                 "coalgebra_to_json", "weakhopf_to_json", "action_to_json",
                 "lambda_to_json", "gpa_to_json", "triple_to_json")
] + [("jsonio", "canonical_dumps", "jsonio.emit", None, _count_bytes_out)]


@dataclass
class KeyStats:
    calls: int = 0
    self_s: float = 0.0


@dataclass
class Tracer:
    spans: list = field(default_factory=list)   # [key, start, end, parent, self_s]
    stats: dict = field(default_factory=dict)   # key -> KeyStats
    counts: Counter = field(default_factory=Counter)
    layer_errors: Counter = field(default_factory=Counter)
    root_s: float = 0.0        # summed duration of top-level spans
    bookkeeping_s: float = 0.0
    _stack: list = field(default_factory=list)

    def wrap(self, key: str, fn, before=None, after=None):
        layer = key.split(".")[0]
        leaf = key in LEAVES
        stats = self.stats.setdefault(key, KeyStats())
        stack, spans, clock = self._stack, self.spans, perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            if before is not None:
                before(self.counts, *args, **kwargs)
            parent = stack[-1] if stack else None
            # frame: key, layer, children's duration, bookkeeping inside, span index
            frame = [key, layer, 0.0, 0.0, -1]
            if not leaf:
                frame[4] = len(spans)
                spans.append(None)
            stack.append(frame)
            t1 = clock()
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                t2 = clock()
                stack.pop()
                dur = t2 - t1
                own = dur - frame[2] - frame[3]
                stats.self_s += own
                if parent is None or parent[0] != key:
                    stats.calls += 1
                if raised and (parent is None or parent[1] != layer):
                    self.layer_errors[layer] += 1
                if not leaf:
                    spans[frame[4]] = (key, t1, t2, parent[4] if parent else -1, own)
                if after is not None and not raised:
                    after(self.counts, result)
                t3 = clock()
                if parent is None:
                    self.root_s += dur
                    self.bookkeeping_s += (t1 - t0) + (t3 - t2)
                else:
                    parent[2] += dur
                    parent[3] += (t1 - t0) + (t3 - t2)

        return traced

    def self_s(self, key: str) -> float:
        st = self.stats.get(key)
        return st.self_s if st else 0.0

    def calls(self, key: str) -> int:
        st = self.stats.get(key)
        return st.calls if st else 0

    def layer_self_s(self, layer: str) -> float:
        return sum(st.self_s for k, st in self.stats.items() if k.split(".")[0] == layer)

    def inner_bookkeeping_s(self) -> float:
        """Bookkeeping charged inside spans: their durations minus self times."""
        return self.root_s - sum(st.self_s for st in self.stats.values())

    def write(self, path) -> None:
        names = sorted(self.stats)
        index = {k: i for i, k in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names,
                       "fields": ["name", "start", "end", "parent", "self_s"],
                       "spans": [[index[k], a, b, p, s] for k, a, b, p, s in self.spans]},
                      fh, separators=(",", ":"))


def _resolve(owner, path: str):
    """(object holding the attribute, attribute name, raw attribute value)."""
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name, owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)


@contextlib.contextmanager
def instrumented(tracer: Tracer, extra_modules=()):
    """Wrap every target for the duration of the block, then restore them."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "weakhopf" or name.startswith("weakhopf."))]
    modules += list(extra_modules)
    undo = []
    try:
        for mod_name, path, key, before, after in TARGETS:
            owner, name, raw = _resolve(sys.modules[f"weakhopf.{mod_name}"], path)
            if isinstance(raw, cached_property):
                undo.append((raw, "func", raw.func))
                raw.func = tracer.wrap(key, raw.func, before, after)
            elif isinstance(raw, classmethod):
                undo.append((owner, name, raw))
                setattr(owner, name, classmethod(tracer.wrap(key, raw.__func__, before, after)))
            elif isinstance(owner, type):
                undo.append((owner, name, raw))
                setattr(owner, name, tracer.wrap(key, raw, before, after))
            else:
                wrapped = tracer.wrap(key, raw, before, after)
                for m in modules:
                    if getattr(m, name, None) is raw:
                        undo.append((m, name, raw))
                        setattr(m, name, wrapped)
        yield tracer
    finally:
        for owner, name, raw in reversed(undo):
            setattr(owner, name, raw)


# -- per-layer metrics ---------------------------------------------------------------

_SELF_TIMES = {
    "tensor_space.matmul_s": "tensor_space.matmul",
    "tensor_space.kron_s": "tensor_space.kron",
    "tensor_space.vec_tensor_s": "tensor_space.vec_tensor",
    "tensor_space.from_function_s": "tensor_space.from_function",
    "tensor_space.elim_s": "tensor_space.elim",
    "weak_hopf.wb_s": "weak_hopf.wb",
    "weak_hopf.wh_s": "weak_hopf.wh",
    "weak_hopf.identities_s": "weak_hopf.identities",
    "weak_hopf.hopf_s": "weak_hopf.hopf",
    "weak_hopf.eps_st_s": "weak_hopf.eps_st",
    "weak_hopf.pointwise_s": "weak_hopf.pointwise",
    "weak_hopf.dualize_s": "weak_hopf.dualize",
    "scalars.parse_s": "scalars.parse",
    "scalars.fmt_s": "scalars.fmt",
    "groupoid.build_s": "groupoid.build",
    "partial_actions.mc_s": "partial_actions.mc",
    "partial_actions.pmc_s": "partial_actions.pmc",
    "partial_actions.ma_s": "partial_actions.ma",
    "partial_actions.pma_s": "partial_actions.pma",
    "partial_actions.lambda_s": "partial_actions.lambda",
    "partial_actions.equiv_s": "partial_actions.equiv",
    "partial_actions.gpa_validate_s": "partial_actions.gpa_validate",
    "partial_actions.induce_s": "partial_actions.induce",
    "dualization.transfer_s": "dualization.transfer",
    "globalization.grouplikes_s": "globalization.grouplikes",
    "globalization.build_s": "globalization.build",
    "globalization.check_s": "globalization.check",
    "globalization.dual_transfer_s": "globalization.dual_transfer",
    "jsonio.load_s": "jsonio.load",
    "jsonio.emit_s": "jsonio.emit",
}

_CALLS = {
    "tensor_space.matmul_calls": "tensor_space.matmul",
    "tensor_space.kron_calls": "tensor_space.kron",
    "tensor_space.vec_tensor_calls": "tensor_space.vec_tensor",
    "tensor_space.elim_calls": "tensor_space.elim",
    "weak_hopf.pointwise_calls": "weak_hopf.pointwise",
    "scalars.parse_calls": "scalars.parse",
    "groupoid.build_calls": "groupoid.build",
    "dualization.calls": "dualization.transfer",
}

_COUNTS = {
    "tensor_space.matmul_dense_madds": "matmul_dense_madds",
    "tensor_space.kron_entries": "kron_entries",
    "weak_hopf.pointwise_pairs": "pointwise_pairs",
    "jsonio.bytes_out": "bytes_out",
    "report.results": "report_results",
    "report.failed": "report_failed",
}

# Filled in by the benchmark run rather than by the tracer.
_FROM_RUN = {"scalars.q_over_fp": "ratio", "jsonio.bytes_in": "bytes",
             "cli.startup_s": "s", "trace.overhead": "ratio"}

PER_LAYER_UNITS = {
    **{name: "s" for name in _SELF_TIMES},
    **{name: "count" for name in _CALLS},
    **{name: ("bytes" if name.startswith("jsonio.") else "count") for name in _COUNTS},
    "tensor_space.matmul_fill": "ratio",
    **_FROM_RUN,
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "trace.total_s": "s",
    "trace.unattributed_s": "s",
    "trace.bookkeeping_s": "s",
}


def layer_metrics(tracer: Tracer, total_s: float) -> dict:
    """Every per-layer metric the tracer can give, for one traced pass of
    ``total_s`` wall seconds.  Self times, bookkeeping and unattributed time
    sum to ``total_s``."""
    out = {name: tracer.self_s(key) for name, key in _SELF_TIMES.items()}
    out.update({name: tracer.calls(key) for name, key in _CALLS.items()})
    out.update({name: tracer.counts[key] for name, key in _COUNTS.items()})
    entries = tracer.counts["matmul_entries"]
    out["tensor_space.matmul_fill"] = tracer.counts["matmul_nnz"] / entries if entries else 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = tracer.layer_self_s(layer)
        out[f"{layer}.errors"] = tracer.layer_errors[layer]
    out["trace.total_s"] = total_s
    out["trace.unattributed_s"] = total_s - tracer.root_s - tracer.bookkeeping_s
    out["trace.bookkeeping_s"] = tracer.bookkeeping_s + tracer.inner_bookkeeping_s()
    return out
