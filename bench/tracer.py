"""Spans around the program's public functions, recorded from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every
``nbtree`` module namespace that bound it (``cli`` and ``acceptance`` import
by name), and wraps the report criteria listed in ``acceptance.CRITERIA``.
A wrapper records one span (name, start, end, parent) in memory and the work
counters read off the call's arguments and result.  ``summary`` turns the
spans into per-name call counts, self times and counter totals.

Self time is wall time.  At each instant the clock is split evenly among the
innermost open spans, so the self times of all spans add up to the time
covered by any span, never to more than the traced wall.  Spans opened on a
worker thread (the Monte Carlo pool) are children of the span open on the
main thread.  Time a worker thread spends outside any span is not seen, so
under the Monte Carlo pool self time leans toward ``rng.words2``.  Byte
counts are computed from array sizes, not measured.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time


def _sparse_mats(op) -> list:
    return [v for v in vars(op).values() if hasattr(v, "nnz") and hasattr(v, "indptr")]


def _nbytes(obj) -> int:
    total = 0
    for v in vars(obj).values():
        if hasattr(v, "nnz") and hasattr(v, "indptr"):
            total += v.data.nbytes + v.indices.nbytes + v.indptr.nbytes
        elif hasattr(v, "nbytes"):
            total += int(v.nbytes)
    return total


def _matvec_bytes(op) -> float:
    """Bytes one sparse matvec touches: the matrix, a gathered input value per
    nonzero and one output value per row, averaged over the operator's matrices."""
    mats = _sparse_mats(op)
    if not mats:
        return 0.0
    per = [m.data.nbytes + m.indices.nbytes + m.indptr.nbytes + 8 * m.nnz + 8 * m.shape[0]
           for m in mats]
    return sum(per) / len(per)


def _support(ball, rule, at) -> set:
    from nbtree import correlation

    return set(correlation.rule_site(ball, rule, int(at)).local_ids.tolist())


def _disjoint_configs(args, result, region1, region2) -> int:
    """The call's configurations if the two regions' label supports are
    disjoint (the exact answer is then 0 without enumeration), else 0."""
    ball, rule = args[0], args[1]
    s1 = set().union(*(_support(ball, rule, x) for x in region1))
    s2 = set().union(*(_support(ball, rule, x) for x in region2))
    return 0 if s1 & s2 else result.n_configs


def _counts(**fields):
    """Counter reader: each field maps a name to a function of (args, result)."""
    def read(args, result):
        return {k: f(args, result) for k, f in fields.items()}
    read.names = tuple(fields)
    return read


#: traced function -> reader of its work counters from (args, result), or None
TRACED = {
    "rng.words2": _counts(words=lambda a, r: int(r.size)),
    "rng.words": None,
    "rng.randint": None,
    "correlation.monte_carlo_corr": _counts(samples=lambda a, r: r.n_samples),
    "correlation.exact_corr_discrete": _counts(
        configs=lambda a, r: r.n_configs,
        configs_disjoint=lambda a, r: _disjoint_configs(a, r, a[3], a[4])),
    "correlation.exact_edge_corr": _counts(
        configs=lambda a, r: r.n_configs,
        configs_disjoint=lambda a, r: _disjoint_configs(a, r, (a[3],), (a[4],))),
    "correlation.symmetrization_moment_check": None,
    "correlation.edge_homogeneity_check": None,
    "correlation.polarization_check": None,
    "correlation.lemma_consequence_check": None,
    "factor_engine.linear_rule_covariance_exact": None,
    "factor_engine.symmetrize_rule": None,
    "tree_core.build_ball": _counts(edges=lambda a, r: r.n_edges),
    "nb_operator.build_operator": _counts(
        nnz=lambda a, r: _sparse_mats(r)[0].nnz if _sparse_mats(r) else 0,
        bytes_computed=lambda a, r: _nbytes(r)),
    "nb_operator.operator_norm_pow": _counts(
        iterations=lambda a, r: r.iterations,
        matvecs=lambda a, r: 2 * r.k * r.iterations,
        matvec_bytes_computed=lambda a, r: 2 * r.k * r.iterations * _matvec_bytes(a[0])),
    "nb_operator.certify_claims": None,
    "nb_operator.cone_weight_sums": None,
    "nb_operator.walk_count": None,
    "universal_factor.roundtrip_check": _counts(trials=lambda a, r: r.trials),
    "universal_factor.sphere_overlap_count": None,
    "cli.main": None,
}

#: traced functions whose call arguments are kept, to replay the calls afterwards
KEEP_ARGS = {"correlation.monte_carlo_corr"}

#: names of the report criteria, in report order; each is timed inclusively
CRITERIA = ("bound-formulas", "norm-vs-bound", "cone-sum-certificates", "walk-counts",
            "oracle-agreement", "bound-compliance-sweep", "sharpness-decay-rate",
            "orbit-average-moments", "polarization-and-transfer", "edge-homogeneity",
            "universal-roundtrip")


class Tracer:
    def __init__(self):
        self.enabled = True
        self.spans: list[tuple] = []  # (id, name, start, end, parent, counters)
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main = threading.main_thread()
        self.kept: list[tuple] = []  # (unwrapped fn, args) of KEEP_ARGS calls

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, count=None):
        tracer = self
        keep = name in KEEP_ARGS

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if keep:
                tracer.kept.append((fn, args))
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main and stack is not main else -1
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                counters = count(args, result) if count and result is not None else None
                tracer.spans.append((sid, name, start, end, parent, counters))

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "nbtree" or n.startswith("nbtree."))]
        for name, count in TRACED.items():
            mod_name, fn_name = name.split(".")
            fn = getattr(importlib.import_module(f"nbtree.{mod_name}"), fn_name, None)
            if fn is None:
                continue
            wrapper = self.wrap(name, fn, count)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, attr, wrapper)
        acceptance = sys.modules.get("nbtree.acceptance")
        table = getattr(acceptance, "CRITERIA", None)
        if isinstance(table, list):
            table[:] = [(cid, cname, self.wrap(f"acceptance.{cname}", fn))
                        for cid, cname, fn in table]

    def summary(self) -> dict:
        """Per-name calls, self and inclusive seconds, and counter totals."""
        out: dict[str, dict] = {}
        for _, name, start, end, _, counters in self.spans:
            agg = out.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
            agg["calls"] += 1
            agg["incl_s"] += end - start
            for key, val in (counters or {}).items():
                agg[key] = agg.get(key, 0) + val
        by_id = {s[0]: s for s in self.spans}
        for sid, self_s in self_times(self.spans).items():
            out[by_id[sid][1]]["self_s"] += self_s
        return out

    def dump(self) -> dict:
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {"names": names,
                "fields": ["id", "name", "start_s", "end_s", "parent"],
                "spans": [[s[0], index[s[1]], s[2], s[3], s[4]]
                          for s in sorted(self.spans, key=lambda s: s[2])]}


def self_times(spans) -> dict[int, float]:
    """Self wall time per span id: each instant is split evenly among the
    innermost open spans (those with no open child)."""
    events = []
    for sid, _, start, end, parent, _ in spans:
        events.append((start, 1, sid, parent))
        events.append((end, 0, sid, parent))
    # at equal times: ends before starts, parents open before and close after children
    events.sort(key=lambda e: (e[0], e[1], e[2] if e[1] else -e[2]))
    open_children: dict[int, int] = {}
    innermost: set[int] = set()
    self_s = {s[0]: 0.0 for s in spans}
    prev = events[0][0] if events else 0.0
    for t, is_start, sid, parent in events:
        if innermost and t > prev:
            share = (t - prev) / len(innermost)
            for s in innermost:
                self_s[s] += share
        prev = t
        if is_start:
            open_children[sid] = 0
            innermost.add(sid)
            if parent in open_children:
                open_children[parent] += 1
                innermost.discard(parent)
        else:
            innermost.discard(sid)
            open_children.pop(sid, None)
            if parent in open_children:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    innermost.add(parent)
    return self_s
