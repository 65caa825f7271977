"""In-memory span tracing of idtest's public functions, from outside the package.

A Tracer wraps a fixed list of idtest functions and methods. A module-level
function is replaced under every name an ``idtest`` module imported it as
(``bucket_indices`` lives in ``bucketing`` but is called through ``coarse``,
``moment`` and ``harness``); a method is replaced on its class. Each call
becomes one span: name, start, end, parent span, the op it belongs to, and
a work count read from one argument. Spans are kept in flat arrays and
written out once, at the end of the run.

A layer's self time is its span's duration minus the durations of its child
spans; the program is single-threaded, so children never overlap.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

SETUP_OP = -1  # op id of spans recorded during workload set-up

# (span name, idtest module, attribute, argument holding the work count).
# An array argument counts its size, an integer argument its value.
TARGETS = (
    ("tester.identity_test", "tester", "identity_test", None),
    ("tester.query_audit", "tester", "query_audit", None),
    ("tester.QueryCounter.lookup", "tester", "QueryCounter.lookup", "indices"),
    ("bucketing.build_scheme", "bucketing", "build_scheme", None),
    ("bucketing.bucket_indices", "bucketing", "bucket_indices", "probs"),
    ("coarse.estimate_q", "coarse", "estimate_q", None),
    ("coarse.collect_heavy_support", "coarse", "collect_heavy_support", None),
    ("coarse.uniform_probe", "coarse", "uniform_probe", "s2_size"),
    ("coarse.coarse_decide", "coarse", "coarse_decide", None),
    ("moment.collect_counts", "moment", "collect_counts", None),
    ("distributions.draw_many", "distributions", "AliasSampler.draw_many", "m"),
    ("distributions.ProbabilityVector.lookup", "distributions",
     "ProbabilityVector.lookup", "indices"),
    ("distributions.AliasSampler.build", "distributions", "AliasSampler.__init__", None),
    ("io.read_pmf", "io", "read_pmf", None),
    ("harness.run_trials", "harness", "run_trials", None),
    ("harness.lemma_check", "harness", "lemma_check", None),
)

# Per-op layer metrics: metric name -> (span name, what to sum per op).
PER_OP = {
    "tester.QueryCounter.lookup.self_s": ("tester.QueryCounter.lookup", "self"),
    "moment.collect_counts.self_s": ("moment.collect_counts", "self"),
    "bucketing.bucket_indices.s": ("bucketing.bucket_indices", "total"),
    "bucketing.bucket_indices.probs": ("bucketing.bucket_indices", "count"),
    "coarse.uniform_probe.self_s": ("coarse.uniform_probe", "self"),
    "coarse.uniform_probe.probes": ("coarse.uniform_probe", "count"),
    "coarse.estimate_q.self_s": ("coarse.estimate_q", "self"),
    "coarse.collect_heavy_support.self_s": ("coarse.collect_heavy_support", "self"),
    "coarse.coarse_decide.s": ("coarse.coarse_decide", "total"),
    "distributions.draw_many.s": ("distributions.draw_many", "total"),
    "distributions.draw_many.samples": ("distributions.draw_many", "count"),
    "distributions.ProbabilityVector.lookup.s": ("distributions.ProbabilityVector.lookup", "total"),
    "distributions.ProbabilityVector.lookup.indices": ("distributions.ProbabilityVector.lookup", "count"),
    "bucketing.build_scheme.calls": ("bucketing.build_scheme", "calls"),
    "bucketing.build_scheme.s": ("bucketing.build_scheme", "total"),
    "tester.identity_test.self_s": ("tester.identity_test", "self"),
    "harness.run_trials.self_s": ("harness.run_trials", "self"),
    "harness.lemma_check.self_s": ("harness.lemma_check", "self"),
    "tester.query_audit.s": ("tester.query_audit", "total"),
}
# Mean seconds per call, set-up included (these run mostly in set-up).
PER_CALL = {
    "distributions.AliasSampler.build_s": "distributions.AliasSampler.build",
    "io.read_pmf.s": "io.read_pmf",
}


def _arg_getter(fn, param):
    pos = list(inspect.signature(fn).parameters).index(param)
    return lambda args, kwargs: args[pos] if len(args) > pos else kwargs.get(param)


def _work(value) -> int:
    if isinstance(value, (int, np.integer)):
        return int(value)
    return int(np.size(value))


def _np(buf, dtype) -> np.ndarray:
    return np.frombuffer(buf, dtype=dtype).copy()


class Tracer:
    """Records spans of the TARGETS while installed (a context manager).

    Set ``op`` to the index of the op about to run so its spans can be
    grouped; spans recorded with ``op == SETUP_OP`` belong to set-up.
    """

    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.count = array("q")
        self.start = array("d")
        self.end = array("d")
        self.op = SETUP_OP
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, nid, fn, count_param):
        count = _arg_getter(fn, count_param) if count_param else None
        # AliasSampler.spawn passes the shared tables: no build, no span
        tables = _arg_getter(fn, "_tables") if fn.__name__ == "__init__" else None
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tables is not None and tables(args, kwargs) is not None:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op_id.append(self.op)
            self.count.append(_work(count(args, kwargs)) if count else 1)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()

        return traced

    def __enter__(self):
        for nid, (_, module, path, count_param) in enumerate(TARGETS):
            mod = importlib.import_module(f"idtest.{module}")
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(mod, cls_name)
                self._set(owner, attr, self._wrap(nid, owner.__dict__[attr], count_param))
                continue
            original = getattr(mod, path)
            wrapped = self._wrap(nid, original, count_param)
            for mod_name, loaded in list(sys.modules.items()):
                if mod_name == "idtest" or mod_name.startswith("idtest."):
                    for attr, value in list(vars(loaded).items()):
                        if value is original:
                            self._set(loaded, attr, wrapped)
        return self

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False

    def layer_metrics(self, n_ops: int) -> dict[str, tuple[float, str]]:
        """(value, unit) of the PER_OP and PER_CALL metrics and collect_counts.distinct.

        Per-op values sum the spans of ops (not set-up) and divide by n_ops.
        """
        name = _np(self.name_id, np.int32)
        parent = _np(self.parent, np.int32)
        count = _np(self.count, np.int64)
        in_op = _np(self.op_id, np.int32) >= 0
        dur = _np(self.end, np.float64) - _np(self.start, np.float64)
        nested = parent >= 0
        child = np.zeros(dur.size)
        np.add.at(child, parent[nested], dur[nested])
        values = {"self": dur - child, "total": dur, "count": count, "calls": np.ones(dur.size)}
        ids = {n: i for i, n in enumerate(self.names)}
        out = {}
        for metric, (span, what) in PER_OP.items():
            mask = in_op & (name == ids[span])
            unit = "s/op" if what in ("self", "total") else "count/op"
            out[metric] = (float(values[what][mask].sum()) / n_ops, unit)
        for metric, span in PER_CALL.items():
            mask = name == ids[span]
            out[metric] = (float(dur[mask].mean()) if mask.any() else 0.0, "s/call")
        # distinct sampled indices: the p-lookups collect_counts itself makes
        lookups = (name == ids["tester.QueryCounter.lookup"]) | (
            name == ids["distributions.ProbabilityVector.lookup"]
        )
        under = np.zeros(name.size, dtype=bool)
        under[nested] = name[parent[nested]] == ids["moment.collect_counts"]
        distinct = float(count[in_op & lookups & under].sum()) / n_ops
        out["moment.collect_counts.distinct"] = (distinct, "count/op")
        return out

    def save(self, path) -> None:
        """Write every span as a compressed npz of parallel arrays."""
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name_id=_np(self.name_id, np.int32),
            parent=_np(self.parent, np.int32),
            op=_np(self.op_id, np.int32),
            count=_np(self.count, np.int64),
            start=_np(self.start, np.float64),
            end=_np(self.end, np.float64),
        )
