"""Span tracing at polysigma's layer boundaries, and the per-layer metrics
derived from the spans.

The traced run never edits the package: ``install`` replaces module
attributes with wrappers, so every call that goes through the attribute
(``oracle.closure_check``, ``phases.het_nary_mul``, ...) records one span.
A span is a name, a start, an end and the span that was open when it began.
Spans stay in memory in flat arrays and are written out once, at the end.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from array import array
from pathlib import Path

#: phases functions that multiply or invert labels one element at a time.
SCALAR_MUL = ("pauli_mul", "elementary_nary_mul", "full_nary_mul",
              "het_nary_mul", "het_querelement", "het_querelement_general")
#: the structure builders that ``verify`` dispatches to.
BUILDERS = ("build_pauli_group", "build_elementary_semigroup",
            "build_full_group", "build_het_group")
#: oracle functions that check querelements against dense matrices.
QUERELEMENT_CHECKS = ("querelement_dense_check", "het_querelement_inverse_check")


class Tracer:
    """In-memory span recorder; one per traced interpreter."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self._lock = threading.Lock()
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def add(self, counter: str, value: int) -> None:
        with self._lock:
            self.counts[counter] = self.counts.get(counter, 0) + int(value)

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span per call; ``count(args, result)`` adds
        to the counter of the same name."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]

        def traced(*args, **kwargs):
            stack = self._stack()
            # a worker thread's outermost call was caused by whatever the
            # owning thread has open
            if stack:
                parent = stack[-1]
            else:
                owner = self._owner_stack
                parent = owner[-1] if owner else -1
            with self._lock:
                sid = len(self.start)
                self.name_id.append(nid)
                self.parent.append(parent)
                self.start.append(time.perf_counter())
                self.end.append(0.0)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = time.perf_counter()
                stack.pop()
            if count is not None:
                self.add(name, count(args, result))
            return result

        return traced

    def save(self, path: Path) -> None:
        import numpy as np

        np.savez(
            path,
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            meta=np.array(json.dumps({"names": self.names, "counts": self.counts})),
        )


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of each polysigma layer."""
    from polysigma import cli, matrices, oracle, phases

    for fn in SCALAR_MUL:
        setattr(phases, fn, tracer.wrap("phases.scalar_mul", getattr(phases, fn)))
    for fn in BUILDERS:
        setattr(phases, fn, tracer.wrap("phases.build", getattr(phases, fn)))
    phases.nary_element_order = tracer.wrap(
        "phases.nary_element_order", phases.nary_element_order)

    checked = lambda args, res: res.checked  # noqa: E731
    oracle.closure_check = tracer.wrap("oracle.closure_check", oracle.closure_check, checked)
    oracle.assoc_check = tracer.wrap("oracle.assoc_check", oracle.assoc_check, checked)
    for fn in QUERELEMENT_CHECKS:
        setattr(oracle, fn, tracer.wrap("oracle.querelement_check", getattr(oracle, fn)))

    lower_family = tracer.wrap("oracle.family_context", oracle.family_context)
    rows = lambda args, res: args[0].shape[0]  # noqa: E731

    def family_context(*args, **kwargs):
        fam = lower_family(*args, **kwargs)
        return dataclasses.replace(
            fam, index_mult=tracer.wrap("oracle.index_mult", fam.index_mult, rows))

    oracle.family_context = family_context
    matrices.BlockCyclicMatrix.dense = tracer.wrap(
        "matrices.dense", matrices.BlockCyclicMatrix.dense)
    cli.main = tracer.wrap("cli.main", cli.main)


# ---------------------------------------------------------------------------
# analysis


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (children may overlap when they run on worker threads)."""
    n = len(start)
    covered = [0.0] * n
    kids = sorted((p, s, e) for p, s, e in zip(parent, start, end) if p >= 0)
    current, reach = -1, 0.0
    for p, s, e in kids:
        if p != current:
            current, reach = p, start[p]
        s, e = max(s, reach), min(e, end[p])
        if e > s:
            covered[p] += e - s
            reach = e
    return [end[i] - start[i] - covered[i] for i in range(n)]


@dataclasses.dataclass
class SpanSummary:
    """Per-name totals over one traced call."""

    calls: dict[str, int]
    total_s: dict[str, float]
    self_s: dict[str, float]
    counts: dict[str, int]


def summarize(path: Path) -> SpanSummary:
    import numpy as np

    with np.load(path) as data:
        meta = json.loads(str(data["meta"]))
        name_id = data["name_id"].tolist()
        parent = data["parent"].tolist()
        start = data["start"].tolist()
        end = data["end"].tolist()
    own = self_times(parent, start, end)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for nid, s, e, o in zip(name_id, start, end, own):
        name = meta["names"][nid]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (e - s)
        self_s[name] = self_s.get(name, 0.0) + o
    return SpanSummary(calls, total, self_s, meta["counts"])


def layer_metrics(spans: SpanSummary) -> dict[str, tuple[float, str]]:
    """The benchmark's per-layer metrics, as name -> (value, unit)."""
    calls = lambda k: spans.calls.get(k, 0)  # noqa: E731
    total = lambda k: spans.total_s.get(k, 0.0)  # noqa: E731
    own = lambda k: spans.self_s.get(k, 0.0)  # noqa: E731
    count = lambda k: spans.counts.get(k, 0)  # noqa: E731
    main_s = total("cli.main")
    closure_s = total("oracle.closure_check")
    products = count("oracle.closure_check")
    return {
        "oracle.closure_check.self_s": (own("oracle.closure_check"), "s"),
        "oracle.closure_check.products": (products, "count"),
        "oracle.closure_check.products_per_s":
            (products / closure_s if closure_s else 0.0, "1/s"),
        "oracle.closure_check.share": (closure_s / main_s, "ratio"),
        "oracle.index_mult.s": (total("oracle.index_mult"), "s"),
        "oracle.index_mult.rows": (count("oracle.index_mult"), "count"),
        "oracle.family_context.s": (total("oracle.family_context"), "s"),
        "oracle.family_context.calls": (calls("oracle.family_context"), "count"),
        "oracle.family_context.share": (total("oracle.family_context") / main_s, "ratio"),
        "matrices.dense.calls": (calls("matrices.dense"), "count"),
        "oracle.assoc_check.self_s": (own("oracle.assoc_check"), "s"),
        "oracle.assoc_check.tuples": (count("oracle.assoc_check"), "count"),
        "oracle.querelement_check.s": (total("oracle.querelement_check"), "s"),
        "oracle.spans": (sum(v for k, v in spans.calls.items()
                             if k.startswith("oracle.")), "count"),
        "phases.scalar_mul.s": (total("phases.scalar_mul"), "s"),
        "phases.scalar_mul.calls": (calls("phases.scalar_mul"), "count"),
        "phases.nary_element_order.s": (total("phases.nary_element_order"), "s"),
        "phases.nary_element_order.calls": (calls("phases.nary_element_order"), "count"),
        "phases.build.self_s": (own("phases.build"), "s"),
        "phases.share": (sum(v for k, v in spans.self_s.items()
                              if k.startswith("phases.")) / main_s, "ratio"),
        "cli.self_s": (own("cli.main"), "s"),
        "cli.share": (own("cli.main") / main_s, "ratio"),
    }
