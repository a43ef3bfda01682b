"""Per-layer spans recorded from outside the ``qsm`` package.

:func:`installed` replaces each public layer function, in every ``qsm``
module namespace that holds it, by a wrapper that records a span (name,
start, end, parent span, op id, exception type) or, for the hottest helpers,
only counts calls.  Leaving the ``with`` block puts every original object
back.  Spans stay in memory; :func:`layer_metrics` turns one pass's spans
into per-layer self times and counts.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import functools
import sys
import time


@dataclasses.dataclass(frozen=True)
class Target:
    layer: str
    module: str
    name: str
    counts_only: bool = False
    namespaces: tuple | None = None  # None: every qsm module that holds it


def _protocol(args, kwargs):
    return kwargs["protocol"] if "protocol" in kwargs else args[0]


# attributes noted on a span from the wrapped call's arguments and result
_NOTES = {
    "ki_decompose": lambda a, k, r: {"steps": len(r.trajectory)},
    "build_merge_protocol": lambda a, k, r: {"branches": len(r.protocol.branches)},
    "apply_protocol": lambda a, k, r: {
        "branches": len(_protocol(a, k).branches),
        "live": len(r),
        "a_in": _protocol(a, k).a_in_dim,
    },
    "verify_protocol": lambda a, k, r: {"a_in": _protocol(a, k).a_in_dim},
}

TARGETS = (
    Target("statespace", "qsm.statespace", "load_state"),
    Target("ki", "qsm.ki", "ki_decompose"),
    Target("merge", "qsm.merge", "achievable_cost"),
    Target("merge", "qsm.merge", "build_merge_protocol"),
    Target("merge", "qsm.merge", "verify_merge"),
    Target("locc", "qsm.locc", "apply_protocol"),
    Target("locc", "qsm.locc", "verify_protocol"),
    Target("split", "qsm.split", "split_cost"),
    Target("split", "qsm.split", "build_split_protocol"),
    Target("split", "qsm.split", "verify_split"),
    Target("split", "qsm.split", "rank_monotonicity_witness"),
    Target("bounds", "qsm.bounds", "converse_simple"),
    Target("bounds", "qsm.bounds", "converse_search"),
    Target("bounds", "qsm.bounds", "h_max_conditional"),
    Target("bounds", "qsm.bounds", "compare_bounds"),
    Target("bounds", "qsm.numerics", "majorization_check", True, ("qsm.bounds",)),
    Target("approx", "qsm.approx", "verify_approximate_merge"),
    Target("approx", "qsm.approx", "best_smoothing_candidate"),
    Target("cli", "qsm.cli", "run"),
    Target("numerics", "qsm.numerics", "tolerance", True),
)
LAYERS = ("statespace", "ki", "merge", "locc", "split", "bounds", "approx", "cli", "numerics")


@dataclasses.dataclass
class Span:
    name: str
    start: float
    parent: int | None
    op: int | None
    end: float = 0.0
    error: str | None = None
    notes: dict | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """In-memory span store for one single-threaded run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.ops: list = []  # op id -> the op it stands for
        self.op: int | None = None  # id of the op running now
        self.calls: collections.Counter = collections.Counter()  # (name, op) -> calls
        self.call_errors: collections.Counter = collections.Counter()  # (name, op, type)

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, self.clock(), parent, self.op))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int, error: str | None = None, notes: dict | None = None) -> None:
        span = self.spans[index]
        span.end = self.clock()
        span.error = error
        span.notes = notes
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        except BaseException as exc:
            self.close(index, type(exc).__name__)
            raise
        self.close(index)

    def wrap(self, target: Target, fn):
        name = f"{target.layer}.{target.name}"
        if target.counts_only:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.calls[name, self.op] += 1
                try:
                    return fn(*args, **kwargs)
                except BaseException as exc:
                    self.call_errors[name, self.op, type(exc).__name__] += 1
                    raise
            return counted

        note = _NOTES.get(target.name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(index, type(exc).__name__)
                raise
            self.close(index, notes=note(args, kwargs, result) if note else None)
            return result
        return spanned


def _namespaces():
    return [m for n, m in sorted(sys.modules.items()) if n == "qsm" or n.startswith("qsm.")]


@contextlib.contextmanager
def installed(tracer: Tracer, targets=TARGETS):
    """Wrap every target in each namespace that holds it; restore on exit."""
    patched = []
    try:
        for target in targets:
            original = getattr(sys.modules[target.module], target.name)
            wrapper = tracer.wrap(target, original)
            for module in _namespaces():
                if target.namespaces and module.__name__ not in target.namespaces:
                    continue
                if getattr(module, target.name, None) is original:
                    setattr(module, target.name, wrapper)
                    patched.append((module, target.name, original))
        yield patched
    finally:
        for module, name, original in reversed(patched):
            setattr(module, name, original)


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it that its direct children cover."""
    children = collections.defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children[index], key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


# per-layer time metric -> span whose self time it sums
TIME_METRICS = {
    "statespace.load_s": "statespace.load_state",
    "ki.decompose_s": "ki.ki_decompose",
    "merge.achievable_s": "merge.achievable_cost",
    "merge.build_s": "merge.build_merge_protocol",
    "locc.verify_s": "locc.verify_protocol",
    "locc.apply_s": "locc.apply_protocol",
    "split.cost_s": "split.split_cost",
    "split.build_s": "split.build_split_protocol",
    "split.witness_s": "split.rank_monotonicity_witness",
    "bounds.simple_s": "bounds.converse_simple",
    "bounds.search_s": "bounds.converse_search",
    "bounds.hmax_s": "bounds.h_max_conditional",
    "approx.candidate_s": "approx.verify_approximate_merge",
    "cli.self_s": "cli.run",
    "cli.encode_s": "cli.encode",
}
COUNT_METRICS = (
    "ki.calls", "ki.refinement_steps", "merge.builds", "merge.branches",
    "locc.branches_applied", "locc.live_branch_ratio", "locc.gram_dim_max",
    "split.builds_per_op", "bounds.majorization_checks", "bounds.hmax_calls",
    "approx.candidates", "approx.candidate_ok_ratio", "numerics.tolerance_calls",
) + tuple(f"{layer}.errors" for layer in LAYERS)


def layer_metrics(tracer: Tracer, ops: dict) -> dict:
    """Per-layer metrics over the spans of ``ops`` (op id -> command name)."""
    selfs = self_times(tracer.spans)
    picked = [(s, t) for s, t in zip(tracer.spans, selfs) if s.op in ops]
    out = {metric: 0.0 for metric in TIME_METRICS}
    by_span = {name: metric for metric, name in TIME_METRICS.items()}
    for span, own in picked:
        if span.name in by_span:
            out[by_span[span.name]] += own

    def spans(name):
        return [s for s, _ in picked if s.name == name]

    def note_sum(name, key):
        return sum(s.notes[key] for s in spans(name) if s.notes)

    def calls(name):
        return sum(n for (nm, op), n in tracer.calls.items() if nm == name and op in ops)

    def ratio(num, den):
        return num / den if den else 0.0

    applies = spans("locc.apply_protocol") + spans("locc.verify_protocol")
    split_ops = [op for op, command in ops.items() if command == "split"]
    candidates = spans("approx.verify_approximate_merge")
    out.update({
        "ki.calls": len(spans("ki.ki_decompose")),
        "ki.refinement_steps": note_sum("ki.ki_decompose", "steps"),
        "merge.builds": len(spans("merge.build_merge_protocol")),
        "merge.branches": note_sum("merge.build_merge_protocol", "branches"),
        "locc.branches_applied": note_sum("locc.apply_protocol", "branches"),
        "locc.live_branch_ratio": ratio(
            note_sum("locc.apply_protocol", "live"),
            note_sum("locc.apply_protocol", "branches"),
        ),
        "locc.gram_dim_max": max((s.notes["a_in"] for s in applies if s.notes), default=0),
        "split.builds_per_op": ratio(
            sum(1 for s in spans("split.build_split_protocol") if s.op in split_ops),
            len(split_ops),
        ),
        "bounds.majorization_checks": calls("bounds.majorization_check"),
        "bounds.hmax_calls": len(spans("bounds.h_max_conditional")),
        "approx.candidates": len(candidates),
        "approx.candidate_ok_ratio": ratio(
            sum(1 for s in candidates if s.error is None), len(candidates)
        ),
        "numerics.tolerance_calls": calls("numerics.tolerance"),
    })
    for layer, count in error_counts(tracer, ops).items():
        out[f"{layer}.errors"] = sum(count.values())
    return out


def layer_shares(spans: list, selfs: list, ops) -> dict:
    """Share of the ``ops``' traced time spent in each layer's own code.

    The ``bench.op`` span's self time (the harness around ``cli.run``) is
    reported as ``harness``.
    """
    totals = collections.Counter()
    for span, own in zip(spans, selfs):
        if span.op in ops:
            totals["harness" if span.layer == "bench" else span.layer] += own
    whole = sum(totals.values())
    return {layer: t / whole for layer, t in totals.most_common()} if whole else {}


def error_counts(tracer: Tracer, ops: dict) -> dict:
    """layer -> {exception type: spans (or counted calls) of ``ops`` that ended in it}."""
    out = {layer: collections.Counter() for layer in LAYERS}
    for span in tracer.spans:
        if span.op in ops and span.error and span.layer in out:
            out[span.layer][span.error] += 1
    for (name, op, kind), n in tracer.call_errors.items():
        if op in ops:
            out[name.split(".", 1)[0]][kind] += n
    return out


def inclusive(tracer: Tracer, op: int, name: str, exclude: str | None = None) -> float | None:
    """Summed duration of ``name`` spans in ``op``, less their direct ``exclude`` children."""
    found = [i for i, s in enumerate(tracer.spans) if s.op == op and s.name == name]
    if not found:
        return None
    total = sum(tracer.spans[i].end - tracer.spans[i].start for i in found)
    if exclude:
        total -= sum(
            s.end - s.start
            for s in tracer.spans
            if s.parent in found and s.name == exclude
        )
    return total

