"""Span tracing of ecd's layers, installed from outside the package.

A traced run rebinds each public function at the module attribute its callers
look up (``gpsr.select``, ``ris.replace_at``, ``cli.to_dot``, ...) and wraps
``ExpressionTree.__post_init__`` on the class, so no file of ``src/ecd``
changes. Every wrapper appends one span -- name, start, end, parent span and
the id of the CLI call it belongs to -- to a list held in memory; the list is
written out once the run ends. Untraced calls run the original functions,
because the wrappers are removed again after each traced call.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
from dataclasses import dataclass, field
from time import perf_counter

from ecd import cli, dataio, gpsr, ris, synthbench
from ecd.exprcore import ExpressionTree


@dataclass(slots=True)
class Span:
    span_id: int
    parent: int  # -1 for the root span of a CLI call
    call_id: int
    name: str
    start: float = 0.0
    end: float = 0.0
    extra: float = 0.0  # per-span quantity that some layer metrics need

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    call_id: int = -1
    _stack: list[int] = field(default_factory=list)

    def wrap(self, name: str, fn, extra=None):
        """fn with a span around every call; extra(args, result) -> float is
        recorded on the span after it has ended."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(
                len(self.spans), self._stack[-1] if self._stack else -1, self.call_id, name
            )
            self.spans.append(span)
            self._stack.append(span.span_id)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if extra is not None:
                span.extra = extra(args, result)
            return result

        return wrapper

    def call(self, name: str, fn, *args):
        """Run one CLI call as the root span of a new call id."""
        self.call_id += 1
        return self.wrap(name, fn)(*args)

    @contextlib.contextmanager
    def installed(self):
        """Rebind every call site in TARGETS to a wrapper; restore on exit."""
        saved = []
        try:
            for owner, attr, name, extra in TARGETS:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, extra))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        """Spans as gzip-compressed CSV; a desk-fit pass alone makes ~170,000."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("span_id,parent,call_id,name,start,end,extra\n")
            for s in self.spans:
                handle.write(
                    f"{s.span_id},{s.parent},{s.call_id},{s.name},"
                    f"{s.start!r},{s.end!r},{s.extra!r}\n"
                )


def _ind_gens(args, result) -> float:
    # evolve(data, response, config): individual-generations actually run.
    return float(args[2].population_size * len(result.history))


def _crossover_rejects(args, result) -> float:
    # crossover returns the parent object itself for a child over max_depth.
    return float((result[0] is args[0]) + (result[1] is args[1]))


def _node_rows(args, result) -> float:
    # evaluate_batch(tree, data)
    return float(args[0].size * args[1].n_rows)


def _cells(args, result) -> float:
    return float(result.n_rows * len(result.names))


# (owner, attribute, span name, extra): one entry per call site. A function
# imported into several modules is rebound in each module that calls it.
TARGETS = (
    (gpsr, "evolve", "gpsr.evolve", _ind_gens),
    (gpsr, "init_population", "gpsr.init_population", None),
    (gpsr, "fitness", "gpsr.fitness", None),
    (gpsr, "select", "gpsr.select", None),
    (gpsr, "crossover", "gpsr.crossover", _crossover_rejects),
    (gpsr, "mutate", "gpsr.mutate", None),
    (gpsr, "diversity", "gpsr.diversity", None),
    (gpsr, "history_to_csv", "gpsr.history_to_csv", None),
    (gpsr, "model_document", "gpsr.model_document", None),
    (gpsr, "model_from_document", "gpsr.model_from_document", None),
    (gpsr, "replace_at", "exprcore.replace_at", None),
    (gpsr, "subtree_at", "exprcore.subtree_at", None),
    (gpsr, "node_depth", "exprcore.node_depth", None),
    (gpsr, "evaluate_batch", "exprcore.evaluate_batch", _node_rows),
    (gpsr, "tree_to_json", "exprcore.tree_to_json", None),
    (gpsr, "tree_from_json", "exprcore.tree_from_json", None),
    (ExpressionTree, "__post_init__", "exprcore.tree_build", None),
    (ris, "ris", "ris.ris", None),
    (ris, "quartile_baselines", "ris.quartile_baselines", None),
    (ris, "quartile_impact_table", "ris.quartile_impact_table", None),
    (ris, "counterfactual", "ris.counterfactual", None),
    (ris, "simplify_by_impact", "ris.simplify_by_impact", None),
    (ris, "evaluate_nodes", "exprcore.evaluate_nodes", None),
    (ris, "evaluate", "exprcore.evaluate", None),
    (ris, "replace_at", "exprcore.replace_at", None),
    (cli, "to_dot", "exprcore.to_dot", None),
    (cli, "tree_to_json", "exprcore.tree_to_json", None),
    (dataio, "load_csv", "dataio.load_csv", _cells),
    (synthbench, "generate", "synthbench.generate", None),
)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out = []
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.seconds - covered)
    return out


def _under(spans: list[Span], span: Span, ancestor: str) -> bool:
    parent = span.parent
    while parent >= 0:
        if spans[parent].name == ancestor:
            return True
        parent = spans[parent].parent
    return False


def _ratio(num: float, den: float) -> float:
    # A layer the workload never reaches reads 0.
    return num / den if den else 0.0


# name -> unit; the order and units BENCHMARK.json lists under per_layer.
LAYER_METRICS = {
    "gpsr.select.calls": "count",
    "gpsr.select.s": "s",
    "gpsr.crossover.calls": "count",
    "gpsr.crossover.s": "s",
    "gpsr.crossover.reject_ratio": "ratio",
    "gpsr.mutate.calls": "count",
    "gpsr.mutate.s": "s",
    "gpsr.init_population.s": "s",
    "gpsr.evolve.self_s": "s",
    "gpsr.fitness.calls_per_ind_gen": "calls/ind_gen",
    "gpsr.fitness.s": "s",
    "exprcore.tree_build.calls": "count",
    "exprcore.tree_build.s": "s",
    "exprcore.replace_at.calls": "count",
    "exprcore.replace_at.s": "s",
    "exprcore.node_depth.s": "s",
    "exprcore.evaluate_batch.calls": "count",
    "exprcore.evaluate_batch.s": "s",
    "exprcore.evaluate_batch.node_rows_per_s": "node_rows/s",
    "exprcore.evaluate_nodes.calls": "count",
    "exprcore.evaluate_nodes.s": "s",
    "exprcore.to_dot.calls": "count",
    "exprcore.to_dot.s": "s",
    "ris.ris.calls": "count",
    "ris.ris.self_s": "s",
    "ris.quartile_impact_table.s": "s",
    "ris.simplify_by_impact.s": "s",
    "ris.counterfactual.s": "s",
    "ris.evaluate_nodes_per_table": "calls/table",
    "dataio.load_csv.calls": "count",
    "dataio.load_csv.s": "s",
    "dataio.load_csv.cells_per_s": "cells/s",
    "synthbench.generate.s": "s",
    "cli.fit.self_s": "s",
    "cli.ris.self_s": "s",
    "cli.counterfactual.self_s": "s",
    "cli.simplify.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(spans: list[Span], passes: int, overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics over `passes` identical passes, given per pass.

    Counts are exact; '.s' is inclusive time, '.self_s' self time; rates
    divide a per-span quantity by the time of the spans that did the work.
    """
    calls: dict[str, int] = {}
    seconds: dict[str, float] = {}
    own: dict[str, float] = {}
    extra: dict[str, float] = {}
    for s, self_s in zip(spans, self_times(spans)):
        calls[s.name] = calls.get(s.name, 0) + 1
        seconds[s.name] = seconds.get(s.name, 0.0) + s.seconds
        own[s.name] = own.get(s.name, 0.0) + self_s
        extra[s.name] = extra.get(s.name, 0.0) + s.extra
    table_evals = sum(
        1
        for s in spans
        if s.name == "exprcore.evaluate_nodes" and _under(spans, s, "ris.quartile_impact_table")
    )

    out: dict[str, float] = {}
    for metric in LAYER_METRICS:
        span_name, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls.get(span_name, 0) / passes
        elif kind == "s":
            out[metric] = seconds.get(span_name, 0.0) / passes
        elif kind == "self_s":
            out[metric] = own.get(span_name, 0.0) / passes
    out["gpsr.crossover.reject_ratio"] = _ratio(
        extra.get("gpsr.crossover", 0.0), 2 * calls.get("gpsr.crossover", 0)
    )
    out["gpsr.fitness.calls_per_ind_gen"] = _ratio(
        calls.get("gpsr.fitness", 0), extra.get("gpsr.evolve", 0.0)
    )
    out["exprcore.evaluate_batch.node_rows_per_s"] = _ratio(
        extra.get("exprcore.evaluate_batch", 0.0), seconds.get("exprcore.evaluate_batch", 0.0)
    )
    out["ris.evaluate_nodes_per_table"] = _ratio(
        table_evals, calls.get("ris.quartile_impact_table", 0)
    )
    out["dataio.load_csv.cells_per_s"] = _ratio(
        extra.get("dataio.load_csv", 0.0), seconds.get("dataio.load_csv", 0.0)
    )
    out["trace.overhead_ratio"] = overhead_ratio
    return out
