"""Span recorder for the traced run, kept entirely in the benchmark.

Nothing under `src/` is touched.  The traced run gets its spans two ways:

* `instrument(tracer)` replaces, for the duration of a `with` block, every
  function that `termflow.cli` imports from another termflow module with a
  wrapper that records a span named `<module>.<function>`.  Each query
  runs inside a `cli.main` span, so the CLI's self time is that span minus
  its children.
* `stage_probes` calls the public stage functions directly on the inputs
  the CLI handed to a composite call (normalize's four stages behind
  `pipeline`, flownet's three behind `dispersion_exponent` and
  `cut_certificate`, `in_neighbors` behind `brute_guessing`), timing each
  stage and collecting its exact work counts.

Spans live in memory; nothing is written until the run ends.
"""

from __future__ import annotations

import contextlib
import time
import types

from termflow import cli
from termflow.depgraph import DependencyGraph
from termflow.errors import BudgetError
from termflow.flownet import build_dag, build_network, max_flow
from termflow.normalize import (classify, collision_quotient, flatten,
                                quotient_vars)

# The layers are termflow's modules; `terms` is the shared data model.
LAYERS = ("dsl", "normalize", "depgraph", "flownet", "oracle", "cli")


class Span:
    __slots__ = ("name", "start", "end", "parent", "refused", "args")

    def __init__(self, name, start, parent, args):
        self.name, self.start, self.parent, self.args = name, start, parent, args
        self.end, self.refused = None, False

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans of one query at a time; `take()` hands them over and resets."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else None
        span = Span(name, time.perf_counter(), parent, args)
        self.spans.append(span)
        self._open.append(span)
        try:
            return fn(*args, **kwargs)
        except BudgetError:
            span.refused = True
            raise
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def self_seconds(span: Span, spans: list[Span]) -> float:
    """Span duration minus the time its direct children cover."""
    return span.seconds - sum(s.seconds for s in spans if s.parent is span)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the termflow functions `termflow.cli` calls by name."""
    saved = {}
    for name, obj in vars(cli).items():
        module = getattr(obj, "__module__", "") or ""
        if (isinstance(obj, types.FunctionType) and module.startswith("termflow.")
                and module != "termflow.cli"):
            saved[name] = obj
            setattr(cli, name, tracer.wrap(f"{module[9:]}.{name}", obj))
    try:
        yield
    finally:
        for name, obj in saved.items():
            setattr(cli, name, obj)


def stage_probes(tracer: Tracer, spans: list[Span]) -> dict[str, int]:
    """Re-run the stages behind the composite calls seen in `spans`, each
    under its own span; return their exact work counts."""
    counts: dict[str, int] = {}

    def add(name: str, value: int) -> None:
        counts[name] = counts.get(name, 0) + value

    for span in spans:
        if span.name == "normalize.pipeline":
            flat = tracer.call("normalize.flatten", flatten, *span.args)
            quot = tracer.call("normalize.quotient_vars", quotient_vars, flat)
            out = tracer.call("normalize.collision_quotient",
                              collision_quotient, quot)
            tracer.call("normalize.classify", classify, out)
            add("normalize.auxiliaries", len(flat.auxiliaries))
            add("normalize.merges", len(flat.variables) - len(out.variables))
        elif span.name in ("flownet.dispersion_exponent",
                           "flownet.cut_certificate"):
            dag = tracer.call("flownet.build_dag", build_dag, *span.args)
            net = tracer.call("flownet.build_network", build_network, dag)
            tracer.call("flownet.max_flow", max_flow, net)
            add("flownet.dag_nodes", dag.node_count)
            add("flownet.network_edges", len(net.edges))
        elif span.name == "oracle.brute_guessing":
            graph = span.args[0]
            tracer.call("depgraph.in_neighbors", _all_in_neighbors, graph)
    return counts


def _all_in_neighbors(graph: DependencyGraph) -> None:
    """The in-neighbourhood lookups the guessing view makes per player."""
    for v in graph.vertices:
        if v not in graph.sources:
            graph.in_neighbors(v)
