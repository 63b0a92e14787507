"""Passes over a workload, failure accounting, and the metrics.

The loop is closed: one client sends one query at a time through
`termflow.cli.main(argv)` and waits for it.  One warm-up pass runs first,
then whole passes until the next would end after the deadline.  A query's
time is its median over the measured passes.  A query that fails (wrong
exit code, an exception escaping `cli.main`, a report that fails its
check, or a run over QUERY_LIMIT_S) is charged QUERY_LIMIT_S, so fixing a
crash can never read as a slowdown.

Garbage collection is reset before every query: after the warm-up pass
everything alive is frozen out of the collector, and a collection of the
young generations runs before each query, outside its time.  Each query
then meets the same collector state, whatever the queries before it
left behind, instead of paying at random for full collections that scan
the benchmark's own objects.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import statistics
import time
from dataclasses import dataclass

from termflow import cli

from checks import CheckFailure
from spans import Tracer, instrument, self_seconds, stage_probes

QUERY_LIMIT_S = 10.0

# The shared host's speed drifts by up to ~50% over tens of seconds, in
# wall and CPU time alike, so raw times of runs taken minutes apart do not
# compare.  A fixed pure-Python kernel mixing two kinds of work the CLI's
# layers do (a dict of tuple keys, sorted; small frozen-dataclass term
# trees, built and hashed) is timed before every query; `speed_factor`
# rescales a run's times to a host on which its median takes
# REFERENCE_PROBE_S.
REFERENCE_PROBE_S = 0.0037


@dataclass(frozen=True)
class _Term:
    symbol: str
    args: tuple


def speed_probe() -> float:
    start = time.perf_counter()
    table = {}
    for i in range(2000):
        table[(i % 97, i)] = str(i)
    sorted(table.items())
    seen = {}
    for i in range(200):
        leaf = _Term(f"x{i % 7}", ())
        pair = _Term("f", (leaf, _Term("y", ())))
        seen[_Term("h", (_Term("g", (pair, pair, leaf)), leaf, pair))] = i
    return time.perf_counter() - start


class Runner:
    """Runs passes over one workload and judges every query."""

    def __init__(self, workload):
        self.workload = workload
        self.ctx: dict = {}           # shared by the checks, in query order
        self.reports: dict[str, str] = {}
        self.counts: dict[str, dict] = {}
        self.probe_counts: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, str] = {}   # query -> first reason
        self.correct = True
        self.speed_samples: list[float] = []

    def sample_speed(self) -> None:
        self.speed_samples.append(speed_probe())

    @property
    def speed_factor(self) -> float:
        """Multiply this run's times by it (divide its rates by it)."""
        return REFERENCE_PROBE_S / statistics.median(self.speed_samples)

    def _fail(self, name: str, reason: str, wrong: bool = False) -> None:
        self.failed += 1
        self.failures.setdefault(name, reason)
        self.correct = self.correct and not wrong

    def run_query(self, query, tracer: Tracer | None = None) -> float:
        """Run and judge one query; returns its charged seconds."""
        self.sample_speed()
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        error = None
        self.attempted += 1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    code = cli.main(query.argv)
                else:
                    code = tracer.call("cli.main", cli.main, query.argv)
        except SystemExit as exc:
            error = f"SystemExit({exc.code})"
        except Exception as exc:  # any escape from cli.main fails the query
            error = type(exc).__name__
        seconds = time.perf_counter() - start
        if error is not None:
            self._fail(query.name, f"{error} escaped cli.main")
        elif code != query.expect_exit:
            self._fail(query.name, f"exit {code}, expected {query.expect_exit}")
        elif seconds > QUERY_LIMIT_S:
            self._fail(query.name, f"took {seconds:.1f} s > {QUERY_LIMIT_S} s")
        elif self._judge(query, out.getvalue()):
            return seconds
        return QUERY_LIMIT_S

    def _judge(self, query, text: str) -> bool:
        """Byte-identical to this query's first report (and to its pair's),
        and the first report passes the query's check."""
        first = self.reports.setdefault(query.name, text)
        if text != first:
            self._fail(query.name, "report differs between passes", wrong=True)
            return False
        if query.same_as is not None and text != self.reports.get(query.same_as):
            self._fail(query.name, f"report differs from {query.same_as}",
                       wrong=True)
            return False
        if query.name in self.counts:
            return True
        try:
            self.counts[query.name] = (query.check(json.loads(text), self.ctx)
                                       if query.check else {})
        except Exception as exc:  # a malformed report fails, whatever it breaks
            del self.reports[query.name]
            reason = exc if isinstance(exc, CheckFailure) else repr(exc)
            self._fail(query.name, f"check failed: {reason}", wrong=True)
            return False
        return True

    def run_pass(self, tracer: Tracer | None = None) -> dict:
        """Times per query; a traced pass also keeps each query's spans
        (CLI spans plus stage probes) and the probes' work counts."""
        times, spans, probes = {}, {}, {}
        for query in self.workload.queries:
            times[query.name] = self.run_query(query, tracer)
            if tracer is not None:
                got = tracer.take()
                probes[query.name] = stage_probes(tracer, got)
                spans[query.name] = got + tracer.take()
                for span in spans[query.name]:
                    span.args = None  # keep the heap the same between passes
                first = self.probe_counts.setdefault(query.name,
                                                     probes[query.name])
                if first != probes[query.name]:
                    self._fail(query.name, "probe work counts differ between "
                               "passes", wrong=True)
        return {"times": times, "spans": spans, "probes": probes}

    def measure(self, seconds: float, traced: bool):
        """Warm-up pass, then rounds (an untraced pass, and with `traced` a
        traced one) until the next round would end after `seconds`.
        Returns (untraced passes, traced passes)."""
        deadline = time.perf_counter() + seconds
        gc.collect()
        gc.freeze()
        self.run_pass()
        gc.collect()
        gc.freeze()
        plain, traced_passes = [], []
        while True:
            began = time.perf_counter()
            plain.append(self.run_pass())
            if traced:
                tracer = Tracer()
                with instrument(tracer):
                    traced_passes.append(self.run_pass(tracer))
            now = time.perf_counter()
            if now + (now - began) > deadline:
                return plain, traced_passes


def query_medians(passes: list[dict]) -> dict[str, float]:
    names = passes[0]["times"]
    return {n: statistics.median(p["times"][n] for p in passes) for n in names}


def end_to_end(runner: Runner, plain: list[dict]) -> dict[str, float]:
    """Metrics a user sees, from per-query medians (set-up and memory are
    measured by the caller)."""
    med = query_medians(plain)
    vals = list(med.values())
    wall = sum(vals)
    oracle = [n for n, c in runner.counts.items() if c.get("oracle.evaluations")]
    evals = sum(runner.counts[n]["oracle.evaluations"] for n in oracle)
    ok_share = 1.0 - runner.failed / runner.attempted
    return {
        "wall_s": wall,
        "query_geomean_s": math.exp(statistics.fmean(math.log(v) for v in vals)),
        "query_p50_s": statistics.median(vals),
        "query_p90_s": statistics.quantiles(vals, n=10, method="inclusive")[8],
        "queries_per_s": len(vals) * ok_share / wall,
        "evals_per_s": evals / sum(med[n] for n in oracle),
    }


# spans whose summed time per pass is reported as `<span>.s`
LAYER_SPANS = (
    "dsl.parse", "normalize.pipeline", "normalize.flatten",
    "normalize.quotient_vars", "normalize.collision_quotient",
    "normalize.classify", "depgraph.dependency_graph",
    "depgraph.in_neighbors", "flownet.dispersion_exponent",
    "flownet.build_dag", "flownet.build_network", "flownet.max_flow",
    "flownet.cut_certificate", "oracle.brute_dispersion",
    "oracle.brute_max_solutions", "oracle.check_perfect_fixed")
SCALAR_SPANS = ("oracle.check_embedding", "oracle.sandwich_check")
# from query pairs a workload names; 0 where it has no such pair
DERIVED = ("dsl.parse.growth_4x", "normalize.collision_quotient.growth_4x",
           "flownet.build_dag.growth_4x", "oracle.jobs2_speedup",
           "oracle.pool_overhead_s", "oracle.refusal_s")
COUNTS = ("normalize.auxiliaries", "normalize.merges", "flownet.dag_nodes",
          "flownet.network_edges", "flownet.flow_value", "oracle.evaluations",
          "oracle.interpretations")


def _layer_pass(runner: Runner, traced: dict) -> dict[str, float]:
    """Per-layer values of one traced pass.  A layer or query pair that
    the workload never reaches reads 0."""
    totals: dict[str, float] = {}
    per_query: dict[tuple[str, str], float] = {}
    cli_self = oracle_s = 0.0
    for name, spans in traced["spans"].items():
        for span in spans:
            if span.name == "cli.main":
                cli_self += self_seconds(span, spans)
                continue
            totals[span.name] = totals.get(span.name, 0.0) + span.seconds
            key = (name, span.name)
            per_query[key] = per_query.get(key, 0.0) + span.seconds
            if span.name.startswith("oracle.") and not span.refused:
                oracle_s += span.seconds
    out = {f"{s}.s": totals.get(s, 0.0) for s in LAYER_SPANS}
    counts = dict.fromkeys(COUNTS, 0)
    for name in traced["times"]:
        for table in (runner.counts.get(name, {}), traced["probes"][name]):
            for c, v in table.items():
                counts[c] += v
    out.update(counts)
    out["oracle.evals_per_s"] = (counts["oracle.evaluations"] / oracle_s
                                 if oracle_s else 0.0)
    out["oracle.scalar.s"] = sum(totals.get(s, 0.0) for s in SCALAR_SPANS)
    out["cli.self_s"] = cli_self
    out.update(dict.fromkeys(DERIVED, 0.0))
    for metric, (op, span, a, b) in runner.workload.derived.items():
        x, y = per_query.get((a, span), 0.0), per_query.get((b, span), 0.0)
        out[metric] = {"ratio": x / y if y else 0.0, "diff": x - y,
                       "time": x}[op]
    return out


def per_layer(runner: Runner, plain: list[dict],
              traced: list[dict]) -> dict[str, float]:
    layer = [_layer_pass(runner, t) for t in traced]
    out = {k: statistics.median(p[k] for p in layer) for k in layer[0]}
    traced_wall = statistics.median(sum(t["times"].values()) for t in traced)
    plain_wall = statistics.median(sum(p["times"].values()) for p in plain)
    out["trace.overhead_s"] = traced_wall - plain_wall
    return out
