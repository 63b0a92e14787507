"""Dispersion exponent by max flow over the shared term DAG.

The output terms of a spec are hash-consed into a DAG (one node per input
variable, one per distinct application subterm) as the spec is built:
`build_dag` returns `spec.dag`, a `terms.TermDag`.  The flow network is
that DAG with every node split into an in-half and an out-half joined by a
unit-capacity edge.  The super-source feeds every input's in-half; each
node's out-half feeds the in-half of every op that takes it as an argument,
once per occurrence, so f(x, x) wires x twice; and each distinct output
root's out-half has a unit edge to the super-sink, so duplicated outputs
share one sink edge.  The source and wiring edges are effectively
uncapacitated (capacity r+1 exceeds any possible flow).

Unit capacity applies to input nodes too: a spec like (f(x), g(x)) funnels
both outputs through the single value of x and must get exponent 1, not 2.

`split_flow` runs Dinic's algorithm on the DAG itself, never listing the
network's arcs: the flow lives on the nodes, and each residual arc is read
off that state when a search reaches it.  `FlowNetwork.edges` lists the
network explicitly, built only when read (`network_dot`, edge counts).

The integral max-flow value D is the dispersion exponent: the image of the
spec's map is Theta(n^D) in the best interpretation, and at most n^D for
every n.  The min-cut witness is canonicalized as the saturated unit edges
on the boundary of the residual source side (reachable-side-first).
Bottleneck identifiers (term text) are rendered only for reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

from .errors import PreconditionError
from .terms import DispersionSpec, TermDag, check_int


def build_dag(spec: DispersionSpec) -> TermDag:
    """`spec.dag`.  Kept as the named DAG-build stage that the benchmark's
    per-layer spans time."""
    return spec.dag


@dataclass(frozen=True)
class FlowNetwork:
    """The split-node unit-capacity network of `dag`, a function of it
    alone: super-source 0, super-sink 1, and node v's in-half 2 + 2v and
    out-half 3 + 2v."""

    source: ClassVar[int] = 0
    sink: ClassVar[int] = 1
    dag: TermDag

    @cached_property
    def roots(self) -> tuple[int, ...]:
        """The distinct output roots, in output order."""
        return tuple(dict.fromkeys(self.dag.outputs))

    @property
    def inf(self) -> int:
        """The uncapacitated edges' capacity: above any flow."""
        return len(self.roots) + 1

    @property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """(u, v, capacity): split edges by node, source edges, wiring by
        op and argument, then sink edges by root."""
        dag, k, inf = self.dag, len(self.dag.inputs), self.inf
        edges = [(2 + 2 * v, 3 + 2 * v, 1) for v in range(dag.node_count)]
        edges += [(self.source, 2 + 2 * v, inf) for v in range(k)]
        edges += [(3 + 2 * c, 2 + 2 * v, inf)
                  for v, (_, children) in enumerate(dag.ops, k) for c in children]
        edges += [(3 + 2 * r, self.sink, 1) for r in self.roots]
        return tuple(edges)


def build_network(dag: TermDag) -> FlowNetwork:
    """`FlowNetwork(dag)`.  Kept as the named network stage that the
    benchmark's per-layer spans time."""
    return FlowNetwork(dag)


@dataclass(frozen=True)
class SplitFlow:
    """A max flow of a split network, per DAG node v: `used[v]` when its
    split edge carries flow, `sunk[v]` when its sink edge does, and
    `feed[v]` the child whose out-half feeds a used op (-1 otherwise).
    `level` is the last residual BFS distance from the source of each
    network node, -1 where unreachable: the canonical cut's source side.
    The cut is the edges leaving it, the split edges of `split_cut`'s
    nodes and the sink edges of `sink_cut`'s roots."""

    value: int
    used: list[bool]
    sunk: list[bool]
    feed: list[int]
    level: list[int]
    split_cut: list[int]
    sink_cut: list[int]


def split_flow(network: FlowNetwork) -> SplitFlow:
    """Dinic's max flow on the split network of `network.dag`, with no arc
    lists.

    An in-half has one residual arc, and `back[w]` is its head: w's own
    out-half while w's split edge is unused, else where w's flow comes
    from (the source, or the feeding child's out-half).  Pushing flow from
    u into w leaves `back[w] = u`.  An out-half's arcs go back to its
    in-half while used, then to each parent occurrence's in-half in op
    order (f(x, x) has two), then to the sink while it is an unused root;
    the source's go to the inputs' in-halves.  The searches try arcs in
    that order, an explicit arc list's, with a current-arc pointer per
    node, so they find the arc-list algorithm's paths.  A search steps
    through an in-half straight on to its arc's head.  Every augmenting
    path carries one unit: it ends on a unit sink edge."""
    dag = network.dag
    k, n = len(dag.inputs), dag.node_count
    starts = list(range(2, 2 + 2 * k, 2))  # the source's arcs: input in-halves
    ups: list[list[int]] = [[] for _ in range(n)]  # parent occurrences' in-halves
    for w, (_, children) in zip(range(2 + 2 * k, 2 + 2 * n, 2), dag.ops):
        for c in children:
            ups[c].append(w)
    back = list(range(1, 3 + 2 * n))  # in-half w: w + 1 (odd entries unread)
    is_root, sunk = [False] * n, [False] * n
    for r in network.roots:
        is_root[r] = True

    def levels() -> list[int]:
        """Residual BFS distance from the source; -1 where unreachable.
        The sink is not expanded: what lies past it is too far to be on a
        shortest path to it, and the last search does not reach it."""
        level = [-1] * (2 + 2 * n)
        level[0] = 0
        queue = [0]  # the source and out-halves
        for u in queue:
            d, v = level[u] + 1, (u >> 1) - 1
            heads = ups[v] if u else starts
            if u and back[u - 1] != u:  # back across its used split edge
                heads = [u - 1, *heads]
            for w in heads:
                if level[w] < 0:
                    level[w] = d
                    if level[x := back[w]] < 0:
                        level[x] = d + 1
                        queue.append(x)
            if u and is_root[v] and not sunk[v] and level[1] < 0:
                level[1] = d
        return level

    def path(level: list[int], it: list[int]) -> list[int]:
        """The first level-graph path from the source to the sink, found
        depth first on an explicit stack as (tail, in-half) pairs ending
        in (last out-half, -1); [] when none is left.  `it[u]` is u's
        current arc: an out-half's 0 is its own in-half, then come its
        parent occurrences, then the sink; the source's are its inputs,
        from 1.  Stepping from u into in-half w is admissible when
        `back[w]` is two levels past u: w itself is then one past u."""
        stack, u = [], 0
        while u != 1:
            ahead, v, i = level[u] + 2, (u >> 1) - 1, it[u]
            # an unused split edge fails the test: back[u - 1] is u itself
            if u and not i and level[x := back[u - 1]] == ahead:
                w = u - 1
            else:
                heads, i = ups[v] if u else starts, i or 1
                while (i <= len(heads)
                       and level[x := back[heads[i - 1]]] != ahead):
                    i += 1
                if i <= len(heads):
                    w = heads[i - 1]
                else:
                    w = -1
                    to_sink = (u and is_root[v] and not sunk[v]
                               and level[1] == ahead - 1)
                    x = 1 if to_sink else -1
                it[u] = i
            if x >= 0:
                stack += (u, w)
                u = x
            elif stack:  # dead end: step back, skip the arc that led here
                stack.pop()
                u = stack.pop()
                it[u] += 1
            else:
                return []
        return stack

    value = 0
    while (level := levels())[1] >= 0:
        it, before = [0] * (2 + 2 * n), value
        while steps := path(level, it):
            value += 1
            sunk[(steps[-2] >> 1) - 1] = True
            for j in range(0, len(steps) - 2, 2):
                back[steps[j + 1]] = steps[j]
        if value == before:  # the level graph reaches the sink: it has a path
            raise AssertionError("a Dinic phase found no augmenting path")
    used = [back[w] != w + 1 for w in range(2, 2 + 2 * n, 2)]
    feed = [(back[2 + 2 * v] - 3) >> 1 if used[v] and v >= k else -1
            for v in range(n)]
    split_cut = [v for v, (a, b) in enumerate(zip(level[2::2], level[3::2]))
                 if a >= 0 > b]
    sink_cut = [r for r in network.roots if level[3 + 2 * r] >= 0]
    return SplitFlow(value, used, sunk, feed, level, split_cut, sink_cut)


@dataclass(frozen=True)
class ExponentResult:
    D: int  # the max-flow value
    min_cut: tuple[str, ...]  # sorted saturated-bottleneck identifiers
    network: FlowNetwork
    flow: SplitFlow

    def certificate(self) -> dict:
        """JSON-ready certificate: every unit bottleneck in network order
        (split edges by node, then sink edges by root) with its saturation
        and cut membership."""
        dag, flow = self.network.dag, self.flow
        split, sink = set(flow.split_cut), set(flow.sink_cut)
        texts = dag.labels(range(dag.node_count))
        rows = [{"id": text, "capacity": 1, "saturated": sat,
                 "in_cut": v in split}
                for v, (text, sat) in enumerate(zip(texts, flow.used))]
        rows += [{"id": f"sink:{texts[r]}", "capacity": 1,
                  "saturated": flow.sunk[r], "in_cut": r in sink}
                 for r in self.network.roots]
        return {"flow_value": self.D, "cut": list(self.min_cut),
                "bottlenecks": rows}


def max_flow(network: FlowNetwork) -> ExponentResult:
    """Integral max flow plus the canonical min-cut witness; the same run
    records every bottleneck's saturation and cut membership."""
    flow = split_flow(network)
    split, sink = flow.split_cut, flow.sink_cut
    # a crossing edge of the canonical cut is always saturated
    assert all(flow.used[v] for v in split) and all(flow.sunk[r] for r in sink)
    texts = network.dag.labels(split + sink)
    cut = sorted(texts[:len(split)] + [f"sink:{t}" for t in texts[len(split):]])
    if len(cut) != flow.value:
        raise AssertionError("min cut does not match flow value")
    return ExponentResult(D=flow.value, min_cut=tuple(cut), network=network,
                          flow=flow)


def dispersion_exponent(spec: DispersionSpec) -> ExponentResult:
    """The integer D with dispersion Theta(n^D), via min cut.

    0 <= D <= min(k, r), and n^D upper-bounds the dispersion for every n,
    not just asymptotically.
    """
    return max_flow(build_network(build_dag(spec)))


def network_dot(network: FlowNetwork) -> str:
    """Debug rendering of the split network with capacities."""
    names = {network.source: "s", network.sink: "t"}
    dag = network.dag
    for v, text in enumerate(dag.labels(range(dag.node_count))):
        names[2 + 2 * v], names[3 + 2 * v] = f"{text}.in", f"{text}.out"
    lines = ["digraph network {"]
    for u, v, c in network.edges:
        label = "inf" if c == network.inf else str(c)
        lines.append(f'  "{names[u]}" -> "{names[v]}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ThresholdDecision:
    answer: bool
    d: int
    exponent: ExponentResult


def decide_threshold(spec: DispersionSpec, d: int) -> ThresholdDecision:
    """Does dispersion eventually exceed every c*n^d?  Yes iff D >= d+1.

    Growth strictly between n^d and n^(d+1) is impossible: D is an integer,
    so either the exponent clears d+1 or dispersion stays <= n^d forever.
    """
    d = check_int(d, "threshold degree")
    if d < 0:
        raise PreconditionError(f"threshold degree must be >= 0, got {d}")
    result = dispersion_exponent(spec)
    return ThresholdDecision(answer=result.D >= d + 1, d=d, exponent=result)


def decide_perfect_r1(spec: DispersionSpec) -> bool:
    """Single-output perfect dispersion: attainable iff the output term
    contains any variable occurrence (a projection-like table then maps
    onto the whole alphabet).  The DAG of one output holds only what the
    output reaches, so that is: the root is an input, or some op has an
    input child."""
    if spec.r != 1:
        raise PreconditionError(
            f"perfect-dispersion decision is implemented for r=1 only, "
            f"got r={spec.r}")
    dag = spec.dag
    k = len(dag.inputs)
    return dag.outputs[0] < k or any(c < k for _, children in dag.ops
                                     for c in children)
