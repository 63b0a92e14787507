"""Dispersion exponent by max flow over the shared term DAG.

The output terms of a spec are hash-consed into a DAG (one node per input
variable, one per distinct application subterm) as the spec is built:
`build_dag` returns `spec.dag`, a `terms.TermDag`.  Every DAG node is split
into an in/out pair joined by a unit-capacity edge; child wiring, and the
super-source's edges into the inputs, are effectively uncapacitated
(capacity r+1 exceeds any possible flow).  Each distinct
output root gets a unit edge to the super-sink, so duplicated outputs share
one sink edge.

Unit capacity applies to input nodes too: a spec like (f(x), g(x)) funnels
both outputs through the single value of x and must get exponent 1, not 2.

The integral max-flow value D is the dispersion exponent: the image of the
spec's map is Theta(n^D) in the best interpretation, and at most n^D for
every n.  The min-cut witness is canonicalized as the saturated unit edges
on the boundary of the residual source side (reachable-side-first).
Bottleneck identifiers (term text) are rendered only for reports.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import PreconditionError
from .terms import DispersionSpec, TermDag, term_vars


def build_dag(spec: DispersionSpec) -> TermDag:
    """`spec.dag`.  Kept as the named DAG-build stage that the benchmark's
    per-layer spans time."""
    return spec.dag


@dataclass(frozen=True)
class FlowNetwork:
    """Split-node unit-capacity network between super-source and sink."""

    node_count: int  # network nodes, including s and t
    source: int
    sink: int
    edges: tuple[tuple[int, int, int], ...]  # (u, v, capacity)
    bottlenecks: tuple[int, ...]  # unit edges' indices: split, then sink
    inf: int
    dag: TermDag

    def names(self, edges) -> list[str]:
        """Unit edges' identifiers: node text, `sink:`-prefixed on sink edges."""
        ends = [self.edges[e][:2] for e in edges]  # u: the node's in or out end
        texts = self.dag.labels([(u - 2) // 2 for u, _ in ends])
        return [f"sink:{t}" if v == self.sink else t for t, (_, v) in zip(texts, ends)]


def build_network(dag: TermDag) -> FlowNetwork:
    k = len(dag.inputs)
    distinct_roots = list(dict.fromkeys(dag.outputs))
    inf = len(distinct_roots) + 1

    # node v -> (2+2v, 3+2v) as its (in, out) pair
    def n_in(v: int) -> int:
        return 2 + 2 * v

    def n_out(v: int) -> int:
        return 3 + 2 * v

    source, sink = 0, 1
    edges: list[tuple[int, int, int]] = []
    bottlenecks: list[int] = []
    for v in range(dag.node_count):
        bottlenecks.append(len(edges))
        edges.append((n_in(v), n_out(v), 1))
    for v in range(k):
        edges.append((source, n_in(v), inf))
    for op_idx, (_, children) in enumerate(dag.ops):
        v = k + op_idx
        for c in children:
            edges.append((n_out(c), n_in(v), inf))
    for root in distinct_roots:
        bottlenecks.append(len(edges))
        edges.append((n_out(root), sink, 1))
    return FlowNetwork(2 + 2 * dag.node_count, source, sink, tuple(edges),
                       tuple(bottlenecks), inf, dag)


@dataclass(frozen=True)
class ExponentResult:
    D: int  # the max-flow value
    min_cut: tuple[str, ...]  # sorted saturated-bottleneck identifiers
    network: FlowNetwork
    # every unit bottleneck in network order: (edge index, saturated, in_cut)
    bottlenecks: tuple[tuple[int, bool, bool], ...]

    def certificate(self) -> dict:
        """JSON-ready certificate: every unit bottleneck with its
        saturation and cut membership."""
        names = self.network.names([edge for edge, _, _ in self.bottlenecks])
        return {
            "flow_value": self.D,
            "cut": list(self.min_cut),
            "bottlenecks": [{"id": name, "capacity": self.network.edges[edge][2],
                             "saturated": sat, "in_cut": cut}
                            for name, (edge, sat, cut) in zip(names, self.bottlenecks)],
        }


class _Dinic:
    def __init__(self, n: int):
        self.n = n
        self.to: list[int] = []
        self.cap: list[int] = []
        self.head: list[list[int]] = [[] for _ in range(n)]

    def add(self, u: int, v: int, c: int) -> int:
        idx = len(self.to)
        self.head[u].append(idx)
        self.to.append(v)
        self.cap.append(c)
        self.head[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(0)
        return idx

    def _levels(self, s: int) -> list[int]:
        """Residual BFS distance from s; -1 where unreachable."""
        level = [-1] * self.n
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for e in self.head[u]:
                v = self.to[e]
                if self.cap[e] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level

    def _push(self, s: int, t: int, level, it) -> int:
        """Augment along one level-graph path, found depth-first on an
        explicit stack so path length is not bounded by recursion."""
        path: list[int] = []  # edges from s to u
        u = s
        while u != t:
            head = self.head[u]
            while it[u] < len(head):
                e = head[it[u]]
                if self.cap[e] > 0 and level[self.to[e]] == level[u] + 1:
                    break
                it[u] += 1
            else:  # dead end: step back and skip the edge that led here
                if not path:
                    return 0
                u = self.to[path.pop() ^ 1]
                it[u] += 1
                continue
            path.append(e)
            u = self.to[e]
        got = min(self.cap[e] for e in path)
        for e in path:
            self.cap[e] -= got
            self.cap[e ^ 1] += got
        return got

    def run(self, s: int, t: int) -> tuple[int, list[int]]:
        """The max-flow value, and the final residual levels: the nodes at
        level >= 0 are the source side of the canonical min cut."""
        flow = 0
        while True:
            level = self._levels(s)
            if level[t] < 0:
                return flow, level
            it = [0] * self.n
            while got := self._push(s, t, level, it):
                flow += got


def max_flow(network: FlowNetwork) -> ExponentResult:
    """Integral max flow plus the canonical min-cut witness; the same run
    records every bottleneck's saturation and cut membership."""
    dinic = _Dinic(network.node_count)
    handles = [dinic.add(u, v, c) for u, v, c in network.edges]
    value, level = dinic.run(network.source, network.sink)
    rows = []
    for edge in network.bottlenecks:
        u, v, _ = network.edges[edge]
        rows.append((edge, dinic.cap[handles[edge]] == 0,
                     level[u] >= 0 > level[v]))
    cut = sorted(network.names([edge for edge, _, in_cut in rows if in_cut]))
    # a crossing edge of the canonical cut is always saturated
    assert all(sat for _, sat, in_cut in rows if in_cut)
    if len(cut) != value:
        raise AssertionError("min cut does not match flow value")
    return ExponentResult(D=value, min_cut=tuple(cut),
                          network=network, bottlenecks=tuple(rows))


def dispersion_exponent(spec: DispersionSpec) -> ExponentResult:
    """The integer D with dispersion Theta(n^D), via min cut.

    0 <= D <= min(k, r), and n^D upper-bounds the dispersion for every n,
    not just asymptotically.
    """
    return max_flow(build_network(build_dag(spec)))


def cut_certificate(spec: DispersionSpec) -> dict:
    """JSON-ready certificate of `dispersion_exponent(spec)`.  Kept as the
    public one-call certificate, for callers that need no `ExponentResult`."""
    return dispersion_exponent(spec).certificate()


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
    if d < 0:
        raise PreconditionError(f"threshold degree must be >= 0, got {d}")
    result = dispersion_exponent(spec)
    return ThresholdDecision(answer=result.D >= d + 1, d=d, exponent=result)


def decide_perfect_r1(spec: DispersionSpec) -> bool:
    """Single-output perfect dispersion: attainable iff the output term
    contains any variable occurrence (a projection-like table then maps
    onto the whole alphabet)."""
    if spec.r != 1:
        raise PreconditionError(
            f"perfect-dispersion decision is implemented for r=1 only, "
            f"got r={spec.r}")
    return next(term_vars(spec.outputs[0]), None) is not None
