"""Dependency graphs of FNF systems, and the guessing-game view.

Each variable is a vertex; each defining equation `f(u1,...,uk) = v`
contributes edges u_i -> v (parallel occurrences collapse to one edge).
Sources are the variables with no defining equation; the other vertices
are the players.  A game is a system: `graph_system` writes
`v(in-neighbours of v) = v` per player, so a guessing strategy is an
`Interpretation` of `graph_system(graph)`, one table per player over its
in-neighborhood, and its solutions are the configurations it wins;
`dependency_graph` maps the system back.  The oracle's brute_guessing
maximizes the number of winning configurations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .errors import PreconditionError, ValidationError
from .normalize import NormalEquation, NormalSystem, classify
from .terms import Ident, Signature


@dataclass(frozen=True)
class DependencyGraph:
    vertices: tuple[Ident, ...]
    edges: frozenset[tuple[Ident, Ident]]
    sources: frozenset[Ident]
    _in: dict[Ident, tuple[Ident, ...]] = field(init=False, repr=False, compare=False)
    # (tail, head) in vertex order: the order every output lists edges in
    sorted_edges: tuple[tuple[Ident, Ident], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        declared = set(self.vertices)
        if len(declared) != len(self.vertices):
            raise ValidationError("duplicate vertex")
        for u, v in self.edges:
            if u not in declared or v not in declared:
                raise ValidationError(f"edge ({u!r}, {v!r}) off the vertex set")
        if not self.sources <= declared:
            raise ValidationError("sources must be vertices")
        order = {v: i for i, v in enumerate(self.vertices)}
        n = len(order)  # sorts like (tail, head), but an int key is faster
        edges = tuple(sorted(self.edges,
                             key=lambda e: order[e[0]] * n + order[e[1]]))
        nbrs: dict[Ident, list[Ident]] = {v: [] for v in self.vertices}
        for u, v in edges:
            nbrs[v].append(u)
        object.__setattr__(self, "_in", {v: tuple(us) for v, us in nbrs.items()})
        object.__setattr__(self, "sorted_edges", edges)

    def in_neighbors(self, v: Ident) -> tuple[Ident, ...]:
        """In-neighborhood as a set, ordered by vertex order."""
        return self._in.get(v, ())


def dependency_graph(system) -> DependencyGraph:
    """Graph of a functional-normal-form system; rejects anything else."""
    cls = classify(system)
    if not cls.is_fnf:
        count = Counter(eq.defined for eq in system.equations)
        over = [v for v in cls.defined if count[v] > 1]
        raise PreconditionError(
            "dependency graph needs functional normal form; "
            f"multiply-defined: {', '.join(over) if over else '(none)'}")
    edges = {(u, eq.defined) for eq in system.equations for u in eq.args}
    return DependencyGraph(system.variables, frozenset(edges),
                           frozenset(cls.sources))


def graph_system(graph: DependencyGraph) -> NormalSystem:
    """The guessing game as a system: one equation `v(in-neighbours) = v`
    per player, in vertex order, each player's symbol named after it.  A
    `TermSystem` would refuse a variable named like a symbol, so none is
    built: the oracle reads the normal system's own `dag`."""
    equations = tuple(NormalEquation(v, graph.in_neighbors(v), v)
                      for v in graph.vertices if v not in graph.sources)
    signature = Signature(tuple((e.symbol, len(e.args)) for e in equations))
    return NormalSystem(graph.vertices, signature, equations)


def add_source_loops(graph: DependencyGraph) -> DependencyGraph:
    """Self-loop every source and empty the source set.

    A looped vertex may guess from its own value, so the identity strategy
    keeps every previously-free configuration winnable: the brute-force
    game value is unchanged (oracle-tested).
    """
    edges = set(graph.edges) | {(s, s) for s in graph.sources}
    return DependencyGraph(graph.vertices, frozenset(edges), frozenset())


def to_dot(graph: DependencyGraph) -> str:
    """Deterministic DOT text; sources are drawn boxed."""
    lines = ["digraph dependencies {"]
    for v in graph.vertices:
        mark = " [shape=box]" if v in graph.sources else ""
        lines.append(f'  "{v}"{mark};')
    for u, v in graph.sorted_edges:
        lines.append(f'  "{u}" -> "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
