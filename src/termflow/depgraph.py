"""Dependency graphs of FNF systems, and the guessing-game view.

Each variable is a vertex; each defining equation `f(u1,...,uk) = v`
contributes edges u_i -> v (parallel occurrences collapse to one edge).
Sources are the variables with no defining equation.  A guessing strategy
assigns every non-source vertex a table over its in-neighborhood; the
oracle's brute_guessing maximizes the number of winning configurations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .errors import PreconditionError, ValidationError
from .normalize import classify
from .terms import Ident


@dataclass(frozen=True)
class DependencyGraph:
    vertices: tuple[Ident, ...]
    edges: frozenset[tuple[Ident, Ident]]
    sources: frozenset[Ident]
    _in: dict[Ident, tuple[Ident, ...]] = field(init=False, repr=False, compare=False)

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
        nbrs: dict[Ident, list[Ident]] = {v: [] for v in self.vertices}
        for u, v in sorted(self.edges, key=lambda e: order[e[0]]):
            nbrs[v].append(u)
        object.__setattr__(self, "_in", {v: tuple(us) for v, us in nbrs.items()})

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
    order = {v: i for i, v in enumerate(graph.vertices)}
    lines = ["digraph dependencies {"]
    for v in graph.vertices:
        mark = " [shape=box]" if v in graph.sources else ""
        lines.append(f'  "{v}"{mark};')
    for u, v in sorted(graph.edges, key=lambda e: (order[e[0]], order[e[1]])):
        lines.append(f'  "{u}" -> "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class GuessingStrategy:
    """One table per non-source vertex over its ordered in-neighborhood."""

    n: int
    tables: dict[Ident, tuple[int, ...]]

    def __post_init__(self):
        for name, table in self.tables.items():
            for entry in table:
                if not 0 <= entry < self.n:
                    raise ValidationError(
                        f"strategy entry {entry} for {name!r} outside [0,{self.n})")

    def validate_against(self, graph: DependencyGraph) -> None:
        players = [v for v in graph.vertices if v not in graph.sources]
        for v in players:
            if v not in self.tables:
                raise ValidationError(f"missing strategy table for {v!r}")
            want = self.n ** len(graph.in_neighbors(v))
            if len(self.tables[v]) != want:
                raise ValidationError(
                    f"strategy table for {v!r} has {len(self.tables[v])} "
                    f"entries, expected {want}")
