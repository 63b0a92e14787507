"""Dependency graphs: extraction, source loops, DOT export."""

import pytest

from termflow.depgraph import (DependencyGraph, add_source_loops,
                               dependency_graph, to_dot)
from termflow.dsl import render
from termflow.errors import PreconditionError, ValidationError
from termflow.normalize import pipeline
from corpus_loader import load


def _graph_of(name):
    norm, _ = pipeline(load(name))
    return dependency_graph(norm)


def test_edges_point_from_arguments_to_defined():
    g = _graph_of("fx.inst")
    assert g.vertices == ("x", "y")
    assert g.edges == frozenset({("x", "y")})
    assert g.sources == frozenset({"x"})


def test_index_coding_graph():
    g = _graph_of("index_coding.inst")
    assert g.vertices == ("x1", "x2", "x3", "y")
    assert g.sources == frozenset()
    assert g.edges == frozenset({
        ("x1", "y"), ("x2", "y"), ("x3", "y"),
        ("y", "x1"), ("x2", "x1"),
        ("y", "x2"), ("x3", "x2"),
        ("y", "x3"), ("x1", "x3"),
    })


def test_repeated_argument_yields_single_edge():
    from termflow.terms import App, Equation, Signature, TermSystem, Var
    system = TermSystem(variables=("x", "y"),
                        signature=Signature(symbols=(("f", 2),)),
                        equations=(Equation(App("f", (Var("x"), Var("x"))),
                                            Var("y")),))
    norm, _ = pipeline(system)
    g = dependency_graph(norm)
    assert g.edges == frozenset({("x", "y")})


def test_non_fnf_systems_are_rejected():
    norm, _ = pipeline(load("two_sided.inst"))
    with pytest.raises(PreconditionError):
        dependency_graph(norm)


def test_add_source_loops():
    g = _graph_of("fx.inst")
    looped = add_source_loops(g)
    assert looped.sources == frozenset()
    assert looped.edges == frozenset({("x", "x"), ("x", "y")})
    assert looped.vertices == g.vertices
    # graphs without sources pass through unchanged
    assert add_source_loops(load("cycle3.graph")) == load("cycle3.graph")


def test_graph_validation():
    with pytest.raises(ValidationError):
        DependencyGraph(vertices=("a", "a"), edges=frozenset(),
                        sources=frozenset())
    with pytest.raises(ValidationError):
        DependencyGraph(vertices=("a",), edges=frozenset({("a", "b")}),
                        sources=frozenset())
    with pytest.raises(ValidationError):
        DependencyGraph(vertices=("a",), edges=frozenset(),
                        sources=frozenset({"q"}))


def test_to_dot_is_deterministic_and_marks_sources():
    g = _graph_of("fx.inst")
    expected = ('digraph dependencies {\n'
                '  "x" [shape=box];\n'
                '  "y";\n'
                '  "x" -> "y";\n'
                '}\n')
    assert to_dot(g) == expected
    assert to_dot(g) == to_dot(_graph_of("fx.inst"))


def test_to_dot_orders_edges_by_vertex_position():
    g = load("cycle3.graph")
    expected = ('digraph dependencies {\n'
                '  "a";\n'
                '  "b";\n'
                '  "c";\n'
                '  "a" -> "b";\n'
                '  "b" -> "c";\n'
                '  "c" -> "a";\n'
                '}\n')
    assert to_dot(g) == expected


def test_sorted_edges_is_the_order_every_output_lists():
    g = DependencyGraph(("c", "a", "b"),
                        frozenset({("b", "a"), ("a", "a"), ("c", "b"),
                                   ("a", "c"), ("c", "a")}),
                        frozenset())
    want = (("c", "a"), ("c", "b"), ("a", "c"), ("a", "a"), ("b", "a"))
    assert g.sorted_edges == want
    assert g.in_neighbors("a") == ("c", "a", "b")
    dot = to_dot(g).splitlines()
    assert dot[4:-1] == [f'  "{u}" -> "{v}";' for u, v in want]
    assert render(g).splitlines()[3:-1] == [f"  edge {u} -> {v};"
                                            for u, v in want]
