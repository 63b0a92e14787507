"""Dependency graphs: extraction, source loops, DOT export."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termflow import cli
from termflow.corpus import corpus_names, corpus_path
from termflow.depgraph import (DependencyGraph, add_source_loops,
                               dependency_graph, passthrough_graph, to_dot)
from termflow.dsl import parse, render
from termflow.errors import PreconditionError, TermflowError, ValidationError
from termflow.normalize import pipeline
from termflow.terms import App, Equation, Signature, TermSystem, Var
from corpus_loader import load
from test_normalize import _passing_systems, _shaped_systems


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


def _shown(g):
    """Everything a graph shows."""
    return (g.vertices, g.edges, g.sources, g.sorted_edges,
            [g.in_neighbors(v) for v in g.vertices])


def _outcome(route, system):
    """What the graph route makes of `system`, or the error it raises."""
    try:
        return _shown(route(system))
    except TermflowError as exc:
        return type(exc), str(exc)


def _pipeline_route(system):
    return dependency_graph(pipeline(system)[0])


def _both_routes_agree(system) -> bool:
    """The CLI's route (`passthrough_graph`, else the pipeline) shows what
    the pipeline route shows; True when the DAG route answered."""
    assert _outcome(cli._as_graph, system) == _outcome(_pipeline_route, system)
    return passthrough_graph(system) is not None


@pytest.mark.parametrize("name", corpus_names(".inst"))
def test_dag_route_is_the_pipeline_route_on_the_corpus(name):
    on_dag = {"cycle3.inst", "diamond_embedding.inst", "fx.inst",
              "index_coding.inst", "two_cycle.inst"}
    assert _both_routes_agree(load(name)) == (name in on_dag)


@pytest.mark.parametrize("text,on_dag", [
    ("instance { vars x, v; sig f/1; eq v = f(x); }", True),
    ("instance { vars x, y; sig f/1, g/1; eq f(g(x)) = y; }", False),
    ("instance { vars x, y; sig f/1; eq x = y; }", False),
    ("instance { vars x, y; sig f/1, g/1; eq f(x) = g(y); }", False),
    # one op per equation, yet one nests
    ("instance { vars x, y, z; sig f/1, g/1; "
     "eq f(g(x)) = y; eq f(g(x)) = z; }", False)])
def test_dag_route_on_each_shape(text, on_dag):
    assert _both_routes_agree(parse(text)) == on_dag


@st.composite
def _systems(draw):
    """Systems over w, x, y, z and c/0, f/1, g/2, mostly `f(vars) = v`
    either way round (so `g(x, x)`, `x = f(x)` and constants) with the
    i-th equation defining the i-th of a shuffle of the variables; drawn
    from few names, so that ops are shared and equations repeat.  Some
    equations define another variable, are `x = y` or nest."""
    variables = ("w", "x", "y", "z")
    symbols = (("c", 0), ("f", 1), ("g", 2))
    var = st.sampled_from(variables).map(Var)
    defined = draw(st.permutations(variables))

    def app(depth):
        name, arity = draw(st.sampled_from(symbols))
        return App(name, tuple(app(depth - 1) if depth and draw(st.booleans())
                               else draw(var) for _ in range(arity)))

    def equation(i):
        shape = draw(st.integers(0, 9))
        sides = ((draw(var), draw(var)) if shape == 8 else
                 (app(2), app(1)) if shape == 9 else
                 (app(0), draw(var)) if shape == 7 else
                 (app(0), Var(defined[i])))
        return Equation(*sides[::draw(st.sampled_from((1, -1)))])

    eqs = [equation(i) for i in range(draw(st.integers(0, 4)))]
    if eqs and draw(st.booleans()):
        eqs.append(draw(st.sampled_from(eqs)))
    return TermSystem(variables, Signature(symbols), tuple(eqs))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_systems(), _passing_systems(), _shaped_systems()))
def test_dag_route_is_the_pipeline_route(system):
    _both_routes_agree(system)


@settings(max_examples=100, deadline=None)
@given(_systems())
def test_dependency_graph_is_the_checked_constructor(system):
    """The trusted builder behind `dependency_graph` gives the graph the
    public constructor, with all its checks, gives."""
    norm = pipeline(system)[0]
    if not norm.classification.is_fnf:
        return
    want = DependencyGraph(
        norm.variables,
        frozenset((u, eq.defined) for eq in norm.equations for u in eq.args),
        frozenset(norm.classification.sources))
    assert _shown(dependency_graph(norm)) == _shown(want)


def test_in_neighborhoods_are_built_on_first_use(monkeypatch):
    """`graph` never builds them; `in_neighbors` does, once."""
    graphs, as_graph = [], cli._as_graph
    monkeypatch.setattr(cli, "_as_graph",
                        lambda obj: graphs.append(as_graph(obj)) or graphs[-1])
    for name in ("index_coding.inst", "cascade.inst", "cycle3.graph"):
        assert cli.main(["graph", str(corpus_path(name))]) == 0
    for g in graphs:
        assert "_in" not in vars(g)
        assert g.in_neighbors(g.vertices[0]) is g.in_neighbors(g.vertices[0])
        assert "_in" in vars(g)
