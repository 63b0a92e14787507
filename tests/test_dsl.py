"""Parser and renderer: round-trips, positions, reserved-name policy."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from termflow.corpus import corpus_names, corpus_path
from termflow.depgraph import DependencyGraph
from termflow.dsl import KEYWORDS, parse, render
from termflow.errors import ParseError
from termflow.terms import (App, DispersionSpec, Equation, Signature,
                            TermSystem, Var)


@pytest.mark.parametrize("name", corpus_names())
def test_corpus_round_trip(name):
    text = corpus_path(name).read_text()
    obj = parse(text)
    again = parse(render(obj))
    assert again == obj


@pytest.mark.parametrize("name,cls", [
    ("fx.inst", TermSystem),
    ("diamond.disp", DispersionSpec),
    ("cycle3.graph", DependencyGraph),
])
def test_auto_kind_dispatch(name, cls):
    assert isinstance(parse(corpus_path(name).read_text()), cls)


def test_kind_mismatch_is_a_parse_error():
    text = corpus_path("fx.inst").read_text()
    with pytest.raises(ParseError):
        parse(text, "dispersion")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse("instance { vars x; sig f/1; eq f(x = y; }")
    assert "expected ')'" in str(exc.value)
    assert exc.value.line == 1
    assert exc.value.col == 36


def test_error_positions_track_lines():
    with pytest.raises(ParseError) as exc:
        parse("instance {\n  vars x;\n  sig f/1;\n  eq f(x) = ;\n}")
    assert exc.value.line == 4


def test_comments_and_whitespace_ignored():
    text = ("# leading comment\n"
            "instance {  # trailing\n"
            "  vars x , y ;\n"
            "  sig f/1;\n"
            "  # a full-line comment\n"
            "  eq f(x) = y;\n"
            "}\n")
    system = parse(text)
    assert system.variables == ("x", "y")


def test_empty_id_lists_allowed():
    spec = parse("dispersion { inputs x; sig ; outputs x; }")
    assert spec.signature.names == ()
    graph = parse("graph { nodes a; sources ; }")
    assert graph.sources == frozenset()


def test_constants_use_explicit_parens():
    spec = parse("dispersion { inputs x; sig c/0; outputs c(); }")
    assert spec.outputs[0].args == ()
    with pytest.raises(ParseError):
        parse("dispersion { inputs x; sig c/0; outputs c; }")


def test_reserved_idents_rejected_unless_allowed():
    text = "instance { vars x, _z0; sig f/1; eq f(x) = _z0; }"
    with pytest.raises(ParseError):
        parse(text)
    system = parse(text, allow_reserved=True)
    assert "_z0" in system.variables
    atext = "instance { vars x, y; sig f@0/1; eq f@0(x) = y; }"
    with pytest.raises(ParseError):
        parse(atext)
    assert parse(atext, allow_reserved=True).signature.names == ("f@0",)


def test_undeclared_and_duplicate_names_are_parse_errors():
    with pytest.raises(ParseError):
        parse("instance { vars x; sig f/1; eq f(q) = x; }")
    with pytest.raises(ParseError):
        parse("instance { vars x, x; sig f/1; eq f(x) = x; }")
    with pytest.raises(ParseError):
        parse("instance { vars x; sig f/1, f/2; eq f(x) = x; }")
    with pytest.raises(ParseError):
        parse("dispersion { inputs x; sig f/2; outputs f(x); }")


def test_graph_edges_and_sources():
    g = parse("graph { nodes a, b, c; sources a; edge a -> b; edge b -> c; }")
    assert g.vertices == ("a", "b", "c")
    assert g.sources == frozenset({"a"})
    assert g.edges == frozenset({("a", "b"), ("b", "c")})
    with pytest.raises(ParseError):
        parse("graph { nodes a; sources q; }")
    with pytest.raises(ParseError):
        parse("graph { nodes a, b; sources ; edge a -> q; }")


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse("graph { nodes a; sources ; } extra")


def test_keywords_are_not_identifiers():
    with pytest.raises(ParseError) as exc:
        parse("instance { vars x; sig eq/0; eq eq() = x; }")
    assert "expected symbol" in str(exc.value)
    with pytest.raises(ParseError):
        parse("graph { nodes edge; sources ; }")


# grammar keywords are reserved words of the file format, so the random
# systems must not mint them as names
_ident = st.from_regex(r"[a-z][a-z0-9]{0,3}", fullmatch=True).filter(
    lambda s: s not in KEYWORDS)


@st.composite
def _systems(draw):
    names = draw(st.lists(_ident, min_size=3, max_size=6, unique=True))
    variables = tuple(names[:2])
    symbols = tuple((name, draw(st.integers(0, 2))) for name in names[2:4])
    from termflow.terms import App, Equation, Signature, Var

    def term(depth):
        if depth == 0 or not symbols or draw(st.booleans()):
            return Var(draw(st.sampled_from(variables)))
        name, arity = draw(st.sampled_from(symbols))
        return App(name, tuple(term(depth - 1) for _ in range(arity)))

    eqs = tuple(Equation(term(2), term(2))
                for _ in range(draw(st.integers(1, 3))))
    return TermSystem(variables=variables,
                      signature=Signature(symbols=symbols), equations=eqs)


@given(_systems())
def test_render_parse_round_trip_random(system):
    assert parse(render(system)) == system


def test_round_trip_and_hash_at_depth_100000():
    """Equality and hashing read the flat DAG, never the 10^5-deep tree."""
    term = Var("x")
    for _ in range(10 ** 5):
        term = App("f", (term,))
    sig = Signature(symbols=(("f", 1),))
    spec = DispersionSpec(inputs=("x",), signature=sig, outputs=(term,))
    system = TermSystem(variables=("x", "y"), signature=sig,
                        equations=(Equation(term, Var("y")),))
    for obj in (spec, system):
        again = parse(render(obj))
        assert again == obj and hash(again) == hash(obj)
    assert spec != DispersionSpec(inputs=("x",), signature=sig,
                                  outputs=(term.args[0],))


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_unexpected_character_position_after_a_comment(newline):
    # the '$' inside the comment is skipped; the one on line 3 is not
    text = newline.join(["instance {", "  # costs $5", "  vars x, $y;", "}"])
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.message == "unexpected character '$'"
    assert (exc.value.line, exc.value.col) == (3, 11)


def test_end_of_input_position_after_trailing_newline():
    with pytest.raises(ParseError) as exc:
        parse("instance {\n  vars x;\n  sig ;\n")
    assert exc.value.message == "expected '}', found end of input"
    assert (exc.value.line, exc.value.col) == (4, 1)
