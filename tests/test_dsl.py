"""Parser and renderer: round-trips, positions, reserved-name policy."""

import inspect
import random
import re
import string
from collections import Counter
from contextlib import ExitStack, contextmanager
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from termflow.corpus import corpus_names, corpus_path
from termflow.depgraph import DependencyGraph
from termflow.dsl import KEYWORDS, parse, render
from termflow.errors import ParseError
from termflow import dsl, terms
from termflow.terms import (App, DispersionSpec, Equation, Signature,
                            TermSystem, Var, instance_size, term_dag)


@pytest.mark.parametrize("name", corpus_names())
def test_corpus_round_trip(name):
    text = corpus_path(name).read_text()
    obj = parse(text)
    again = parse(render(obj))
    assert again == obj
    if not isinstance(obj, DependencyGraph):
        _check_trees_on_demand(text)
        # the parser builds its signature without the constructor's checks
        public = Signature(obj.signature.symbols)
        assert obj.signature == public and hash(obj.signature) == hash(public)
        assert obj.signature._arity == public._arity


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


def _check_parsed_dag(obj):
    """The parser's DAG is `term_dag` of the object's trees, and the public
    constructor, which validates and builds its own DAG, rebuilds an equal
    object with an equal hash from the same fields."""
    if isinstance(obj, TermSystem):
        trees = [t for eq in obj.equations for t in (eq.lhs, eq.rhs)]
        assert obj.dag == term_dag(obj.variables, trees)
        again = TermSystem(obj.variables, obj.signature, obj.equations)
    else:
        assert obj.dag == term_dag(obj.inputs, obj.outputs)
        again = DispersionSpec(obj.inputs, obj.signature, obj.outputs)
    assert again == obj and hash(again) == hash(obj)


@given(_systems())
def test_parsed_dag_is_the_term_dag_of_the_trees(system):
    parsed = parse(render(system))
    assert parsed.dag == system.dag
    _check_parsed_dag(parsed)
    _check_trees_on_demand(render(system), system.equations)


def test_parse_builds_no_dag_through_term_dag(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return term_dag(*args)

    monkeypatch.setattr(terms, "term_dag", counting)
    system = parse(corpus_path("index_coding.inst").read_text())
    parse(corpus_path("diamond.disp").read_text())
    assert calls == []
    TermSystem(system.variables, system.signature, system.equations)
    assert len(calls) == 1  # a public constructor builds one


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


_LONG = 2000
_SPOTS = {"start": 0, "middle": _LONG // 2, "end": _LONG - 1}


def _lines(items):
    """`items` joined by commas, 100 to a line."""
    return ",\n    ".join(", ".join(items[i:i + 100])
                          for i in range(0, len(items), 100))


def _long_vars(bad, spot):
    """An instance whose 2,000-name `vars` list holds `bad` at `spot`."""
    names = [f"v{i}" for i in range(_LONG)]
    names[_SPOTS[spot]] = bad
    return f"instance {{\n  vars {_lines(names)};\n  sig f/1;\n  eq f(v0) = v1;\n}}\n"


def _long_sig(bad, spot):
    """An instance whose 2,000-symbol `sig` list holds `bad` at `spot`."""
    symbols = [f"g{i}/1" for i in range(_LONG)]
    symbols[_SPOTS[spot]] = bad
    return f"instance {{\n  vars x;\n  sig {_lines(symbols)};\n  eq g0(x) = x;\n}}\n"


def _long_edges(bad, spot):
    """A graph whose 2,000 `edge` lines hold the line `bad` at `spot`."""
    lines = [f"edge v{i} -> v{i + 1};" for i in range(_LONG)]
    lines[_SPOTS[spot]] = bad
    nodes = _lines([f"v{i}" for i in range(_LONG + 1)])
    return f"graph {{\n  nodes {nodes};\n  sources v0;\n  " + "\n  ".join(lines) + "\n}\n"


def _long_eqs(bad, spot):
    """An instance whose 2,000 `eq` lines hold the line `bad` at `spot`."""
    lines = [f"eq f(v{i}) = v{i + 1};" for i in range(_LONG)]
    lines[_SPOTS[spot]] = bad
    names = _lines([f"v{i}" for i in range(_LONG + 1)])
    return (f"instance {{\n  vars {names};\n  sig f/1;\n  "
            + "\n  ".join(lines) + "\n}\n")


def _long_outputs(bad, spot):
    """A spec whose 2,000 `outputs` hold the text `bad` at `spot`."""
    outputs = [f"f(v{i})" for i in range(_LONG)]
    outputs[_SPOTS[spot]] = bad
    inputs = _lines([f"v{i}" for i in range(_LONG)])
    return (f"dispersion {{\n  inputs {inputs};\n  sig f/1;\n"
            f"  outputs {_lines(outputs)};\n}}\n")


# One row per `fail` site and tokenizer error: (id, kind, text, message,
# line, col).  Every message and position is part of the CLI's output.
_GOLDEN_ERRORS = [
    ("eof", "auto",
     "instance { vars x;",
     "expected 'sig', found end of input", 1, 19),
    ("eof_after_newline", "auto",
     "instance {\n  vars x;\n  sig ;\n",
     "expected '}', found end of input", 4, 1),
    ("eof_in_idlist", "auto",
     "instance { vars",
     "expected identifier, found ''", 1, 16),
    ("eof_in_term", "auto",
     "dispersion { inputs x; sig f/1; outputs f(",
     "expected term, found ''", 1, 43),
    ("empty_text", "auto",
     "",
     "expected 'instance', 'dispersion', or 'graph'", 1, 1),
    ("bad_lead", "auto",
     "system { }",
     "expected 'instance', 'dispersion', or 'graph'", 1, 1),
    ("kind_mismatch", "graph",
     "instance { vars x; sig ; }",
     "expected 'graph', found 'instance'", 1, 1),
    ("trailing_input", "auto",
     "graph { nodes a; sources ; } extra",
     "trailing input 'extra'", 1, 30),
    ("expected_punct", "auto",
     "instance { vars x; sig f/1; eq f(x = y; }",
     "expected ')', found '='", 1, 36),
    ("expected_keyword", "auto",
     "instance { sig f/1; }",
     "expected 'vars', found 'sig'", 1, 12),
    ("unknown_symbol", "auto",
     "instance { vars x; sig f/1; eq g(x) = x; }",
     "unknown symbol 'g'", 1, 32),
    ("symbol_without_args", "auto",
     "dispersion { inputs x; sig c/0; outputs c; }",
     "symbol 'c' used without arguments (constants are written c())", 1, 41),
    ("undeclared_variable", "auto",
     "instance { vars x; sig f/1;\n  eq f(q) = x; }",
     "undeclared variable 'q'", 2, 8),
    ("reserved_underscore", "auto",
     "instance { vars x, _z0; sig f/1; eq f(x) = _z0; }",
     "reserved identifier '_z0' (leading '_' and '@' belong to the pipeline)", 1, 20),
    ("reserved_at", "auto",
     "instance { vars x, y; sig f@0/1; eq f@0(x) = y; }",
     "reserved identifier 'f@0' (leading '_' and '@' belong to the pipeline)", 1, 27),
    ("reserved_term", "auto",
     "instance { vars x; sig f/1; eq f(_q) = x; }",
     "reserved identifier '_q' (leading '_' and '@' belong to the pipeline)", 1, 34),
    ("arity_mismatch", "auto",
     "dispersion { inputs x;\n  sig f/2;\n  outputs x, f(x); }",
     "arity mismatch: 'f' declared /2, applied to 1", 3, 14),
    ("arity_mismatch_nested", "auto",
     "instance { vars x; sig f/1, g/2; eq g(x, f(x, x)) = x; }",
     "arity mismatch: 'f' declared /1, applied to 2", 1, 42),
    ("arity_mismatch_constant", "auto",
     "instance { vars x; sig c/0; eq c(x) = x; }",
     "arity mismatch: 'c' declared /0, applied to 1", 1, 32),
    ("duplicate_name", "auto",
     "instance { vars x, y, x; sig f/1; eq f(x) = x; }",
     "duplicate name 'x'", 1, 23),
    ("duplicate_node", "auto",
     "graph { nodes a, b, a; sources ; }",
     "duplicate name 'a'", 1, 21),
    ("duplicate_symbol", "auto",
     "instance { vars x; sig f/1, g/0, f/2; eq f(x) = x; }",
     "duplicate symbol 'f'", 1, 34),
    ("keyword_symbol", "auto",
     "instance { vars x; sig eq/0; eq eq() = x; }",
     "expected symbol, found 'eq'", 1, 24),
    ("keyword_node", "auto",
     "graph { nodes edge; sources ; }",
     "expected identifier, found 'edge'", 1, 15),
    ("keyword_term", "auto",
     "instance { vars x; sig f/1; eq f(sig) = x; }",
     "expected term, found 'sig'", 1, 34),
    ("non_numeric_arity", "auto",
     "instance { vars x; sig f/two; }",
     "expected arity, found 'two'", 1, 26),
    ("missing_arity", "auto",
     "instance { vars x; sig f/; }",
     "expected arity, found ';'", 1, 26),
    ("variable_and_symbol", "auto",
     "instance { vars x, f; sig f/1; eq f(x) = x; }",
     "'f' is both a variable and a symbol", 1, 32),
    ("input_and_symbol", "auto",
     "dispersion { inputs f; sig f/1; outputs f(f); }",
     "'f' is both an input and a symbol", 1, 33),
    ("no_inputs", "auto",
     "dispersion { inputs ; sig c/0; outputs c(); }",
     "dispersion spec needs at least one input", 1, 46),
    ("bad_source", "auto",
     "graph { nodes a; sources q; }",
     "source 'q' is not a declared node", 1, 26),
    ("bad_edge_tail", "auto",
     "graph { nodes a, b; sources ; edge q -> b; }",
     "edge endpoint 'q' is not a declared node", 1, 36),
    ("bad_edge_head", "auto",
     "graph { nodes a, b; sources ;\n  edge a -> q; }",
     "edge endpoint 'q' is not a declared node", 2, 13),
    ("edge_missing_arrow", "auto",
     "graph { nodes a, b; sources ; edge a b; }",
     "expected '->', found 'b'", 1, 38),
    ("lone_minus", "auto",
     "graph { nodes a, b; sources ; edge a - b; }",
     "unexpected character '-'", 1, 38),
    ("lone_gt", "auto",
     "graph { nodes a, b; sources ; edge a > b; }",
     "unexpected character '>'", 1, 38),
    ("leading_at", "auto",
     "instance { vars @x; sig ; }",
     "unexpected character '@'", 1, 17),
    ("non_ascii_letter", "auto",
     "instance { vars xé; sig ; }",
     "unexpected character 'é'", 1, 18),
    ("nat_as_identifier", "auto",
     "instance { vars 1x; sig ; }",
     "expected identifier, found '1'", 1, 17),
    ("crlf", "auto",
     "instance {\r\n  vars x;\r\n  sig f/1;\r\n  eq f(x) = ;\r\n}\r\n",
     "expected term, found ';'", 4, 13),
    ("crlf_bad_char", "auto",
     "instance {\r\n  vars x;\r\n  sig f/1;\r\n  eq f(x) = $;\r\n}",
     "unexpected character '$'", 4, 13),
    ("tab", "auto",
     "instance {\n\tvars x;\n\tsig f/1;\n\teq\tf(x)\t=\tq;\n}",
     "undeclared variable 'q'", 4, 12),
    ("tab_bad_char", "auto",
     "graph {\n\tnodes a;\t%\n}",
     "unexpected character '%'", 2, 11),
    ("bad_char_after_syntax_error", "auto",
     "instance { vars x; sig f/1; eq f(x = y; } $",
     "unexpected character '$'", 1, 43),
    ("bad_char_on_later_line", "auto",
     "graph { nodes ; sources q;\n edge\n ~ }",
     "unexpected character '~'", 3, 2),
    ("bad_char_in_comment", "auto",
     "graph { nodes a; # costs $5 -> ~\n sources b; }",
     "source 'b' is not a declared node", 2, 10),
    ("comment_at_eof", "auto",
     "graph { nodes a; sources ; # no newline",
     "expected '}', found end of input", 1, 40),
    ("huge_arity", "auto",
     "instance { vars x; sig f/" + "9" * 5000 + "; }",
     "arity too large (5000 digits)", 1, 26),
    ("unknown_kind", "tree",
     "graph { nodes a; sources ; }",
     "unknown input kind 'tree'", 0, 0),
    # the bad item at the start, middle or end of a 2,000-item list
    ("long_vars_duplicate_start", "auto",
     _long_vars("v1", "start"),
     "duplicate name 'v1'", 2, 12),
    ("long_vars_duplicate_middle", "auto",
     _long_vars("v1001", "middle"),
     "duplicate name 'v1001'", 12, 12),
    ("long_vars_duplicate_end", "auto",
     _long_vars("v1998", "end"),
     "duplicate name 'v1998'", 21, 698),
    ("long_vars_keyword_start", "auto",
     _long_vars("eq", "start"),
     "expected identifier, found 'eq'", 2, 8),
    ("long_vars_keyword_middle", "auto",
     _long_vars("eq", "middle"),
     "expected identifier, found 'eq'", 12, 5),
    ("long_vars_keyword_end", "auto",
     _long_vars("eq", "end"),
     "expected identifier, found 'eq'", 21, 698),
    ("long_vars_reserved_underscore_start", "auto",
     _long_vars("_z", "start"),
     "reserved identifier '_z' (leading '_' and '@' belong to the pipeline)", 2, 8),
    ("long_vars_reserved_underscore_middle", "auto",
     _long_vars("_z", "middle"),
     "reserved identifier '_z' (leading '_' and '@' belong to the pipeline)", 12, 5),
    ("long_vars_reserved_underscore_end", "auto",
     _long_vars("_z", "end"),
     "reserved identifier '_z' (leading '_' and '@' belong to the pipeline)", 21, 698),
    ("long_vars_reserved_at_start", "auto",
     _long_vars("a@b", "start"),
     "reserved identifier 'a@b' (leading '_' and '@' belong to the pipeline)", 2, 8),
    ("long_vars_reserved_at_middle", "auto",
     _long_vars("a@b", "middle"),
     "reserved identifier 'a@b' (leading '_' and '@' belong to the pipeline)", 12, 5),
    ("long_vars_reserved_at_end", "auto",
     _long_vars("a@b", "end"),
     "reserved identifier 'a@b' (leading '_' and '@' belong to the pipeline)", 21, 698),
    ("long_vars_missing_comma_start", "auto",
     _long_vars("a b", "start"),
     "expected ';', found 'b'", 2, 10),
    ("long_vars_missing_comma_middle", "auto",
     _long_vars("a b", "middle"),
     "expected ';', found 'b'", 12, 7),
    ("long_vars_missing_comma_end", "auto",
     _long_vars("a b", "end"),
     "expected ';', found 'b'", 21, 700),
    ("long_vars_wrong_separator_start", "auto",
     _long_vars("a = b", "start"),
     "expected ';', found '='", 2, 10),
    ("long_vars_wrong_separator_middle", "auto",
     _long_vars("a = b", "middle"),
     "expected ';', found '='", 12, 7),
    ("long_vars_wrong_separator_end", "auto",
     _long_vars("a = b", "end"),
     "expected ';', found '='", 21, 700),
    ("long_vars_symbol_start", "auto",
     _long_vars("f", "start"),
     "'f' is both a variable and a symbol", 23, 3),
    ("long_vars_symbol_middle", "auto",
     _long_vars("f", "middle"),
     "'f' is both a variable and a symbol", 23, 3),
    ("long_vars_symbol_end", "auto",
     _long_vars("f", "end"),
     "'f' is both a variable and a symbol", 23, 3),
    ("long_sig_word_arity_start", "auto",
     _long_sig("f/two", "start"),
     "expected arity, found 'two'", 3, 9),
    ("long_sig_word_arity_middle", "auto",
     _long_sig("f/two", "middle"),
     "expected arity, found 'two'", 13, 7),
    ("long_sig_word_arity_end", "auto",
     _long_sig("f/two", "end"),
     "expected arity, found 'two'", 22, 898),
    ("long_sig_missing_arity_start", "auto",
     _long_sig("f/", "start"),
     "expected arity, found ','", 3, 9),
    ("long_sig_missing_arity_middle", "auto",
     _long_sig("f/", "middle"),
     "expected arity, found ','", 13, 7),
    ("long_sig_missing_arity_end", "auto",
     _long_sig("f/", "end"),
     "expected arity, found ';'", 22, 898),
    ("long_sig_wrong_slash_start", "auto",
     _long_sig("f=1", "start"),
     "expected '/', found '='", 3, 8),
    ("long_sig_wrong_slash_middle", "auto",
     _long_sig("f=1", "middle"),
     "expected '/', found '='", 13, 6),
    ("long_sig_wrong_slash_end", "auto",
     _long_sig("f=1", "end"),
     "expected '/', found '='", 22, 897),
    ("long_sig_duplicate_start", "auto",
     _long_sig("g1/2", "start"),
     "duplicate symbol 'g1'", 3, 13),
    ("long_sig_duplicate_middle", "auto",
     _long_sig("g1001/2", "middle"),
     "duplicate symbol 'g1001'", 13, 14),
    ("long_sig_duplicate_end", "auto",
     _long_sig("g1998/2", "end"),
     "duplicate symbol 'g1998'", 22, 896),
    ("long_sig_keyword_start", "auto",
     _long_sig("eq/0", "start"),
     "expected symbol, found 'eq'", 3, 7),
    ("long_sig_keyword_middle", "auto",
     _long_sig("eq/0", "middle"),
     "expected symbol, found 'eq'", 13, 5),
    ("long_sig_keyword_end", "auto",
     _long_sig("eq/0", "end"),
     "expected symbol, found 'eq'", 22, 896),
    ("long_sig_huge_arity_end", "auto",
     _long_sig("g1999/" + "9" * 5000, "end"),
     'arity too large (5000 digits)', 22, 902),
    # the bad line at the start, middle or end of 2,000 `edge` lines
    ("long_edges_undeclared_start", "auto",
     _long_edges("edge v1 -> w;", "start"),
     "edge endpoint 'w' is not a declared node", 24, 14),
    ("long_edges_undeclared_middle", "auto",
     _long_edges("edge v1 -> w;", "middle"),
     "edge endpoint 'w' is not a declared node", 1024, 14),
    ("long_edges_undeclared_end", "auto",
     _long_edges("edge v1 -> w;", "end"),
     "edge endpoint 'w' is not a declared node", 2023, 14),
    ("long_edges_undeclared_tail_start", "auto",
     _long_edges("edge w -> v1;", "start"),
     "edge endpoint 'w' is not a declared node", 24, 8),
    ("long_edges_undeclared_tail_middle", "auto",
     _long_edges("edge w -> v1;", "middle"),
     "edge endpoint 'w' is not a declared node", 1024, 8),
    ("long_edges_undeclared_tail_end", "auto",
     _long_edges("edge w -> v1;", "end"),
     "edge endpoint 'w' is not a declared node", 2023, 8),
    ("long_edges_missing_arrow_start", "auto",
     _long_edges("edge v1 v2;", "start"),
     "expected '->', found 'v2'", 24, 11),
    ("long_edges_missing_arrow_middle", "auto",
     _long_edges("edge v1 v2;", "middle"),
     "expected '->', found 'v2'", 1024, 11),
    ("long_edges_missing_arrow_end", "auto",
     _long_edges("edge v1 v2;", "end"),
     "expected '->', found 'v2'", 2023, 11),
    ("long_edges_missing_semicolon_start", "auto",
     _long_edges("edge v1 -> v2", "start"),
     "expected ';', found 'edge'", 25, 3),
    ("long_edges_missing_semicolon_middle", "auto",
     _long_edges("edge v1 -> v2", "middle"),
     "expected ';', found 'edge'", 1025, 3),
    ("long_edges_missing_semicolon_end", "auto",
     _long_edges("edge v1 -> v2", "end"),
     "expected ';', found '}'", 2024, 1),
    ("long_edges_keyword_start", "auto",
     _long_edges("edge v1 -> eq;", "start"),
     "expected node, found 'eq'", 24, 14),
    ("long_edges_keyword_middle", "auto",
     _long_edges("edge v1 -> eq;", "middle"),
     "expected node, found 'eq'", 1024, 14),
    ("long_edges_keyword_end", "auto",
     _long_edges("edge v1 -> eq;", "end"),
     "expected node, found 'eq'", 2023, 14),
    ("long_edges_wrong_arrow_start", "auto",
     _long_edges("edge v1 = v2;", "start"),
     "expected '->', found '='", 24, 11),
    ("long_edges_wrong_arrow_middle", "auto",
     _long_edges("edge v1 = v2;", "middle"),
     "expected '->', found '='", 1024, 11),
    ("long_edges_wrong_arrow_end", "auto",
     _long_edges("edge v1 = v2;", "end"),
     "expected '->', found '='", 2023, 11),
    ("long_edges_wrong_end_start", "auto",
     _long_edges("edge v1 -> v2,", "start"),
     "expected ';', found ','", 24, 16),
    ("long_edges_wrong_end_middle", "auto",
     _long_edges("edge v1 -> v2,", "middle"),
     "expected ';', found ','", 1024, 16),
    ("long_edges_wrong_end_end", "auto",
     _long_edges("edge v1 -> v2,", "end"),
     "expected ';', found ','", 2023, 16),
    ("long_edges_wrong_keyword_start", "auto",
     _long_edges("edges v1 -> v2;", "start"),
     "expected '}', found 'edges'", 24, 3),
    ("long_edges_wrong_keyword_middle", "auto",
     _long_edges("edges v1 -> v2;", "middle"),
     "expected '}', found 'edges'", 1024, 3),
    ("long_edges_wrong_keyword_end", "auto",
     _long_edges("edges v1 -> v2;", "end"),
     "expected '}', found 'edges'", 2023, 3),
    ("long_eqs_applied_variable_start", "auto",
     _long_eqs("eq v5(v6) = v1;", "start"),
     "unknown symbol 'v5'", 24, 6),
    ("long_eqs_applied_variable_middle", "auto",
     _long_eqs("eq v5(v6) = v1;", "middle"),
     "unknown symbol 'v5'", 1024, 6),
    ("long_eqs_applied_variable_end", "auto",
     _long_eqs("eq v5(v6) = v1;", "end"),
     "unknown symbol 'v5'", 2023, 6),
    ("long_eqs_missing_paren_start", "auto",
     _long_eqs("eq f(v1 = v2;", "start"),
     "expected ')', found '='", 24, 11),
    ("long_eqs_missing_paren_middle", "auto",
     _long_eqs("eq f(v1 = v2;", "middle"),
     "expected ')', found '='", 1024, 11),
    ("long_eqs_missing_paren_end", "auto",
     _long_eqs("eq f(v1 = v2;", "end"),
     "expected ')', found '='", 2023, 11),
    ("long_eqs_arity_start", "auto",
     _long_eqs("eq f(v1, v2) = v3;", "start"),
     "arity mismatch: 'f' declared /1, applied to 2", 24, 6),
    ("long_eqs_arity_middle", "auto",
     _long_eqs("eq f(v1, v2) = v3;", "middle"),
     "arity mismatch: 'f' declared /1, applied to 2", 1024, 6),
    ("long_eqs_arity_end", "auto",
     _long_eqs("eq f(v1, v2) = v3;", "end"),
     "arity mismatch: 'f' declared /1, applied to 2", 2023, 6),
    ("long_eqs_missing_equals_start", "auto",
     _long_eqs("eq f(v1) v2;", "start"),
     "expected '=', found 'v2'", 24, 12),
    ("long_eqs_missing_equals_middle", "auto",
     _long_eqs("eq f(v1) v2;", "middle"),
     "expected '=', found 'v2'", 1024, 12),
    ("long_eqs_missing_equals_end", "auto",
     _long_eqs("eq f(v1) v2;", "end"),
     "expected '=', found 'v2'", 2023, 12),
    ("long_eqs_comma_for_semicolon_start", "auto",
     _long_eqs("eq f(v1) = v2,", "start"),
     "expected ';', found ','", 24, 16),
    ("long_eqs_comma_for_semicolon_middle", "auto",
     _long_eqs("eq f(v1) = v2,", "middle"),
     "expected ';', found ','", 1024, 16),
    ("long_eqs_comma_for_semicolon_end", "auto",
     _long_eqs("eq f(v1) = v2,", "end"),
     "expected ';', found ','", 2023, 16),
    ("long_eqs_empty_argument_start", "auto",
     _long_eqs("eq f(, v1) = v2;", "start"),
     "expected term, found ','", 24, 8),
    ("long_eqs_empty_argument_middle", "auto",
     _long_eqs("eq f(, v1) = v2;", "middle"),
     "expected term, found ','", 1024, 8),
    ("long_eqs_empty_argument_end", "auto",
     _long_eqs("eq f(, v1) = v2;", "end"),
     "expected term, found ','", 2023, 8),
    ("long_eqs_applied_application_start", "auto",
     _long_eqs("eq f(v1)(v2) = v3;", "start"),
     "expected '=', found '('", 24, 11),
    ("long_eqs_applied_application_middle", "auto",
     _long_eqs("eq f(v1)(v2) = v3;", "middle"),
     "expected '=', found '('", 1024, 11),
    ("long_eqs_applied_application_end", "auto",
     _long_eqs("eq f(v1)(v2) = v3;", "end"),
     "expected '=', found '('", 2023, 11),
    ("long_outputs_applied_variable_start", "auto",
     _long_outputs("v5(v6)", "start"),
     "unknown symbol 'v5'", 23, 11),
    ("long_outputs_applied_variable_middle", "auto",
     _long_outputs("v5(v6)", "middle"),
     "unknown symbol 'v5'", 33, 5),
    ("long_outputs_applied_variable_end", "auto",
     _long_outputs("v5(v6)", "end"),
     "unknown symbol 'v5'", 42, 995),
    ("long_outputs_missing_paren_start", "auto",
     _long_outputs("f(v1", "start"),
     "expected ')', found ';'", 42, 1003),
    ("long_outputs_missing_paren_middle", "auto",
     _long_outputs("f(v1", "middle"),
     "expected ')', found ';'", 42, 1003),
    ("long_outputs_missing_paren_end", "auto",
     _long_outputs("f(v1", "end"),
     "expected ')', found ';'", 42, 999),
    ("long_outputs_arity_start", "auto",
     _long_outputs("f(v1, v2)", "start"),
     "arity mismatch: 'f' declared /1, applied to 2", 23, 11),
    ("long_outputs_arity_middle", "auto",
     _long_outputs("f(v1, v2)", "middle"),
     "arity mismatch: 'f' declared /1, applied to 2", 33, 5),
    ("long_outputs_arity_end", "auto",
     _long_outputs("f(v1, v2)", "end"),
     "arity mismatch: 'f' declared /1, applied to 2", 42, 995),
    ("long_outputs_missing_comma_start", "auto",
     _long_outputs("f(v1) f(v2)", "start"),
     "expected ';', found 'f'", 23, 17),
    ("long_outputs_missing_comma_middle", "auto",
     _long_outputs("f(v1) f(v2)", "middle"),
     "expected ';', found 'f'", 33, 11),
    ("long_outputs_missing_comma_end", "auto",
     _long_outputs("f(v1) f(v2)", "end"),
     "expected ';', found 'f'", 42, 1001),
    ("long_outputs_semicolon_for_comma_start", "auto",
     _long_outputs("f(v1); f(v2)", "start"),
     "expected '}', found 'f'", 23, 18),
    ("long_outputs_semicolon_for_comma_middle", "auto",
     _long_outputs("f(v1); f(v2)", "middle"),
     "expected '}', found 'f'", 33, 12),
    ("long_outputs_semicolon_for_comma_end", "auto",
     _long_outputs("f(v1); f(v2)", "end"),
     "expected '}', found 'f'", 42, 1002),
    ("long_outputs_empty_argument_start", "auto",
     _long_outputs("f(, v1)", "start"),
     "expected term, found ','", 23, 13),
    ("long_outputs_empty_argument_middle", "auto",
     _long_outputs("f(, v1)", "middle"),
     "expected term, found ','", 33, 7),
    ("long_outputs_empty_argument_end", "auto",
     _long_outputs("f(, v1)", "end"),
     "expected term, found ','", 42, 997),
    ("long_outputs_applied_application_start", "auto",
     _long_outputs("f(v1)(v2)", "start"),
     "expected ';', found '('", 23, 16),
    ("long_outputs_applied_application_middle", "auto",
     _long_outputs("f(v1)(v2)", "middle"),
     "expected ';', found '('", 33, 10),
    ("long_outputs_applied_application_end", "auto",
     _long_outputs("f(v1)(v2)", "end"),
     "expected ';', found '('", 42, 1000),
]


@pytest.mark.parametrize("kind,text,message,line,col",
                         [row[1:] for row in _GOLDEN_ERRORS],
                         ids=[row[0] for row in _GOLDEN_ERRORS])
def test_golden_parse_errors(kind, text, message, line, col):
    with pytest.raises(ParseError) as exc:
        parse(text, kind)
    assert (exc.value.message, exc.value.line, exc.value.col) == (message, line, col)


def _first_stray_character(text):
    """(line, col, character) of the first character outside a comment that
    starts no token, or None; a plain scan that shares nothing with `dsl`."""
    ident = string.ascii_letters + string.digits + "_@"
    i = 0
    while i < len(text):
        c = text[i]
        if c == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif c.isspace() or c in "{}();,=/":
            i += 1
        elif c in string.ascii_letters + "_":
            while i < len(text) and text[i] in ident:
                i += 1
        elif c in string.digits:
            while i < len(text) and text[i] in string.digits:
                i += 1
        elif text.startswith("->", i):
            i += 2
        else:
            line_start = text.rfind("\n", 0, i) + 1
            return text.count("\n", 0, line_start) + 1, i - line_start + 1, c
    return None


_CORPUS_TEXTS = [corpus_path(name).read_text() for name in corpus_names()]
_INSERTS = "#\n\r\t\x0b\xa0 (),;=/{}-<>@_$~é²x0"


@st.composite
def _mutated_corpus_text(draw):
    """A corpus text after a few random insertions, deletions and copies."""
    text = draw(st.sampled_from(_CORPUS_TEXTS))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(["insert", "delete", "copy"]))
        if op == "insert":
            piece = draw(st.sampled_from(_INSERTS))
        elif op == "copy":
            j = draw(st.integers(0, len(text)))
            piece = text[j:j + draw(st.integers(1, 12))]
        else:
            piece = ""
            text = text[:i] + text[i + draw(st.integers(1, 8)):]
        text = text[:i] + piece + text[i:]
    return text


@given(_mutated_corpus_text())
def test_stray_character_is_reported_first(text):
    """A character that starts no token wins over every other error, at its
    own position; without one, no error is about a character."""
    stray = _first_stray_character(text)
    try:
        parse(text)
    except ParseError as e:
        if stray is None:
            assert not e.message.startswith("unexpected character")
        else:
            line, col, c = stray
            assert (e.message, e.line, e.col) == (
                f"unexpected character {c!r}", line, col)
    else:
        assert stray is None


@given(_mutated_corpus_text())
def test_parsed_dag_of_mutated_corpus_text(text):
    """Whatever the parser accepts, the public constructors accept too, and
    the parser read it without a slow path."""
    try:
        with _slow_paths() as counts:
            obj = parse(text)
    except ParseError:
        return
    assert counts == {}
    if not isinstance(obj, DependencyGraph):
        _check_parsed_dag(obj)
        _check_trees_on_demand(text)


# ---- the split tokenizer and the bulk list reader ---------------------------

_PIECES = ["instance", "dispersion", "graph", "vars", "inputs", "outputs",
           "sig", "eq", "nodes", "sources", "edge", "x", "y", "f", "g", "v1",
           "0", "12", *"{}();,=/", "->", " ", "\n"]
_HAZARDS = ["\xa0", "\x1c", "\x85", "\u2028", "\r", "\t", "# a->b\n",
            "# costs $5\n", "# é", "a->b", "-->", "=>", "2g", "@x", "é", "²"]
_hazard_text = st.lists(st.sampled_from(_PIECES + _HAZARDS),
                        max_size=40).map("".join)


def _outcome(text):
    """What `_tokenize` and `parse` make of `text`: tokens, render and DAG,
    or the (message, line, col) of the error raised."""
    try:
        tokens = dsl._tokenize(text)
        obj = parse(text)
    except ParseError as e:
        return e.message, e.line, e.col
    return tokens, render(obj), getattr(obj, "dag", None)


@given(st.one_of(_mutated_corpus_text(), _hazard_text))
@example("")
def test_split_tokens_are_the_regex_tokens(text):
    """Forcing every text through `_TOKEN_RE`, as if no split word were a
    whole token, changes no token, result or error."""
    split = _outcome(text)
    with mock.patch.object(dsl, "_NOT_A_TOKEN_RE", re.compile("")):
        assert _outcome(text) == split


@contextmanager
def _call_counts(**targets):
    """Counts, by keyword, the calls to each (owner, attribute) target while
    the block runs; a property target counts its reads."""
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    with ExitStack() as stack:
        for name, (owner, attr) in targets.items():
            fn = inspect.getattr_static(owner, attr)
            wrapped = (property(counting(name, fn.fget))
                       if isinstance(fn, property) else counting(name, fn))
            stack.enter_context(mock.patch.object(owner, attr, wrapped))
        yield counts


def _slow_paths():
    """Counts the `_tokenize` fallback ("tokens") and the item-by-item list
    walks ("walks") while the block runs."""
    return _call_counts(tokens=(dsl, "_regex_tokens"),
                        walks=(dsl._Parser, "list_error"))


def _chain_text(n):
    """An instance of `n` equations f(v_i) = v_{i+1}."""
    return (f"instance {{\n  vars {', '.join(f'v{i}' for i in range(n + 1))};"
            "\n  sig f/1;\n"
            + "".join(f"  eq f(v{i}) = v{i + 1};\n" for i in range(n)) + "}\n")


def _outputs_text(n):
    """A spec of `n` outputs f(x_i) over `n` inputs."""
    return (f"dispersion {{\n  inputs {', '.join(f'x{i}' for i in range(n))};"
            "\n  sig f/1;\n  outputs "
            + ", ".join(f"f(x{i})" for i in range(n)) + ";\n}\n")


_DEEP = ("dispersion { inputs x; sig f/1; outputs "
         + "f(" * 10 ** 5 + "x" + ")" * 10 ** 5 + "; }")


def _bench_shaped_texts():
    """A 2,000-equation chain, a 100 x 400 layered spec, a 2,000-symbol
    spec and a 400-long collision cascade, shaped like the benchmark's
    generated inputs."""
    rng = random.Random(0)
    chain = _chain_text(2000)
    layer = [f"x{j}" for j in range(100)]
    inputs = ", ".join(layer)
    for _ in range(3):
        layer = [f"f{rng.randrange(4)}({rng.choice(layer)}, {rng.choice(layer)})"
                 for _ in range(400)]
    layered = (f"dispersion {{\n  inputs {inputs};\n  sig f0/2, f1/2, f2/2, f3/2;"
               f"\n  outputs {', '.join(layer)};\n}}\n")
    many = (f"dispersion {{\n  inputs {', '.join(f'x{j}' for j in range(50))};\n"
            f"  sig {', '.join(f'g{i}/1' for i in range(2000))};\n"
            f"  outputs {', '.join(f'g{i}(x{i % 50})' for i in range(2000))};\n}}\n")
    names = ["a"] + [f"{c}{i}" for c in "xy" for i in range(400)]
    eqs = ["f(a) = x0", "f(a) = y0"] + [f"g({c}{i}) = {c}{i + 1}"
                                        for c in "xy" for i in range(399)]
    cascade = (f"instance {{\n  vars {', '.join(names)};\n  sig f/1, g/1;\n"
               + "".join(f"  eq {e};\n" for e in eqs) + "}\n")
    return [chain, layered, many, cascade]


def test_accepted_input_takes_no_slow_path():
    packed = ["graph{nodes a,b;sources a;edge a->b;}#end",
              "instance{vars x,y;sig f/1,c/0;eq f(c())=y;}"]
    texts = _CORPUS_TEXTS + packed + _bench_shaped_texts()
    with _slow_paths() as counts:
        for text in texts + [_DEEP]:
            parse(text)
    assert counts == {}
    chain = texts[-4]
    with _slow_paths() as counts, pytest.raises(ParseError):
        parse(chain.replace("f(v1000)", "f($v1000)"))
    assert counts == {"tokens": 1}
    with _slow_paths() as counts, pytest.raises(ParseError):
        parse(_long_vars("v1998", "end"))
    assert counts == {"walks": 1}
    edges = _long_edges("edge v1999 -> v2000;", "end")  # well formed
    with _slow_paths() as counts:
        assert len(parse(edges).edges) == _LONG
    assert counts == {}


# ---- trees on demand ---------------------------------------------------------


def _tree_size(t):
    """Occurrences in a tree, by recursion: every variable and symbol."""
    return 1 + sum(map(_tree_size, t.args)) if isinstance(t, App) else 1


def _tree_instance_size(obj):
    """`instance_size` by recursing over the trees, not reading the DAG."""
    if isinstance(obj, TermSystem):
        occ = sum(_tree_size(eq.lhs) + _tree_size(eq.rhs) for eq in obj.equations)
        return occ + len(obj.equations)
    return sum(map(_tree_size, obj.outputs)) + len(obj.outputs)


def _check_trees_on_demand(text, trees=None):
    """A parsed system or spec holds no trees until something reads them.
    The first read keeps them, changes neither `==`, `hash` nor `repr`, and
    the public constructor rebuilds an equal object from them.  `trees`,
    when given, are the trees the text was rendered from."""
    obj, twin = parse(text), parse(text)
    name = "equations" if isinstance(obj, TermSystem) else "outputs"
    size, digest, same = instance_size(obj), hash(obj), obj == twin
    assert name not in vars(obj) and name not in vars(twin)
    read = getattr(obj, name)
    assert vars(obj)[name] is read and getattr(obj, name) is read
    assert same and obj == twin and hash(obj) == digest == hash(twin)
    assert repr(twin) == repr(obj)  # twin's first read is its repr's
    if trees is not None:
        assert read == trees
    names = obj.variables if name == "equations" else obj.inputs
    again = type(obj)(names, obj.signature, read)
    assert again == obj and hash(again) == digest and repr(again) == repr(obj)
    assert size == _tree_instance_size(again)


def _spec_of(system):
    """A spec whose outputs are a system's equation sides."""
    sides = (t for eq in system.equations for t in (eq.lhs, eq.rhs))
    return DispersionSpec(system.variables, system.signature, tuple(sides))


@given(_systems().map(_spec_of))
def test_spec_trees_on_demand(spec):
    _check_trees_on_demand(render(spec), spec.outputs)


# ---- the section loop and its per-term reference ---------------------------


def _parser_calls(text):
    """`_Parser.take`, `ident` and `here` calls made while parsing `text`."""
    with _call_counts(take=(dsl._Parser, "take"),
                      ident=(dsl._Parser, "ident"),
                      here=(dsl._Parser, "here")) as counts:
        parse(text)
    return counts


@pytest.mark.parametrize("make", [_chain_text, _outputs_text])
def test_term_sections_make_no_call_per_term(make):
    """A term section is read in one loop: the parser's helper calls are
    the same at 1,000 and 2,000 terms, a work count in place of a timer."""
    assert _parser_calls(make(1000)) == _parser_calls(make(2000))


class _PerTermParser(dsl._Parser):
    """The reference reader: one `term` call per term, the separators
    read with `take`.  It shares the tokenizer, lists and headers with the
    section loop, so the two differ only in how a term section is read."""

    def terms(self, arities, nodes, seps):
        roots = []
        while True:
            for n, sep in enumerate(seps, 1):
                roots.append(self.term(arities, nodes))
                *required, more = sep.split()
                for tok in required:
                    self.take(tok)
                if n < len(seps):
                    self.take(more)
                elif self.here == more:
                    self.pos += 1
                else:
                    return roots

    def term(self, arities, nodes):
        """One term's DAG node, parsed on an explicit stack of open
        applications; each is interned in `nodes` when it closes."""
        toks, i = self.toks, self.pos
        stack = []  # (symbol's index, outer args)
        args = []  # the innermost open application's argument nodes
        while True:
            tok = toks[i]
            if tok in nodes and toks[i + 1] != "(":
                args.append(nodes[tok])
                i += 1
            elif tok in arities and toks[i + 1] == "(":
                stack.append((i, args))
                args = []
                i += 2
                if toks[i] != ")":
                    continue  # on to the first argument
            else:
                self.pos = i
                self.ident("term")
                if toks[i + 1] == "(":
                    self.fail(f"unknown symbol {tok!r}", i)
                if tok in arities:
                    self.fail(f"symbol {tok!r} used without arguments "
                              "(constants are written c())", i)
                self.fail(f"undeclared variable {tok!r}", i)
            # close applications until one takes a further argument
            while stack and toks[i] != ",":
                if toks[i] != ")":
                    self.pos = i
                    self.take(")")
                at, outer = stack.pop()
                symbol = toks[at]
                if len(args) != arities[symbol]:
                    self.fail(f"arity mismatch: {symbol!r} declared "
                              f"/{arities[symbol]}, applied to {len(args)}", at)
                outer.append(nodes.setdefault((symbol, tuple(args)),
                                              len(nodes)))
                args = outer
                i += 1
            if not stack:
                self.pos = i
                return args[0]
            i += 1  # the ',' before the next argument


_SECTION_PIECES = ["(", ")", ",", "=", ";", "eq"]


@st.composite
def _mutated_section_text(draw):
    """A corpus text's tokens after a few insertions and deletions of the
    term sections' punctuation and `eq`, and of `(name)` after a name,
    which applies a variable where the name is one."""
    words = dsl._tokenize(draw(st.sampled_from(_CORPUS_TEXTS)))[:-1]
    names = sorted({w for w in words if w[0].isalpha() and w not in KEYWORDS})
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["insert", "delete", "apply"]))
        if op == "insert":
            words.insert(draw(st.integers(0, len(words))),
                         draw(st.sampled_from(_SECTION_PIECES)))
        elif op == "delete":
            spots = [i for i, w in enumerate(words) if w in _SECTION_PIECES]
            if spots:
                del words[draw(st.sampled_from(spots))]
        else:
            spots = [i for i, w in enumerate(words) if w in names]
            if spots:
                i = draw(st.sampled_from(spots)) + 1
                words[i:i] = ["(", draw(st.sampled_from(names)), ")"]
    return draw(st.sampled_from([" ", "\n"])).join(words)


def _read(text, allow_reserved):
    """The render and DAG `parse` makes of `text`, or its error."""
    try:
        obj = parse(text, allow_reserved=allow_reserved)
    except ParseError as e:
        return e.message, e.line, e.col
    return render(obj), getattr(obj, "dag", None)


def _check_readers_agree(text, allow_reserved=False):
    section = _read(text, allow_reserved)
    with mock.patch.object(dsl, "_Parser", _PerTermParser):
        assert _read(text, allow_reserved) == section


@given(st.one_of(_mutated_corpus_text(), _hazard_text,
                 _mutated_section_text()), st.booleans())
def test_section_reader_matches_the_per_term_reader(text, allow_reserved):
    """Both readers give the same render and DAG, or the same error."""
    _check_readers_agree(text, allow_reserved)


@pytest.mark.parametrize("text", [
    _chain_text(2000), _outputs_text(2000), _DEEP,
    *(make(bad, "middle") for make, bad in (
        (_long_eqs, "eq f(v5(v6)) = v1;"), (_long_eqs, "eq f(v1) = v2 eq"),
        (_long_outputs, "f(v5(v6))"), (_long_outputs, "f(v1)(v2)"))),
], ids=["chain", "outputs", "deep", "eqs_nested_applied_variable",
        "eqs_missing_semicolon", "outputs_nested_applied_variable",
        "outputs_applied_application"])
def test_section_reader_matches_the_per_term_reader_at_size(text):
    _check_readers_agree(text)
