"""Core data model: identifiers, signatures, terms, systems, interpretations."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from termflow.depgraph import DependencyGraph
from termflow.dsl import KEYWORDS, parse, render
from termflow.errors import EvalError, ValidationError
from termflow.flownet import build_dag, dispersion_exponent
from termflow.normalize import NormalEquation, flatten
from termflow.oracle import (brute_dispersion, brute_guessing,
                             brute_max_solutions, count_solutions, image_of)
from termflow.terms import (App, DispersionSpec, Equation, Interpretation,
                            Signature, TermSystem, Var, assignments,
                            check_ident, instance_size, is_reserved_ident,
                            run_steps, table_index, term_dag, term_steps)


def test_ident_rules():
    check_ident("x")
    check_ident("x1")
    check_ident("long_name")
    # pipeline-minted names are well-formed; the parser rejects them instead
    for minted in ("_z0", "f@0", "g@12", "_y1", "__h2", "x3"):
        check_ident(minted)
    # only names the parser reads back: no non-ASCII letter or digit, no
    # leading '@', no keyword
    for bad in ("", "1x", "x-y", "x y", "f(", "x\u00e9", "\u00e9", "x\u00b2",
                "\u00b2x", "@x", "eq", "edge"):
        with pytest.raises(ValidationError):
            check_ident(bad)


def test_identifiers_must_be_strings():
    # the parser only makes strings, but an API-built object may carry any
    # name: one that is not a string is invalid input, not a TypeError
    for bad in (1, b"x", None, ("x",)):
        with pytest.raises(ValidationError, match="not a string"):
            check_ident(bad)
    with pytest.raises(ValidationError, match="not a string"):
        Signature(((1, 0),))
    with pytest.raises(ValidationError, match="not a string"):
        TermSystem(variables=(1,), signature=Signature(()), equations=())
    # the game is admitted (one player of arity 1), then its symbol refused
    graph = DependencyGraph((0, 1), frozenset({(0, 1)}), frozenset({0}))
    with pytest.raises(ValidationError, match="not a string"):
        brute_guessing(graph, 2)


# names mixing the identifier class with non-ASCII letters and digits,
# '@' and punctuation, plus every grammar keyword
_names = (st.text(st.sampled_from("aZq_@09\u00e9\u00df\u03a9\u0663\u00b2-. "),
                  max_size=6)
          | st.sampled_from(sorted(KEYWORDS))
          | st.text(st.characters(), max_size=4))


@given(_names)
def test_checked_identifiers_round_trip(name):
    """A name `check_ident` accepts renders to text that parses back equal,
    as a variable and as a symbol."""
    try:
        check_ident(name)
    except ValidationError:
        return
    other = "_v" if name != "_v" else "_w"
    systems = [
        TermSystem((name,), Signature(()), (Equation(Var(name), Var(name)),)),
        TermSystem((other,), Signature(((name, 1),)),
                   (Equation(App(name, (Var(other),)), Var(other)),)),
    ]
    for system in systems:
        assert parse(render(system), allow_reserved=True) == system


def test_reserved_idents_flagged():
    assert is_reserved_ident("_z0")
    assert is_reserved_ident("f@1")
    assert not is_reserved_ident("x")
    assert not is_reserved_ident("zz")


def test_signature_arities():
    sig = Signature(symbols=(("f", 2), ("c", 0)))
    assert sig.arity("f") == 2
    assert sig.arity("c") == 0
    assert "f" in sig and "g" not in sig
    assert sig.names == ("f", "c")
    with pytest.raises(ValidationError):
        sig.arity("g")


def test_signature_rejects_duplicates_and_negative_arity():
    with pytest.raises(ValidationError):
        Signature(symbols=(("f", 1), ("f", 2)))
    with pytest.raises(ValidationError):
        Signature(symbols=(("f", -1),))


def test_labels_and_term_steps():
    t = App("f", (Var("x"), App("g", (Var("y"),))))
    dag = term_dag(("x", "y"), [t, App("c", ()), Var("x")])
    assert dag.labels(dag.outputs) == ["f(x, g(y))", "c()", "x"]
    # post-order, first argument last: `run_steps` pops it first
    assert term_steps(t) == ("y", ("g", 1), "x", ("f", 2))


def _diamond():
    f = lambda a, b: App("f", (Var(a), Var(b)))
    return DispersionSpec(
        inputs=("x", "y", "z", "w"),
        signature=Signature(symbols=(("f", 2),)),
        outputs=(f("x", "y"), f("x", "z"), f("y", "w"), f("z", "w")))


def test_dispersion_spec_shape():
    spec = _diamond()
    assert spec.k == 4 and spec.r == 4
    assert instance_size(spec) == 16


def test_system_validation_rejects_unknowns():
    sig = Signature(symbols=(("f", 1),))
    with pytest.raises(ValidationError):
        TermSystem(variables=("x",), signature=sig,
                   equations=(Equation(App("f", (Var("q"),)), Var("x")),))
    with pytest.raises(ValidationError):
        TermSystem(variables=("x",), signature=sig,
                   equations=(Equation(App("g", (Var("x"),)), Var("x")),))
    with pytest.raises(ValidationError):  # arity mismatch
        TermSystem(variables=("x",), signature=sig,
                   equations=(Equation(App("f", ()), Var("x")),))


def test_variable_symbol_namespace_clash_rejected():
    sig = Signature(symbols=(("f", 1),))
    with pytest.raises(ValidationError):
        TermSystem(variables=("f",), signature=sig,
                   equations=(Equation(App("f", (Var("f"),)), Var("f")),))


def test_table_index_big_endian():
    # first argument most significant
    assert table_index(2, ()) == 0
    assert table_index(2, (1,)) == 1
    assert table_index(2, (1, 0)) == 2
    assert table_index(3, (2, 1)) == 7


@given(st.integers(2, 5), st.lists(st.integers(0, 4), max_size=4))
def test_table_index_matches_mixed_radix(n, digits):
    digits = [d % n for d in digits]
    expected = 0
    for d in digits:
        expected = expected * n + d
    assert table_index(n, tuple(digits)) == expected


def test_interpretation_validation_and_run_steps():
    sig = Signature(symbols=(("f", 2),))
    interp = Interpretation(n=2, tables={"f": (0, 0, 1, 0)})
    interp.validate_against(sig)
    steps = term_steps(App("f", (Var("x"), Var("y"))))
    assert run_steps(steps, interp, {"x": 1, "y": 0}) == 1  # x most significant
    assert run_steps(steps, interp, {"x": 0, "y": 1}) == 0
    with pytest.raises(ValidationError):
        Interpretation(n=2, tables={"f": (0, 2, 0, 1)})  # entry out of range
    with pytest.raises(ValidationError):
        Interpretation(n=2, tables={"f": (0, 1)}).validate_against(sig)
    with pytest.raises(EvalError):
        run_steps(term_steps(App("g", (Var("x"), Var("x")))), interp, {"x": 0})
    with pytest.raises(EvalError):
        run_steps(steps, interp, {"x": 0})


def test_interpretation_needs_integers():
    # a float alphabet size or table entry is refused at construction, so
    # no route counts with it; numpy integers are integers
    with pytest.raises(ValidationError, match="non-integer entry"):
        Interpretation(2, {"f": (0.5, 1)})
    with pytest.raises(ValidationError, match="non-integer entry"):
        Interpretation(2, {"f": ("0", 1)})
    with pytest.raises(ValidationError, match="alphabet size must be an int"):
        Interpretation(2.0, {"f": (0, 1)})
    flip = Interpretation(np.int64(2), {"f": tuple(np.array([1, 0]))})
    spec = parse("dispersion { inputs x; sig f/1; outputs f(x); }")
    assert image_of(spec, flip) == {(0,), (1,)}
    system = parse("instance { vars x; sig f/1; eq f(f(x)) = x; }")
    assert count_solutions(system, flip) == 2


def test_count_solutions_of_one_interpretation():
    sig = Signature(symbols=(("f", 1),))
    system = TermSystem(variables=("x", "y"), signature=sig,
                        equations=(Equation(App("f", (Var("x"),)), Var("y")),))
    ident = Interpretation(n=2, tables={"f": (0, 1)})
    assert run_steps(term_steps(App("f", (Var("x"),))), ident, {"x": 1}) == 1
    # exactly n assignments satisfy y = f(x): one per x
    assert count_solutions(system, ident) == 2


def test_assignments_order_is_lexicographic():
    got = list(assignments(("a", "b"), 2))
    assert got == [{"a": 0, "b": 0}, {"a": 0, "b": 1},
                   {"a": 1, "b": 0}, {"a": 1, "b": 1}]


def test_instance_size_counts_all_term_nodes():
    sig = Signature(symbols=(("f", 1), ("g", 1)))
    system = TermSystem(
        variables=("x", "y"), signature=sig,
        equations=(Equation(App("f", (App("g", (Var("x"),)),)), Var("y")),))
    # f(g(x)) has 3 occurrences, y has 1, plus 1 for the equation itself
    assert instance_size(system) == 5


def test_600_deep_term_needs_no_recursion():
    """f(...f(x)...) nested 600 deep, built without the parser: the DAG
    builder, flatten, the flow and the scan kernels walk it iteratively."""
    term = Var("x")
    for _ in range(600):
        term = App("f", (term,))
    sig = Signature(symbols=(("f", 1),))
    spec = DispersionSpec(inputs=("x",), signature=sig, outputs=(term,))
    dag = build_dag(spec)
    assert dag.node_count == 601
    assert dag.ops[-1] == ("f", (599,))
    assert dag.labels([600]) == ["f(" * 600 + "x" + ")" * 600]
    assert dispersion_exponent(spec).D == 1
    system = TermSystem(variables=("x", "y"), signature=sig,
                        equations=(Equation(term, Var("y")),))
    flat = flatten(system)
    assert len(flat.auxiliaries) == 600
    assert flat.equations[-1] == NormalEquation("f", ("_z598",), "_z599")
    assert flat.var_equalities == (("_z599", "y"),)
    assert brute_max_solutions(system, 2).value == 2
    assert brute_dispersion(spec, 2).value == 2
