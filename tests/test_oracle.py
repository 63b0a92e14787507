"""Exhaustive-search oracles: pinned ground truth and cross-route checks.

Every frozen constant below was computed by a second, independent route
(hand derivation or the scalar evaluators) before being pinned.
"""

import ast
import itertools
import math
import subprocess
import sys
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from termflow import kernel, normalize, oracle
from termflow.corpus import corpus_names
from termflow.dsl import parse

from termflow.depgraph import (DependencyGraph, add_source_loops,
                               dependency_graph, graph_system)
from termflow.errors import (BudgetError, PreconditionError, ValidationError)
from termflow.normalize import (NormalSystem, diversify, embed_dispersion,
                                flatten, pipeline)
from termflow.oracle import (BlockEncoding, EmbeddingCheck, OracleResult,
                             SearchBudget,
                             brute_dispersion,
                             brute_guessing, brute_max_solutions,
                             check_embedding, check_perfect_fixed,
                             check_solutions_equal_winning, count_solutions,
                             count_winning,
                             image_of, interpretation_at,
                             interpretation_count, lift_interpretation,
                             sandwich_check)
from termflow.terms import (App, DispersionSpec, Equation, Interpretation,
                            Signature, TermDag, TermSystem, Var, assignments,
                            run_steps, table_index, term_dag, term_steps)
from corpus_loader import load
from preservation import first_mismatch


# ---- enumeration ------------------------------------------------------------

def test_spaces():
    assert interpretation_count(Signature(symbols=(("f", 2),)), 2) == 16
    assert interpretation_count(Signature(symbols=(("f", 2),)), 3) == 19683
    # a constant's table has one entry
    assert interpretation_count(Signature(symbols=(("c", 0),)), 2) == 2
    sig = Signature(symbols=(("f", 1), ("g", 1)))
    assert interpretation_count(sig, 2) == 16
    assert interpretation_count(Signature(symbols=()), 2) == 1
    # an alphabet is never empty: n = 0 once counted 1 interpretation
    with pytest.raises(PreconditionError):
        interpretation_count(sig, 0)


def test_enumeration_is_canonical_big_endian():
    sig = Signature(symbols=(("f", 1), ("g", 1)))
    interps = [interpretation_at(sig, 2, idx) for idx in range(16)]
    # index order is the lexicographic order of the tables, f's then g's
    tables = [interp.tables["f"] + interp.tables["g"] for interp in interps]
    assert tables == sorted(set(tables)) and len(tables) == 16
    # last symbol varies fastest; within one table, entry 0 is most significant
    assert interps[0].tables == {"f": (0, 0), "g": (0, 0)}
    assert interps[1].tables == {"f": (0, 0), "g": (0, 1)}
    assert interps[2].tables == {"f": (0, 0), "g": (1, 0)}
    assert interps[4].tables == {"f": (0, 1), "g": (0, 0)}
    assert interps[15].tables == {"f": (1, 1), "g": (1, 1)}
    assert all(interp.n == 2 for interp in interps)


def test_interpretation_index_out_of_range():
    sig = Signature(symbols=(("f", 1), ("g", 1)))
    assert interpretation_at(sig, 2, 15).tables == {"f": (1, 1), "g": (1, 1)}
    for index in (16, -1, 2 ** 70):
        with pytest.raises(ValidationError, match="index out of range"):
            interpretation_at(sig, 2, index)


def test_budget_refusal_is_exact_and_total():
    diamond = load("diamond.disp")
    with pytest.raises(BudgetError) as exc:
        brute_dispersion(diamond, 4)
    assert exc.value.interpretations == 4294967296
    assert exc.value.evaluations == 1099511627776
    # a tighter budget refuses even the tiny case, with exact numbers
    with pytest.raises(BudgetError) as exc:
        brute_dispersion(diamond, 2, SearchBudget(max_evaluations=100))
    assert exc.value.evaluations == 256


def test_budget_charges_only_the_scanned_symbols():
    # g/3 is declared and never applied: its 3^27 tables are not scanned,
    # so they are not charged either (the whole signature was 2,048
    # evaluations at n = 2 and 205,891,132,094,649 interpretations at 3)
    spec = parse("dispersion { inputs x; sig f/1, g/3; outputs f(x); }")
    assert brute_dispersion(spec, 2, SearchBudget(8, 4)).evaluations == 8
    with pytest.raises(BudgetError) as exc:
        brute_dispersion(spec, 2, SearchBudget(7))
    assert (exc.value.interpretations, exc.value.evaluations) == (4, 8)
    res = brute_dispersion(spec, 3)
    assert (res.value, res.evaluations) == (3, 27 * 3)
    assert res.witness.tables["g"] == (0,) * 27
    chk = check_embedding(spec, 3)
    assert chk.equal and chk.embedded.evaluations == 27 * (3 + 9)
    system = parse("instance { vars x, y; sig f/1, g/3; eq f(x) = y; }")
    assert brute_max_solutions(system, 3).evaluations == 27 * 9
    # the index range still covers every symbol, so no witness is built
    # with an all-zero table of 2^70 entries
    wide = parse("dispersion { inputs x; sig f/1, g/70; outputs f(x); }")
    with pytest.raises(BudgetError, match="index range"):
        brute_dispersion(wide, 2)


def test_index_width_guard():
    sig = Signature(symbols=(("f", 32),))
    system = TermSystem(variables=("x",), signature=sig,
                        equations=(Equation(App("f", (Var("x"),) * 32),
                                            Var("x")),))
    with pytest.raises(BudgetError):
        brute_max_solutions(system, 4)


def test_alphabet_preconditions():
    with pytest.raises(PreconditionError):
        brute_dispersion(load("diamond.disp"), 0)
    assert brute_dispersion(load("diamond.disp"), 1).value == 1
    with pytest.raises(ValidationError):
        SearchBudget(max_evaluations=0)


@pytest.mark.parametrize("n", [1.5, 2.0])
def test_alphabet_size_must_be_an_integer(n):
    # each search refuses a float n before anything else reads it
    spec, fx = load("diamond.disp"), load("fx.inst")
    loop, _ = pipeline(parse("instance { vars x; sig f/1; eq f(x) = x; }"))
    searches = [
        lambda: brute_dispersion(spec, n), lambda: check_perfect_fixed(spec, n),
        lambda: check_embedding(spec, n), lambda: brute_max_solutions(fx, n),
        lambda: brute_guessing(load("cycle3.graph"), n),
        lambda: sandwich_check(loop, n),
        lambda: check_solutions_equal_winning(diversify(loop), n),
        lambda: interpretation_at(spec.signature, n, 0)]
    for search in searches:
        with pytest.raises(ValidationError, match="must be an integer"):
            search()


def test_budget_limits_must_be_integers():
    for limits in ((1.5, 1), ("a", 1), (1, 2.0)):
        with pytest.raises(ValidationError, match="must be an integer"):
            SearchBudget(*limits)


def test_refusing_a_normal_system_builds_no_dag():
    # a normal system builds its DAG on first use; admission reads its
    # variables and equations instead, so a refused search builds none
    coding = diversify(pipeline(load("index_coding.inst"))[0])
    fx, _ = pipeline(load("fx.inst"))
    with patch.object(normalize, "term_dag", wraps=normalize.term_dag) as build:
        with pytest.raises(BudgetError):
            brute_max_solutions(coding, 2, SearchBudget(10, 10))
        with pytest.raises(BudgetError):
            sandwich_check(fx, 40, SearchBudget(10, 10))
        assert build.call_count == 0
        brute_max_solutions(fx, 2)  # an admitted search builds it once
        assert build.call_count == 1


def test_a_refused_check_runs_no_scan(monkeypatch):
    # every scan of a check is admitted before the first runs: sandwich's
    # second scan, of f@0 and f@1 at n = 5 (1.2e9 evaluations), is refused,
    # so its first, of f alone, never runs.  A game has one player table
    # per diversified symbol, over that symbol's distinct arguments, so it
    # is never charged more than its system: the budget refuses both.
    system, _ = pipeline(parse("instance { vars a, b, c; sig f/1; "
                               "eq f(a) = b; eq f(b) = c; }"))
    calls = []

    def counting(name, run):
        def wrapper(*args):
            calls.append(name)
            return run(*args)
        return wrapper

    monkeypatch.setattr(kernel, "_chunks", counting("scan", kernel._chunks))
    monkeypatch.setattr(normalize, "term_dag", counting("dag", term_dag))
    monkeypatch.setattr(oracle, "graph_system", counting("game", graph_system))
    tight = SearchBudget(max_evaluations=1000)
    for check, obj, n, budget in [
            (sandwich_check, system, 5, oracle.DEFAULT_BUDGET),
            (check_solutions_equal_winning, diversify(system), 3, tight),
            (brute_guessing, dependency_graph(system), 3, tight)]:
        with pytest.raises(BudgetError):
            check(obj, n, budget)
    assert calls == []


def test_each_scan_is_admitted_against_the_whole_budget():
    # fx's sandwich scans charge 16, 16 and 1 evaluations over 4, 4 and 1
    # interpretations at n = 2: each fits (16, 4), their sum would not
    fx, _ = pipeline(load("fx.inst"))
    assert sandwich_check(fx, 2, SearchBudget(16, 4)).ok
    with pytest.raises(BudgetError) as exc:
        sandwich_check(fx, 2, SearchBudget(15, 4))
    assert (exc.value.interpretations, exc.value.evaluations) == (4, 16)


def test_only_search_admits_and_scans():
    # one admission per check: `_search` admits and runs every scan of a
    # check, and `check_embedding` admits its recount before its search
    callers = {"_admit": set(), "_scan": set()}
    for top in ast.parse(Path(oracle.__file__).read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in callers:
                    callers[name].add(getattr(top, "name", None))
    assert callers == {"_admit": {"_search", "check_embedding"},
                       "_scan": {"_search"}}


# ---- scalar evaluators -------------------------------------------------------

def test_count_solutions_scalar():
    system = load("fx.inst")
    ident = Interpretation(n=2, tables={"f": (0, 1)})
    assert count_solutions(system, ident) == 2


def test_image_of_scalar():
    witness = Interpretation(n=2, tables={"f": (0, 0, 0, 1)})
    assert len(image_of(load("diamond.disp"), witness)) == 10


def test_count_winning_scalar():
    copy = Interpretation(n=2, tables={"a": (0, 1), "b": (0, 1),
                                       "c": (0, 1)})
    assert count_winning(load("cycle3.graph"), copy) == 2
    # one table per player, over its in-neighborhood
    for tables in ({"a": (0, 1), "b": (0, 1)},
                   {"a": (0, 1), "b": (0, 1), "c": (0, 1, 1, 0)}):
        with pytest.raises(ValidationError):
            count_winning(load("cycle3.graph"), Interpretation(2, tables))


# ---- dispersion -------------------------------------------------------------

def test_diamond_dispersion_n2():
    res = brute_dispersion(load("diamond.disp"), 2)
    assert res.value == 10
    assert res.witness.tables["f"] == (0, 0, 0, 1)
    assert res.evaluations == 256
    assert abs(res.rate - math.log2(10)) < 1e-12
    assert len(image_of(load("diamond.disp"), res.witness)) == 10


def test_diamond_dispersion_n3():
    res = brute_dispersion(load("diamond.disp"), 3)
    assert res.value == 53
    assert len(image_of(load("diamond.disp"), res.witness)) == 53


@pytest.mark.parametrize("name,n,value", [
    ("projections.disp", 2, 4),
    ("constants.disp", 2, 1),
    ("fg.disp", 2, 2),
    ("fg.disp", 3, 3),
    ("single_var.disp", 2, 2),
    ("single_fn.disp", 2, 2),
    ("single_fn.disp", 3, 3),
    ("shared_subterm.disp", 2, 2),
    ("encode_pair.disp", 2, 2),
    ("nested_r1.disp", 2, 2),
    ("pad_base.disp", 2, 2),
])
def test_small_dispersion_values(name, n, value):
    res = brute_dispersion(load(name), n)
    assert res.value == value
    assert len(image_of(load(name), res.witness)) == value


def test_projection_dispersion_has_no_tables():
    res = brute_dispersion(load("projections.disp"), 2)
    assert res.witness.tables == {}
    assert res.evaluations == 4


def test_witness_is_least_index():
    # every strictly smaller interpretation index gives a smaller image
    spec = load("diamond.disp")
    res = brute_dispersion(spec, 2)
    witness_index = 1  # f = (0,0,0,1) is interpretation index 1
    assert interpretation_at(spec.signature, 2, witness_index) == res.witness
    for idx in range(witness_index):
        smaller = interpretation_at(spec.signature, 2, idx)
        assert len(image_of(spec, smaller)) < res.value


# ---- solution counting ------------------------------------------------------

def test_max_solutions_small_systems():
    assert brute_max_solutions(load("fx.inst"), 2).value == 2
    assert brute_max_solutions(load("two_cycle.inst"), 2).value == 2
    assert brute_max_solutions(load("two_cycle.inst"), 3).value == 3
    assert brute_max_solutions(load("collision.inst"), 2).value == 2


def test_index_coding_solution_count():
    res = brute_max_solutions(load("index_coding.inst"), 2)
    assert res.value == 4
    assert res.witness.tables["f"] == (0, 0, 0, 1, 1, 0, 0, 0)
    assert res.witness.tables["h1"] == (0, 1, 1, 0)
    assert res.evaluations == 16777216
    assert count_solutions(load("index_coding.inst"), res.witness) == 4


@pytest.mark.parametrize("name", ["fx.inst", "two_cycle.inst",
                                  "collision.inst", "cascade.inst",
                                  "flatten_nested.inst", "two_sided.inst"])
def test_witness_recount_matches_value(name):
    system = load(name)
    res = brute_max_solutions(system, 2)
    assert count_solutions(system, res.witness) == res.value


# ---- perfection -------------------------------------------------------------

def test_diamond_is_never_perfect():
    dec2 = check_perfect_fixed(load("diamond.disp"), 2)
    assert not dec2.perfect
    assert dec2.target == 16 and dec2.max_image == 10
    assert dec2.interpretations == 16
    dec3 = check_perfect_fixed(load("diamond.disp"), 3)
    assert not dec3.perfect
    assert dec3.target == 81 and dec3.max_image == 53
    assert dec3.interpretations == 19683


def test_perfect_hits_exit_early():
    dec = check_perfect_fixed(load("projections.disp"), 2)
    assert dec.perfect and dec.target == 4
    assert dec.interpretations == 1 and dec.evaluations == 4
    dec = check_perfect_fixed(load("encode_pair.disp"), 2)
    assert dec.perfect
    assert dec.interpretations < 16  # stopped at the first surjection
    assert len(image_of(load("encode_pair.disp"), dec.witness)) == dec.target


def test_perfect_matches_dispersion_value():
    for name in ("single_var.disp", "single_fn.disp", "constants.disp",
                 "encode_pair.disp", "nested_r1.disp", "diamond.disp"):
        spec = load(name)
        dec = check_perfect_fixed(spec, 2)
        disp = brute_dispersion(spec, 2)
        assert dec.perfect == (disp.value == dec.target)


# ---- guessing games ----------------------------------------------------------

def test_cycle_game_values():
    assert brute_guessing(load("cycle3.graph"), 2).value == 2
    assert brute_guessing(load("cycle3.graph"), 3).value == 3
    assert brute_guessing(load("cycle2.graph"), 2).value == 2
    assert brute_guessing(load("clique2.graph"), 2).value == 2
    res = brute_guessing(load("cycle3.graph"), 2)
    assert res.rate == 1.0
    assert count_winning(load("cycle3.graph"), res.witness) == 2


def test_single_source_game():
    norm, _ = pipeline(load("fx.inst"))
    graph = dependency_graph(norm)
    assert brute_guessing(graph, 5).value == 5


def test_game_value_at_least_source_configurations():
    names = ["cycle2.graph", "cycle3.graph", "clique2.graph"]
    for name in names:
        g = load(name)
        assert brute_guessing(g, 2).value >= 2 ** len(g.sources)
    norm, _ = pipeline(load("index_coding.inst"))
    g = dependency_graph(norm)
    assert brute_guessing(g, 2).value >= 2 ** len(g.sources)


def test_source_loops_preserve_game_value():
    system = TermSystem(variables=("x", "y", "z"),
                        signature=Signature(symbols=(("f", 2),)),
                        equations=(Equation(App("f", (Var("x"), Var("y"))),
                                            Var("z")),))
    norm, _ = pipeline(system)
    g = dependency_graph(norm)
    assert brute_guessing(g, 2).value == 4
    assert brute_guessing(add_source_loops(g), 2).value == 4


def test_vertices_may_shadow_symbol_names():
    # vertex names live in a namespace of their own
    g = DependencyGraph(vertices=("f", "g"),
                        edges=frozenset({("f", "g")}),
                        sources=frozenset({"f"}))
    assert brute_guessing(g, 2).value == 2


def test_strategy_witness_validates():
    g = load("cycle3.graph")
    res = brute_guessing(g, 2)
    assert isinstance(res.witness, Interpretation)
    res.witness.validate_against(graph_system(g).signature)
    assert set(res.witness.tables) == {"a", "b", "c"}


def _space(signature, n, *dags):
    """The symbols a scan of `dags` reads, in signature order, and their
    interpretation count."""
    applied = {symbol for dag in dags for symbol, _ in dag.ops}
    used = tuple((s, a) for s, a in signature.symbols if s in applied)
    return used, math.prod(n ** n ** arity for _, arity in used)


def _pseudo_symbol_guessing(graph, n, budget):
    """Reference game scan: one pseudo-symbol per player and a DAG of
    `v(in-neighbours) = v` built here, fed straight to the scan kernel."""
    nbrs = {v: graph.in_neighbors(v) for v in graph.vertices
            if v not in graph.sources}
    pseudo = Signature(tuple((v, len(us)) for v, us in nbrs.items()))
    dag = term_dag(graph.vertices, [
        t for v, us in nbrs.items()
        for t in (App(v, tuple(Var(u) for u in us)), Var(v))])
    used, total = oracle._admit(pseudo.symbols, n, n ** len(dag.inputs),
                                budget)
    value, index = kernel._scan("count", used, dag, n)
    return OracleResult(value, kernel._witness(pseudo, used, n, index),
                        total * n ** len(dag.inputs))


@st.composite
def _small_graphs(draw):
    """1-4 vertices with any edges (self-loops included); sources are drawn
    among the vertices without in-edges, as in a dependency graph."""
    vertices = tuple("abcd"[:draw(st.integers(1, 4))])
    edges = draw(st.frozensets(st.tuples(st.sampled_from(vertices),
                                         st.sampled_from(vertices))))
    free = [v for v in vertices if all(e[1] != v for e in edges)]
    sources = draw(st.frozensets(st.sampled_from(free))) if free else frozenset()
    return DependencyGraph(vertices, edges, sources)


@settings(max_examples=120, deadline=None)
@given(_small_graphs(), st.sampled_from([1, 2, 3]))
def test_game_as_system_matches_pseudo_symbol_scan(graph, n):
    budget = SearchBudget(max_evaluations=1 << 18)
    try:
        want = _pseudo_symbol_guessing(graph, n, budget)
    except BudgetError as exc:
        with pytest.raises(BudgetError) as got:
            brute_guessing(graph, n, budget)
        assert (got.value.interpretations, got.value.evaluations) == (
            exc.interpretations, exc.evaluations)
        return
    got = brute_guessing(graph, n, budget)
    assert got == want
    assert count_winning(graph, got.witness) == got.value


@settings(max_examples=60, deadline=None)
@given(_small_graphs())
def test_graph_system_round_trips(graph):
    system = graph_system(graph)
    assert dependency_graph(system) == graph
    assert system.signature.names == tuple(
        v for v in graph.vertices if v not in graph.sources)


@settings(max_examples=60, deadline=None)
@given(_small_graphs(), st.sampled_from([1, 2, 3]), st.data())
def test_game_solutions_are_the_strategy_wins(graph, n, data):
    # each player is a variable and also the symbol of its own table
    system = graph_system(graph)
    strategy = Interpretation(n, {
        name: tuple(data.draw(st.lists(st.integers(0, n - 1),
                                       min_size=n ** a, max_size=n ** a)))
        for name, a in system.signature.symbols})
    assert count_solutions(system, strategy) == count_winning(graph, strategy)


@pytest.mark.parametrize("name", corpus_names(".graph"))
def test_corpus_game_solutions_are_the_strategy_wins(name):
    graph = load(name)
    for n in (2, 3):
        strategy = brute_guessing(graph, n).witness
        assert (count_solutions(graph_system(graph), strategy)
                == count_winning(graph, strategy))


def test_kernel_routes_build_no_term_system(monkeypatch):
    system = load("cycle3.inst")
    flat = flatten(system)
    norm, _ = pipeline(system)
    want = brute_max_solutions(norm, 3)

    def refuse(self):
        raise AssertionError("a kernel route built a TermSystem")

    monkeypatch.setattr(NormalSystem, "to_term_system", refuse)
    assert brute_max_solutions(norm, 3) == want
    assert brute_max_solutions(system, 3) == want
    assert brute_guessing(dependency_graph(norm), 3).value == 3
    assert first_mismatch(flat, norm, 3)[0] is None
    assert check_solutions_equal_winning(diversify(norm), 2).equal


def test_refused_game_builds_no_dag(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return term_dag(*args)

    monkeypatch.setattr(normalize, "term_dag", counting)
    chain = DependencyGraph(tuple(f"v{i}" for i in range(40)),
                            frozenset((f"v{i}", f"v{i + 1}") for i in range(39)),
                            frozenset({"v0"}))
    with pytest.raises(BudgetError):
        brute_guessing(chain, 2)
    assert calls == []
    brute_guessing(load("cycle3.graph"), 2)  # an admitted game builds one
    assert len(calls) == 1


def _chain(k, last=None):
    """The path v0 -> v1 -> ... -> v(k-1), with v0 free; the last player
    may be renamed."""
    vertices = tuple(f"v{i}" for i in range(k - 1)) + (last or f"v{k - 1}",)
    return DependencyGraph(vertices, frozenset(zip(vertices, vertices[1:])),
                           frozenset({"v0"}))


def test_refused_game_is_never_built(monkeypatch):
    # the budget reads the players' arities: 9 players of arity 1 at n = 2
    # are 4^9 strategies x 2^10 configurations
    def refuse(graph):
        raise AssertionError("a refused game was built")

    monkeypatch.setattr(oracle, "graph_system", refuse)
    with pytest.raises(BudgetError) as exc:
        brute_guessing(_chain(10), 2)
    assert (exc.value.interpretations, exc.value.evaluations) == (
        4 ** 9, 4 ** 9 * 2 ** 10)
    with pytest.raises(BudgetError, match="index range"):
        brute_guessing(_chain(100), 2)


def test_budget_refusal_wins_over_a_bad_vertex_name():
    # an API-built graph may carry a name that no symbol can have; the
    # budget is checked first, so an over-budget game is refused (exit 4)
    # and only an admitted one reaches the name check (exit 2)
    with pytest.raises(BudgetError):
        brute_guessing(_chain(10, "not a name"), 2)
    with pytest.raises(ValidationError):
        brute_guessing(_chain(2, "not a name"), 2)
    brute_guessing(_chain(2), 2)
    # a system is no game: it is refused, not scanned for its solutions
    with pytest.raises(PreconditionError, match="not a dependency graph"):
        brute_guessing(load("fx.inst"), 2)


# ---- solutions vs winning -----------------------------------------------------

def test_solutions_equal_winning_small():
    norm, _ = pipeline(load("fx.inst"))
    eq = check_solutions_equal_winning(diversify(norm), 2)
    assert eq.equal
    assert eq.solutions.value == 2 and eq.winning.value == 2


def test_solutions_equal_winning_index_coding():
    norm, _ = pipeline(load("index_coding.inst"))
    eq = check_solutions_equal_winning(diversify(norm), 2)
    assert eq.equal
    assert eq.solutions.value == 4 and eq.winning.value == 4


def test_solutions_equal_winning_gates():
    norm, _ = pipeline(load("two_sided.inst"))
    with pytest.raises(PreconditionError):
        check_solutions_equal_winning(diversify(norm), 2)
    shared, _ = pipeline(load("two_cycle.inst"))
    with pytest.raises(PreconditionError):
        check_solutions_equal_winning(shared, 2)  # not diversified


# ---- preservation -------------------------------------------------------------

@pytest.mark.parametrize("name,interps", [
    ("flatten_nested.inst", 16),
    ("two_sided.inst", 16),
    ("collision.inst", 4),
    ("cascade.inst", 16),
    ("fx.inst", 4),
])
def test_pipeline_preserves_counts(name, interps):
    system = load(name)
    norm, _ = pipeline(system)
    assert first_mismatch(system, norm, 2) == (None, interps)


def test_count_preservation_detects_differences():
    sig = Signature(symbols=(("f", 1),))
    before = TermSystem(variables=("x", "y"), signature=sig,
                        equations=(Equation(App("f", (Var("x"),)), Var("y")),))
    after = TermSystem(variables=("x", "y"), signature=sig,
                       equations=(Equation(App("f", (Var("x"),)), Var("x")),))
    # f = (0,1) fixes both points of x = f(x)
    assert first_mismatch(before, after, 2)[0] == 1


# ---- block encodings and lifting ----------------------------------------------

def test_canonical_block_encoding():
    enc = BlockEncoding(4, 2)
    assert enc.m == 2
    assert enc.blocks == ((0, 1), (2, 3))
    enc5 = BlockEncoding(5, 2)
    assert enc5.blocks == ((0, 1), (2, 3))  # element 4 stays unused
    one = BlockEncoding(True, True)  # bools are integers, stored as ints
    assert (one.n, one.v, one.blocks) == (1, 1, ((0,),))
    assert type(one.n) is type(one.v) is int


def test_block_encoding_validation():
    # v = 0 once divided by zero; v = 2.0 was built, then `blocks` failed
    for n, v in ((4, 0), (4, -1), (2, 3), (4, 2.0)):
        with pytest.raises(ValidationError):
            BlockEncoding(n, v)


def test_lift_interpretation_recount():
    norm, _ = pipeline(load("fx.inst"))
    div = diversify(norm)
    small = brute_max_solutions(div, 2)
    enc = BlockEncoding(4, 2)
    lifted = lift_interpretation(norm, small.witness, enc)
    assert lifted.n == 4
    assert count_solutions(norm, lifted) >= small.value
    lifted.validate_against(norm.signature)


_SCALAR_PROBE = """
import sys
from termflow.corpus import corpus_path
from termflow.dsl import parse
from termflow.normalize import pipeline
from termflow.oracle import (BlockEncoding, count_solutions, count_winning,
                             image_of, lift_interpretation)
from termflow.terms import Interpretation

def load(name):
    return parse(corpus_path(name).read_text())

norm, _ = pipeline(load("fx.inst"))
lifted = lift_interpretation(norm, Interpretation(2, {"f@0": (0, 1)}),
                             BlockEncoding(4, 2))
copy = Interpretation(2, {"a": (0, 1), "b": (0, 1), "c": (0, 1)})
meet = Interpretation(2, {"f": (0, 0, 0, 1)})
print(len(image_of(load("diamond.disp"), meet)),
      count_winning(load("cycle3.graph"), copy),
      count_solutions(load("fx.inst"), Interpretation(2, {"f": (1, 0)})),
      lifted.tables["f"], count_solutions(norm, lifted),
      "numpy" in sys.modules)
"""


def test_scalar_route_needs_no_numpy():
    # the reference route shares no code with the numpy scan kernel
    proc = subprocess.run([sys.executable, "-c", _SCALAR_PROBE],
                          capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"10 2 2 (2, 3, 0, 0) 4 False\n"


def test_lift_preconditions():
    norm, _ = pipeline(load("fx.inst"))
    div = diversify(norm)
    small = brute_max_solutions(div, 2).witness
    with pytest.raises(PreconditionError):
        lift_interpretation(norm, small, BlockEncoding(6, 3))
    wrong_sig = Interpretation(n=2, tables={"f": (0, 1)})
    with pytest.raises(PreconditionError):
        lift_interpretation(norm, wrong_sig, BlockEncoding(4, 2))
    bad, _ = pipeline(load("two_sided.inst"))
    with pytest.raises(PreconditionError):
        lift_interpretation(bad, small, BlockEncoding(4, 2))


def test_sandwich_fx():
    norm, _ = pipeline(load("fx.inst"))
    rep = sandwich_check(norm, 4)
    assert rep.ok and rep.upper_ok and rep.lower_ok and rep.lift_ok
    assert (rep.n, rep.v, rep.m) == (4, 2, 2)
    assert rep.original.value == 4
    assert rep.diversified_same_n.value == 4
    assert rep.diversified_small.value == 2
    assert rep.lifted_count == 4


def test_sandwich_two_cycle():
    norm, _ = pipeline(load("two_cycle.inst"))
    rep = sandwich_check(norm, 4)
    assert rep.ok
    assert rep.original.value == 4
    assert rep.diversified_small.value == 2
    assert rep.lifted_count == 4


def test_sandwich_preconditions():
    norm, _ = pipeline(load("fx.inst"))
    with pytest.raises(PreconditionError):
        sandwich_check(norm, 1)  # n below the variable count
    bad, _ = pipeline(load("two_sided.inst"))
    with pytest.raises(PreconditionError):
        sandwich_check(bad, 4)


# ---- embedding ----------------------------------------------------------------

def test_embedding_equalities():
    for name, n, value in (("single_var.disp", 2, 2), ("single_var.disp", 3, 3),
                           ("single_fn.disp", 2, 2)):
        chk = check_embedding(load(name), n)
        assert chk.equal
        assert chk.dispersion.value == value
        assert chk.embedded.value == value
    # scans a per-interpretation recount took seconds to minutes on
    for name, n in (("nested_r1.disp", 3), ("fg.disp", 4),
                    ("shared_subterm.disp", 4)):
        spec = load(name)
        chk = check_embedding(spec, n)
        assert chk.equal
        assert chk.embedded.value == brute_dispersion(spec, n).value


def test_embedding_diamond():
    spec = load("diamond.disp")
    chk = check_embedding(spec, 2)
    assert chk.equal
    assert chk.dispersion.value == 10 and chk.embedded.value == 10
    embedded = embed_dispersion(spec)
    assert count_solutions(embedded, chk.embedded.witness) == 10
    chk.embedded.witness.validate_against(embedded.signature)


def test_embedding_respects_budget():
    with pytest.raises(BudgetError):
        check_embedding(load("diamond.disp"), 4)


def _embedding_by_recount(spec, n, budget):
    """Reference embedding check: for every interpretation of the symbols
    the DAG uses, write each image point's least preimage into the
    decoders and re-count the embedded system through the scalar route;
    the first maximum wins."""
    embedded = embed_dispersion(spec)
    per = n ** spec.k + n ** (spec.k + spec.r)
    used, total = oracle._admit(spec.signature.symbols, n, per, budget,
                                spec.dag.ops)
    dispersion = brute_dispersion(spec, n, budget)
    decoders = embedded.signature.names[len(spec.signature.names):]
    outputs = [term_steps(t) for t in spec.outputs]
    best_value, best_witness = -1, None
    for index in range(total):
        interp = kernel._witness(spec.signature, used, n, index)
        chosen = {}
        for assign in assignments(spec.inputs, n):
            outs = tuple(run_steps(t, interp, assign) for t in outputs)
            if outs not in chosen:
                chosen[outs] = tuple(assign[x] for x in spec.inputs)
        tables = dict(interp.tables)
        for j, h in enumerate(decoders):
            entries = [0] * (n ** spec.r)
            for outs, preimage in chosen.items():
                entries[table_index(n, outs)] = preimage[j]
            tables[h] = tuple(entries)
        full = Interpretation(n, tables)
        value = count_solutions(embedded, full)
        if value > best_value:
            best_value, best_witness = value, full
    result = OracleResult(best_value, best_witness, total * per)
    return EmbeddingCheck(dispersion.value == best_value, dispersion, result)


@st.composite
def _embedding_specs(draw):
    """1-2 inputs, 1-2 outputs and up to two symbols of arity 0-2, some
    possibly unused (the budget charges only the used ones)."""
    inputs = _vars[:draw(st.integers(1, 2))]
    arities = draw(st.lists(st.integers(0, 2), min_size=1, max_size=2))
    symbols = tuple((f"s{i}", a) for i, a in enumerate(arities))
    leaves = [Var(v) for v in inputs] + [App(s, ()) for s, a in symbols
                                         if a == 0]

    def term(depth):
        if depth == 0 or draw(st.integers(0, 2)) == 0:
            return draw(st.sampled_from(leaves))
        s, a = draw(st.sampled_from(symbols))
        return App(s, tuple(term(depth - 1) for _ in range(a)))

    outputs = tuple(term(2) for _ in range(draw(st.integers(1, 2))))
    return DispersionSpec(inputs=inputs, signature=Signature(symbols),
                          outputs=outputs)


@settings(max_examples=80, deadline=None)
@given(_embedding_specs(), st.sampled_from([1, 2, 3]))
def test_embedding_matches_per_interpretation_recount(spec, n):
    budget = SearchBudget(max_evaluations=1 << 12)
    try:
        want = _embedding_by_recount(spec, n, budget)
    except BudgetError as exc:
        with pytest.raises(BudgetError) as got:
            check_embedding(spec, n, budget)
        assert (got.value.interpretations, got.value.evaluations) == (
            exc.interpretations, exc.evaluations)
        return
    got = check_embedding(spec, n, budget)
    assert got == want  # equal, values, witnesses and evaluations
    assert got.equal


def test_embedding_recounts_one_witness(monkeypatch):
    calls = []
    recount = oracle.count_solutions

    def counting(system, interp):
        calls.append(interp)
        return recount(system, interp)

    monkeypatch.setattr(oracle, "count_solutions", counting)
    chk = check_embedding(load("diamond.disp"), 2)
    assert calls == [chk.embedded.witness]


# ---- randomized cross-checks ---------------------------------------------------

_vars = ("x", "y")


@st.composite
def _tiny_systems(draw):
    arity = draw(st.integers(1, 2))
    symbols = (("f", arity),)

    def term(depth):
        if depth == 0 or draw(st.booleans()):
            return Var(draw(st.sampled_from(_vars)))
        return App("f", tuple(term(depth - 1) for _ in range(arity)))

    eqs = tuple(Equation(term(1), term(1))
                for _ in range(draw(st.integers(1, 2))))
    return TermSystem(variables=_vars, signature=Signature(symbols=symbols),
                      equations=eqs)


@settings(max_examples=40, deadline=None)
@given(_tiny_systems())
def test_random_witness_recount(system):
    res = brute_max_solutions(system, 2)
    assert 1 <= res.value <= 4  # all-zero tables satisfy the all-zero point
    assert count_solutions(system, res.witness) == res.value
    assert brute_max_solutions(system, 2) == res


@st.composite
def _tiny_specs(draw):
    arity = draw(st.integers(1, 2))
    symbols = (("f", arity),)

    def term(depth):
        if depth == 0 or draw(st.booleans()):
            return Var(draw(st.sampled_from(_vars)))
        return App("f", tuple(term(depth - 1) for _ in range(arity)))

    outputs = tuple(term(2) for _ in range(draw(st.integers(1, 2))))
    return DispersionSpec(inputs=_vars, signature=Signature(symbols=symbols),
                          outputs=outputs)


@settings(max_examples=40, deadline=None)
@given(_tiny_specs())
def test_random_dispersion_bounds(spec):
    from termflow.flownet import dispersion_exponent
    res = brute_dispersion(spec, 2)
    assert 1 <= res.value <= 2 ** dispersion_exponent(spec).D
    assert len(image_of(spec, res.witness)) == res.value


@settings(max_examples=25, deadline=None)
@given(_tiny_systems())
def test_random_pipeline_preserves_counts(system):
    norm, _ = pipeline(system)
    first, _ = first_mismatch(system, norm, 2)
    assert first is None, first


# ---- the grid scan kernel --------------------------------------------------------
#
# `_chunks` and `_scan` are pinned to the scalar route index by index.
# Shrinking `_CHUNK_CELLS` makes a scan span many chunks, down to one
# interpretation each.

_KERNEL_VARS = ("x", "y", "z")


def _scalar_values(kind, obj, n):
    """Per interpretation index, the scalar route's count or image size."""
    total = interpretation_count(obj.signature, n)
    interps = (interpretation_at(obj.signature, n, i) for i in range(total))
    if kind == "count":
        return [count_solutions(obj, it) for it in interps]
    return [len(image_of(obj, it)) for it in interps]


def _kernel_scan(kind, obj, n, ceiling=None):
    used, _ = _space(obj.signature, n, obj.dag)
    return kernel._scan(kind, used, obj.dag, n, ceiling)


def _no_swaps(symbols, digits):
    """`_transpositions` for the unpruned scan."""
    return []


def _kernel_values(kind, obj, n, pruned=False):
    """`_chunks` values per index of the kernel's space (the symbols the
    DAG uses), unpruned unless `pruned`; -1 marks an index the kernel did
    not evaluate, which only the pruned scan skips."""
    used, total = _space(obj.signature, n, obj.dag)
    swaps = kernel._transpositions if pruned else _no_swaps
    out, last = [-1] * total, -1
    with patch.object(kernel, "_transpositions", swaps):
        for indices, vals in kernel._chunks(kind, used, obj.dag, n):
            assert len(indices) == len(vals) > 0
            for i, v in zip(indices.tolist(), vals.tolist()):
                assert i > last  # in increasing index order
                out[i], last = v, i
    assert pruned or -1 not in out
    return out


@st.composite
def _kernel_cases(draw):
    """(kind, system or spec, n) over 0-3 variables and up to three
    symbols of arity 0-2, every symbol used, small enough to recount."""
    n = draw(st.sampled_from([2, 3, 1]))
    kind = draw(st.sampled_from(["count", "image"]))
    k = draw(st.integers(1 if kind == "image" else 0, 3))
    variables = _KERNEL_VARS[:k]
    arities = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    symbols = [(f"s{i}", a) for i, a in enumerate(arities)]
    leaves = [Var(v) for v in variables] + [App(s, ()) for s, a in symbols
                                            if a == 0]
    assume(leaves)

    def term(depth):
        if depth == 0 or draw(st.integers(0, 2)) == 0:
            return draw(st.sampled_from(leaves))
        s, a = draw(st.sampled_from(symbols))
        return App(s, tuple(term(depth - 1) for _ in range(a)))

    terms = [term(3) for _ in range(draw(st.integers(1, 4)))]
    if kind == "count" and len(terms) % 2:
        terms.append(term(3))
    used = {s.symbol for t in terms for s in _subterms(t) if isinstance(s, App)}
    sig = Signature(symbols=tuple((s, a) for s, a in symbols if s in used))
    assume(interpretation_count(sig, n) * n ** k <= 1 << 13)
    if kind == "image":
        return kind, DispersionSpec(inputs=variables, signature=sig,
                                    outputs=tuple(terms)), n
    eqs = tuple(Equation(a, b) for a, b in zip(terms[::2], terms[1::2]))
    return kind, TermSystem(variables=variables, signature=sig,
                            equations=eqs), n


def _subterms(t):
    stack = [t]
    while stack:
        t = stack.pop()
        yield t
        if isinstance(t, App):
            stack.extend(t.args)


@settings(max_examples=150, deadline=None)
@given(_kernel_cases(), st.sampled_from([1, 8, 64, 1 << 18]), st.data())
def test_grid_kernel_matches_scalar_route(case, cells, data):
    kind, obj, n = case
    values = _scalar_values(kind, obj, n)
    best = max(values)
    # a ceiling no value exceeds: the max itself, where the scan stops at
    # the chunk of its least index, or one above it, never reached
    ceiling = data.draw(st.sampled_from([None, best, best + 1]))
    with patch.object(kernel, "_CHUNK_CELLS", cells):
        assert _kernel_values(kind, obj, n) == values
        assert _kernel_scan(kind, obj, n, ceiling) == (best, values.index(best))


def test_chunk_cells_patch_reaches_the_kernel():
    # the tests that patch `kernel._CHUNK_CELLS` rely on the kernel reading
    # it per scan: at one cell a chunk is one interpretation
    spec = load("diamond.disp")
    used, total = _space(spec.signature, 2, spec.dag)
    with patch.object(kernel, "_CHUNK_CELLS", 1):
        chunks = list(kernel._chunks("image", used, spec.dag, 2))
    assert len(chunks) == total > 1


@pytest.mark.parametrize("kind,text,n", [
    # n = 1: one interpretation, one assignment
    ("image", "dispersion { inputs x, y; sig f/2; outputs f(x, y), y; }", 1),
    ("count", "instance { vars x; sig f/1; eq f(f(x)) = x; }", 1),
    # nullary symbols, alone and as arguments
    ("image", "dispersion { inputs x; sig c/0, f/2; "
              "outputs c(), f(x, c()), f(c(), c()); }", 2),
    ("count", "instance { vars x, y; sig c/0, f/1; "
              "eq f(c()) = x; eq c() = f(y); }", 3),
    # terms that use no symbol: a zero-digit interpretation space
    ("image", "dispersion { inputs x, y; sig ; outputs y, x, x; }", 3),
    ("count", "instance { vars x, y, z; sig f/1; eq x = y; eq z = z; }", 2),
    ("count", "instance { vars x, y; sig f/1; }", 3),
    # no variables at all (k = 0)
    ("count", "instance { vars ; sig c/0, d/0, f/1; "
              "eq c() = f(d()); eq f(c()) = d(); }", 3),
])
def test_grid_kernel_edge_cases(kind, text, n):
    obj = parse(text)
    values = _scalar_values(kind, obj, n)
    # the kernel enumerates only the symbols the DAG uses; the others keep
    # their all-zero tables (`sig f/1` unused: one interpretation)
    used, total = _space(obj.signature, n, obj.dag)
    space = [kernel._witness(obj.signature, used, n, i) for i in range(total)]
    want = [count_solutions(obj, it) if kind == "count"
            else len(image_of(obj, it)) for it in space]
    for cells in (1, 1 << 18):
        with patch.object(kernel, "_CHUNK_CELLS", cells):
            assert _kernel_values(kind, obj, n) == want
    best = max(values)
    res = (brute_dispersion(obj, n) if kind == "image"
           else brute_max_solutions(obj, n))
    assert res.value == best
    assert res.witness == interpretation_at(obj.signature, n,
                                            values.index(best))


@pytest.mark.parametrize("r", [17, 33])
def test_grid_kernel_wide_output_codes(r):
    # n^r = 2^17 needs int32 codes and 2^33 int64: narrower codes would
    # wrap and lose the first output, which is the only one reading x
    outs = ", ".join(["f(x, y)"] + ["g(y)"] * (r - 1))
    spec = parse(f"dispersion {{ inputs x, y; sig f/2, g/1; "
                 f"outputs {outs}; }}")
    values = _scalar_values("image", spec, 2)
    assert _kernel_values("image", spec, 2) == values
    assert brute_dispersion(spec, 2).value == max(values) == 4


def test_perfect_early_exit_hit_index():
    spec = load("encode_pair.disp")
    values = _scalar_values("image", spec, 2)
    first = values.index(spec_target := 2 ** spec.r)
    assert first > 0 and first + 1 < len(values)
    for cells in (1, 8, 1 << 18):
        with patch.object(kernel, "_CHUNK_CELLS", cells):
            dec = check_perfect_fixed(spec, 2)
        assert dec.perfect and dec.target == spec_target
        assert dec.interpretations == first + 1
        assert dec.evaluations == (first + 1) * 2 ** spec.k
        assert dec.witness == interpretation_at(spec.signature, 2, first)


@settings(max_examples=60, deadline=None)
@given(_tiny_systems(), _tiny_systems(), st.sampled_from([1, 8, 1 << 18]))
def test_count_preservation_first_mismatch(before, after, cells):
    assume(before.signature == after.signature)
    counts = [_scalar_values("count", s, 2) for s in (before, after)]
    diff = [i for i, (a, b) in enumerate(zip(*counts)) if a != b]
    with patch.object(kernel, "_CHUNK_CELLS", cells):
        first, _ = first_mismatch(before, after, 2)
    assert first == (diff[0] if diff else None)


# ---- ceiling stops ----------------------------------------------------------
#
# A max search stops at the first chunk reaching its ceiling, the most its
# value can be by the object's shape: n^min(k, r) image points, and
# n^(k - |A|) solutions for the variables A that `oracle._forced` finds
# forced by the others.  Its value and least witness are those of the
# uncapped scan.

def _check_ceiling_search(kind, obj, n):
    """Pin the oracle's ceiling search to the uncapped scan; return whether
    it stopped at the ceiling."""
    k = obj.k if kind == "image" else len(obj.variables)
    ceiling = n ** (min(k, obj.r) if kind == "image"
                    else k - oracle._forced(obj.dag, n).bit_count())
    search = brute_dispersion if kind == "image" else brute_max_solutions
    res = search(obj, n)  # first, so that a refusal scans nothing
    [(found, count, at)] = oracle._search(oracle.DEFAULT_BUDGET, (kind, obj, n))
    used, total = _space(obj.signature, n, obj.dag)
    value, index = kernel._scan(kind, used, obj.dag, n)
    witness = kernel._witness(obj.signature, used, n, index)
    # the closed-form evaluations, stop or not
    assert res == found == OracleResult(value, witness, total * n ** k)
    assert (count, at) == (total, index) and value <= ceiling
    return value == ceiling


@st.composite
def _ceiling_cases(draw):
    """(kind, system or spec, n) at n = 1, 2, 3 over 0-3 variables and up
    to three symbols of arity 0-2: specs with k < r and k > r, repeated
    outputs and constants; systems with no equations, with always-true
    ones such as f(x) = f(x), and with a definition v = t of each variable
    over the others, in a drawn order, which makes cycles such as
    x = f(y); y = g(x) common."""
    n = draw(st.sampled_from([1, 2, 3]))
    kind = draw(st.sampled_from(["count", "image"]))
    k = draw(st.integers(1 if kind == "image" else 0, 3))
    variables = _KERNEL_VARS[:k]
    arities = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    symbols = [(f"s{i}", a) for i, a in enumerate(arities)]
    leaves = [Var(v) for v in variables] + [App(s, ()) for s, a in symbols
                                            if a == 0]
    assume(leaves)

    def term(depth, pool=leaves):
        if depth == 0 or draw(st.integers(0, 2)) == 0:
            return draw(st.sampled_from(pool))
        s, a = draw(st.sampled_from(symbols))
        return App(s, tuple(term(depth - 1, pool) for _ in range(a)))

    terms = [term(2) for _ in range(draw(st.integers(
        1 if kind == "image" else 0, 4)))]
    if kind == "image":
        terms += draw(st.lists(st.sampled_from(terms), max_size=2))
    else:
        terms = [(t, draw(st.sampled_from([t, term(2)]))) for t in terms]
        terms = [t for pair in terms for t in pair]
        if draw(st.integers(0, 3)) < 3:  # 3 in 4, the simplest draw too
            for v in draw(st.permutations(variables)):
                others = [leaf for leaf in leaves if leaf != Var(v)]
                if others:
                    pair = [Var(v), term(2, others)]
                    terms += draw(st.sampled_from([pair, pair[::-1]]))
    used = {s.symbol for t in terms for s in _subterms(t)
            if isinstance(s, App)}
    sig = Signature(symbols=tuple((s, a) for s, a in symbols if s in used))
    assume(interpretation_count(sig, n) * n ** k <= 1 << 14)
    if kind == "image":
        return kind, DispersionSpec(inputs=variables, signature=sig,
                                    outputs=tuple(terms)), n
    eqs = tuple(Equation(a, b) for a, b in zip(terms[::2], terms[1::2]))
    return kind, TermSystem(variables=variables, signature=sig,
                            equations=eqs), n


@settings(max_examples=200, deadline=None)
@given(_ceiling_cases(), st.sampled_from([1, 8, 1 << 18]))
def test_ceiling_search_matches_uncapped_scan(case, cells):
    kind, obj, n = case
    with patch.object(kernel, "_CHUNK_CELLS", cells):
        _check_ceiling_search(kind, obj, n)


def _term_vars(t):
    return {s.name for s in _subterms(t) if isinstance(s, Var)}


@settings(max_examples=200, deadline=None)
@given(_ceiling_cases())
def test_forced_set_is_acyclic_in_join_order(case):
    # read off the equations' trees, not the DAG: each member v of A has
    # an equation v = t, either way round, whose t reads neither v nor any
    # member that joined before v, so fixing the variables outside A fixes
    # A's members from the last joined to the first
    kind, obj, n = case
    assume(kind == "count")
    mask = oracle._forced(obj.dag, n)
    forced = [v for i, v in enumerate(obj.variables) if mask >> i & 1]
    assert mask < 1 << len(obj.variables)
    assert n > 1 or not forced
    for j, v in enumerate(forced):
        earlier = set(forced[:j + 1])
        assert any(lhs == Var(v) and not _term_vars(rhs) & earlier
                   for eq in obj.equations
                   for lhs, rhs in ((eq.lhs, eq.rhs), (eq.rhs, eq.lhs)))


@pytest.mark.parametrize("text,forced,value", [
    # a cycle of definitions: x is forced by y, but y only by x
    ("instance { vars x, y; sig f/1, g/1; eq x = f(y); eq y = g(x); }",
     "x", 3),
    ("instance { vars x, y; sig f/1, g/1; eq f(y) = x; eq g(x) = y; }",
     "x", 3),
    # x = f(x) reads x itself: nothing is forced
    ("instance { vars x; sig f/1; eq x = f(x); }", "", 3),
    # a chain: each member reads only later members and z
    ("instance { vars x, y, z; sig f/1, g/2; eq x = g(y, z); eq y = f(z); }",
     "xy", 3),
    # y joins through its second equation, the first reading x in A
    ("instance { vars x, y, z; sig f/1, g/1; "
     "eq x = f(z); eq y = g(x); eq y = z; }", "xy", 3),
    # a variable equality forces its left side only
    ("instance { vars x, y; sig ; eq x = y; }", "x", 3),
], ids=["cycle", "cycle-flipped", "self-read", "chain", "second-equation",
        "equality"])
def test_forced_variables_and_their_ceiling(text, forced, value):
    system = parse(text)
    mask = oracle._forced(system.dag, 3)
    assert "".join(v for i, v in enumerate(system.variables)
                   if mask >> i & 1) == forced
    assert oracle._forced(system.dag, 1) == 0
    assert brute_max_solutions(system, 3).value == value
    assert _check_ceiling_search("count", system, 3)


@pytest.mark.parametrize("name", ["cycle2.graph", "cycle3.graph",
                                  "clique2.graph"])
@pytest.mark.parametrize("n", [2, 3])
def test_game_ceiling_is_the_game_value(name, n):
    # n^(|V| - |A|) is tight on these games: each scan ends at a hit
    graph = load(name)
    game = graph_system(graph)
    k = len(game.variables)
    ceiling = n ** (k - oracle._forced(game.dag, n).bit_count())
    assert brute_guessing(graph, n).value == ceiling
    [(res, _, index)] = oracle._search(oracle.DEFAULT_BUDGET, ("count", game, n))
    assert res.value == ceiling
    assert res.witness == interpretation_at(game.signature, n, index)


def _corpus_searches(name):
    """Every max search the CLI runs on a corpus file: (kind, object)."""
    obj = load(name)
    if name.endswith(".disp"):
        return [("image", obj)]
    if name.endswith(".graph"):
        return [("count", graph_system(obj))]
    norm, _ = pipeline(obj)
    searches = [("count", obj), ("count", norm)]
    for derived in (diversify, lambda s: graph_system(dependency_graph(s))):
        try:  # sandwich's diversified system, guess's game
            searches.append(("count", derived(norm)))
        except PreconditionError:  # not FNF: the CLI exits 3
            pass
    return searches


def test_corpus_ceiling_searches_match_uncapped_scans():
    ran = stopped = 0
    for name in corpus_names():
        for kind, obj in _corpus_searches(name):
            for n in (1, 2, 3):
                try:
                    stopped += _check_ceiling_search(kind, obj, n)
                except BudgetError:
                    continue
                ran += 1
    assert (ran, stopped) == (132, 120)


_DISP4 = ("dispersion { inputs x, y, z; sig f/2, g/1; outputs f(x, g(y)), "
          "g(f(x, z)), f(g(f(x, y)), g(z)), f(y, g(z)); }")


@pytest.mark.parametrize("text,guess,n,drawn,chunks", [
    (_DISP4, False, 3, 4, 45),  # reaches 27 = 3^3 at index 23,754 of 531,441
    ("diamond.disp", False, 3, 6, 6),  # never reaches 81: the max is 53
    # reaches 4 = 2^(4 - 2): x1 and x2 are forced, x3 and y are not
    ("index_coding.inst", False, 2, 7, 64),
    ("index_coding.inst", True, 2, 14, 64),  # its game, at 2^(4 - 2)
], ids=["disp4", "diamond", "index_coding", "index_coding.guess"])
def test_ceiling_stop_draws_fewer_chunks(monkeypatch, text, guess, n, drawn,
                                         chunks):
    # work, never wall time: the (indices, values) pairs `_scan` draws
    obj = parse(text) if "{" in text else load(text)
    if guess:
        obj = graph_system(dependency_graph(pipeline(obj)[0]))
    kind = "image" if isinstance(obj, DispersionSpec) else "count"
    used, _ = _space(obj.signature, n, obj.dag)
    assert len(list(kernel._chunks(kind, used, obj.dag, n))) == chunks
    every, pairs = kernel._chunks, []

    def counting(*args):
        for pair in every(*args):
            pairs.append(pair)
            yield pair

    monkeypatch.setattr(kernel, "_chunks", counting)
    search = brute_dispersion if kind == "image" else brute_max_solutions
    res = search(obj, n)
    assert len(pairs) == drawn
    if kind == "image" and drawn < chunks:
        assert res.value == n ** 3
        assert res.witness == interpretation_at(obj.signature, n, 23754)


def test_routes_share_no_code_with_flownet():
    # the ceiling, like everything else in a search, must never come from
    # the exponent D: each route is the independent check on the other
    src = Path(oracle.__file__).parent
    seen, todo = set(), ["oracle", "kernel"]
    while todo:
        module = todo.pop()
        if module in seen:
            continue
        seen.add(module)
        for node in ast.walk(ast.parse((src / f"{module}.py").read_text())):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            names = [a.name for a in node.names]
            if getattr(node, "level", 0):  # a termflow module: follow it
                todo += [node.module] if node.module else names
            else:
                names.append(getattr(node, "module", None) or "")
                assert not any("flownet" in a for a in names), module
    assert "flownet" not in seen
    assert {"oracle", "kernel", "terms"} <= seen


# ---- narrow reductions and per-scan gathers ---------------------------------
#
# `_satisfied` and `_distinct` sum in the narrowest unsigned dtype that holds
# n^k and return int64; `_chunks` builds an input-only op's row selection
# once per scan.

def _xs(k):
    return ", ".join(f"x{i}" for i in range(k))


@pytest.mark.parametrize("kind,text,n,value", [
    # 256 distinct codes: a uint8 sum of 1 + 255 code changes would wrap
    ("image", f"dispersion {{ inputs {_xs(8)}; sig f/1; "
              f"outputs {_xs(8)}, f(x0); }}", 2, 256),
    ("image", f"dispersion {{ inputs {_xs(5)}; sig f/1; "
              f"outputs {_xs(5)}, f(x0); }}", 3, 243),
    # two cells on f(x0)'s support, times 2^7 free assignments
    ("count", f"instance {{ vars {_xs(8)}; sig f/1; eq f(x0) = f(x0); }}",
     2, 256),
    # 256 cells: 64 and 256 of them satisfied
    ("count", f"instance {{ vars {_xs(4)}; sig f/1; eq f(x0) = x1; "
              f"eq x2 = x2; eq x3 = x3; }}", 4, 64),
    ("count", f"instance {{ vars {_xs(4)}; sig f/1; eq f(x0) = f(x0); "
              f"eq x1 = x1; eq x2 = x2; eq x3 = x3; }}", 4, 256),
], ids=["image256", "image243", "count256_free", "count64", "count256"])
def test_reductions_at_dtype_boundaries(kind, text, n, value):
    obj = parse(text)
    values = _scalar_values(kind, obj, n)
    assert set(values) == {value}
    assert _kernel_values(kind, obj, n) == values
    assert _kernel_values(kind, obj, n, pruned=True)[0] == value
    search = brute_dispersion if kind == "image" else brute_max_solutions
    res = search(obj, n)
    assert res.value == value
    assert res.witness == interpretation_at(obj.signature, n, 0)


@st.composite
def _reduction_grids(draw):
    """(kind, dag, vals, n, k, c): value arrays in kernel layout, the k
    inputs first as `_chunks` makes them, then up to three drawn nodes, each
    with size-1 axes off a drawn support and a chunk axis of length c or 1.
    The reductions read only the DAG's `outputs`; a count may have none."""
    n, k, c = draw(st.integers(1, 4)), draw(st.integers(0, 5)), draw(
        st.sampled_from([1, 2, 7, 16]))
    dtype = np.min_scalar_type(n - 1)
    vals = [np.arange(n, dtype=dtype).reshape(
        [n if j == i else 1 for j in range(k)] + [1]) for i in range(k)]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    for _ in range(draw(st.integers(0 if k else 1, 3))):
        shape = draw(st.just([n] * k) | st.lists(
            st.sampled_from([n, 1]), min_size=k, max_size=k))
        vals.append(rng.integers(0, n, size=shape + [draw(
            st.sampled_from([c, 1]))], dtype=dtype))
    kind = draw(st.sampled_from(["count", "image"]))
    nodes = st.integers(0, len(vals) - 1)
    if kind == "count":  # (i, i) is always true
        pairs = st.tuples(nodes, nodes) | nodes.map(lambda i: (i, i))
        outputs = [o for pair in draw(st.lists(pairs, max_size=3))
                   for o in pair]
    else:  # every node, the inputs among them, is one injective tuple
        outputs = draw(st.lists(nodes, min_size=1, max_size=4)
                       | st.permutations(range(len(vals))))
    dag = TermDag(inputs=tuple(f"x{i}" for i in range(k)), ops=(),
                  outputs=tuple(outputs))
    return kind, dag, vals, n, k, c


@settings(max_examples=300, deadline=None)
@given(_reduction_grids())
def test_reductions_match_a_plain_reference(grid):
    # grids up to 4^5 assignments x 16 interpretations, past the reach of
    # the scalar-route pins above
    kind, dag, vals, n, k, c = grid
    full = [np.broadcast_to(vals[o], (n,) * k + (c,)) for o in dag.outputs]
    if kind == "count":
        sat = np.ones((n,) * k + (c,), dtype=bool)
        for a, b in zip(full[::2], full[1::2]):
            sat &= a == b
        want = [int(np.count_nonzero(sat[..., j])) for j in range(c)]
        reduce = kernel._satisfied
    else:
        want = [len(np.unique(np.stack([f[..., j].ravel() for f in full],
                                       axis=1), axis=0)) for j in range(c)]
        reduce = kernel._distinct
    before = [v.copy() for v in vals]
    got = reduce(dag, vals, n, k, c)
    assert got.dtype == np.int64 and got.shape == (c,)
    assert got.tolist() == want
    assert all(np.array_equal(v, w) for v, w in zip(vals, before))


def _count_table_rows(monkeypatch):
    calls = []
    table_rows = kernel._table_rows

    def counting(*args):
        calls.append(args)
        return table_rows(*args)

    monkeypatch.setattr(kernel, "_table_rows", counting)
    return calls


def test_index_coding_gathers_are_built_once_per_scan(monkeypatch):
    # work, never wall time: each of the 4 ops reads only inputs, so a scan
    # of 64 chunks builds 4 row selections, not 4 x 64
    obj = load("index_coding.inst")
    k = len(obj.dag.inputs)
    assert all(max(children) < k for _, children in obj.dag.ops)
    used, _ = _space(obj.signature, 2, obj.dag)
    calls = _count_table_rows(monkeypatch)
    assert len(list(kernel._chunks("count", used, obj.dag, 2))) == 64
    assert len(calls) == len(obj.dag.ops) == 4
    calls.clear()
    assert brute_max_solutions(obj, 2).value == 4
    assert len(calls) == 4


@pytest.mark.parametrize("text,n,cells", [
    (_DISP4, 2, 8), (_DISP4, 3, 1 << 18), ("nested_r1.disp", 2, 1),
    ("nested_r1.disp", 3, 1 << 18),
    # a constant is one digit row, not a gather
    ("dispersion { inputs x, y; sig c/0, f/2; "
     "outputs c(), f(x, c()), f(y, f(c(), x)), f(x, y); }", 3, 64),
], ids=["disp4-n2", "disp4-n3", "nested_r1-n2", "nested_r1-n3", "constants"])
def test_nested_gathers_run_once_per_evaluated_chunk(monkeypatch, text, n,
                                                     cells):
    obj = parse(text) if "{" in text else load(text)
    k = len(obj.dag.inputs)
    fixed = sum(1 for _, ch in obj.dag.ops if ch and max(ch) < k)
    nested = sum(1 for _, ch in obj.dag.ops if ch and max(ch) >= k)
    assert fixed and nested
    used, _ = _space(obj.signature, n, obj.dag)
    calls = _count_table_rows(monkeypatch)
    with patch.object(kernel, "_CHUNK_CELLS", cells):
        chunks = len(list(kernel._chunks("image", used, obj.dag, n)))
        assert len(calls) == fixed + nested * chunks
        calls.clear()
        drawn = []
        every = kernel._chunks

        def counting(*args):
            for pair in every(*args):
                drawn.append(pair)
                yield pair

        monkeypatch.setattr(kernel, "_chunks", counting)
        brute_dispersion(obj, n)
    assert len(calls) == fixed + nested * len(drawn)


# ---- alphabet-symmetry pruning ----------------------------------------------
#
# At n >= 3 the scan evaluates only indices that are <= each transposition
# conjugate.  Patching `_transpositions` to return nothing gives
# the unpruned scan, the reference here.


@st.composite
def _symmetric_cases(draw):
    """(kind, system or spec, n) at n = 3 or 4 over 0-3 variables and up
    to three symbols of arity 0-1 in at most 2^11 interpretations, every
    symbol used, incl. nullary symbols, symbol-free terms (w = 0) and
    `x = y` equations."""
    n = draw(st.sampled_from([3, 4]))
    kind = draw(st.sampled_from(["count", "image"]))
    k = draw(st.integers(1 if kind == "image" else 0, 3))
    variables = _KERNEL_VARS[:k]
    arities = draw(st.lists(st.integers(0, 1), max_size=3))
    while math.prod(n ** n ** a for a in arities) > 1 << 11:
        arities.pop(0)
    symbols = [(f"s{i}", a) for i, a in enumerate(arities)]
    leaves = [Var(v) for v in variables] + [App(s, ()) for s, a in symbols
                                            if a == 0]
    assume(leaves)

    def term(depth):
        if depth == 0 or not symbols or draw(st.integers(0, 2)) == 0:
            return draw(st.sampled_from(leaves))
        s, a = draw(st.sampled_from(symbols))
        return App(s, tuple(term(depth - 1) for _ in range(a)))

    terms = [term(3) for _ in range(draw(st.integers(1, 4)))]
    if kind == "count" and len(terms) % 2:
        terms.append(term(3))
    used = {s.symbol for t in terms for s in _subterms(t) if isinstance(s, App)}
    sig = Signature(symbols=tuple((s, a) for s, a in symbols if s in used))
    if kind == "image":
        return kind, DispersionSpec(inputs=variables, signature=sig,
                                    outputs=tuple(terms)), n
    eqs = [Equation(a, b) for a, b in zip(terms[::2], terms[1::2])]
    if k >= 2 and draw(st.booleans()):
        eqs.append(Equation(Var(variables[0]), Var(variables[-1])))
    return kind, TermSystem(variables=variables, signature=sig,
                            equations=tuple(eqs)), n


@settings(max_examples=150, deadline=None)
@given(_symmetric_cases(), st.sampled_from([1, 8, 64, 1 << 18]), st.data())
def test_pruned_scan_matches_unpruned(case, cells, data):
    kind, obj, n = case
    with patch.object(kernel, "_CHUNK_CELLS", cells):
        pruned = _kernel_values(kind, obj, n, pruned=True)
        values = _kernel_values(kind, obj, n)
        assert all(p in (-1, v) for p, v in zip(pruned, values))
        best = max(values)
        ceiling = data.draw(st.sampled_from([None, best, best + 1]))
        got = _kernel_scan(kind, obj, n, ceiling)
        with patch.object(kernel, "_transpositions", _no_swaps):
            want = _kernel_scan(kind, obj, n, ceiling)
    assert got == want == (best, values.index(best))  # value, least index


@settings(max_examples=60, deadline=None)
@given(_symmetric_cases(), st.integers(1, 2), st.sampled_from([1, 8, 64, 1 << 18]))
def test_first_mismatch_aligns_systems_of_different_widths(case, extra, cells):
    # extra free variables scale every count by n^extra; the two scans
    # have different widths and chunk their index ranges differently, so
    # the least mismatch must come from the indices both scans kept
    kind, before, n = case
    assume(kind == "count")
    after = TermSystem(before.variables + tuple(f"w{i}" for i in range(extra)),
                       before.signature, before.equations)
    counts = [_kernel_values("count", s, n) for s in (before, after)]
    diff = [i for i, (a, b) in enumerate(zip(*counts)) if a != b]
    with patch.object(kernel, "_CHUNK_CELLS", cells):
        first, _ = first_mismatch(before, after, n)
    assert first == (diff[0] if diff else None)


def _conjugate(interp, arities, sigma):
    """The tables of interp relabelled by the permutation sigma of [n]:
    entry sigma(args) of the new table is sigma(entry args)."""
    n, tables = interp.n, {}
    for name, table in interp.tables.items():
        entries = [0] * len(table)
        for args in itertools.product(range(n), repeat=arities[name]):
            entries[_table_pos(n, [sigma[a] for a in args])] = \
                sigma[table[_table_pos(n, args)]]
        tables[name] = tuple(entries)
    return Interpretation(n, tables)


def _table_pos(n, args):
    return sum(a * n ** (len(args) - 1 - j) for j, a in enumerate(args))


def test_keep_mask_contains_every_orbit_minimum():
    system = parse("instance { vars x; sig c/0, f/1; eq f(x) = c(); }")
    n, arities = 3, {"c": 0, "f": 1}

    def index(it):  # base-3 digits c f(0) f(1) f(2), most significant first
        return _table_pos(n, it.tables["c"] + it.tables["f"])

    interps = [Interpretation(n, {"c": (c,), "f": (f0, f1, f2)})
               for c, f0, f1, f2 in itertools.product(range(n), repeat=4)]
    assert [index(it) for it in interps] == list(range(n ** 4))
    perms = list(itertools.permutations(range(n)))
    swaps = [p for p in perms if sum(a != b for a, b in enumerate(p)) == 2]
    least = {min(index(_conjugate(it, arities, p)) for p in perms)
             for it in interps}
    at_most_swaps = {index(it) for it in interps
                     if all(index(it) <= index(_conjugate(it, arities, p))
                            for p in swaps)}
    assert least <= at_most_swaps < set(range(n ** 4))
    # chunks of 1, 3, 9 and 81 indices; in the chunk [6, 9), 6 and 8 have a
    # smaller conjugate under the swap (1 2) and 7 is its own
    for cells in (1, 9, 27, 1 << 18):
        with patch.object(kernel, "_CHUNK_CELLS", cells):
            values = _kernel_values("count", system, n, pruned=True)
        assert {i for i, v in enumerate(values) if v >= 0} == at_most_swaps


@settings(max_examples=40, deadline=None)
@given(_symmetric_cases())
def test_kept_indices_are_the_swap_minimal_set(case):
    kind, obj, n = case
    used, total = _space(obj.signature, n, obj.dag)
    arities = dict(obj.signature.symbols)

    def index(it):  # the digits of the used tables, most significant first
        return _table_pos(n, [d for name, _ in used for d in it.tables[name]])

    space = [kernel._witness(obj.signature, used, n, i) for i in range(total)]
    perms = list(itertools.permutations(range(n)))
    swaps = [p for p in perms if sum(a != b for a, b in enumerate(p)) == 2]
    at_most_swaps = {i for i, it in enumerate(space)
                     if all(i <= index(_conjugate(it, arities, p))
                            for p in swaps)}
    least, seen = set(), set()
    for i, it in enumerate(space):  # the first member met is its orbit's least
        if i not in seen:
            least.add(i)
            seen.update(index(_conjugate(it, arities, p)) for p in perms)
    for cells in (1, 8, 64, 1 << 18):
        with patch.object(kernel, "_CHUNK_CELLS", cells):
            kept = [i for indices, _ in kernel._chunks(kind, used, obj.dag, n)
                    for i in indices.tolist()]
        assert kept == sorted(set(kept))  # increasing, each index once
        assert set(kept) == at_most_swaps
        assert least <= at_most_swaps


def test_no_pruning_below_n3(monkeypatch):
    def no_filter(*args):
        raise AssertionError("the filter ran")
    monkeypatch.setattr(kernel, "_least_in_orbit", no_filter)
    diamond, fx = load("diamond.disp"), load("fx.inst")
    assert brute_dispersion(diamond, 2).value == 10
    assert not check_perfect_fixed(diamond, 2).perfect
    assert brute_max_solutions(load("index_coding.inst"), 2).value == 4
    assert brute_guessing(load("cycle3.graph"), 2).value == 2
    norm, _ = pipeline(fx)
    assert first_mismatch(fx, norm, 2)[0] is None
    with pytest.raises(AssertionError, match="the filter ran"):
        brute_dispersion(diamond, 3)


def test_count_preservation_first_mismatch_pruned():
    before = parse("instance { vars x, y; sig f/1, c/0; "
                   "eq f(f(x)) = f(f(c())); eq f(c()) = x; }")
    after = parse("instance { vars x, y; sig f/1, c/0; eq y = f(f(x)); }")
    counts = [_scalar_values("count", s, 3) for s in (before, after)]
    first = next(i for i, (a, b) in enumerate(zip(*counts)) if a != b)
    assert first == 22
    pruned = _kernel_values("count", before, 3, pruned=True)
    assert -1 in pruned[:first]  # the filter drops indices before it
    for cells in (1, 8, 1 << 18):
        with patch.object(kernel, "_CHUNK_CELLS", cells):
            chk = first_mismatch(before, after, 3)
            with patch.object(kernel, "_transpositions", _no_swaps):
                assert first_mismatch(before, after, 3) == chk
        assert chk == (first, 81)


def test_first_mismatch_shares_one_pruning_decision():
    # at n = 5 the filter pays for `after` only, so the two scans keep
    # different indices; the least mismatch (f's second fixed point, at
    # index 4) is S_n-invariant and must still be among the ones both keep
    before = parse("instance { vars x; sig c/0, f/1; eq f(c()) = x; }")
    after = parse("instance { vars x, y; sig c/0, f/1; "
                  "eq f(c()) = x; eq f(y) = y; }")
    assert not kernel._prunes(5, before.dag)
    assert kernel._prunes(5, after.dag)
    for cells in (1, 25, 1 << 18):
        with patch.object(kernel, "_CHUNK_CELLS", cells):
            chk = first_mismatch(before, after, 5)
            with patch.object(kernel, "_transpositions", _no_swaps):
                assert first_mismatch(before, after, 5) == chk
        assert chk == (4, 5 ** 6)


_NESTED300 = ("dispersion { inputs x; sig f/1; outputs "
              + "f(" * 300 + "x" + ")" * 300 + "; }")


@pytest.mark.parametrize("spec,n", [
    (_DISP4, 3), ("diamond.disp", 3), (_NESTED300, 5)],
    ids=["disp4-n3", "diamond-n3", "nested300-n5"])
def test_pruned_benchmark_scans_still_filter(monkeypatch, spec, n):
    calls, every = [], kernel._least_in_orbit
    monkeypatch.setattr(kernel, "_least_in_orbit",
                        lambda *args: calls.append(1) or every(*args))
    brute_dispersion(load(spec) if spec.endswith(".disp") else parse(spec), n)
    assert calls


def test_filter_runs_from_n5_only_where_its_swaps_cost_less():
    # n(n-1)/2 swaps against n^k evaluations of each op (at least one)
    bare = parse("dispersion { inputs x; sig ; outputs x; }").dag
    deep = parse("dispersion { inputs x; sig f/1; outputs f(f(f(x))); }").dag
    assert kernel._prunes(3, bare) and kernel._prunes(4, bare)
    assert not kernel._prunes(2, deep) and not kernel._prunes(5, bare)
    assert kernel._prunes(6, deep) and not kernel._prunes(7, deep)
    assert not kernel._prunes(2 ** 63, bare)
