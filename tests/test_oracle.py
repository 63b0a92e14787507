"""Exhaustive-search oracles: pinned ground truth and cross-route checks.

Every frozen constant below was computed by a second, independent route
(hand derivation or the scalar evaluators) before being pinned.
"""

import itertools
import math
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from termflow import normalize, oracle
from termflow.dsl import parse

from termflow.depgraph import (DependencyGraph, GuessingStrategy,
                               add_source_loops, dependency_graph,
                               graph_system)
from termflow.errors import (BudgetError, PreconditionError, ValidationError)
from termflow.normalize import (NormalSystem, diversify, embed_dispersion,
                                flatten, pipeline)
from termflow.oracle import (BlockEncoding, OracleResult, SearchBudget,
                             brute_dispersion,
                             brute_guessing, brute_max_solutions,
                             check_counts_preserved, check_embedding,
                             check_perfect_fixed,
                             check_solutions_equal_winning, count_solutions,
                             count_winning, enumerate_interpretations,
                             image_of, interpretation_at,
                             interpretation_count, lift_interpretation,
                             sandwich_check, table_space)
from termflow.terms import (App, DispersionSpec, Equation, Interpretation,
                            Signature, TermSystem, Var, term_dag)
from corpus_loader import load


# ---- enumeration ------------------------------------------------------------

def test_spaces():
    assert table_space(2, 2) == 16
    assert table_space(3, 2) == 19683
    assert table_space(2, 0) == 2  # a constant's table has one entry
    sig = Signature(symbols=(("f", 1), ("g", 1)))
    assert interpretation_count(sig, 2) == 16
    assert interpretation_count(Signature(symbols=()), 2) == 1


def test_enumeration_is_canonical_big_endian():
    sig = Signature(symbols=(("f", 1), ("g", 1)))
    interps = list(enumerate_interpretations(sig, 2))
    assert len(interps) == 16
    # last symbol varies fastest; within one table, entry 0 is most significant
    assert interps[0].tables == {"f": (0, 0), "g": (0, 0)}
    assert interps[1].tables == {"f": (0, 0), "g": (0, 1)}
    assert interps[2].tables == {"f": (0, 0), "g": (1, 0)}
    assert interps[4].tables == {"f": (0, 1), "g": (0, 0)}
    assert interps[15].tables == {"f": (1, 1), "g": (1, 1)}
    for idx in (0, 5, 11, 15):
        assert interpretation_at(sig, 2, idx) == interps[idx]


def test_interpretation_index_out_of_range():
    sig = Signature(symbols=(("f", 1), ("g", 1)))
    assert interpretation_at(sig, 2, 15).tables == {"f": (1, 1), "g": (1, 1)}
    for index in (16, -1, 2 ** 70):
        with pytest.raises(ValidationError, match="index out of range"):
            interpretation_at(sig, 2, index)


def test_enumeration_slicing():
    sig = Signature(symbols=(("f", 2),))
    full = list(enumerate_interpretations(sig, 2))
    part = list(enumerate_interpretations(sig, 2, start=3, stop=7))
    assert part == full[3:7]
    with pytest.raises(ValidationError):
        next(enumerate_interpretations(sig, 2, start=-1))


def test_budget_refusal_is_exact_and_total():
    diamond = load("diamond.disp")
    with pytest.raises(BudgetError) as exc:
        brute_dispersion(diamond, 4)
    assert exc.value.interpretations == 4294967296
    assert exc.value.evaluations == 1099511627776
    with pytest.raises(BudgetError):
        list(enumerate_interpretations(diamond.signature, 4))
    # a tighter budget refuses even the tiny case, with exact numbers
    with pytest.raises(BudgetError) as exc:
        brute_dispersion(diamond, 2, SearchBudget(max_evaluations=100))
    assert exc.value.evaluations == 256


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


# ---- scalar evaluators -------------------------------------------------------

def test_count_solutions_scalar():
    system = load("fx.inst")
    ident = Interpretation(n=2, tables={"f": (0, 1)})
    assert count_solutions(system, ident) == 2


def test_image_of_scalar():
    witness = Interpretation(n=2, tables={"f": (0, 0, 0, 1)})
    assert len(image_of(load("diamond.disp"), witness)) == 10


def test_count_winning_scalar():
    copy = GuessingStrategy(n=2, tables={"a": (0, 1), "b": (0, 1),
                                         "c": (0, 1)})
    assert count_winning(load("cycle3.graph"), copy) == 2


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


def test_jobs_do_not_change_results():
    spec = load("diamond.disp")
    lone = brute_dispersion(spec, 3, jobs=1)
    pooled = brute_dispersion(spec, 3, jobs=8)
    assert lone == pooled


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
    res.witness.validate_against(g)
    assert set(res.witness.tables) == {"a", "b", "c"}


def _pseudo_symbol_guessing(graph, n, budget):
    """Reference game scan: one pseudo-symbol per player and a DAG of
    `v(in-neighbours) = v` built here, fed straight to the scan kernel."""
    nbrs = {v: graph.in_neighbors(v) for v in graph.vertices
            if v not in graph.sources}
    pseudo = Signature(tuple((v, len(us)) for v, us in nbrs.items()))
    dag = term_dag(graph.vertices, [
        t for v, us in nbrs.items()
        for t in (App(v, tuple(Var(u) for u in us)), Var(v))])
    oracle._admit(pseudo, n, len(dag.inputs), budget)
    used = oracle._enumerated(pseudo, dag)
    total = oracle._used_space(used, n)
    value, index, _ = oracle._scan("count", (used, dag), n, total, 1)
    tables = oracle._witness(pseudo, used, n, index).tables
    return OracleResult(value, GuessingStrategy(n, dict(tables)),
                        oracle._rate(value, n), total * n ** len(dag.inputs))


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
    assert check_counts_preserved(flat, norm, 3).equal
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
    chk = check_counts_preserved(system, norm, 2)
    assert chk.equal
    assert chk.interpretations == interps
    assert chk.first_mismatch is None


def test_count_preservation_detects_differences():
    sig = Signature(symbols=(("f", 1),))
    before = TermSystem(variables=("x", "y"), signature=sig,
                        equations=(Equation(App("f", (Var("x"),)), Var("y")),))
    after = TermSystem(variables=("x", "y"), signature=sig,
                       equations=(Equation(App("f", (Var("x"),)), Var("x")),))
    chk = check_counts_preserved(before, after, 2)
    assert not chk.equal
    assert chk.first_mismatch == 1  # f = (0,1) fixes both points of x = f(x)


def test_count_preservation_needs_shared_signature():
    fx = load("fx.inst")
    other = TermSystem(variables=("x", "y"),
                       signature=Signature(symbols=(("g", 1),)),
                       equations=(Equation(App("g", (Var("x"),)), Var("y")),))
    with pytest.raises(PreconditionError):
        check_counts_preserved(fx, other, 2)


# ---- block encodings and lifting ----------------------------------------------

def test_canonical_block_encoding():
    enc = BlockEncoding.canonical(4, 2)
    assert enc.m == 2
    assert enc.blocks == ((0, 1), (2, 3))
    enc5 = BlockEncoding.canonical(5, 2)
    assert enc5.blocks == ((0, 1), (2, 3))  # element 4 stays unused


def test_block_encoding_validation():
    with pytest.raises(ValidationError):
        BlockEncoding(4, 0, 0, ())
    with pytest.raises(ValidationError):
        BlockEncoding(4, 2, 1, ((0,), (1,)))  # m must be n // v
    with pytest.raises(ValidationError):
        BlockEncoding(4, 2, 2, ((0, 1), (1, 2)))  # overlap
    with pytest.raises(ValidationError):
        BlockEncoding(4, 2, 2, ((0, 1),))  # one block per variable


def test_lift_interpretation_recount():
    norm, _ = pipeline(load("fx.inst"))
    div = diversify(norm)
    small = brute_max_solutions(div, 2)
    enc = BlockEncoding.canonical(4, 2)
    lifted = lift_interpretation(norm, small.witness, enc)
    assert lifted.n == 4
    assert count_solutions(norm, lifted) >= small.value
    lifted.validate_against(norm.signature)


def test_lift_preconditions():
    norm, _ = pipeline(load("fx.inst"))
    div = diversify(norm)
    small = brute_max_solutions(div, 2).witness
    with pytest.raises(PreconditionError):
        lift_interpretation(norm, small, BlockEncoding.canonical(6, 3))
    wrong_sig = Interpretation(n=2, tables={"f": (0, 1)})
    with pytest.raises(PreconditionError):
        lift_interpretation(norm, wrong_sig, BlockEncoding.canonical(4, 2))
    bad, _ = pipeline(load("two_sided.inst"))
    with pytest.raises(PreconditionError):
        lift_interpretation(bad, small, BlockEncoding.canonical(4, 2))


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
    assert brute_max_solutions(system, 2, jobs=2) == res


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
    chk = check_counts_preserved(system, norm, 2)
    assert chk.equal, chk.first_mismatch


# ---- the grid scan kernel --------------------------------------------------------
#
# `_chunks` and `_scan_range` are pinned to the scalar route index by index.
# Shrinking `_CHUNK_CELLS` makes a scan span many chunks, so ranges start
# and end off chunk boundaries.

_KERNEL_VARS = ("x", "y", "z")


def _scalar_values(kind, obj, n):
    """Per interpretation index, the scalar route's count or image size."""
    total = interpretation_count(obj.signature, n)
    interps = (interpretation_at(obj.signature, n, i) for i in range(total))
    if kind == "count":
        return [count_solutions(obj, it) for it in interps]
    return [len(image_of(obj, it)) for it in interps]


def _reference_scan(values, lo, hi, target):
    """What `_scan_range` must find in [lo, hi): the least index reaching
    `target`, where the scan stops, or else the max and its least index."""
    for i in range(lo, hi):
        if target is not None and values[i] >= target:
            return i
    best = max(values[lo:hi])
    return best, values.index(best, lo, hi)


def _kernel_scan(kind, obj, n, lo, hi, target=None):
    payload = (oracle._enumerated(obj.signature, obj.dag), obj.dag)
    return oracle._scan_range((kind, payload, n, lo, hi, target))


def _no_swaps(symbols, digits):
    """`_transpositions` for the unpruned scan."""
    return []


def _kernel_values(kind, obj, n, lo, hi, pruned=False):
    """`_chunks` values per index, unpruned unless `pruned` (then pruned
    indices read -1)."""
    payload = (oracle._enumerated(obj.signature, obj.dag), obj.dag)
    swaps = oracle._transpositions if pruned else _no_swaps
    out = []
    with patch.object(oracle, "_transpositions", swaps):
        for pos, vals in oracle._chunks(kind, payload, n, lo, hi):
            assert pos == lo + len(out)  # chunks are contiguous and in order
            out.extend(int(v) for v in vals)
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
    total = len(values)
    lo = data.draw(st.integers(0, total - 1))
    hi = data.draw(st.integers(lo + 1, total))
    target = data.draw(st.none() | st.integers(0, max(values) + 1))
    with patch.object(oracle, "_CHUNK_CELLS", cells):
        assert _kernel_values(kind, obj, n, lo, hi) == values[lo:hi]
        best_v, best_i, hit = _kernel_scan(kind, obj, n, lo, hi, target)
    want = _reference_scan(values, lo, hi, target)
    if isinstance(want, int):
        assert hit == want
    else:
        assert hit is None and (best_v, best_i) == want


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
    for cells in (1, 1 << 18):
        with patch.object(oracle, "_CHUNK_CELLS", cells):
            assert _kernel_values(kind, obj, n, 0, len(values)) == values
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
    assert _kernel_values("image", spec, 2, 0, len(values)) == values
    assert brute_dispersion(spec, 2).value == max(values) == 4


def test_perfect_early_exit_hit_index():
    spec = load("encode_pair.disp")
    values = _scalar_values("image", spec, 2)
    first = values.index(spec_target := 2 ** spec.r)
    assert first > 0 and first + 1 < len(values)
    for cells in (1, 8, 1 << 18):
        with patch.object(oracle, "_CHUNK_CELLS", cells):
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
    with patch.object(oracle, "_CHUNK_CELLS", cells):
        chk = check_counts_preserved(before, after, 2)
    assert chk.equal == (not diff)
    assert chk.first_mismatch == (diff[0] if diff else None)


# ---- alphabet-symmetry pruning ----------------------------------------------
#
# At n >= 3 the scan evaluates only indices with no transposition conjugate
# earlier in the range.  Patching `_transpositions` to return nothing gives
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
    while math.prod(table_space(n, a) for a in arities) > 1 << 11:
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


def _merged(results):
    """`_scan`'s merge over ranges in ascending order."""
    best_v, best_i, first_hit = -1, -1, None
    for v, i, h in results:
        if v > best_v:
            best_v, best_i = v, i
        if first_hit is None:
            first_hit = h
    return best_v, best_i, first_hit


@settings(max_examples=150, deadline=None)
@given(_symmetric_cases(), st.sampled_from([1, 8, 64, 1 << 18]), st.data())
def test_pruned_scan_matches_unpruned(case, cells, data):
    kind, obj, n = case
    total = interpretation_count(obj.signature, n)
    lo = data.draw(st.integers(0, total - 1))
    hi = data.draw(st.integers(lo + 1, total))
    with patch.object(oracle, "_CHUNK_CELLS", cells):
        pruned = _kernel_values(kind, obj, n, 0, total, pruned=True)
        values = _kernel_values(kind, obj, n, 0, total)
        assert all(p in (-1, v) for p, v in zip(pruned, values))
        target = data.draw(st.none() | st.integers(0, max(values) + 1))
        for ranges in ([(lo, hi)], [(0, lo), (lo, hi), (hi, total)]):
            ranges = [(a, b) for a, b in ranges if a < b]
            got = _merged(_kernel_scan(kind, obj, n, a, b, target)
                          for a, b in ranges)
            with patch.object(oracle, "_transpositions", _no_swaps):
                want = _merged(_kernel_scan(kind, obj, n, a, b, target)
                               for a, b in ranges)
            assert got == want  # value, least index, perfect-hit index


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
        with patch.object(oracle, "_CHUNK_CELLS", cells):
            values = _kernel_values("count", system, n, 0, n ** 4,
                                    pruned=True)
        assert {i for i, v in enumerate(values) if v >= 0} == at_most_swaps


def test_no_pruning_below_n3(monkeypatch):
    def no_filter(*args):
        raise AssertionError("the filter ran")
    monkeypatch.setattr(oracle, "_least_in_orbit", no_filter)
    diamond, fx = load("diamond.disp"), load("fx.inst")
    assert brute_dispersion(diamond, 2).value == 10
    assert not check_perfect_fixed(diamond, 2).perfect
    assert brute_max_solutions(load("index_coding.inst"), 2).value == 4
    assert brute_guessing(load("cycle3.graph"), 2).value == 2
    norm, _ = pipeline(fx)
    assert check_counts_preserved(fx, norm, 2).equal
    with pytest.raises(AssertionError, match="the filter ran"):
        brute_dispersion(diamond, 3)


def test_count_preservation_first_mismatch_pruned():
    before = parse("instance { vars x, y; sig f/1, c/0; "
                   "eq f(f(x)) = f(f(c())); eq f(c()) = x; }")
    after = parse("instance { vars x, y; sig f/1, c/0; eq y = f(f(x)); }")
    counts = [_scalar_values("count", s, 3) for s in (before, after)]
    first = next(i for i, (a, b) in enumerate(zip(*counts)) if a != b)
    assert first == 22
    pruned = _kernel_values("count", before, 3, 0, 81, pruned=True)
    assert -1 in pruned[:first]  # the filter drops indices before it
    for cells in (1, 8, 1 << 18):
        with patch.object(oracle, "_CHUNK_CELLS", cells):
            chk = check_counts_preserved(before, after, 3)
            with patch.object(oracle, "_transpositions", _no_swaps):
                assert check_counts_preserved(before, after, 3) == chk
        assert not chk.equal and chk.first_mismatch == first
        assert chk.interpretations == 81


class _PoolStarted(Exception):
    pass


def test_pool_only_past_the_evaluation_threshold(monkeypatch):
    def no_pool(*args, **kwargs):
        raise _PoolStarted
    monkeypatch.setattr(oracle, "ProcessPoolExecutor", no_pool)
    diamond = load("diamond.disp")
    # pruned scans (n >= 3) never pool, however many evaluations
    assert check_perfect_fixed(diamond, 3, jobs=2).max_image == 53
    assert brute_dispersion(diamond, 3, jobs=8).value == 53
    spec = parse("dispersion { inputs x, y, z; sig f/2, g/1; outputs "
                 "f(x, g(y)), g(f(x, z)), f(g(f(x, y)), g(z)), f(y, g(z)); }")
    assert brute_dispersion(spec, 3, jobs=2).value == 27  # 531441 x 27
    # one worker never pools, however long the scan
    coding = load("index_coding.inst")  # 2^16 x 2^8 evaluations at n = 2
    assert brute_max_solutions(coding, 2).value == 4
    with pytest.raises(_PoolStarted):
        brute_max_solutions(coding, 2, jobs=2)
    # the cut-over itself: diamond at n=2 is 16 x 16 evaluations
    monkeypatch.setattr(oracle, "_POOL_MIN_EVALS", 257)
    assert brute_dispersion(diamond, 2, jobs=2).value == 10
    monkeypatch.setattr(oracle, "_POOL_MIN_EVALS", 256)
    with pytest.raises(_PoolStarted):
        brute_dispersion(diamond, 2, jobs=2)
