"""Dispersion exponent via max-flow, verified against brute vertex cuts."""

import contextlib
import io
import json
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termflow import cli
from termflow.corpus import corpus_names, corpus_path
from termflow.dsl import parse, render
from termflow.errors import PreconditionError
from termflow.flownet import (_Dinic, build_dag, build_network,
                              cut_certificate, decide_perfect_r1,
                              decide_threshold, dispersion_exponent,
                              max_flow, network_dot)
from termflow.normalize import pad_dispersion
from termflow.terms import (App, DispersionSpec, Signature, Var, render_term,
                            term_vars)
from corpus_loader import load


def _brute_min_cut(spec) -> int:
    """Smallest set of unit capacities whose removal disconnects the flow.

    Units are the DAG nodes (for the split edges) plus one sink edge per
    distinct output root.  Independent of the max-flow code: by Menger the
    minimum over all subsets equals the max flow.
    """
    dag = build_dag(spec)
    k = len(dag.inputs)
    roots = list(dict.fromkeys(dag.outputs))
    units = [("node", v) for v in range(dag.node_count)]
    units += [("sink", r) for r in roots]

    def disconnected(cut) -> bool:
        dead = {v for kind, v in cut if kind == "node"}
        blocked = {r for kind, r in cut if kind == "sink"}
        reach = [False] * dag.node_count
        for v in range(k):
            reach[v] = v not in dead
        for i, (_, children) in enumerate(dag.ops):
            v = k + i
            if v not in dead:
                # one incoming unit suffices: flow enters through any child
                reach[v] = any(reach[c] for c in children)
        return not any(reach[r] and r not in blocked for r in roots)

    for size in range(len(units) + 1):
        if any(disconnected(cut) for cut in combinations(units, size)):
            return size
    raise AssertionError("every network disconnects once all units are cut")


def test_diamond_exponent_and_cut():
    res = dispersion_exponent(load("diamond.disp"))
    assert res.D == 4
    assert res.certificate()["flow_value"] == 4
    assert res.min_cut == ("w", "x", "y", "z")


def test_shared_input_is_the_bottleneck():
    res = dispersion_exponent(load("fg.disp"))
    assert res.D == 1
    assert res.min_cut == ("x",)


def test_projections_have_full_exponent():
    res = dispersion_exponent(load("projections.disp"))
    assert res.D == 2
    assert len(res.min_cut) == 2


def test_ground_output_has_exponent_zero():
    res = dispersion_exponent(load("constants.disp"))
    assert res.D == 0
    assert res.min_cut == ()


@pytest.mark.parametrize("name,expected", [
    ("single_var.disp", 1),
    ("single_fn.disp", 1),
    ("encode_pair.disp", 1),
    ("nested_r1.disp", 1),
    ("shared_subterm.disp", 1),
    ("pad_base.disp", 1),
])
def test_small_spec_exponents(name, expected):
    assert dispersion_exponent(load(name)).D == expected


@pytest.mark.parametrize("name", corpus_names(".disp"))
def test_exponent_matches_brute_vertex_cut(name):
    spec = load(name)
    assert dispersion_exponent(spec).D == _brute_min_cut(spec)


def test_shared_subterm_appears_once_in_dag():
    dag = build_dag(load("shared_subterm.disp"))
    labels = [dag.label(v) for v in range(dag.node_count)]
    assert labels.count("g(x)") == 1
    assert dag.node_count == 3  # x, g(x), f(g(x))


def test_network_shape_for_diamond():
    net = build_network(build_dag(load("diamond.disp")))
    assert net.inf == 5  # one above the number of distinct roots
    unit_edges = [e for e in net.edges if e[2] == 1]
    # 8 split edges (4 inputs + 4 ops) + 4 sink edges
    assert len(unit_edges) == 12
    sink_edges = [e for e in net.edges if e[1] == net.sink]
    assert len(sink_edges) == 4


def test_duplicate_outputs_share_one_sink_edge():
    single = load("single_fn.disp")
    doubled = DispersionSpec(inputs=single.inputs, signature=single.signature,
                             outputs=single.outputs + single.outputs)
    net = build_network(build_dag(doubled))
    assert len([e for e in net.edges if e[1] == net.sink]) == 1
    assert dispersion_exponent(doubled).D == dispersion_exponent(single).D


def test_padding_raises_exponent_by_fresh_projections():
    padded = pad_dispersion(load("diamond.disp"), 5, 5)
    assert dispersion_exponent(padded).D == 5
    assert dispersion_exponent(pad_dispersion(load("pad_base.disp"), 2, 2)).D == 2


@pytest.mark.parametrize("name", corpus_names(".disp"))
def test_padding_never_lowers_exponent(name):
    spec = load(name)
    before = dispersion_exponent(spec).D
    padded = pad_dispersion(spec, spec.r + 2, max(spec.k, spec.r + 2) + 1)
    assert dispersion_exponent(padded).D >= before


def test_cut_certificate_is_consistent():
    cert = cut_certificate(load("diamond.disp"))
    res = dispersion_exponent(load("diamond.disp"))
    assert cert["flow_value"] == res.D
    assert tuple(cert["cut"]) == res.min_cut
    in_cut = [row for row in cert["bottlenecks"] if row["in_cut"]]
    assert len(in_cut) == res.D
    assert all(row["saturated"] for row in in_cut)
    assert all(row["capacity"] == 1 for row in cert["bottlenecks"])


def test_network_dot_is_deterministic():
    net = build_network(build_dag(load("fg.disp")))
    text = network_dot(net)
    assert text.startswith("digraph network {")
    assert '"x.in" -> "x.out" [label="1"];' in text
    assert text == network_dot(build_network(build_dag(load("fg.disp"))))


def test_threshold_decisions():
    diamond = load("diamond.disp")
    assert decide_threshold(diamond, 3).answer is True
    assert decide_threshold(diamond, 4).answer is False
    assert decide_threshold(load("fg.disp"), 1).answer is False
    assert decide_threshold(load("constants.disp"), 0).answer is False
    dec = decide_threshold(diamond, 3)
    assert dec.exponent.D == 4 and dec.d == 3
    with pytest.raises(PreconditionError):
        decide_threshold(diamond, -1)


def test_perfect_r1_syntactic_decision():
    assert decide_perfect_r1(load("single_var.disp")) is True
    assert decide_perfect_r1(load("single_fn.disp")) is True
    assert decide_perfect_r1(load("encode_pair.disp")) is True
    assert decide_perfect_r1(load("nested_r1.disp")) is True
    assert decide_perfect_r1(load("constants.disp")) is False
    with pytest.raises(PreconditionError):
        decide_perfect_r1(load("diamond.disp"))
    nested = "dispersion {{ inputs x; sig c/0, g/2; outputs {}; }}"
    assert decide_perfect_r1(parse(nested.format("g(c(), c())"))) is False
    assert decide_perfect_r1(parse(nested.format("g(c(), x)"))) is True
    for spec in map(load, corpus_names(".disp")):
        if spec.r == 1:
            assert decide_perfect_r1(spec) is _has_variable(spec.outputs[0])


def _has_variable(term) -> bool:
    """The tree rule `decide_perfect_r1` used: any variable occurrence."""
    return next(term_vars(term), None) is not None


_inputs = st.sampled_from(("a", "b", "c"))


@st.composite
def _specs(draw):
    inputs = tuple(sorted(draw(st.sets(_inputs, min_size=1, max_size=3))))
    symbols = tuple((name, draw(st.integers(0, 2)))
                    for name in sorted(draw(st.sets(
                        st.sampled_from(("f", "g")), max_size=2))))

    def term(depth):
        if depth == 0 or not symbols or draw(st.booleans()):
            return Var(draw(st.sampled_from(inputs)))
        name, arity = draw(st.sampled_from(symbols))
        return App(name, tuple(term(depth - 1) for _ in range(arity)))

    outputs = tuple(term(2) for _ in range(draw(st.integers(1, 3))))
    return DispersionSpec(inputs=inputs, signature=Signature(symbols=symbols),
                          outputs=outputs)


@given(_specs())
def test_perfect_r1_matches_the_tree_rule_on_random_specs(spec):
    single = DispersionSpec(spec.inputs, spec.signature, spec.outputs[-1:])
    parsed = parse(render(single))
    assert decide_perfect_r1(single) is _has_variable(single.outputs[0])
    assert decide_perfect_r1(parsed) is _has_variable(single.outputs[0])


@settings(max_examples=80, deadline=None)
@given(_specs())
def test_exponent_matches_brute_cut_on_random_specs(spec):
    result = dispersion_exponent(spec)
    assert result.D == _brute_min_cut(spec)
    assert 0 <= result.D <= min(len(set(spec.outputs)), max(spec.k, 1) + spec.r)
    assert result.D == len(result.min_cut)


@settings(max_examples=40, deadline=None)
@given(_specs())
def test_min_cut_certificate_disconnects(spec):
    """Removing exactly the certified bottlenecks kills every flow path."""
    cert = cut_certificate(spec)
    dag = build_dag(spec)
    k = len(dag.inputs)
    cut = set(cert["cut"])
    roots = list(dict.fromkeys(dag.outputs))
    reach = [False] * dag.node_count
    for v in range(k):
        reach[v] = dag.label(v) not in cut
    for i, (_, children) in enumerate(dag.ops):
        v = k + i
        if dag.label(v) not in cut:
            reach[v] = any(reach[c] for c in children)
    alive = [r for r in roots
             if reach[r] and f"sink:{dag.label(r)}" not in cut]
    assert not alive


def _recursive_dag(spec):
    """Hash-consing keyed on whole subterms, walked recursively: the
    builder's reference, for terms shallow enough to recurse on."""
    ids = {Var(name): i for i, name in enumerate(spec.inputs)}
    labels, ops = list(spec.inputs), []

    def cons(t):
        if t not in ids:
            children = tuple(cons(a) for a in t.args)
            ids[t] = len(labels)
            labels.append(render_term(t))
            ops.append((t.symbol, children))
        return ids[t]

    outputs = tuple(cons(t) for t in spec.outputs)
    return spec.inputs, tuple(ops), outputs, tuple(labels)


@settings(max_examples=80, deadline=None)
@given(_specs())
def test_dag_matches_recursive_hash_consing(spec):
    dag = build_dag(spec)
    labels = tuple(dag.label(v) for v in range(dag.node_count))
    assert (dag.inputs, dag.ops, dag.outputs, labels) == _recursive_dag(spec)


def test_certificate_comes_from_the_exponent_run(monkeypatch):
    runs = []
    run = _Dinic.run
    monkeypatch.setattr(_Dinic, "run",
                        lambda self, s, t: runs.append(1) or run(self, s, t))
    spec = load("diamond.disp")
    res = dispersion_exponent(spec)
    assert runs == [1]
    assert cut_certificate(spec) == res.certificate()
    assert res.certificate()["cut"] == list(res.min_cut)
    runs.clear()
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["exponent", str(corpus_path("diamond.disp")),
                         "--certificate"]) == 0
    assert runs == [1]
    assert json.loads(out.getvalue())["result"]["certificate"] == \
        res.certificate()
