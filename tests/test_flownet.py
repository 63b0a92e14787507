"""Dispersion exponent via max-flow, verified against brute vertex cuts."""

import contextlib
import io
import json
import random
from collections import deque
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termflow import cli, flownet
from termflow.corpus import corpus_names, corpus_path
from termflow.dsl import parse, render
from termflow.errors import PreconditionError
from termflow.flownet import (build_dag, build_network, decide_perfect_r1,
                              decide_threshold, dispersion_exponent, max_flow,
                              network_dot)
from termflow.normalize import pad_dispersion
from termflow.terms import App, DispersionSpec, Signature, Var
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


def _reference_edges(dag):
    """The split network as the eager edge list it was once built from:
    (in, out) = (2 + 2v, 3 + 2v) per node, source 0, sink 1.  Returns the
    (u, v, capacity) edges and the indices of the unit edges."""
    k, n = len(dag.inputs), dag.node_count
    roots = list(dict.fromkeys(dag.outputs))
    inf = len(roots) + 1
    edges = [(2 + 2 * v, 3 + 2 * v, 1) for v in range(n)]
    edges += [(0, 2 + 2 * v, inf) for v in range(k)]
    for i, (_, children) in enumerate(dag.ops):
        edges += [(3 + 2 * c, 2 + 2 * (k + i), inf) for c in children]
    bottlenecks = list(range(n)) + list(range(len(edges), len(edges) + len(roots)))
    edges += [(3 + 2 * r, 1, 1) for r in roots]
    return edges, bottlenecks


class _ArcDinic:
    """Dinic's algorithm over explicit arc lists, each edge followed by its
    reverse arc: the flow that `split_flow` must reproduce exactly."""

    def __init__(self, n: int):
        self.n = n
        self.to: list[int] = []
        self.cap: list[int] = []
        self.head: list[list[int]] = [[] for _ in range(n)]

    def add(self, u: int, v: int, c: int) -> int:
        idx = len(self.to)
        self.head[u].append(idx)
        self.to.append(v)
        self.cap.append(c)
        self.head[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(0)
        return idx

    def _levels(self, s: int) -> list[int]:
        level = [-1] * self.n
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for e in self.head[u]:
                v = self.to[e]
                if self.cap[e] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level

    def _push(self, s: int, t: int, level, it) -> int:
        path: list[int] = []
        u = s
        while u != t:
            head = self.head[u]
            while it[u] < len(head):
                e = head[it[u]]
                if self.cap[e] > 0 and level[self.to[e]] == level[u] + 1:
                    break
                it[u] += 1
            else:
                if not path:
                    return 0
                u = self.to[path.pop() ^ 1]
                it[u] += 1
                continue
            path.append(e)
            u = self.to[e]
        got = min(self.cap[e] for e in path)
        for e in path:
            self.cap[e] -= got
            self.cap[e ^ 1] += got
        return got

    def run(self, s: int, t: int) -> tuple[int, list[int]]:
        flow = 0
        while True:
            level = self._levels(s)
            if level[t] < 0:
                return flow, level
            it = [0] * self.n
            while got := self._push(s, t, level, it):
                flow += got


def _reference_flow(spec):
    """(D, min_cut, certificate rows) from the arc-list Dinic."""
    dag = build_dag(spec)
    edges, bottlenecks = _reference_edges(dag)
    dinic = _ArcDinic(2 + 2 * dag.node_count)
    handles = [dinic.add(u, v, c) for u, v, c in edges]
    value, level = dinic.run(0, 1)
    texts, rows = dag.labels(range(dag.node_count)), []
    for e in bottlenecks:
        u, v, c = edges[e]
        text = texts[(u - 2) // 2]
        rows.append({"id": f"sink:{text}" if v == 1 else text, "capacity": c,
                     "saturated": dinic.cap[handles[e]] == 0,
                     "in_cut": level[u] >= 0 > level[v]})
    cut = sorted(row["id"] for row in rows if row["in_cut"])
    return value, tuple(cut), rows


def _flow_triple(spec):
    res = dispersion_exponent(spec)
    return res.D, res.min_cut, res.certificate()["bottlenecks"]


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
    labels = dag.labels(range(dag.node_count))
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
    res = dispersion_exponent(load("diamond.disp"))
    cert = res.certificate()
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


_GOLDEN_DOT = {
    "fg.disp": """digraph network {
  "x.in" -> "x.out" [label="1"];
  "f(x).in" -> "f(x).out" [label="1"];
  "g(x).in" -> "g(x).out" [label="1"];
  "s" -> "x.in" [label="inf"];
  "x.out" -> "f(x).in" [label="inf"];
  "x.out" -> "g(x).in" [label="inf"];
  "f(x).out" -> "t" [label="1"];
  "g(x).out" -> "t" [label="1"];
}
""",
    "diamond.disp": """digraph network {
  "x.in" -> "x.out" [label="1"];
  "y.in" -> "y.out" [label="1"];
  "z.in" -> "z.out" [label="1"];
  "w.in" -> "w.out" [label="1"];
  "f(x, y).in" -> "f(x, y).out" [label="1"];
  "f(x, z).in" -> "f(x, z).out" [label="1"];
  "f(y, w).in" -> "f(y, w).out" [label="1"];
  "f(z, w).in" -> "f(z, w).out" [label="1"];
  "s" -> "x.in" [label="inf"];
  "s" -> "y.in" [label="inf"];
  "s" -> "z.in" [label="inf"];
  "s" -> "w.in" [label="inf"];
  "x.out" -> "f(x, y).in" [label="inf"];
  "y.out" -> "f(x, y).in" [label="inf"];
  "x.out" -> "f(x, z).in" [label="inf"];
  "z.out" -> "f(x, z).in" [label="inf"];
  "y.out" -> "f(y, w).in" [label="inf"];
  "w.out" -> "f(y, w).in" [label="inf"];
  "z.out" -> "f(z, w).in" [label="inf"];
  "w.out" -> "f(z, w).in" [label="inf"];
  "f(x, y).out" -> "t" [label="1"];
  "f(x, z).out" -> "t" [label="1"];
  "f(y, w).out" -> "t" [label="1"];
  "f(z, w).out" -> "t" [label="1"];
}
""",
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_DOT))
def test_network_dot_golden(name):
    net = build_network(build_dag(load(name)))
    assert network_dot(net) == _GOLDEN_DOT[name]


@pytest.mark.parametrize("name", corpus_names(".disp"))
def test_network_edges_match_the_eager_list(name):
    """The edge list is built on demand, and it is the list the network
    was once built from: the benchmark counts its edges."""
    dag = build_dag(load(name))
    edges, _ = _reference_edges(dag)
    assert build_network(dag).edges == tuple(edges)


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
    """The tree rule `decide_perfect_r1` used, by recursion: any variable
    occurrence."""
    return isinstance(term, Var) or any(map(_has_variable, term.args))


_inputs = st.sampled_from(("a", "b", "c"))


@st.composite
def _specs(draw):
    inputs = tuple(sorted(draw(st.sets(_inputs, min_size=1, max_size=3))))
    symbols = tuple((name, draw(st.integers(0, 2)))
                    for name in sorted(draw(st.sets(
                        st.sampled_from(("f", "g")), max_size=2))))
    if draw(st.booleans()):
        symbols += (("k", 0),)  # a constant

    def term(depth):
        if depth == 0 or not symbols or draw(st.booleans()):
            return Var(draw(st.sampled_from(inputs)))
        name, arity = draw(st.sampled_from(symbols))
        if arity > 1 and draw(st.booleans()):  # f(t, t): one child twice
            return App(name, (term(depth - 1),) * arity)
        return App(name, tuple(term(depth - 1) for _ in range(arity)))

    outputs = tuple(term(2) for _ in range(draw(st.integers(1, 3))))
    outputs += tuple(draw(st.lists(st.sampled_from(outputs), max_size=2)))
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
    """Removing exactly the certified bottlenecks kills every flow path,
    and D disjoint paths show that no smaller cut does."""
    _check_exponent_certificate(spec)


def _render(t) -> str:
    """Prefix text of a tree, by recursion: the renderer's reference."""
    if isinstance(t, Var):
        return t.name
    return f"{t.symbol}({', '.join(map(_render, t.args))})"


def _recursive_dag(spec):
    """Hash-consing keyed on whole subterms, walked recursively, with each
    node labelled by `_render`: the builder's and the renderer's reference,
    for terms shallow enough to recurse on."""
    ids = {Var(name): i for i, name in enumerate(spec.inputs)}
    labels, ops = list(spec.inputs), []

    def cons(t):
        if t not in ids:
            children = tuple(cons(a) for a in t.args)
            ids[t] = len(labels)
            labels.append(_render(t))
            ops.append((t.symbol, children))
        return ids[t]

    outputs = tuple(cons(t) for t in spec.outputs)
    return spec.inputs, tuple(ops), outputs, tuple(labels)


@settings(max_examples=80, deadline=None)
@given(_specs())
def test_dag_matches_recursive_hash_consing(spec):
    dag = build_dag(spec)
    labels = tuple(dag.labels(range(dag.node_count)))  # one pass in id order
    assert (dag.inputs, dag.ops, dag.outputs, labels) == _recursive_dag(spec)
    # the stack route, node by node and in reverse
    assert [dag.labels([v])[0] for v in range(dag.node_count)] == list(labels)
    assert dag.labels(range(dag.node_count)[::-1]) == list(labels[::-1])


def test_certificate_comes_from_the_exponent_run(monkeypatch):
    runs = []
    flow = flownet.split_flow
    monkeypatch.setattr(flownet, "split_flow",
                        lambda network: runs.append(1) or flow(network))
    spec = load("diamond.disp")
    res = dispersion_exponent(spec)
    assert runs == [1]
    assert res.certificate()["cut"] == list(res.min_cut)
    runs.clear()
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["exponent", str(corpus_path("diamond.disp")),
                         "--certificate"]) == 0
    assert runs == [1]
    assert json.loads(out.getvalue())["result"]["certificate"] == \
        res.certificate()


# ---- the flow itself: pinned to the arc-list Dinic, and checked as a flow --

def _layered_spec(k: int, width: int, rng: random.Random, layers: int = 3):
    """The benchmark's layered family: random binary f0..f3 layers over k
    inputs, the top layer's terms the outputs, lower layers shared."""
    prev = [Var(f"x{j}") for j in range(k)]
    for _ in range(layers):
        prev = [App(f"f{rng.randrange(4)}", (rng.choice(prev), rng.choice(prev)))
                for _ in range(width)]
    return DispersionSpec(tuple(f"x{j}" for j in range(k)),
                          Signature(tuple((f"f{i}", 2) for i in range(4))),
                          tuple(prev))


def _many_symbols_spec(n: int, inputs: int, rng: random.Random):
    """The benchmark's many-symbols family: outputs g_i(x_{i mod inputs})
    over n unary symbols, shuffled."""
    outs = [App(f"g{i}", (Var(f"x{i % inputs}"),)) for i in range(n)]
    rng.shuffle(outs)
    return DispersionSpec(tuple(f"x{j}" for j in range(inputs)),
                          Signature(tuple((f"g{i}", 1) for i in range(n))),
                          tuple(outs))


def _generated_specs():
    rng = random.Random(11)
    specs = [_layered_spec(k, width, rng)
             for k, width in ((2, 3), (3, 8), (5, 12), (10, 40), (25, 100))]
    specs += [_many_symbols_spec(n, inputs, rng)
              for n, inputs in ((3, 2), (20, 5), (120, 50))]
    return specs


@settings(max_examples=150, deadline=None)
@given(_specs())
def test_flow_matches_the_arc_list_dinic(spec):
    assert _flow_triple(spec) == _reference_flow(spec)


@pytest.mark.parametrize("name", corpus_names(".disp"))
def test_corpus_flow_matches_the_arc_list_dinic(name):
    spec = load(name)
    assert _flow_triple(spec) == _reference_flow(spec)


@pytest.mark.parametrize("spec", _generated_specs())
def test_generated_flow_matches_the_arc_list_dinic(spec):
    assert _flow_triple(spec) == _reference_flow(spec)
    _check_flow_paths(spec, dispersion_exponent(spec))


def _check_flow_paths(spec, result) -> list[list[int]]:
    """Read the flow's unit paths back from its per-node state alone: from
    each saturated sink edge, follow the feeding child down to an input.
    They must be exactly D vertex-disjoint paths along child -> parent
    edges of `spec.dag`, ending at distinct output roots and covering
    every node whose split edge carries flow."""
    dag, flow = spec.dag, result.flow
    k = len(dag.inputs)
    paths = []
    for root, sunk in enumerate(flow.sunk):
        if not sunk:
            continue
        path = [root]
        while path[-1] >= k:  # an op: it is fed by one of its children
            v = path[-1]
            assert flow.used[v]
            path.append(flow.feed[v])
        assert flow.used[path[-1]]
        paths.append(path)
    assert len(paths) == flow.value == result.D
    _check_disjoint_paths(dag, paths)
    nodes = {v for path in paths for v in path}
    assert nodes == {v for v, used in enumerate(flow.used) if used}
    return paths


def _check_disjoint_paths(dag, paths) -> None:
    """Menger's lower bound: each path, root first, runs from an output
    root down child edges to an input, and no two paths share a node."""
    k, roots = len(dag.inputs), set(dag.outputs)
    for path in paths:
        assert path[0] in roots, "a path must start at an output root"
        assert path[-1] < k, "a path must end at an input"
        for parent, child in zip(path, path[1:]):
            assert parent >= k and child in dag.ops[parent - k][1], \
                "a path must follow child -> parent edges"
    nodes = [v for path in paths for v in path]
    assert len(nodes) == len(set(nodes)), "two paths share a node"


def _check_cut(dag, cut) -> None:
    """Menger's upper bound: with the cut's split nodes and sink slots
    deleted from the DAG, no input reaches a live output root."""
    labels = dag.labels(range(dag.node_count))
    cut = set(cut)
    k = len(dag.inputs)
    reach = [labels[v] not in cut for v in range(k)]
    for i, (_, children) in enumerate(dag.ops):
        reach.append(labels[k + i] not in cut
                     and any(reach[c] for c in children))
    alive = [labels[r] for r in dag.outputs
             if reach[r] and f"sink:{labels[r]}" not in cut]
    assert not alive, f"a path survives the cut into {alive[0]}"


def _check_certificate(dag, paths, cut) -> None:
    """`paths` and `cut` together prove D = len(cut): disjoint paths show
    D >= len(paths), a disconnecting cut shows D <= len(cut)."""
    _check_disjoint_paths(dag, paths)
    _check_cut(dag, cut)
    assert len(paths) == len(cut), "as many paths as cut units"


def _check_exponent_certificate(spec) -> tuple[list[list[int]], list[str]]:
    """The exponent's paths, read off its flow, and its reported cut,
    checked as one certificate."""
    result = dispersion_exponent(spec)
    paths, cut = _check_flow_paths(spec, result), result.certificate()["cut"]
    _check_certificate(spec.dag, paths, cut)
    return paths, cut


def _mutants(paths, cut):
    """The certificate with one defect each, as (the rejection expected,
    paths, cut): a path dropped, two paths sharing a node, and a cut with
    one unit removed."""
    if cut:
        yield "as many paths as cut units", paths[1:], cut
        yield "a path survives the cut", paths, cut[1:]
    if len(paths) > 1:
        yield "two paths share a node", [paths[0], *paths[:-1]], cut


def _check_mutants_rejected(dag, paths, cut) -> int:
    """Every mutant of a valid certificate fails, each at its own check;
    returns how many there were."""
    mutants = list(_mutants(paths, cut))
    for reason, bad_paths, bad_cut in mutants:
        with pytest.raises(AssertionError, match=reason):
            _check_certificate(dag, bad_paths, bad_cut)
    return len(mutants)


@pytest.mark.parametrize("name", corpus_names(".disp"))
def test_corpus_certificate_holds_and_its_mutants_fail(name):
    spec = load(name)
    _check_mutants_rejected(spec.dag, *_check_exponent_certificate(spec))


def test_a_path_through_a_used_node_is_rejected():
    """Rerouting g's path through f(x) down to x gives a valid path, but
    one that meets the other path at x."""
    spec = parse("dispersion { inputs x, y; sig f/1, g/2, h/1; "
                 "outputs g(f(x), h(y)), h(h(x)); }")
    # nodes: x 0, y 1, f(x) 2, h(y) 3, g(f(x), h(y)) 4, h(x) 5, h(h(x)) 6
    paths, cut = _check_exponent_certificate(spec)
    assert (paths, cut) == ([[4, 3, 1], [6, 5, 0]], ["x", "y"])
    assert _check_mutants_rejected(spec.dag, paths, cut) == 3
    _check_disjoint_paths(spec.dag, [[4, 2, 0]])
    with pytest.raises(AssertionError, match="two paths share a node"):
        _check_certificate(spec.dag, [[4, 2, 0], [6, 5, 0]], cut)


@settings(max_examples=150, deadline=None)
@given(_specs())
def test_flow_decomposes_into_disjoint_paths(spec):
    _check_flow_paths(spec, dispersion_exponent(spec))


@pytest.mark.parametrize("name", corpus_names(".disp"))
def test_corpus_flow_decomposes_into_disjoint_paths(name):
    spec = load(name)
    _check_flow_paths(spec, dispersion_exponent(spec))


def test_second_phase_reroutes_through_a_used_node():
    """The first phase sends x through f(x) into g; the second must move
    g onto h(y) and x onto h(x), going back across f(x)'s split edge."""
    spec = parse("dispersion { inputs x, y; sig f/1, g/2, h/1; "
                 "outputs g(f(x), h(y)), h(h(x)); }")
    assert _flow_triple(spec) == _reference_flow(spec)
    result = dispersion_exponent(spec)
    # nodes: x 0, y 1, f(x) 2, h(y) 3, g(f(x), h(y)) 4, h(x) 5, h(h(x)) 6
    assert _check_flow_paths(spec, result) == [[4, 3, 1], [6, 5, 0]]
    assert result.min_cut == ("x", "y")


def test_deep_flow_is_one_path():
    """f(...f(x)...) nested 10^5 deep: one path through every node, found
    and read back without recursion."""
    depth = 10 ** 5
    spec = parse("dispersion { inputs x; sig f/1; outputs "
                 + "f(" * depth + "x" + ")" * depth + "; }")
    (path,) = _check_flow_paths(spec, dispersion_exponent(spec))
    assert path == list(range(depth, -1, -1))
