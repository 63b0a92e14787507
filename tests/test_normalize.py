"""Flatten/quotient pipeline, diversification, embedding, padding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termflow import normalize
from termflow.dsl import KEYWORDS, parse
from termflow.errors import PreconditionError
from termflow.normalize import (Merge, NormalEquation, NormalSystem, UnionFind,
                                classify, collision_quotient, diversify,
                                embed_dispersion, flatten, pad_dispersion,
                                pipeline, quotient_vars)
from termflow.terms import App, Equation, Signature, TermSystem, Var
from corpus_loader import load


def _eqs(norm):
    return [(e.symbol, e.args, e.defined) for e in norm.equations]


def test_flatten_nested_introduces_auxiliaries():
    flat = flatten(load("flatten_nested.inst"))
    assert _eqs(flat) == [("g", ("x",), "_z0"), ("f", ("_z0",), "_z1")]
    assert flat.var_equalities == (("_z1", "y"),)
    assert flat.auxiliaries == ("_z0", "_z1")
    assert flat.variables == ("x", "y", "_z0", "_z1")


def test_flatten_shares_repeated_subterms():
    # f(g(x)) = y and g(x) = z reuse one auxiliary for g(x)
    system = TermSystem(
        variables=("x", "y", "z"),
        signature=Signature(symbols=(("f", 1), ("g", 1))),
        equations=(
            Equation(App("f", (App("g", (Var("x"),)),)), Var("y")),
            Equation(App("g", (Var("x"),)), Var("z")),
        ))
    flat = flatten(system)
    aux = [v for v in flat.variables if v.startswith("_")]
    assert aux == ["_z0", "_z1"]  # g(x) and f(g(x)) only, g(x) hash-consed
    assert ("g", ("x",), "_z0") in _eqs(flat)


def test_flatten_leaves_flat_systems_alone():
    flat = flatten(load("fx.inst"))
    assert _eqs(flat) == [("f", ("x",), "y")]
    assert flat.var_equalities == ()
    assert flat.variables == ("x", "y")


def test_quotient_vars_merges_handle_into_named_variable():
    norm = quotient_vars(flatten(load("flatten_nested.inst")))
    assert _eqs(norm) == [("g", ("x",), "_z0"), ("f", ("_z0",), "y")]
    assert "_z1" not in norm.variables


def test_quotient_prefers_original_names_then_lexicographic():
    norm = quotient_vars(flatten(load("two_sided.inst")))
    # both handles are auxiliaries: lexicographically least survives
    assert _eqs(norm) == [("f", ("x",), "_z0"), ("g", ("y",), "_z0")]


def test_two_sided_is_normal_but_not_functional():
    norm, rep = pipeline(load("two_sided.inst"))
    assert rep.is_normal
    assert not rep.is_fnf
    assert not rep.is_cfnf
    definers = [e.defined for e in norm.equations]
    assert definers == ["_z0", "_z0"]


def test_collision_quotient_merges_right_hand_sides():
    norm = collision_quotient(quotient_vars(flatten(load("collision.inst"))))
    assert _eqs(norm) == [("f", ("x",), "v")]
    assert norm.variables == ("x", "v")


def test_collision_cascade_runs_to_fixpoint():
    norm, rep = pipeline(load("cascade.inst"))
    assert _eqs(norm) == [("f", ("x",), "u"), ("g", ("u",), "a")]
    assert rep.merges == (Merge("u", "v", "collision_quotient"),
                          Merge("a", "b", "collision_quotient"))
    assert rep.is_cfnf


def test_pipeline_report_on_nested_example():
    norm, rep = pipeline(load("flatten_nested.inst"))
    assert rep.stages == ("flatten", "quotient_vars", "collision_quotient",
                          "classify")
    assert rep.auxiliaries == ("_z0", "_z1")
    assert rep.merges == (Merge("y", "_z1", "quotient_vars"),)
    assert rep.sources == ("x",)
    assert rep.defined == ("y", "_z0")
    assert rep.is_fnf and rep.is_cfnf and rep.is_normal
    assert norm.variables == ("x", "y", "_z0")


def test_classify_index_coding():
    norm, rep = pipeline(load("index_coding.inst"))
    assert rep.sources == ()
    assert rep.auxiliaries == ()
    assert rep.merges == ()
    assert rep.is_fnf and rep.is_cfnf
    assert set(rep.defined) == {"x1", "x2", "x3", "y"}
    cls = classify(norm)
    assert cls.is_fnf and cls.is_collision_free


def _as_term_system(norm):
    eqs = tuple(Equation(App(e.symbol, tuple(Var(a) for a in e.args)),
                         Var(e.defined)) for e in norm.equations)
    return TermSystem(variables=norm.variables, signature=norm.signature,
                      equations=eqs)


@pytest.mark.parametrize("name", ["fx.inst", "flatten_nested.inst",
                                  "two_sided.inst", "collision.inst",
                                  "cascade.inst", "index_coding.inst",
                                  "two_cycle.inst", "diamond_embedding.inst"])
def test_pipeline_idempotent_on_corpus(name):
    norm, _ = pipeline(load(name))
    again, rep = pipeline(_as_term_system(norm))
    assert again.equations == norm.equations
    assert again.variables == norm.variables
    assert rep.auxiliaries == () and rep.merges == ()


def test_diversify_one_fresh_symbol_per_equation():
    norm, _ = pipeline(load("flatten_nested.inst"))
    div = diversify(norm)
    assert div.signature.symbols == (("g@0", 1), ("f@1", 1))
    assert _eqs(div) == [("g@0", ("x",), "_z0"), ("f@1", ("_z0",), "y")]
    assert div.variables == norm.variables


def test_diversify_splits_shared_symbols():
    norm, _ = pipeline(load("two_cycle.inst"))
    div = diversify(norm)
    assert div.signature.symbols == (("f@0", 1), ("f@1", 1))
    assert len({e.symbol for e in div.equations}) == len(div.equations)


def test_diversified_embedding_signature():
    norm, _ = pipeline(load("diamond_embedding.inst"))
    div = diversify(norm)
    assert div.signature.symbols == (
        ("f@0", 2), ("f@1", 2), ("f@2", 2), ("f@3", 2),
        ("h1@4", 4), ("h2@5", 4), ("h3@6", 4), ("h4@7", 4))


def test_embed_dispersion_matches_corpus_form():
    embedded = embed_dispersion(load("diamond.disp"))
    assert embedded == load("diamond_embedding.inst")


def test_embed_dispersion_small():
    spec = load("single_fn.disp")
    system = embed_dispersion(spec)
    assert system.variables == ("x", "y1")
    assert system.signature.symbols == (("f", 1), ("h1", 1))
    assert system.equations == (
        Equation(Var("y1"), App("f", (Var("x"),))),
        Equation(Var("x"), App("h1", (Var("y1"),))),
    )


def test_embed_dispersion_avoids_name_clashes():
    # an input named y1 must not collide with fresh output variables
    from termflow.terms import DispersionSpec
    spec = DispersionSpec(inputs=("y1", "h1"), signature=Signature(symbols=()),
                          outputs=(Var("y1"), Var("h1")))
    system = embed_dispersion(spec)
    assert len(set(system.variables)) == len(system.variables)
    names = set(system.variables) | set(system.signature.names)
    assert len(names) == len(system.variables) + len(system.signature.names)


def test_pad_appends_projection_outputs():
    padded = pad_dispersion(load("pad_base.disp"), 2, 2)
    assert padded.outputs[0] == App("p", (Var("x1"), Var("x2")))
    assert padded.outputs[1] == Var("x2")
    assert padded.inputs == ("x1", "x2")


def test_pad_adds_fresh_inputs_when_k_grows():
    padded = pad_dispersion(load("diamond.disp"), 5, 5)
    assert padded.inputs == ("x", "y", "z", "w", "x5")
    assert padded.outputs[:4] == load("diamond.disp").outputs
    assert padded.outputs[4] == Var("x5")


def test_pad_identity_and_errors():
    base = load("pad_base.disp")
    assert pad_dispersion(base, 1, 2) == base
    with pytest.raises(PreconditionError):
        pad_dispersion(base, 0, 2)  # cannot shrink outputs
    with pytest.raises(PreconditionError):
        pad_dispersion(base, 1, 1)  # cannot shrink inputs
    with pytest.raises(PreconditionError):
        pad_dispersion(base, 4, 2)  # not enough inputs to project from


_ident = st.from_regex(r"[a-w][a-z0-9]{0,2}", fullmatch=True).filter(
    lambda s: s not in KEYWORDS)


@st.composite
def _term_systems(draw):
    names = draw(st.lists(_ident, min_size=4, max_size=6, unique=True))
    variables = tuple(names[:3])
    symbols = tuple((name, draw(st.integers(1, 2))) for name in names[3:5])

    def term(depth):
        if depth == 0 or draw(st.booleans()):
            return Var(draw(st.sampled_from(variables)))
        name, arity = draw(st.sampled_from(symbols))
        return App(name, tuple(term(depth - 1) for _ in range(arity)))

    eqs = []
    for _ in range(draw(st.integers(1, 2))):
        lhs = term(2)
        rhs = term(1)
        eqs.append(Equation(lhs, rhs))
    return TermSystem(variables=variables, signature=Signature(symbols=symbols),
                      equations=tuple(eqs))


@settings(max_examples=60, deadline=None)
@given(_term_systems())
def test_pipeline_output_is_normal_and_idempotent(system):
    norm, rep = pipeline(system)
    cls = classify(norm)
    assert cls.is_collision_free
    assert rep.is_normal
    # every equation is flat by construction
    for eq in norm.equations:
        assert all(isinstance(a, str) for a in eq.args)
    again, rep2 = pipeline(_as_term_system(norm))
    assert again.equations == norm.equations
    assert rep2.merges == () and rep2.auxiliaries == ()


@settings(max_examples=60, deadline=None)
@given(_term_systems())
def test_flatten_preserves_structure_via_origins(system):
    flat = flatten(system)
    assert flat.auxiliaries == tuple(v for v in flat.variables
                                     if v.startswith("_"))
    # auxiliaries never leak into the original variable list
    for v in system.variables:
        assert v in flat.variables
    for a, b in flat.var_equalities:
        assert a in flat.variables and b in flat.variables


@settings(max_examples=60, deadline=None)
@given(_term_systems())
def test_normal_system_dag_is_its_term_systems(system):
    flat = flatten(system)
    norm, _ = pipeline(system)
    for out in (flat, norm, diversify(flat), diversify(norm)):
        assert out.dag == out.to_term_system().dag


@settings(max_examples=40, deadline=None)
@given(_term_systems())
def test_diversify_keeps_shape(system):
    norm, _ = pipeline(system)
    div = diversify(norm)
    assert len(div.equations) == len(norm.equations)
    assert len(div.signature.symbols) == len(div.equations)
    for before, after in zip(norm.equations, div.equations):
        assert after.args == before.args
        assert after.defined == before.defined
        assert after.symbol.startswith(before.symbol + "@")


@pytest.mark.parametrize("name", ["cascade.inst", "flatten_nested.inst",
                                  "two_sided.inst"])
def test_quotients_append_to_a_merges_sink(name):
    merges = []
    quot = quotient_vars(flatten(load(name)), merges)
    out = collision_quotient(quot, merges)
    norm, rep = pipeline(load(name))
    assert out == norm
    assert tuple(merges) == rep.merges


def _recursive_flatten(system):
    """Flattening as a recursive walk keyed on whole subterms: the
    reference for auxiliary numbering and equation order."""
    aux, equations, equalities = {}, [], []

    def handle(t):
        if isinstance(t, Var):
            return t.name
        if t not in aux:
            args = tuple(handle(a) for a in t.args)
            aux[t] = f"_z{len(aux)}"
            equations.append((t.symbol, args, aux[t]))
        return aux[t]

    for eq in system.equations:
        flat = [(app, var) for app, var in ((eq.lhs, eq.rhs), (eq.rhs, eq.lhs))
                if isinstance(app, App) and isinstance(var, Var)
                and all(isinstance(a, Var) for a in app.args)]
        if flat:
            app, var = flat[0]
            equations.append((app.symbol, tuple(a.name for a in app.args),
                              var.name))
        elif isinstance(eq.lhs, Var) and isinstance(eq.rhs, Var):
            equalities.append((eq.lhs.name, eq.rhs.name))
        else:
            equalities.append((handle(eq.lhs), handle(eq.rhs)))
    return equations, tuple(equalities), tuple(aux.values())


@settings(max_examples=100, deadline=None)
@given(_term_systems())
def test_flatten_matches_recursive_reference(system):
    flat = flatten(system)
    assert (_eqs(flat), flat.var_equalities, flat.auxiliaries) == \
        _recursive_flatten(system)


def _fixpoint_collision_quotient(system):
    """The collision quotient as a fixpoint: a fresh union-find per round
    and the whole system re-substituted after it.  The reference for the
    output system and the merges list.  Equations are deduplicated first,
    so a system whose only repeats are verbatim copies collapses too."""
    merges = []
    system = NormalSystem(system.variables, system.signature,
                          tuple(dict.fromkeys(system.equations)),
                          system.var_equalities, system.auxiliaries)
    while True:
        uf = UnionFind(system.variables, system.auxiliaries)
        first, changed = {}, False
        for eq in system.equations:
            prev = first.get(eq.key)
            if prev is None:
                first[eq.key] = eq.defined
            elif uf.find(prev) != uf.find(eq.defined):
                uf.union(prev, eq.defined)
                changed = True
        if not changed:
            return system, merges
        rep = {v: uf.find(v) for v in system.variables}
        merges += [Merge(r, v, "collision_quotient")
                   for v, r in rep.items() if v != r]
        equations = (NormalEquation(e.symbol, tuple(rep[u] for u in e.args),
                                    rep[e.defined]) for e in system.equations)
        system = NormalSystem(
            tuple(v for v in system.variables if rep[v] == v),
            system.signature, tuple(dict.fromkeys(equations)), (),
            tuple(a for a in system.auxiliaries if rep[a] == a))


@st.composite
def _colliding_systems(draw):
    """Depth-1 systems over few names and symbols: keys collide often and
    merges chain through arguments."""
    names = draw(st.lists(st.sampled_from(["a", "b", "c", "d", "_z0", "_z1",
                                           "_z2"]),
                          min_size=1, max_size=7, unique=True))
    symbols = (("f", draw(st.integers(0, 2))), ("g", 1), ("h", 2))
    equations = tuple(
        NormalEquation(sym, tuple(draw(st.sampled_from(names))
                                  for _ in range(arity)),
                       draw(st.sampled_from(names)))
        for sym, arity in draw(st.lists(st.sampled_from(symbols),
                                        max_size=12)))
    return NormalSystem(tuple(names), Signature(symbols), equations, (),
                        tuple(v for v in names if v.startswith("_")))


@settings(max_examples=300, deadline=None)
@given(_colliding_systems())
def test_collision_quotient_matches_fixpoint_reference(system):
    merges = []
    out = collision_quotient(system, merges)
    assert (out, merges) == _fixpoint_collision_quotient(system)


def _cascade(n):
    eqs = ["f(a) = x0", "f(a) = y0"]
    eqs += [f"g({c}{i}) = {c}{i + 1}" for i in range(n - 1) for c in "xy"]
    names = ["a"] + [f"{c}{i}" for i in range(n) for c in "xy"]
    body = "".join(f" eq {e};" for e in eqs)
    return parse(f"instance {{ vars {', '.join(names)}; sig f/1, g/1;{body} }}")


def test_collision_quotient_builds_one_system(monkeypatch):
    """The cascade merges one pair per round for 200 rounds, yet the
    stage builds a single NormalSystem: the final substitution."""
    quot = quotient_vars(flatten(_cascade(200)))
    built = []

    class Counted(NormalSystem):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(normalize, "NormalSystem", Counted)
    merges = []
    out = collision_quotient(quot, merges)
    assert len(built) == 1
    assert len(merges) == 200 and len(out.equations) == 200
    assert classify(out).is_cfnf


def test_collision_quotient_rekeys_through_an_absorbed_class():
    """g(_z2) must be re-keyed when _z1, which absorbed _z2 in round 1,
    is itself absorbed by a in round 2: then g(_z2) = c meets g(a) = d."""
    eq = NormalEquation
    system = NormalSystem(
        ("a", "c", "d", "_z1", "_z2"),
        Signature((("f", 0), ("g", 1), ("h", 2))),
        (eq("f", (), "_z1"), eq("f", (), "_z2"),
         eq("h", ("_z1", "_z1"), "a"), eq("h", ("_z2", "_z2"), "_z1"),
         eq("g", ("_z2",), "c"), eq("g", ("a",), "d")),
        (), ("_z1", "_z2"))
    merges = []
    out = collision_quotient(system, merges)
    assert merges == [Merge("_z1", "_z2", "collision_quotient"),
                      Merge("a", "_z1", "collision_quotient"),
                      Merge("c", "d", "collision_quotient")]
    assert (out, merges) == _fixpoint_collision_quotient(system)
