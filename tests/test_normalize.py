"""Flatten/quotient pipeline, diversification, embedding, padding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termflow import normalize
from termflow.corpus import corpus_names
from termflow.dsl import KEYWORDS, parse, render
from termflow.errors import PreconditionError, ValidationError
from termflow.normalize import (Merge, NormalEquation, NormalSystem, UnionFind,
                                classify, collision_quotient, diversify,
                                embed_dispersion, flatten, pad_dispersion,
                                pipeline, quotient_vars)
from termflow.terms import App, Equation, Signature, TermSystem, Var
from corpus_loader import load
from preservation import first_mismatch


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


def _shallow(eq):
    """The tree rule for an equation's shape: `f(vars) = v` (either way
    round) as a NormalEquation, `x = y` as an equality pair, anything else
    as None: it needs auxiliaries."""
    lhs, rhs = eq.lhs, eq.rhs
    for app, var in ((lhs, rhs), (rhs, lhs)):
        if (isinstance(app, App) and isinstance(var, Var)
                and all(isinstance(a, Var) for a in app.args)):
            return NormalEquation(app.symbol, tuple(a.name for a in app.args),
                                  var.name)
    if isinstance(lhs, Var) and isinstance(rhs, Var):
        return (lhs.name, rhs.name)
    return None


def _recursive_flatten(system):
    """Flattening as a recursive walk of the trees keyed on whole subterms,
    with `_shallow` picking each equation's shape: the reference for
    auxiliary numbering and equation order."""
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
        flat = _shallow(eq)
        if isinstance(flat, NormalEquation):
            equations.append((flat.symbol, flat.args, flat.defined))
        elif flat is not None:
            equalities.append(flat)
        else:
            equalities.append((handle(eq.lhs), handle(eq.rhs)))
    return equations, tuple(equalities), tuple(aux.values())


@st.composite
def _shaped_systems(draw):
    """Systems over x, y, z and c/0, f/1, g/2 whose equations take every
    shape flatten tells apart: `f(vars) = v` either way round, `x = y` and
    `x = x`, constants `c() = v`, two equal sides (`f(x) = f(x)`), and
    nested sides."""
    variables = ("x", "y", "z")
    symbols = (("c", 0), ("f", 1), ("g", 2))

    def term(depth):
        if depth == 0 or draw(st.booleans()):
            return Var(draw(st.sampled_from(variables)))
        name, arity = draw(st.sampled_from(symbols))
        return App(name, tuple(term(depth - 1) for _ in range(arity)))

    def flat():  # an application to variables only, constants included
        name, arity = draw(st.sampled_from(symbols))
        return App(name, tuple(term(0) for _ in range(arity)))

    shapes = [lambda: (flat(), term(0)), lambda: (term(0), flat()),
              lambda: (term(0), term(0)), lambda: (term(2),) * 2,
              lambda: (term(3), term(3))]
    eqs = tuple(Equation(*draw(st.sampled_from(shapes))())
                for _ in range(draw(st.integers(1, 4))))
    return TermSystem(variables, Signature(symbols), eqs)


@settings(max_examples=100, deadline=None)
@given(_term_systems())
def test_flatten_matches_recursive_reference(system):
    flat = flatten(system)
    assert (_eqs(flat), flat.var_equalities, flat.auxiliaries) == \
        _recursive_flatten(system)


@pytest.mark.parametrize("name", corpus_names(".inst"))
def test_flatten_matches_recursive_reference_on_the_corpus(name):
    system = load(name)
    flat = flatten(system)
    assert (_eqs(flat), flat.var_equalities, flat.auxiliaries) == \
        _recursive_flatten(system)


@settings(max_examples=200, deadline=None)
@given(_shaped_systems())
def test_flatten_shapes_match_the_tree_rule(system):
    """flatten reads each equation's shape off its two DAG roots; the
    reference reads it off the trees with `_shallow`."""
    flat = flatten(system)
    assert (_eqs(flat), flat.var_equalities, flat.auxiliaries) == \
        _recursive_flatten(system)


@st.composite
def _passing_systems(draw):
    """Systems over x, y, z and c/0, f/1, g/2 whose every equation is an
    application to variables against a variable, either way round."""
    variables = ("x", "y", "z")
    symbols = (("c", 0), ("f", 1), ("g", 2))

    def equation():
        name, arity = draw(st.sampled_from(symbols))
        app = App(name, tuple(Var(draw(st.sampled_from(variables)))
                              for _ in range(arity)))
        var = Var(draw(st.sampled_from(variables)))
        return Equation(app, var) if draw(st.booleans()) else Equation(var, app)

    eqs = tuple(equation() for _ in range(draw(st.integers(0, 5))))
    return TermSystem(variables, Signature(symbols), eqs)


def test_flatten_on_each_shape():
    """Pass-through systems (the 2,000-chain, the 400 cascade, `v = f(x)`)
    mint no auxiliary and no equality; the others do.  All flatten as the
    recursive reference does."""
    names = ", ".join(f"v{i}" for i in range(2001))
    chain = "".join(f" eq f(v{i}) = v{i + 1};" for i in range(2000))
    texts = [f"instance {{ vars {names}; sig f/1;{chain} }}",
             "instance { vars x, v; sig f/1; eq v = f(x); }",
             "instance { vars x, y; sig f/1, g/1; eq f(g(x)) = y; }",
             "instance { vars x, y; sig f/1; eq x = y; }",
             "instance { vars x, y; sig f/1, g/1; eq f(x) = g(y); }",
             # no more ops than equations, yet one nests
             "instance { vars x, y, z; sig f/1, g/1; "
             "eq f(g(x)) = y; eq f(g(x)) = z; }"]
    systems = [parse(text) for text in texts]
    systems.insert(1, _cascade(400))
    flats = [flatten(system) for system in systems]
    assert [not (flat.auxiliaries or flat.var_equalities)
            for flat in flats] == [True, True, True, False, False, False, False]
    for system, flat in zip(systems, flats):
        assert (_eqs(flat), flat.var_equalities, flat.auxiliaries) == \
            _recursive_flatten(system)
    assert len(flats[0].equations) == 2000


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
            prev = first.get(eq[:2])
            if prev is None:
                first[eq[:2]] = eq.defined
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


def _counting_systems(monkeypatch):
    built = []

    class Counted(NormalSystem):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(normalize, "NormalSystem", Counted)
    return built


def test_collision_quotient_builds_one_system(monkeypatch):
    """The cascade merges one pair per round for 200 rounds, yet the
    stage builds a single NormalSystem: the final substitution."""
    quot = quotient_vars(flatten(_cascade(200)))
    built = _counting_systems(monkeypatch)
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


@pytest.mark.parametrize("declared,minted", [("_z0", ("_z1", "_z2")),
                                             ("_z1", ("_z0", "_z2"))])
def test_flatten_skips_declared_auxiliary_names(declared, minted):
    # the CLI refuses such names, but the library accepts them
    system = parse(f"instance {{ vars {declared}, x; sig f/1; "
                   f"eq f(f(x)) = {declared}; }}", allow_reserved=True)
    assert flatten(system).auxiliaries == minted
    norm, _ = pipeline(system)
    assert first_mismatch(system, norm, 3)[0] is None
    built = TermSystem((declared, "x"), system.signature, system.equations)
    assert flatten(built) == flatten(system)


def test_normal_equation_is_a_named_tuple():
    eq = NormalEquation("f", ("x",), "y")
    assert (eq.symbol, eq.args, eq.defined, eq[:2]) == ("f", ("x",), "y",
                                                         ("f", ("x",)))
    same = NormalEquation("f", ("x",), "y")
    assert eq == same and hash(eq) == hash(same)
    assert eq != NormalEquation("f", ("x",), "z")
    assert eq == ("f", ("x",), "y")  # it equals the plain tuple
    with pytest.raises(AttributeError):
        eq.defined = "z"
    system = NormalSystem(("x", "y", "z"), Signature((("f", 1), ("g", 2))),
                          (eq, NormalEquation("g", ("x", "y"), "z")))
    assert flatten(parse(render(system))) == system


def _chain(n):
    """The collision-free FNF chain `f(v_i) = v_{i+1}` over v_0..v_n."""
    names = tuple(f"v{i}" for i in range(n + 1))
    return NormalSystem(names, Signature((("f", 1),)),
                        tuple(NormalEquation("f", (u,), v)
                              for u, v in zip(names, names[1:])))


def test_unchanged_collision_quotient_builds_nothing(monkeypatch):
    system = _chain(200)
    built = _counting_systems(monkeypatch)
    merges = []
    assert collision_quotient(system, merges) is system
    assert built == [] and merges == []


@pytest.mark.parametrize("extra,merged", [((), []), (
    (NormalEquation("f", ("x",), "z"),),
    [Merge("y", "z", "collision_quotient")])])
def test_repeated_equation_is_rebuilt_once(monkeypatch, extra, merged):
    eq = NormalEquation("f", ("x",), "y")
    system = NormalSystem(("x", "y", "z"), Signature((("f", 1),)),
                          (eq, eq) + extra)
    built = _counting_systems(monkeypatch)
    merges = []
    out = collision_quotient(system, merges)
    assert len(built) == 1 and out is built[0]
    assert out.equations == (eq,) and merges == merged


@settings(max_examples=300, deadline=None)
@given(_colliding_systems())
def test_classify_matches_a_count_per_key(system):
    """One definition per variable, counting repeats, and one defined
    variable per (symbol, args) key."""
    defining, keys = {}, {}
    for eq in system.equations:
        defining[eq.defined] = defining.get(eq.defined, 0) + 1
        keys.setdefault(eq[:2], set()).add(eq.defined)
    cls = classify(system)
    assert cls.defined == tuple(v for v in system.variables if v in defining)
    assert cls.sources == tuple(v for v in system.variables
                                if v not in defining)
    assert cls.is_fnf == all(c == 1 for c in defining.values())
    assert cls.is_collision_free == all(len(d) == 1 for d in keys.values())


def test_classification_is_built_once_per_system(monkeypatch):
    calls = []
    body = normalize._classify
    monkeypatch.setattr(normalize, "_classify",
                        lambda system: calls.append(system) or body(system))
    norm, _ = pipeline(load("index_coding.inst"))
    assert len(calls) == 1
    assert classify(norm) is classify(norm) and len(calls) == 1
    system = _chain(3)
    assert classify(system) == classify(system) and len(calls) == 2
    flat = flatten(load("flatten_nested.inst"))
    for _ in range(2):
        with pytest.raises(PreconditionError):
            classify(flat)
    assert len(calls) == 4


# (variables, equations, variable equalities, message): each error the
# constructor reports, then pairs of errors where the first in walk order
# must win
_EQ = NormalEquation
_GOLDEN_SYSTEM_ERRORS = [
    (("x", "y", "x"), (), (), "duplicate variable in normal system"),
    (("x", "y"), (_EQ("f", ("x",), "z"),), (),
     "undeclared defined variable 'z'"),
    (("x", "y"), (_EQ("g", ("x", "q"), "y"),), (), "undeclared argument 'q'"),
    (("x", "y"), (_EQ("g", ("x",), "y"),), (), "arity mismatch on 'g'"),
    (("x", "y"), (_EQ("f", (), "y"),), (), "arity mismatch on 'f'"),
    (("x", "y"), (_EQ("h", ("x",), "y"),), (), "unknown symbol 'h'"),
    (("x", "y"), (), (("x", "w"),), "undeclared variable in equality"),
    (("x", "y"), (), (("w", "x"),), "undeclared variable in equality"),
    (("x", "x"), (_EQ("h", ("q",), "z"),), (("w", "x"),),
     "duplicate variable in normal system"),
    (("x", "y"), (_EQ("f", ("q",), "z"),), (),
     "undeclared defined variable 'z'"),
    (("x", "y"), (_EQ("h", ("q",), "y"),), (), "undeclared argument 'q'"),
    (("x", "y"), (_EQ("g", ("x",), "y"), _EQ("f", ("x",), "z")), (),
     "arity mismatch on 'g'"),
    (("x", "y"), (_EQ("f", ("x",), "z"), _EQ("g", ("x",), "y")), (),
     "undeclared defined variable 'z'"),
    (("x", "y"), (_EQ("h", ("x",), "y"),), (("x", "w"),),
     "unknown symbol 'h'"),
]


@pytest.mark.parametrize("prefix", [0, 2000])
@pytest.mark.parametrize("variables,equations,equalities,message",
                         _GOLDEN_SYSTEM_ERRORS)
def test_normal_system_errors(variables, equations, equalities, message,
                              prefix):
    """The message the equation-by-equation check gave, alone and after a
    valid 2,000-equation chain."""
    names = tuple(f"v{i}" for i in range(prefix + 1)) if prefix else ()
    chain = tuple(_EQ("f", (u,), v) for u, v in zip(names, names[1:]))
    with pytest.raises(ValidationError) as caught:
        NormalSystem(names + variables, Signature((("f", 1), ("g", 2))),
                     chain + equations, equalities)
    assert str(caught.value) == message


def _first_error(variables, signature, equations, equalities):
    """The reference check: the message of the first thing wrong with the
    system, walking it in order (duplicate variables, then each equation's
    defined variable, arguments and symbol, then the variable equalities),
    or None when nothing is."""
    declared = set(variables)
    if len(declared) != len(variables):
        return "duplicate variable in normal system"
    for eq in equations:
        if eq.defined not in declared:
            return f"undeclared defined variable {eq.defined!r}"
        for u in eq.args:
            if u not in declared:
                return f"undeclared argument {u!r}"
        if eq.symbol not in signature:
            return f"unknown symbol {eq.symbol!r}"
        if signature.arity(eq.symbol) != len(eq.args):
            return f"arity mismatch on {eq.symbol!r}"
    for a, b in equalities:
        if a not in declared or b not in declared:
            return "undeclared variable in equality"
    return None


@st.composite
def _malformed_systems(draw):
    """Systems over x, y, z and f/1, g/2 that may repeat a variable, name
    the undeclared q and w as a defined variable, an argument or in an
    equality, use the unknown symbol h or give f and g the wrong number of
    arguments, often several of these at once."""
    variables = tuple(draw(st.permutations(("x", "y", "z"))))
    if draw(st.integers(0, 9)) == 0:
        variables += variables[:1]
    name = st.sampled_from(variables + variables + ("q", "w"))
    symbol = st.sampled_from(("f", "f", "g", "g", "h"))

    def equation():
        args = tuple(draw(st.lists(name, max_size=3)))
        return NormalEquation(draw(symbol), args, draw(name))

    equations = tuple(equation() for _ in range(draw(st.integers(0, 3))))
    equalities = tuple((draw(name), draw(name))
                       for _ in range(draw(st.integers(0, 2))))
    return variables, equations, equalities


@settings(max_examples=500, deadline=None)
@given(_malformed_systems())
def test_normal_system_check_is_the_reference_walk(drawn):
    """The constructor refuses exactly what the reference walk refuses,
    with the reference's message for the first error in walk order."""
    variables, equations, equalities = drawn
    signature = Signature((("f", 1), ("g", 2)))
    want = _first_error(variables, signature, equations, equalities)
    try:
        NormalSystem(variables, signature, equations, equalities)
    except ValidationError as e:
        assert str(e) == want
    else:
        assert want is None
