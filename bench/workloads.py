"""Workload definitions: seeded input generators and the query list of
each workload, with the reason each workload exists next to its builder.

A workload is built from a seed into a directory of input files plus an
ordered list of `Query` objects.  Every query is one `termflow` command
line; its check (see `checks.py`) validates the report without trusting
the route that produced it.  The same seed always writes the same files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks

# The 4-output f/2, g/1 spec whose n=3 scan is 14.3M evaluations.
DISP4 = """dispersion {
  inputs x, y, z;
  sig f/2, g/1;
  outputs f(x, g(y)), g(f(x, z)), f(g(f(x, y)), g(z)), f(y, g(z));
}
"""

# Defect probes: inputs that make the CLI exit 1 today.  They run once per
# run, untimed and outside `attempted`, so the defects stay in the output
# while every timed query succeeds.
NESTED_DEFECT_DEPTH = 1200


@dataclass
class Query:
    """One CLI invocation and how to judge it.

    `check(report, ctx)` raises `checks.CheckFailure` on a wrong report and
    returns the query's work counters; `ctx` is shared by the queries of
    one pass, in order.  `same_as` names an earlier query whose report
    must be byte-identical (the --jobs 1/--jobs 2 pairs).
    """

    name: str
    argv: list[str]
    check: Callable[[dict, dict], dict] | None = None
    expect_exit: int = 0
    same_as: str | None = None


@dataclass
class Workload:
    name: str
    why: str
    queries: list[Query]
    # derived per-layer metrics: name -> (op, span, query a, query b);
    # "ratio" is a/b of the span's time, "diff" is a-b, "time" is a alone
    derived: dict[str, tuple] = field(default_factory=dict)


def _write(root: Path, name: str, text: str) -> str:
    path = root / name
    path.write_text(text)
    return str(path)


def _corpus(name: str) -> str:
    from termflow.corpus import corpus_path
    return str(corpus_path(name))


# ---- generated families ---------------------------------------------------

def cascade_text(n: int, rng: random.Random) -> str:
    """f(a)=x0; f(a)=y0; g(x_i)=x_{i+1}; g(y_i)=y_{i+1} with chains of
    length n: n collision merges, n equations left, CFNF."""
    names = ["a"] + [f"{c}{i}" for c in "xy" for i in range(n)]
    eqs = ["f(a) = x0", "f(a) = y0"]
    eqs += [f"g({c}{i}) = {c}{i + 1}" for c in "xy" for i in range(n - 1)]
    rng.shuffle(names)
    rng.shuffle(eqs)
    body = "".join(f"  eq {e};\n" for e in eqs)
    return f"instance {{\n  vars {', '.join(names)};\n  sig f/1, g/1;\n{body}}}\n"


def chain_text(n: int, rng: random.Random) -> str:
    """f(v_i) = v_{i+1}: FNF, n equations, n edges, one source v0."""
    names = [f"v{i}" for i in range(n + 1)]
    eqs = [f"f(v{i}) = v{i + 1}" for i in range(n)]
    rng.shuffle(eqs)
    body = "".join(f"  eq {e};\n" for e in eqs)
    return f"instance {{\n  vars {', '.join(names)};\n  sig f/1;\n{body}}}\n"


MANY_INPUTS = 50


def many_symbols_text(n: int, rng: random.Random) -> str:
    """outputs g_i(x_{i mod 50}) over n unary symbols: D = 50."""
    sig = [f"g{i}/1" for i in range(n)]
    outs = [f"g{i}(x{i % MANY_INPUTS})" for i in range(n)]
    rng.shuffle(sig)
    rng.shuffle(outs)
    inputs = ", ".join(f"x{j}" for j in range(MANY_INPUTS))
    return (f"dispersion {{\n  inputs {inputs};\n  sig {', '.join(sig)};\n"
            f"  outputs {', '.join(outs)};\n}}\n")


def layered_text(k: int, width: int, rng: random.Random, layers: int = 3) -> str:
    """Random binary f0..f3 layers over k inputs; the top layer's `width`
    terms are the outputs, and lower layers share subterms."""
    prev = [f"x{j}" for j in range(k)]
    for _ in range(layers):
        prev = [f"f{rng.randrange(4)}({rng.choice(prev)}, {rng.choice(prev)})"
                for _ in range(width)]
    inputs = ", ".join(f"x{j}" for j in range(k))
    return (f"dispersion {{\n  inputs {inputs};\n"
            f"  sig f0/2, f1/2, f2/2, f3/2;\n  outputs {', '.join(prev)};\n}}\n")


def nested_text(depth: int) -> str:
    """f(...f(x)...) nested `depth` deep: D = 1."""
    term = "f(" * depth + "x" + ")" * depth
    return f"dispersion {{\n  inputs x;\n  sig f/1;\n  outputs {term};\n}}\n"


# ---- random tiny inputs for the cross-check mix ------------------------------

def _random_term(rng: random.Random, sig, names, depth: int) -> str:
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(names)
    sym, arity = rng.choice(sig)
    args = ", ".join(_random_term(rng, sig, names, depth - 1)
                     for _ in range(arity))
    return f"{sym}({args})"


# Every seed gets the same multiset of shapes (input count, output or
# equation count, arities); only the terms are random.  Seeds then differ
# in content but not in how much work the mix asks for.
ARITY_PAIRS = ((2, 1), (1, 1), (2, 0), (2, 2))


def _shape(i: int) -> tuple[int, int, list[tuple[str, int]]]:
    a_f, a_g = ARITY_PAIRS[i % len(ARITY_PAIRS)]
    return 1 + (i // 4) % 3, 1 + (i // 12) % 3, [("f", a_f), ("g", a_g)]


def random_spec_text(rng: random.Random, i: int) -> str:
    """k <= 3 inputs, two symbols of arity <= 2, r <= 3 outputs of depth
    <= 3; the shape is fixed by `i`, the terms by `rng`."""
    k, r, sig = _shape(i)
    inputs = [f"x{j}" for j in range(k)]
    outs = [_random_term(rng, sig, inputs, 3) for _ in range(r)]
    sig_text = ", ".join(f"{s}/{a}" for s, a in sig)
    return (f"dispersion {{\n  inputs {', '.join(inputs)};\n  sig {sig_text};\n"
            f"  outputs {', '.join(outs)};\n}}\n")


def random_system_text(rng: random.Random, i: int) -> str:
    """<= 3 variables, two symbols of arity <= 2, 1-3 equations of depth
    <= 2 per side; the shape is fixed by `i`, the terms by `rng`."""
    v, e, sig = _shape(i)
    names = [f"v{j}" for j in range(v)]
    eqs = [f"  eq {_random_term(rng, sig, names, 2)} = "
           f"{_random_term(rng, sig, names, 2)};\n" for _ in range(e)]
    sig_text = ", ".join(f"{s}/{a}" for s, a in sig)
    return (f"instance {{\n  vars {', '.join(names)};\n  sig {sig_text};\n"
            f"{''.join(eqs)}}}\n")


# ---- workloads -------------------------------------------------------------

def brute(root: Path, seed: int) -> Workload:
    """Fixed inputs: the seed changes nothing here."""
    disp4 = _write(root, "disp4.disp", DISP4)
    diamond, coding = _corpus("diamond.disp"), _corpus("index_coding.inst")
    queries = [
        Query("disp4.n3.jobs1", ["brute", "disp", disp4, "-n", "3", "--jobs", "1"],
              checks.brute_disp(disp4, 3)),
        Query("disp4.n3.jobs2", ["brute", "disp", disp4, "-n", "3", "--jobs", "2"],
              checks.brute_disp(disp4, 3), same_as="disp4.n3.jobs1"),
        Query("index_coding.solve.n2", ["brute", "solve", coding, "-n", "2"],
              checks.brute_solve(coding)),
        Query("diamond.perfect.n3.jobs1",
              ["brute", "perfect", diamond, "-n", "3", "--jobs", "1"],
              checks.brute_perfect(diamond, 3)),
        Query("diamond.perfect.n3.jobs2",
              ["brute", "perfect", diamond, "-n", "3", "--jobs", "2"],
              checks.brute_perfect(diamond, 3), same_as="diamond.perfect.n3.jobs1"),
    ]
    return Workload(
        "brute",
        "A few long exhaustive scans: the oracle's scan kernels and worker "
        "fan-out do nearly all the work; parsing, normalization and flow "
        "do almost none.",
        queries,
        {"oracle.jobs2_speedup": ("ratio", "oracle.brute_dispersion",
                                  "disp4.n3.jobs1", "disp4.n3.jobs2"),
         "oracle.pool_overhead_s": ("diff", "oracle.check_perfect_fixed",
                                    "diamond.perfect.n3.jobs2",
                                    "diamond.perfect.n3.jobs1")})


# Sizes of the poly families; each family runs at N and 4N.
POLY_SIZES = {
    "cascade": (100, 400),
    "chain": (2000, 8000),
    "many": (500, 2000),
    "layered": ((100, 400), (400, 1600)),
    "nested": (75, 300),
}


def poly(root: Path, seed: int, sizes: dict = POLY_SIZES) -> Workload:
    rng = random.Random(seed)
    queries = []
    for n in sizes["cascade"]:
        path = _write(root, f"cascade{n}.inst", cascade_text(n, rng))
        queries.append(Query(f"cascade{n}.normalize", ["normalize", path],
                             checks.cascade_normalize(n)))
    chains = []
    for n in sizes["chain"]:
        path = _write(root, f"chain{n}.inst", chain_text(n, rng))
        chains.append(path)
        queries.append(Query(f"chain{n}.graph", ["graph", path],
                             checks.chain_graph(n)))
    small_chain = sizes["chain"][0]
    queries.append(Query(f"chain{small_chain}.guess.n2",
                         ["brute", "guess", chains[0], "-n", "2"], expect_exit=4))
    for n in sizes["many"]:
        path = _write(root, f"many{n}.disp", many_symbols_text(n, rng))
        queries.append(Query(f"many{n}.exponent.certificate",
                             ["exponent", path, "--certificate"],
                             checks.exponent(path, expect_d=MANY_INPUTS)))
    for k, width in sizes["layered"]:
        path = _write(root, f"layered{k}x{width}.disp",
                      layered_text(k, width, rng))
        queries.append(Query(f"layered{k}x{width}.exponent", ["exponent", path],
                             checks.exponent(path)))
    for depth in sizes["nested"]:
        path = _write(root, f"nested{depth}.disp", nested_text(depth))
        queries.append(Query(f"nested{depth}.exponent", ["exponent", path],
                             checks.exponent(path, expect_d=1)))
    # one scan over the deepest term: the oracle's evaluator walks the same
    # deep tree, and the image must be n^D = 5
    deep = str(root / f"nested{sizes['nested'][-1]}.disp")
    queries.append(Query(f"nested{sizes['nested'][-1]}.disp.n5",
                         ["brute", "disp", deep, "-n", "5"],
                         checks.brute_disp(deep, 5, expect_value=5)))
    (c1, c4), (m1, m4) = sizes["cascade"], sizes["many"]
    (l1, l4) = [f"layered{k}x{w}.exponent" for k, w in sizes["layered"]]
    return Workload(
        "poly",
        "Large generated inputs through the polynomial route: the oracle "
        "never scans at size, each of dsl, normalize, depgraph and flownet "
        "dominates some query, and N -> 4N pairs expose superlinear growth.",
        queries,
        {"dsl.parse.growth_4x": ("ratio", "dsl.parse",
                                 f"many{m4}.exponent.certificate",
                                 f"many{m1}.exponent.certificate"),
         "normalize.collision_quotient.growth_4x": (
             "ratio", "normalize.collision_quotient",
             f"cascade{c4}.normalize", f"cascade{c1}.normalize"),
         "flownet.build_dag.growth_4x": ("ratio", "flownet.build_dag", l4, l1),
         "oracle.refusal_s": ("time", "oracle.brute_guessing",
                              f"chain{small_chain}.guess.n2", None)})


CROSSCHECK_SPECS = 100
CROSSCHECK_SYSTEMS = 98


def crosscheck(root: Path, seed: int, specs: int = CROSSCHECK_SPECS,
               systems: int = CROSSCHECK_SYSTEMS) -> Workload:
    rng = random.Random(seed)
    queries = []
    for i in range(specs):
        path = _write(root, f"spec{i}.disp", random_spec_text(rng, i))
        queries.append(Query(f"spec{i}.exponent", ["exponent", path],
                             checks.exponent(path, key=f"spec{i}")))
        queries.append(Query(f"spec{i}.disp.n2",
                             ["brute", "disp", path, "-n", "2"],
                             checks.brute_disp(path, 2, d_key=f"spec{i}")))
    for i in range(systems):
        path = _write(root, f"system{i}.inst", random_system_text(rng, i))
        queries.append(Query(f"system{i}.normalize", ["normalize", path],
                             checks.normalize(path, key=f"system{i}")))
        queries.append(Query(f"system{i}.solve.n2",
                             ["brute", "solve", path, "-n", "2"],
                             checks.brute_solve(path, norm_key=f"system{i}")))
    diamond = _corpus("diamond.disp")
    queries.append(Query("diamond.embed.n2", ["brute", "embed", diamond, "-n", "2"],
                         checks.brute_embed(diamond, 2)))
    for name in ("fx", "two_cycle", "collision"):
        path = _corpus(f"{name}.inst")
        queries.append(Query(f"{name}.sandwich.n2",
                             ["brute", "sandwich", path, "-n", "2"],
                             checks.brute_sandwich(path)))
    return Workload(
        "crosscheck",
        "About 400 tiny seeded queries answered by both routes: each takes "
        "~2 ms, so fixed per-call cost (file load and digest, JSON, scan "
        "set-up, the pool decision) dominates.",
        queries)


BUILDERS = {"brute": brute, "poly": poly, "crosscheck": crosscheck}


def defect_probes(root: Path) -> list[Query]:
    """Inputs that exit 1 today (ROADMAP north star 3); run untimed."""
    nested = _write(root, f"nested{NESTED_DEFECT_DEPTH}.disp",
                    nested_text(NESTED_DEFECT_DEPTH))
    latin1 = root / "latin1.disp"
    latin1.write_bytes(b"dispersion { inputs x; sig f/1; outputs f(x); }\n# \xe9\n")
    return [Query(f"nested{NESTED_DEFECT_DEPTH}.exponent", ["exponent", nested]),
            Query("non_utf8.exponent", ["exponent", str(latin1)], expect_exit=2)]
