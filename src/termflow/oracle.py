"""Exhaustive finite-alphabet oracles.

Everything here is ground truth by enumeration: interpretations are counted
through the canonical table encoding (first symbol's table most significant,
within a table the all-zero argument row most significant), so the stream is
lexicographic and deterministic.  A scan is charged its closed-form space
size prod_f n^(n^arity(f)) * n^|V| over the symbols f it reads (those its
DAG applies).  The admission rule: every scan of a check is admitted, each
against the whole budget, before the first one runs.  The index-range
check covers every declared symbol: the witness holds a table for each.

Two evaluation routes coexist on purpose, in two modules.  The scalar
route, here (`count_solutions`, `image_of`, `count_winning`, and the
least-preimage decoders of `check_embedding`), walks each term once per
search with `term_steps` and runs the steps per assignment; it is the
reference semantics, needs no numpy and shares no code with the DAG.  The
engine route is the numpy scan kernel in `kernel`, which evaluates the
system's or spec's term DAG (`.dag`) over the whole grid of
interpretations x assignments.  Only an admitted check loads `kernel`, so
parsing, the polynomial commands, input errors and budget refusals never
import numpy.  Term and normal systems enter the kernel alike; a guessing
game enters as the normal system `graph_system(graph)`, whose
interpretations are the strategies.  Tests pin the two routes against
each other, and every reported witness can be replayed through the scalar
route to reproduce its value.

Every check is one `_search` call, which admits its scans, then runs each
as one `kernel._scan` and one `kernel._witness` decode.  `sandwich_check`
and `check_embedding` then re-count one witness each through the scalar
route (`check_embedding` admits that work with its scan, summed):
the lift of the small diversified witness, and the dispersion witness with
decoders that send each image point to its least preimage.  Those decoders
admit one solution per image point, so the embedded count equals the image
size under every interpretation and needs no scan of its own.

Every max search stops at its ceiling, the most its value can be by the
object's shape alone: n^min(k, r) image points, and n^(|V| - |A|)
solutions for a set A of variables that the equations force (`_forced`):
each member of A equals a term that reads only later members and
variables outside A, so a solution's values outside A fix its values on
A, in reverse join order.  The value is then the maximum and the witness
the least index attaining it, so a ceiling stop is not a truncation, and
`evaluations` and `interpretations` stay the closed forms of the whole
space; only a perfect hit reports the work up to it (witness index + 1).
The ceiling never comes from `flownet`'s exponent, so the two routes stay
independent checks on each other.

From n = 3 the kernel skips interpretations that a relabelling of the
alphabet makes redundant (see `kernel`); reported `evaluations` and
`interpretations` stay the unpruned scan's closed forms, and budgets
charge the same closed forms, so no report changes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields

from .depgraph import DependencyGraph, dependency_graph, graph_system
from .errors import BudgetError, PreconditionError, ValidationError
from .normalize import NormalSystem, classify, diversify, embed_dispersion
from .terms import (DispersionSpec, Interpretation, Signature, TermDag,
                    TermSystem, assignments, check_int, run_steps,
                    table_index, term_steps)

_INDEX_BITS = 62  # interpretation indices must stay int64-safe


@dataclass(frozen=True)
class SearchBudget:
    """Hard ceilings for exhaustive scans, checked before any work starts."""

    max_evaluations: int = 1 << 26
    max_interpretations: int = 1 << 24

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, check_int(getattr(self, f.name), f.name))
        if min(self.max_evaluations, self.max_interpretations) < 1:
            raise ValidationError("budget limits must be positive")


DEFAULT_BUDGET = SearchBudget()


@dataclass(frozen=True)
class OracleResult:
    """value, the lexicographically least witness attaining it, the unpruned
    scan's closed-form number of (interpretation, assignment) evaluations,
    and the rate log value / log n (None when n < 2)."""

    value: int
    witness: Interpretation
    evaluations: int
    rate: float | None = field(init=False)

    def __post_init__(self):
        n = self.witness.n
        object.__setattr__(self, "rate", math.log(self.value) / math.log(n)
                           if n > 1 else None)


@dataclass(frozen=True)
class PerfectDecision:
    perfect: bool
    target: int
    max_image: int
    witness: Interpretation  # first perfect witness, or the best refutation
    interpretations: int
    evaluations: int


@dataclass(frozen=True)
class GuessingEquality:
    equal: bool
    solutions: OracleResult
    winning: OracleResult


@dataclass(frozen=True)
class EmbeddingCheck:
    equal: bool
    dispersion: OracleResult
    embedded: OracleResult


@dataclass(frozen=True)
class BlockEncoding:
    """Partition of [n] into v blocks of size m = n // v with the canonical
    in-order bijections (block i holds i*m .. (i+1)*m - 1)."""

    n: int
    v: int

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, check_int(getattr(self, f.name), f.name))
        if not 1 <= self.v <= self.n:
            raise ValidationError("block encoding needs 1 <= v <= n")

    @property
    def m(self) -> int:
        return self.n // self.v

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        m = self.m
        return tuple(tuple(range(i * m, (i + 1) * m)) for i in range(self.v))


@dataclass(frozen=True)
class SandwichReport:
    n: int
    v: int
    m: int
    original: OracleResult          # S_n of the system itself
    diversified_same_n: OracleResult
    diversified_small: OracleResult  # at m = floor(n / v)
    lifted_count: int               # solutions of the lifted witness, re-counted
    upper_ok: bool                  # S_n <= S_n(diversified)
    lower_ok: bool                  # S_n >= S_m(diversified)
    lift_ok: bool                   # lifted interpretation re-count >= S_m(div)
    ok: bool = field(init=False)    # all three hold

    def __post_init__(self):
        object.__setattr__(self, "ok",
                           self.upper_ok and self.lower_ok and self.lift_ok)


# ---- interpretation space ---------------------------------------------------


def interpretation_count(signature: Signature, n: int) -> int:
    return _tables(signature.symbols, _check_range((), n))


def _tables(symbols, n: int) -> int:
    """Interpretations of `symbols` over [n]: n^(n^arity) tables each."""
    return math.prod(n ** n ** arity for _, arity in symbols)


def _check_range(symbols, n: int, per_interp: int = 1) -> int:
    """n as an int, once it is an integer >= 1 and every interpretation
    index of `symbols`, and every pair of one with one of its per_interp
    evaluations, fits the engine's index range.  Only logarithms are read,
    so a refusal computes no n^(n^arity)."""
    n = check_int(n, "alphabet size")
    if n < 1:
        raise PreconditionError(f"alphabet size must be >= 1, got {n}")
    bits, l2n = 0.0, math.log2(n)
    for _, arity in symbols:
        if n > 1 and arity > _INDEX_BITS / l2n:  # an int arity may exceed any float
            bits = math.inf
            break
        bits += (n ** arity) * l2n
    if bits > _INDEX_BITS or bits + math.log2(per_interp) > 2 * _INDEX_BITS:
        size = (f"~2^{bits:.0f}" if bits < math.inf
                else f"above 2^{_INDEX_BITS}")
        raise BudgetError(
            f"interpretation space {size} exceeds the engine's index "
            "range; refusing")
    return n


def _admit(symbols, n: int, per_interp: int, budget: SearchBudget, *ops):
    """Closed-form budget check, charging per_interp evaluations per
    interpretation: returns the symbols that `ops` apply (every symbol
    when none is given), in order, and their exact interpretation count.
    Each of `ops` lists items that start with a symbol: a DAG's `ops`, or
    a normal system's `equations`, which name the symbols its DAG applies
    without building it.

    The index-range check covers every symbol: the witness holds a table
    for each, all-zero off the scan, so this also bounds its size.  Only
    the scanned tables are charged."""
    _check_range(symbols, n, per_interp)
    if ops:
        applied = {op[0] for seq in ops for op in seq}
        symbols = tuple((s, a) for s, a in symbols if s in applied)
    total = _tables(symbols, n)
    evals = total * per_interp
    if total > budget.max_interpretations:
        raise BudgetError(
            f"{total} interpretations exceed the budget of "
            f"{budget.max_interpretations}; refusing before enumeration",
            interpretations=total, evaluations=evals)
    if evals > budget.max_evaluations:
        raise BudgetError(
            f"{evals} evaluations exceed the budget of "
            f"{budget.max_evaluations}; refusing before enumeration",
            interpretations=total, evaluations=evals)
    return symbols, total


def interpretation_at(signature: Signature, n: int, index: int) -> Interpretation:
    """The index-th interpretation in canonical order."""
    n = _check_range(signature.symbols, n)
    index = check_int(index, "interpretation index")
    if not 0 <= index < interpretation_count(signature, n):
        raise ValidationError("interpretation index out of range")
    from . import kernel
    return kernel._witness(signature, signature.symbols, n, index)


# ---- scalar reference route ------------------------------------------------


def _system(system):
    """Term and normal systems alike carry `variables`, `signature` and the
    `dag` that the scan kernel evaluates."""
    if not isinstance(system, (TermSystem, NormalSystem)):
        raise PreconditionError(f"not a term system: {type(system).__name__}")
    return system


def count_solutions(system, interp: Interpretation) -> int:
    """Reference count of satisfying assignments for one interpretation;
    a normal system's sides are the pairs its `dag` is built from."""
    pairs = (system._sides() if isinstance(_system(system), NormalSystem)
             else ((eq.lhs, eq.rhs) for eq in system.equations))
    interp.validate_against(system.signature)
    sides = [(term_steps(lhs), term_steps(rhs)) for lhs, rhs in pairs]
    total = 0
    for assign in assignments(system.variables, interp.n):
        if all(run_steps(lhs, interp, assign) == run_steps(rhs, interp, assign)
               for lhs, rhs in sides):
            total += 1
    return total


def image_of(spec: DispersionSpec, interp: Interpretation) -> set[tuple[int, ...]]:
    """Reference image of the dispersion map under one interpretation."""
    interp.validate_against(spec.signature)
    outputs = [term_steps(t) for t in spec.outputs]
    return {tuple(run_steps(t, interp, assign) for t in outputs)
            for assign in assignments(spec.inputs, interp.n)}


def count_winning(graph: DependencyGraph, strategy: Interpretation) -> int:
    """Reference count of configurations a strategy wins: its tables are
    keyed by player (non-source vertex), each over the player's ordered
    in-neighborhood."""
    players = [v for v in graph.vertices if v not in graph.sources]
    nbrs = {v: graph.in_neighbors(v) for v in players}
    strategy.validate_against(Signature(tuple((v, len(nbrs[v]))
                                              for v in players)))
    n = strategy.n
    total = 0
    for assign in assignments(graph.vertices, n):
        if all(strategy.tables[v][table_index(n, tuple(assign[u] for u in nbrs[v]))]
               == assign[v] for v in players):
            total += 1
    return total


# ---- search operations -------------------------------------------------------


def _forced(dag: TermDag, n: int) -> int:
    """A set A of the system's variables that its equations force, as a
    bitmask over input positions: no interpretation has more than
    n^(k - |A|) solutions.

    A is built greedily in variable order: v joins when some equation
    `v = t`, either way round, has v outside t and t reads no variable
    already in A.  So a member's term reads only later members and
    variables outside A: fixing the variables outside A fixes A's values
    in reverse join order, and each solution is determined by its values
    outside A.  One pass over `dag.ops` gives each node the bitmask of
    the inputs it reads.  At n = 1 every bound is 1, and nothing is read."""
    if n == 1:
        return 0
    k = len(dag.inputs)
    reads = [1 << v for v in range(k)]
    for _, children in dag.ops:
        mask = 0
        for c in children:
            mask |= reads[c]
        reads.append(mask)
    terms: list[list[int]] = [[] for _ in range(k)]  # each v = t's reads
    sides = dag.outputs
    for a, b in zip(sides[::2], sides[1::2]):
        for v, t in ((a, b), (b, a)):
            if v < k and not reads[t] >> v & 1:
                terms[v].append(reads[t])
    chosen = 0
    for v in range(k):
        if any(not t & chosen for t in terms[v]):
            chosen |= 1 << v
    return chosen


def _search(budget: SearchBudget, *scans):
    """Every scan of one check, each `(kind, obj, n)` over `obj`'s DAG and
    its k inputs, admitted before the first runs; per scan, its
    `OracleResult`, closed-form interpretation count and witness index.
    Admission reads the scanned tables without building anything: a spec's
    or term system's `dag.ops`, a normal system's `equations`, a graph's
    players (its game, `graph_system`, is built once admitted).  A scan
    stops at its ceiling, the most its value can be by the shape alone."""
    admitted = []
    for kind, obj, n in scans:
        if isinstance(obj, DependencyGraph):  # its game reads every player
            symbols = ops = tuple((v, len(obj.in_neighbors(v))) for v in
                                  obj.vertices if v not in obj.sources)
            k = len(obj.vertices)
        else:
            symbols = obj.signature.symbols
            k = obj.k if kind == "image" else len(obj.variables)
            ops = obj.equations if isinstance(obj, NormalSystem) else obj.dag.ops
        n = _check_range((), n)  # an integer n before n ** k is taken
        used, total = _admit(symbols, n, n ** k, budget, ops)
        if kind == "image" and n > 1 and obj.r * math.log2(n) > _INDEX_BITS:
            raise BudgetError("output tuple codes exceed the engine's index range")
        admitted.append((kind, obj, n, k, used, total))
    from . import kernel
    results = []
    for kind, obj, n, k, used, total in admitted:
        obj = graph_system(obj) if isinstance(obj, DependencyGraph) else obj
        ceiling = n ** (min(k, obj.r) if kind == "image"
                        else k - _forced(obj.dag, n).bit_count())
        value, index = kernel._scan(kind, used, obj.dag, n, ceiling)
        witness = kernel._witness(obj.signature, used, n, index)
        results.append((OracleResult(value, witness, total * n ** k), total, index))
    return results


def brute_max_solutions(system, n: int,
                        budget: SearchBudget = DEFAULT_BUDGET) -> OracleResult:
    """Max solution count over all interpretations, with its least witness."""
    return _search(budget, ("count", _system(system), n))[0][0]


def brute_dispersion(spec: DispersionSpec, n: int,
                     budget: SearchBudget = DEFAULT_BUDGET) -> OracleResult:
    """Maximum image size of the dispersion map over every interpretation."""
    return _search(budget, ("image", spec, n))[0][0]


def check_perfect_fixed(spec: DispersionSpec, n: int,
                        budget: SearchBudget = DEFAULT_BUDGET
                        ) -> PerfectDecision:
    """Does some interpretation make the map surjective onto [n]^r?

    The answer is yes exactly when the image search reaches n^r, which is
    its ceiling when k >= r; a hit reports the work up to it (witness
    index + 1 interpretations).  Otherwise the refutation carries the best
    image and reports the whole space."""
    [(best, total, index)] = _search(budget, ("image", spec, n))
    n = best.witness.n
    target = n ** spec.r
    perfect = best.value == target
    scanned = index + 1 if perfect else total
    return PerfectDecision(perfect, target, best.value, best.witness, scanned,
                           scanned * n ** spec.k)


def brute_guessing(graph: DependencyGraph, n: int,
                   budget: SearchBudget = DEFAULT_BUDGET) -> OracleResult:
    """Maximum number of winning configurations over every strategy.

    The rate field is the guessing value log_n W.  Sources are free; each
    non-source vertex guesses from its ordered in-neighborhood (which may
    include itself if a loop is present).  The game is the system
    `graph_system(graph)`: a strategy is an interpretation of its player
    symbols, keyed by player, and the configurations it wins are its
    solutions.  The game is built only once admitted: a refusal builds
    nothing, even for a graph whose vertex names `graph_system` rejects."""
    if not isinstance(graph, DependencyGraph):
        raise PreconditionError(f"not a dependency graph: {type(graph).__name__}")
    return _search(budget, ("count", graph, n))[0][0]


def check_solutions_equal_winning(system: NormalSystem, n: int,
                                  budget: SearchBudget = DEFAULT_BUDGET
                                  ) -> GuessingEquality:
    """Max solutions of a diversified FNF system vs. the game value of its
    dependency graph; the two coincide, and both witnesses are returned."""
    cls = classify(system)
    if not cls.is_fnf:
        raise PreconditionError("solutions-vs-winning needs an FNF system")
    if len({eq.symbol for eq in system.equations}) != len(system.equations):
        raise PreconditionError(
            "solutions-vs-winning needs a diversified system "
            "(one fresh symbol per equation)")
    (solutions, *_), (winning, *_) = _search(
        budget, ("count", system, n), ("count", dependency_graph(system), n))
    return GuessingEquality(solutions.value == winning.value, solutions, winning)


# ---- constructions verified by re-counting ------------------------------------


def lift_interpretation(system: NormalSystem, small: Interpretation,
                        encoding: BlockEncoding) -> Interpretation:
    """Blow a small-alphabet interpretation of the diversified system up to
    the big alphabet, block-piecewise.

    Each equation e: f(x_i1,...,x_id) = x_j installs, on argument blocks
    B_i1 x ... x B_id, the e-th diversified table conjugated by the block
    bijections, writing into block B_j; everything else is 0.  Collision
    freedom makes the pieces disjoint, which is why CFNF is required."""
    cls = classify(system)
    if not cls.is_cfnf:
        raise PreconditionError("lift needs a collision-free FNF system")
    if encoding.v != len(system.variables):
        raise PreconditionError("encoding must have one block per variable")
    if small.n != encoding.m:
        raise PreconditionError(
            f"small interpretation is over [{small.n}], blocks have size "
            f"{encoding.m}")
    vidx = {v: i for i, v in enumerate(system.variables)}
    n, m, blocks = encoding.n, encoding.m, encoding.blocks
    tables = {name: [0] * (n ** arity)
              for name, arity in system.signature.symbols}
    for e_idx, eq in enumerate(system.equations):
        div_name = f"{eq.symbol}@{e_idx}"
        if div_name not in small.tables:
            raise PreconditionError(
                f"small interpretation lacks a table for {div_name!r}")
        sub = small.tables[div_name]
        arg_blocks = [blocks[vidx[u]] for u in eq.args]
        out_block = blocks[vidx[eq.defined]]
        for small_args in itertools.product(range(m), repeat=len(eq.args)):
            big_args = [block[a] for block, a in zip(arg_blocks, small_args)]
            tables[eq.symbol][table_index(n, big_args)] = \
                out_block[sub[table_index(m, small_args)]]
    return Interpretation(n, {name: tuple(entries)
                              for name, entries in tables.items()})


def sandwich_check(system: NormalSystem, n: int,
                   budget: SearchBudget = DEFAULT_BUDGET) -> SandwichReport:
    """Check S_n <= S_n(diversified) and S_n >= S_m(diversified) for
    m = floor(n / v), and verify the lower bound constructively by lifting
    the small witness and re-counting its solutions at n."""
    n = check_int(n, "alphabet size")
    cls = classify(system)
    if not cls.is_cfnf:
        raise PreconditionError("sandwich check needs a collision-free FNF system")
    v = len(system.variables)
    if v < 1:
        raise PreconditionError("sandwich check needs at least one variable")
    if n < v:
        raise PreconditionError(f"sandwich check needs n >= v; got n={n}, v={v}")
    div, encoding = diversify(system), BlockEncoding(n, v)
    (original, *_), (div_same, *_), (div_small, *_) = _search(
        budget, ("count", system, n), ("count", div, n),
        ("count", div, encoding.m))
    lifted = lift_interpretation(system, div_small.witness, encoding)
    lifted_count = count_solutions(system, lifted)
    return SandwichReport(
        n=n, v=v, m=encoding.m, original=original, diversified_same_n=div_same,
        diversified_small=div_small, lifted_count=lifted_count,
        upper_ok=original.value <= div_same.value,
        lower_ok=original.value >= div_small.value,
        lift_ok=lifted_count >= div_small.value)


def check_embedding(spec: DispersionSpec, n: int,
                    budget: SearchBudget = DEFAULT_BUDGET) -> EmbeddingCheck:
    """Dispersion of the input map vs. max solutions of its decoder embedding.

    Decoder tables are synthesized, not enumerated: every image point gets
    its lexicographically least preimage written into the decoders (zeros
    elsewhere).  Then x solves the embedded system exactly when x is the
    least preimage of t(x): one solution per image point, so under every
    interpretation the embedded count equals the image size, and the
    maximum and the least index attaining it are `brute_dispersion`'s
    value and witness.  That witness's decoders are synthesized once and
    its solutions re-counted by the reference route.  `evaluations` stays
    the closed form of decoding and re-counting every interpretation."""
    n = _check_range((), n)
    per = n ** spec.k + n ** (spec.k + spec.r)
    _, total = _admit(spec.signature.symbols, n, per, budget, spec.dag.ops)
    dispersion = brute_dispersion(spec, n, budget)

    interp = dispersion.witness
    outputs = [term_steps(t) for t in spec.outputs]
    least: dict[tuple[int, ...], tuple[int, ...]] = {}
    for assign in assignments(spec.inputs, n):  # in lexicographic order
        outs = tuple(run_steps(t, interp, assign) for t in outputs)
        least.setdefault(outs, tuple(assign.values()))
    tables = dict(interp.tables)
    embedded = embed_dispersion(spec)  # after the scan: a refusal builds none
    decoder_names = embedded.signature.names[len(spec.signature.names):]
    for j, h in enumerate(decoder_names):
        entries = [0] * (n ** spec.r)
        for outs, preimage in least.items():
            entries[table_index(n, outs)] = preimage[j]
        tables[h] = tuple(entries)
    witness = Interpretation(n, tables)
    value = count_solutions(embedded, witness)
    result = OracleResult(value, witness, total * per)
    return EmbeddingCheck(dispersion.value == value, dispersion, result)
