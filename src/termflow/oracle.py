"""Exhaustive finite-alphabet oracles.

Everything here is ground truth by enumeration: interpretations are counted
through the canonical table encoding (first symbol's table most significant,
within a table the all-zero argument row most significant), so the stream is
lexicographic, deterministic, and splittable into contiguous index ranges.
Budgets are enforced up front from the closed-form space size
prod_f n^(n^arity(f)) * n^|V|; a search either fits or is refused whole.

Two evaluation routes coexist on purpose.  The scalar route
(`count_solutions`, `image_of`, `count_winning`) walks terms with
`eval_term` and is the reference semantics.  The engine route vectorizes
the interpretation axis with numpy for the big scans: it evaluates the
DAG that the system or spec built at construction (`.dag`) node by node
in topological order, once per assignment.  Tests pin the two routes against
each other, and every reported witness can be replayed through the scalar
route to reproduce its value.

Results are independent of chunking and of the `jobs` worker count: ranges
merge by (max value, then least interpretation index), and early-exit
searches report the sequential-equivalent work (witness index + 1).
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .depgraph import DependencyGraph, GuessingStrategy, dependency_graph
from .errors import BudgetError, PreconditionError, ValidationError
from .normalize import NormalSystem, classify, diversify, embed_dispersion
from .terms import (App, DispersionSpec, Ident, Interpretation, Signature,
                    TermDag, TermSystem, Var, assignments, eval_term,
                    table_index, term_dag)

_INDEX_BITS = 62  # interpretation indices must stay int64-safe


@dataclass(frozen=True)
class SearchBudget:
    """Hard ceilings for exhaustive scans, checked before any work starts."""

    max_evaluations: int = 1 << 26
    max_interpretations: int = 1 << 24

    def __post_init__(self):
        if self.max_evaluations < 1 or self.max_interpretations < 1:
            raise ValidationError("budget limits must be positive")


DEFAULT_BUDGET = SearchBudget()


@dataclass(frozen=True)
class OracleResult:
    """value, the lexicographically least witness attaining it, the rate
    log value / log n (None when n < 2), and the sequential-equivalent
    number of (interpretation, assignment) evaluations."""

    value: int
    witness: object  # Interpretation, or GuessingStrategy for game searches
    rate: float | None
    evaluations: int


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
class CountPreservation:
    equal: bool
    interpretations: int
    first_mismatch: int | None


@dataclass(frozen=True)
class BlockEncoding:
    """Partition of [n] into v blocks of size m = n // v with the canonical
    in-order bijections (block i holds i*m .. (i+1)*m - 1)."""

    n: int
    v: int
    m: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.v < 1 or self.n < self.v:
            raise ValidationError("block encoding needs 1 <= v <= n")
        if self.m != self.n // self.v:
            raise ValidationError("block size must be floor(n / v)")
        if len(self.blocks) != self.v:
            raise ValidationError("one block per variable required")
        seen = set()
        for block in self.blocks:
            if len(block) != self.m:
                raise ValidationError("blocks must all have size m")
            for a in block:
                if not 0 <= a < self.n or a in seen:
                    raise ValidationError("blocks must be disjoint within [0,n)")
                seen.add(a)

    @classmethod
    def canonical(cls, n: int, v: int) -> "BlockEncoding":
        m = n // v
        blocks = tuple(tuple(range(i * m, (i + 1) * m)) for i in range(v))
        return cls(n, v, m, blocks)


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

    @property
    def ok(self) -> bool:
        return self.upper_ok and self.lower_ok and self.lift_ok


# ---- interpretation space ---------------------------------------------------


def table_space(n: int, arity: int) -> int:
    """Number of tables for one symbol: n^(n^arity)."""
    return n ** (n ** arity)


def interpretation_count(signature: Signature, n: int) -> int:
    return _used_space(signature.symbols, n)


def _space_log2(symbols, n: int) -> float:
    if n == 1:
        return 0.0
    l2n = math.log2(n)
    bits = 0.0
    for _, arity in symbols:
        if arity * l2n > _INDEX_BITS:
            return float("inf")
        bits += (n ** arity) * l2n
    return bits


def _admit(signature: Signature, n: int, assign_vars: int,
           budget: SearchBudget, *, per_interp: int | None = None) -> int:
    """Closed-form budget check; returns the exact interpretation count.

    per_interp overrides the assignments-per-interpretation factor (the
    default is n^assign_vars)."""
    if n < 1:
        raise PreconditionError(f"alphabet size must be >= 1, got {n}")
    bits = _space_log2(signature.symbols, n)
    abits = assign_vars * (math.log2(n) if n > 1 else 0.0)
    if bits > _INDEX_BITS or bits + abits > 2 * _INDEX_BITS:
        size = (f"~2^{bits:.0f}" if bits < math.inf
                else f"above 2^{_INDEX_BITS}")
        raise BudgetError(
            f"interpretation space {size} exceeds the engine's index "
            "range; refusing")
    total = interpretation_count(signature, n)
    factor = per_interp if per_interp is not None else n ** assign_vars
    evals = total * factor
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
    return total


def interpretation_at(signature: Signature, n: int, index: int) -> Interpretation:
    """The index-th interpretation in canonical order."""
    if _space_log2(signature.symbols, n) > _INDEX_BITS:
        raise BudgetError(
            "interpretation space exceeds the engine's index range")
    if not 0 <= index < interpretation_count(signature, n):
        raise ValidationError("interpretation index out of range")
    return _witness(signature, signature.symbols, n, index)


def enumerate_interpretations(signature: Signature, n: int,
                              budget: SearchBudget = DEFAULT_BUDGET, *,
                              start: int = 0, stop: int | None = None):
    """Lexicographic stream over canonical table encodings.

    Any contiguous [start, stop) slice may be taken independently; the
    concatenation of a partition equals the full stream."""
    if _space_log2(signature.symbols, n) > _INDEX_BITS:
        raise BudgetError("interpretation space exceeds the engine's index range")
    total = interpretation_count(signature, n)
    if total > budget.max_interpretations:
        raise BudgetError(
            f"{total} interpretations exceed the budget of "
            f"{budget.max_interpretations}", interpretations=total)
    stop = total if stop is None else min(stop, total)
    for index in range(start, stop):
        yield interpretation_at(signature, n, index)


# ---- scalar reference route ------------------------------------------------


def _term_system(system) -> TermSystem:
    """Term systems pass through; normal systems are read as one."""
    if isinstance(system, NormalSystem):
        return system.to_term_system()
    if isinstance(system, TermSystem):
        return system
    raise PreconditionError(f"not a term system: {type(system).__name__}")


def count_solutions(system, interp: Interpretation) -> int:
    """Reference count of satisfying assignments for one interpretation."""
    system = _term_system(system)
    interp.validate_against(system.signature)
    total = 0
    for assign in assignments(system.variables, interp.n):
        if all(eval_term(eq.lhs, interp, assign) == eval_term(eq.rhs, interp, assign)
               for eq in system.equations):
            total += 1
    return total


def image_of(spec: DispersionSpec, interp: Interpretation) -> set[tuple[int, ...]]:
    """Reference image of the dispersion map under one interpretation."""
    interp.validate_against(spec.signature)
    out = set()
    for assign in assignments(spec.inputs, interp.n):
        out.add(tuple(eval_term(t, interp, assign) for t in spec.outputs))
    return out


def count_winning(graph: DependencyGraph, strategy: GuessingStrategy) -> int:
    """Reference count of configurations a strategy wins."""
    strategy.validate_against(graph)
    players = [v for v in graph.vertices if v not in graph.sources]
    nbrs = {v: graph.in_neighbors(v) for v in players}
    n = strategy.n
    total = 0
    for assign in assignments(graph.vertices, n):
        if all(strategy.tables[v][table_index(n, tuple(assign[u] for u in nbrs[v]))]
               == assign[v] for v in players):
            total += 1
    return total


# ---- vectorized engine -------------------------------------------------------


def _enumerated(signature: Signature, *dags: TermDag):
    """The symbols some DAG applies, in signature order: a scan's space."""
    used = {symbol for dag in dags for symbol, _ in dag.ops}
    return tuple((s, a) for s, a in signature.symbols if s in used)


def _decode_tables(symbols, n: int, lo: int, hi: int) -> dict[str, np.ndarray]:
    """Tables for interpretation indices [lo, hi) as (hi-lo, size) arrays."""
    rem = np.arange(lo, hi, dtype=np.int64)
    out = {}
    for name, arity in reversed(symbols):
        size = n ** arity
        count = n ** size
        sub = rem % count
        rem = rem // count
        tbl = np.empty((hi - lo, size), dtype=np.int64)
        for j in range(size - 1, -1, -1):
            tbl[:, j] = sub % n
            sub //= n
        out[name] = tbl
    return out


def _node_values(dag: TermDag, drops, tables, assign: tuple[int, ...],
                 n: int, rows: np.ndarray) -> list:
    """Node values under one assignment of `dag.inputs`, for all chunk
    interpretations at once, in topological order.  Inputs stay plain ints,
    so a node whose arguments are all inputs is one table column.  `drops`
    lists per op the values to free after it, so a deep chain keeps a few
    arrays live, not one per node."""
    vals = list(assign)
    for (symbol, children), dead in zip(dag.ops, drops):
        idx = 0
        for c in children:
            idx = idx * n + vals[c]
        tbl = tables[symbol]
        vals.append(tbl[:, idx] if isinstance(idx, int) else tbl[rows, idx])
        for c in dead:
            vals[c] = None
    return vals


def _solution_counts(dag: TermDag, drops, tables, assigns, c: int,
                     n: int) -> np.ndarray:
    """Per interpretation, the assignments satisfying every equation whose
    sides are the DAG's outputs, (lhs, rhs) in turn."""
    k = len(dag.inputs)
    pairs = list(zip(dag.outputs[::2], dag.outputs[1::2]))
    var_pairs = [p for p in pairs if max(p) < k]
    app_pairs = [p for p in pairs if max(p) >= k]
    rows = np.arange(c)
    counts = np.zeros(c, dtype=np.int64)
    for assign in assigns:
        if any(assign[a] != assign[b] for a, b in var_pairs):
            continue
        vals = _node_values(dag, drops, tables, assign, n, rows)
        sat = True
        for a, b in app_pairs:
            sat = sat & (vals[a] == vals[b])
        counts += sat
    return counts


def _image_sizes(dag: TermDag, drops, tables, assigns, c: int,
                 n: int) -> np.ndarray:
    rows = np.arange(c)
    codes = np.empty((c, len(assigns)), dtype=np.int64)
    for col, assign in enumerate(assigns):
        vals = _node_values(dag, drops, tables, assign, n, rows)
        code = 0
        for root in dag.outputs:
            code = code * n + vals[root]
        codes[:, col] = code
    codes.sort(axis=1)
    if codes.shape[1] == 1:
        return np.ones(c, dtype=np.int64)
    return 1 + (np.diff(codes, axis=1) != 0).sum(axis=1)


def _payload_fn(kind: str, payload, n: int):
    """Chunk evaluator plus a chunk size keeping working memory modest,
    for a payload of (symbols to enumerate, term DAG to evaluate)."""
    symbols, dag = payload
    evaluate = {"count": _solution_counts, "image": _image_sizes}[kind]
    last = {c: i for i, (_, children) in enumerate(dag.ops) for c in children}
    roots = set(dag.outputs)
    drops: list[list[int]] = [[] for _ in dag.ops]
    for node, i in last.items():
        if node not in roots:
            drops[i].append(node)
    assigns = list(itertools.product(range(n), repeat=len(dag.inputs)))
    width = sum(n ** ar for _, ar in symbols) + 1
    if kind == "image":
        width += len(assigns)  # the output codes of every assignment

    def fn(lo, hi):
        tables = _decode_tables(symbols, n, lo, hi)
        return evaluate(dag, drops, tables, assigns, hi - lo, n)
    chunk = max(1, min(1 << 14, (1 << 21) // width))
    return fn, chunk


def _scan_range(task) -> tuple[int, int, int | None]:
    """Scan one contiguous index range; returns (best value, least index of
    it, least index reaching `target` or None)."""
    kind, payload, n, lo, hi, target = task
    fn, chunk = _payload_fn(kind, payload, n)
    best_v, best_i, hit = -1, -1, None
    pos = lo
    while pos < hi:
        end = min(pos + chunk, hi)
        vals = fn(pos, end)
        mx = int(vals.max())
        if mx > best_v:
            best_v = mx
            best_i = pos + int(vals.argmax())
        if target is not None and mx >= target:
            hit = pos + int(np.argmax(vals >= target))
            break
        pos = end
    return best_v, best_i, hit


def _split(total: int, jobs: int) -> list[tuple[int, int]]:
    jobs = max(1, min(jobs, total))
    base, extra = divmod(total, jobs)
    ranges = []
    lo = 0
    for j in range(jobs):
        hi = lo + base + (1 if j < extra else 0)
        if hi > lo:
            ranges.append((lo, hi))
        lo = hi
    return ranges


def _scan(kind, payload, n: int, total: int, jobs: int,
          target: int | None = None) -> tuple[int, int, int | None]:
    """Full scan of [0, total), optionally across processes; the merge is
    order-deterministic so results do not depend on the job count."""
    if jobs <= 1 or total < 4096:
        results = [_scan_range((kind, payload, n, 0, total, target))]
    else:
        tasks = [(kind, payload, n, lo, hi, target)
                 for lo, hi in _split(total, jobs)]
        with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
            results = list(pool.map(_scan_range, tasks))
    best_v, best_i, first_hit = -1, -1, None
    for v, i, h in results:  # ranges are in ascending index order
        if v > best_v:
            best_v, best_i = v, i
        if first_hit is None and h is not None:
            first_hit = h
    return best_v, best_i, first_hit


def _witness(signature: Signature, used, n: int, index: int) -> Interpretation:
    """Interpretation `index` of the `used` symbols; every other symbol of
    the signature gets the all-zero table."""
    tables = {name: (0,) * (n ** arity) for name, arity in signature.symbols}
    tables.update((name, tuple(tbl[0].tolist())) for name, tbl
                  in _decode_tables(used, n, index, index + 1).items())
    return Interpretation(n, tables)


def _rate(value: int, n: int) -> float | None:
    if n < 2:
        return None
    return math.log(value) / math.log(n)


def _used_space(used, n: int) -> int:
    return math.prod(table_space(n, arity) for _, arity in used)


# ---- search operations -------------------------------------------------------


def _max_solutions(signature: Signature, dag: TermDag, n: int,
                   budget: SearchBudget, jobs: int) -> OracleResult:
    """Maximum solution count of the equations whose sides are the DAG's
    outputs, (lhs, rhs) in turn, over the DAG's inputs."""
    _admit(signature, n, len(dag.inputs), budget)
    used = _enumerated(signature, dag)
    total = _used_space(used, n)
    value, index, _ = _scan("count", (used, dag), n, total, jobs)
    return OracleResult(value, _witness(signature, used, n, index),
                        _rate(value, n), total * n ** len(dag.inputs))


def brute_max_solutions(system, n: int, budget: SearchBudget = DEFAULT_BUDGET,
                        *, jobs: int = 1) -> OracleResult:
    """Maximum solution count over every interpretation, with the least
    witness attaining it."""
    system = _term_system(system)
    return _max_solutions(system.signature, system.dag, n, budget, jobs)


def _image_scan(spec: DispersionSpec, n: int, budget: SearchBudget,
                jobs: int, target: int | None = None):
    """(enumerated symbols, their interpretation count, `_scan` result)."""
    _admit(spec.signature, n, spec.k, budget)
    if n > 1 and spec.r * math.log2(n) > _INDEX_BITS:
        raise BudgetError("output tuple codes exceed the engine's index range")
    used = _enumerated(spec.signature, spec.dag)
    total = _used_space(used, n)
    return used, total, _scan("image", (used, spec.dag), n, total, jobs, target)


def brute_dispersion(spec: DispersionSpec, n: int,
                     budget: SearchBudget = DEFAULT_BUDGET, *,
                     jobs: int = 1) -> OracleResult:
    """Maximum image size of the dispersion map over every interpretation."""
    used, total, (value, index, _) = _image_scan(spec, n, budget, jobs)
    return OracleResult(value, _witness(spec.signature, used, n, index),
                        _rate(value, n), total * n ** spec.k)


def check_perfect_fixed(spec: DispersionSpec, n: int,
                        budget: SearchBudget = DEFAULT_BUDGET, *,
                        jobs: int = 1) -> PerfectDecision:
    """Does some interpretation make the map surjective onto [n]^r?

    Early-exits on the first witness; otherwise the refutation carries the
    best image found over the full scan."""
    target = n ** spec.r
    used, total, (value, index, hit) = _image_scan(spec, n, budget, jobs,
                                                   target)
    if hit is not None:
        return PerfectDecision(True, target, target,
                               _witness(spec.signature, used, n, hit),
                               hit + 1, (hit + 1) * n ** spec.k)
    return PerfectDecision(False, target, value,
                           _witness(spec.signature, used, n, index),
                           total, total * n ** spec.k)


def brute_guessing(graph: DependencyGraph, n: int,
                   budget: SearchBudget = DEFAULT_BUDGET, *,
                   jobs: int = 1) -> OracleResult:
    """Maximum number of winning configurations over every strategy.

    The rate field is the guessing value log_n W.  Sources are free; each
    non-source vertex guesses from its ordered in-neighborhood (which may
    include itself if a loop is present).  The search counts solutions of
    `v(in-neighbours) = v` over one pseudo-symbol per player."""
    nbrs = {v: graph.in_neighbors(v) for v in graph.vertices
            if v not in graph.sources}
    pseudo = Signature(tuple((v, len(us)) for v, us in nbrs.items()))
    dag = term_dag(graph.vertices, [
        t for v, us in nbrs.items()
        for t in (App(v, tuple(Var(u) for u in us)), Var(v))])
    res = _max_solutions(pseudo, dag, n, budget, jobs)
    return replace(res, witness=GuessingStrategy(n, dict(res.witness.tables)))


def check_solutions_equal_winning(system: NormalSystem, n: int,
                                  budget: SearchBudget = DEFAULT_BUDGET, *,
                                  jobs: int = 1) -> GuessingEquality:
    """Max solutions of a diversified FNF system vs. the game value of its
    dependency graph; the two coincide, and both witnesses are returned."""
    cls = classify(system)
    if not cls.is_fnf:
        raise PreconditionError("solutions-vs-winning needs an FNF system")
    if len({eq.symbol for eq in system.equations}) != len(system.equations):
        raise PreconditionError(
            "solutions-vs-winning needs a diversified system "
            "(one fresh symbol per equation)")
    solutions = brute_max_solutions(system, n, budget, jobs=jobs)
    winning = brute_guessing(dependency_graph(system), n, budget, jobs=jobs)
    return GuessingEquality(solutions.value == winning.value, solutions, winning)


def check_counts_preserved(before, after, n: int,
                           budget: SearchBudget = DEFAULT_BUDGET
                           ) -> CountPreservation:
    """Exhaustively compare per-interpretation solution counts of two
    systems over the same signature (the normalization-preservation
    oracle)."""
    before, after = _term_system(before), _term_system(after)
    if before.signature != after.signature:
        raise PreconditionError("count comparison needs a shared signature")
    per = n ** len(before.variables) + n ** len(after.variables)
    _admit(before.signature, n, 0, budget, per_interp=per)
    used = _enumerated(before.signature, before.dag, after.dag)
    total = _used_space(used, n)
    fa, chunk_a = _payload_fn("count", (used, before.dag), n)
    fb, chunk_b = _payload_fn("count", (used, after.dag), n)
    chunk = min(chunk_a, chunk_b)
    pos = 0
    while pos < total:
        end = min(pos + chunk, total)
        ca, cb = fa(pos, end), fb(pos, end)
        if not np.array_equal(ca, cb):
            first = pos + int(np.argmax(ca != cb))
            return CountPreservation(False, total, first)
        pos = end
    return CountPreservation(True, total, None)


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
    n, m = encoding.n, encoding.m
    by_symbol: dict[Ident, list] = {}
    for e_idx, eq in enumerate(system.equations):
        by_symbol.setdefault(eq.symbol, []).append((e_idx, eq))
    tables = {}
    for name, arity in system.signature.symbols:
        entries = [0] * (n ** arity)
        for e_idx, eq in by_symbol.get(name, ()):
            div_name = f"{name}@{e_idx}"
            if div_name not in small.tables:
                raise PreconditionError(
                    f"small interpretation lacks a table for {div_name!r}")
            sub = small.tables[div_name]
            arg_blocks = [encoding.blocks[vidx[u]] for u in eq.args]
            out_block = encoding.blocks[vidx[eq.defined]]
            for small_args in itertools.product(range(m), repeat=arity):
                big_args = tuple(arg_blocks[t][small_args[t]]
                                 for t in range(arity))
                value = sub[table_index(m, small_args)]
                entries[table_index(n, big_args)] = out_block[value]
        tables[name] = tuple(entries)
    return Interpretation(n, tables)


def sandwich_check(system: NormalSystem, n: int,
                   budget: SearchBudget = DEFAULT_BUDGET, *,
                   jobs: int = 1) -> SandwichReport:
    """Check S_n <= S_n(diversified) and S_n >= S_m(diversified) for
    m = floor(n / v), and verify the lower bound constructively by lifting
    the small witness and re-counting its solutions at n."""
    cls = classify(system)
    if not cls.is_cfnf:
        raise PreconditionError("sandwich check needs a collision-free FNF system")
    v = len(system.variables)
    if v < 1:
        raise PreconditionError("sandwich check needs at least one variable")
    if n < v:
        raise PreconditionError(f"sandwich check needs n >= v; got n={n}, v={v}")
    div = diversify(system)
    original = brute_max_solutions(system, n, budget, jobs=jobs)
    div_same = brute_max_solutions(div, n, budget, jobs=jobs)
    m = n // v
    div_small = brute_max_solutions(div, m, budget, jobs=jobs)
    encoding = BlockEncoding.canonical(n, v)
    lifted = lift_interpretation(system, div_small.witness, encoding)
    lifted_count = count_solutions(system, lifted)
    return SandwichReport(
        n=n, v=v, m=m, original=original, diversified_same_n=div_same,
        diversified_small=div_small, lifted_count=lifted_count,
        upper_ok=original.value <= div_same.value,
        lower_ok=original.value >= div_small.value,
        lift_ok=lifted_count >= div_small.value)


def check_embedding(spec: DispersionSpec, n: int,
                    budget: SearchBudget = DEFAULT_BUDGET) -> EmbeddingCheck:
    """Dispersion of the input map vs. max solutions of its decoder embedding.

    Decoder tables are synthesized, not enumerated: for each interpretation
    of the original symbols, every image point gets its lexicographically
    least preimage written into the decoders (zeros elsewhere), and the
    resulting solution count is re-counted by the reference route.  The
    maximum over interpretations is the embedded side's value."""
    embedded = embed_dispersion(spec)
    k, r = spec.k, spec.r
    per = n ** k + n ** (k + r)
    _admit(spec.signature, n, 0, budget, per_interp=per)
    dispersion = brute_dispersion(spec, n, budget)

    decoder_names = embedded.signature.names[len(spec.signature.names):]
    used = _enumerated(spec.signature, spec.dag)
    total = _used_space(used, n)
    best_value, best_witness = -1, None
    for index in range(total):
        interp = _witness(spec.signature, used, n, index)
        chosen: dict[tuple[int, ...], tuple[int, ...]] = {}
        for assign in assignments(spec.inputs, n):
            outs = tuple(eval_term(t, interp, assign) for t in spec.outputs)
            if outs not in chosen:
                chosen[outs] = tuple(assign[x] for x in spec.inputs)
        tables = dict(interp.tables)
        for j, h in enumerate(decoder_names):
            entries = [0] * (n ** r)
            for outs, preimage in chosen.items():
                entries[table_index(n, outs)] = preimage[j]
            tables[h] = tuple(entries)
        full = Interpretation(n, tables)
        value = count_solutions(embedded, full)
        if value > best_value:
            best_value, best_witness = value, full
    result = OracleResult(best_value, best_witness, _rate(best_value, n),
                          total * per)
    return EmbeddingCheck(dispersion.value == best_value, dispersion, result)
