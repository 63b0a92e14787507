"""Exhaustive finite-alphabet oracles.

Everything here is ground truth by enumeration: interpretations are counted
through the canonical table encoding (first symbol's table most significant,
within a table the all-zero argument row most significant), so the stream is
lexicographic, deterministic, and splittable into contiguous index ranges.
Budgets are enforced up front from the closed-form space size
prod_f n^(n^arity(f)) * n^|V|; a search either fits or is refused whole.

Two evaluation routes coexist on purpose.  The scalar route
(`count_solutions`, `image_of`, `count_winning`) walks each term once per
search with `term_steps` and runs the steps per assignment; it is the
reference semantics and shares no code with the DAG.  The engine route is
one numpy scan kernel (`_chunks`) over the whole grid of interpretations x
assignments.  It decodes a chunk of consecutive interpretation indices as
base-n digit rows (`_Digits`, also the decoder behind witnesses and
`interpretation_at`), evaluates each node of the system's or spec's term
DAG (`.dag`) once per chunk, with one gather, over the inputs the node
depends on, and reduces per interpretation: a `count_nonzero` of the
satisfied assignments, or a sort of the output tuple codes for image sizes.
Term and normal systems enter the kernel alike, through
`brute_max_solutions`; a guessing game enters as the normal system
`graph_system(graph)`, whose interpretations are the strategies.  Tests pin
the two routes against each other, and every reported witness can be
replayed through the scalar route to reproduce its value.

Results are independent of chunking and of the `jobs` worker count: ranges
merge by (max value, then least interpretation index), and early-exit
searches report the sequential-equivalent work (witness index + 1).

From n = 3 the kernel skips interpretations that a relabelling of the
alphabet makes redundant.  Conjugating every table by one permutation s of
[n], (s.T)_f[a] = s(T_f[s^-1(a)]), changes no scan value: solution counts,
image sizes, perfect hits and count mismatches are all S_n-invariant.  So
the least index attaining a value is the least member of its orbit, and
is <= its conjugate by each of the n(n-1)/2 transpositions.  A scan of
[lo, hi) evaluates only indices T with no transposition conjugate in
[lo, T) (`_least_in_orbit`), a superset of those least indices: values,
witnesses and perfect-hit indices are those of the full scan.  At n = 2
the one swap halves a scan but often costs more than it saves.  Reported
`evaluations` and `interpretations` stay the sequential-equivalent closed
forms, and budgets charge the same closed forms, so no report changes.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .depgraph import (DependencyGraph, GuessingStrategy, dependency_graph,
                       graph_system)
from .errors import BudgetError, PreconditionError, ValidationError
from .normalize import NormalSystem, classify, diversify, embed_dispersion
from .terms import (DispersionSpec, Ident, Interpretation, Signature, TermDag,
                    TermSystem, assignments, equation_steps, run_steps,
                    table_index, term_steps)

_INDEX_BITS = 62  # interpretation indices must stay int64-safe
_CHUNK_CELLS = 1 << 18  # interpretations x assignments evaluated at once
_PRUNE_MIN_N = 3  # at n = 2 one swap halves a scan but often costs more
# Closed-form evaluations from which an unpruned scan (n < _PRUNE_MIN_N)
# fans out to a pool: at n = 2 its ~25 ms start-up pays from 2^22 (image
# scans) to 2^25 (count scans).  Pruned scans never pool: their kept
# indices crowd the low end of the index range, so an even split leaves one
# worker nearly all the work.
_POOL_MIN_EVALS = 1 << 23


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
    concatenation of a partition equals the full stream.  The space is
    checked once, before the first interpretation."""
    if _space_log2(signature.symbols, n) > _INDEX_BITS:
        raise BudgetError("interpretation space exceeds the engine's index range")
    total = interpretation_count(signature, n)
    if total > budget.max_interpretations:
        raise BudgetError(
            f"{total} interpretations exceed the budget of "
            f"{budget.max_interpretations}", interpretations=total)
    stop = total if stop is None else min(stop, total)
    if start < 0 and start < stop:  # as interpretation_at refuses it
        raise ValidationError("interpretation index out of range")
    for index in range(start, stop):
        yield _witness(signature, signature.symbols, n, index)


# ---- scalar reference route ------------------------------------------------


def _system(system):
    """Term and normal systems alike carry `variables`, `signature` and the
    `dag` that the scan kernel evaluates."""
    if not isinstance(system, (TermSystem, NormalSystem)):
        raise PreconditionError(f"not a term system: {type(system).__name__}")
    return system


def count_solutions(system, interp: Interpretation) -> int:
    """Reference count of satisfying assignments for one interpretation;
    a normal system is read as a term system."""
    if isinstance(_system(system), NormalSystem):
        system = system.to_term_system()
    return _count_steps(system, equation_steps(system), interp)


def _count_steps(system: TermSystem, sides, interp: Interpretation) -> int:
    """`count_solutions` with the equations' sides walked already."""
    interp.validate_against(system.signature)
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


class _Digits:
    """The one table decoder: interpretation indices as base-n digit strings.

    Every table count is n^(n^arity), so index i over `symbols` is the w
    base-n digits of all table entries in order (first symbol's entry 0 most
    significant).  `rows` is digit-major (w, n^low), one row per entry: its
    last `low` rows are a fixed block running through every low-digit value,
    so a chunk aligned to n^low decodes by writing only its w - low constant
    high digits, with no per-element division."""

    def __init__(self, symbols, n: int, low: int):
        self.n, self.low = n, low
        self.offset: dict[Ident, int] = {}  # symbol -> its first row
        w = 0
        for name, arity in symbols:
            self.offset[name] = w
            w += n ** arity
        dtype = np.min_scalar_type(n - 1)
        self.rows = np.empty((w, n ** low), dtype=dtype)
        self.rows[w - low:] = np.indices((n,) * low, dtype=dtype).reshape(
            low, n ** low)

    def at(self, base: int) -> np.ndarray:
        """`rows` for the chunk of n^low indices starting at `base`: the
        same buffer each time, rewritten in place."""
        high = base // self.n ** self.low
        for row in range(len(self.rows) - self.low - 1, -1, -1):
            high, digit = divmod(high, self.n)
            self.rows[row] = digit
        return self.rows


def _low_digits(symbols, n: int, k: int) -> int:
    """Digits a chunk spans: the most keeping its grid of interpretations x
    n^k assignments within _CHUNK_CELLS."""
    w = sum(n ** arity for _, arity in symbols)
    low = 0
    while low < w and n ** (low + 1 + k) <= _CHUNK_CELLS:
        low += 1
    return low


def _chunks(kind: str, payload, n: int, lo: int, hi: int,
            low: int | None = None):
    """The scan kernel: yield (first index, per-interpretation values) for
    [lo, hi) in chunks aligned to n^low, for a payload of (symbols to
    enumerate, term DAG to evaluate).

    Each DAG node is evaluated once per chunk, over the inputs it depends
    on: its value has one axis per input (size n, or 1 off its support)
    and the chunk axis last, and costs one gather from the digit rows.
    `kind` "count" counts the assignments satisfying every equation whose
    sides are the DAG's outputs, (lhs, rhs) in turn; "image" counts the
    distinct output tuples.  From n = _PRUNE_MIN_N only the indices
    `_least_in_orbit` keeps are evaluated and the others read -1: in every
    range, the max value, its least index and the least index reaching a
    target stay those of the unpruned scan."""
    symbols, dag = payload
    k = len(dag.inputs)
    if low is None:
        low = _low_digits(symbols, n, k)
    digits = _Digits(symbols, n, low)
    swaps = _transpositions(symbols, digits) if n >= _PRUNE_MIN_N else []
    high = len(digits.rows) - low  # digits constant over a chunk
    size = n ** low
    inputs = [np.arange(n, dtype=digits.rows.dtype).reshape(
        [n if j == i else 1 for j in range(k)] + [1]) for i in range(k)]
    last = {c: i for i, (_, children) in enumerate(dag.ops) for c in children}
    roots = set(dag.outputs)
    drops: list[list[int]] = [[] for _ in dag.ops]
    for node, i in last.items():
        if node not in roots:
            drops[i].append(node)  # freed after its last reader
    reduce = {"count": _satisfied, "image": _distinct}[kind]
    pos = lo
    while pos < hi:
        base = pos - pos % size
        end = min(base + size, hi)
        rows = digits.at(base)
        flat = rows.ravel()
        cols = np.arange(pos - base, end - base, dtype=np.intp)
        if swaps:
            cols = _least_in_orbit(rows[:high, 0].tolist(), base, lo, cols,
                                   swaps)
            if not len(cols):  # common at n >= 4, past the low indices
                yield pos, np.full(end - pos, -1, dtype=np.int64)
                pos = end
                continue
            view = rows[:, cols]
        else:
            view = rows[:, pos - base:end - base]
        vals = list(inputs)
        for (symbol, children), dead in zip(dag.ops, drops):
            off = digits.offset[symbol]
            args = [vals[c] for c in children]
            if not args:  # a constant: one digit row
                vals.append(view[off].reshape((1,) * k + (len(cols),)))
            elif max(children) < k:  # arguments are inputs: gather rows
                vals.append(np.take(view, _table_rows(args, n, 1, off)[..., 0],
                                    axis=0))
            else:  # each interpretation reads its own column of `rows`
                vals.append(np.take(flat, _table_rows(args, n, size,
                                                      off * size + cols)))
            for c in dead:
                vals[c] = None
        out = reduce(dag, vals, n, k, len(cols))
        if swaps:
            out, kept = np.full(end - pos, -1, dtype=np.int64), out
            out[cols - (pos - base)] = kept
        yield pos, out
        pos = end


def _transpositions(symbols, digits: _Digits):
    """Per transposition t of [n], its conjugate's index split for a chunk:
    (terms, excess, min excess, max excess).  (t.T)_f[a] = t(T_f[t(a)])
    with t applied entrywise, so digit p of t.T is t(digit q_p of T).
    `terms` lists (n^(w-1-p), q_p, t) for each q_p among the chunk's
    constant high digits; `excess[c]` is c minus the rest of t.T's index,
    which reads only the fixed low block of column c and so is the same
    for every chunk."""
    n, low, w = digits.n, digits.low, len(digits.rows)
    high = w - low
    block = digits.rows[high:].astype(np.int64)
    swaps = []
    for i, j in itertools.combinations(range(n), 2):
        t = list(range(n))
        t[i], t[j] = j, i
        terms = []
        excess = np.arange(n ** low, dtype=np.int64)
        for name, arity in symbols:
            table = np.arange(n ** arity).reshape((n,) * arity)
            moved = table[np.ix_(*[t] * arity)].ravel() + digits.offset[name]
            for p, q in enumerate(moved.tolist(), digits.offset[name]):
                if q < high:
                    terms.append((n ** (w - 1 - p), q, t))
                else:
                    excess -= n ** (w - 1 - p) * np.take(t, block[q - high])
        swaps.append((terms, excess, int(excess.min()), int(excess.max())))
    return swaps


def _least_in_orbit(high_digits: list[int], base: int, lo: int, cols,
                    swaps) -> np.ndarray:
    """The columns `cols` of the chunk at `base` (constant high digits
    `high_digits`) whose index T has no swap conjugate in [lo, T).

    Index order is the lexicographic order of digit strings.  Every scan
    value (solution count, image size, perfect hit, count mismatch) is the
    same for T and each conjugate, so the least index in [lo, hi) attaining
    a value has no conjugate in [lo, T) and is kept; from lo = 0 that is
    T <= every conjugate, a superset of the least member of each orbit
    under relabelling [n]."""
    keep = np.ones(len(cols), dtype=bool)
    for terms, excess, least, most in swaps:
        head = sum(weight * t[high_digits[q]] for weight, q, t in terms)
        # conjugate index = head + c - excess[c], and c - excess[c] >= 0
        if most <= head - base:  # no conjugate precedes its column
            continue
        if least > head - base and head >= lo:  # all do, from lo on
            return cols[:0]
        ex = excess[cols]
        keep &= (ex <= head - base) | (ex - cols > head - lo)
    return cols[keep]


def _table_rows(args, n: int, scale: int, start):
    """start + scale * (row-major table index of the argument values
    `args`), in intp; each widening names its dtype, so the result does
    not depend on numpy's promotion rules."""
    stride = scale * n ** len(args)
    idx = start
    for a in args:
        stride //= n
        idx = np.add(idx, np.multiply(a, stride, dtype=np.intp), dtype=np.intp)
    return idx


def _satisfied(dag: TermDag, vals, n: int, k: int, c: int) -> np.ndarray:
    """Per interpretation, the assignments where every (lhs, rhs) output
    pair agrees."""
    sat = None
    for a, b in zip(dag.outputs[::2], dag.outputs[1::2]):
        eq = vals[a] == vals[b]
        sat = eq if sat is None else sat & eq
    if sat is None:
        return np.full(c, n ** k, dtype=np.int64)
    free = n ** sum(1 for j in range(k) if sat.shape[j] == 1)
    counts = np.multiply(np.count_nonzero(sat, axis=tuple(range(k))), free,
                         dtype=np.int64)
    return np.broadcast_to(counts, (c,))


def _distinct(dag: TermDag, vals, n: int, k: int, c: int) -> np.ndarray:
    """Per interpretation, the number of distinct output tuples: each
    tuple's base-n code, sorted per interpretation.  Codes are int16/32/64,
    never uint8, which numpy sorts far more slowly."""
    width = n ** len(dag.outputs)
    dtype = (np.int16 if width <= 1 << 15 else
             np.int32 if width <= 1 << 31 else np.int64)
    code = None
    for root in dag.outputs:
        code = (vals[root].astype(dtype) if code is None else np.add(
            np.multiply(code, n, dtype=dtype), vals[root], dtype=dtype))
    grid = np.empty((c,) + (n,) * k, dtype=dtype)
    grid[...] = np.moveaxis(code, -1, 0)
    grid = grid.reshape(c, n ** k)
    grid.sort(axis=1)
    return 1 + np.count_nonzero(grid[:, 1:] != grid[:, :-1], axis=1)


def _scan_range(task) -> tuple[int, int, int | None]:
    """Scan one contiguous index range; returns (best value, least index of
    it, least index reaching `target` or None)."""
    kind, payload, n, lo, hi, target = task
    best_v, best_i, hit = -1, -1, None
    for pos, vals in _chunks(kind, payload, n, lo, hi):
        mx = int(vals.max())
        if mx > best_v:
            best_v = mx
            best_i = pos + int(vals.argmax())
        if target is not None and mx >= target:
            hit = pos + int(np.argmax(vals >= target))
            break
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
    """Full scan of [0, total), across `jobs` processes once an unpruned
    scan needs _POOL_MIN_EVALS evaluations; the merge is
    order-deterministic so results do not depend on the job count."""
    if (jobs <= 1 or n >= _PRUNE_MIN_N
            or total * n ** len(payload[1].inputs) < _POOL_MIN_EVALS):
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
    digits = _Digits(used, n, 0)
    entries = digits.at(index)[:, 0].tolist()
    for name, arity in used:
        off = digits.offset[name]
        tables[name] = tuple(entries[off:off + n ** arity])
    return Interpretation(n, tables)


def _rate(value: int, n: int) -> float | None:
    if n < 2:
        return None
    return math.log(value) / math.log(n)


def _used_space(used, n: int) -> int:
    return math.prod(table_space(n, arity) for _, arity in used)


# ---- search operations -------------------------------------------------------


def brute_max_solutions(system, n: int, budget: SearchBudget = DEFAULT_BUDGET,
                        *, jobs: int = 1) -> OracleResult:
    """Maximum solution count over every interpretation, with the least
    witness attaining it.  The budget is checked before the DAG is read."""
    system = _system(system)
    k = len(system.variables)
    _admit(system.signature, n, k, budget)
    used = _enumerated(system.signature, system.dag)
    total = _used_space(used, n)
    value, index, _ = _scan("count", (used, system.dag), n, total, jobs)
    return OracleResult(value, _witness(system.signature, used, n, index),
                        _rate(value, n), total * n ** k)


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
    include itself if a loop is present).  The game is the system
    `graph_system(graph)`: a strategy is an interpretation of its player
    symbols, and the configurations it wins are its solutions."""
    res = brute_max_solutions(graph_system(graph), n, budget, jobs=jobs)
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
    before, after = _system(before), _system(after)
    if before.signature != after.signature:
        raise PreconditionError("count comparison needs a shared signature")
    per = n ** len(before.variables) + n ** len(after.variables)
    _admit(before.signature, n, 0, budget, per_interp=per)
    used = _enumerated(before.signature, before.dag, after.dag)
    total = _used_space(used, n)
    low = min(_low_digits(used, n, len(dag.inputs))
              for dag in (before.dag, after.dag))
    for (pos, ca), (_, cb) in zip(
            _chunks("count", (used, before.dag), n, 0, total, low),
            _chunks("count", (used, after.dag), n, 0, total, low)):
        if not np.array_equal(ca, cb):
            first = pos + int(np.argmax(ca != cb))
            return CountPreservation(False, total, first)
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
    outputs = [term_steps(t) for t in spec.outputs]
    sides = equation_steps(embedded)
    used = _enumerated(spec.signature, spec.dag)
    total = _used_space(used, n)
    best_value, best_witness = -1, None
    for index in range(total):
        interp = _witness(spec.signature, used, n, index)
        chosen: dict[tuple[int, ...], tuple[int, ...]] = {}
        for assign in assignments(spec.inputs, n):
            outs = tuple(run_steps(t, interp, assign) for t in outputs)
            if outs not in chosen:
                chosen[outs] = tuple(assign[x] for x in spec.inputs)
        tables = dict(interp.tables)
        for j, h in enumerate(decoder_names):
            entries = [0] * (n ** r)
            for outs, preimage in chosen.items():
                entries[table_index(n, outs)] = preimage[j]
            tables[h] = tuple(entries)
        full = Interpretation(n, tables)
        value = _count_steps(embedded, sides, full)
        if value > best_value:
            best_value, best_witness = value, full
    result = OracleResult(best_value, best_witness, _rate(best_value, n),
                          total * per)
    return EmbeddingCheck(dispersion.value == best_value, dispersion, result)
