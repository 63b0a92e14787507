"""The scan kernel: the engine route of the exhaustive oracles.

This is the only termflow module that imports numpy, and `oracle` loads it
only once a search has passed its budget check, so commands that never
scan never load numpy.  `oracle` keeps budgets, result types, the scalar
route and constructions; it calls only `_scan` and `_witness`.

`_chunks` scans the whole grid of interpretations x assignments.  It
decodes a chunk of consecutive interpretation indices as base-n digit rows
(`_Digits`, the one table decoder, also behind `_witness`), evaluates each
node of the system's or spec's term DAG (`.dag`) once per chunk, with one
gather, over the inputs the node depends on, and yields the indices it
evaluated with their values: a sum of the satisfied assignments, or a sort
of the output tuple codes for image sizes.  A gather whose arguments are
all inputs reads the same rows in every chunk, so its row selection is
built once per scan.  Both reductions accumulate in the narrowest unsigned
dtype that holds n^k and return int64, so no caller depends on numpy's
promotion rules.  `_scan` runs once, in this process, over the whole index
range.  Chunks reduce in index order to (max value, least index attaining
it), and a scan stops at the first chunk reaching its target (a search's
ceiling), with the least index reaching it, so no result depends on
chunking.

From n = 3 the kernel skips interpretations that a relabelling of the
alphabet makes redundant.  Conjugating every table by one permutation s of
[n], (s.T)_f[a] = s(T_f[s^-1(a)]), changes no scan value: solution counts,
image sizes and perfect hits are all S_n-invariant.  So the least index
attaining a value is the least member of its orbit, and is <= its
conjugate by each of the n(n-1)/2 transpositions.  A scan evaluates only
the indices T that are <= each transposition conjugate (`_least_in_orbit`),
a superset of those least indices: values, witnesses and perfect-hit
indices are those of the unpruned scan.  At n = 2 the one swap often costs
more than it saves; from n = 5 `_prunes` weighs the swaps.
"""

from __future__ import annotations

import itertools

import numpy as np

from .terms import Ident, Interpretation, Signature, TermDag

_CHUNK_CELLS = 1 << 18  # interpretations x assignments evaluated at once
_PRUNE_MIN_N = 3  # at n = 2 one swap halves a scan but often costs more


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


def _prunes(n: int, dag: TermDag) -> bool:
    """Whether a scan of `dag` at n runs the orbit filter.  Its n(n-1)/2
    swaps per interpretation go uncharged by the budget, so from n = 5 it
    runs only while they cost less than the scan's n^k evaluations per op."""
    swaps = n * (n - 1) // 2
    return n >= _PRUNE_MIN_N and (
        n <= 4 or swaps < n ** len(dag.inputs) * max(1, len(dag.ops)))


def _chunks(kind: str, symbols, dag: TermDag, n: int):
    """The scan kernel: yield (indices, values) for the interpretations of
    `symbols` it evaluates, in increasing index order, one pair per chunk
    of n^low indices (n^w splits into whole chunks), evaluating `dag`.

    Each DAG node is evaluated once per chunk, over the inputs it depends
    on: its value has one axis per input (size n, or 1 off its support)
    and the chunk axis last, and costs one gather from the digit rows.
    An op whose arguments are all inputs has the same row selection in
    every chunk, built once before the first.
    `kind` "count" counts the assignments satisfying every equation whose
    sides are the DAG's outputs, (lhs, rhs) in turn; "image" counts the
    distinct output tuples.  If `_prunes(n, dag)` only the indices
    `_least_in_orbit` keeps are evaluated, and a chunk it empties yields
    nothing: the max value, its least index and the least index reaching a
    target stay those of the unpruned scan."""
    k = len(dag.inputs)
    low = _low_digits(symbols, n, k)
    digits = _Digits(symbols, n, low)
    swaps = _transpositions(symbols, digits) if _prunes(n, dag) else []
    high = len(digits.rows) - low  # digits constant over a chunk
    size = n ** low
    every = np.arange(size, dtype=np.intp)
    inputs = [np.arange(n, dtype=digits.rows.dtype).reshape(
        [n if j == i else 1 for j in range(k)] + [1]) for i in range(k)]
    last = {c: i for i, (_, children) in enumerate(dag.ops) for c in children}
    roots = set(dag.outputs)
    drops: list[list[int]] = [[] for _ in dag.ops]
    for node, i in last.items():
        if node not in roots:
            drops[i].append(node)  # freed after its last reader
    # built from `inputs`: `vals` frees an input after its last reader
    rowsels = [_table_rows([inputs[c] for c in children], n, 1,
                           digits.offset[symbol])[..., 0]
               if children and max(children) < k else None
               for symbol, children in dag.ops]
    reduce = {"count": _satisfied, "image": _distinct}[kind]
    for base in range(0, n ** len(digits.rows), size):
        rows = digits.at(base)
        flat = rows.ravel()
        cols, view = every, rows
        if swaps:
            cols = _least_in_orbit(rows[:high, 0].tolist(), base, swaps)
            if not len(cols):  # common at n >= 4, past the low indices
                continue
            view = rows[:, cols]
        vals = list(inputs)
        for (symbol, children), rowsel, dead in zip(dag.ops, rowsels, drops):
            off = digits.offset[symbol]
            if rowsel is not None:  # arguments are inputs: gather rows
                vals.append(np.take(view, rowsel, axis=0))
            elif not children:  # a constant: one digit row
                vals.append(view[off].reshape((1,) * k + (len(cols),)))
            else:  # each interpretation reads its own column of `rows`
                vals.append(np.take(flat, _table_rows(
                    [vals[c] for c in children], n, size, off * size + cols)))
            for c in dead:
                vals[c] = None
        yield base + cols, reduce(dag, vals, n, k, len(cols))


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


def _least_in_orbit(high_digits: list[int], base: int,
                    swaps) -> np.ndarray:
    """The columns of the chunk at `base` (constant high digits
    `high_digits`) whose index T is <= each swap conjugate.

    Index order is the lexicographic order of digit strings.  Every scan
    value (solution count, image size, perfect hit) is the same for T and
    each conjugate, so the least index attaining a value is kept: the kept
    set is a superset of the least member of each orbit under relabelling
    [n]."""
    keep = np.ones(len(swaps[0][1]), dtype=bool)
    for terms, excess, least, most in swaps:
        head = sum(weight * t[high_digits[q]] for weight, q, t in terms)
        # conjugate index = head + c - excess[c], so T = base + c is kept
        # iff excess[c] <= head - base
        if most <= head - base:  # no conjugate precedes its column
            continue
        if least > head - base:  # all do
            return np.empty(0, dtype=np.intp)
        keep &= excess <= head - base
    return np.flatnonzero(keep)


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
    pair agrees, as int64.  The satisfied cells of each interpretation are
    summed in the narrowest unsigned dtype that holds their number (at most
    n^k), then widened once while multiplying by the free assignments."""
    if not dag.outputs:
        return np.full(c, n ** k, dtype=np.int64)
    # each axis of a value is 1 or its full size: the max is the joint shape
    shape = tuple(map(max, *(vals[o].shape for o in dag.outputs)))
    sat = np.empty(shape, dtype=bool)  # each equation ANDed in place
    lhs, rhs = dag.outputs[::2], dag.outputs[1::2]
    np.equal(vals[lhs[0]], vals[rhs[0]], out=sat)
    for a, b in zip(lhs[1:], rhs[1:]):
        sat &= vals[a] == vals[b]
    cells = sat.size // shape[-1]  # <= n^k: the sum cannot wrap
    counts = sat.reshape(cells, shape[-1]).sum(
        axis=0, dtype=np.min_scalar_type(cells))
    # times the assignments off the support, over all c interpretations
    return np.multiply(counts, n ** shape[:k].count(1), dtype=np.int64,
                       out=np.empty(c, dtype=np.int64))


def _distinct(dag: TermDag, vals, n: int, k: int, c: int) -> np.ndarray:
    """Per interpretation, the number of distinct output tuples: each
    tuple's base-n code, sorted per interpretation, and 1 + the code
    changes, summed in the narrowest unsigned dtype that holds n^k and
    returned as int64.  Codes are int16/32/64, never uint8, which numpy
    sorts far more slowly."""
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
    return np.add.reduce(grid[:, 1:] != grid[:, :-1], axis=1, initial=1,
                         dtype=np.min_scalar_type(n ** k)).astype(np.int64)


def _scan(kind: str, symbols, dag: TermDag, n: int,
          target: int | None = None) -> tuple[int, int, int | None]:
    """Scan every interpretation of `symbols`; returns (best value, least
    index of it, least index reaching `target` or None).  A hit ends the
    scan at its chunk, so the best value then covers only the chunks up to
    the hit.  When `target` is a ceiling no value exceeds, as every
    `oracle` search passes, that is the full scan's best value, and its
    least index is the hit."""
    best_v, best_i = -1, -1
    for indices, vals in _chunks(kind, symbols, dag, n):
        at = int(vals.argmax())
        if vals[at] > best_v:
            best_v, best_i = int(vals[at]), int(indices[at])
        if target is not None and vals[at] >= target:
            return best_v, best_i, int(indices[np.argmax(vals >= target)])
    return best_v, best_i, None


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
