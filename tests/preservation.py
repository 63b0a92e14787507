"""The count-preservation check for the test modules
(`from preservation import first_mismatch`).

Normalization must keep every interpretation's solution count.  This
compares two systems over one signature through the scan kernel, each
system scanned on its own.
"""

import numpy as np

from termflow import kernel, oracle


def first_mismatch(before, after, n):
    """(least interpretation index where the two systems' solution counts
    differ or None, interpretation count), admitted on both DAGs as one
    search.  Each scan keeps a superset of the orbit minima under
    relabelling [n], and a mismatch is S_n-invariant, so the least one is
    among the indices both scans evaluate.  A search over the default
    budget raises BudgetError."""
    per = n ** len(before.variables) + n ** len(after.variables)
    used, total = oracle._admit(before.signature.symbols, n, 0,
                                oracle.DEFAULT_BUDGET, before.dag, after.dag,
                                per_interp=per)
    (ia, ca), (ib, cb) = (map(np.concatenate, zip(*kernel._chunks(
        "count", used, s.dag, n))) for s in (before, after))
    both, at_a, at_b = np.intersect1d(ia, ib, assume_unique=True,
                                      return_indices=True)
    differ = both[ca[at_a] != cb[at_b]]
    return (int(differ[0]) if len(differ) else None), total
