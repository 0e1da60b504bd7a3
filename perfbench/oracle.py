"""Exact answers by brute force, computed outside every timed region.

Object ``p`` is an (r, k)-outlier iff fewer than ``k`` other objects lie
within distance ``r`` of it, i.e. iff its k-th other-neighbour distance
is greater than ``r``.  One table of the ``kmax`` smallest other-neighbour
distances per object answers every query with ``k <= kmax``.
"""

from __future__ import annotations

import numpy as np


def kth_table(dataset, kmax: int) -> np.ndarray:
    """Row ``p`` holds the ``kmax`` smallest distances from ``p`` to others."""
    n = dataset.n
    if not 1 <= kmax < n:
        raise ValueError(f"kmax must be in [1, {n - 1}], got {kmax}")
    everyone = np.arange(n, dtype=np.int64)
    table = np.empty((n, kmax))
    for p in range(n):
        d = np.asarray(dataset.dist_many(p, everyone), dtype=np.float64)
        d[p] = np.inf
        table[p] = np.sort(np.partition(d, kmax - 1)[:kmax])
    return table


def outliers(table: np.ndarray, r: float, k: int) -> np.ndarray:
    """Sorted ids of the exact (r, k)-outliers."""
    return np.flatnonzero(table[:, k - 1] > r)


def matches(table: np.ndarray, r: float, k: int, answer, ids=None) -> bool:
    """Does ``answer`` equal the exact outlier set?

    ``ids`` maps table rows to the ids the program answers with (the
    live objects of a mutable engine); by default row ``p`` is id ``p``.
    """
    expected = outliers(table, r, k)
    if ids is not None:
        expected = np.sort(np.asarray(ids)[expected])
    got = np.sort(np.asarray(answer, dtype=np.int64))
    return bool(np.array_equal(got, expected))
