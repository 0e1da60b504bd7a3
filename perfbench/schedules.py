"""Seeded query and arrival schedules for the three workloads.

Radii are drawn stratified: each block of queries takes one radius from
every equal slice of its range, in a seeded order.  Any whole number of
blocks then covers the same radius quantiles on every seed, so seeds
change which query comes when, not how hard the mix is.  That keeps the
run-to-run spread of the latency percentiles small.
"""

from __future__ import annotations

import numpy as np

STATIC_KS = (5, 10, 20, 40)
STATIC_R_RANGE = (0.6, 1.5)
# Queries per k in a block of 20.  A cold query's cost is set by k, not r
# (the filter counts k neighbours per object): k = 5 and 10 cost about
# the same, 20 twice that, 40 four times.  With equal shares the median
# sits on the step between k = 10 and k = 20 and jumps by 2x when one
# query more or less falls below it.  These shares put p50 among the
# k = 20 queries (at 40 % of them) and p90 at the middle of the k = 40
# ones, so a slow stretch of the host must cover half the run to move it.
STATIC_PER_K = (3, 3, 10, 4)
CHURN_KS = (5, 10, 20, 40)
CHURN_OFF_RANGE = (0.8, 1.25)
CHURN_BLOCK = (16, 4)         # pinned, off-pinned queries per block of 20
SERVE_KS = (10, 20, 40)
SERVE_GRID = (0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4)
SERVE_R_RANGE = (0.7, 1.4)
SERVE_GRID_SHARE = 0.7
SERVE_PER_K = 4               # continuous radii per k in a block
SERVE_ZIPF = 1.1
SERVE_WARM_CONTINUOUS = 48


def _stratified(gen, lo: float, hi: float, m: int) -> np.ndarray:
    """``m`` draws, one from each of ``m`` equal slices of ``[lo, hi)``."""
    slots = gen.permutation(m) + gen.random(m)
    return lo + (hi - lo) * slots / m


def _joint(gen, lo: float, hi: float, ks, parts: int,
           m: int) -> list[tuple[float, int]]:
    """``m`` ``(factor, k)`` pairs stratified jointly, in a seeded order.

    A block cuts ``[lo, hi)`` into ``parts * len(ks)`` slices and takes
    one factor from each, and every ``k`` gets one factor in each of
    ``parts`` equal parts of the range.  Cost depends on both (a small
    radius at a large ``k`` is the slowest query), so every block holds
    the same mix of cheap and costly queries.
    """
    n_k = len(ks)
    block = parts * n_k
    out: list[tuple[float, int]] = []
    while len(out) < m:
        # Part q holds slices q*n_k .. q*n_k + n_k - 1; each k takes one.
        slots = np.concatenate([q * n_k + gen.permutation(n_k)
                                for q in range(parts)])
        fs = lo + (hi - lo) * (slots + gen.random(block)) / block
        kk = np.tile(ks, parts)
        out.extend((float(fs[i]), int(kk[i])) for i in gen.permutation(block))
    return out[:m]


def static_block() -> int:
    return sum(STATIC_PER_K)


def static_queries(seed: int, r0: float, count: int) -> list[tuple[float, int]]:
    """Cold ``(r, k)`` queries: ``r = r0 * U[0.6, 1.5]``, ``k`` in STATIC_KS.

    Each block holds STATIC_PER_K queries of each ``k`` in a seeded
    order, the radii of one ``k`` one from each equal part of the range.
    """
    gen = np.random.default_rng([seed, 1])
    out: list[tuple[float, int]] = []
    while len(out) < count:
        block = [(float(r0 * f), k) for k, m in zip(STATIC_KS, STATIC_PER_K)
                 for f in _stratified(gen, *STATIC_R_RANGE, m)]
        out.extend(block[i] for i in gen.permutation(len(block)))
    return out[:count]


def churn_queries(seed: int, r0: float, count: int) -> list[tuple[float, int]]:
    """One query per churn step: mostly pinned ``(r0, k)``, some off-radius.

    Each block gives every ``k`` the same number of pinned queries and
    one off-radius query, the off radii stratified across the range.
    """
    gen = np.random.default_rng([seed, 2])
    pinned, off = CHURN_BLOCK
    out: list[tuple[float, int]] = []
    while len(out) < count:
        block = [(1.0, int(k)) for k in np.resize(CHURN_KS, pinned)]
        block += _joint(gen, *CHURN_OFF_RANGE, CHURN_KS, off // len(CHURN_KS),
                        off)
        out.extend((float(r0 * block[i][0]), block[i][1])
                   for i in gen.permutation(pinned + off))
    return out[:count]


def serve_grid(r0: float) -> list[float]:
    return [float(r0 * f) for f in SERVE_GRID]


def serve_warmup(seed: int, r0: float) -> list[tuple[float, int]]:
    """Sent one at a time before any rate step: every popular grid point,
    then SERVE_WARM_CONTINUOUS continuous radii, so the rate steps meet a
    cache that already holds evidence across the whole radius range."""
    gen = np.random.default_rng([seed, 4])
    grid = [(r, int(k)) for r in serve_grid(r0) for k in SERVE_KS]
    return grid + [(float(r0 * f), k) for f, k in _joint(
        gen, *SERVE_R_RANGE, SERVE_KS, SERVE_PER_K, SERVE_WARM_CONTINUOUS)]


def popularity_rank() -> np.ndarray:
    """Zipf rank of each SERVE_GRID radius: 0 for ``r0`` itself, then by
    distance from it (the smaller radius first on a tie)."""
    dist = [(round(abs(f - 1.0), 9), f) for f in SERVE_GRID]
    order = sorted(range(len(SERVE_GRID)), key=lambda g: dist[g])
    rank = np.empty(len(SERVE_GRID), dtype=int)
    rank[order] = np.arange(len(SERVE_GRID))
    return rank


def _apportion(weights: np.ndarray, total: int) -> np.ndarray:
    """Integer counts proportional to ``weights`` summing to ``total``."""
    exact = weights / weights.sum() * total
    counts = np.floor(exact).astype(int)
    rest = total - counts.sum()
    counts[np.argsort(-(exact - counts), kind="stable")[:rest]] += 1
    return counts


def serve_step(seed: int, step: int, r0: float, rate: float,
               count: int) -> list[tuple[float, float, int]]:
    """``count`` open-loop requests ``(due offset s, r, k)`` at ``rate``/s.

    Poisson arrivals.  SERVE_GRID_SHARE of requests ask a grid radius
    with Zipf popularity, each radius cycling through SERVE_KS from a
    seeded start; the rest ask continuous radii stratified jointly with
    ``k``.  Popularity falls with distance from ``r0`` on every seed and
    step: a seeded popularity order moved saturation throughput by a
    third between seeds, as the most popular radius came out cheap or
    costly.
    """
    gen = np.random.default_rng([seed, 3, step])
    weights = 1.0 / (1.0 + popularity_rank()) ** SERVE_ZIPF
    n_grid = int(round(SERVE_GRID_SHARE * count))
    grid = serve_grid(r0)
    n_k = len(SERVE_KS)
    reqs: list[tuple[float, int]] = []
    for g, c in enumerate(_apportion(weights, n_grid)):
        first = int(gen.integers(n_k))
        reqs += [(grid[g], SERVE_KS[(first + j) % n_k]) for j in range(c)]
    reqs += [(float(r0 * f), k) for f, k in _joint(
        gen, *SERVE_R_RANGE, SERVE_KS, SERVE_PER_K, count - n_grid)]
    order = gen.permutation(count)
    # Exponential gaps at stratified quantiles: Poisson arrivals whose
    # gap multiset is nearly the same on every seed.
    gaps = -np.log1p(-_stratified(gen, 0.0, 1.0, count)) / rate
    due = np.cumsum(gaps)
    due -= due[0]
    return [(float(due[i]), *reqs[order[i]]) for i in range(count)]
