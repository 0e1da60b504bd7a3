"""stream-churn: a sliding window that writes beside reads.

Closed loop, one client, on a mutable engine whose evidence cache is
repaired by every insert and remove.  Each step expires the oldest
batch, inserts the next one and runs one query.  Every SNAP_EVERY steps
the engine is snapshotted and restarted from the snapshot; there the
live set is checked against brute force, and the restarted engine must
give the answer the engine gave before the snapshot.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import deque

import numpy as np

from . import oracle
from .common import (KMAX, N, R0_K, SETUPS, Context, Outcome, QueryStats,
                     Window, latency_summary, phase_splits, points, r0_of,
                     samples_note)
from .measure import peak_rss_mb
from .schedules import churn_queries

FILL_BATCH = 250         # inserts that fill the window during set-up
BATCH = 25               # objects expired and inserted per step
SNAP_EVERY = 25          # steps between snapshot + restart
MAX_STEPS = 2000


def arrivals(seed: int) -> np.ndarray:
    """Every object the window will see, in arrival order.

    The pool of points is fixed; the seed picks the order.
    """
    return np.random.default_rng([seed, 5]).permutation(
        points(N + MAX_STEPS * BATCH))


def _setup(ctx: Context, stream: np.ndarray, r0: float, i: int):
    from repro import create_engine

    tr = ctx.tracer
    with tr.span("setup", req=f"setup-{i}"):
        with tr.span("engine.create"):
            engine = create_engine(None, mutable=True, pinned=(r0,))
        ids = []
        for lo in range(0, N, FILL_BATCH):
            with tr.span("engine.mutable.insert"):
                ids.extend(int(v) for v in engine.insert(
                    list(stream[lo:lo + FILL_BATCH])))
    return engine, ids


def run(ctx: Context) -> Outcome:
    from repro import Dataset, load_any_engine

    out = Outcome()
    tr = ctx.tracer
    stream = arrivals(ctx.seed)
    r0 = r0_of(oracle.kth_table(Dataset(stream[:N], "l2"), KMAX))

    setup_s, engine = [], None
    for i in range(SETUPS):
        if engine is not None:
            engine.close()
        t0 = time.perf_counter()
        engine, ids = _setup(ctx, stream, r0, i)
        setup_s.append(time.perf_counter() - t0)
    live = deque(zip(ids, range(N)))      # (engine id, stream row), oldest first
    engine.query(r0, R0_K)                # compact once before measuring

    queries = churn_queries(ctx.seed, r0, MAX_STEPS)
    path = os.path.join(ctx.work, "churn-snapshot.npz")
    ins, rem, lat, compact = [], [], [], []
    save_s, load_s, restart, snap_bytes = [], [], [], []
    qstats = QueryStats()
    window = Window(ctx.seconds)
    step, next_row = 0, N
    while window.open(len(lat)) and step < MAX_STEPS:
        req = f"step-{step}"
        victims = [live.popleft()[0] for _ in range(BATCH)]
        t0 = time.perf_counter()
        engine.remove(victims)
        t1 = time.perf_counter()
        new = engine.insert(list(stream[next_row:next_row + BATCH]))
        t2 = time.perf_counter()
        live.extend(zip((int(v) for v in new),
                        range(next_row, next_row + BATCH)))
        next_row += BATCH
        r, k = queries[step]
        res = engine.query(r, k)
        t3 = time.perf_counter()
        rem.append(t1 - t0)
        ins.append(t2 - t1)
        lat.append(t3 - t2)
        splits = qstats.add(res)
        compact.append(lat[-1] - sum(splits.values()))
        tr.record("engine.mutable.remove", t0, t1, req)
        tr.record("engine.mutable.insert", t1, t2, req)
        tr.record("engine.query", t2, t3, req, splits=splits,
                  counts=dict(res.counts))
        out.attempted += 3
        step += 1
        if step % SNAP_EVERY:
            continue

        # -- snapshot point: oracle check, save, restart, same answer ------
        req = f"snapshot-{step // SNAP_EVERY}"
        before = engine.query(r0, R0_K).outliers
        with window.pause():
            ids_live = np.fromiter((v for v, _ in live), dtype=np.int64)
            rows = np.fromiter((row for _, row in live), dtype=np.int64)
            table = oracle.kth_table(Dataset(stream[rows], "l2"), R0_K)
            out.check(oracle.matches(table, r0, R0_K, before, ids=ids_live),
                      f"step {step}: live-set answer differs from oracle")
        objects = engine.object_log()
        t0 = time.perf_counter()
        engine.save(path)
        t1 = time.perf_counter()
        restored = load_any_engine(path, objects=objects)
        t2 = time.perf_counter()
        after = restored.query(r0, R0_K)
        t3 = time.perf_counter()
        tr.record("io.save", t0, t1, req)
        rid = tr.record("restart", t1, t3, req)
        tr.record("io.load", t1, t2, req, parent=rid)
        tr.record("engine.query", t2, t3, req, parent=rid,
                  splits=phase_splits(after))
        save_s.append(t1 - t0)
        load_s.append(t2 - t1)
        restart.append(t3 - t1)
        snap_bytes.append(os.path.getsize(path))
        out.check(bool(np.array_equal(np.sort(after.outliers), np.sort(before))),
                  f"step {step}: answer after restart differs from before")
        engine.close()
        engine = restored
    engine.close()

    out.e2e = {
        "setup_s": statistics.median(setup_s),
        **latency_summary(lat, "query"),
        "queries_per_s": len(lat) / sum(lat),
        "peak_rss_mb": peak_rss_mb([os.getpid()]),
    }
    out.layers = {
        **qstats.layers(),
        "engine.mutable.compact_s": statistics.fmean(compact),
        "engine.mutable.insert_s": statistics.fmean(ins),
        "engine.mutable.remove_s": statistics.fmean(rem),
        **latency_summary(ins, "engine.mutable.insert"),
        **latency_summary(rem, "engine.mutable.remove"),
    }
    if save_s:
        out.layers.update({
            "io.save_s": statistics.fmean(save_s),
            "io.load_s": statistics.fmean(load_s),
            "io.snapshot_bytes": statistics.median(snap_bytes),
            "io.snapshot_p50_ms": 1e3 * statistics.median(save_s),
            "io.restart_p50_ms": 1e3 * statistics.median(restart),
        })
    out.report = {"r0": r0, "steps": step, "snapshots": len(save_s),
                  "setup_runs_s": setup_s, "query": samples_note(lat),
                  "insert": samples_note(ins), "remove": samples_note(rem)}
    return out

