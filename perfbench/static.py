"""detect-static: the paper's cold Algorithm 1 over a prebuilt MRPG.

Closed loop, one client.  Set-up builds the engine; every query then
runs after ``reset_cache()`` so it filters and verifies from scratch.
The run builds SETUPS engines and gives each an equal share of the query
window.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from . import oracle
from .common import (KMAX, SETUPS, Context, Outcome, QueryStats, Window,
                     latency_summary, points, r0_of, samples_note)
from .measure import peak_rss_mb
from .schedules import static_block, static_queries
from .trace import self_times

K_GRAPH = 16
BUILD_PHASES = {            # build_stats() phase -> per-layer split name
    "nndescent+": "graphs.nndescent",
    "connect_subgraphs": "graphs.connect",
    "remove_detours": "graphs.detours",
    "remove_links": "graphs.prune",
}


def _setup(ctx: Context, pts: np.ndarray, i: int):
    """One set-up.  Traced, it is one span whose splits are the graph's
    reported build phases; the span's self time is the rest of set-up."""
    from repro import create_engine

    with ctx.tracer.span("setup", req=f"setup-{i}") as span:
        engine = create_engine(pts, graph="mrpg", K=K_GRAPH,
                               build_workers=ctx.nproc)
        if span is not None:
            phases = engine.build_stats().get("phase_seconds", {})
            span.splits = {BUILD_PHASES[p]: s for p, s in phases.items()
                           if p in BUILD_PHASES}
    return engine


def run(ctx: Context) -> Outcome:
    from repro import Dataset

    out = Outcome()
    tr = ctx.tracer
    pts = points()
    table = oracle.kth_table(Dataset(pts, "l2"), KMAX)
    r0 = r0_of(table)

    queries = static_queries(ctx.seed, r0, 20_000)
    block = static_block()
    lat, qstats = [], QueryStats()
    setup_s, builds, pairs = [], [], []
    window = Window(ctx.seconds)
    # Each set-up is followed by its share of the query window, so the
    # queries are spread over the whole run: the host's speed drifts over
    # tens of seconds, and a window that spans more of it varies less
    # from run to run.  Queries stop on whole blocks, so every run asks
    # the same mix.
    for i in range(SETUPS):
        with window.pause():
            t0 = time.perf_counter()
            engine = _setup(ctx, pts, i)
            setup_s.append(time.perf_counter() - t0)
            builds.append(engine.build_stats())
            # The dataset's counter holds the parent's pairs and, folded
            # in after the build, the build workers'.
            pairs.append(engine.dataset.counter.pairs)
        share = (i + 1) / SETUPS
        while len(lat) % block or window.open(len(lat), share):
            r, k = queries[len(lat)]
            req = f"q-{len(lat)}"
            t0 = time.perf_counter()
            engine.reset_cache()
            t1 = time.perf_counter()
            res = engine.query(r, k)
            t2 = time.perf_counter()
            lat.append(t2 - t1)
            tr.record("engine.reset_cache", t0, t1, req)
            tr.record("engine.query", t1, t2, req, splits=qstats.add(res),
                      counts=dict(res.counts))
            with window.pause():
                out.check(oracle.matches(table, r, k, res.outliers),
                          f"query r={r:.6g} k={k}: answer differs from oracle")
        engine.close()

    nq = len(lat)
    out.e2e = {
        "setup_s": statistics.median(setup_s),
        **latency_summary(lat, "query"),
        "queries_per_s": nq / sum(lat),
        "peak_rss_mb": peak_rss_mb([os.getpid()]),
    }
    build = {
        "graphs.build_s": statistics.median(b["build_seconds"] for b in builds),
        "graphs.build_pairs": statistics.median(pairs),
    }
    for phase, name in BUILD_PHASES.items():
        build[f"{name}_s"] = statistics.median(
            b["phase_seconds"][phase] for b in builds)
    # Set-up outside the reported build phases: build pool start, graph
    # assembly and engine construction.
    own = self_times(tr.spans)
    inits = [own[s.sid] for s in tr.spans if s.name == "setup"]
    out.layers = {
        **build,
        "engine.init_s": statistics.median(inits) if inits else 0.0,
        **qstats.layers(),
    }
    out.report = {"r0": r0, "setup_runs_s": setup_s,
                  "query": samples_note(lat)}
    return out
