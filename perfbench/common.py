"""What every workload shares: inputs, the run context and the outcome."""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .measure import TAIL, min_samples, percentile, tail_percentile
from .trace import Tracer

N = 4000                 # objects per workload (~0.5 MB of float64 points)
DIM = 16
CLUSTERS = 8
PLANTED = 0.004
DATA_SEED = 0
KMAX = 40                # largest k any workload asks
R0_K = 20                # r0 = 99th percentile of the 20th-neighbour distance
SETUPS = 3               # set-ups per run; setup_s is their median
#: Closed loops keep going past --seconds until the tail has its samples.
MIN_SAMPLES = min_samples(TAIL)


@dataclass
class Context:
    root: str
    work: str            # scratch directory inside the checkout
    seed: int
    seconds: float
    tracer: Tracer
    nproc: int


@dataclass
class Outcome:
    e2e: dict = field(default_factory=dict)       # end-to-end metric -> value
    layers: dict = field(default_factory=dict)    # per-layer metric -> value
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)  # why the run is not correct
    report: dict = field(default_factory=dict)    # printed, not gated

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation; a failure is remembered by name."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


def points(n: int = N) -> np.ndarray:
    """The workloads' points: one fixed dataset, like the paper's.

    ``--seed`` drives the order and mix of operations, not the data:
    with the data seeded too, serve-sharded's capacity moved by a
    quarter between datasets, more than any bound the benchmark can fix.
    """
    from repro.datasets.synthetic import blobs_with_outliers

    return blobs_with_outliers(n, DIM, n_clusters=CLUSTERS,
                               planted_frac=PLANTED, rng=DATA_SEED)


def r0_of(table: np.ndarray) -> float:
    return float(np.percentile(table[:, R0_K - 1], 99))


def latency_summary(seconds_list, prefix: str) -> dict:
    """``<prefix>_p50_ms`` and the tail percentile, in milliseconds."""
    ms = [1e3 * s for s in seconds_list]
    return {f"{prefix}_p50_ms": percentile(ms, 50),
            f"{prefix}_p{TAIL}_ms": percentile(ms, TAIL)}


def samples_note(seconds_list) -> dict:
    """Sample count and the highest percentile with ten samples beyond it."""
    n = len(seconds_list)
    p = tail_percentile(n)
    return {"samples": n, "highest_tail": p,
            "highest_tail_ms": None if p is None
            else 1e3 * percentile(seconds_list, p)}


class Window:
    """The measured stretch of a closed loop: ``seconds`` of operations,
    extended until MIN_SAMPLES are in (capped at three times the time).

    Oracle checks run with the clock paused (``pause``), so the window
    counts the program's time, not the benchmark's.
    """

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = time.perf_counter()
        self.paused = 0.0

    def elapsed(self) -> float:
        return time.perf_counter() - self.start - self.paused

    def open(self, samples: int, share: float = 1.0) -> bool:
        """True while the first ``share`` of the window runs; the whole
        window (``share`` 1) also stays open for MIN_SAMPLES."""
        t = self.elapsed()
        if t < share * self.seconds:
            return True
        return (share >= 1.0 and samples < MIN_SAMPLES
                and t < 3 * self.seconds)

    @contextmanager
    def pause(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.paused += time.perf_counter() - t0


def phase_splits(res) -> dict:
    """A result's reported phase seconds, named by the layer that ran them."""
    return {"engine.cache": res.phases["cache"],
            "core.filter": res.phases["filter"],
            "core.verify": res.phases["verify"]}


class QueryStats:
    """Per-query means of the splits a ``DODResult`` reports."""

    KEYS = ("cache_s", "filter_s", "verify_s", "filter_pairs",
            "verify_pairs", "candidates", "direct", "false_pos")

    def __init__(self):
        self.n = 0
        self.sums = dict.fromkeys(self.KEYS, 0)

    def add(self, res) -> dict:
        """Fold one result in; returns its splits for the query's span."""
        ph, pp, c = res.phases, res.phase_pairs, res.counts
        for key, val in zip(self.KEYS, (
            ph["cache"], ph["filter"], ph["verify"], pp.get("filter", 0),
            pp.get("verify", 0), c.get("candidates", 0),
            c.get("direct_outliers", 0), c.get("false_positives", 0),
        )):
            self.sums[key] += val
        self.n += 1
        return phase_splits(res)

    def layers(self) -> dict:
        s, n = self.sums, max(1, self.n)
        work_s = s["filter_s"] + s["verify_s"]
        return {
            "core.filter_s": s["filter_s"] / n,
            "core.filter_pairs": s["filter_pairs"] / n,
            "core.direct_outliers": s["direct"] / n,
            "core.candidates": s["candidates"] / n,
            "core.false_positive_frac": s["false_pos"] / max(1, s["candidates"]),
            "core.verify_s": s["verify_s"] / n,
            "core.verify_pairs": s["verify_pairs"] / n,
            "engine.cache_s": s["cache_s"] / n,
            "kernels.pairs_per_s": (s["filter_pairs"] + s["verify_pairs"])
            / work_s if work_s else 0.0,
        }
