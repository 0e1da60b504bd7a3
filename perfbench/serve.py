"""serve-sharded: users querying the HTTP serving tier over a sharded engine.

Open loop.  The server runs as its own process (``repro-dod serve`` with
two shards on two worker processes); one load generator with one
keep-alive connection per thread sends Poisson arrivals at ascending
fixed rates.  Latency is timed from each request's due time, so a stall
also charges the requests queued behind it.
"""

from __future__ import annotations

import http.client
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

from . import oracle
from .common import (KMAX, MIN_SAMPLES, SETUPS, Context, Outcome,
                     latency_summary, points, r0_of, samples_note)
from .measure import (TAIL, alive, descendants, peak_rss_mb, percentile,
                      still_running)
from .schedules import serve_step, serve_warmup

RATES = (25, 50, 100, 200)     # requests per second, ascending
PHASES = ("unloaded", *RATES, "saturation")
CLOSED = ("unloaded", "saturation")
PER_RATE = 100                 # requests per rate: p90 has 10 samples beyond
REFERENCE_RATE = 50            # open-loop latency reported per layer
LIMIT_MS = 200.0               # a rate passes if its p90 stays within this
GEN_LATE_LIMIT_MS = 10.0       # generator's own lateness (p90) that voids a run
SERVER_ARGS = ("--shards", "2", "--workers", "2", "--build-workers", "2")
START_TIMEOUT = 120.0


@dataclass
class Sent:
    due: float
    picked: float      # when a connection became free for this request
    sent: float
    done: float
    r: float
    k: int
    body: "dict | None"
    error: "str | None"


class Server:
    """One ``repro-dod serve`` process; ``stop`` leaves nothing behind."""

    def __init__(self, ctx: Context, data_path: str, tag: str):
        self.log_path = os.path.join(ctx.work, f"server-{tag}.log")
        # Unbuffered, so the "listening on" line reaches the log at once.
        env = dict(os.environ, PYTHONPATH=os.path.join(ctx.root, "src"),
                   TMPDIR=ctx.work, PYTHONUNBUFFERED="1")
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--input", data_path,
             *SERVER_ARGS, "--port", "0", "--serve-seconds", "900"],
            stdout=self._log, stderr=subprocess.STDOUT, env=env,
            cwd=ctx.root,
        )
        self.port = None

    def wait_ready(self) -> int:
        from repro.serving import ServingClient

        deadline = time.monotonic() + START_TIMEOUT
        while self.port is None:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"server failed to start:\n{self._tail()}")
            with open(self.log_path) as fh:
                found = re.search(r"listening on http://[^:]+:(\d+)", fh.read())
            if found:
                self.port = int(found.group(1))
            else:
                time.sleep(0.01)
        with ServingClient("127.0.0.1", self.port) as client:
            client.health()
        return self.port

    def pids(self) -> list[int]:
        return [self.proc.pid, *descendants(self.proc.pid)]

    def stop(self) -> list[str]:
        """Interrupt the server, wait for it and its workers to end."""
        pids = self.pids() if self.proc.poll() is None else [self.proc.pid]
        problems = []
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                problems.append("server ignored SIGINT for 60 s; killed")
                for pid in pids:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                self.proc.wait(timeout=30)
        self._log.close()
        deadline = time.monotonic() + 10
        while any(p != self.proc.pid and alive(p) for p in pids) \
                and time.monotonic() < deadline:
            time.sleep(0.05)
        return problems

    def _tail(self) -> str:
        with open(self.log_path) as fh:
            return fh.read()[-2000:]


def cpu_split() -> "tuple[list[int], list[int]]":
    """(server CPUs, load-generator CPUs) for the measured phases.

    The load generator gets one CPU of its own only when at least two
    remain for the server, so its two shard workers can run in parallel;
    on smaller hosts every process may use every CPU.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 3:
        return cpus, cpus
    return cpus[:-1], cpus[-1:]


def environment() -> dict:
    """The CPU placement, for the run's environment block."""
    server_cpus, gen_cpus = cpu_split()
    return {"cpu_split": {
        "server": server_cpus,
        "shard_workers": "one per server CPU, round-robin",
        "load_generator": gen_cpus,
    }}


def _place(server_pids: list[int]) -> set[int]:
    """Pin the processes as ``cpu_split`` says; returns this process's
    CPUs, to restore.

    Each shard worker is pinned to one server CPU, so two are never left
    on one CPU while another idles: with the scheduler free to place
    them, saturation throughput moved by a third between identical runs.
    """
    server_cpus, gen_cpus = cpu_split()
    own = os.sched_getaffinity(0)
    main, *workers = server_pids
    for tid in os.listdir(f"/proc/{main}/task"):
        os.sched_setaffinity(int(tid), server_cpus)
    for j, pid in enumerate(sorted(workers)):
        for tid in os.listdir(f"/proc/{pid}/task"):
            os.sched_setaffinity(int(tid), [server_cpus[j % len(server_cpus)]])
    os.sched_setaffinity(0, gen_cpus)
    return own


def run_step(ports: list[int], plan, tracer, step,
             closed: bool = False) -> list[Sent]:
    """Send ``plan``, one thread and connection per port entry.

    Open loop: each request waits for its due time.  ``closed``: all are
    due at once and each connection sends as soon as its last returned,
    so time from due is not a latency and is not traced.
    """
    from repro.serving import ServingClient
    from repro.serving.client import ServingClientError

    sent: list = [None] * len(plan)
    cursor = iter(range(len(plan)))
    lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def worker(client):
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            offset, r, k = plan[i]
            due = start + offset
            picked = time.perf_counter()
            if due > picked:
                time.sleep(due - picked)
            t_send = time.perf_counter()
            body = error = None
            try:
                body = client.query(r, k)
            except ServingClientError as exc:
                error = f"HTTP {exc.status} {exc.kind}"
            except (OSError, http.client.HTTPException, ValueError) as exc:
                error = repr(exc)
            sent[i] = Sent(due, picked, t_send, time.perf_counter(), r, k,
                           body, error)

    clients = [ServingClient("127.0.0.1", p) for p in ports]
    threads = [threading.Thread(target=worker, args=(c,)) for c in clients]
    try:
        for t in threads:
            t.start()
        limit = time.monotonic() + (plan[-1][0] if plan else 0) + 300
        for t in threads:
            t.join(timeout=max(0.0, limit - time.monotonic()))
        if any(t.is_alive() for t in threads):
            raise RuntimeError(f"load generator stuck at step {step}")
    finally:
        for c in clients:
            c.close()
    if tracer.enabled:
        for i, s in enumerate(sent):
            req = f"{step}-{i}"
            begin = s.sent if closed else min(s.due, s.sent)
            root = tracer.record("serving.request", begin, s.done, req)
            if s.sent > begin:
                tracer.record("loadgen.wait", s.due, s.sent, req, parent=root)
            engine_s = {"engine.sharded.query": s.body["seconds"]} if s.body \
                else {}
            tracer.record("serving.http", s.sent, s.done, req, parent=root,
                          splits=engine_s)
    return sent


def summarise(sent: list[Sent], rate: "float | None", conns: int) -> dict:
    """Offered vs achieved rate, latency from due time, lateness, backlog."""
    ok = [s for s in sent if s.error is None]
    start = min(s.due for s in sent)
    end_of_schedule = max(s.due for s in sent)
    lat_ms = [1e3 * (s.done - s.due) for s in ok]
    gen_late_ms = [1e3 * (s.sent - max(s.due, s.picked)) for s in sent]
    backlog = sum(1 for s in sent if s.due <= end_of_schedule < s.done)
    span = end_of_schedule - start
    row = {
        "rate": rate,
        "requests": len(sent),
        "failed": len(sent) - len(ok),
        "offered_rps": (len(sent) - 1) / span if span > 0 else None,
        "achieved_rps": len(ok) / (max(s.done for s in sent) - start),
        "p50_ms": percentile(lat_ms, 50) if ok else float("inf"),
        f"p{TAIL}_ms": percentile(lat_ms, TAIL) if ok else float("inf"),
        "late_p90_ms": percentile([1e3 * (s.sent - s.due) for s in sent], 90),
        "gen_late_p90_ms": percentile(gen_late_ms, 90),
        "backlog_at_end": backlog,
    }
    row["meets_limit"] = (row["failed"] == 0
                          and row[f"p{TAIL}_ms"] <= LIMIT_MS
                          and backlog <= conns)
    return row


def _delta(after: dict, before: dict, *path) -> float:
    """Change of one ``/stats`` counter over the measured phases."""
    for key in path:
        after, before = after[key], before[key]
    return after - before


def run(ctx: Context) -> Outcome:
    from repro import Dataset
    from repro.serving import ServingClient

    out = Outcome()
    tr = ctx.tracer
    pts = points()
    table = oracle.kth_table(Dataset(pts, "l2"), KMAX)
    r0 = r0_of(table)
    data_path = os.path.join(ctx.work, "serve-points.npy")
    np.save(data_path, pts)
    conns = ctx.nproc
    # The closed loops carry the end-to-end metrics, so they get the
    # samples: about --seconds between them (a request takes 4-7 ms
    # alone, 3-7 ms apiece at saturation).  Saturation throughput over
    # 300 requests varied by a third between identical runs; over 900,
    # by a tenth.
    per_phase = dict.fromkeys(RATES, PER_RATE)
    per_phase["unloaded"] = max(round(60 * ctx.seconds),
                                len(RATES) * MIN_SAMPLES)
    per_phase["saturation"] = round(90 * ctx.seconds)

    setup_s, shard_build, server, own_cpus = [], [], None, None
    ladder = []
    try:
        for i in range(SETUPS):
            if server is not None:
                pids = server.pids()
                out.problems += server.stop() + still_running(pids)
            t0 = time.perf_counter()
            server = Server(ctx, data_path, str(i))
            port = server.wait_ready()
            t1 = time.perf_counter()
            setup_s.append(t1 - t0)
            with ServingClient("127.0.0.1", port) as client:
                build = client.stats().get("build", {})
            # Shards build in parallel: the slowest one is on set-up's path.
            shard_build.append(max(b["build_seconds"]
                                   for b in build["per_shard"]))
            tr.record("serving.start", t0, t1, f"setup-{i}",
                      splits={"graphs.shard_build": shard_build[-1]})

        with ServingClient("127.0.0.1", port) as client:
            for r, k in serve_warmup(ctx.seed, r0):
                body = client.query(r, k)
                out.check(oracle.matches(table, r, k, body["outliers"]),
                          f"warm-up r={r:.6g} k={k}: differs from oracle")
            before = client.stats()

        own_cpus = _place(server.pids())
        plans = {phase: serve_step(ctx.seed, step, r0,
                                   1.0 if phase in CLOSED else phase,
                                   per_phase[phase])
                 for step, phase in enumerate(PHASES)}
        sents = {phase: [] for phase in PHASES}
        alone_rounds, saturation_rounds = [], []
        for j, rate in enumerate(RATES):
            # Round j: a slice of each closed loop around ladder step j, so
            # the closed loops span the whole measured stretch and not a
            # few seconds of the host's drifting speed.
            for phase in ("unloaded", rate, "saturation"):
                closed = phase in CLOSED
                plan = plans[phase]
                if closed:
                    # Every request due at once: each connection sends its
                    # next as soon as one returns.  One connection gives the
                    # latency of a user alone; all of them, the capacity.
                    n = len(plan)
                    plan = [(0.0, r, k) for _, r, k in
                            plan[j * n // len(RATES):(j + 1) * n // len(RATES)]]
                ports = [port] * (1 if phase == "unloaded" else conns)
                sent = run_step(ports, plan, tr, f"{phase}.{j}", closed)
                for s in sent:
                    out.check(s.error is None and oracle.matches(
                        table, s.r, s.k, s.body["outliers"]),
                        f"{phase} r={s.r:.6g} k={s.k}: "
                        + (s.error or "differs from oracle"))
                row = summarise(sent, None if closed else phase, conns)
                if row["gen_late_p90_ms"] > GEN_LATE_LIMIT_MS:
                    out.problems.append(
                        f"load generator ran {row['gen_late_p90_ms']:.1f} ms "
                        f"late (p90) at {phase}: the generator, not the "
                        f"server, limited this step")
                sents[phase] += sent
                if phase == "unloaded":
                    alone_rounds.append(
                        latency_summary([x.done - x.sent for x in sent],
                                        "query"))
                elif closed:
                    saturation_rounds.append(row["achieved_rps"])
                else:
                    ladder.append(row)

        with ServingClient("127.0.0.1", port) as client:
            after = client.stats()
        rss = peak_rss_mb(server.pids())
    finally:
        if own_cpus is not None:
            os.sched_setaffinity(0, own_cpus)
        if server is not None:
            pids = server.pids() if server.proc.poll() is None else []
            out.problems += server.stop() + still_running(pids)

    alone = [s.done - s.sent for s in sents["unloaded"]]
    loaded = [s.done - s.due for s in sents[REFERENCE_RATE]]
    passing = [row["rate"] for row in ladder if row["meets_limit"]]
    # Medians over the rounds: a slow stretch of the host that covers one
    # round does not move them.
    out.e2e = {
        "setup_s": statistics.median(setup_s),
        **{name: statistics.median(r[name] for r in alone_rounds)
           for name in alone_rounds[0]},
        "queries_per_s": statistics.median(saturation_rounds),
        "peak_rss_mb": rss,
    }

    dq = max(1, _delta(after, before, "engine", "queries"))

    def secs(phase):
        return _delta(after, before, "phases", "seconds", phase)

    def pairs(phase):
        return _delta(after, before, "phases", "pairs", phase)

    batches = _delta(after, before, "serving", "batches")
    work_s = secs("filter") + secs("verify")
    all_sent = [s for sent in sents.values() for s in sent]
    out.layers = {
        "graphs.shard_build_s": statistics.median(shard_build),
        "core.filter_s": secs("filter") / dq,
        "core.filter_pairs": pairs("filter") / dq,
        "core.candidates": _delta(after, before, "engine", "verified") / dq,
        "core.verify_s": secs("verify") / dq,
        "core.verify_pairs": pairs("verify") / dq,
        "engine.sharded.verify_s": secs("verify") / dq,
        "engine.sharded.verify_descent_pairs": pairs("verify_descent") / dq,
        "engine.sharded.verify_index_pairs": pairs("verify_index") / dq,
        "engine.sharded.verify_sweep_pairs": pairs("verify_sweep") / dq,
        "engine.cache_s": secs("cache") / dq,
        "engine.cache_decided_frac":
            _delta(after, before, "engine", "cache_decided")
            / (dq * after["n_live"]),
        "kernels.pairs_per_s": (pairs("filter") + pairs("verify")) / work_s
        if work_s else 0.0,
        "serving.overhead_ms": percentile(
            [1e3 * (s.done - s.sent - s.body["seconds"])
             for s in all_sent if s.body], 50),
        "serving.batches": batches,
        "serving.mean_batch":
            _delta(after, before, "serving", "answered") / max(1, batches),
        "serving.coalesced": _delta(after, before, "serving", "coalesced"),
        "serving.rejected": _delta(after, before, "serving", "rejected"),
        "serving.deadline_expired":
            _delta(after, before, "serving", "deadline_expired"),
        "serving.max_rps": float(max(passing, default=0)),
        **latency_summary(loaded, f"serving.at{REFERENCE_RATE}rps"),
        "loadgen.late_ms": max(row["gen_late_p90_ms"] for row in ladder),
    }
    out.report = {"r0": r0, "connections": conns, "requests": per_phase,
                  "setup_runs_s": setup_s, "ladder": ladder,
                  "saturation_rps": saturation_rounds,
                  "unloaded_rounds": alone_rounds,
                  "unloaded": samples_note(alone),
                  f"at_{REFERENCE_RATE}_rps": samples_note(loaded)}
    return out
