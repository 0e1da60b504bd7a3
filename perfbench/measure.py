"""Percentiles, process memory, leftovers and the environment block."""

from __future__ import annotations

import math
import os
import platform
import subprocess
import sys

#: A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10
#: The tail percentile every workload reports (see README.md).
TAIL = 90
#: Candidate percentiles for the report's "highest supported tail".
TAILS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
BLAS_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` samples."""
    # Rounding first keeps 99.9 * 1000 / 100 from ceiling to 1000.
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile: a value that was actually measured."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(len(ordered), p) - 1]


def beyond(n: int, p: float) -> int:
    """Samples strictly above the nearest-rank ``p``-th percentile's rank."""
    return n - _rank(n, p) if n else 0


def min_samples(p: float) -> int:
    """Fewest samples for which percentile ``p`` has MIN_BEYOND beyond it."""
    n = 1
    while beyond(n, p) < MIN_BEYOND:
        n += 1
    return n


def tail_percentile(n: int) -> "float | None":
    """Highest percentile in TAILS with MIN_BEYOND samples beyond it."""
    for p in TAILS:
        if beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def peak_rss_mb(pids) -> float:
    """Sum of the peak resident sets (VmHWM) of ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


def _stat(pid: int) -> "tuple[int, str] | None":
    """(parent pid, state) of a process, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            text = fh.read()
    except (FileNotFoundError, ProcessLookupError):
        return None
    fields = text[text.rindex(")") + 2:].split()
    return int(fields[1]), fields[0]


def alive(pid: int) -> bool:
    """True while ``pid`` runs (a zombie has ended and counts as gone)."""
    st = _stat(pid)
    return st is not None and st[1] != "Z"


def descendants(pid: int) -> list[int]:
    """Living processes below ``pid`` in the process tree."""
    parent_of = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            st = _stat(int(entry))
            if st is not None and st[1] != "Z":
                parent_of[int(entry)] = st[0]
    found, frontier = [], [pid]
    while frontier:
        parent = frontier.pop()
        kids = [c for c, p in parent_of.items() if p == parent]
        found.extend(kids)
        frontier.extend(kids)
    return found


SHM_PREFIX = "repro_shm_"


def shm_segments() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith(SHM_PREFIX)}
    except FileNotFoundError:
        return set()


def still_running(pids) -> list[str]:
    return [f"process {p} still running" for p in pids if alive(p)]


def leftovers(shm_before: set[str]) -> list[str]:
    """Child processes or shared-memory segments a workload left behind."""
    found = still_running(descendants(os.getpid()))
    found += [f"/dev/shm/{n} left behind"
              for n in sorted(shm_segments() - shm_before)]
    return found


def environment(root: str, workload: str, seed: int, seconds: float,
                trace: int) -> dict:
    """Where and how a run happened; recorded, never changed."""
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unavailable (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        commit = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or commit
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "git_commit": commit,
    }
