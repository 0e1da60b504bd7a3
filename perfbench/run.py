"""Run one benchmark workload and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload detect-static --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from a traced run.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Everything
before it is a human-readable report.  The exit code is 0 only when
every answer matched the oracle and nothing was left running.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# name -> (unit, better); every workload reports every one.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "query_p50_ms": ("ms", "lower"),
    "query_p90_ms": ("ms", "lower"),
    "queries_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
}
# Per-layer metrics of the traced run; 0 where a workload does not
# exercise the layer.  Per-operation values are means over the run.
PER_LAYER = {
    "graphs.build_s": ("s", "lower"),
    "graphs.build_pairs": ("count", "lower"),
    "graphs.nndescent_s": ("s", "lower"),
    "graphs.connect_s": ("s", "lower"),
    "graphs.detours_s": ("s", "lower"),
    "graphs.prune_s": ("s", "lower"),
    "graphs.shard_build_s": ("s", "lower"),
    "engine.init_s": ("s", "lower"),
    "core.filter_s": ("s", "lower"),
    "core.filter_pairs": ("count", "lower"),
    "core.direct_outliers": ("count", "higher"),
    "core.candidates": ("count", "lower"),
    "core.false_positive_frac": ("ratio", "lower"),
    "core.verify_s": ("s", "lower"),
    "core.verify_pairs": ("count", "lower"),
    "engine.sharded.verify_s": ("s", "lower"),
    "engine.sharded.verify_descent_pairs": ("count", "lower"),
    "engine.sharded.verify_index_pairs": ("count", "lower"),
    "engine.sharded.verify_sweep_pairs": ("count", "lower"),
    "engine.cache_s": ("s", "lower"),
    "engine.cache_decided_frac": ("ratio", "higher"),
    "engine.mutable.compact_s": ("s", "lower"),
    "engine.mutable.insert_s": ("s", "lower"),
    "engine.mutable.remove_s": ("s", "lower"),
    "engine.mutable.insert_p50_ms": ("ms", "lower"),
    "engine.mutable.insert_p90_ms": ("ms", "lower"),
    "engine.mutable.remove_p50_ms": ("ms", "lower"),
    "engine.mutable.remove_p90_ms": ("ms", "lower"),
    "io.save_s": ("s", "lower"),
    "io.load_s": ("s", "lower"),
    "io.snapshot_bytes": ("bytes", "lower"),
    "io.snapshot_p50_ms": ("ms", "lower"),
    "io.restart_p50_ms": ("ms", "lower"),
    "serving.overhead_ms": ("ms", "lower"),
    "serving.batches": ("count", "lower"),
    "serving.mean_batch": ("count", "higher"),
    "serving.coalesced": ("count", "higher"),
    "serving.rejected": ("count", "lower"),
    "serving.deadline_expired": ("count", "lower"),
    "serving.max_rps": ("1/s", "higher"),
    "serving.at50rps_p50_ms": ("ms", "lower"),
    "serving.at50rps_p90_ms": ("ms", "lower"),
    "loadgen.late_ms": ("ms", "lower"),
    "kernels.pairs_per_s": ("1/s", "higher"),
}
WORKLOADS = ("detect-static", "stream-churn", "serve-sharded")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _workload(name: str):
    from . import churn, serve, static

    return {"detect-static": static, "stream-churn": churn,
            "serve-sharded": serve}[name]


def _print_metrics(title: str, values: dict, spec: dict) -> None:
    print(f"== {title}")
    for name, (unit, better) in spec.items():
        print(f"  {name:40s} {values[name]:>16.6g} {unit:6s} ({better} is better)")


def _print_trace(tracer) -> list[str]:
    """Per-layer self-time table; returns span nesting violations."""
    from .trace import layer_table, nesting_errors

    print("== spans and reported splits: calls, total s, self s")
    for name, calls, total, own in layer_table(tracer.spans):
        print(f"  {name:40s} {calls:8d} {total:12.4f} {own:12.4f}")
    return nesting_errors(tracer.spans)


def _print_overhead(out_dir: str, args, e2e: dict, tracer) -> None:
    """The tracer's own cost, and traced minus untraced end-to-end values
    at the same seed."""
    print(f"== tracing overhead: {tracer.cost:.6f} s of bookkeeping over "
          f"{len(tracer.spans)} spans; traced minus untraced, same seed:")
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace0.json")
    if not os.path.exists(path):
        print(f"  n/a: run --trace 0 --seed {args.seed} first")
        return
    with open(path) as fh:
        plain = json.load(fh)["end_to_end"]
    for name, (unit, _) in END_TO_END.items():
        print(f"  {name:40s} {e2e[name] - plain[name]:>+16.6g} {unit}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no source tree at {os.path.join(ROOT, 'src')}; "
              f"run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from .common import Context
    from .measure import environment, leftovers, nproc, shm_segments
    from .trace import Tracer

    work = os.path.join(ROOT, ".perfbench_tmp", f"{args.workload}-{os.getpid()}")
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(work, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    os.environ["TMPDIR"] = work
    tempfile.tempdir = work

    module = _workload(args.workload)
    env = environment(ROOT, args.workload, args.seed, args.seconds, args.trace)
    env.update(getattr(module, "environment", dict)())
    print("environment " + json.dumps(env))
    tracer = Tracer(bool(args.trace))
    ctx = Context(ROOT, work, args.seed, args.seconds, tracer, nproc())
    shm_before = shm_segments()
    try:
        out = module.run(ctx)
    except Exception:  # noqa: BLE001 - report and fail the run, print no result
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out.problems += leftovers(shm_before)
    layers = {name: float(out.layers.get(name, 0.0)) for name in PER_LAYER}

    print("== report " + json.dumps(out.report, default=float))
    _print_metrics("end-to-end" + (" (traced)" if args.trace else ""),
                   out.e2e, END_TO_END)
    if args.trace:
        _print_metrics("per-layer", layers, PER_LAYER)
        out.problems += _print_trace(tracer)
        _print_overhead(out_dir, args, out.e2e, tracer)
    for problem in out.problems:
        print(f"PROBLEM: {problem}")

    with open(os.path.join(
            out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
            "w") as fh:
        json.dump({"environment": env, "end_to_end": out.e2e,
                   "per_layer": layers, "report": out.report,
                   "problems": out.problems, "spans": tracer.to_json()},
                  fh, default=float)

    correct = out.failed == 0 and not out.problems
    chosen = layers if args.trace else out.e2e
    spec = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, out.attempted),
        "failed": out.failed,
        "metrics": {name: {"value": chosen[name], "unit": unit}
                    for name, (unit, _) in spec.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.path.insert(0, ROOT)
    from perfbench.run import main as _main

    sys.exit(_main())
