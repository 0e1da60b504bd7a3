"""Tests of the benchmark's own arithmetic, oracle and schedules.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import oracle, schedules  # noqa: E402
from perfbench.measure import (TAIL, beyond, min_samples,  # noqa: E402
                               percentile, tail_percentile)
from perfbench.run import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from perfbench.trace import (Span, Tracer, covered, layer_table,  # noqa: E402
                             nesting_errors, self_times)


# -- percentile selection ------------------------------------------------------

def test_nearest_rank_percentile_returns_a_measured_sample():
    samples = list(range(100, 0, -1))          # 1..100, unsorted
    assert percentile(samples, 50) == 50
    assert percentile(samples, 90) == 90
    assert percentile(samples, 100) == 100
    assert percentile([7.0], 99.9) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_samples_beyond_and_minimum_counts():
    assert beyond(100, 90) == 10
    assert beyond(99, 90) == 9
    assert beyond(1000, 99.9) == 1              # no float rounding up to 1000
    assert min_samples(90) == 100
    assert min_samples(95) == 200
    assert min_samples(50) == 20


@pytest.mark.parametrize("n, expected", [
    (10, None), (19, None), (20, 50.0), (99, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (1000, 99.0), (10_000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert beyond(n, expected) >= 10


# -- the oracle ----------------------------------------------------------------

def test_oracle_on_a_hand_checked_line():
    from repro import Dataset

    # Points 0, 1, 3, 10 on a line.  Sorted other-neighbour distances:
    # 0: 1 3 10 | 1: 1 2 9 | 3: 2 3 7 | 10: 7 9 10
    ds = Dataset(np.array([[0.0], [1.0], [3.0], [10.0]]), "l2")
    table = oracle.kth_table(ds, 2)
    assert table.tolist() == [[1, 3], [1, 2], [2, 3], [7, 9]]
    assert oracle.outliers(table, 2.5, 2).tolist() == [0, 2, 3]
    assert oracle.outliers(table, 1.0, 1).tolist() == [2, 3]
    # A distance equal to r is within r: object 1 has 2 neighbours at r=2.
    assert oracle.outliers(table, 2.0, 2).tolist() == [0, 2, 3]
    assert oracle.matches(table, 2.5, 2, [3, 0, 2])
    assert not oracle.matches(table, 2.5, 2, [0, 2])
    # Rows mapped to the ids a mutable engine answers with.
    assert oracle.matches(table, 2.5, 2, [30, 10, 12], ids=[10, 11, 12, 30])
    with pytest.raises(ValueError):
        oracle.kth_table(ds, 4)


# -- seed determinism of every schedule -----------------------------------------

SCHEDULES = {
    "static": lambda seed: schedules.static_queries(seed, 10.0, 200),
    "churn": lambda seed: schedules.churn_queries(seed, 10.0, 200),
    "serve": lambda seed: schedules.serve_step(seed, 1, 10.0, 50.0, 200),
}


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_schedules_repeat_for_a_seed_and_differ_across_seeds(name):
    make = SCHEDULES[name]
    assert make(3) == make(3)
    assert make(3) != make(4)


def test_warmup_and_step_inputs_are_fixed_by_the_seed():
    assert schedules.serve_warmup(3, 10.0) == schedules.serve_warmup(3, 10.0)
    assert schedules.serve_warmup(3, 10.0) != schedules.serve_warmup(4, 10.0)
    assert len(schedules.serve_warmup(3, 10.0)) == (
        len(schedules.SERVE_GRID) * len(schedules.SERVE_KS)
        + schedules.SERVE_WARM_CONTINUOUS)
    assert (schedules.serve_step(3, 0, 10.0, 25.0, 50)
            != schedules.serve_step(3, 1, 10.0, 25.0, 50))


def test_points_are_fixed_and_churn_order_follows_the_seed():
    from perfbench.churn import arrivals
    from perfbench.common import points

    assert np.array_equal(points(200), points(200))
    assert np.array_equal(arrivals(5), arrivals(5))
    assert not np.array_equal(arrivals(5), arrivals(6))


def test_static_blocks_hold_the_k_shares_with_stratified_radii():
    lo, hi = schedules.STATIC_R_RANGE
    block = schedules.static_block()
    qs = schedules.static_queries(9, 1.0, 3 * block)
    for b in range(3):
        part = qs[b * block:(b + 1) * block]
        for k, m in zip(schedules.STATIC_KS, schedules.STATIC_PER_K):
            parts = sorted(int((r - lo) / (hi - lo) * m)
                           for r, kk in part if kk == k)
            assert parts == list(range(m))


def test_static_percentiles_fall_inside_one_k():
    """p50 and p90 of a whole number of blocks, ranked by k (cost grows
    with k), land strictly inside one k's queries, never on a step."""
    qs = schedules.static_queries(2, 1.0, 10 * schedules.static_block())
    ks = sorted(k for _, k in qs)
    for p in (50, TAIL):
        rank = math.ceil(p * len(ks) / 100) - 1
        assert ks[rank - 2] == ks[rank] == ks[rank + 2]


def test_window_shares_and_the_sample_floor():
    from perfbench.common import MIN_SAMPLES, Window

    w = Window(10.0)
    w.start -= 4.0
    assert not w.open(0, share=1 / 3)
    assert w.open(0, share=0.5) and w.open(0)
    w.start -= 7.0
    assert w.open(0) and not w.open(MIN_SAMPLES)
    assert not w.open(0, share=0.9)


def test_churn_blocks_hold_the_same_mix():
    pinned, off = schedules.CHURN_BLOCK
    block = pinned + off
    qs = schedules.churn_queries(6, 10.0, 2 * block)
    for b in range(2):
        part = qs[b * block:(b + 1) * block]
        for k in schedules.CHURN_KS:
            on = [r for r, kk in part if kk == k and r == 10.0]
            away = [r for r, kk in part if kk == k and r != 10.0]
            assert len(on) == pinned // len(schedules.CHURN_KS)
            assert len(away) == off // len(schedules.CHURN_KS)


def test_serve_grid_mix_is_the_same_on_every_seed():
    grid = set(schedules.serve_grid(10.0))

    def grid_counts(seed, step):
        plan = schedules.serve_step(seed, step, 10.0, 50.0, 100)
        return sorted((r, sum(1 for _, q, _ in plan if q == r))
                      for r in grid)

    assert grid_counts(1, 0) == grid_counts(2, 0) == grid_counts(1, 3)
    plan = schedules.serve_step(4, 2, 10.0, 50.0, 300)
    for r in grid:
        ks = [k for _, q, k in plan if q == r]
        shares = [ks.count(k) for k in schedules.SERVE_KS]
        assert max(shares) - min(shares) <= 1
    rank = schedules.popularity_rank()
    assert sorted(rank) == list(range(len(schedules.SERVE_GRID)))
    assert schedules.SERVE_GRID[int(np.argmin(rank))] == 1.0


def test_serve_step_mix_and_arrivals():
    plan = schedules.serve_step(2, 0, 10.0, 100.0, 200)
    grid = set(schedules.serve_grid(10.0))
    on_grid = sum(1 for _, r, _ in plan if r in grid)
    assert on_grid == round(schedules.SERVE_GRID_SHARE * 200)
    dues = [d for d, _, _ in plan]
    assert dues[0] == 0.0 and dues == sorted(dues)
    assert 1.0 < dues[-1] < 3.0                 # ~200 arrivals at 100/s


# -- self time ---------------------------------------------------------------------

def _span(sid, parent, t0, t1, splits=None, req="a"):
    return Span(sid, parent, req, f"s{sid}", t0, t1, dict(splits or {}))


def test_covered_merges_overlaps():
    assert covered([]) == 0.0
    assert covered([(1, 3), (2, 5), (7, 8)]) == pytest.approx(5.0)
    assert covered([(0, 10), (2, 3)]) == pytest.approx(10.0)


def test_self_time_subtracts_children_and_splits():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 3.0, {"x": 0.5}),
        _span(2, 0, 2.0, 5.0),
        _span(3, 0, 7.0, 8.0),
        _span(4, 2, 2.5, 3.5),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(5.0)          # 10 - |[1,5] u [7,8]|
    assert own[1] == pytest.approx(1.5)          # 2 - reported split 0.5
    assert own[2] == pytest.approx(2.0)
    assert own[4] == pytest.approx(1.0)
    assert nesting_errors(spans) == []
    rows = {name: (calls, total, self_s)
            for name, calls, total, self_s in layer_table(spans)}
    assert rows["x"] == (1, 0.5, 0.5)


def test_nesting_errors_catch_escaping_children_and_overfull_splits():
    spans = [
        _span(0, None, 0.0, 1.0, {"x": 2.0}),
        _span(1, 0, 0.5, 1.5),
        _span(2, 0, 0.2, 0.3, req="b"),
    ]
    errors = nesting_errors(spans)
    assert len(errors) == 3


def test_tracer_nests_blocks_and_is_free_when_off():
    tr = Tracer(True)
    with tr.span("outer", req="r1"):
        with tr.span("inner") as inner:
            inner.splits["work"] = 0.0
    rid = tr.record("late", 5.0, 6.0, "r2")
    tr.record("child", 5.2, 5.4, "r2", parent=rid)
    by_name = {s.name: s for s in tr.spans}
    assert by_name["inner"].parent == by_name["outer"].sid
    assert by_name["inner"].req == "r1"
    assert nesting_errors(tr.spans) == []
    assert 0.0 < tr.cost < 1.0
    off = Tracer(False)
    with off.span("x") as span:
        assert span is None
    assert off.record("y", 0.0, 1.0, "r") is None and off.spans == []


# -- BENCHMARK.json agrees with the code ---------------------------------------------

def test_benchmark_json_lists_what_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == PER_LAYER
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
