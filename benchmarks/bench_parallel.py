"""Multicore x SIMD scaling: the persistent worker pool.

Measures steps/second against the worker count for four sampling
workloads and a plan-search workload, all running the full
vectorized/fused substrate *inside every worker*:

1. **SRS** — one GBM query, paths sharded into fixed-size tasks
   (``SRSSampler(pool=...)``).
2. **Fused fleet** — a per-entity GBM fleet screened through fused
   frontiers, sharded into fixed member slices
   (:func:`repro.core.fleet.screen_fleet`).  This is the acceptance
   workload: target **>= 3x** steps/s at 4 workers over 1.
3. **Fleet curves** — the same fleet, every member answering an
   8-threshold grid through the running-maxima fused pass
   (:func:`repro.core.fleet.screen_fleet_curves`).
4. **Pooled g-MLSS** — root trees of a fixed plan on a skip-free
   birth-death chain, sharded into forest tasks whose per-root
   counters return on each worker's result channel
   (``GMLSSSampler(pool=...)``).
5. **Plan search** — a cold greedy search plus a balanced-growth
   pilot, trials and pilot chunks sharded over the pool
   (``adaptive_greedy_partition(pool=...)``).

Every workload runs on the inline pool (1 worker, the baseline) and on
fork pools of 2 and 4 workers; the per-workload speedup is the
4-worker rate over the 1-worker rate, and all three points feed the
determinism check.  Each pool point (and each plan-search row) runs
``REPEATS`` times with the same seeds, because one ``--quick`` point
lasts a few tenths of a second and its wall clock swings about 2x on a
shared host: rows report the median seconds and steps/s plus the raw
seconds, and the speedups read the medians.

Besides throughput, the machine-independent contracts are *gated* (the
benchmark fails if they break, whatever the host):

* **determinism** — pooled results byte-identical across worker counts,
  pool modes (inline and fork) and repeats (fixed task decomposition,
  task-index-derived seeds);
* **agreement** — pooled estimates inside joint 99.9% CIs of
  single-process (unpooled) runs (a many-comparison workload may miss
  its binomial false-positive budget, a one-comparison workload never:
  :func:`allowed_outside`);
* **plan identity** — pool-sharded plan search returns exactly the
  sequential search's partition and step accounting, on every repeat.

The speedup targets (>= 3x fused-fleet steps/s at 4 workers, pooled
plan search faster than the parent) are evaluated only when the host
actually has >= 4 CPUs (``cpu_count`` is recorded in the payload); on
smaller hosts the scaling numbers are reported as informational, like
every wall-clock figure on shared CI runners.

Run directly (``python benchmarks/bench_parallel.py [--quick]``); CI
uses ``--quick``.  Results land in ``BENCH_parallel.json`` and
``benchmarks/results/parallel.txt``.
"""

import argparse
import json
import math
import os
import statistics
import time
from pathlib import Path

import numpy as np

from bench_common import write_report
from repro.core.balanced import balanced_growth_partition
from repro.core.fleet import screen_fleet, screen_fleet_curves
from repro.core.gmlss import GMLSSSampler
from repro.core.greedy import adaptive_greedy_partition
from repro.core.levels import LevelPartition
from repro.core.pool import WorkerPool
from repro.core.srs import SRSSampler
from repro.core.stats import critical_value
from repro.core.value_functions import DurabilityQuery
from repro.processes import GBMProcess, birth_death_chain, fuse_processes

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_JSON = REPO_ROOT / "BENCH_parallel.json"

WORKER_GRID = (1, 2, 4)
#: (mode, n_workers) measurement points: the inline baseline plus the
#: fork worker grid.
POOL_GRID = (("inline", 1), ("fork", 2), ("fork", 4))
SPEEDUP_TARGET = 3.0
Z999 = critical_value(0.999)
#: Runs per pool point, all with the same seeds.
REPEATS = 3


def speedup_at_4(rows):
    """4-worker steps/s over the 1-worker baseline."""
    base = next(r for r in rows if r["n_workers"] == 1)
    peak = next(r for r in rows if r["n_workers"] == max(WORKER_GRID))
    return round(peak["steps_per_second"] / base["steps_per_second"], 2)


def build_fleet(n_entities, seed=0):
    """Per-entity GBM parameterisations around the paper's regime."""
    rng = np.random.default_rng(seed)
    members, betas = [], []
    for _ in range(n_entities):
        members.append(GBMProcess(start_price=100.0,
                                  mu=0.0002 + 0.0006 * rng.random(),
                                  sigma=0.008 + 0.010 * rng.random()))
        betas.append(104.0 + 6.0 * rng.random())
    return members, betas


def signature(estimates):
    """Byte-comparable result fingerprint across worker counts."""
    return tuple((e.probability, e.n_roots, e.hits, e.steps)
                 for e in estimates)


def curve_signature(curves):
    return tuple(tuple(e.probability for e in c.estimates) + (c.steps,)
                 for c in curves)


def timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def repeated(fn):
    """``fn`` run ``REPEATS`` times: its results, the median seconds and
    the raw seconds."""
    results, raw = zip(*(timed(fn) for _ in range(REPEATS)))
    return list(results), statistics.median(raw), [round(t, 4) for t in raw]


def run_pool_grid(run, steps_of, signature_of):
    """Answer a sampling workload at every :data:`POOL_GRID` point.

    ``run(pool)`` answers it on ``pool``; each point runs ``REPEATS``
    times with the same seeds.  Returns the rows (median seconds and
    steps/s, plus the raw seconds), the last point's result, and whether
    every run's signature equals the first's, across points and repeats.
    """
    rows, signatures = [], []
    for mode, n_workers in POOL_GRID:
        with WorkerPool(n_workers=n_workers, pool=mode) as pool:
            results, seconds, raw = repeated(lambda: run(pool))
        steps = steps_of(results[0])
        rows.append({"mode": mode, "n_workers": n_workers,
                     "seconds": round(seconds, 4), "raw_seconds": raw,
                     "steps": steps,
                     "steps_per_second": round(steps / seconds, 1)})
        signatures.extend(signature_of(result) for result in results)
    deterministic = all(s == signatures[0] for s in signatures)
    return rows, results[0], deterministic


def total_steps(answers):
    return sum(answer.steps for answer in answers)


def run_srs_workload(quick):
    process = GBMProcess(start_price=100.0, mu=0.0004, sigma=0.012)
    query = DurabilityQuery.threshold(
        process, GBMProcess.price, beta=106.0,
        horizon=64 if quick else 96, name="gbm-srs")
    max_roots = 150_000 if quick else 400_000

    sequential = SRSSampler().run(query, max_roots=max_roots, seed=5)
    # Large tasks (~30ms of simulation each) so per-task IPC stays
    # negligible next to the work it ships.
    rows, last, deterministic = run_pool_grid(
        lambda pool: SRSSampler(pool=pool, roots_per_task=4096).run(
            query, max_roots=max_roots, seed=5),
        lambda estimate: estimate.steps,
        lambda estimate: signature([estimate]))
    joint = Z999 * math.sqrt(last.variance + sequential.variance)
    return {
        "workload": "srs",
        "query": query.name,
        "max_roots": max_roots,
        "by_workers": rows,
        "speedup_at_4": speedup_at_4(rows),
        "deterministic_across_workers": deterministic,
        "comparisons": 1,
        "outside_joint_ci999_vs_sequential":
            int(abs(last.probability - sequential.probability)
                > joint + 1e-4),
    }


def run_fleet_workload(quick):
    n_entities = 64 if quick else 192
    horizon = 64 if quick else 96
    max_roots = 2_500 if quick else 4_000
    members, betas = build_fleet(n_entities)
    fused = fuse_processes(members)

    sequential = screen_fleet(fused, GBMProcess.price, betas, horizon,
                              max_roots=max_roots, seed=7)
    rows, pooled, deterministic = run_pool_grid(
        lambda pool: screen_fleet(
            fused, GBMProcess.price, betas, horizon, max_roots=max_roots,
            seed=7, pool=pool, members_per_task=8),
        total_steps, signature)
    disagreements = sum(
        1 for p, s in zip(pooled, sequential)
        if abs(p.probability - s.probability)
        > max(Z999 * math.sqrt(p.variance + s.variance), 2e-3))
    return {
        "workload": "fused_fleet",
        "entities": n_entities,
        "horizon": horizon,
        "max_roots_per_entity": max_roots,
        "by_workers": rows,
        "speedup_at_4": speedup_at_4(rows),
        "deterministic_across_workers": deterministic,
        "comparisons": n_entities,
        "outside_joint_ci999_vs_sequential": disagreements,
    }


def run_curve_workload(quick):
    n_entities = 32 if quick else 96
    horizon = 64 if quick else 96
    max_roots = 1_500 if quick else 3_000
    members, betas = build_fleet(n_entities, seed=1)
    grids = [tuple(beta * scale
                   for scale in (0.97, 0.98, 0.99, 1.0,
                                 1.01, 1.02, 1.03, 1.04))
             for beta in betas]
    fused = fuse_processes(members)

    sequential = screen_fleet_curves(fused, GBMProcess.price, grids,
                                     horizon, max_roots=max_roots, seed=9)
    rows, pooled, deterministic = run_pool_grid(
        lambda pool: screen_fleet_curves(
            fused, GBMProcess.price, grids, horizon, max_roots=max_roots,
            seed=9, pool=pool, members_per_task=4),
        total_steps, curve_signature)
    disagreements = 0
    for pooled_curve, sequential_curve in zip(pooled, sequential):
        for p, s in zip(pooled_curve.estimates,
                        sequential_curve.estimates):
            if abs(p.probability - s.probability) > max(
                    Z999 * math.sqrt(p.variance + s.variance), 2e-3):
                disagreements += 1
    return {
        "workload": "fleet_curves",
        "entities": n_entities,
        "grid_levels": 8,
        "horizon": horizon,
        "max_roots_per_entity": max_roots,
        "by_workers": rows,
        "speedup_at_4": speedup_at_4(rows),
        "deterministic_across_workers": deterministic,
        "comparisons": n_entities * 8,
        "outside_joint_ci999_vs_sequential": disagreements,
    }


def run_forest_workload(quick):
    """Pooled g-MLSS on a fixed plan: the forest-task path of the pool.

    The chain moves one state per step, so every path lands on every
    boundary it crosses (no level skips), and ``max_roots`` fixes the
    work, so every pool point runs the same root trees.
    """
    chain = birth_death_chain(n=14, p_up=0.2, p_down=0.3, start=0)
    query = DurabilityQuery.threshold(chain, chain.state_value, beta=13.0,
                                      horizon=60, name="chain14-gmlss")
    partition = LevelPartition([k / 13 for k in (3, 5, 7, 9, 11)])
    max_roots = 6_000 if quick else 20_000

    sequential = GMLSSSampler(partition, ratio=3).run(
        query, max_roots=max_roots, seed=13)
    rows, last, deterministic = run_pool_grid(
        lambda pool: GMLSSSampler(partition, ratio=3, pool=pool).run(
            query, max_roots=max_roots, seed=13),
        lambda estimate: estimate.steps,
        lambda estimate: signature([estimate]))
    joint = Z999 * math.sqrt(last.variance + sequential.variance)
    return {
        "workload": "gmlss_forest",
        "query": query.name,
        "boundaries": list(partition.boundaries),
        "max_roots": max_roots,
        "by_workers": rows,
        "speedup_at_4": speedup_at_4(rows),
        "deterministic_across_workers": deterministic,
        "comparisons": 1,
        "outside_joint_ci999_vs_sequential":
            int(abs(last.probability - sequential.probability) > joint),
    }


def run_plan_search_workload(quick):
    """Cold-query plan search: parent vs pool-sharded, identical plans.

    The latency that parallel plan search attacks is the *cold* path —
    the first query of a family pays a greedy search (dozens of
    sequential trials) before any estimate.  Trials within a round are
    independent, so sharding them is pure win once trials dominate the
    per-task overhead.
    """
    # A genuinely rare threshold (~2.6 sigma of 64-step max drift):
    # common events plateau the pilot's tail at 1.0 (nothing to fit)
    # and give the greedy search nothing to split.
    process = GBMProcess(start_price=100.0, mu=0.0004, sigma=0.012)
    query = DurabilityQuery.threshold(
        process, GBMProcess.price, beta=125.0,
        horizon=64 if quick else 96, name="gbm-plan")
    trial_steps = 25_000 if quick else 80_000
    pilot_paths = 2_000 if quick else 6_000

    def search(pool=None):
        """One greedy search and one pilot, each timed; the pilot is
        timed on its own so its share shows."""
        result, seconds = timed(lambda: adaptive_greedy_partition(
            query, ratio=3, trial_steps=trial_steps, seed=17, pool=pool))
        pilot, pilot_seconds = timed(lambda: balanced_growth_partition(
            query, 4, pilot_paths=pilot_paths, seed=19, pool=pool))
        return (result.partition, result.search_steps, pilot), \
            seconds, pilot_seconds

    def row(mode, n_workers, pool=None):
        runs = [search(pool) for _ in range(REPEATS)]
        plans, seconds, pilot_seconds = zip(*runs)
        return plans, {
            "mode": mode, "n_workers": n_workers,
            "seconds": round(statistics.median(seconds), 4),
            "raw_seconds": [round(t, 4) for t in seconds],
            "pilot_seconds": round(statistics.median(pilot_seconds), 4),
            "raw_pilot_seconds": [round(t, 4) for t in pilot_seconds],
            "search_steps": plans[0][1]}

    parent_plans, parent_row = row("parent", 1)
    with WorkerPool(n_workers=max(WORKER_GRID), pool="fork") as pool:
        pooled_plans, pooled_row = row("fork", max(WORKER_GRID), pool)
    rows = [parent_row, pooled_row]
    parent = parent_plans[0]
    identical = all(plan == parent for plan in parent_plans + pooled_plans)
    pooled_total = pooled_row["seconds"] + pooled_row["pilot_seconds"]
    parent_total = parent_row["seconds"] + parent_row["pilot_seconds"]
    return {
        "workload": "plan_search",
        "query": query.name,
        "trial_steps": trial_steps,
        "pilot_paths": pilot_paths,
        "greedy_partition": list(parent[0].boundaries),
        "by_workers": rows,
        "speedup_at_4": round(parent_total / pooled_total, 2),
        "plan_identical_to_parent": identical,
        "pooled_faster_than_parent": pooled_total < parent_total,
    }


def raw_text(seconds) -> str:
    return "[" + " ".join(f"{t:.3f}" for t in seconds) + "]"


def allowed_outside(comparisons: int) -> int:
    """How many of a workload's comparisons may fall outside the joint
    CI999 before its agreement gate fails.

    A 99.9% joint interval over hundreds of comparisons is *expected*
    to miss occasionally, so a many-comparison workload gets the
    binomial false-positive budget, at least 1.  A single comparison
    misses with probability 0.001 and gets none: a budget of 1 out of
    1 would pass whatever the pooled answer is.
    """
    if comparisons == 1:
        return 0
    return max(1, round(0.005 * comparisons))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="reduced budgets for CI runners")
    args = parser.parse_args(argv)

    cpu_count = os.cpu_count() or 1
    sampling = [run_srs_workload(args.quick),
                run_fleet_workload(args.quick),
                run_curve_workload(args.quick),
                run_forest_workload(args.quick)]
    plan_search = run_plan_search_workload(args.quick)
    workloads = sampling + [plan_search]

    target_evaluable = cpu_count >= max(WORKER_GRID)
    fleet = next(w for w in sampling if w["workload"] == "fused_fleet")
    speedup_met = fleet["speedup_at_4"] >= SPEEDUP_TARGET
    plan_speedup_met = plan_search["pooled_faster_than_parent"]
    deterministic = all(w["deterministic_across_workers"]
                        for w in sampling)
    plan_identical = plan_search["plan_identical_to_parent"]
    for workload in sampling:
        workload["allowed_outside"] = allowed_outside(
            workload["comparisons"])
    agreement = all(
        w["outside_joint_ci999_vs_sequential"] <= w["allowed_outside"]
        for w in sampling)

    payload = {
        "benchmark": "parallel",
        "unit": "simulation steps per second",
        "quick": args.quick,
        "cpu_count": cpu_count,
        "worker_grid": list(WORKER_GRID),
        "pool_grid": [list(point) for point in POOL_GRID],
        "repeats": REPEATS,
        "workloads": workloads,
        "targets": {
            "fused_fleet_speedup_at_4_min": SPEEDUP_TARGET,
            "speedup_target_evaluable": target_evaluable,
            "speedup_target_met": speedup_met,
            "plan_search_pooled_faster": plan_speedup_met,
            "deterministic_across_workers": deterministic,
            "plan_identical_to_parent": plan_identical,
            "agreement_with_sequential": agreement,
        },
    }
    RESULT_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    evaluable_note = ("evaluable" if target_evaluable else
                      "NOT evaluable: fewer cores than the 4-worker "
                      "grid point")
    lines = [f"host cpus: {cpu_count} (speedup targets {evaluable_note})",
             f"each point: median of {REPEATS} runs with the same seeds "
             f"(raw seconds in brackets)"]
    for workload in sampling:
        lines.append(f"{workload['workload']}:")
        for row in workload["by_workers"]:
            lines.append(
                f"  {row['mode']:>7}/{row['n_workers']} worker(s) "
                f"{row['steps_per_second']:>14,.0f} steps/s "
                f"({row['seconds']:.3f}s {raw_text(row['raw_seconds'])})")
        lines.append(
            f"  speedup@4 {workload['speedup_at_4']:.2f}x   "
            f"deterministic: {workload['deterministic_across_workers']}  "
            f"outside joint CI999: "
            f"{workload['outside_joint_ci999_vs_sequential']}"
            f"/{workload['comparisons']} "
            f"(allowed {workload['allowed_outside']})")
    lines.append("plan_search:")
    for row in plan_search["by_workers"]:
        lines.append(
            f"  {row['mode']:>7}/{row['n_workers']} worker(s) "
            f"greedy {row['seconds']:.3f}s "
            f"{raw_text(row['raw_seconds'])} + pilot "
            f"{row['pilot_seconds']:.3f}s "
            f"{raw_text(row['raw_pilot_seconds'])}")
    lines.append(
        f"  speedup@4 {plan_search['speedup_at_4']:.2f}x   "
        f"plan identical to parent: {plan_identical}")
    lines.append("")
    lines.append(
        f"fused-fleet speedup target (>= {SPEEDUP_TARGET:.0f}x at 4 "
        f"workers): "
        + ("met" if speedup_met else
           "missed" + ("" if target_evaluable
                       else " (host has too few cores to evaluate)")))
    lines.append(
        "plan-search pooled-faster-than-parent target: "
        + ("met" if plan_speedup_met else
           "missed" + ("" if target_evaluable
                       else " (host has too few cores to evaluate)")))
    write_report("parallel", "Multicore x SIMD worker-pool scaling",
                 lines)

    # Correctness contracts gate the exit code everywhere; the
    # wall-clock targets only gate on hosts that can express them.
    ok = deterministic and agreement and plan_identical and (
        (speedup_met and plan_speedup_met) or not target_evaluable)
    print(f"targets {'met' if ok else 'MISSED'}; results in {RESULT_JSON}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
