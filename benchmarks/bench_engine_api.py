"""Engine service API: curve-vs-N-runs and batch-vs-loop speedups.

Measures what the :class:`repro.engine.DurabilityEngine` amortizes:

* **durability_curve vs. independent answers** — a 16-threshold grid on
  the random-walk workload, answered by one shared simulation pass
  (running path maxima) vs. 16 independent ``answer()`` calls at the
  same per-threshold accuracy (identical root counts, hence identical
  binomial variance per threshold).  Acceptance: >= 5x fewer simulation
  steps *and* >= 5x less wall-clock, with every curve estimate agreeing
  with the exact DP answer within its own CI.
* **answer_batch vs. a Python loop** — a screening workload (several
  process configurations x several thresholds): cohort grouping turns
  ``configs * thresholds`` runs into ``configs`` shared passes.
* **plan caching** — the greedy plan search runs once per query shape;
  repeats skip it entirely.

Results land in ``BENCH_engine_api.json`` at the repo root and
``benchmarks/results/engine_api.txt``.
"""

import json
import math
import time
from pathlib import Path

from bench_common import write_report
from repro.core.analytic import random_walk_hitting_probability
from repro.core.stats import critical_value
from repro.core.value_functions import DurabilityQuery
from repro.engine import DurabilityEngine, ExecutionPolicy
from repro.processes.random_walk import RandomWalkProcess

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_JSON = REPO_ROOT / "BENCH_engine_api.json"

HORIZON = 60
#: The acceptance grid: 16 thresholds spanning easy to rare.
CURVE_THRESHOLDS = tuple(float(b) for b in range(2, 18))
CURVE_ROOTS = 20_000


def walk_process():
    return RandomWalkProcess(p_up=0.35, p_down=0.45)


def walk_query(process, beta):
    return DurabilityQuery.threshold(
        process, RandomWalkProcess.position, beta=beta, horizon=HORIZON,
        name=f"walk-{beta:g}-{HORIZON}")


def bench_curve_vs_independent():
    """One shared pass vs. one run per threshold, same accuracy."""
    process = walk_process()
    base = walk_query(process, CURVE_THRESHOLDS[-1])
    engine = DurabilityEngine(ExecutionPolicy(
        method="srs", max_roots=CURVE_ROOTS, seed=31))

    started = time.perf_counter()
    independent = [engine.answer(base.with_threshold(beta),
                                 seed=100 + int(beta))
                   for beta in CURVE_THRESHOLDS]
    independent_seconds = time.perf_counter() - started
    independent_steps = sum(e.steps for e in independent)

    started = time.perf_counter()
    curve = engine.durability_curve(base, CURVE_THRESHOLDS, seed=32)
    curve_seconds = time.perf_counter() - started

    z95 = critical_value(0.95)
    agreement = []
    for (beta, estimate), single in zip(curve, independent):
        exact = random_walk_hitting_probability(
            process.p_up, int(beta), HORIZON, p_down=process.p_down)
        curve_ok = (abs(estimate.probability - exact)
                    <= z95 * estimate.std_error + 1e-4)
        joint = z95 * math.sqrt(estimate.variance + single.variance)
        agreement.append({
            "threshold": beta,
            "exact": exact,
            "curve_estimate": estimate.probability,
            "independent_estimate": single.probability,
            "curve_within_ci_of_exact": bool(curve_ok),
            "agree_within_joint_ci": bool(
                abs(estimate.probability - single.probability)
                <= joint + 1e-4),
        })

    return {
        "thresholds": len(CURVE_THRESHOLDS),
        "roots_per_threshold": CURVE_ROOTS,
        "independent": {"steps": independent_steps,
                        "seconds": round(independent_seconds, 4)},
        "curve": {"steps": curve.steps,
                  "seconds": round(curve_seconds, 4)},
        "speedup_steps": round(independent_steps / curve.steps, 2),
        "speedup_wall": round(independent_seconds / curve_seconds, 2),
        "per_threshold": agreement,
    }


def bench_batch_vs_loop():
    """Cohort grouping vs. answering a screen one query at a time."""
    processes = [RandomWalkProcess(p_up=p_up, p_down=0.45)
                 for p_up in (0.32, 0.35, 0.38, 0.41)]
    thresholds = (4.0, 8.0, 12.0, 16.0)
    queries = [walk_query(process, beta)
               for process in processes for beta in thresholds]
    policy = ExecutionPolicy(method="srs", max_roots=10_000, seed=33)

    engine = DurabilityEngine(policy)
    started = time.perf_counter()
    loop = [engine.answer(query, seed=200 + index)
            for index, query in enumerate(queries)]
    loop_seconds = time.perf_counter() - started
    loop_steps = sum(e.steps for e in loop)

    engine = DurabilityEngine(policy)
    started = time.perf_counter()
    batch = engine.answer_batch(queries)
    batch_seconds = time.perf_counter() - started
    # Cohort members report their shared pass; count each pass once.
    batch_steps = sum({e.details["cohort_id"]: e.steps
                       for e in batch}.values())

    max_diff = max(abs(a.probability - b.probability)
                   for a, b in zip(loop, batch))
    return {
        "queries": len(queries),
        "cohorts": len(processes),
        "loop": {"steps": loop_steps, "seconds": round(loop_seconds, 4)},
        "batch": {"steps": batch_steps, "seconds": round(batch_seconds, 4)},
        "speedup_steps": round(loop_steps / batch_steps, 2),
        "speedup_wall": round(loop_seconds / batch_seconds, 2),
        "max_probability_difference": max_diff,
    }


def bench_plan_cache():
    """Greedy plan search amortized across repeated query shapes."""
    process = walk_process()
    query = walk_query(process, 12.0)
    engine = DurabilityEngine(ExecutionPolicy(
        max_steps=120_000, seed=34, trial_steps=10_000))

    started = time.perf_counter()
    first = engine.answer(query)
    first_seconds = time.perf_counter() - started
    started = time.perf_counter()
    second = engine.answer(query)
    second_seconds = time.perf_counter() - started

    return {
        "first_call": {
            "seconds": round(first_seconds, 4),
            "search_steps": first.details["plan_search"]["search_steps"],
            "plan_cache": first.details["plan_cache"],
        },
        "repeat_call": {
            "seconds": round(second_seconds, 4),
            "search_steps": DurabilityEngine._search_steps(
                second.details),
            "plan_cache": second.details["plan_cache"],
        },
        "search_steps_saved":
            first.details["plan_search"]["search_steps"],
        "cache_stats": engine.cache_stats(),
    }


def run_benchmark():
    results = {
        "benchmark": "engine_api",
        "unit": "simulation steps and wall-clock seconds",
        "curve_vs_independent": bench_curve_vs_independent(),
        "batch_vs_loop": bench_batch_vs_loop(),
        "plan_cache": bench_plan_cache(),
    }
    RESULT_JSON.write_text(json.dumps(results, indent=2) + "\n")

    curve = results["curve_vs_independent"]
    batch = results["batch_vs_loop"]
    cache = results["plan_cache"]
    lines = [
        f"durability_curve over {curve['thresholds']} thresholds "
        f"({curve['roots_per_threshold']:,} roots each):",
        f"  independent: {curve['independent']['steps']:>12,} steps "
        f"{curve['independent']['seconds']:>8.2f}s",
        f"  one pass:    {curve['curve']['steps']:>12,} steps "
        f"{curve['curve']['seconds']:>8.2f}s",
        f"  speedup:     {curve['speedup_steps']:.1f}x steps, "
        f"{curve['speedup_wall']:.1f}x wall-clock",
        f"  oracle agreement: "
        f"{sum(r['curve_within_ci_of_exact'] for r in curve['per_threshold'])}"
        f"/{curve['thresholds']} within own 95% CI",
        "",
        f"answer_batch over {batch['queries']} queries "
        f"({batch['cohorts']} cohorts):",
        f"  loop:  {batch['loop']['steps']:>12,} steps "
        f"{batch['loop']['seconds']:>8.2f}s",
        f"  batch: {batch['batch']['steps']:>12,} steps "
        f"{batch['batch']['seconds']:>8.2f}s",
        f"  speedup: {batch['speedup_steps']:.1f}x steps, "
        f"{batch['speedup_wall']:.1f}x wall-clock",
        "",
        f"plan cache: repeat call skipped "
        f"{cache['search_steps_saved']:,} search steps "
        f"({cache['first_call']['seconds']:.2f}s -> "
        f"{cache['repeat_call']['seconds']:.2f}s)",
        "",
        f"JSON: {RESULT_JSON}",
    ]
    write_report("engine_api",
                 "Engine API — shared passes vs. per-query runs", lines)
    return results


def test_engine_api():
    results = run_benchmark()
    curve = results["curve_vs_independent"]
    # Acceptance: one pass answers the 16-threshold grid >= 5x cheaper
    # than 16 independent runs, at matched per-threshold accuracy.
    assert curve["speedup_steps"] >= 5.0, curve
    assert curve["speedup_wall"] >= 5.0, curve
    for row in curve["per_threshold"]:
        assert row["curve_within_ci_of_exact"], row
    batch = results["batch_vs_loop"]
    assert batch["speedup_steps"] >= 2.0, batch
    cache = results["plan_cache"]
    assert cache["repeat_call"]["search_steps"] == 0, cache
    assert cache["repeat_call"]["plan_cache"] == "hit", cache


if __name__ == "__main__":
    run_benchmark()
