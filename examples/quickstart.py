"""Quickstart: answer a durability prediction query with the engine.

A lazy random walk models some noisy metric; the query asks: *what is
the probability the metric reaches 12 within 60 steps?*  We hold one
:class:`repro.DurabilityEngine` with a default execution policy and
answer the query three ways — the SRS baseline, g-MLSS on a hand-picked
level plan, and the fully automatic pipeline (greedy plan search +
g-MLSS) — then ask again to show the plan cache kicking in, and compare
everything against the exact answer this toy model happens to admit.

Run:  python examples/quickstart.py
"""

from repro import (DurabilityEngine, DurabilityQuery, ExecutionPolicy,
                   LevelPartition)
from repro.core import random_walk_hitting_probability
from repro.processes import RandomWalkProcess


def main() -> None:
    process = RandomWalkProcess(p_up=0.35, p_down=0.45)
    threshold, horizon = 12, 60
    query = DurabilityQuery.threshold(
        process, RandomWalkProcess.position, beta=threshold,
        horizon=horizon, name="walk-hits-12")

    exact = random_walk_hitting_probability(
        process.p_up, threshold, horizon, p_down=process.p_down)
    print(f"Exact answer (DP oracle): {exact:.6f}\n")

    # One policy ("how to run") shared by every call; per-call keyword
    # overrides tweak it without rebuilding anything.
    budget = 400_000  # simulation-step budget shared by all methods
    engine = DurabilityEngine(
        ExecutionPolicy(max_steps=budget, trial_steps=15_000))

    srs = engine.answer(query, method="srs", seed=1)
    print("1. SRS baseline")
    print("  ", srs.summary(), "\n")

    partition = LevelPartition([4 / 12, 8 / 12])
    mlss = engine.answer(query, method="gmlss", partition=partition, seed=2)
    print("2. g-MLSS with a manual 3-level plan", partition)
    print("  ", mlss.summary(), "\n")

    auto = engine.answer(query, seed=3)  # method="auto" is the default
    plan = auto.details["plan_search"]["partition"]
    print(f"3. Automatic (greedy search found {plan})")
    print("  ", auto.summary(), "\n")

    again = engine.answer(query, seed=4)
    print(f"4. Asked again: plan cache {again.details['plan_cache']} "
          f"(plan from {again.details['plan_origin']}, no search)")
    print("  ", again.summary(), "\n")

    print(f"At the same budget, MLSS cut the standard error from "
          f"{srs.std_error:.2e} (SRS) to {mlss.std_error:.2e} — "
          f"a {srs.variance / mlss.variance:.1f}x variance reduction; "
          f"the repeat answer skipped the plan search entirely "
          f"(cache stats: {engine.cache_stats()}).")


if __name__ == "__main__":
    main()
