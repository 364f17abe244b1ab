"""Splitting-forest throughput on rare-event g-MLSS answers.

Every g-MLSS and s-MLSS answer grows its root trees in one kernel
(:meth:`repro.core.forest.VectorizedForestRunner.run_cohort`) and
bootstraps the per-root counters it returns.  This benchmark times
whole answers over the rare-event shapes of the ``rare_mlss`` workload
(probabilities 3e-4 to 1.7e-3): 12 birth-death chains and 12 lazy
random walks, their tuples copied below.  Each shape runs a fixed
skip-free plan — a boundary every 3 lattice states, ratio 3 — to a
fixed ``MAX_ROOTS`` under :class:`~repro.core.quality.NeverTarget`, so
the stopping rule's bootstrap runs on its usual schedule but never ends
a run early, over a fixed seed set (``--quick``: 4 shapes of each
family, fewer seeds and roots).

Per family it reports the median ms per answer, steps/s and the
bootstrap's ms and evaluations per answer, with ``cpu_count``; wall
time is reported, never gated.  It also prints one sha1 over every
answer's ``(probability, variance, n_roots, steps)`` reprs, so two
trees' answers compare in one line.  The gates are hardware-independent:

* **reproducible** — a second pass over the same seeds gives the same
  sha1;
* **oracle** — each shape's estimate, pooled over its seeds, lies
  within ``Z_BOUND`` standard errors of the exact hitting probability.
  Fixed budgets stop no run on its own estimate, and a skip-free plan
  keeps the g-MLSS estimate unbiased;
* **bootstrap memory** — one bootstrap evaluation traces at most
  ``BOOT_PEAK_MB`` (``tracemalloc`` peak; NumPy reports its buffers to
  it, so the reading does not depend on the host) at each of
  ``BOOT_ROOTS`` roots.  The aggregate is synthetic: ``BOOT_LEVELS``
  levels, ``BOOT_LIVE_SHARE`` of the roots carrying counters (the share
  measured on ``rare_mlss`` answers), ``BOOT_REPLICATES`` replicates.
  The median ms per evaluation is reported beside it, not gated.

A ``stopped`` section is reported and never gated: every shape's
answers under ``RelativeErrorTarget(STOP_TARGET)`` (and ``rare_mlss``'s
step budget) over ``STOP_SEEDS``, with per family the median ms, mean
steps and roots per answer, the share of 95% intervals that cover the
exact answer, and how many answers lie beyond 3, 4 and 5 of their own
bootstrap standard errors from it (``rare_mlss`` fails a run on one
beyond 5).  A target-stopped answer's |z| has a heavier tail than a
normal one, and this section shows it.  The full run's 125 seeds give
3,000 answers, about 5 of them beyond 4; such a count varies like a
Poisson one, so telling two trees' tails apart takes tens of thousands
of answers (call ``stopped_answers`` on more seeds).

It uses the public API only, so it runs unchanged on older trees (point
``PYTHONPATH`` at another tree's ``src``).  Run directly
(``python benchmarks/bench_forest_kernel.py [--quick]``); CI uses
``--quick``.  Results land in ``BENCH_forest_kernel.json`` and
``benchmarks/results/forest_kernel.txt``.
"""

import argparse
import hashlib
import json
import os
import statistics
import time
import tracemalloc
from pathlib import Path

import numpy as np

from bench_common import write_report
from repro.core import (DurabilityQuery, ForestAggregate, ForestCohort,
                        GMLSSSampler, LevelPartition, NeverTarget,
                        RelativeErrorTarget, bootstrap_variance,
                        normalize_ratios)
from repro.core.analytic import (hitting_probability,
                                 random_walk_hitting_probability)
from repro.processes import RandomWalkProcess, birth_death_chain

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_JSON = REPO_ROOT / "BENCH_forest_kernel.json"

#: Birth-death chains ``(n, p_up, p_down, horizon)``: reach state n - 1.
CHAINS = [(14, 0.2, 0.3, 60), (16, 0.25, 0.4, 60),
          (16, 0.25, 0.4, 80), (16, 0.2, 0.3, 80),
          (16, 0.3, 0.45, 60), (16, 0.25, 0.35, 60),
          (18, 0.25, 0.4, 100), (18, 0.3, 0.4, 60),
          (18, 0.2, 0.3, 100), (18, 0.3, 0.45, 60),
          (18, 0.25, 0.35, 80), (18, 0.3, 0.45, 80)]
#: Lazy random walks ``(threshold, p_up, p_down, horizon)``.
WALKS = [(12, 0.25, 0.4, 60), (14, 0.25, 0.4, 80),
         (14, 0.2, 0.3, 100), (14, 0.3, 0.45, 60),
         (16, 0.25, 0.4, 100), (16, 0.3, 0.4, 60),
         (16, 0.2, 0.3, 100), (16, 0.3, 0.45, 80),
         (16, 0.25, 0.35, 80), (18, 0.3, 0.4, 80),
         (18, 0.3, 0.45, 100), (18, 0.25, 0.35, 100)]
#: Lattice states between boundaries, and the splitting ratio.
SPACING = 3
RATIO = 3
MAX_ROOTS = 2_000
SEEDS = range(6)
QUICK_MAX_ROOTS = 600
QUICK_SEEDS = range(2)
#: Two-sided z bound of the oracle gate: 24 shapes are compared, so a
#: correct kernel fails it with probability near 2e-3.
Z_BOUND = 4.0
#: The bootstrap section: one evaluation per root count, on a synthetic
#: aggregate whose live share of roots carry counters.
BOOT_ROOTS = (700, 5_000, 40_000)
BOOT_LEVELS = 11
BOOT_LIVE_SHARE = 0.07
BOOT_REPLICATES = 200
BOOT_REPEATS = 5
#: Gate on one evaluation's traced peak (MB of 2**20 bytes).  A dense
#: (replicates, roots) multiplicity matrix traced ~122 MB at 40,000
#: roots; resampling the live roots alone traces ~5 MB.
BOOT_PEAK_MB = 16.0
#: The stopped section: ``rare_mlss``'s relative-error target and step
#: budget, on seeds the fixed-budget passes do not use.
STOP_TARGET = 0.2
STOP_MAX_STEPS = 50_000_000
STOP_SEEDS = range(100, 225)
QUICK_STOP_SEEDS = range(100, 103)
#: Normal two-sided 95% quantile, and the |z| tail thresholds counted.
Z95 = 1.959964
Z_TAILS = (3, 4, 5)


def shapes(quick: bool) -> list:
    """``(family, name, query, beta, exact)`` per shape."""
    chains = CHAINS[::3] if quick else CHAINS
    walks = WALKS[::3] if quick else WALKS
    out = []
    for n, p_up, p_down, horizon in chains:
        chain = birth_death_chain(n=n, p_up=p_up, p_down=p_down, start=0)
        beta = float(n - 1)
        out.append(("chain", f"chain{n}/{p_up}/{p_down}/{horizon}",
                    DurabilityQuery.threshold(chain, chain.state_value,
                                              beta=beta, horizon=horizon),
                    beta,
                    hitting_probability(chain.matrix, 0, [n - 1], horizon)))
    for threshold, p_up, p_down, horizon in walks:
        walk = RandomWalkProcess(p_up=p_up, p_down=p_down)
        beta = float(threshold)
        out.append(("walk", f"walk{threshold}/{p_up}/{p_down}/{horizon}",
                    DurabilityQuery.threshold(walk, RandomWalkProcess.position,
                                              beta=beta, horizon=horizon),
                    beta,
                    random_walk_hitting_probability(p_up, threshold, horizon,
                                                    p_down=p_down)))
    return out


def lattice_plan(beta: float) -> LevelPartition:
    """A boundary every ``SPACING`` lattice states below the target;
    paths move one state per step, so no level is skipped."""
    top = int(beta)
    return LevelPartition([k / beta for k in range(SPACING, top, SPACING)])


def run_pass(cases: list, max_roots: int, seeds) -> tuple:
    """Answer every shape at every seed once; returns the answer rows
    and one ``(family, wall s, steps, bootstrap s, evaluations)`` row
    per answer."""
    answers, costs = [], []
    for family, _, query, beta, _ in cases:
        sampler = GMLSSSampler(lattice_plan(beta), ratio=RATIO)
        for seed in seeds:
            started = time.perf_counter()
            estimate = sampler.run(query, quality=NeverTarget(),
                                   max_roots=max_roots, seed=seed)
            wall = time.perf_counter() - started
            answers.append((estimate.probability, estimate.variance,
                            estimate.n_roots, estimate.steps))
            costs.append((family, wall, estimate.steps,
                          estimate.details["bootstrap_seconds"],
                          estimate.details["bootstrap_evals"]))
    return answers, costs


def fingerprint(answers: list) -> str:
    digest = hashlib.sha1()
    for row in answers:
        digest.update(repr(row).encode())
    return digest.hexdigest()


def oracle_z(cases: list, answers: list, n_seeds: int) -> dict:
    """Per shape, |pooled estimate - exact| over its pooled standard
    error (the seeds' bootstrap variances added up)."""
    out = {}
    for index, (_, name, _, _, exact) in enumerate(cases):
        rows = answers[index * n_seeds:(index + 1) * n_seeds]
        mean = sum(row[0] for row in rows) / n_seeds
        error = sum(row[1] for row in rows) ** 0.5 / n_seeds
        out[name] = (abs(mean - exact) / error if error > 0
                     else (0.0 if mean == exact else float("inf")))
    return out


def family_costs(costs: list) -> dict:
    out = {}
    for family in sorted({row[0] for row in costs}):
        rows = [row for row in costs if row[0] == family]
        wall = sum(row[1] for row in rows)
        out[family] = {
            "answers": len(rows),
            "ms_per_answer": round(
                1e3 * statistics.median(row[1] for row in rows), 2),
            "steps_per_answer": round(
                sum(row[2] for row in rows) / len(rows), 1),
            "steps_per_s": round(sum(row[2] for row in rows) / wall),
            "bootstrap_ms_per_answer": round(
                1e3 * sum(row[3] for row in rows) / len(rows), 2),
            "bootstrap_evals_per_answer": round(
                sum(row[4] for row in rows) / len(rows), 2),
        }
    return out


def stopped_answers(cases: list, seeds) -> list:
    """Every shape at every seed under the relative-error target; one
    ``(family, ms, steps, n_roots, z)`` row per answer, with ``z`` the
    answer's distance from the exact one in its own standard errors."""
    quality = RelativeErrorTarget(STOP_TARGET)
    rows = []
    for family, _, query, beta, exact in cases:
        sampler = GMLSSSampler(lattice_plan(beta), ratio=RATIO)
        for seed in seeds:
            started = time.perf_counter()
            estimate = sampler.run(query, quality=quality,
                                   max_steps=STOP_MAX_STEPS, seed=seed)
            wall = time.perf_counter() - started
            error = estimate.variance ** 0.5
            miss = estimate.probability - exact
            z = (miss / error if error > 0
                 else (0.0 if miss == 0 else float("inf")))
            rows.append((family, 1e3 * wall, estimate.steps,
                         estimate.n_roots, z))
    return rows


def stopped_summary(rows: list) -> dict:
    out = {}
    for family in sorted({row[0] for row in rows}) + ["all"]:
        cell = [row for row in rows if family in ("all", row[0])]
        z = [row[4] for row in cell]
        out[family] = {
            "answers": len(cell),
            "ms_p50": round(statistics.median(row[1] for row in cell), 2),
            "mean_steps": round(statistics.fmean(row[2] for row in cell)),
            "mean_roots": round(statistics.fmean(row[3] for row in cell)),
            "coverage95": round(sum(abs(v) <= Z95 for v in z) / len(z), 4),
            "beyond": {str(t): sum(abs(v) > t for v in z) for t in Z_TAILS},
            "min_z": round(min(z), 3),
            "max_z": round(max(z), 3),
        }
    return out


def synthetic_aggregate(n_roots: int) -> ForestAggregate:
    """``BOOT_LEVELS`` levels; ``BOOT_LIVE_SHARE`` of the roots, at
    random positions, get random counters, and every other root's row
    is all zeros."""
    rng = np.random.default_rng(n_roots)
    live = np.zeros(n_roots, dtype=bool)
    live[rng.permutation(n_roots)[:round(BOOT_LIVE_SHARE * n_roots)]] = True
    shape = (n_roots, BOOT_LEVELS)
    levels = live[:, None] & (np.arange(BOOT_LEVELS) > 0)
    zeros = np.zeros(n_roots, dtype=np.int64)
    aggregate = ForestAggregate(BOOT_LEVELS)
    aggregate.extend(ForestCohort(
        np.where(levels, rng.integers(0, 4, shape), 0),
        np.where(levels, rng.integers(0, 2, shape), 0),
        np.where(levels, rng.integers(0, 6, shape), 0),
        np.where(live, rng.integers(0, 3, n_roots), 0), zeros, zeros))
    return aggregate


def bootstrap_costs() -> dict:
    """Per root count: the median ms and the traced peak MB of one
    bootstrap evaluation."""
    ratios = normalize_ratios(RATIO, BOOT_LEVELS)
    out = {}
    for n_roots in BOOT_ROOTS:
        aggregate = synthetic_aggregate(n_roots)
        seconds = []
        for seed in range(BOOT_REPEATS):
            started = time.perf_counter()
            bootstrap_variance(aggregate, ratios, n_boot=BOOT_REPLICATES,
                               seed=seed)
            seconds.append(time.perf_counter() - started)
        tracemalloc.start()
        try:
            bootstrap_variance(aggregate, ratios, n_boot=BOOT_REPLICATES,
                               seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out[str(n_roots)] = {
            "ms_per_eval": round(1e3 * statistics.median(seconds), 2),
            "peak_mb": round(peak / 2 ** 20, 2)}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="4 shapes per family, fewer seeds and roots")
    args = parser.parse_args()
    cases = shapes(args.quick)
    max_roots = QUICK_MAX_ROOTS if args.quick else MAX_ROOTS
    seeds = QUICK_SEEDS if args.quick else SEEDS
    stop_seeds = QUICK_STOP_SEEDS if args.quick else STOP_SEEDS

    first, costs = run_pass(cases, max_roots, seeds)
    second, second_costs = run_pass(cases, max_roots, seeds)
    sha1 = fingerprint(first)
    z = oracle_z(cases, first, len(seeds))
    gates = {
        "reproducible_pass": fingerprint(second) == sha1,
        "oracle_pass": all(value <= Z_BOUND for value in z.values()),
    }
    boot = bootstrap_costs()
    gates["bootstrap_memory_pass"] = all(
        cell["peak_mb"] <= BOOT_PEAK_MB for cell in boot.values())
    results = family_costs(costs + second_costs)
    stopped = stopped_summary(stopped_answers(cases, stop_seeds))
    payload = {
        "benchmark": "forest_kernel",
        "cpu_count": os.cpu_count(),
        "quick": args.quick,
        "shapes": [name for _, name, _, _, _ in cases],
        "plan": {"spacing": SPACING, "ratio": RATIO,
                 "max_roots": max_roots, "seeds": list(seeds)},
        "results": results,
        "answers_sha1": sha1,
        "oracle_abs_z": {name: round(value, 3) for name, value in z.items()},
        "z_bound": Z_BOUND,
        "bootstrap": {"levels": BOOT_LEVELS, "live_share": BOOT_LIVE_SHARE,
                      "replicates": BOOT_REPLICATES,
                      "peak_mb_bound": BOOT_PEAK_MB, "roots": boot},
        "stopped": {"relative_error": STOP_TARGET,
                    "max_steps": STOP_MAX_STEPS,
                    "seeds": [stop_seeds.start, stop_seeds.stop - 1],
                    "families": stopped},
        "gates": gates,
    }
    RESULT_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True))

    lines = [f"g-MLSS answers, a boundary every {SPACING} states, ratio "
             f"{RATIO}, {max_roots} roots, seeds {list(seeds)} (two passes; "
             f"cpu_count {os.cpu_count()}; wall clock, not gated)",
             f"{'family':<8}{'answers':>9}{'ms/answer':>11}{'steps/s':>13}"
             f"{'boot ms':>9}{'boot evals':>12}"]
    for family, cell in results.items():
        lines.append(
            f"{family:<8}{cell['answers']:>9}{cell['ms_per_answer']:>11.2f}"
            f"{cell['steps_per_s']:>13,}"
            f"{cell['bootstrap_ms_per_answer']:>9.2f}"
            f"{cell['bootstrap_evals_per_answer']:>12.2f}")
    lines.append(f"answers sha1: {sha1}")
    lines.append(f"max |z| against the exact oracle (bound {Z_BOUND}): "
                 f"{max(z.values()):.3f}")
    lines.append(f"one bootstrap evaluation ({BOOT_LEVELS} levels, "
                 f"{BOOT_LIVE_SHARE:.0%} live roots, {BOOT_REPLICATES} "
                 f"replicates; ms not gated, peak gated at <= "
                 f"{BOOT_PEAK_MB:g} MB)")
    lines.append(f"{'roots':>8}{'ms/eval':>10}{'peak MB':>10}")
    for n_roots, cell in boot.items():
        lines.append(f"{int(n_roots):>8,}{cell['ms_per_eval']:>10.2f}"
                     f"{cell['peak_mb']:>10.2f}")
    lines.append(f"stopped at relative error {STOP_TARGET} (budget "
                 f"{STOP_MAX_STEPS:,} steps), seeds {stop_seeds.start}-"
                 f"{stop_seeds.stop - 1}; reported, not gated")
    lines.append(f"{'family':<8}{'answers':>9}{'ms p50':>9}{'steps':>11}"
                 f"{'roots':>8}{'cover95':>9}"
                 + "".join(f"{f'|z|>{t}':>7}" for t in Z_TAILS)
                 + f"{'min z':>8}{'max z':>8}")
    for family, cell in stopped.items():
        lines.append(
            f"{family:<8}{cell['answers']:>9}{cell['ms_p50']:>9.2f}"
            f"{cell['mean_steps']:>11,}{cell['mean_roots']:>8,}"
            f"{cell['coverage95']:>9.3f}"
            + "".join(f"{cell['beyond'][str(t)]:>7}" for t in Z_TAILS)
            + f"{cell['min_z']:>8.2f}{cell['max_z']:>8.2f}")
    lines.append(f"gates: {gates}")
    write_report("forest_kernel", "Splitting-forest g-MLSS answers",
                 lines)

    failures = [name for name, passed in gates.items() if not passed]
    if failures:
        raise SystemExit(f"forest_kernel gates failed: {failures}")


if __name__ == "__main__":
    main()
