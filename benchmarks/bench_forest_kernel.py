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
  keeps the g-MLSS estimate unbiased.

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
from pathlib import Path

from bench_common import write_report
from repro.core import (DurabilityQuery, GMLSSSampler, LevelPartition,
                        NeverTarget)
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


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="4 shapes per family, fewer seeds and roots")
    args = parser.parse_args()
    cases = shapes(args.quick)
    max_roots = QUICK_MAX_ROOTS if args.quick else MAX_ROOTS
    seeds = QUICK_SEEDS if args.quick else SEEDS

    first, costs = run_pass(cases, max_roots, seeds)
    second, second_costs = run_pass(cases, max_roots, seeds)
    sha1 = fingerprint(first)
    z = oracle_z(cases, first, len(seeds))
    gates = {
        "reproducible_pass": fingerprint(second) == sha1,
        "oracle_pass": all(value <= Z_BOUND for value in z.values()),
    }
    results = family_costs(costs + second_costs)
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
    lines.append(f"gates: {gates}")
    write_report("forest_kernel", "Splitting-forest g-MLSS answers",
                 lines)

    failures = [name for name, passed in gates.items() if not passed]
    if failures:
        raise SystemExit(f"forest_kernel gates failed: {failures}")


if __name__ == "__main__":
    main()
