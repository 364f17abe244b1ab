"""SRS kernel throughput: simulation steps per second against cohort size.

Every SRS pass steps its rows in one kernel
(:func:`repro.core.srs.advance_rows`): a query's rows or a fused
fleet's rows advance one time step at a time, and a row retires once
it reaches its owner's top level.  The per-step cost is one process
call and one scoring call whatever the cohort size, so small cohorts
are bound by interpreter dispatch and large ones by NumPy arithmetic.
This benchmark draws that curve per process family, for

* **one query** — ``SRSSampler(batch_roots=n).run(query, max_roots=n)``,
  one round of ``n`` rows;
* **a 10-member fused fleet** — ``screen_fleet`` over a
  :class:`~repro.processes.base.FusedBatch` with ``n / 10`` roots per
  member, one round of ``n`` rows.

Families: random walk, Gaussian walk, GBM and Markov chain.  Cohort
sizes: 50, 250, 1,000, 2,048, 4,096 and 20,000 rows (``--quick``: 50,
250 and 4,096); the kernel steps up to 2,048 live walk rows a block of
time steps per call and wider cohorts one step per call, so the sizes
bracket that crossover.  Each cell runs a fixed seed set twice and
reports the median wall-clock steps/s of both passes with
``cpu_count``; wall time is reported, never gated.  The gates are
hardware-independent:

* **reproducible** — the second pass reproduces every answer of the
  first (probability, variance, roots, hits and steps);
* **fleet of one** — a one-member fused screen returns the one-query
  answer exactly, for every family, size and seed;
* **oracle** — every random-walk answer (the query and each of the 10
  fleet members), its hits pooled over the seed set, lies within
  ``Z_BOUND`` standard errors of the exact hitting probability
  (:func:`~repro.core.analytic.random_walk_hitting_curve`).

It uses the public API only.  Run directly
(``python benchmarks/bench_srs_kernel.py [--quick]``); CI uses
``--quick``.  Results land in ``BENCH_srs_kernel.json`` and
``benchmarks/results/srs_kernel.txt``.
"""

import argparse
import json
import os
import statistics
import time
from pathlib import Path

from bench_common import write_report
from repro.core.analytic import random_walk_hitting_curve
from repro.core.fleet import screen_fleet
from repro.core.srs import SRSSampler
from repro.core.value_functions import DurabilityQuery
from repro.processes import (FusedBatch, GaussianWalkProcess, GBMProcess,
                             MarkovChainProcess, RandomWalkProcess,
                             birth_death_chain)

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_JSON = REPO_ROOT / "BENCH_srs_kernel.json"

HORIZON = 80
FLEET_SIZE = 10
SIZES = (50, 250, 1_000, 2_048, 4_096, 20_000)
QUICK_SIZES = (50, 250, 4_096)
#: Two-sided z bound of the oracle gate: at most 66 answers are
#: compared, so a correct kernel fails it with probability near 4e-3.
Z_BOUND = 4.0

#: family -> (process of fleet member i, state evaluation z, threshold).
FAMILIES = {
    "random_walk": (
        lambda i: RandomWalkProcess(p_up=0.45 - 0.002 * i, p_down=0.45),
        RandomWalkProcess.position, 8.0),
    "gaussian_walk": (
        lambda i: GaussianWalkProcess(drift=0.05 - 0.002 * i, sigma=1.0),
        GaussianWalkProcess.position, 10.0),
    "gbm": (
        lambda i: GBMProcess(start_price=100.0, mu=0.001 - 0.00005 * i,
                             sigma=0.02),
        GBMProcess.price, 115.0),
    "markov_chain": (
        lambda i: birth_death_chain(n=13, p_up=0.30 - 0.005 * i,
                                    p_down=0.35, start=0),
        MarkovChainProcess.state_index, 8.0),
}


def answer(estimate) -> tuple:
    return (estimate.probability, estimate.variance, estimate.n_roots,
            estimate.hits, estimate.steps)


def one_query(family: str, n: int, seed: int) -> list:
    member, z, beta = FAMILIES[family]
    query = DurabilityQuery.threshold(member(0), z, beta=beta,
                                      horizon=HORIZON)
    return [SRSSampler(batch_roots=n).run(query, max_roots=n, seed=seed)]


def fleet(family: str, n: int, seed: int) -> list:
    member, z, beta = FAMILIES[family]
    roots = max(n // FLEET_SIZE, 1)
    fused = FusedBatch([member(i) for i in range(FLEET_SIZE)])
    return screen_fleet(fused, z, [beta] * FLEET_SIZE, HORIZON,
                        max_roots=roots, batch_roots=roots, seed=seed)


def fleet_of_one(family: str, n: int, seed: int) -> list:
    member, z, beta = FAMILIES[family]
    return screen_fleet(FusedBatch([member(0)]), z, [beta], HORIZON,
                        max_roots=n, batch_roots=n, seed=seed)


def seeds_for(n: int) -> range:
    """Seeds per pass: about 400k steps at a quarter horizon per row,
    between 3 and 40."""
    return range(max(3, min(40, 400_000 // (n * HORIZON // 4))))


def measure(run, family: str, n: int) -> tuple:
    """Two timed passes over one seed set; steps/s from their median.

    Returns the cell and the first pass's answers, one list of member
    answers per seed."""
    passes = []
    seconds = []
    for _ in range(2):
        answers = []
        for seed in seeds_for(n):
            started = time.perf_counter()
            estimates = run(family, n, seed)
            seconds.append(time.perf_counter() - started)
            answers.append([answer(e) for e in estimates])
        passes.append(answers)
    steps = [sum(a[4] for a in answers) for answers in passes[0]]
    rates = [s / t for s, t in zip(steps * 2, seconds)]
    return ({"rows": n, "calls": len(seconds),
             "steps_per_call": round(statistics.mean(steps), 1),
             "steps_per_s": round(statistics.median(rates)),
             "reproducible": passes[0] == passes[1]}, passes[0])


def oracle_z(answers: list) -> float:
    """The largest |z| of random-walk member answers, pooled over seeds,
    against the exact hitting probability of each member."""
    member, _, beta = FAMILIES["random_walk"]
    worst = 0.0
    for i in range(len(answers[0])):
        walk = member(i)
        exact = float(random_walk_hitting_curve(
            walk.p_up, [beta], HORIZON, p_down=walk.p_down)[0])
        hits = sum(answer[i][3] for answer in answers)
        roots = sum(answer[i][2] for answer in answers)
        error = (exact * (1.0 - exact) / roots) ** 0.5
        worst = max(worst, abs(hits / roots - exact) / error)
    return worst


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="cohort sizes 50, 250 and 4,096 only")
    args = parser.parse_args()
    sizes = QUICK_SIZES if args.quick else SIZES

    results = {}
    oracle = {"query": {}, "fleet10": {}}
    fleet_of_one_pass = True
    for family in FAMILIES:
        results[family] = {"query": {}, "fleet10": {}}
        for n in sizes:
            for kind, run in (("query", one_query), ("fleet10", fleet)):
                cell, answers = measure(run, family, n)
                results[family][kind][str(n)] = cell
                if family == "random_walk":
                    oracle[kind][str(n)] = round(oracle_z(answers), 3)
            for seed in range(3):
                fleet_of_one_pass &= (
                    [answer(e) for e in fleet_of_one(family, n, seed)]
                    == [answer(e) for e in one_query(family, n, seed)])

    cells = [cell for family in results.values()
             for kind in family.values() for cell in kind.values()]
    gates = {
        "reproducible_pass": all(cell["reproducible"] for cell in cells),
        "fleet_of_one_pass": fleet_of_one_pass,
        "oracle_pass": all(z <= Z_BOUND for kind in oracle.values()
                           for z in kind.values()),
    }
    payload = {
        "benchmark": "srs_kernel",
        "cpu_count": os.cpu_count(),
        "quick": args.quick,
        "horizon": HORIZON,
        "fleet_size": FLEET_SIZE,
        "cohort_sizes": list(sizes),
        "results": results,
        "oracle_max_abs_z": oracle,
        "z_bound": Z_BOUND,
        "gates": gates,
    }
    RESULT_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True))

    lines = [f"steps/s by cohort rows (horizon {HORIZON}, "
             f"cpu_count {os.cpu_count()}; wall clock, not gated)",
             f"{'family':<14} {'kind':<8}"
             + "".join(f"{n:>12,}" for n in sizes)]
    for family, kinds in results.items():
        for kind, cells_by_size in kinds.items():
            lines.append(f"{family:<14} {kind:<8}" + "".join(
                f"{cells_by_size[str(n)]['steps_per_s']:>12,}"
                for n in sizes))
    lines.append(f"random-walk max |z| against the exact oracle "
                 f"(bound {Z_BOUND}): {oracle}")
    lines.append(f"gates: {gates}")
    write_report("srs_kernel", "SRS kernel steps/s against cohort size",
                 lines)

    failures = [name for name, passed in gates.items() if not passed]
    if failures:
        raise SystemExit(f"srs_kernel gates failed: {failures}")


if __name__ == "__main__":
    main()
