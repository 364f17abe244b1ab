"""Per-path loop vs. batched sampler: steps/second and agreement.

Measures the throughput (simulation steps per wall-clock second) of the
batched SRS sampler against a per-path loop over the model's
``Process.step`` (``bench_common.per_path_srs``, the "scalar" column)
on two workloads spanning the cost spectrum:

* random walk — the cheapest possible ``g``, so per-step Python
  dispatch dominates: the pure upside of batching;
* tandem queue — an expensive ``g`` (an embedded Gillespie loop per
  step), the conservative case.

It also re-checks the statistical contract on the analytic-reference
query (a birth-death chain with an exact DP answer): g-MLSS must agree
with the exact answer within its own 95 % CI.

Results land in ``BENCH_vectorized.json`` at the repo root (the perf
trajectory file) and ``benchmarks/results/vectorized_backend.txt``.
"""

import json
import math
import time
from pathlib import Path

from bench_common import per_path_srs, write_report
from repro.core.analytic import hitting_probability
from repro.core.gmlss import GMLSSSampler
from repro.core.levels import LevelPartition
from repro.core.srs import SRSSampler
from repro.core.stats import critical_value
from repro.core.value_functions import DurabilityQuery
from repro.processes.markov_chain import birth_death_chain
from repro.processes.queueing import TandemQueueProcess
from repro.processes.random_walk import RandomWalkProcess

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_JSON = REPO_ROOT / "BENCH_vectorized.json"

#: Cohort size of the batched SRS runs (bigger cohorts amortize the
#: per-step dispatch better).
COHORT = 4096


def random_walk_workload():
    walk = RandomWalkProcess(p_up=0.5)
    return DurabilityQuery.threshold(walk, RandomWalkProcess.position,
                                     beta=25.0, horizon=250,
                                     name="walk-25-250")


def tandem_queue_workload():
    queue = TandemQueueProcess()
    return DurabilityQuery.threshold(queue,
                                     TandemQueueProcess.queue2_length,
                                     beta=10.0, horizon=100,
                                     name="queue-10-100")


def measure_steps_per_second(query, max_roots, seed=7):
    sampler = SRSSampler(batch_roots=COHORT)
    started = time.perf_counter()
    estimate = sampler.run(query, max_roots=max_roots, seed=seed)
    elapsed = time.perf_counter() - started
    return {
        "steps": estimate.steps,
        "seconds": round(elapsed, 4),
        "steps_per_second": round(estimate.steps / elapsed, 1),
        "probability": estimate.probability,
        "n_roots": estimate.n_roots,
    }


def bench_workload(name, query, max_roots):
    scalar = per_path_srs(query, max_roots, seed=7)
    vectorized = measure_steps_per_second(query, max_roots)
    return {
        "workload": name,
        "query": query.name,
        "scalar": scalar,
        "vectorized": vectorized,
        "speedup": round(vectorized["steps_per_second"]
                         / scalar["steps_per_second"], 2),
    }


def gmlss_agreement_check():
    """g-MLSS vs. the exact DP answer."""
    chain = birth_death_chain(n=13, p_up=0.25, p_down=0.35, start=0)
    exact = hitting_probability(chain.matrix, 0, [12], 60)
    query = DurabilityQuery.threshold(chain, chain.state_value, beta=12.0,
                                      horizon=60, name="chain-12-60")
    partition = LevelPartition([4 / 12, 8 / 12])
    estimate = GMLSSSampler(partition, ratio=3).run(
        query, max_roots=4000, seed=12)
    half_width = critical_value(0.95) * math.sqrt(estimate.variance)
    return {
        "exact": exact,
        "estimate": estimate.probability,
        "difference": abs(estimate.probability - exact),
        "ci95_half_width": half_width,
        "within_own_ci_of_exact": bool(
            abs(estimate.probability - exact) <= half_width),
    }


def run_benchmark():
    results = {
        "benchmark": "vectorized_backend",
        "unit": "simulation steps per second (SRS sampler)",
        "cohort": COHORT,
        "workloads": [
            bench_workload("random_walk", random_walk_workload(),
                           max_roots=4096),
            bench_workload("tandem_queue", tandem_queue_workload(),
                           max_roots=4096),
        ],
        "gmlss_agreement": gmlss_agreement_check(),
    }
    RESULT_JSON.write_text(json.dumps(results, indent=2) + "\n")

    lines = [f"{'workload':<14} {'per-path steps/s':>16} "
             f"{'batched steps/s':>20} {'speedup':>9}"]
    for row in results["workloads"]:
        lines.append(
            f"{row['workload']:<14} "
            f"{row['scalar']['steps_per_second']:>16,.0f} "
            f"{row['vectorized']['steps_per_second']:>20,.0f} "
            f"{row['speedup']:>8.1f}x")
    agreement = results["gmlss_agreement"]
    lines += [
        "",
        f"g-MLSS agreement on chain-12-60 (exact = "
        f"{agreement['exact']:.6f}):",
        f"  estimate {agreement['estimate']:.6f}",
        f"  |diff| {agreement['difference']:.2e} <= 95% CI "
        f"half-width {agreement['ci95_half_width']:.2e}: "
        f"{agreement['within_own_ci_of_exact']}",
        "",
        f"JSON: {RESULT_JSON}",
    ]
    write_report("vectorized_backend",
                 "Batched sampler — steps/second vs. a per-path loop",
                 lines)
    return results


def test_vectorized_backend():
    results = run_benchmark()
    by_name = {row["workload"]: row for row in results["workloads"]}
    # Acceptance: >= 5x steps/second on the random-walk workload.
    assert by_name["random_walk"]["speedup"] >= 5.0, by_name["random_walk"]
    # The queue's Gillespie step is real work even in NumPy; just
    # require the batched sampler not to regress.
    assert by_name["tandem_queue"]["speedup"] >= 1.0, by_name["tandem_queue"]
    agreement = results["gmlss_agreement"]
    assert agreement["within_own_ci_of_exact"], agreement


if __name__ == "__main__":
    run_benchmark()
