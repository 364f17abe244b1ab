"""Fleet-scale fused simulation: cross-process fusion and substrate coverage.

Two claims are measured:

1. **Fleet screening** — a 500-entity fleet with per-entity GBM / AR /
   tandem-queue parameters, answered through
   ``DurabilityEngine.answer_batch``.  With fusion each family advances
   as one :class:`~repro.processes.base.FusedBatch` frontier (one
   ``step_batch`` per time step for the whole family); the baseline
   (``fuse=False``) is the pre-fusion behaviour — per-process cohorts,
   i.e. one vectorized run per entity.  Target: **>= 5x** steps/second.

2. **No scalar fallback** — the costliest substrates to batch
   (compound Poisson, the volatile impulse wrappers, the LSTM-MDN
   stock model) carry native batched implementations.  Each is
   measured batched vs a per-path loop over its ``Process.step``
   (``bench_common.per_path_srs``) on the same workload.  Target:
   **>= 4x** each, and every one must batch natively (no
   ``ScalarFallback`` wrapper).

Statistical agreement (fused vs independent answers within joint CIs)
is gated by the test suite (``tests/engine/test_service.py``,
``tests/core/test_fleet.py``); this benchmark records the throughput
trajectory in ``BENCH_fusion.json`` and
``benchmarks/results/fusion.txt``.

Run directly (``python benchmarks/bench_fusion.py [--quick]``); CI uses
``--quick`` to keep runner time bounded.
"""

import argparse
import json
import math
import time
from pathlib import Path

import numpy as np

from bench_common import per_path_srs, write_report
from repro.core.srs import SRSSampler
from repro.core.stats import critical_value
from repro.core.value_functions import DurabilityQuery
from repro.engine import DurabilityEngine, ExecutionPolicy
from repro.processes import (ARProcess, CompoundPoissonProcess, GBMProcess,
                             TandemQueueProcess, as_vectorized, volatile_cpp)
from repro.processes.rnn.model import LSTMMDNModel
from repro.processes.rnn.stock_model import StockRNNProcess

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_JSON = REPO_ROOT / "BENCH_fusion.json"


# ----------------------------------------------------------------------
# Scenario 1: mixed-parameter fleet screening
# ----------------------------------------------------------------------

def build_fleet(n_gbm, n_ar, n_queue, horizon, seed=0):
    """Per-entity parameterisations drawn around the paper's regimes."""
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(n_gbm):
        process = GBMProcess(start_price=100.0,
                             mu=0.0002 + 0.0006 * rng.random(),
                             sigma=0.008 + 0.010 * rng.random())
        queries.append(DurabilityQuery.threshold(
            process, GBMProcess.price, beta=104.0 + 6.0 * rng.random(),
            horizon=horizon, name="gbm"))
    for _ in range(n_ar):
        process = ARProcess([0.55 + 0.20 * rng.random(), 0.2],
                            sigma=0.8 + 0.4 * rng.random())
        queries.append(DurabilityQuery.threshold(
            process, ARProcess.current_value,
            beta=5.0 + 2.0 * rng.random(), horizon=horizon, name="ar"))
    for _ in range(n_queue):
        process = TandemQueueProcess(
            arrival_rate=0.35 + 0.20 * rng.random())
        queries.append(DurabilityQuery.threshold(
            process, TandemQueueProcess.queue2_length,
            beta=8.0 + 4.0 * rng.random(), horizon=horizon, name="queue"))
    return queries


def run_fleet_screening(quick):
    n_gbm, n_ar, n_queue = (80, 60, 60) if quick else (200, 150, 150)
    horizon = 64 if quick else 96
    max_roots = 100 if quick else 150
    queries = build_fleet(n_gbm, n_ar, n_queue, horizon)
    engine = DurabilityEngine(ExecutionPolicy(method="srs",
                                              max_roots=max_roots, seed=3))
    # Warm both paths (imports, allocator, plan-free SRS setup).
    engine.answer_batch(queries[:2])
    engine.answer_batch(queries[:2], fuse=False)

    started = time.perf_counter()
    fused = engine.answer_batch(queries)
    fused_seconds = time.perf_counter() - started

    started = time.perf_counter()
    baseline = engine.answer_batch(queries, fuse=False)
    baseline_seconds = time.perf_counter() - started

    fused_steps = sum(e.steps for e in fused)
    baseline_steps = sum(e.steps for e in baseline)
    fused_rate = fused_steps / fused_seconds
    baseline_rate = baseline_steps / baseline_seconds

    z999 = critical_value(0.999)
    disagreements = sum(
        1 for f, b in zip(fused, baseline)
        if abs(f.probability - b.probability)
        > max(z999 * math.sqrt(f.variance + b.variance), 2e-3))
    cohorts = sorted({(e.details.get("cohort_id"),
                       e.details.get("cohort_size")) for e in fused})
    return {
        "entities": len(queries),
        "families": {"gbm": n_gbm, "ar": n_ar, "tandem_queue": n_queue},
        "horizon": horizon,
        "max_roots_per_entity": max_roots,
        "fused": {
            "seconds": round(fused_seconds, 4),
            "steps": fused_steps,
            "steps_per_second": round(fused_rate, 1),
            "cohorts": [{"cohort_id": c, "size": s} for c, s in cohorts],
        },
        "per_process_cohorts": {
            "seconds": round(baseline_seconds, 4),
            "steps": baseline_steps,
            "steps_per_second": round(baseline_rate, 1),
        },
        "speedup": round(fused_rate / baseline_rate, 2),
        "members_outside_joint_ci999": disagreements,
    }


# ----------------------------------------------------------------------
# Scenario 2: substrates that used to fall back to scalar loops
# ----------------------------------------------------------------------

def fallback_workloads(quick):
    cpp = CompoundPoissonProcess()
    cpp_query = DurabilityQuery.threshold(
        cpp, CompoundPoissonProcess.surplus, beta=40.0, horizon=100,
        name="cpp-40-100")

    volatile = volatile_cpp(CompoundPoissonProcess(), horizon=100)
    volatile_query = DurabilityQuery.threshold(
        volatile, CompoundPoissonProcess.surplus, beta=40.0, horizon=100,
        name="volatile-cpp-40-100")

    # Throughput only needs the architecture, not a trained fit, so the
    # model is built directly at the paper's size (32x2 LSTM, 5-part
    # mixture) instead of spending benchmark time on training.
    model = LSTMMDNModel(hidden_size=32, n_layers=2, n_mixtures=5, seed=0)
    stock = StockRNNProcess(model, 0.0005, 0.015, [0.001] * 50, 520.0)
    stock_query = DurabilityQuery.threshold(
        stock, StockRNNProcess.price, beta=700.0, horizon=60,
        name="stock-rnn-700-60")

    roots = 1500 if quick else 4000
    stock_roots = 400 if quick else 1500
    return [("cpp", cpp_query, roots),
            ("volatile_cpp", volatile_query, roots),
            ("stock_rnn_mdn", stock_query, stock_roots)]


def measure_batched(query, max_roots):
    sampler = SRSSampler(batch_roots=2048)
    started = time.perf_counter()
    estimate = sampler.run(query, max_roots=max_roots, seed=5)
    seconds = time.perf_counter() - started
    return {
        "steps": estimate.steps,
        "seconds": round(seconds, 4),
        "steps_per_second": round(estimate.steps / seconds, 1),
        "probability": estimate.probability,
        "n_roots": estimate.n_roots,
    }


def run_fallback_elimination(quick):
    results = []
    for name, query, max_roots in fallback_workloads(quick):
        scalar = per_path_srs(query, max_roots, seed=5)
        vectorized = measure_batched(query, max_roots)
        results.append({
            "workload": name,
            "query": query.name,
            "native_batch": as_vectorized(query.process) is query.process,
            "scalar": scalar,
            "vectorized": vectorized,
            "speedup": round(vectorized["steps_per_second"]
                             / scalar["steps_per_second"], 2),
        })
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="reduced budgets for CI runners")
    args = parser.parse_args(argv)

    fleet = run_fleet_screening(args.quick)
    substrates = run_fallback_elimination(args.quick)

    payload = {
        "benchmark": "fusion",
        "unit": "simulation steps per second",
        "quick": args.quick,
        "fleet_screening": fleet,
        "scalar_fallback_elimination": substrates,
        "targets": {
            "fleet_speedup_min": 5.0,
            "substrate_speedup_min": 4.0,
        },
    }
    RESULT_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    lines = [
        f"fleet screening: {fleet['entities']} entities "
        f"(gbm/ar/queue {fleet['families']['gbm']}/"
        f"{fleet['families']['ar']}/{fleet['families']['tandem_queue']}), "
        f"horizon {fleet['horizon']}",
        f"  fused      {fleet['fused']['steps_per_second']:>14,.0f} steps/s"
        f"  ({fleet['fused']['seconds']:.3f}s)",
        f"  per-entity {fleet['per_process_cohorts']['steps_per_second']:>14,.0f}"
        f" steps/s  ({fleet['per_process_cohorts']['seconds']:.3f}s)",
        f"  speedup    {fleet['speedup']:.1f}x  (target >= 5x)",
        f"  members outside joint 99.9% CI: "
        f"{fleet['members_outside_joint_ci999']} / {fleet['entities']}",
        "",
        "scalar-fallback elimination (batched vs per-path loop, steps/s):",
    ]
    for row in substrates:
        lines.append(
            f"  {row['workload']:<15} {row['speedup']:>6.1f}x  "
            f"(native batch: {row['native_batch']}; target >= 4x)")
    write_report("fusion", "Fleet-scale fused simulation", lines)

    ok = (fleet["speedup"] >= 5.0
          and all(row["speedup"] >= 4.0 for row in substrates)
          and all(row["native_batch"] for row in substrates))
    print(f"targets {'met' if ok else 'MISSED'}; results in {RESULT_JSON}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
