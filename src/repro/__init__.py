"""repro — Multi-Level Splitting Sampling for durability prediction queries.

A from-scratch reproduction of Gao, Xu, Agarwal and Yang, "Efficiently
Answering Durability Prediction Queries" (SIGMOD 2021): the MLSS
samplers (simple and general), level-plan optimization, the baseline
samplers (SRS, importance sampling), the paper's experimental substrates
(tandem queues, compound Poisson processes, an LSTM-MDN sequence model),
and a DBMS-embedded query pipeline.

Quick start::

    from repro import DurabilityEngine, DurabilityQuery, ExecutionPolicy
    from repro.processes import TandemQueueProcess

    queue = TandemQueueProcess()
    query = DurabilityQuery.threshold(
        queue, TandemQueueProcess.queue2_length, beta=20, horizon=500)
    engine = DurabilityEngine(ExecutionPolicy(max_steps=500_000, seed=42))
    estimate = engine.answer(query)                 # plans are cached
    print(estimate.summary())
    curve = engine.durability_curve(query, thresholds=range(10, 26))
    answers = engine.answer_batch(                  # shared cohorts
        [query, query.with_threshold(25), query.with_threshold(30)])

"What to ask" (:class:`DurabilityQuery`) is separated from "how to run
it" (:class:`repro.engine.ExecutionPolicy` — method, ratio, budgets,
quality target, seed policy; serializable via
``to_dict``/``from_dict``).  The engine memoizes level plans in a
:class:`repro.engine.PlanCache` keyed by (process family, horizon,
initial value, threshold bucket), so repeated query shapes skip the
greedy plan search.  ``durability_curve`` answers an entire threshold
grid from **one** simulation pass — running path maxima under SRS,
per-level root counters under MLSS — instead of one run per threshold,
and ``answer_batch`` groups compatible queries into cohorts that share
a pass the same way (see ``benchmarks/bench_engine_api.py`` for the
measured speedups).  A one-off answer that should not touch the plan
cache passes ``use_plan_cache=False``.

Simulation
----------

A model is defined by its one-step simulator ``step(state, t, rng)``
(:class:`repro.processes.base.StochasticProcess`), and cost is counted
in calls to it.  Every sampler runs one batched loop over
``step_batch(states, t, rng)``
(:class:`repro.processes.base.VectorizedProcess`), which advances a
NumPy state array one row per path.  The bundled processes implement it
natively; any other process runs inside a
:class:`repro.processes.base.ScalarFallback`, which calls ``step`` row
by row at the same cost per path.
"""

from .core import (ConfidenceIntervalTarget, DurabilityCurve,
                   DurabilityEstimate,
                   DurabilityQuery, GMLSSSampler, ISSampler, LevelPartition,
                   NeverTarget, RelativeErrorTarget, SMLSSSampler,
                   SRSSampler, ThresholdValueFunction,
                   adaptive_greedy_partition, balanced_growth_partition,
                   cross_entropy_tilt)
from .engine import DurabilityEngine, ExecutionPolicy, PlanCache

__version__ = "1.2.0"

__all__ = [
    "ConfidenceIntervalTarget", "DurabilityCurve", "DurabilityEngine",
    "DurabilityEstimate", "DurabilityQuery",
    "ExecutionPolicy",
    "GMLSSSampler", "ISSampler", "LevelPartition", "NeverTarget",
    "PlanCache",
    "RelativeErrorTarget", "SMLSSSampler", "SRSSampler",
    "ThresholdValueFunction", "adaptive_greedy_partition",
    "balanced_growth_partition", "cross_entropy_tilt", "__version__",
]
