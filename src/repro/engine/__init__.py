"""Service-shaped query answering: engine, policies, plan caching.

The :mod:`repro.core` layer answers one query at a time.  This
subpackage wraps it in a stateful service API built for multi-query
workloads:

* :class:`DurabilityEngine` — ``answer`` / ``answer_batch`` /
  ``durability_curve`` / ``durability_curves`` over a shared plan
  cache; every call runs the samplers' batched simulation loops;
* :class:`ExecutionPolicy` — an immutable, serializable "how to run
  it" object (method, ratio, budgets, quality target, seed policy),
  reusable across thousands of queries;
* :class:`PlanCache` — memoized level plans keyed by (process family,
  horizon, initial value, threshold bucket), so repeated query shapes
  skip the greedy plan search.

The engine is the one entry point: a one-off answer is
``DurabilityEngine(policy).answer(query, use_plan_cache=False)``.
"""

from .cache import CachedPlan, PlanCache, grid_plan_kind, process_family
from .policy import (ExecutionPolicy, ParallelPolicy, quality_from_dict,
                     quality_to_dict)
from .service import (DurabilityEngine, UnservableGridError, plan_kind,
                      resolve_plan)

__all__ = [
    "CachedPlan", "DurabilityEngine", "ExecutionPolicy", "ParallelPolicy",
    "PlanCache",
    "UnservableGridError",
    "grid_plan_kind", "plan_kind", "process_family", "quality_from_dict",
    "quality_to_dict",
    "resolve_plan",
]
