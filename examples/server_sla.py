"""Server-fleet SLA screening with the engine's batch API.

The paper's reliability example: *"what is the chance for our proposed
server cluster to fail the required service-level agreement before its
term ends?"*  Requests pass through an ingress stage (Queue 1) into a
worker stage (Queue 2); the SLA is breached if the worker backlog ever
reaches a threshold during a 500-minute window.

A capacity planner never asks this once: they screen *several candidate
configurations* against *several backlog thresholds*.  That is exactly
the shape :meth:`repro.DurabilityEngine.answer_batch` is built for —
per configuration, the three threshold queries form a cohort answered
by **one** shared simulation pass (running path maxima over one
batched frontier) instead of one run each, and the execution policy
that drives the whole screen is a single serializable object.

Run:  python examples/server_sla.py
"""

import json

from repro import DurabilityEngine, DurabilityQuery, ExecutionPolicy
from repro.processes import TandemQueueProcess

#: Candidate worker provisioning: mean service time of the worker stage
#: (minutes per request).  2.0 is critical load; lower is more capacity.
CONFIGS = {"baseline (2.0 min)": 2.0,
           "faster workers (1.9 min)": 1.9,
           "overloaded (2.1 min)": 2.1}

#: SLA backlog thresholds to screen against.
THRESHOLDS = (36, 48, 57)

HORIZON = 500  # minutes in the SLA term


def main() -> None:
    policy = ExecutionPolicy(method="srs", max_roots=3_000, seed=7)
    engine = DurabilityEngine(policy)
    print("Execution policy (serializable, reusable across the screen):")
    print(" ", json.dumps(policy.to_dict()), "\n")

    queries = []
    labels = []
    for name, mean_service2 in CONFIGS.items():
        cluster = TandemQueueProcess(arrival_rate=0.5, mean_service1=2.0,
                                     mean_service2=mean_service2)
        for threshold in THRESHOLDS:
            queries.append(DurabilityQuery.threshold(
                cluster, TandemQueueProcess.queue2_length,
                beta=threshold, horizon=HORIZON,
                name=f"{name} @ backlog {threshold}"))
            labels.append((name, threshold))

    estimates = engine.answer_batch(queries)

    print(f"{'configuration':<26s} {'backlog':>8s} {'P(SLA breach)':>14s} "
          f"{'95% CI half':>12s} {'cohort':>7s}")
    for (name, threshold), estimate in zip(labels, estimates):
        print(f"{name:<26s} {threshold:>8d} "
              f"{estimate.probability:>14.5f} "
              f"{estimate.ci_half_width():>12.5f} "
              f"{estimate.details.get('cohort_size', 1):>7d}")

    # Cohort members report the *shared* cost of their single pass, so
    # one representative per configuration counts each pass once.
    total_steps = sum(estimate.steps
                      for (_, threshold), estimate in zip(labels, estimates)
                      if threshold == THRESHOLDS[0])
    print(f"\n{len(queries)} queries answered with {len(CONFIGS)} "
          f"simulation passes ({total_steps:,} steps total): each "
          f"configuration's thresholds share one batched pass.")

    worst = max(zip(labels, estimates), key=lambda it: it[1].probability)
    safest = min(zip(labels, estimates), key=lambda it: it[1].probability)
    print(f"Highest risk: {worst[0][0]} at backlog {worst[0][1]} "
          f"(P = {worst[1].probability:.3f}); safest: {safest[0][0]} at "
          f"backlog {safest[0][1]} (P = {safest[1].probability:.4f}).")


if __name__ == "__main__":
    main()
