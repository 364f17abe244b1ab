"""Partition-plan evaluation (Section 5.1).

Given a fixed simulation budget ``t_0``, a partition plan ``B`` is
scored by the variance its estimator achieves in that budget:

    eval(B) = Var(N_m^<1>) * c_B / (r^(2(m-1)) * t_0)        (Eq. 15)

where ``Var(N_m^<1>)`` is the per-root variance of target hits and
``c_B`` the average per-root simulation cost, both measured from a trial
run of MLSS itself.  As in the paper, the measure is derived under the
no-level-skipping surrogate but only used for *choosing* plans, never
for estimation, so it cannot affect correctness.

Trial runs are never wasted: each trial's (unbiased) g-MLSS estimate is
retained so the plan search contributes to the final answer
(Section 5.2, last paragraph).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .forest import VectorizedForestRunner
from .gmlss import gmlss_pi_hats, gmlss_point_estimate
from .levels import LevelPartition, normalize_ratios
from .records import ForestAggregate
from .smlss import ratio_product
from .value_functions import DurabilityQuery


@dataclass
class PlanTrial:
    """Outcome of one fixed-budget trial run of a partition plan."""

    partition: LevelPartition
    ratios: tuple
    trial_steps: int
    n_roots: int
    hits: int
    steps: int
    estimate: float
    var_per_root: float
    cost_per_root: float
    eval_score: float
    pi_hats: list = field(default_factory=list)
    #: Paths that reached the plan's top level (or the target): the
    #: progress signal used to rank hitless trials during plan search.
    top_flow: int = 0

    @property
    def reached_target(self) -> bool:
        return self.hits > 0


def eval_score(var_per_root: float, cost_per_root: float,
               ratios: tuple, trial_steps: int) -> float:
    """Eq. 15 folded from measured trial quantities.

    Plans whose trials never hit the target report an infinite score:
    their variance measurement carries no information, and the greedy
    search must prefer any plan that reaches the target at all.
    """
    if trial_steps <= 0:
        raise ValueError(f"trial_steps must be > 0, got {trial_steps}")
    denominator = ratio_product(ratios)
    return (var_per_root * cost_per_root
            / (denominator * denominator * trial_steps))


def evaluate_partition(query: DurabilityQuery, partition: LevelPartition,
                       ratio=3, trial_steps: int = 20000,
                       seed: Optional[int] = None,
                       rng: Optional[random.Random] = None) -> PlanTrial:
    """Run MLSS with plan ``B`` for a fixed step budget and score it.

    Either ``seed`` or an existing ``rng`` may be supplied; the trial
    seeds one NumPy generator from it, so passing the same ``rng``
    across evaluations continues one reproducible stream of trials.
    """
    if trial_steps < 1:
        raise ValueError(f"trial_steps must be >= 1, got {trial_steps}")
    if rng is None:
        rng = random.Random(seed)
    ratios = normalize_ratios(ratio, partition.num_levels)
    aggregate = ForestAggregate(partition.num_levels)
    runner = VectorizedForestRunner(
        query, partition, ratios,
        np.random.default_rng(rng.randrange(2 ** 31)))
    while aggregate.steps < trial_steps:
        # Size each cohort from the measured cost per root so the
        # budget overshoot stays at roughly one cohort; before any
        # measurement, assume a root tree costs about two horizons
        # (splitting roughly doubles the root path's own cost).
        cohort = int(aggregate.roots_funded(trial_steps,
                                            2.0 * query.horizon)) + 1
        cohort = max(1, min(cohort, 1024))
        aggregate.extend(runner.run_cohort(cohort))

    var_per_root = aggregate.hit_count_variance()
    cost_per_root = aggregate.steps / aggregate.n_roots
    if aggregate.hits > 0:
        score = eval_score(var_per_root, cost_per_root, ratios, trial_steps)
    else:
        score = math.inf
    top_flow = (aggregate.hits + aggregate.landings[-1]
                + aggregate.skips[-1] if partition.num_levels > 1
                else aggregate.hits)
    return PlanTrial(
        partition=partition,
        ratios=ratios,
        trial_steps=trial_steps,
        n_roots=aggregate.n_roots,
        hits=aggregate.hits,
        steps=aggregate.steps,
        estimate=gmlss_point_estimate(aggregate, ratios),
        var_per_root=var_per_root,
        cost_per_root=cost_per_root,
        eval_score=score,
        pi_hats=gmlss_pi_hats(aggregate, ratios),
        top_flow=top_flow,
    )


def pool_trials(trials) -> tuple:
    """Combine unbiased trial estimates into one pooled estimate.

    Returns ``(estimate, n_roots, steps)``.  Each trial's g-MLSS
    estimate is unbiased regardless of its plan, so a root-count
    weighted average is unbiased too; it is the "trial runs are not
    wasted" estimate the paper describes.
    """
    total_roots = sum(t.n_roots for t in trials)
    total_steps = sum(t.steps for t in trials)
    if total_roots == 0:
        return 0.0, 0, total_steps
    pooled = sum(t.estimate * t.n_roots for t in trials) / total_roots
    return pooled, total_roots, total_steps
