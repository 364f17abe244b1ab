"""s-MLSS: the simple Multi-Level Splitting estimator (Section 3).

Under the *no level-skipping* assumption, the counters of the splitting
forest yield

    tau_hat = N_m / (N_0 * r^(m-1)),                        (Eq. 3)

or, with per-level ratios, ``N_m / (N_0 * prod_i r_i)``.  The variance
follows from the per-root hit counts (Eq. 5-6):

    Var_hat = sigma^2 / (N_0 * r^(2(m-1))),
    sigma^2 = sample variance of N_m^<k> over root paths k.

The estimator is read straight off the forest counters; when the
underlying process *does* skip levels, the same formulas silently
produce biased answers — this is the "blind application" the paper
demonstrates in Table 6, and :class:`SMLSSSampler` flags it via
``details["skipping_detected"]``.

Read level by level, the same counters give every boundary-crossing
probability (:func:`smlss_prefix_estimates`) and its variance
(:func:`smlss_prefix_variances`), and the target level is Eq. 3 and
Eq. 5-6 themselves.  s-MLSS grows the same forest as g-MLSS, so
:class:`SMLSSSampler` runs the one MLSS round loop of
:class:`~repro.core.gmlss.GMLSSSampler` and overrides only the fold,
the variance, the check schedule, the per-level observation count and
its ``details`` facts.
"""

from __future__ import annotations

import math
from typing import Optional

from .gmlss import GMLSSSampler
from .levels import LevelPartition
from .quality import QualityTarget
from .records import ForestAggregate


def ratio_product(ratios: tuple) -> int:
    """``prod_i r_i`` over the splittable levels (``r^(m-1)`` if fixed)."""
    return math.prod(ratios[1:])


def smlss_prefix_estimates(aggregate: ForestAggregate,
                           ratios: tuple) -> list:
    """Boundary-crossing probabilities under the no-skipping assumption.

    The s-MLSS analogue of Eq. 3 for every prefix: without level
    skipping, the expected number of landings in ``L_i`` is
    ``N_0 * prod_{k<i} r_k * Pr[cross beta_i]``, so one forest yields
    ``Pr[cross beta_i] = landings[i] / (N_0 * prod_{k<i} r_k)`` for all
    boundaries at once.  Returns ``[Pr[cross beta_1], ...,
    Pr[cross beta_{m-1}], Pr[hit target]]`` (length ``m``).  The last
    entry is the point estimate, Eq. 3.  Like it, the prefixes are
    biased when the process does skip levels.
    """
    m = aggregate.num_levels
    n0 = aggregate.n_roots
    prefixes = []
    scale = float(n0)
    for i in range(1, m):
        prefixes.append(aggregate.landings[i] / scale if n0 else 0.0)
        scale *= ratios[i]
    prefixes.append(aggregate.hits / scale if n0 else 0.0)
    return prefixes


def smlss_prefix_variances(aggregate: ForestAggregate,
                           ratios: tuple) -> list:
    """Per-boundary variances for :func:`smlss_prefix_estimates`.

    Each prefix is a mean of i.i.d. per-root counts scaled by a
    constant, so the Eq. 5-6 argument applies level by level: the
    sample variance of the per-root landing (or hit) counts, divided by
    ``n_roots`` and the squared split factor.  The counts' variances
    come from running sums, so this costs O(m) however many roots have
    run.
    """
    m = aggregate.num_levels
    n0 = aggregate.n_roots
    if n0 < 2:
        return [0.0] * m
    variances = []
    scale = 1
    for i in range(1, m):
        variances.append(aggregate.landing_count_variance(i)
                         / (n0 * scale * scale))
        scale *= ratios[i]
    variances.append(aggregate.hit_count_variance() / (n0 * scale * scale))
    return variances


class SMLSSSampler(GMLSSSampler):
    """Batched s-MLSS with budget and quality-target stopping.

    Runs :class:`~repro.core.gmlss.GMLSSSampler`'s round loop with the
    Eq. 3 fold and the closed-form Eq. 5-6 variance, checked after
    every batch whenever a quality target or a trace reads the result.

    Parameters
    ----------
    partition:
        The level partition plan ``B``.
    ratio:
        Fixed splitting ratio ``r`` (paper default 3) or per-level
        ratios.
    batch_roots:
        Cohort size: root trees simulated as one batch between
        stopping-rule checks.
    record_trace:
        Record convergence snapshots in ``details["trace"]``.
    pool / roots_per_task:
        With a :class:`~repro.core.pool.WorkerPool`, root trees shard
        over its workers in fixed-size tasks, rounds pipelined
        (results are invariant under the worker count; see
        :mod:`repro.core.pool`).
    """

    method_name = "smlss"

    def __init__(self, partition: LevelPartition, ratio=3,
                 batch_roots: int = 100, record_trace: bool = False,
                 pool=None,
                 roots_per_task: Optional[int] = None):
        super().__init__(partition, ratio, batch_roots=batch_roots,
                         record_trace=record_trace, pool=pool,
                         roots_per_task=roots_per_task)

    def _prefixes(self, aggregate: ForestAggregate) -> list:
        return smlss_prefix_estimates(aggregate, self.ratios)

    def _variances(self, aggregate: ForestAggregate, seed: int) -> list:
        return smlss_prefix_variances(aggregate, self.ratios)

    def _next_check(self, quality: Optional[QualityTarget], trace,
                    previous: Optional[int]) -> float:
        """After every batch, whenever a target or a trace reads it."""
        return math.inf if quality is None and trace is None else 0

    def _level_hits(self, aggregate: ForestAggregate, index: int) -> int:
        """Observations backing the ``index``-th curve level: landings
        in it, or target hits at the last level."""
        if index == aggregate.num_levels - 1:
            return aggregate.hits
        return aggregate.landings[index + 1]

    def _estimator_details(self, aggregate: ForestAggregate,
                           eval_seconds: float, evals: int,
                           point: bool) -> dict:
        return {"skipping_detected": aggregate.total_skips > 0}
