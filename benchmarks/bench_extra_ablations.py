"""Ablations beyond the paper's figures.

Two design-choice checks:

1. **Bootstrap policy**: the conservative (geometric) evaluation
   schedule keeps bootstrap overhead a small fraction of g-MLSS time
   versus checking after every batch.
2. **Balanced-growth theory** (Eq. 13): the measured s-MLSS variance
   under a balanced plan tracks the branching-process prediction.
"""

import pytest

from bench_common import write_report
from repro.core.gmlss import GMLSSSampler
from repro.core.levels import LevelPartition
from repro.core.quality import RelativeErrorTarget
from repro.core.smlss import SMLSSSampler
from repro.core.value_functions import DurabilityQuery
from repro.core.variance import balanced_growth_variance


@pytest.mark.benchmark(group="ablations")
def test_ablation_bootstrap_policy(benchmark, small_plan=None):
    from repro.processes.markov_chain import birth_death_chain

    chain = birth_death_chain(n=13, p_up=0.25, p_down=0.35)
    query = DurabilityQuery.threshold(chain, chain.state_value, beta=12.0,
                                      horizon=60)
    partition = LevelPartition([4 / 12, 8 / 12])
    target = RelativeErrorTarget(target=0.15)

    def run():
        eager = GMLSSSampler(partition, ratio=3, batch_roots=100,
                             first_check_roots=100, check_growth=1.0001)
        lazy = GMLSSSampler(partition, ratio=3, batch_roots=100,
                            first_check_roots=200, check_growth=1.5)
        return (eager.run(query, quality=target, max_roots=200_000, seed=5),
                lazy.run(query, quality=target, max_roots=200_000, seed=5))

    eager, lazy = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = []
    for name, est in (("eager", eager), ("conservative", lazy)):
        share = est.details["bootstrap_seconds"] / max(
            est.elapsed_seconds, 1e-9)
        lines.append(
            f"{name:12s} evals={est.details['bootstrap_evals']:>3d} "
            f"boot-share={share:.0%} total={est.elapsed_seconds:.2f}s "
            f"tau={est.probability:.5f}")
    write_report("ablation_bootstrap_policy",
                 "Ablation — bootstrap evaluation schedule", lines)
    assert lazy.details["bootstrap_evals"] < eager.details[
        "bootstrap_evals"]
    assert (lazy.details["bootstrap_seconds"]
            <= eager.details["bootstrap_seconds"])


@pytest.mark.benchmark(group="ablations")
def test_ablation_balanced_growth_theory(benchmark):
    """Eq. 13 vs measured: same order for the balanced chain plan."""
    from repro.core.analytic import hitting_probability
    from repro.processes.markov_chain import birth_death_chain

    chain = birth_death_chain(n=13, p_up=0.25, p_down=0.35)
    query = DurabilityQuery.threshold(chain, chain.state_value, beta=12.0,
                                      horizon=60)
    tau = hitting_probability(chain.matrix, 0, [12], 60)
    partition = LevelPartition([4 / 12, 8 / 12])
    n_roots = 400

    def run():
        estimates = []
        for seed in range(30):
            est = SMLSSSampler(partition, ratio=3).run(
                query, max_roots=n_roots, seed=seed)
            estimates.append(est.probability)
        mean = sum(estimates) / len(estimates)
        empirical = sum((e - mean) ** 2
                        for e in estimates) / (len(estimates) - 1)
        return mean, empirical

    mean, empirical = benchmark.pedantic(run, rounds=1, iterations=1)
    predicted = balanced_growth_variance(tau, partition.num_levels, n_roots)
    lines = [f"exact tau        = {tau:.6f}",
             f"mean estimate    = {mean:.6f}",
             f"empirical var    = {empirical:.3e}",
             f"Eq. 13 predicted = {predicted:.3e}",
             f"ratio            = {empirical / predicted:.2f}"]
    write_report("ablation_eq13",
                 "Ablation — balanced-growth variance (Eq. 13) vs measured",
                 lines)
    # Same order of magnitude (the plan is only approximately balanced,
    # and Eq. 13 ignores within-level correlation).
    assert 0.1 < empirical / predicted < 10.0
