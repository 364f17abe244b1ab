"""Tests for the bootstrap variance estimator (Section 4.2)."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from repro.core import bootstrap as bootstrap_module
from repro.core.bootstrap import bootstrap_variance
from repro.core.forest import VectorizedForestRunner
from repro.core.gmlss import (gmlss_pi_hat_rows, gmlss_point_estimate,
                              gmlss_prefix_estimates)
from repro.core.levels import LevelPartition, normalize_ratios
from repro.core.records import ForestAggregate, ForestCohort, counter_columns

from ..helpers import make_cohort

#: The 0.999 quantile of a chi-square with 20 degrees of freedom.
CHI2_20_999 = 45.315


def srs_like_aggregate(hit_flags):
    """An aggregate with no levels: per-root hits are Bernoulli labels."""
    aggregate = ForestAggregate(1)
    aggregate.extend(make_cohort(1, n=len(hit_flags), hits=hit_flags))
    return aggregate


def chain_aggregate(query, partition, n_roots, seed):
    ratios = normalize_ratios(3, partition.num_levels)
    runner = VectorizedForestRunner(query, partition, ratios,
                                    np.random.default_rng(seed))
    aggregate = ForestAggregate(partition.num_levels)
    aggregate.extend(runner.run_cohort(n_roots))
    return aggregate, ratios


def replicate_prefixes(aggregate, ratios, n_boot, seed):
    """Each bootstrap replicate refolded the slow way.

    Replays the bootstrap's thinned resampling stream -- one
    ``binomial`` call for every replicate's count of draws that land on
    a live root, then each replicate's live-root indices in turn --
    rebuilds every resampled forest from the drawn live roots' rows of
    :meth:`ForestAggregate.per_root_matrices` plus all-zero rows for the
    draws on dead roots, and folds it into a fresh aggregate and through
    :func:`gmlss_prefix_estimates`.  Returns the ``(n_boot, m)``
    replicate prefixes.
    """
    rng = np.random.default_rng(seed)
    n_roots = aggregate.n_roots
    landings, skips, crossings, hits = (
        matrix.astype(np.int64) for matrix in aggregate.per_root_matrices())
    live = np.flatnonzero(aggregate.per_root_rows().any(axis=1))
    landed = rng.binomial(n_roots, len(live) / n_roots, size=n_boot)
    replicates = np.empty((n_boot, aggregate.num_levels))
    for b in range(n_boot):
        drawn = live[rng.integers(0, len(live), size=landed[b])]
        zeros = np.zeros(len(drawn), dtype=np.int64)
        resampled = ForestAggregate(aggregate.num_levels)
        resampled.extend(ForestCohort(
            landings[drawn], skips[drawn], crossings[drawn], hits[drawn],
            zeros, zeros))
        resampled.extend(make_cohort(aggregate.num_levels,
                                     n=n_roots - landed[b]))
        replicates[b] = gmlss_prefix_estimates(resampled, ratios)
    return replicates


def dense_resample_counts(rng, n_boot, n_roots):
    """Multiplicity matrix of a block of resamples over *every* root.

    Row ``b`` counts how often each root was drawn in replicate ``b``:
    one ``bincount`` over ``n_boot * n_roots`` cells, as ``float64``.
    """
    indices = rng.integers(0, n_roots, size=(n_boot, n_roots))
    indices += np.arange(n_boot, dtype=np.int64)[:, None] * n_roots
    counts = np.bincount(indices.ravel(), minlength=n_boot * n_roots)
    return counts.reshape(n_boot, n_roots).astype(np.float64)


def dense_bootstrap_variance(aggregate, ratios, n_boot=200, seed=None):
    """The bootstrap as a dense fold: each chunk of replicates is a
    ``(block, n_roots)`` multiplicity matrix times every root's row.

    The reference law: :func:`bootstrap_variance` draws only the live
    roots' multiplicities, and its mean over seeds must match this
    one's (its own chunking: 4,000,000 cells).
    """
    m = aggregate.num_levels
    n_roots = aggregate.n_roots
    if n_roots < 2:
        return np.zeros(m, dtype=np.float64)
    if n_boot < 2:
        raise ValueError(f"n_boot must be >= 2, got {n_boot}")
    rows = aggregate.per_root_rows()
    rng = np.random.default_rng(seed)
    estimates = np.empty((n_boot, m), dtype=np.float64)
    chunk = max(1, 4_000_000 // n_roots)
    for start in range(0, n_boot, chunk):
        block = min(chunk, n_boot - start)
        counts = dense_resample_counts(rng, block, n_roots)
        estimates[start:start + block] = np.cumprod(gmlss_pi_hat_rows(
            *counter_columns(counts @ rows, m), float(n_roots), ratios),
            axis=1)
    return estimates.var(axis=0)


def sparse_aggregate(n_roots, num_levels, live_share, seed):
    """A synthetic aggregate in which only ``round(live_share *
    n_roots)`` roots, at random positions, get random counters (which
    may still be all zero); every other root's row is all zeros."""
    rng = np.random.default_rng(seed)
    chosen = np.zeros(n_roots, dtype=bool)
    chosen[rng.permutation(n_roots)[:round(live_share * n_roots)]] = True
    shape = (n_roots, num_levels)
    levels = chosen[:, None] & (np.arange(num_levels) > 0)
    aggregate = ForestAggregate(num_levels)
    aggregate.extend(make_cohort(
        num_levels, n=n_roots,
        hits=np.where(chosen, rng.integers(0, 3, n_roots), 0),
        landings=np.where(levels, rng.integers(0, 4, shape), 0),
        skips=np.where(levels, rng.integers(0, 2, shape), 0),
        crossings=np.where(levels, rng.integers(0, 6, shape), 0)))
    return aggregate


class TestVectorizedReplicateFold:
    """The one-shot gather + fold must reproduce the per-replicate
    fold of each resampled forest (same resampling stream, same
    estimator values)."""

    def synthetic_aggregate(self, n_roots=200, num_levels=4, seed=0):
        rng = np.random.default_rng(seed)
        shape = (n_roots, num_levels)
        unused = np.arange(num_levels) == 0
        aggregate = ForestAggregate(num_levels)
        aggregate.extend(make_cohort(
            num_levels, n=n_roots, hits=rng.integers(0, 3, n_roots),
            landings=np.where(unused, 0, rng.integers(0, 4, shape)),
            skips=np.where(unused, 0, rng.integers(0, 2, shape)),
            crossings=np.where(unused, 0, rng.integers(0, 6, shape))))
        return aggregate

    def test_estimates_match_scalar_fold_per_replicate(self):
        aggregate = self.synthetic_aggregate()
        ratios = normalize_ratios(3, aggregate.num_levels)
        variances = bootstrap_variance(aggregate, ratios, n_boot=60,
                                       seed=11)
        replicates = replicate_prefixes(aggregate, ratios, 60, seed=11)
        assert variances[-1] == pytest.approx(replicates[:, -1].var(),
                                              abs=1e-12)

    def test_curve_variances_match_scalar_prefix_fold(self):
        aggregate = self.synthetic_aggregate(seed=3)
        ratios = normalize_ratios(3, aggregate.num_levels)
        variances = bootstrap_variance(aggregate, ratios, n_boot=40,
                                       seed=13)
        replicates = replicate_prefixes(aggregate, ratios, 40, seed=13)
        assert variances.shape == (aggregate.num_levels,)
        assert variances.tolist() == replicates.var(axis=0).tolist()

    def test_row_fold_handles_dead_levels(self):
        """Rows that never reach a level fold to a zero estimate: a
        zero denominator is a zero factor, and zeroes every later
        prefix."""
        factors = gmlss_pi_hat_rows(
            landings=[[0, 2, 0], [0, 0, 1]],
            skips=[[0, 0, 0], [0, 0, 0]],
            crossings=[[0, 5, 0], [0, 0, 0]],
            hits=[1.0, 1.0], n_roots=10.0, ratios=(1, 3, 3))
        assert factors.tolist() == [[0.2, 5 / 6, 0.0], [0.0, 0.0, 0.0]]
        assert np.cumprod(factors, axis=1)[:, -1].tolist() == [0.0, 0.0]


class TestBootstrapBasics:
    def test_too_few_roots_gives_zero_variance(self):
        aggregate = srs_like_aggregate([1])
        assert bootstrap_variance(aggregate, (1,), seed=0).tolist() == [0.0]

    def test_matches_binomial_variance_on_srs_aggregate(self):
        """With one level the bootstrap must agree with p(1-p)/n."""
        rng = random.Random(5)
        flags = [rng.random() < 0.3 for _ in range(400)]
        aggregate = srs_like_aggregate(flags)
        p_hat = aggregate.hits / aggregate.n_roots
        expected = p_hat * (1.0 - p_hat) / aggregate.n_roots
        variances = bootstrap_variance(aggregate, (1,), n_boot=600, seed=1)
        assert variances[-1] == pytest.approx(expected, rel=0.25)

    def test_bootstrap_mean_near_point_estimate(self, small_chain_query,
                                                small_chain_partition):
        aggregate, ratios = chain_aggregate(
            small_chain_query, small_chain_partition, 600, seed=3)
        point = gmlss_point_estimate(aggregate, ratios)
        replicates = replicate_prefixes(aggregate, ratios, 400, seed=2)
        assert replicates[:, -1].mean() == pytest.approx(point, rel=0.15)

    def test_variance_shrinks_with_more_roots(self, small_chain_query,
                                              small_chain_partition):
        small, ratios = chain_aggregate(
            small_chain_query, small_chain_partition, 200, seed=7)
        large, _ = chain_aggregate(
            small_chain_query, small_chain_partition, 1600, seed=7)
        var_small = bootstrap_variance(small, ratios, seed=4)[-1]
        var_large = bootstrap_variance(large, ratios, seed=4)[-1]
        assert var_large < var_small

    def test_reproducible_under_seed(self, small_chain_query,
                                     small_chain_partition):
        aggregate, ratios = chain_aggregate(
            small_chain_query, small_chain_partition, 300, seed=9)
        first = bootstrap_variance(aggregate, ratios, seed=11)
        second = bootstrap_variance(aggregate, ratios, seed=11)
        assert np.array_equal(first, second)

    def test_rejects_bad_parameters(self, small_chain_query,
                                    small_chain_partition):
        aggregate, ratios = chain_aggregate(
            small_chain_query, small_chain_partition, 50, seed=17)
        with pytest.raises(ValueError):
            bootstrap_variance(aggregate, ratios, n_boot=1)


class TestBootstrapAgainstRepeatedRuns:
    def test_variance_calibrated_against_independent_runs(
            self, small_chain_query, small_chain_partition):
        """Bootstrap variance ~ empirical variance over independent runs."""
        estimates = []
        for seed in range(40):
            aggregate, ratios = chain_aggregate(
                small_chain_query, small_chain_partition, 150, seed=seed)
            estimates.append(gmlss_point_estimate(aggregate, ratios))
        empirical = float(np.var(estimates, ddof=1))

        aggregate, ratios = chain_aggregate(
            small_chain_query, small_chain_partition, 150, seed=99)
        booted = bootstrap_variance(aggregate, ratios, n_boot=400,
                                    seed=1)[-1]
        # Same order of magnitude is the contract (one run's bootstrap
        # cannot match the ensemble exactly).
        assert booted == pytest.approx(empirical, rel=0.9)


class TestLiveRootResampling:
    """Only the live roots -- those whose counter row is not all zeros --
    are resampled: their multiplicities follow the dense resample's law,
    the bytes do not depend on the chunking, and the variances agree in
    mean with the dense fold over every root."""

    N_BOOT = 50

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("live_share", [0, 0.01, 0.1, 1])
    @pytest.mark.parametrize("num_levels", [1, 2, 5, 11])
    @pytest.mark.parametrize("n_roots", [2, 3, 17, 200, 701, 5_000, 33_333])
    def test_bytes_equal_across_chunk_sizes(self, monkeypatch, n_roots,
                                            num_levels, live_share, seed):
        aggregate = sparse_aggregate(n_roots, num_levels, live_share, seed)
        ratios = normalize_ratios(3, num_levels)
        expected = bootstrap_variance(aggregate, ratios, n_boot=self.N_BOOT,
                                      seed=seed).tobytes()
        live = max(1, int(aggregate.per_root_rows().any(axis=1).sum()))
        # Chunks of 7 replicates (7 does not divide N_BOOT), and of one
        # replicate when a chunk holds fewer than one replicate's draws.
        for cells in (7 * live, live - 1):
            monkeypatch.setattr(bootstrap_module, "_CHUNK_CELLS", cells)
            assert bootstrap_variance(
                aggregate, ratios, n_boot=self.N_BOOT,
                seed=seed).tobytes() == expected, cells

    def test_multiplicities_follow_the_dense_law(self):
        """n = 5 roots, 2 live: a replicate's draws of the two live roots
        are the first two cells of a Multinomial(5; 1/5, 1/5, 3/5).
        A chi-square over all 21 outcomes at a fixed seed, against the
        chi-square(20) 0.999 quantile."""
        replicates = 100_000
        counts = np.concatenate([block for _, block in
                                 bootstrap_module.live_multiplicities(
                                     np.random.default_rng(7), 5, 2,
                                     replicates)])
        assert counts.shape == (replicates, 2)
        outcomes = [(a, b) for a in range(6) for b in range(6 - a)]
        observed = np.array([np.count_nonzero(
            (counts[:, 0] == a) & (counts[:, 1] == b)) for a, b in outcomes])
        assert observed.sum() == replicates
        expected = replicates * np.array([
            math.comb(5, a) * math.comb(5 - a, b)
            * 0.2 ** (a + b) * 0.6 ** (5 - a - b)
            for a, b in outcomes])
        assert expected.sum() == pytest.approx(replicates)
        statistic = float(((observed - expected) ** 2 / expected).sum())
        assert statistic < CHI2_20_999

    def test_mean_variance_matches_dense_fold(self):
        """Over 300 seeds each, the mean variance of every prefix lies
        within 4 standard errors of the dense fold's mean."""
        aggregate = sparse_aggregate(200, 5, 0.1, seed=4)
        ratios = normalize_ratios(3, 5)
        seeds = range(300)
        thinned = np.array([bootstrap_variance(
            aggregate, ratios, n_boot=self.N_BOOT, seed=seed)
            for seed in seeds])
        dense = np.array([dense_bootstrap_variance(
            aggregate, ratios, n_boot=self.N_BOOT, seed=seed)
            for seed in seeds])
        error = np.sqrt((thinned.var(axis=0, ddof=1)
                         + dense.var(axis=0, ddof=1)) / len(seeds))
        assert (error > 0).all()
        assert (np.abs(thinned.mean(axis=0) - dense.mean(axis=0))
                <= 4 * error).all()

    def test_one_live_root(self):
        aggregate = ForestAggregate(3)
        aggregate.extend(make_cohort(
            3, n=500, hits=np.arange(500) == 123,
            landings=np.where(np.arange(500)[:, None] == 123, [0, 2, 1], 0),
            crossings=np.where(np.arange(500)[:, None] == 123,
                               [0, 4, 3], 0)))
        ratios = normalize_ratios(3, 3)
        variances = bootstrap_variance(aggregate, ratios, seed=8)
        assert variances[-1] > 0.0
        assert variances.tolist() == replicate_prefixes(
            aggregate, ratios, 200, seed=8).var(axis=0).tolist()

    def test_no_live_root_gives_zeros(self):
        aggregate = ForestAggregate(4)
        aggregate.extend(make_cohort(4, n=300))
        ratios = normalize_ratios(3, 4)
        variances = bootstrap_variance(aggregate, ratios, seed=2)
        assert variances.dtype == np.float64
        assert variances.tolist() == [0.0] * 4
        assert variances.tobytes() == dense_bootstrap_variance(
            aggregate, ratios, seed=2).tobytes()

    def test_no_live_root_still_checks_n_boot(self):
        aggregate = ForestAggregate(2)
        aggregate.extend(make_cohort(2, n=2))
        with pytest.raises(ValueError, match="n_boot"):
            bootstrap_variance(aggregate, (1, 3), n_boot=1)

    def test_one_root_gives_zeros_before_checking_n_boot(self):
        aggregate = ForestAggregate(2)
        aggregate.extend(make_cohort(2, n=1, hits=1, landings=[0, 1]))
        assert bootstrap_variance(aggregate, (1, 3), n_boot=1,
                                  seed=0).tolist() == [0.0, 0.0]


class TestChunkedDrawStream:
    """The chunking rests on one NumPy fact: a bounded-integer fill takes
    one 32-bit word per value from the bit generator's buffered stream,
    so the values drawn do not depend on how the calls are split, also
    after a ``binomial`` call.  A NumPy release that breaks this fails
    here first."""

    @pytest.mark.parametrize("n", [7, 700, 12_345, 2 ** 20 + 3])
    def test_one_block_equals_row_calls_and_one_flat_call(self, n):
        blocks = 3
        block = np.random.default_rng(21).integers(0, n, size=(blocks, n))
        rng = np.random.default_rng(21)
        rows = np.stack([rng.integers(0, n, size=n) for _ in range(blocks)])
        flat = np.random.default_rng(21).integers(0, n, size=blocks * n)
        assert np.array_equal(block, rows)
        assert np.array_equal(block.ravel(), flat)

    @pytest.mark.parametrize("n", [7, 700, 12_345])
    def test_split_after_binomial(self, n):
        first = np.random.default_rng(5)
        first.binomial(n, 0.3, size=9)
        whole = first.integers(0, n, size=3 * n)
        second = np.random.default_rng(5)
        second.binomial(n, 0.3, size=9)
        parts = np.concatenate([second.integers(0, n, size=size)
                                for size in (n - 1, 1, 2 * n)])
        assert np.array_equal(whole, parts)


class TestBootstrapMemory:
    def test_one_evaluation_traces_under_16_mb(self):
        """40,000 roots, 11 levels, 7% live (the share on rare-event
        answers), 200 replicates: a dense multiplicity matrix over every
        root traced about 122 MB here."""
        aggregate = sparse_aggregate(40_000, 11, 0.07, seed=3)
        ratios = normalize_ratios(3, 11)
        tracemalloc.start()
        try:
            bootstrap_variance(aggregate, ratios, n_boot=200, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2 ** 20, f"{peak / 2 ** 20:.1f} MB"
