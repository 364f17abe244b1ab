"""Tests for per-root counter cohorts and forest aggregation."""

import numpy as np
import pytest

from repro.core.records import ForestAggregate, ForestCohort, counter_columns

from ..helpers import make_cohort


class TestForestCohort:
    def test_rows_slice_every_column(self):
        cohort = make_cohort(3, n=4, hits=[0, 1, 2, 3], steps=[5, 6, 7, 8],
                             landings=[[0, i, 2 * i] for i in range(4)])
        part = cohort.rows(1, 3)
        assert isinstance(part, ForestCohort)
        assert part.hits.tolist() == [1, 2]
        assert part.steps.tolist() == [6, 7]
        assert part.landings.tolist() == [[0, 1, 2], [0, 2, 4]]
        assert [column.shape[0] for column in part] == [2] * 6


class TestForestAggregate:
    def test_extend_accumulates_totals(self):
        agg = ForestAggregate(3)
        agg.extend(make_cohort(3, n=2, hits=[2, 0], steps=[10, 5],
                               landings=[[0, 1, 1], [0, 1, 0]],
                               skips=[[0, 0, 1], [0, 0, 0]],
                               crossings=[[0, 2, 1], [0, 0, 0]]))
        assert agg.n_roots == 2
        assert agg.hits == 2
        assert agg.steps == 15
        assert agg.landings == [0, 2, 1]
        assert agg.skips == [0, 0, 1]
        assert agg.crossings == [0, 2, 1]
        # Eq. 9's inputs stay Python ints.
        assert all(type(v) is int for v in
                   [agg.hits, agg.steps, *agg.landings, *agg.skips])

    def test_hits_sq_sum_tracks_squares(self):
        agg = ForestAggregate(2)
        agg.extend(make_cohort(2, n=3, hits=[3, 1, 0]))
        assert agg.hits_sq_sum == 9 + 1 + 0

    def test_hit_count_variance_matches_numpy(self):
        agg = ForestAggregate(2)
        counts = [0, 0, 3, 1, 0, 7, 2]
        agg.extend(make_cohort(2, n=len(counts), hits=counts))
        assert agg.hit_count_variance() == pytest.approx(
            np.var(counts, ddof=1))

    def test_landing_count_variance_matches_numpy(self):
        agg = ForestAggregate(3)
        counts = [0, 2, 1, 0, 4, 1]
        agg.extend(make_cohort(3, n=len(counts),
                               landings=[[0, c, 2 * c] for c in counts]))
        assert agg.landings_sq_sum == [0, sum(c * c for c in counts),
                                       sum(4 * c * c for c in counts)]
        assert agg.landing_count_variance(1) == pytest.approx(
            np.var(counts, ddof=1))
        assert agg.landing_count_variance(2) == pytest.approx(
            4 * np.var(counts, ddof=1))

    def test_hit_count_variance_degenerate(self):
        agg = ForestAggregate(2)
        assert agg.hit_count_variance() == 0.0
        agg.extend(make_cohort(2, hits=5))
        assert agg.hit_count_variance() == 0.0

    def test_per_root_matrices_shapes(self):
        agg = ForestAggregate(4)
        agg.extend(make_cohort(4, n=5))
        landings, skips, crossings, hits = agg.per_root_matrices()
        assert landings.shape == (5, 4)
        assert skips.shape == (5, 4)
        assert crossings.shape == (5, 4)
        assert hits.shape == (5,)
        assert agg.per_root_rows().shape == (5, 3 * 4 + 1)

    def test_per_root_matrices_empty(self):
        landings, skips, crossings, hits = ForestAggregate(3).per_root_matrices()
        assert landings.shape == (0, 3)
        assert hits.shape == (0,)

    def test_per_root_matrices_sum_to_totals(self):
        agg = ForestAggregate(3)
        agg.extend(make_cohort(3, n=2, hits=[1, 4],
                               landings=[[0, 2, 1], [0, 0, 2]],
                               skips=[[0, 1, 0], [0, 0, 2]],
                               crossings=[[0, 3, 1], [0, 1, 4]]))
        landings, skips, crossings, hits = agg.per_root_matrices()
        assert landings.sum(axis=0).tolist() == agg.landings
        assert skips.sum(axis=0).tolist() == agg.skips
        assert crossings.sum(axis=0).tolist() == agg.crossings
        assert hits.sum() == agg.hits

    def test_per_root_matrices_are_views_of_the_rows(self):
        agg = ForestAggregate(2)
        agg.extend(make_cohort(2, n=2, hits=[1, 2],
                               landings=[[0, 3], [0, 4]],
                               skips=[[0, 5], [0, 6]],
                               crossings=[[0, 7], [0, 8]]))
        rows = agg.per_root_rows()
        assert rows.dtype == np.float64
        assert rows.tolist() == [[0, 3, 0, 5, 0, 7, 1],
                                 [0, 4, 0, 6, 0, 8, 2]]
        for view, column in zip(agg.per_root_matrices(),
                                counter_columns(rows, 2)):
            assert np.shares_memory(view, rows)
            assert np.array_equal(view, column)

    def test_rows_survive_growth_in_order(self):
        """Many small folds regrow the matrix; the rows stay the
        cohorts' rows, in order."""
        agg = ForestAggregate(3)
        cohorts = [make_cohort(3, n=n, hits=np.arange(n) + k,
                               landings=[[0, k, n]] * n,
                               max_levels=np.arange(n) % 4)
                   for k, n in enumerate([1, 2, 3, 5, 8, 13])]
        for cohort in cohorts:
            agg.extend(cohort)
        landings, _, _, hits = agg.per_root_matrices()
        assert hits.tolist() == np.concatenate(
            [c.hits for c in cohorts]).tolist()
        assert landings.tolist() == np.concatenate(
            [c.landings for c in cohorts]).tolist()
        reach = np.concatenate([c.max_levels for c in cohorts])
        assert agg.level_reach_counts() == [
            int((reach >= i).sum()) for i in range(4)]

    def test_owner_runs_partition_the_cohort(self):
        """Folding contiguous owner runs of one cohort into their own
        aggregates (the fused fleet's per-owner fold) loses and repeats
        no root: the runs' rows and totals add up to the whole
        cohort's, and an empty run gets nothing."""
        cohort = make_cohort(3, n=5, hits=[0, 1, 2, 0, 3],
                             steps=[5, 9, 4, 7, 2],
                             landings=[[0, h, 1] for h in range(5)],
                             crossings=[[0, 1, h] for h in range(5)],
                             max_levels=[0, 1, 3, 2, 1])
        whole = ForestAggregate(3)
        whole.extend(cohort)
        parts = []
        for start, stop in [(0, 2), (2, 2), (2, 5)]:
            part = ForestAggregate(3)
            part.extend(cohort.rows(start, stop))
            parts.append(part)
        assert parts[1].n_roots == 0
        assert np.array_equal(
            np.concatenate([part.per_root_rows() for part in parts]),
            whole.per_root_rows())
        for name in ("n_roots", "hits", "hits_sq_sum", "steps"):
            assert sum(getattr(part, name) for part in parts) == getattr(
                whole, name)
        for name in ("landings", "landings_sq_sum", "skips", "crossings"):
            assert np.sum([getattr(part, name) for part in parts],
                          axis=0).tolist() == getattr(whole, name)
        assert np.sum([part.level_reach_counts() for part in parts],
                      axis=0).tolist() == whole.level_reach_counts()

    def test_total_skips(self):
        agg = ForestAggregate(3)
        agg.extend(make_cohort(3, skips=[0, 2, 1]))
        assert agg.total_skips == 3

    def test_rejects_zero_levels(self):
        with pytest.raises(ValueError):
            ForestAggregate(0)

    def test_rejects_cohort_of_other_levels(self):
        with pytest.raises(ValueError, match="levels"):
            ForestAggregate(3).extend(make_cohort(2))
