"""Tests for per-root records and forest aggregation."""

import numpy as np
import pytest

from repro.core.records import ForestAggregate, RootRecord, record_arrays


def make_record(num_levels, hits=0, steps=0, landings=None, skips=None,
                crossings=None):
    record = RootRecord(num_levels)
    record.hits = hits
    record.steps = steps
    if landings:
        record.landings = list(landings)
    if skips:
        record.skips = list(skips)
    if crossings:
        record.crossings = list(crossings)
    return record


class TestRootRecord:
    def test_initialises_zeroed(self):
        record = RootRecord(3)
        assert record.hits == 0
        assert record.landings == [0, 0, 0]
        assert record.skips == [0, 0, 0]
        assert record.crossings == [0, 0, 0]

    def test_repr_contains_counters(self):
        record = make_record(2, hits=3)
        assert "hits=3" in repr(record)


class TestForestAggregate:
    def test_add_accumulates_totals(self):
        agg = ForestAggregate(3)
        agg.add(make_record(3, hits=2, steps=10, landings=[0, 1, 1],
                            skips=[0, 0, 1], crossings=[0, 2, 1]))
        agg.add(make_record(3, hits=0, steps=5, landings=[0, 1, 0]))
        assert agg.n_roots == 2
        assert agg.hits == 2
        assert agg.steps == 15
        assert agg.landings == [0, 2, 1]
        assert agg.skips == [0, 0, 1]
        assert agg.crossings == [0, 2, 1]

    def test_hits_sq_sum_tracks_squares(self):
        agg = ForestAggregate(2)
        agg.extend([make_record(2, hits=3), make_record(2, hits=1),
                    make_record(2, hits=0)])
        assert agg.hits_sq_sum == 9 + 1 + 0

    def test_hit_count_variance_matches_numpy(self):
        agg = ForestAggregate(2)
        counts = [0, 0, 3, 1, 0, 7, 2]
        agg.extend([make_record(2, hits=h) for h in counts])
        assert agg.hit_count_variance() == pytest.approx(
            np.var(counts, ddof=1))

    def test_landing_count_variance_matches_numpy(self):
        agg = ForestAggregate(3)
        counts = [0, 2, 1, 0, 4, 1]
        agg.extend([make_record(3, landings=[0, c, 2 * c]) for c in counts])
        assert agg.landings_sq_sum == [0, sum(c * c for c in counts),
                                       sum(4 * c * c for c in counts)]
        assert agg.landing_count_variance(1) == pytest.approx(
            np.var(counts, ddof=1))
        assert agg.landing_count_variance(2) == pytest.approx(
            4 * np.var(counts, ddof=1))

    def test_hit_count_variance_degenerate(self):
        agg = ForestAggregate(2)
        assert agg.hit_count_variance() == 0.0
        agg.add(make_record(2, hits=5))
        assert agg.hit_count_variance() == 0.0

    def test_per_root_matrices_shapes(self):
        agg = ForestAggregate(4)
        agg.extend([make_record(4) for _ in range(5)])
        landings, skips, crossings, hits = agg.per_root_matrices()
        assert landings.shape == (5, 4)
        assert skips.shape == (5, 4)
        assert crossings.shape == (5, 4)
        assert hits.shape == (5,)

    def test_per_root_matrices_empty(self):
        landings, skips, crossings, hits = ForestAggregate(3).per_root_matrices()
        assert landings.shape == (0, 3)
        assert hits.shape == (0,)

    def test_per_root_matrices_sum_to_totals(self):
        agg = ForestAggregate(3)
        agg.extend([
            make_record(3, hits=1, landings=[0, 2, 1], skips=[0, 1, 0],
                        crossings=[0, 3, 1]),
            make_record(3, hits=4, landings=[0, 0, 2], skips=[0, 0, 2],
                        crossings=[0, 1, 4]),
        ])
        landings, skips, crossings, hits = agg.per_root_matrices()
        assert landings.sum(axis=0).tolist() == agg.landings
        assert skips.sum(axis=0).tolist() == agg.skips
        assert crossings.sum(axis=0).tolist() == agg.crossings
        assert hits.sum() == agg.hits

    def test_total_skips(self):
        agg = ForestAggregate(3)
        agg.add(make_record(3, skips=[0, 2, 1]))
        assert agg.total_skips == 3

    def test_rejects_zero_levels(self):
        with pytest.raises(ValueError):
            ForestAggregate(0)


class TestRecordArrays:
    """Records through :func:`record_arrays` into ``extend_arrays`` (the
    pooled forest's transport) fold exactly as ``extend`` folds them."""

    @pytest.mark.parametrize("n", [0, 1, 6])
    def test_round_trip_equals_extend(self, n):
        records = [make_record(3, hits=i % 3, steps=10 * i + 1,
                               landings=[0, i + 1, i % 2],
                               skips=[0, i, 2], crossings=[0, 2 * i, i])
                   for i in range(n)]
        for i, record in enumerate(records):
            record.max_level = i % 4
        arrays = record_arrays(records, 3)
        assert [a.shape for a in arrays] == [(n, 3)] * 3 + [(n,)] * 3
        assert all(a.dtype == np.int64 for a in arrays)

        folded = ForestAggregate(3)
        folded.extend_arrays(*arrays)
        reference = ForestAggregate(3)
        reference.extend(records)
        # Every total, running sum of squares and per-root list.
        for name in ForestAggregate.__slots__:
            assert getattr(folded, name) == getattr(reference, name), name


class TestFoldRecordsByOwner:
    def test_matches_separate_per_owner_folds(self):
        from repro.core.records import fold_records_by_owner
        records = [make_record(3, hits=h, steps=s,
                               landings=[h, 1, 0], crossings=[1, h, 0])
                   for h, s in ((0, 5), (1, 9), (2, 4), (0, 7), (3, 2))]
        owners = [0, 0, 1, 2, 2]
        fused = [ForestAggregate(3) for _ in range(3)]
        fold_records_by_owner(records, owners, fused)
        separate = [ForestAggregate(3) for _ in range(3)]
        for owner, aggregate in enumerate(separate):
            aggregate.extend([r for r, o in zip(records, owners)
                              if o == owner])
        for ours, theirs in zip(fused, separate):
            assert ours.n_roots == theirs.n_roots
            assert ours.hits == theirs.hits
            assert ours.steps == theirs.steps
            assert ours.landings == theirs.landings
            assert ours.crossings == theirs.crossings

    def test_empty_owner_gets_nothing(self):
        from repro.core.records import fold_records_by_owner
        aggregates = [ForestAggregate(2), ForestAggregate(2)]
        fold_records_by_owner([make_record(2, hits=1)], [1], aggregates)
        assert aggregates[0].n_roots == 0
        assert aggregates[1].n_roots == 1

    def test_rejects_length_mismatch(self):
        from repro.core.records import fold_records_by_owner
        with pytest.raises(ValueError, match="owners"):
            fold_records_by_owner([make_record(2)], [0, 1],
                                  [ForestAggregate(2)])
