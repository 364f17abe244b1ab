"""Per-root-path bookkeeping for splitting samplers.

MLSS grows a tree of sample paths from every root path (Figure 1 in the
paper).  Everything both estimators need is a small set of counters per
root tree:

* ``hits`` — number of target hits in the tree (the paper's
  ``N_m^<k>`` for root ``k``);
* ``landings[i]`` — number of splitting states in level ``L_i``
  contributed by this tree (elements of ``H_i``);
* ``skips[i]`` — number of paths in this tree that crossed
  ``beta_{i+1}`` without landing in ``L_i`` (the paper's
  ``n_skip_i``);
* ``crossings[i]`` — total number of *direct* offspring of level-``i``
  splits that crossed ``beta_{i+1}``; with the per-level ratio ``r_i``
  this yields ``sum_{h in H_i} mu(h) = crossings[i] / r_i``.
* ``max_level`` — the highest level index any path of this tree ever
  reached (``m`` = the target).  This per-level maximum is what lets a
  single forest run answer a whole *grid* of thresholds at once: the
  fraction of trees with ``max_level >= i`` is a direct diagnostic of
  boundary-``i`` reachability, and the durability-curve machinery reads
  its per-threshold answers off the same records.

Keeping the counters per root (rather than only in aggregate) is what
makes the g-MLSS bootstrap (Section 4.2) possible without re-simulating
anything.  The s-MLSS variance estimator (Eq. 6) needs less: it is the
sample variance of per-root hit (or landing) counts, which
:class:`ForestAggregate` keeps as running sums of squares, so both
s-MLSS entry points check their stopping rule after every batch in
O(levels) time.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np


class RootRecord:
    """Counters for one root path's splitting tree.

    Arrays are indexed by level ``0 .. m-1``; index 0 is unused (roots
    start in ``L_0``; there are no landings into or skips over it).
    """

    __slots__ = ("hits", "steps", "landings", "skips", "crossings",
                 "max_level")

    def __init__(self, num_levels: int):
        self.hits = 0
        self.steps = 0
        self.landings = [0] * num_levels
        self.skips = [0] * num_levels
        self.crossings = [0] * num_levels
        self.max_level = 0

    def __repr__(self) -> str:
        return (f"RootRecord(hits={self.hits}, steps={self.steps}, "
                f"landings={self.landings}, skips={self.skips}, "
                f"crossings={self.crossings}, max_level={self.max_level})")


class ForestAggregate:
    """Accumulated counters over many root trees.

    Maintains both run totals (for point estimates) and per-root columns
    (for variance estimation and bootstrapping).
    """

    __slots__ = ("num_levels", "n_roots", "hits", "hits_sq_sum", "steps",
                 "landings", "landings_sq_sum", "skips", "crossings",
                 "root_hits", "root_landings", "root_skips",
                 "root_crossings", "root_max_levels")

    def __init__(self, num_levels: int):
        if num_levels < 1:
            raise ValueError(f"num_levels must be >= 1, got {num_levels}")
        self.num_levels = num_levels
        self.n_roots = 0
        self.hits = 0
        self.hits_sq_sum = 0  # running sum of squared per-root hits
        self.steps = 0
        self.landings = [0] * num_levels
        # Running sums of squared per-root landings, level by level.
        self.landings_sq_sum = [0] * num_levels
        self.skips = [0] * num_levels
        self.crossings = [0] * num_levels
        # Per-root storage (python lists; converted lazily to numpy).
        self.root_hits: List[int] = []
        self.root_landings: List[list] = []
        self.root_skips: List[list] = []
        self.root_crossings: List[list] = []
        self.root_max_levels: List[int] = []

    def add(self, record: RootRecord) -> None:
        """Fold one finished root tree into the aggregate."""
        self.n_roots += 1
        self.hits += record.hits
        self.hits_sq_sum += record.hits * record.hits
        self.steps += record.steps
        # Local names: this runs once per root tree, level by level.
        landings, squares = self.landings, self.landings_sq_sum
        skips, crossings = self.skips, self.crossings
        landed, skipped, crossed = (record.landings, record.skips,
                                    record.crossings)
        for i in range(1, self.num_levels):
            landings[i] += landed[i]
            squares[i] += landed[i] * landed[i]
            skips[i] += skipped[i]
            crossings[i] += crossed[i]
        self.root_hits.append(record.hits)
        self.root_landings.append(record.landings)
        self.root_skips.append(record.skips)
        self.root_crossings.append(record.crossings)
        self.root_max_levels.append(record.max_level)

    def extend(self, records: Iterable[RootRecord]) -> None:
        for record in records:
            self.add(record)

    def extend_arrays(self, landings, skips, crossings, hits,
                      max_levels, steps) -> None:
        """Fold per-root counter *arrays* in (the pooled-worker path).

        The arrays mirror one :class:`RootRecord` per row, as
        :func:`record_arrays` lays them out — the three
        ``(n, num_levels)`` level matrices plus the ``(n,)`` hit,
        max-level and step vectors — and folding them is
        element-for-element identical to calling :meth:`add` on the
        equivalent records.
        """
        landings = np.asarray(landings, dtype=np.int64)
        skips = np.asarray(skips, dtype=np.int64)
        crossings = np.asarray(crossings, dtype=np.int64)
        hits = np.asarray(hits, dtype=np.int64)
        n = len(hits)
        if n == 0:
            return
        if landings.shape[1] != self.num_levels:
            raise ValueError(
                f"cannot fold rows with {landings.shape[1]} levels into "
                f"an aggregate with {self.num_levels}"
            )
        self.n_roots += n
        self.hits += int(hits.sum())
        self.hits_sq_sum += int((hits * hits).sum())
        self.steps += int(np.asarray(steps).sum())
        landing_totals = landings.sum(axis=0)
        landing_sq_totals = (landings * landings).sum(axis=0)
        skip_totals = skips.sum(axis=0)
        crossing_totals = crossings.sum(axis=0)
        for i in range(1, self.num_levels):
            self.landings[i] += int(landing_totals[i])
            self.landings_sq_sum[i] += int(landing_sq_totals[i])
            self.skips[i] += int(skip_totals[i])
            self.crossings[i] += int(crossing_totals[i])
        self.root_hits.extend(hits.tolist())
        self.root_landings.extend(landings.tolist())
        self.root_skips.extend(skips.tolist())
        self.root_crossings.extend(crossings.tolist())
        self.root_max_levels.extend(
            np.asarray(max_levels, dtype=np.int64).tolist())

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    @property
    def total_skips(self) -> int:
        return sum(self.skips)

    def hit_count_variance(self) -> float:
        """Unbiased sample variance of per-root hit counts (Eq. 6).

        Computed from running sums, so checking the stopping rule after
        every batch stays O(1) regardless of how many roots have run.
        """
        return _sample_variance(self.hits, self.hits_sq_sum, self.n_roots)

    def landing_count_variance(self, level: int) -> float:
        """Unbiased sample variance of per-root landings in ``L_level``,
        from running sums like :meth:`hit_count_variance`."""
        return _sample_variance(self.landings[level],
                                self.landings_sq_sum[level], self.n_roots)

    def level_reach_counts(self) -> list:
        """``counts[i]`` = number of root trees whose paths ever reached
        level ``i`` (index ``num_levels`` = the target).

        Derived from the per-root ``max_level`` bookkeeping; the
        fraction ``counts[i] / n_roots`` estimates the probability of
        ever crossing boundary ``beta_i``, which is what the
        durability-curve readers consume.
        """
        counts = [0] * (self.num_levels + 1)
        for level in self.root_max_levels:
            counts[level] += 1
        # Suffix-sum: reaching level j implies reaching every i <= j.
        for i in range(self.num_levels - 1, -1, -1):
            counts[i] += counts[i + 1]
        return counts

    def per_root_matrices(self):
        """Per-root ``(landings, skips, crossings, hits)`` numpy arrays.

        Shapes: ``(n_roots, num_levels)`` for the three level matrices
        and ``(n_roots,)`` for hits.  Used by the bootstrap.
        """
        shape = (self.n_roots, self.num_levels)
        landings = np.asarray(self.root_landings, dtype=np.float64)
        skips = np.asarray(self.root_skips, dtype=np.float64)
        crossings = np.asarray(self.root_crossings, dtype=np.float64)
        if self.n_roots == 0:
            landings = landings.reshape(shape)
            skips = skips.reshape(shape)
            crossings = crossings.reshape(shape)
        return (landings, skips, crossings,
                np.asarray(self.root_hits, dtype=np.float64))

    def __repr__(self) -> str:
        return (f"ForestAggregate(n_roots={self.n_roots}, hits={self.hits}, "
                f"steps={self.steps}, landings={self.landings}, "
                f"skips={self.skips})")


def record_arrays(records: Sequence[RootRecord], num_levels: int) -> tuple:
    """One cohort's records as the arrays :meth:`ForestAggregate.
    extend_arrays` folds.

    Returns ``(landings, skips, crossings, hits, max_levels, steps)``,
    all ``int64``: ``(len(records), num_levels)`` level matrices and
    ``(len(records),)`` vectors, one row per record in order.  A pooled
    forest task returns its counters in this form, so they cross the
    worker's result channel as six arrays rather than as pickled
    records.
    """
    shape = (len(records), num_levels)
    return (
        np.array([r.landings for r in records],
                 dtype=np.int64).reshape(shape),
        np.array([r.skips for r in records], dtype=np.int64).reshape(shape),
        np.array([r.crossings for r in records],
                 dtype=np.int64).reshape(shape),
        np.array([r.hits for r in records], dtype=np.int64),
        np.array([r.max_level for r in records], dtype=np.int64),
        np.array([r.steps for r in records], dtype=np.int64))


def _sample_variance(total: int, sq_sum: int, n: int) -> float:
    """Unbiased sample variance of ``n`` counts from their running sums."""
    if n < 2:
        return 0.0
    mean = total / n
    return (sq_sum - n * mean * mean) / (n - 1)


def fold_records_by_owner(records, owners, aggregates) -> None:
    """Fold one cohort's records into per-owner aggregates, in order.

    ``owners[j]`` names the aggregate that owns root ``j`` of the
    cohort — the bookkeeping behind fused fleet rounds with
    *non-uniform* per-member root allocation, where a cohort is laid
    out as contiguous owner runs of varying length instead of equal
    slices.  Folding is element-for-element identical to calling
    :meth:`ForestAggregate.add` on each owner's records separately, so
    per-owner estimates stay exchangeable with per-owner forests.
    """
    if len(records) != len(owners):
        raise ValueError(
            f"{len(records)} records for {len(owners)} owners")
    for record, owner in zip(records, owners):
        aggregates[owner].add(record)
