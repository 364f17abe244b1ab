"""Per-root-path counters for splitting samplers, as matrices.

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
  boundary-``i`` reachability.
* ``steps`` — the simulation steps the tree consumed.

Level arrays are indexed ``0 .. m-1``; index 0 is unused (roots start
in ``L_0``; there are no landings into, skips over or splits in it).

The forest runner returns a cohort of trees as one
:class:`ForestCohort` — six ``int64`` arrays with one row per root — and
:class:`ForestAggregate` folds cohorts.  It keeps the run totals as
Python ints, and the per-root counters as one growing ``float64`` matrix
of ``3m + 1`` columns (landings, skips and crossings level by level,
then hits), exact for counts below ``2**53``.  The paper sums
independent root trees' counters (Section 3.1) and its bootstrap
(Section 4.2) resamples them, so a bootstrap replicate's totals are one
matrix product against the matrix's live rows (those not all zero;
:mod:`repro.core.bootstrap`), and nothing is re-simulated.  The
s-MLSS variance estimator (Eq. 6) needs less: it is the sample variance
of per-root hit (or landing) counts, which :class:`ForestAggregate`
keeps as running sums of squares, so both s-MLSS entry points check
their stopping rule after every batch in O(levels) time.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class ForestCohort(NamedTuple):
    """One cohort's per-root counters, one row per root in root order.

    All six arrays are ``int64``: ``landings``, ``skips`` and
    ``crossings`` are ``(n, m)``; ``hits``, ``max_levels`` and
    ``steps`` are ``(n,)``.  A pooled forest task returns its cohort as
    it is, so the counters cross the worker's result channel as six
    arrays.
    """

    landings: np.ndarray
    skips: np.ndarray
    crossings: np.ndarray
    hits: np.ndarray
    max_levels: np.ndarray
    steps: np.ndarray

    def rows(self, start: int, stop: int) -> "ForestCohort":
        """Roots ``start .. stop - 1`` of the cohort, as views."""
        return ForestCohort(*(column[start:stop] for column in self))


def counter_columns(matrix: np.ndarray, num_levels: int) -> tuple:
    """Split ``(B, 3m + 1)`` counter rows into their four kinds.

    Returns views ``(landings, skips, crossings, hits)``: three
    ``(B, m)`` level matrices and the ``(B,)`` hit column.  This is the
    one layout of :class:`ForestAggregate`'s per-root matrix, and of any
    product against it, such as a bootstrap replicate's totals.
    """
    m = num_levels
    return (matrix[:, :m], matrix[:, m:2 * m], matrix[:, 2 * m:3 * m],
            matrix[:, 3 * m])


class ForestAggregate:
    """Accumulated counters over many root trees.

    Maintains both run totals (for point estimates; Python ints) and
    per-root rows (for variance estimation and bootstrapping).
    """

    __slots__ = ("num_levels", "n_roots", "hits", "hits_sq_sum", "steps",
                 "landings", "landings_sq_sum", "skips", "crossings",
                 "_rows", "_max_levels")

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
        # Per-root rows, grown geometrically; the first n_roots are live.
        self._rows = np.zeros((0, 3 * num_levels + 1), dtype=np.float64)
        self._max_levels = np.zeros(0, dtype=np.int64)

    def extend(self, cohort: ForestCohort) -> None:
        """Fold one cohort of root trees in, in root order."""
        landings, skips, crossings, hits, max_levels, steps = cohort
        n = len(hits)
        if n == 0:
            return
        m = self.num_levels
        if landings.shape[1] != m:
            raise ValueError(
                f"cannot fold rows with {landings.shape[1]} levels into "
                f"an aggregate with {m}"
            )
        start = self.n_roots
        self.n_roots += n
        self.hits += int(hits.sum())
        self.hits_sq_sum += int(hits @ hits)
        self.steps += int(steps.sum())
        self.landings = _plus(self.landings, landings.sum(axis=0))
        self.landings_sq_sum = _plus(self.landings_sq_sum,
                                     (landings * landings).sum(axis=0))
        self.skips = _plus(self.skips, skips.sum(axis=0))
        self.crossings = _plus(self.crossings, crossings.sum(axis=0))
        if self.n_roots > len(self._rows):
            capacity = max(self.n_roots, 2 * len(self._rows))
            rows = np.empty((capacity, 3 * m + 1), dtype=np.float64)
            rows[:start] = self._rows[:start]
            levels = np.empty(capacity, dtype=np.int64)
            levels[:start] = self._max_levels[:start]
            self._rows, self._max_levels = rows, levels
        block = self._rows[start:self.n_roots]
        for column, counts in zip(counter_columns(block, m),
                                  (landings, skips, crossings, hits)):
            column[...] = counts
        self._max_levels[start:self.n_roots] = max_levels

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
        counts = np.bincount(self._max_levels[:self.n_roots],
                             minlength=self.num_levels + 1)
        # Suffix sum: reaching level j implies reaching every i <= j.
        return np.cumsum(counts[::-1])[::-1].tolist()

    def roots_funded(self, max_steps: int, cold_cost: float) -> float:
        """How many more root trees the steps left under ``max_steps``
        fund at this forest's measured steps per root (``cold_cost``
        steps per root before any step was measured); not rounded."""
        cost = self.steps / self.n_roots if self.steps else cold_cost
        return (max_steps - self.steps) / cost

    def per_root_rows(self) -> np.ndarray:
        """The ``(n_roots, 3 * num_levels + 1)`` per-root matrix (a view),
        laid out as :func:`counter_columns` reads it."""
        return self._rows[:self.n_roots]

    def per_root_matrices(self):
        """Per-root ``(landings, skips, crossings, hits)`` ``float64``
        views of :meth:`per_root_rows`.

        Shapes: ``(n_roots, num_levels)`` for the three level matrices
        and ``(n_roots,)`` for hits.
        """
        return counter_columns(self.per_root_rows(), self.num_levels)

    def __repr__(self) -> str:
        return (f"ForestAggregate(n_roots={self.n_roots}, hits={self.hits}, "
                f"steps={self.steps}, landings={self.landings}, "
                f"skips={self.skips})")


def _plus(totals: list, column_sums: np.ndarray) -> list:
    """Python-int running totals plus one cohort's column sums."""
    return [total + add for total, add in zip(totals, column_sums.tolist())]


def _sample_variance(total: int, sq_sum: int, n: int) -> float:
    """Unbiased sample variance of ``n`` counts from their running sums."""
    if n < 2:
        return 0.0
    mean = total / n
    return (sq_sum - n * mean * mean) / (n - 1)
