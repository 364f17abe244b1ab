"""The splitting-forest simulator shared by s-MLSS and g-MLSS.

Both MLSS variants run exactly the same simulation (Sections 3.1 and
4.1): root paths start in ``L_0``; whenever a path first reaches a level
above the one it was born in, it stops and spawns ``r`` offspring from
the entrance state; offspring that reach higher levels split in turn.
The variants differ only in how the resulting counters are folded into
an estimate — which is why "blindly applying s-MLSS" to a process with
level skipping (the paper's Table 6) is literally reading the same run
through the wrong formula.

Bookkeeping per path (born at level ``b``):

* lands in level ``j > b`` (value in ``[beta_j, beta_{j+1})``):
  ``landings[j] += 1``; skipped levels ``k in (b, j)`` get
  ``skips[k] += 1``; the path splits into ``r_j`` offspring.
* hits the target (value ``>= 1``): ``hits += 1``; skipped levels
  ``k in (b, m)`` get ``skips[k] += 1``.
* either way the path *crossed* ``beta_{b+1}``, which increments its
  parent split's crossing counter (the numerator of ``mu(h)``).
* reaches the horizon without leaving level ``b``: nothing to record.

:class:`VectorizedForestRunner` simulates a whole cohort of root trees
breadth-first in time: every live path (roots and offspring alike)
steps through one ``step_batch`` call per time index, and a process
without ``step_batch`` runs inside a
:class:`~repro.processes.base.ScalarFallback`.  Nothing runs in Python
per root or per event.  Each time step scores the frontier, classifies
it with one ``searchsorted`` against the edges ``beta_1 .. beta_{m-1},
1`` (a path's level is the number of edges at or below its score, so
level ``m`` is a hit), and takes the events as ``level > born``.  The
event rows' root, birth level, level and segment age are appended to
per-cohort arrays, and their offspring join the frontier.  After the
last step one fold turns those arrays into the cohort's per-root
counters with ``bincount``: a :class:`~repro.core.records.ForestCohort`
of six ``int64`` arrays.  An offspring's parent split is always its
root's split at its birth level, so crossings need no split table.

Under a :class:`~repro.core.value_functions.ThresholdValueFunction`
the runner classifies in *z-space*: it compares raw ``z`` with the
least floats whose scores reach each edge
(:meth:`~repro.core.value_functions.ThresholdValueFunction.
z_boundaries`), which gives exactly the levels of the score
``min(z / beta, 1)`` with no divide and no clip per step.  When the
process reports ``z`` at every state
(:meth:`~repro.processes.base.VectorizedProcess.z_by_state`: a Markov
chain under its own ``state_value`` or ``state_index``), every state
is classified once and each step looks its levels up by state, with
no ``z`` and no search.  Other value functions are classified on their
scores.  Either way a NaN score is no hit and lands on the top
interior level (reported ``z`` values are finite).

The runner keeps its live frontier in preallocated,
geometrically-grown buffers (:class:`_Frontier`) and steps processes
that support it in place (``step_batch(..., out=...)``), so huge
cohorts churn almost no allocations per time step.
"""

from __future__ import annotations

import functools

import numpy as np

from ..processes.base import as_vectorized, resolve_batch_z
from .levels import LevelPartition, normalize_ratios
from .records import ForestCohort
from .value_functions import (TARGET_VALUE, DurabilityQuery,
                              ThresholdValueFunction, batch_values)


class _Frontier:
    """Preallocated live-path arrays for the forest runner.

    The frontier — every live path segment's state plus its root index,
    birth level and birth time — changes size on every splitting event.
    Rebuilding it with ``numpy.concatenate`` allocates fresh arrays per
    event; this helper instead keeps *buffers* with spare capacity
    (grown geometrically) and compacts survivors + offspring into them
    in place.  Combined with the in-place ``step_batch(..., out=...)``
    fast path, the hot loop of a large cohort allocates almost nothing
    per time step.

    State buffering engages only for processes with ``supports_out``
    over value-typed arrays (in-place stepping needs a stable buffer);
    otherwise states stay exact-size arrays while the three int arrays
    still reuse their buffers.
    """

    def __init__(self, process, n_roots: int, initial_states=None):
        self.process = process
        if initial_states is None:
            self.states = process.initial_states(n_roots)
        else:
            if len(initial_states) != n_roots:
                raise ValueError(
                    f"{len(initial_states)} initial states for "
                    f"{n_roots} roots")
            self.states = initial_states
        self.size = n_roots
        self._buffered_states = (process.supports_out
                                 and getattr(self.states, "dtype", None)
                                 is not None
                                 and self.states.dtype != object)
        self.roots = np.arange(n_roots, dtype=np.int64)
        self.born = np.zeros(n_roots, dtype=np.int64)
        self.since = np.zeros(n_roots, dtype=np.int64)

    def live_states(self) -> np.ndarray:
        if self._buffered_states:
            return self.states[:self.size]
        return self.states

    def live_meta(self):
        """Views of the live ``(roots, born, since)`` rows: each
        segment's root, birth level and birth time."""
        n = self.size
        return self.roots[:n], self.born[:n], self.since[:n]

    def advance(self, t: int, rng) -> np.ndarray:
        """Step every live path; returns the (possibly in-place) states."""
        view = self.live_states()
        if self._buffered_states:
            return self.process.step_batch(view, t, rng, out=view)
        self.states = self.process.step_batch(view, t, rng)
        return self.states

    @staticmethod
    def _fold_into(buffer: np.ndarray, live: np.ndarray, keep,
                   appended, total: int) -> np.ndarray:
        """Compact the ``keep`` rows of ``live``, then ``appended`` (rows,
        or one value for every appended row), into ``buffer``, growing it
        geometrically when capacity runs out; returns the buffer."""
        if total > len(buffer):
            shape = (max(total, 2 * len(buffer)),) + buffer.shape[1:]
            buffer = np.empty(shape, dtype=buffer.dtype)
        n_kept = len(keep)
        # The fancy-indexed read allocates a temporary, so writing into
        # the same buffer's prefix is safe.
        buffer[:n_kept] = live[keep]
        if total > n_kept:
            buffer[n_kept:total] = appended
        return buffer

    def rebuild(self, keep, offspring, offspring_roots, offspring_born,
                t: int) -> None:
        """Replace the frontier by its ``keep`` rows plus the offspring
        spawned at time ``t`` (``offspring`` is None when there are
        none)."""
        live_states = self.live_states()
        roots, born, since = self.live_meta()
        total = len(keep) + len(offspring_roots)
        if self._buffered_states:
            self.states = self._fold_into(self.states, live_states, keep,
                                          offspring, total)
        elif offspring is not None:
            self.states = np.concatenate([live_states[keep], offspring])
        else:
            self.states = live_states[keep]
        self.roots = self._fold_into(self.roots, roots, keep,
                                     offspring_roots, total)
        self.born = self._fold_into(self.born, born, keep, offspring_born,
                                    total)
        self.since = self._fold_into(self.since, since, keep, t, total)
        self.size = total


class LevelPlanError(ValueError):
    """Raised when a partition plan is inconsistent with the query."""


def validate_plan(query: DurabilityQuery,
                  partition: LevelPartition) -> None:
    """Check a partition plan is usable for the query's initial state."""
    initial_value = query.initial_value()
    if initial_value >= TARGET_VALUE:
        raise LevelPlanError(
            "initial state already satisfies the query; the answer "
            "is trivially 1"
        )
    if partition.boundaries and partition.boundaries[0] <= initial_value:
        raise LevelPlanError(
            f"boundary {partition.boundaries[0]} does not exceed the "
            f"initial state's value {initial_value}; prune the plan "
            f"with partition.pruned_above(initial_value)"
        )


def _fold_events(n_roots: int, m: int, roots, born, levels, ages,
                 end_roots, end_ages) -> ForestCohort:
    """A cohort's counters from its path segments.

    Event ``j`` ended a segment of root ``roots[j]``, born at level
    ``born[j]``, when it reached level ``levels[j] > born[j]`` (``m`` is
    the target) after ``ages[j]`` steps; ``end_roots`` / ``end_ages``
    are the segments still live at the horizon.  Everything is a
    ``bincount`` over (root, level) cells, so no Python runs per root
    or per event.
    """
    width = m + 1
    cells = n_roots * width
    reached = np.bincount(roots * width + levels,
                          minlength=cells).reshape(n_roots, width)
    # A segment skips every level strictly between its birth level and
    # the level it reached: +1 from born + 1 on, -1 from the level on.
    starts = np.bincount(roots * width + born + 1,
                         minlength=cells).reshape(n_roots, width)
    skips = np.cumsum(starts - reached, axis=1)[:, :m]
    # A segment born in a split crossed the boundary above its birth
    # level, which counts for its parent split: its root's split at that
    # level.  Roots are born in L_0, whose column is unused.
    crossings = np.bincount(roots * m + born,
                            minlength=n_roots * m).reshape(n_roots, m)
    crossings[:, 0] = 0
    max_levels = np.zeros(n_roots, dtype=np.int64)
    np.maximum.at(max_levels, roots, levels)
    steps = np.bincount(np.concatenate([roots, end_roots]),
                        np.concatenate([ages, end_ages]),
                        minlength=n_roots).astype(np.int64)
    return ForestCohort(reached[:, :m], skips, crossings, reached[:, m],
                        max_levels, steps)


class VectorizedForestRunner:
    """Batched splitting-forest simulation over a vectorized process.

    Simulates whole *cohorts* of root trees in lock-step: at each time
    index every live path — root segments and all spawned offspring —
    advances through one :meth:`VectorizedProcess.step_batch` call.
    Offspring spawned at time ``t`` join the frontier and take their
    first step at ``t + 1``.

    Parameters
    ----------
    query:
        The durability query (process, value function, horizon).
        Non-vectorized processes are wrapped in a
        :class:`~repro.processes.base.ScalarFallback` automatically.
    partition:
        Level partition plan ``B``.  Every boundary must exceed the
        initial state's value; use ``partition.pruned_above(...)`` or
        let the engine do it.
    ratios:
        Fixed splitting ratio ``r`` (int) or per-level ratios for
        ``L_1 .. L_{m-1}``.
    rng:
        The :class:`numpy.random.Generator` driving all simulation.
    """

    def __init__(self, query: DurabilityQuery, partition: LevelPartition,
                 ratios, rng: np.random.Generator):
        validate_plan(query, partition)
        self.query = query
        self.partition = partition
        self.ratios = normalize_ratios(ratios, partition.num_levels)
        self.rng = rng
        self.process = as_vectorized(query.process)
        self._ratios = np.asarray(self.ratios, dtype=np.int64)
        value_fn = query.value_function
        # The classification edges: the interior boundaries, then the
        # target.  A score's level is the number of edges at or below it,
        # so level m is a hit.
        edges = partition.boundaries + (TARGET_VALUE,)
        self._state_levels = None
        if isinstance(value_fn, ThresholdValueFunction):
            batch_z = resolve_batch_z(value_fn.z)
            self._score = lambda states, t: np.asarray(batch_z(states),
                                                       dtype=np.float64)
            self._edges = value_fn.z_boundaries(edges)
            z_by_state = self.process.z_by_state(value_fn.z)
            if z_by_state is not None:
                # States index a table of z: classify every state once.
                self._state_levels = self._edges.searchsorted(z_by_state,
                                                              "right")
        else:
            self._score = functools.partial(batch_values, value_fn)
            self._edges = np.asarray(edges, dtype=np.float64)

    def run_cohort(self, n_roots: int, initial_states=None) -> ForestCohort:
        """Simulate ``n_roots`` root trees; their counters, one row each.

        ``initial_states`` overrides the process's default time-0
        cohort with an explicit state array (one row per root, in root
        order) — the hook :meth:`accumulate` uses to compose a fused
        fleet's cohort with *non-uniform* per-member root counts
        (:meth:`~repro.processes.base.FusedBatch.initial_states_for`).
        """
        if n_roots < 0:
            raise ValueError(f"n_roots must be >= 0, got {n_roots}")
        process = self.process
        horizon = self.query.horizon
        m = self.partition.num_levels
        score, classify = self._score, self._edges.searchsorted
        state_levels = self._state_levels
        ratios, rng = self._ratios, self.rng
        frontier = _Frontier(process, n_roots, initial_states=initial_states)
        empty = np.zeros(0, dtype=np.int64)
        # One entry per time step with events: the event rows' roots,
        # birth levels, levels reached and segment ages (an empty entry
        # first, so a cohort without events folds too).
        events = [(empty, empty, empty, empty)]

        for t in range(1, horizon + 1):
            if not frontier.size:
                break
            states = frontier.advance(t, rng)
            roots, born, since = frontier.live_meta()
            if state_levels is None:
                scores = score(states, t)
                levels = classify(scores, "right")
            else:
                levels = state_levels[states]
            event = levels > born
            rows = event.nonzero()[0]
            if not rows.size:
                continue
            level = levels[rows]
            split = level < m
            n_split = np.count_nonzero(split)
            if (n_split < rows.size and state_levels is None
                    and np.isnan(scores[rows]).any()):
                # NaN sorts past the target edge, but a NaN score is no
                # hit: it lands on the top interior level.
                levels[np.isnan(scores)] = m - 1
                event = levels > born
                rows = event.nonzero()[0]
                level = levels[rows]
                split = level < m
                n_split = np.count_nonzero(split)
            event_roots = roots[rows]
            events.append((event_roots, born[rows], level,
                           t - since[rows]))
            keep = (~event).nonzero()[0]
            if t < horizon and n_split:
                # Landing at the horizon leaves offspring no time:
                # mu(h) = 0, recorded by the split's zero crossings.
                split_level = level[split]
                counts = ratios[split_level]
                offspring = process.replicate(states, rows[split], counts)
                frontier.rebuild(keep, offspring,
                                 event_roots[split].repeat(counts),
                                 split_level.repeat(counts), t)
            else:
                frontier.rebuild(keep, None, empty, empty, t)

        roots, born, levels, ages = map(np.concatenate, zip(*events))
        end_roots, _, end_since = frontier.live_meta()
        return _fold_events(n_roots, m, roots, born, levels, ages,
                            end_roots, horizon - end_since)

    def accumulate(self, aggregates, sizes, max_steps=None,
                   max_roots=None) -> list:
        """Fold up to ``sizes[j]`` more trees into ``aggregates[j]``.

        The members' trees run as one cohort: with one member, of the
        process's own initial states; with more, of the fused batch's
        owner runs (:meth:`~repro.processes.base.FusedBatch.
        initial_states_for`), each run folding into its owner's
        aggregate.  Budgets are per member and enforced at cohort
        granularity: every started tree runs to completion (truncating
        would bias the counters), so ``max_steps`` can overshoot by at
        most one cohort.  Returns, per member, whether its budget is
        exhausted (a member given no trees counts as exhausted).
        """
        counts = []
        for aggregate, size in zip(aggregates, sizes):
            if max_roots is not None:
                size = min(size, max_roots - aggregate.n_roots)
            if max_steps is not None and aggregate.steps >= max_steps:
                size = 0
            counts.append(max(size, 0))
        if sum(counts):
            cohort = self.run_cohort(
                sum(counts), initial_states=None if len(counts) == 1
                else self.process.initial_states_for(counts))
            start = 0
            for aggregate, count in zip(aggregates, counts):
                aggregate.extend(cohort.rows(start, start + count))
                start += count
        return [count == 0
                or (max_roots is not None
                    and aggregate.n_roots >= max_roots)
                or (max_steps is not None
                    and aggregate.steps >= max_steps)
                for aggregate, count in zip(aggregates, counts)]
