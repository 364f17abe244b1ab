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
:class:`~repro.processes.base.ScalarFallback`.  Splitting events are
processed per event — rare next to steps — so the hot loop stays
NumPy-level.  Per-root counters are collected into
:class:`RootRecord` objects for the estimators and the bootstrap.

The runner keeps its live frontier in preallocated,
geometrically-grown buffers (:class:`_Frontier`) and steps processes
that support it in place (``step_batch(..., out=...)``), so huge
cohorts churn almost no allocations per time step.
"""

from __future__ import annotations

import numpy as np

from ..processes.base import as_vectorized
from .levels import LevelPartition, normalize_ratios
from .records import RootRecord
from .value_functions import TARGET_VALUE, DurabilityQuery, batch_values


class _Frontier:
    """Preallocated live-path arrays for the vectorized forest runner.

    The frontier — every live path segment's state plus its root index,
    birth level and parent split slot — changes size on every splitting
    event.  Rebuilding it with ``numpy.concatenate`` allocates four
    fresh arrays per event; this helper instead keeps *buffers* with
    spare capacity (grown geometrically) and compacts survivors +
    offspring into them in place.  Combined with the in-place
    ``step_batch(..., out=...)`` fast path, the hot loop of a large
    cohort allocates almost nothing per time step.

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
        self.roots = np.arange(n_roots)
        self.born = np.zeros(n_roots, dtype=np.int64)
        self.parents = np.full(n_roots, -1, dtype=np.int64)

    def live_states(self) -> np.ndarray:
        if self._buffered_states:
            return self.states[:self.size]
        return self.states

    def live_meta(self):
        """Views of the live ``(roots, born, parents)`` rows."""
        n = self.size
        return self.roots[:n], self.born[:n], self.parents[:n]

    def advance(self, t: int, rng) -> np.ndarray:
        """Step every live path; returns the (possibly in-place) states."""
        view = self.live_states()
        if self._buffered_states:
            return self.process.step_batch(view, t, rng, out=view)
        self.states = self.process.step_batch(view, t, rng)
        return self.states

    @staticmethod
    def _fold_into(buffer: np.ndarray, live: np.ndarray, survivors,
                   appended, total: int) -> np.ndarray:
        """Compact survivors + appended rows into ``buffer``, growing it
        geometrically when capacity runs out; returns the buffer."""
        n_appended = len(appended) if appended is not None else 0
        n_survivors = total - n_appended
        if total > len(buffer):
            shape = (max(total, 2 * len(buffer)),) + buffer.shape[1:]
            buffer = np.empty(shape, dtype=buffer.dtype)
        # The fancy-indexed read allocates a temporary, so writing into
        # the same buffer's prefix is safe.
        buffer[:n_survivors] = live[survivors]
        if n_appended:
            buffer[n_survivors:total] = appended
        return buffer

    def rebuild(self, survivors, offspring, offspring_roots,
                offspring_born, offspring_parents) -> None:
        """Replace the frontier by its survivors plus spawned offspring."""
        n_offspring = len(offspring) if offspring is not None else 0
        live_states = self.live_states()
        roots, born, parents = self.live_meta()
        total = int(np.count_nonzero(survivors)) + n_offspring
        if self._buffered_states:
            self.states = self._fold_into(self.states, live_states,
                                          survivors, offspring, total)
        elif n_offspring:
            self.states = np.concatenate(
                [live_states[survivors], offspring])
        else:
            self.states = live_states[survivors]
        self.roots = self._fold_into(self.roots, roots, survivors,
                                     offspring_roots, total)
        self.born = self._fold_into(self.born, born, survivors,
                                    offspring_born, total)
        self.parents = self._fold_into(self.parents, parents, survivors,
                                       offspring_parents, total)
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
        self._bounds = np.asarray(partition.boundaries, dtype=np.float64)

    def run_cohort(self, n_roots: int, initial_states=None) -> list:
        """Simulate ``n_roots`` root trees; one :class:`RootRecord` each.

        ``initial_states`` overrides the process's default time-0
        cohort with an explicit state array (one row per root, in root
        order) — the hook the fused fleet pass uses to compose a
        cohort with *non-uniform* per-member root counts
        (:meth:`~repro.processes.base.FusedBatch.initial_states_for`).
        """
        if n_roots < 0:
            raise ValueError(f"n_roots must be >= 0, got {n_roots}")
        if n_roots == 0:
            return []
        process = self.process
        value_fn = self.query.value_function
        horizon = self.query.horizon
        num_levels = self.partition.num_levels
        bounds = self._bounds
        ratios = self.ratios
        rng = self.rng

        records = [RootRecord(num_levels) for _ in range(n_roots)]
        steps_per_root = np.zeros(n_roots, dtype=np.int64)
        # Per-split crossing counters: splits[slot] = [root, level, crossed].
        splits = []

        # Preallocated frontier buffers, one row per live path segment.
        frontier = _Frontier(process, n_roots,
                             initial_states=initial_states)

        for t in range(1, horizon + 1):
            if not frontier.size:
                break
            states = frontier.advance(t, rng)
            roots, born, parents = frontier.live_meta()
            steps_per_root += np.bincount(roots, minlength=n_roots)
            values = batch_values(value_fn, states, t)
            hit = values >= TARGET_VALUE
            levels = np.searchsorted(bounds, values, side="right")
            promoted = ~hit & (levels > born)
            event = hit | promoted
            if not event.any():
                continue

            # Events (hits and promotions) are rare relative to steps;
            # handle them path by path while the frontier stays batched.
            spawn_rows, spawn_slots, spawn_levels = [], [], []
            for i in np.nonzero(event)[0]:
                record = records[roots[i]]
                level_born = born[i]
                if hit[i]:
                    record.hits += 1
                    record.max_level = num_levels
                    for k in range(level_born + 1, num_levels):
                        record.skips[k] += 1
                else:
                    level = int(levels[i])
                    if level > record.max_level:
                        record.max_level = level
                    for k in range(level_born + 1, level):
                        record.skips[k] += 1
                    record.landings[level] += 1
                    slot = len(splits)
                    splits.append([roots[i], level, 0])
                    if t < horizon:
                        spawn_rows.append(i)
                        spawn_slots.append(slot)
                        spawn_levels.append(level)
                    # Landing exactly at the horizon leaves the offspring
                    # no time: mu(h) = 0, recorded implicitly by the
                    # split having zero crossings.
                # Either way the path crossed its birth level's upper
                # boundary, which feeds its parent split's counter.
                parent = parents[i]
                if parent >= 0:
                    splits[parent][2] += 1

            survivors = ~event
            if spawn_rows:
                counts = np.asarray([ratios[lv] for lv in spawn_levels])
                offspring = process.replicate(states, spawn_rows, counts)
                frontier.rebuild(
                    survivors, offspring,
                    np.repeat(roots[spawn_rows], counts),
                    np.repeat(spawn_levels, counts),
                    np.repeat(spawn_slots, counts))
            else:
                frontier.rebuild(survivors, None, None, None, None)

        for root, level, crossed in splits:
            records[root].crossings[level] += crossed
        for root, record in enumerate(records):
            record.steps = int(steps_per_root[root])
        return records

    def accumulate(self, aggregate, batch_roots: int,
                   max_steps=None, max_roots=None) -> bool:
        """Fold up to ``batch_roots`` more trees into ``aggregate``.

        Budgets are enforced at cohort granularity: every started tree
        runs to completion (truncating would bias the counters), so
        ``max_steps`` can overshoot by at most one cohort.  Returns True
        once a budget is exhausted.
        """
        cohort = batch_roots
        if max_roots is not None:
            cohort = min(cohort, max_roots - aggregate.n_roots)
        if max_steps is not None and aggregate.steps >= max_steps:
            return True
        if cohort <= 0:
            return True
        aggregate.extend(self.run_cohort(cohort))
        return ((max_roots is not None
                 and aggregate.n_roots >= max_roots)
                or (max_steps is not None
                    and aggregate.steps >= max_steps))
