"""Level partitions of the value-function range (Section 3, "Levels").

The range ``[0, 1]`` of the value function is split into ``m + 1``
disjoint levels by boundaries ``0 = beta_0 < beta_1 < ... < beta_m = 1``:
``L_i = [beta_i, beta_{i+1})`` for ``i < m`` and the degenerate target
level ``L_m = [1, 1]``.  A :class:`LevelPartition` stores the *interior*
boundaries ``beta_1 .. beta_{m-1}`` (the values a partition plan
actually chooses; Section 5 calls this set ``B``).

With no interior boundaries the partition degenerates to
``{L_0, target}`` and MLSS reduces to plain SRS.
"""

from __future__ import annotations

import bisect
import numbers
from typing import Iterable, Sequence

from .value_functions import TARGET_VALUE


class LevelPartition:
    """An immutable partition plan ``B`` of the value range.

    Attributes
    ----------
    boundaries:
        Sorted tuple of interior boundaries, each strictly inside
        ``(0, 1)``.  ``num_levels`` is ``len(boundaries) + 1`` — the
        number of levels *below* the target, i.e. the paper's ``m``.
    """

    __slots__ = ("boundaries",)

    def __init__(self, boundaries: Iterable[float] = ()):
        values = sorted(float(b) for b in boundaries)
        for b in values:
            if not 0.0 < b < TARGET_VALUE:
                raise ValueError(
                    f"interior boundary {b} must lie strictly in (0, 1)"
                )
        for lo, hi in zip(values, values[1:]):
            if lo == hi:
                raise ValueError(f"duplicate boundary {lo}")
        self.boundaries = tuple(values)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def num_levels(self) -> int:
        """The paper's ``m``: number of levels below the target."""
        return len(self.boundaries) + 1

    @property
    def target_level(self) -> int:
        """Index of the target level ``L_m``."""
        return self.num_levels

    def level_of(self, value: float) -> int:
        """Map a value-function score to its level index.

        Scores ``>= 1`` map to the target level ``m``; otherwise level
        ``i`` such that ``beta_i <= value < beta_{i+1}`` (with
        ``beta_0 = 0``: any non-positive score maps to level 0).
        """
        if value >= TARGET_VALUE:
            return self.num_levels
        return bisect.bisect_right(self.boundaries, value)

    def lower_boundary(self, level: int) -> float:
        """``beta_level`` — the lower edge of level ``level``."""
        if not 0 <= level <= self.num_levels:
            raise ValueError(f"level {level} out of range")
        if level == 0:
            return 0.0
        if level == self.num_levels:
            return TARGET_VALUE
        return self.boundaries[level - 1]

    def level_interval(self, level: int) -> tuple:
        """``(beta_level, beta_{level+1})`` for level ``level``."""
        return (self.lower_boundary(level),
                self.lower_boundary(level + 1) if level < self.num_levels
                else TARGET_VALUE)

    # ------------------------------------------------------------------
    # Plan editing (used by the greedy optimizer)
    # ------------------------------------------------------------------

    def with_boundary(self, value: float) -> "LevelPartition":
        """Return a new partition with one extra interior boundary."""
        if value in self.boundaries:
            raise ValueError(f"boundary {value} already in partition")
        return LevelPartition(self.boundaries + (value,))

    def without_boundary(self, value: float) -> "LevelPartition":
        """Return a new partition with one boundary removed."""
        if value not in self.boundaries:
            raise ValueError(f"boundary {value} not in partition")
        return LevelPartition(b for b in self.boundaries if b != value)

    def pruned_above(self, initial_value: float) -> "LevelPartition":
        """Drop boundaries at or below the initial state's value.

        Splitting bookkeeping requires every root path to start in
        ``L_0``; if the initial state's value already exceeds some
        boundaries they carry no information and are removed.
        """
        return LevelPartition(b for b in self.boundaries if b > initial_value)

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, LevelPartition)
                and self.boundaries == other.boundaries)

    def __hash__(self) -> int:
        return hash(self.boundaries)

    def __len__(self) -> int:
        return len(self.boundaries)

    def __iter__(self):
        return iter(self.boundaries)

    def __repr__(self) -> str:
        inner = ", ".join(f"{b:.4g}" for b in self.boundaries)
        return f"LevelPartition([{inner}])"


def uniform_partition(num_levels: int) -> LevelPartition:
    """Equal-width partition with ``num_levels`` levels below the target."""
    if num_levels < 1:
        raise ValueError(f"num_levels must be >= 1, got {num_levels}")
    step = TARGET_VALUE / num_levels
    return LevelPartition(step * i for i in range(1, num_levels))


def normalize_ratios(ratios, num_levels: int) -> tuple:
    """Expand a splitting-ratio spec into per-level ratios.

    ``ratios`` may be a single integer (the paper's fixed ``r``) or a
    sequence with one entry per splittable level ``L_1 .. L_{m-1}``
    (g-MLSS allows a dynamic ratio, Section 4.1).  Returns a tuple of
    length ``num_levels`` indexed by level; index 0 is unused padding so
    that ``result[level]`` works directly.
    """
    n_split_levels = num_levels - 1
    if isinstance(ratios, numbers.Integral):
        if ratios < 1:
            raise ValueError(f"splitting ratio must be >= 1, got {ratios}")
        return (1,) + (int(ratios),) * n_split_levels
    values = tuple(int(r) for r in ratios)
    if len(values) == num_levels and values[0] == 1:
        # Already in normalized form (idempotence).
        return values
    if len(values) != n_split_levels:
        raise ValueError(
            f"need {n_split_levels} per-level ratios, got {len(values)}"
        )
    if any(r < 1 for r in values):
        raise ValueError(f"splitting ratios must be >= 1, got {values}")
    return (1,) + values
