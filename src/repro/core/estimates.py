"""Query answers: point estimate plus statistical quality guarantees.

Per Section 2.1, the goal is an unbiased estimate ``tau_hat`` of the
query answer together with a quality guarantee — a confidence interval
or an estimator variance — and an account of the simulation cost (number
of invocations of the step procedure ``g``).
:class:`DurabilityEstimate` packages all of that, for every sampler in
the library.

:class:`DurabilityCurve` is the multi-threshold counterpart: the
answers to a whole grid of thresholds ``Pr[z(X_t) >= beta_j for some
t <= s]``, computed from *one* shared simulation pass (running path
maxima for SRS, per-level root counters for MLSS) instead of one run per
threshold.  Each grid point carries a full :class:`DurabilityEstimate`;
the estimates share sample paths — individually unbiased, but
positively correlated across thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

from .stats import critical_value


@dataclass
class TracePoint:
    """A snapshot of a running estimation (used for convergence plots)."""

    steps: int
    elapsed_seconds: float
    probability: float
    variance: float
    n_roots: int
    hits: int


@dataclass
class DurabilityEstimate:
    """The answer to a durability prediction query.

    Attributes
    ----------
    probability:
        The unbiased point estimate ``tau_hat``.
    variance:
        Estimated variance of ``tau_hat`` (from the method-specific
        estimator: binomial for SRS, Eq. 5-6 for s-MLSS, bootstrap for
        g-MLSS).
    n_roots:
        Number of independent root paths simulated.
    hits:
        Number of target hits observed (leaf hits for MLSS).
    steps:
        Total invocations of the simulation procedure ``g`` — the
        paper's cost measure.
    method:
        Sampler name (``"srs"``, ``"smlss"``, ``"gmlss"``, ...).
    elapsed_seconds:
        Wall-clock simulation time.
    details:
        Method-specific extras (level counters, traces, plan search
        history, bootstrap overhead, ...).
    """

    probability: float
    variance: float
    n_roots: int
    hits: int
    steps: int
    method: str
    elapsed_seconds: float = 0.0
    details: dict = field(default_factory=dict)

    @property
    def std_error(self) -> float:
        return math.sqrt(max(self.variance, 0.0))

    def ci(self, confidence: float = 0.95) -> tuple:
        """Normal-approximation confidence interval (Section 6 metrics)."""
        half = self.ci_half_width(confidence)
        return (self.probability - half, self.probability + half)

    def ci_half_width(self, confidence: float = 0.95) -> float:
        return critical_value(confidence) * self.std_error

    def relative_error(self, truth: Optional[float] = None) -> float:
        """``sqrt(Var) / mu`` (Section 6, "Relative Error").

        The paper defines RE against the true probability; pass
        ``truth`` when it is known, otherwise the running estimate is
        used as the plug-in reference (the practical variant the paper
        describes).  Returns ``inf`` when the reference is 0.
        """
        reference = self.probability if truth is None else truth
        if reference <= 0.0:
            return math.inf
        return self.std_error / reference

    def summary(self, confidence: float = 0.95) -> str:
        lo, hi = self.ci(confidence)
        return (f"{self.method}: tau_hat={self.probability:.6g} "
                f"({confidence:.0%} CI [{max(lo, 0.0):.6g}, {hi:.6g}]), "
                f"RE={self.relative_error():.3g}, roots={self.n_roots}, "
                f"hits={self.hits}, steps={self.steps}, "
                f"time={self.elapsed_seconds:.3g}s")

    def __str__(self) -> str:
        return self.summary()


@dataclass
class DurabilityCurve:
    """Per-threshold durability estimates from one shared simulation pass.

    Attributes
    ----------
    thresholds:
        The raw query thresholds ``beta_1 < ... < beta_K`` the curve was
        evaluated at (in the ``z`` scale of the underlying query).
    levels:
        The same grid normalized to the value-function scale
        (``beta_j / beta_K``, so the last entry is 1.0).
    estimates:
        One :class:`DurabilityEstimate` per threshold, in grid order.
        All estimates share the same root paths, so they are
        individually unbiased but positively correlated across
        thresholds; their ``steps`` fields all report the *shared* cost
        of the single pass.
    method:
        Sampler that produced the curve (``"srs"``, ``"smlss"``,
        ``"gmlss"``).
    n_roots / steps / elapsed_seconds:
        Shared-pass totals (``steps`` is the paper's cost measure for
        the whole grid).
    details:
        Method-specific extras (plan provenance, level-reach counts, ...).
    """

    thresholds: Tuple[float, ...]
    levels: Tuple[float, ...]
    estimates: Tuple[DurabilityEstimate, ...]
    method: str
    n_roots: int
    steps: int
    elapsed_seconds: float = 0.0
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (len(self.thresholds) == len(self.levels)
                == len(self.estimates)):
            raise ValueError(
                f"thresholds/levels/estimates lengths disagree: "
                f"{len(self.thresholds)}/{len(self.levels)}/"
                f"{len(self.estimates)}"
            )

    def __len__(self) -> int:
        return len(self.estimates)

    def __iter__(self):
        return iter(zip(self.thresholds, self.estimates))

    def __getitem__(self, index: int) -> DurabilityEstimate:
        return self.estimates[index]

    def probabilities(self) -> list:
        """Point estimates in grid order (a survival curve over beta)."""
        return [e.probability for e in self.estimates]

    def estimate_at(self, threshold: float) -> DurabilityEstimate:
        """The estimate for one grid threshold (exact match required)."""
        for beta, estimate in zip(self.thresholds, self.estimates):
            if math.isclose(beta, threshold, rel_tol=1e-12, abs_tol=1e-12):
                return estimate
        raise KeyError(f"threshold {threshold} not on the curve grid "
                       f"{self.thresholds}")

    def top_k(self, k: int) -> list:
        """The ``k`` grid points with the highest durability, as
        ``(threshold, estimate)`` pairs sorted by probability."""
        ranked = sorted(zip(self.thresholds, self.estimates),
                        key=lambda pair: pair[1].probability, reverse=True)
        return ranked[:max(k, 0)]

    def summary(self, confidence: float = 0.95) -> str:
        lines = [f"{self.method} curve over {len(self)} thresholds "
                 f"(roots={self.n_roots}, shared steps={self.steps}, "
                 f"time={self.elapsed_seconds:.3g}s):"]
        for beta, estimate in self:
            half = estimate.ci_half_width(confidence)
            lines.append(f"  beta={beta:<10.6g} tau_hat="
                         f"{estimate.probability:.6g} "
                         f"(+/- {half:.2g} at {confidence:.0%})")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.summary()
