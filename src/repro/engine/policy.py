"""Execution policies: *how* to answer a query, separated from *what*.

A :class:`repro.core.value_functions.DurabilityQuery` says what to ask —
process, condition, horizon.  An :class:`ExecutionPolicy` says how to
run it — estimation method, splitting ratio, stopping rule (quality
target and/or budgets), plan-search knobs and seed policy.  Separating
the two makes policies reusable (one policy drives thousands of
screening queries), comparable (swap methods on the same queries) and
serializable (ship a policy in a job spec or config file via
:meth:`ExecutionPolicy.to_dict` / :meth:`ExecutionPolicy.from_dict`).

Policies are immutable; derive variants with
:meth:`ExecutionPolicy.replace`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Optional

from ..core.pool import POOL_MODES
from ..core.quality import (ConfidenceIntervalTarget, NeverTarget,
                            QualityTarget, RelativeErrorTarget)

#: Schema version stamped into :meth:`ExecutionPolicy.to_dict` ("v").
POLICY_SCHEMA_VERSION = 1

METHODS = ("srs", "smlss", "gmlss", "auto")


def _is_int(value) -> bool:
    return (isinstance(value, numbers.Integral)
            and not isinstance(value, bool))


def _is_number(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _check_int(name: str, value, minimum: int,
               optional: bool = False) -> None:
    """Require an integer ``>= minimum`` (``None`` too if optional).

    Booleans are rejected, NumPy integers accepted (as :func:`_is_int`).
    """
    if value is None and optional:
        return
    if not _is_int(value) or value < minimum:
        raise ValueError(
            f"{name} must be an integer >= {minimum}"
            f"{' or None' if optional else ''}, got {value!r}")


def _check_ratio(ratio) -> None:
    """A splitting ratio: an integer >= 1, or a sequence of them.

    Whether a sequence has one entry per splittable level is checked
    where the plan is known (:func:`repro.core.levels.normalize_ratios`).
    """
    values = ratio if isinstance(ratio, (list, tuple)) else [ratio]
    if not all(_is_int(value) and value >= 1 for value in values):
        raise ValueError(
            f"ratio must be an integer >= 1 or a sequence of them, "
            f"got {ratio!r}")


#: The ``sampler_options`` keys: what each value must be, and its check.
#: They tune one sampler or fleet pass and have no policy field of their
#: own; each pass reads only the keys it takes.  SRS answers and curves,
#: s-MLSS answers and curves, and fused SRS fleets and fleet curves read
#: ``batch_roots``.  g-MLSS answers and curves read ``batch_roots``,
#: ``bootstrap_rounds``, ``first_check_roots`` and ``check_growth``;
#: fused g-MLSS fleets run the same round loop and read those four plus
#: the fleet-only ``adaptive`` and ``cluster_tolerance``.
SAMPLER_OPTIONS = {
    "batch_roots": ("an integer >= 1",
                    lambda value: _is_int(value) and value >= 1),
    "bootstrap_rounds": ("an integer >= 2",
                         lambda value: _is_int(value) and value >= 2),
    "first_check_roots": ("an integer >= 1",
                          lambda value: _is_int(value) and value >= 1),
    "check_growth": ("a number > 1",
                     lambda value: _is_number(value) and value > 1),
    "adaptive": ("a boolean", lambda value: isinstance(value, bool)),
    "cluster_tolerance": ("a number >= 0",
                          lambda value: _is_number(value) and value >= 0),
}

_SEED_MOD = 2 ** 31


def quality_to_dict(quality: Optional[QualityTarget]) -> Optional[dict]:
    """Serialize a quality target to a plain-JSON dict (or None)."""
    if quality is None:
        return None
    if isinstance(quality, ConfidenceIntervalTarget):
        return {"kind": "ci", "half_width": quality.half_width,
                "confidence": quality.confidence,
                "relative": quality.relative,
                "min_hits": quality.min_hits,
                "min_roots": quality.min_roots}
    if isinstance(quality, RelativeErrorTarget):
        return {"kind": "re", "target": quality.target,
                "min_hits": quality.min_hits,
                "min_roots": quality.min_roots}
    if isinstance(quality, NeverTarget):
        return {"kind": "never"}
    raise TypeError(
        f"cannot serialize quality target {type(quality).__name__}; "
        f"use one of the built-in targets or extend quality_to_dict"
    )


def quality_from_dict(data: Optional[dict]) -> Optional[QualityTarget]:
    """Inverse of :func:`quality_to_dict`."""
    if data is None:
        return None
    kind = data.get("kind")
    fields = {k: v for k, v in data.items() if k != "kind"}
    if kind == "ci":
        return ConfidenceIntervalTarget(**fields)
    if kind == "re":
        return RelativeErrorTarget(**fields)
    if kind == "never":
        return NeverTarget()
    raise ValueError(f"unknown quality target kind {kind!r}")


@dataclass(frozen=True)
class ParallelPolicy:
    """How to spread simulation over a persistent worker pool.

    Attaching one of these to :attr:`ExecutionPolicy.parallel` makes
    the engine run samplers and fleet screens over a
    :class:`~repro.core.pool.WorkerPool` (owned by the engine, reused
    across calls).  Results are **invariant under** ``n_workers`` and
    ``pool``: work decomposes into fixed-size tasks whose seeds derive
    from the task index, so parallelism changes latency, not answers.
    Pooled rounds always pipeline: the next round's tasks run
    speculatively while the current round drains (see
    :class:`~repro.core.pool.RoundPipeline`), and there is no barrier
    option.

    Attributes
    ----------
    n_workers:
        Worker process count; ``None`` means ``os.cpu_count()``.
        ``1`` falls back to the inline (no-process) mode.  Over HTTP a
        request may ask for at most ``os.cpu_count()``.
    roots_per_task:
        Root trees / SRS paths per work descriptor.  A stopping-rule
        round cuts at least
        :data:`~repro.core.pool.DEFAULT_TASKS_PER_ROUND` of them.
    members_per_task:
        Fleet members per slice in fused fleet passes.
    pool:
        ``"fork"`` (default) or ``"inline"``.  Where fork is
        unavailable, ``"fork"`` falls back to ``"inline"``.
    max_worker_restarts:
        Supervision budget: how many dead (or deadline-overrunning)
        workers the pool may respawn per burst of work before falling
        back to the abort-with-cleanup path.  Recovery re-runs only
        the dead worker's in-flight tasks, byte-identically (task
        seeds are structural).  ``0`` restores the historical
        any-death-aborts behavior; the default keeps engine runs alive
        through occasional worker crashes.
    task_retry_limit:
        How many times one task may be re-submitted after worker
        deaths before the run aborts anyway (poison-pill guard).
    task_timeout_seconds:
        Optional per-task deadline; an overrunning fork worker is
        terminated and recovered like a crash.  ``None`` disables it.
    """

    n_workers: Optional[int] = None
    roots_per_task: int = 256
    members_per_task: int = 32
    pool: str = "fork"
    max_worker_restarts: int = 2
    task_retry_limit: int = 2
    task_timeout_seconds: Optional[float] = None

    def validate(self) -> "ParallelPolicy":
        _check_int("n_workers", self.n_workers, 1, optional=True)
        for name in ("roots_per_task", "members_per_task"):
            _check_int(name, getattr(self, name), 1)
        if self.pool not in POOL_MODES:
            raise ValueError(
                f"unknown pool mode {self.pool!r}; choose from "
                f"{POOL_MODES}")
        for name in ("max_worker_restarts", "task_retry_limit"):
            _check_int(name, getattr(self, name), 0)
        if self.task_timeout_seconds is not None \
                and self.task_timeout_seconds <= 0:
            raise ValueError(
                f"task_timeout_seconds must be > 0, got "
                f"{self.task_timeout_seconds}")
        return self

    def to_dict(self) -> dict:
        return {
            "n_workers": self.n_workers,
            "roots_per_task": self.roots_per_task,
            "members_per_task": self.members_per_task,
            "pool": self.pool,
            "max_worker_restarts": self.max_worker_restarts,
            "task_retry_limit": self.task_retry_limit,
            "task_timeout_seconds": self.task_timeout_seconds,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ParallelPolicy":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown ParallelPolicy fields {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}")
        return cls(**data)


@dataclass(frozen=True)
class ExecutionPolicy:
    """How the engine should answer queries.

    Attributes
    ----------
    method:
        ``"srs"``, ``"smlss"``, ``"gmlss"`` or ``"auto"`` (g-MLSS with
        an automatically searched plan).
    ratio:
        Splitting ratio ``r`` — an int, or a per-level sequence.
    num_levels:
        When set, MLSS plans come from the balanced-growth pilot with
        this many levels instead of the greedy search.
    trial_steps:
        Per-trial budget of the greedy plan search.
    quality / max_steps / max_roots:
        The stopping rule; at least one must be set (enforced by
        :meth:`validate` before any simulation runs).
    seed:
        Base seed.  Single queries use it directly; batch members get
        deterministic seeds derived from their content via
        :meth:`derive_seed`.
    record_trace:
        Record convergence snapshots in estimate details.
    use_plan_cache:
        Consult/populate the engine's :class:`~repro.engine.cache.
        PlanCache` for MLSS plans.
    fuse:
        Allow ``answer_batch`` to fuse same-family queries over
        *different* process objects into one shared simulation frontier
        (see :class:`repro.processes.base.FusedBatch`).  Disable to
        force the per-process cohort behaviour (e.g. for A/B
        measurement; estimates are exchangeable either way).
    parallel:
        A :class:`ParallelPolicy` spreading simulation over the
        engine's persistent worker pool, or ``None`` (default) for
        single-process execution.  Parallel results are invariant
        under the worker count.
    sampler_options:
        Tunables of the sampler or fleet pass, keyed by the names in
        :data:`SAMPLER_OPTIONS`.  Each pass reads only the keys it
        takes: SRS and s-MLSS passes (fused SRS fleets included) read
        ``batch_roots``; g-MLSS answers and curves read
        ``batch_roots``, ``bootstrap_rounds``, ``first_check_roots``
        and ``check_growth``; fused g-MLSS fleets read those four plus
        ``adaptive`` and ``cluster_tolerance``.
    """

    method: str = "auto"
    ratio: object = 3
    num_levels: Optional[int] = None
    trial_steps: int = 20000
    quality: Optional[QualityTarget] = None
    max_steps: Optional[int] = None
    max_roots: Optional[int] = None
    seed: Optional[int] = None
    record_trace: bool = False
    use_plan_cache: bool = True
    fuse: bool = True
    parallel: Optional[ParallelPolicy] = None
    sampler_options: Optional[dict] = None

    # ------------------------------------------------------------------
    # Validation / derivation
    # ------------------------------------------------------------------

    def validate(self) -> "ExecutionPolicy":
        """Check the policy is runnable; returns self for chaining.

        Raises a ``ValueError`` for unknown methods, for malformed or
        unknown ``sampler_options``, for budgets, seeds, level counts
        or ratios that are not integers in range, and — the documented
        stopping-rule contract — when ``quality``, ``max_steps`` and
        ``max_roots`` are all ``None`` (the sampler would never stop).
        The engine validates *before* any plan search, so a bad policy
        fails fast instead of after an expensive search.
        """
        if self.method not in METHODS:
            raise ValueError(
                f"unknown method {self.method!r}; choose from {METHODS}")
        self._validate_sampler_options()
        if (self.quality is None and self.max_steps is None
                and self.max_roots is None):
            raise ValueError(
                "the policy has no stopping rule: provide a quality "
                "target, max_steps or max_roots (at least one must be "
                "given; otherwise the sampler would never stop)"
            )
        for name in ("max_steps", "max_roots", "num_levels"):
            _check_int(name, getattr(self, name), 1, optional=True)
        _check_int("trial_steps", self.trial_steps, 1)
        _check_int("seed", self.seed, 0, optional=True)
        _check_ratio(self.ratio)
        if self.parallel is not None:
            if not isinstance(self.parallel, ParallelPolicy):
                raise ValueError(
                    f"parallel must be a ParallelPolicy or None, got "
                    f"{self.parallel!r}")
            self.parallel.validate()
        return self

    def _validate_sampler_options(self) -> None:
        options = self.sampler_options
        if options is None:
            return
        if not isinstance(options, Mapping):
            raise ValueError(
                f"sampler_options must be a mapping, got "
                f"{type(options).__name__}")
        for key, value in options.items():
            if key not in SAMPLER_OPTIONS:
                raise ValueError(
                    f"unknown sampler option {key!r}; choose from "
                    f"{sorted(SAMPLER_OPTIONS)}")
            expected, check = SAMPLER_OPTIONS[key]
            if not check(value):
                raise ValueError(
                    f"sampler option {key!r} must be {expected}, got "
                    f"{value!r}")

    def replace(self, **overrides) -> "ExecutionPolicy":
        """A copy of this policy with some fields overridden."""
        return dataclasses.replace(self, **overrides)

    def derive_seed(self, material) -> Optional[int]:
        """Deterministic seed derived from *what* is being answered.

        ``material`` is any ``repr``-stable description of the work —
        the engine passes a structural digest of the query (process
        family, horizon, state evaluation, threshold).  Deriving seeds
        from content rather than batch position makes batch answers
        independent of batch *composition*: the same query seeds the
        same stream whether it runs alone, grouped, or reordered.
        ``None`` stays ``None`` (fresh entropy).
        """
        if self.seed is None:
            return None
        digest = hashlib.blake2b(
            repr((self.seed, material)).encode("utf-8"),
            digest_size=8).digest()
        return int.from_bytes(digest, "big") % _SEED_MOD

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """A plain-JSON representation (inverse of :meth:`from_dict`).

        The document carries a schema version stamp ``"v"`` so wire
        clients and stored configs fail loudly (rather than silently
        misread) when the policy schema evolves.
        """
        ratio = self.ratio
        if not isinstance(ratio, int):
            ratio = list(ratio)
        return {
            "v": POLICY_SCHEMA_VERSION,
            "method": self.method,
            "ratio": ratio,
            "num_levels": self.num_levels,
            "trial_steps": self.trial_steps,
            "quality": quality_to_dict(self.quality),
            "max_steps": self.max_steps,
            "max_roots": self.max_roots,
            "seed": self.seed,
            "record_trace": self.record_trace,
            "use_plan_cache": self.use_plan_cache,
            "fuse": self.fuse,
            "parallel": self.parallel.to_dict()
            if self.parallel is not None else None,
            "sampler_options": dict(self.sampler_options)
            if self.sampler_options else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExecutionPolicy":
        """Rebuild a policy from :meth:`to_dict` output.

        Accepts partial documents (missing fields keep their defaults).
        Unknown keys are rejected so config typos fail loudly, and the
        optional ``"v"`` version stamp is validated: a document from a
        newer schema raises instead of being silently misread.
        """
        data = dict(data)
        version = data.pop("v", POLICY_SCHEMA_VERSION)
        if version != POLICY_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported ExecutionPolicy schema version {version!r};"
                f" this build reads v{POLICY_SCHEMA_VERSION}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown ExecutionPolicy fields {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}")
        fields = dict(data)
        if "quality" in fields:
            fields["quality"] = quality_from_dict(fields["quality"])
        if isinstance(fields.get("parallel"), dict):
            fields["parallel"] = ParallelPolicy.from_dict(
                fields["parallel"])
        if isinstance(fields.get("ratio"), list):
            fields["ratio"] = tuple(fields["ratio"])
        return cls(**fields)
