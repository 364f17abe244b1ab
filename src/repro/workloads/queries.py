"""The experimental workload registry (the paper's Table 2).

One :class:`WorkloadSpec` per (model, query type) pair.  Thresholds are
calibrated so each workload's true answer probability lands in the band
the paper reports for that query type (see Tables 3-5), not copied from
the paper: the CPP's printed thresholds are unreachable under its
printed parameters (:mod:`repro.processes.cpp`), and the RNN trains on
a synthetic price series:

=========  ==================  =====================
type       paper band          quality target (§6)
=========  ==================  =====================
medium     ~15-17 %            1 % relative CI
small      ~5 %                1 % relative CI
tiny       ~0.15-0.5 %         10 % relative error
rare       ~0.03-0.04 %        10 % relative error
=========  ==================  =====================

``paper_beta`` / ``paper_probability`` record the paper's printed
numbers, which the answer tables in ``benchmarks/results`` print beside
the calibrated ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.levels import LevelPartition
from ..core.quality import (ConfidenceIntervalTarget, QualityTarget,
                            RelativeErrorTarget)
from ..core.value_functions import DurabilityQuery
from ..processes.base import StochasticProcess
from ..processes.cpp import CompoundPoissonProcess
from ..processes.queueing import TandemQueueProcess
from ..processes.volatile import ImpulseProcess
from .survival import SurvivalCurve

#: Impulse settings of the volatile model variants (Section 6.2),
#: calibrated so impulses actually interact with the level structure:
#: the queue gets late-horizon impulses as in the paper; the CPP —
#: whose maxima occur early under its negative drift — gets
#: whole-horizon impulses.
VOLATILE_QUEUE_IMPULSE = {"impulse": 8.0, "probability": 0.004,
                          "active_after": 400}
VOLATILE_CPP_IMPULSE = {"impulse": 40.0, "probability": 0.002,
                        "active_after": 0}


def make_process(model: str, rnn_cache_dir: Optional[str] = None
                 ) -> StochasticProcess:
    """Instantiate one of the registry's model substrates."""
    if model == "queue":
        return TandemQueueProcess()
    if model == "cpp":
        return CompoundPoissonProcess()
    if model == "volatile-queue":
        return ImpulseProcess(TandemQueueProcess(),
                              **VOLATILE_QUEUE_IMPULSE)
    if model == "volatile-cpp":
        return ImpulseProcess(CompoundPoissonProcess(),
                              **VOLATILE_CPP_IMPULSE)
    if model == "rnn":
        from ..processes.rnn import pretrained_stock_process
        return pretrained_stock_process(cache_dir=rnn_cache_dir)
    raise ValueError(f"unknown model {model!r}")


def model_z(model: str):
    """The model's real-valued state evaluation ``z`` (Section 6)."""
    if model in ("queue", "volatile-queue"):
        return TandemQueueProcess.queue2_length
    if model in ("cpp", "volatile-cpp"):
        return CompoundPoissonProcess.surplus
    if model == "rnn":
        from ..processes.rnn import StockRNNProcess
        return StockRNNProcess.price
    raise ValueError(f"unknown model {model!r}")


@dataclass(frozen=True)
class WorkloadSpec:
    """One durability-query workload: model + (s, beta) + quality rule."""

    key: str
    model: str
    query_type: str
    horizon: int
    beta: float
    quality_kind: str  # "ci" or "re"
    paper_beta: Optional[float] = None
    paper_probability: Optional[float] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def make_process(self, rnn_cache_dir: Optional[str] = None
                     ) -> StochasticProcess:
        return make_process(self.model, rnn_cache_dir=rnn_cache_dir)

    def make_query(self, process: Optional[StochasticProcess] = None,
                   rnn_cache_dir: Optional[str] = None) -> DurabilityQuery:
        """Build the executable query (reuse ``process`` if supplied)."""
        if process is None:
            process = self.make_process(rnn_cache_dir=rnn_cache_dir)
        return DurabilityQuery.threshold(
            process, model_z(self.model), beta=self.beta,
            horizon=self.horizon, name=self.key)

    def quality_target(self, scale: float = 1.0) -> QualityTarget:
        """The paper's stopping rule, optionally relaxed by ``scale``.

        ``scale`` multiplies the tolerance (1.0 = paper settings:
        1 % CI or 10 % RE); benchmark harnesses use larger scales to
        fit laptop budgets without changing the comparison.
        """
        if scale <= 0:
            raise ValueError(f"scale must be > 0, got {scale}")
        if self.quality_kind == "ci":
            return ConfidenceIntervalTarget(half_width=0.01 * scale,
                                            relative=True)
        if self.quality_kind == "re":
            return RelativeErrorTarget(target=0.10 * scale)
        raise ValueError(f"unknown quality kind {self.quality_kind!r}")

    # ------------------------------------------------------------------
    # Calibration-derived quantities
    # ------------------------------------------------------------------

    def survival_curve(self) -> SurvivalCurve:
        return SurvivalCurve.for_model(self.model)

    @property
    def expected_probability(self) -> float:
        """Calibrated estimate of the true answer probability."""
        return self.survival_curve().survival(self.beta)

    def initial_z(self) -> float:
        """The initial state's ``z`` value (for plan pruning)."""
        if self.model in ("queue", "volatile-queue"):
            return 0.0
        if self.model in ("cpp", "volatile-cpp"):
            return 15.0
        if self.model == "rnn":
            return 1558.7  # last synthetic training price
        raise ValueError(f"unknown model {self.model!r}")

    def balanced_partition(self, num_levels: int) -> LevelPartition:
        """Balanced-growth plan (MLSS-BAL) for this workload."""
        return self.survival_curve().balanced_partition(
            self.beta, num_levels, initial_value=self.initial_z())


def _spec(key, model, query_type, horizon, beta, quality_kind,
          paper_beta=None, paper_probability=None):
    return WorkloadSpec(key=key, model=model, query_type=query_type,
                        horizon=horizon, beta=beta,
                        quality_kind=quality_kind, paper_beta=paper_beta,
                        paper_probability=paper_probability)


#: The reproduction of Table 2 (plus the volatile workloads of Table 6).
REGISTRY = {spec.key: spec for spec in (
    # Queue model (paper betas 20 / 26 / 40 / 45; answers from Table 3).
    _spec("queue-medium", "queue", "medium", 500, 28, "ci", 20, 0.172),
    _spec("queue-small", "queue", "small", 500, 36, "ci", 26, 0.051),
    _spec("queue-tiny", "queue", "tiny", 500, 57, "re", 40, 0.0015),
    _spec("queue-rare", "queue", "rare", 500, 64, "re", 45, 0.0004),
    # CPP model (paper betas 300 / 350 / 450 / 500; answers from Table 4).
    _spec("cpp-medium", "cpp", "medium", 500, 37, "ci", 300, 0.155),
    _spec("cpp-small", "cpp", "small", 500, 51, "ci", 350, 0.053),
    _spec("cpp-tiny", "cpp", "tiny", 500, 88, "re", 450, 0.0024),
    _spec("cpp-rare", "cpp", "rare", 500, 113, "re", 500, 0.0003),
    # RNN stock model (paper betas 1550 / 1600; answers from Table 5).
    _spec("rnn-small", "rnn", "small", 200, 2900, "ci", 1550, 0.026),
    _spec("rnn-tiny", "rnn", "tiny", 200, 3450, "re", 1600, 0.0051),
    # Volatile variants (Table 6).
    _spec("volatile-queue-tiny", "volatile-queue", "tiny", 500, 48, "re",
          65, 0.017),
    _spec("volatile-queue-rare", "volatile-queue", "rare", 500, 58, "re",
          75, 0.003),
    _spec("volatile-cpp-tiny", "volatile-cpp", "tiny", 500, 75, "re",
          700, 0.022),
    _spec("volatile-cpp-rare", "volatile-cpp", "rare", 500, 120, "re",
          1000, 0.001),
)}


def workload(key: str) -> WorkloadSpec:
    """Look a workload up by key (e.g. ``"queue-tiny"``)."""
    spec = REGISTRY.get(key)
    if spec is None:
        raise KeyError(
            f"unknown workload {key!r}; available: {sorted(REGISTRY)}"
        )
    return spec


def workloads_for(model: str) -> list:
    """All workloads of one model, in query-type order."""
    order = {"medium": 0, "small": 1, "tiny": 2, "rare": 3}
    specs = [s for s in REGISTRY.values() if s.model == model]
    return sorted(specs, key=lambda s: order[s.query_type])
