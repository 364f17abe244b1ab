"""Volatile process variants with impulse jumps (Section 6.2).

To demonstrate the failure of s-MLSS under level skipping, the paper
modifies the CPP and Queue models with "impulse value jumps between
consecutive time instants": once the simulation passes a fraction of the
horizon (``t > 0.8 s``), each step carries a small probability of a
large instantaneous value increase.  Such a jump can carry the value
function across several levels at once — exactly the level-skipping
scenario of Section 4.

:class:`ImpulseProcess` wraps any base process that implements
``apply_impulse`` and adds this behaviour, so the same wrapper builds
both "Volatile CPP" and "Volatile Queue".

Batched simulation: the wrapper is itself a
:class:`~repro.processes.base.VectorizedProcess` — it advances the
whole batch through the base's ``step_batch`` and then applies impulses
to a uniform-masked subset of rows via ``apply_impulse_batch``, so a
vectorized base never degrades to a scalar loop just because it is
volatile, and a scalar-only base runs inside a
:class:`~repro.processes.base.ScalarFallback`.  Wrappers over fusible
bases are fusible themselves: a fleet of volatile CPPs with per-member
impulse parameters advances as one fused ``step_batch``.
"""

from __future__ import annotations

import random

import numpy as np

from .base import State, StochasticProcess, VectorizedProcess, as_vectorized


class ImpulseProcess(StochasticProcess, VectorizedProcess):
    """Wrap a process with late-horizon impulse jumps.

    Parameters
    ----------
    base:
        The underlying process; must implement ``apply_impulse``.
    impulse:
        Magnitude added to the observed value when an impulse fires.
    probability:
        Per-step probability of an impulse once active.
    active_after:
        First time step (exclusive) at which impulses may fire; the
        paper uses ``0.8 * s``.
    """

    def __init__(self, base: StochasticProcess, impulse: float,
                 probability: float, active_after: int):
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        if active_after < 0:
            raise ValueError(f"active_after must be >= 0, got {active_after}")
        # Fail fast if the base process cannot receive impulses.
        base.apply_impulse(base.initial_state(), 0)
        self.base = base
        self.impulse = impulse
        self.probability = probability
        self.active_after = active_after
        # The batched face delegates to the base (or a fallback adapter
        # when the base is scalar-only).
        self._batch_base = as_vectorized(base)

    def initial_state(self) -> State:
        return self.base.initial_state()

    def step(self, state: State, t: int, rng: random.Random) -> State:
        new_state = self.base.step(state, t, rng)
        if t > self.active_after and rng.random() < self.probability:
            new_state = self.base.apply_impulse(new_state, self.impulse)
        return new_state

    def copy_state(self, state: State) -> State:
        return self.base.copy_state(state)

    def apply_impulse(self, state: State, magnitude: float) -> State:
        return self.base.apply_impulse(state, magnitude)

    # --- batched contract ---------------------------------------------

    @property
    def supports_out(self) -> bool:
        return self._batch_base.supports_out

    def initial_states(self, n: int) -> np.ndarray:
        return self._batch_base.initial_states(n)

    def step_batch(self, states: np.ndarray, t: int,
                   rng: np.random.Generator,
                   out: np.ndarray | None = None) -> np.ndarray:
        base = self._batch_base
        if out is not None and base.supports_out:
            new_states = base.step_batch(states, t, rng, out=out)
        else:
            new_states = base.step_batch(states, t, rng)
        if t > self.active_after:
            fired = rng.random(len(new_states)) < self.probability
            rows = np.nonzero(fired)[0]
            if rows.size:
                base.apply_impulse_batch(new_states, rows, self.impulse)
        return new_states

    def replicate(self, states: np.ndarray, indices, counts) -> np.ndarray:
        return self._batch_base.replicate(states, indices, counts)

    def apply_impulse_batch(self, states: np.ndarray, rows,
                            magnitudes) -> None:
        self._batch_base.apply_impulse_batch(states, rows, magnitudes)

    # --- fusion hooks -------------------------------------------------

    def fusion_key(self):
        base_key = self.base.fusion_key()
        if base_key is None:
            return None
        return ("impulse",) + base_key

    def fusion_params(self) -> dict:
        params = dict(self.base.fusion_params())
        params["impulse__magnitude"] = self.impulse
        params["impulse__probability"] = self.probability
        params["impulse__active_after"] = self.active_after
        return params

    def fused_step_batch(self, row_params, states, t, rng, out=None):
        new_states = self.base.fused_step_batch(row_params, states, t, rng,
                                                out=out)
        active = t > row_params["impulse__active_after"]
        if active.any():
            fired = (active
                     & (rng.random(len(new_states))
                        < row_params["impulse__probability"]))
            rows = np.nonzero(fired)[0]
            if rows.size:
                self.base.apply_impulse_batch(
                    new_states, rows,
                    row_params["impulse__magnitude"][rows])
        return new_states


def volatile_queue(base: StochasticProcess, horizon: int,
                   impulse: float = 5.0,
                   probability: float = 0.004) -> ImpulseProcess:
    """The paper's Volatile Queue: +5 customers late in the horizon.

    The impulse probability is calibrated so that the Tiny/Rare volatile
    workloads land in the paper's reported probability bands (Table 6);
    see ``repro/workloads``.
    """
    return ImpulseProcess(base, impulse=impulse, probability=probability,
                          active_after=int(0.8 * horizon))


def volatile_cpp(base: StochasticProcess, horizon: int,
                 impulse: float = 40.0,
                 probability: float = 0.005) -> ImpulseProcess:
    """The paper's Volatile CPP: a large surplus impulse late in the horizon.

    The paper adds +200 against its beta range of 300-500; our CPP
    thresholds are calibrated to 37-113 (:mod:`repro.workloads.queries`),
    so the default impulse is scaled down accordingly and the workload
    registry calibrates thresholds.
    """
    return ImpulseProcess(base, impulse=impulse, probability=probability,
                          active_after=int(0.8 * horizon))
