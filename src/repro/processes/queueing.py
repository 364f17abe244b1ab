"""Tandem queue model (Section 6, experimental model 1).

Customers arrive at Queue 1 as a Poisson process with rate ``lam``;
Queue 1 serves them with exponential service times and feeds Queue 2,
which serves with its own exponential server.  The observed stochastic
process is the number of customers in Queue 2, sampled at integer times
(the paper's discrete time domain).

The paper sets ``lam = 0.5`` and ``mu_1 = mu_2 = 2``.  Reading the
service parameters as *mean* service times (2 time units, i.e. rate
0.5) makes both stations critically loaded (utilisation 1), which is the
only reading consistent with the probabilities reported in Table 3
(e.g. Queue 2 reaching 20 customers within 500 steps with probability
~17 %); with service *rates* of 2 the backlog would almost surely never
exceed a handful of customers.  We therefore expose ``mean_service``
parameters, defaulting to the paper's values under that reading.

Within each unit time step the embedded continuous-time Markov chain is
simulated exactly (Gillespie); thanks to the memorylessness of the
exponential clocks, restarting the clocks at integer boundaries does not
change the law of the process.
"""

from __future__ import annotations

import random

import numpy as np

from .base import (ImmutableStateProcess, VectorizedProcess, register_batch_z,
                   require_finite)

QueueState = tuple  # (customers in queue 1, customers in queue 2)


def _gillespie_unit_interval(n1: np.ndarray, n2: np.ndarray, lam, mu1, mu2,
                             rng: np.random.Generator) -> None:
    """Race every row's embedded CTMC to the unit boundary, in place.

    ``n1``/``n2`` are mutated to the queue lengths at the end of the
    unit interval.  ``lam``/``mu1``/``mu2`` may be scalars (one shared
    parameterisation, the native batched path) or per-row arrays (the
    fused path, where every row carries its own member's rates).
    """
    n = len(n1)
    lam = np.broadcast_to(np.asarray(lam, dtype=np.float64), (n,))
    mu1 = np.broadcast_to(np.asarray(mu1, dtype=np.float64), (n,))
    mu2 = np.broadcast_to(np.asarray(mu2, dtype=np.float64), (n,))
    clock = np.zeros(n)
    active = np.arange(n)
    while active.size:
        la = lam[active]
        r1 = np.where(n1[active] > 0, mu1[active], 0.0)
        r2 = np.where(n2[active] > 0, mu2[active], 0.0)
        total = la + r1 + r2
        clock[active] += rng.exponential(1.0, active.size) / total
        alive = clock[active] < 1.0
        active = active[alive]
        if not active.size:
            break
        u = rng.random(active.size) * total[alive]
        la = la[alive]
        r1 = r1[alive]
        arrival = u < la
        service1 = ~arrival & (u < la + r1)
        service2 = ~arrival & ~service1
        n1[active[arrival]] += 1
        moved = active[service1]
        n1[moved] -= 1
        n2[moved] += 1
        n2[active[service2]] -= 1


class TandemQueueProcess(ImmutableStateProcess, VectorizedProcess):
    """Two exponential queues in tandem, observed at integer times.

    Parameters
    ----------
    arrival_rate:
        Poisson arrival rate into Queue 1 (paper: 0.5).
    mean_service1, mean_service2:
        Mean service times of the two stations (paper: 2.0 each, i.e.
        service rate 0.5 — critical load).
    """

    supports_out = True

    def __init__(self, arrival_rate: float = 0.5,
                 mean_service1: float = 2.0, mean_service2: float = 2.0):
        require_finite(arrival_rate=arrival_rate,
                       mean_service1=mean_service1,
                       mean_service2=mean_service2)
        if arrival_rate <= 0:
            raise ValueError(f"arrival_rate must be > 0, got {arrival_rate}")
        if mean_service1 <= 0 or mean_service2 <= 0:
            raise ValueError("mean service times must be > 0")
        self.arrival_rate = arrival_rate
        self.mean_service1 = mean_service1
        self.mean_service2 = mean_service2
        self._mu1 = 1.0 / mean_service1
        self._mu2 = 1.0 / mean_service2
        # A subnormal mean gives an infinite rate: the Gillespie clock
        # would then never advance past a busy station's events.
        require_finite(**{"1 / mean_service1": self._mu1,
                          "1 / mean_service2": self._mu2})

    def initial_state(self) -> QueueState:
        """The paper always starts from an empty system."""
        return (0, 0)

    def step(self, state: QueueState, t: int, rng: random.Random) -> QueueState:
        n1, n2 = state
        lam, mu1, mu2 = self.arrival_rate, self._mu1, self._mu2
        expovariate, uniform = rng.expovariate, rng.random
        clock = 0.0
        while True:
            r1 = mu1 if n1 > 0 else 0.0
            r2 = mu2 if n2 > 0 else 0.0
            total = lam + r1 + r2
            clock += expovariate(total)
            if clock >= 1.0:
                # Exponential clocks are memoryless: discarding the
                # residual time at the unit boundary is exact.
                return (n1, n2)
            u = uniform() * total
            if u < lam:
                n1 += 1
            elif u < lam + r1:
                n1 -= 1
                n2 += 1
            else:
                n2 -= 1

    def initial_states(self, n: int) -> np.ndarray:
        """State array of shape ``(n, 2)``: one (queue1, queue2) per row."""
        return np.zeros((n, 2), dtype=np.int64)

    def step_batch(self, states: np.ndarray, t: int,
                   rng: np.random.Generator,
                   out: np.ndarray | None = None) -> np.ndarray:
        """Advance every queue pair through one unit of Gillespie time.

        All rows race their embedded CTMCs in lock-step: each sweep
        draws one event for every path whose clock is still inside the
        unit interval, then drops finished paths from the active set.
        The per-path event sequence has exactly the law of the scalar
        loop — only the interleaving of draws across paths differs.
        """
        n1 = states[:, 0].astype(np.int64, copy=True)
        n2 = states[:, 1].astype(np.int64, copy=True)
        _gillespie_unit_interval(n1, n2, self.arrival_rate, self._mu1,
                                 self._mu2, rng)
        if out is None:
            return np.stack([n1, n2], axis=1)
        out[:, 0] = n1
        out[:, 1] = n2
        return out

    def apply_impulse(self, state: QueueState, magnitude: float) -> QueueState:
        """Inject ``magnitude`` extra customers directly into Queue 2."""
        n1, n2 = state
        return (n1, max(0, n2 + int(magnitude)))

    def apply_impulse_batch(self, states: np.ndarray, rows,
                            magnitudes) -> None:
        extra = np.trunc(np.asarray(magnitudes, dtype=np.float64))
        column = states[:, 1]
        column[rows] = np.maximum(0, column[rows]
                                  + extra.astype(column.dtype))

    # --- fusion hooks -------------------------------------------------

    def fusion_key(self):
        return ("tandem_queue",)

    def fusion_params(self) -> dict:
        return {"arrival_rate": self.arrival_rate,
                "mu1": self._mu1, "mu2": self._mu2}

    @staticmethod
    def fused_step_batch(row_params, states, t, rng, out=None):
        n1 = states[:, 0].astype(np.int64)
        n2 = states[:, 1].astype(np.int64)
        _gillespie_unit_interval(n1, n2, row_params["arrival_rate"],
                                 row_params["mu1"], row_params["mu2"], rng)
        if out is None:
            return np.stack([n1, n2], axis=1).astype(np.float64)
        out[:, 0] = n1
        out[:, 1] = n2
        return out

    @staticmethod
    def queue2_length(state: QueueState) -> float:
        """Real-valued evaluation ``z``: the Queue 2 backlog (paper §6)."""
        return float(state[1])

    @staticmethod
    def queue1_length(state: QueueState) -> float:
        return float(state[0])

    @staticmethod
    def total_customers(state: QueueState) -> float:
        return float(state[0] + state[1])


def _queue_rows(states: np.ndarray) -> np.ndarray:
    # Object arrays (ScalarFallback wrapping, e.g. a volatile queue)
    # hold tuple states; unpack before the column reads.
    return np.asarray([tuple(s) for s in states]) \
        if states.dtype == object else states


register_batch_z(TandemQueueProcess.queue2_length,
                 lambda states: _queue_rows(states)[:, 1].astype(np.float64))
register_batch_z(TandemQueueProcess.queue1_length,
                 lambda states: _queue_rows(states)[:, 0].astype(np.float64))
register_batch_z(
    TandemQueueProcess.total_customers,
    lambda states: _queue_rows(states).sum(axis=1).astype(np.float64))
