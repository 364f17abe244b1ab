"""Abstract interfaces for step-wise simulation models.

The paper (Section 2.1) assumes only that the predictive model exposes a
step-wise simulation procedure ``g``: given the states up to time ``t - 1``
it returns a (random) state for time ``t``.  Everything else — the state
space, the dynamics, whether the model is a classic stochastic process or
a neural network — is opaque to the query processor.

This module pins that contract down as :class:`StochasticProcess`.  The
samplers in :mod:`repro.core` interact with models exclusively through

* :meth:`StochasticProcess.initial_state`,
* :meth:`StochasticProcess.step`, and
* :meth:`StochasticProcess.copy_state` (needed by splitting samplers,
  which restart several simulations from one entrance state).

Cost is accounted as the number of ``step`` invocations, matching the
paper's cost model ("total number of invocations of g").

Batched simulation
------------------

The scalar contract dispatches one Python call per path per step, which
dominates the runtime of every sampler.  :class:`VectorizedProcess` is
the batched counterpart: a *state array* holds one state per row, and

* :meth:`VectorizedProcess.initial_states` returns ``n`` fresh rows,
* :meth:`VectorizedProcess.step_batch` advances every row one time step
  with a single NumPy-level operation, and
* :meth:`VectorizedProcess.replicate` clones selected rows (the batched
  analogue of ``copy_state``, used by splitting samplers).

Cost accounting is unchanged: one ``step_batch`` over ``k`` rows counts
as ``k`` invocations of ``g``.  Because all rows are independent paths,
batching only *reorders* independent random draws — every estimator's
unbiasedness argument goes through untouched.

:class:`ScalarFallback` adapts any scalar :class:`StochasticProcess` to
the batched contract (rows of a NumPy object array hold the scalar
states), so callers can program against :class:`VectorizedProcess`
uniformly; :func:`as_vectorized` picks the native implementation when
one exists.  :func:`register_batch_z` / :func:`batch_z_values` vectorize
the real-valued state evaluations ``z`` that value functions are built
from (see :mod:`repro.core.value_functions`).

In-place stepping
-----------------

Processes that can write the next state array into a caller-provided
buffer advertise it with ``supports_out = True`` and accept an ``out``
keyword on ``step_batch``; :func:`step_into` is the helper samplers use
to take the fast path when available and fall back to the allocating
contract otherwise.  Passing ``out=states`` (the common case) is
explicitly allowed: implementations must read everything they need from
a row before overwriting it.

Cross-process batch fusion
--------------------------

A fleet-screening batch asks the same question of many *entities* —
hundreds of processes of one family that differ only in parameters
(per-server arrival rates, per-stock drift and volatility).  Stepping
each entity's cohort separately repays the per-call dispatch overhead
once per entity per time step.  :class:`FusedBatch` removes that
multiplier: it stacks same-family processes into **one** vectorized
process whose state array carries an *owner column* (the last column)
mapping each row to its member, and whose step broadcasts per-member
parameter arrays by owner — one ``step_batch`` call advances the whole
fleet one time step.

A process opts into fusion by implementing three hooks:

* :meth:`StochasticProcess.fusion_key` — a structural family key; two
  processes fuse iff their keys are equal and not ``None`` (the
  default).  The key must capture everything *shape-like* (e.g. the AR
  order) so that per-member parameters can be stacked into rectangular
  arrays.
* ``fusion_params()`` — the per-member parameters as a flat dict of
  scalars/tuples; :class:`FusedBatch` stacks them into per-member
  arrays.
* ``fused_step_batch(row_params, states, t, rng, out=None)`` — the
  family's batched step over *row-aligned* parameter arrays
  (``row_params[name][i]`` parameterises row ``i``).  The generic
  :meth:`FusedBatch.step_batch` gathers per-member parameters by owner
  on every call; long-running passes gather once via
  :meth:`FusedBatch.row_params` and filter the rows and parameters
  together (see :mod:`repro.core.fleet`), keeping per-step work free
  of repeated indexing.

Because the owner column rides inside the state array, row selection,
:func:`numpy.repeat` replication and in-place stepping all work
unchanged, and registered batch-``z`` evaluations read their value from
the leading columns (the owner column is always last).

Block stepping
--------------

Families with additive increments also offer a *block*:
``step_block(states, t, width, rng)`` returns a time-major
``(width, n, ...)`` array whose row ``i`` is the state array at time
``t + i``, and ``fused_step_block(row_params, states, t, width, rng)``
is its fused counterpart.  A block must equal ``width`` successive
``step_batch`` (``fused_step_batch``) calls on a generator in the same
state, bit for bit: it draws the same numbers in the same order
(``rng.random((width, n))`` consumes the stream exactly as ``width``
calls of size ``n``) and adds the increments in time order
(:func:`accumulate_steps`).  The SRS kernel
(:func:`repro.core.srs.advance_rows`) advances small cohorts a block at
a time.  A subclass that overrides ``step_batch`` (or
``fused_step_batch``) must override the block to match, or set it to
``None``.

Coverage matrix
---------------

``step`` is the model definition every process provides.  Samplers
always run their batched loop: through the process's own
``step_batch`` where the row says *native*, otherwise through
:class:`ScalarFallback`, which calls ``step`` row by row.  Either way
cost is one ``g`` invocation per path per step.  *Block* marks the
families whose query and fused rows also step a block at a time.

======================  ==========  ===================  ===============  =====
process                 definition  batched              fused            block
======================  ==========  ===================  ===============  =====
RandomWalkProcess       ``step``    native               yes              yes
GaussianWalkProcess     ``step``    native               yes              yes
GBMProcess              ``step``    native               yes              no
ARProcess               ``step``    native               yes (per order)  no
MarkovChainProcess      ``step``    native               yes (per state-  no
                                                         space size)
TandemQueueProcess      ``step``    native (Gillespie)   yes              no
CompoundPoissonProcess  ``step``    native (Poisson      yes              no
                                    sums)
ImpulseProcess          ``step``    native over any      yes (fusible     no
                                    vectorized base      base family)
StockRNNProcess         ``step``    native (packed LSTM  no               no
                                    state, batched MDN)
anything else           ``step``    ScalarFallback       no               no
======================  ==========  ===================  ===============  =====
"""

from __future__ import annotations

import abc
import copy
import functools
import math
import random
import types
from typing import Any, Callable, Sequence

import numpy as np

State = Any


class StochasticProcess(abc.ABC):
    """A discrete-time stochastic process defined by a simulation rule.

    Subclasses must be cheap to construct and *stateless across paths*:
    all per-path information lives in the ``state`` object so that many
    sample paths can be simulated concurrently from shared entrance
    states (the core requirement of multi-level splitting).

    Contract:

    * ``initial_state()`` returns a fresh state for time 0.  Calling it
      twice must return states that can be simulated independently.
    * ``step(state, t, rng)`` returns the state at time ``t`` given the
      state at time ``t - 1``.  Implementations may mutate ``state``
      in place and return it, *provided* that states produced by
      ``copy_state`` share no mutable structure with the original.
    * ``copy_state(state)`` returns an independent copy.  The default
      uses :func:`copy.deepcopy`; processes with immutable states
      (tuples, ints, floats) should override it with identity for speed.
    """

    @abc.abstractmethod
    def initial_state(self) -> State:
        """Return a fresh state for time 0."""

    @abc.abstractmethod
    def step(self, state: State, t: int, rng: random.Random) -> State:
        """Simulate one step: return the state at time ``t``.

        ``t`` is the time index being generated (``t >= 1``); ``state``
        is the state at ``t - 1``.  ``rng`` is the caller's random
        source; implementations must draw all randomness from it so that
        runs are reproducible under a fixed seed.
        """

    def copy_state(self, state: State) -> State:
        """Return a copy of ``state`` safe to simulate independently."""
        return copy.deepcopy(state)

    def apply_impulse(self, state: State, magnitude: float) -> State:
        """Return ``state`` shifted by an exogenous impulse.

        Used by :mod:`repro.processes.volatile` to build the paper's
        "volatile" model variants (Section 6.2).  Processes that support
        impulses override this; the default refuses so that wrapping an
        unsupported process fails loudly rather than silently.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support impulses"
        )

    def fusion_key(self):
        """Structural family key for cross-process batch fusion.

        Two processes can be stacked into one :class:`FusedBatch` iff
        their keys are equal and not ``None``.  The default — ``None`` —
        opts out; fusible families return a tuple identifying the
        family plus anything shape-like (e.g. the AR order) that the
        stacked parameter arrays depend on.  Parameters themselves
        (rates, drifts, volatilities) belong in ``fusion_params``, not
        the key: differing parameters are exactly what fusion exists to
        broadcast.
        """
        return None


class ImmutableStateProcess(StochasticProcess):
    """Convenience base for processes whose states are immutable values.

    Tuples, ints and floats need no copying; ``copy_state`` is identity.
    """

    def copy_state(self, state: State) -> State:
        return state


def simulate_path(
    process: StochasticProcess,
    horizon: int,
    rng: random.Random,
    initial_state: State | None = None,
) -> list:
    """Simulate one full sample path ``[x_0, x_1, ..., x_horizon]``.

    A small utility used by examples, calibration and tests; the samplers
    in :mod:`repro.core` run their own loops so they can stop early and
    count steps.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    state = initial_state if initial_state is not None else process.initial_state()
    path = [state]
    for t in range(1, horizon + 1):
        state = process.step(state, t, rng)
        path.append(state)
    return path


# ----------------------------------------------------------------------
# Batched simulation protocol
# ----------------------------------------------------------------------

class VectorizedProcess(abc.ABC):
    """Mixin contract for processes that simulate whole batches at once.

    A *state array* represents one state per row: a 1-D array for scalar
    states (walk positions, chain indices, prices) or a 2-D array of
    shape ``(n, d)`` for structured states (AR windows, queue pairs).
    Rows are independent sample paths.

    Contract:

    * ``initial_states(n)`` returns a state array of ``n`` fresh,
      independently-simulatable time-0 states.
    * ``step_batch(states, t, rng)`` returns the state array at time
      ``t`` given the array at ``t - 1``.  ``rng`` is a
      :class:`numpy.random.Generator`; implementations must draw all
      randomness from it.  Each call accounts for ``len(states)``
      invocations of ``g``.  Implementations must not mutate the input
      array (return a fresh array, or operate on a copy).
    * ``replicate(states, indices, counts)`` returns a state array with
      ``counts[j]`` independent copies of row ``indices[j]``, in order —
      the batched ``copy_state`` used when splitting samplers spawn
      offspring from entrance states.

    Row selection (``states[mask]``) and concatenation
    (``numpy.concatenate``) must produce valid state arrays; plain
    value-typed NumPy arrays satisfy this for free.

    Implementations advertising ``supports_out = True`` additionally
    accept an ``out`` keyword on ``step_batch`` (a buffer shaped like
    the input, possibly the input itself) and write the result there —
    the allocation-free fast path taken by :func:`step_into`.
    """

    #: True when ``step_batch`` accepts ``out=`` (see :func:`step_into`).
    supports_out = False

    @abc.abstractmethod
    def initial_states(self, n: int) -> np.ndarray:
        """Return a state array of ``n`` fresh time-0 states."""

    @abc.abstractmethod
    def step_batch(self, states: np.ndarray, t: int,
                   rng: np.random.Generator) -> np.ndarray:
        """Advance every row one step: the state array at time ``t``."""

    def replicate(self, states: np.ndarray, indices, counts) -> np.ndarray:
        """Clone rows: ``counts[j]`` independent copies of ``indices[j]``.

        The default is :func:`numpy.repeat`, correct whenever states are
        plain value arrays (no shared mutable structure between rows).
        """
        return np.repeat(states[np.asarray(indices)],
                         np.asarray(counts), axis=0)

    def apply_impulse_batch(self, states: np.ndarray, rows,
                            magnitudes) -> None:
        """Apply impulses to selected rows of a state array, in place.

        The batched counterpart of
        :meth:`StochasticProcess.apply_impulse`: ``states[rows[j]]``
        receives an impulse of ``magnitudes[j]`` (``magnitudes`` may be
        a scalar, broadcast over rows).  Mutates ``states`` — callers
        own the array.  The default refuses, mirroring the scalar
        contract.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support batched impulses"
        )


def step_into(process: "VectorizedProcess", states: np.ndarray, t: int,
              rng: np.random.Generator) -> np.ndarray:
    """Advance ``states`` one step, in place when the process allows it.

    The single call sites in the hot loops go through here: processes
    with ``supports_out`` overwrite the caller's buffer (no per-step
    allocation); everything else falls back to the allocating
    ``step_batch`` contract.  Either way the *returned* array is the
    new state array — callers must use it and forget the input.
    """
    if process.supports_out:
        return process.step_batch(states, t, rng, out=states)
    return process.step_batch(states, t, rng)


#: Rows up to which :func:`accumulate_steps` takes a cumulative sum.
CUMSUM_ROWS = 256


def accumulate_steps(states: np.ndarray,
                     increments: np.ndarray) -> np.ndarray:
    """The time-major block of states after each additive increment.

    ``increments[i]`` (broadcast against ``states``) is step ``i``'s
    increment, and ``result[i]`` is ``((states + increments[0]) + ...)
    + increments[i]``, added in time order exactly as ``i + 1``
    successive ``np.add`` steps add it.  ``np.cumsum`` along the time
    axis costs about 4.5 ns per cell and a loop of one ``np.add`` per
    step about 1.3 us per step, so blocks of at most ``CUMSUM_ROWS``
    rows take the first and wider blocks the second; both add in the
    same order.
    """
    block = np.empty((len(increments) + 1,) + states.shape,
                     dtype=np.result_type(states, increments))
    block[0] = states
    if len(states) <= CUMSUM_ROWS:
        block[1:] = increments
        np.cumsum(block, axis=0, out=block)
    else:
        for i, increment in enumerate(increments):
            np.add(block[i], increment, out=block[i + 1])
    return block[1:]


def require_finite(**params) -> None:
    """Raise ``ValueError`` naming the first non-finite parameter."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def scalar_state_column(states: np.ndarray) -> np.ndarray:
    """The scalar value of each row, for 1-D *or* fused state arrays.

    Scalar-state families (walks, GBM, CPP) keep 1-D native state
    arrays but gain a trailing owner column under :class:`FusedBatch`;
    their registered batch-``z`` evaluations read through this helper
    so both layouts score identically.
    """
    arr = np.asarray(states, dtype=np.float64)
    return arr if arr.ndim == 1 else arr[:, 0]


class ScalarFallback(VectorizedProcess, StochasticProcess):
    """Adapt any scalar :class:`StochasticProcess` to the batched contract.

    State arrays are 1-D NumPy object arrays whose elements are the
    wrapped process's scalar states, so the adapter works for *any*
    state type at scalar-loop speed.  It exists so that every sampler
    can be written once against :class:`VectorizedProcess`; use
    :func:`as_vectorized` to prefer a native implementation.

    Randomness: ``step_batch`` draws from a :class:`random.Random`
    seeded from the caller's NumPy generator the first time that
    generator is seen, so runs remain reproducible under a fixed seed
    even when one adapter serves several runs.
    """

    def __init__(self, process: StochasticProcess):
        if isinstance(process, VectorizedProcess):
            raise TypeError(
                f"{type(process).__name__} is already vectorized; "
                f"wrapping it in ScalarFallback would only slow it down"
            )
        self.process = process
        self._rng_source: np.random.Generator | None = None
        self._scalar_rng: random.Random | None = None

    # -- scalar contract: delegate straight through --------------------

    def initial_state(self) -> State:
        return self.process.initial_state()

    def step(self, state: State, t: int, rng: random.Random) -> State:
        return self.process.step(state, t, rng)

    def copy_state(self, state: State) -> State:
        return self.process.copy_state(state)

    def apply_impulse(self, state: State, magnitude: float) -> State:
        return self.process.apply_impulse(state, magnitude)

    # -- batched contract ----------------------------------------------

    @staticmethod
    def _object_array(items: Sequence) -> np.ndarray:
        # np.array() would try to broadcast tuple states into a 2-D
        # array; element-wise assignment keeps rows opaque.
        out = np.empty(len(items), dtype=object)
        for j, item in enumerate(items):
            out[j] = item
        return out

    def _rng_for(self, rng: np.random.Generator) -> random.Random:
        if rng is not self._rng_source:
            self._rng_source = rng
            self._scalar_rng = random.Random(int(rng.integers(1 << 62)))
        return self._scalar_rng

    def initial_states(self, n: int) -> np.ndarray:
        fresh = self.process.initial_state
        return self._object_array([fresh() for _ in range(n)])

    def step_batch(self, states: np.ndarray, t: int,
                   rng: np.random.Generator) -> np.ndarray:
        scalar_rng = self._rng_for(rng)
        step = self.process.step
        return self._object_array([step(s, t, scalar_rng) for s in states])

    def replicate(self, states: np.ndarray, indices, counts) -> np.ndarray:
        copy_state = self.process.copy_state
        clones = []
        for index, count in zip(indices, counts):
            source = states[index]
            clones.extend(copy_state(source) for _ in range(count))
        return self._object_array(clones)

    def apply_impulse_batch(self, states: np.ndarray, rows,
                            magnitudes) -> None:
        magnitudes = np.broadcast_to(np.asarray(magnitudes, dtype=float),
                                     (len(rows),))
        apply = self.process.apply_impulse
        for j, magnitude in zip(rows, magnitudes):
            states[j] = apply(states[j], float(magnitude))

    def __repr__(self) -> str:
        return f"ScalarFallback({self.process!r})"


class FusedBatch(VectorizedProcess):
    """Same-family processes with different parameters as one batch.

    The cross-process fusion layer: ``FusedBatch([p_0, ..., p_{k-1}])``
    stacks ``k`` processes whose :meth:`StochasticProcess.fusion_key`
    agree into a single :class:`VectorizedProcess`.  Its state array is
    always 2-D — the members' (column-aligned) core state plus a
    trailing *owner column* holding the member index of each row — so
    one ``step_batch`` call advances rows belonging to every member,
    with per-member parameters (drift, volatility, rates, ...)
    broadcast per row by indexing the stacked parameter arrays with the
    owner column.

    Cost accounting is unchanged: one fused ``step_batch`` over ``n``
    rows still counts as ``n`` invocations of ``g`` — fusion removes
    per-member dispatch overhead, not simulation work.  Rows are
    independent paths exactly as before, so estimates built from fused
    passes are exchangeable with per-member runs.

    The owner column survives everything samplers do to state arrays —
    boolean selection, :func:`numpy.repeat` replication, in-place
    stepping — because it is data, not metadata.  Registered
    batch-``z`` evaluations read the *leading* columns (see
    :func:`scalar_state_column`), so shared value functions score fused
    rows correctly.
    """

    supports_out = True

    def __init__(self, members: Sequence[StochasticProcess]):
        members = tuple(members)
        if not members:
            raise ValueError("FusedBatch needs at least one member")
        keys = {member.fusion_key() for member in members}
        if len(keys) != 1 or next(iter(keys)) is None:
            raise ValueError(
                f"members are not fusible into one batch: fusion keys "
                f"{sorted(keys, key=repr)} (need one shared non-None key)"
            )
        self.members = members
        self.key = keys.pop()
        self._lead = members[0]
        per_member = [member.fusion_params() for member in members]
        self.params = {
            name: np.asarray([params[name] for params in per_member])
            for name in per_member[0]
        }
        rows = [np.asarray(member.initial_states(1),
                           dtype=np.float64).reshape(1, -1)
                for member in members]
        width = rows[0].shape[1]
        if any(row.shape[1] != width for row in rows):
            raise ValueError("members disagree on state width")
        self._initial_rows = np.concatenate(rows, axis=0)

    @property
    def n_members(self) -> int:
        return len(self.members)

    @staticmethod
    def owners_of(states: np.ndarray) -> np.ndarray:
        """The owner column as integer member indices."""
        return states[:, -1].astype(np.intp)

    def initial_core_rows(self, owners) -> np.ndarray:
        """Fresh core state rows (no owner column) for the given owners.

        For callers that track row ownership themselves (the fleet
        screening pass keeps owners in a side array so its hot loop
        never re-derives them); most callers want
        :meth:`initial_states_for` instead.
        """
        return self._initial_rows[np.asarray(owners, dtype=np.intp)]

    def initial_states_for(self, counts) -> np.ndarray:
        """A fused state array with ``counts[i]`` rows for member ``i``."""
        counts = np.asarray(counts, dtype=np.int64)
        if len(counts) != self.n_members:
            raise ValueError(
                f"{len(counts)} counts for {self.n_members} members")
        owners = np.repeat(np.arange(self.n_members), counts)
        core = self.initial_core_rows(owners)
        return np.concatenate(
            [core, owners[:, None].astype(np.float64)], axis=1)

    def initial_states(self, n: int) -> np.ndarray:
        """``n`` fresh rows spread as evenly as possible over members."""
        base, extra = divmod(n, self.n_members)
        counts = np.full(self.n_members, base, dtype=np.int64)
        counts[:extra] += 1
        return self.initial_states_for(counts)

    def row_params(self, owners) -> dict:
        """Per-row parameter arrays for the given owner assignment."""
        owners = np.asarray(owners, dtype=np.intp)
        return {name: values[owners]
                for name, values in self.params.items()}

    def step_batch(self, states: np.ndarray, t: int,
                   rng: np.random.Generator,
                   out: np.ndarray | None = None) -> np.ndarray:
        row_params = self.row_params(self.owners_of(states))
        core = states[:, :-1]
        if out is not None:
            self._lead.fused_step_batch(row_params, core, t, rng,
                                        out=out[:, :-1])
            if out is not states:
                out[:, -1] = states[:, -1]
            return out
        new_core = self._lead.fused_step_batch(row_params, core, t, rng)
        return np.concatenate([new_core, states[:, -1:]], axis=1)

    def apply_impulse_batch(self, states: np.ndarray, rows,
                            magnitudes) -> None:
        self._lead.apply_impulse_batch(states[:, :-1], rows, magnitudes)

    def __repr__(self) -> str:
        return (f"FusedBatch({self.n_members} x "
                f"{type(self._lead).__name__}, key={self.key!r})")


def fuse_processes(processes: Sequence[StochasticProcess]) -> FusedBatch:
    """Stack fusible same-family processes into one :class:`FusedBatch`."""
    return FusedBatch(processes)


def as_vectorized(process: StochasticProcess) -> VectorizedProcess:
    """The process itself if vectorized, else a :class:`ScalarFallback`."""
    if isinstance(process, VectorizedProcess):
        return process
    return ScalarFallback(process)


# ----------------------------------------------------------------------
# Batched state evaluations (vectorized ``z``)
# ----------------------------------------------------------------------

# Maps a scalar ``z`` function (or the underlying __func__ of a bound
# method) to its batch variant.  Functions registered here let
# ThresholdValueFunction evaluate whole state arrays in one NumPy call.
_BATCH_Z: dict = {}


def register_batch_z(scalar_z: Callable, batch_z: Callable) -> Callable:
    """Register the batch variant of a scalar state evaluation ``z``.

    ``batch_z`` receives a state array (plus the bound instance first,
    when ``scalar_z`` is declared as an instance method) and returns one
    value per row.  Returns ``batch_z`` so it can be used as a
    decorator-style helper.
    """
    _BATCH_Z[getattr(scalar_z, "__func__", scalar_z)] = batch_z
    return batch_z


def registered_z_names(process) -> list:
    """The sorted names of ``process``'s methods (bound or static) that
    are state evaluations registered with :func:`register_batch_z`."""
    cls = type(process)
    return sorted(name for name in dir(cls)
                  if isinstance(getattr(cls, name, None), types.FunctionType)
                  and getattr(cls, name) in _BATCH_Z)


def resolve_batch_z(z: Callable) -> Callable:
    """The batch form of ``z``: a callable from a state array to one
    value per row (any array-like; :func:`batch_z_values` makes it
    ``float64``).

    Resolution order: an explicit ``z.batch`` attribute, then the
    :func:`register_batch_z` registry (bound methods are looked up by
    their underlying function and called with their instance), then a
    row-wise scalar loop — always correct, merely slower.  A hot loop
    resolves once and calls the result every step.
    """
    batch = getattr(z, "batch", None)
    if batch is not None:
        return batch
    registered = _BATCH_Z.get(getattr(z, "__func__", z))
    if registered is None:
        def rowwise(states):
            return [z(s) for s in states]
        return rowwise
    owner = getattr(z, "__self__", None)
    if owner is None:
        return registered
    return functools.partial(registered, owner)


def batch_z_values(z: Callable, states: np.ndarray) -> np.ndarray:
    """Evaluate ``z`` over a state array: ``float64``, one value per row
    (through :func:`resolve_batch_z`)."""
    return np.asarray(resolve_batch_z(z)(states), dtype=np.float64)
