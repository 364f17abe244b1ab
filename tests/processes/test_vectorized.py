"""Tests for the batched simulation protocol (VectorizedProcess).

Each native ``step_batch`` is validated against its scalar ``step``,
the model's definition: both simulate many paths from the same start,
and the resulting state distributions must agree in mean/variance
within standard-error tolerances (the draws themselves are necessarily
different — batching reorders the stream).
"""

import math
import random

import numpy as np
import pytest

from repro.processes import (ARProcess, CompoundPoissonProcess,
                             GaussianWalkProcess, GBMProcess,
                             ImpulseProcess, MarkovChainProcess,
                             RandomWalkProcess, ScalarFallback,
                             TandemQueueProcess, VectorizedProcess,
                             as_vectorized, batch_z_values,
                             birth_death_chain, volatile_cpp,
                             volatile_queue)
from repro.processes.base import StochasticProcess

from ..helpers import ScriptedProcess


def scalar_terminals(process, value_of, n_paths, horizon, seed):
    """Terminal values of ``n_paths`` scalar simulations."""
    rng = random.Random(seed)
    out = []
    for _ in range(n_paths):
        state = process.initial_state()
        for t in range(1, horizon + 1):
            state = process.step(state, t, rng)
        out.append(value_of(state))
    return np.asarray(out, dtype=np.float64)


def batch_terminals(process, value_of_rows, n_paths, horizon, seed):
    """Terminal values of ``n_paths`` batched simulations."""
    rng = np.random.default_rng(seed)
    states = process.initial_states(n_paths)
    for t in range(1, horizon + 1):
        states = process.step_batch(states, t, rng)
    return value_of_rows(states)


def assert_means_agree(sample_a, sample_b, z_bound=4.5):
    """Two-sample z-test on the means (plus a tiny absolute floor)."""
    se = math.sqrt(sample_a.var(ddof=1) / len(sample_a)
                   + sample_b.var(ddof=1) / len(sample_b))
    delta = abs(sample_a.mean() - sample_b.mean())
    assert delta <= z_bound * se + 1e-9, (
        f"means differ by {delta:.4g} > {z_bound} se ({se:.4g})"
    )


N_PATHS = 4000


class TestRandomWalkBatch:
    def test_distribution_matches_scalar(self):
        walk = RandomWalkProcess(p_up=0.3, p_down=0.5, start=2)
        scalar = scalar_terminals(walk, float, N_PATHS, 40, seed=1)
        batched = batch_terminals(walk, lambda s: s.astype(float),
                                  N_PATHS, 40, seed=2)
        assert_means_agree(scalar, batched)

    def test_moves_are_unit_steps(self):
        walk = RandomWalkProcess(p_up=0.5)
        rng = np.random.default_rng(0)
        states = walk.initial_states(500)
        stepped = walk.step_batch(states, 1, rng)
        assert set(np.unique(stepped - states)) <= {-1, 0, 1}

    def test_initial_states_honour_start(self):
        walk = RandomWalkProcess(start=7)
        assert (walk.initial_states(5) == 7).all()


class TestGaussianWalkBatch:
    def test_distribution_matches_scalar(self):
        walk = GaussianWalkProcess(drift=0.1, sigma=0.5, start=-1.0)
        scalar = scalar_terminals(walk, float, N_PATHS, 30, seed=3)
        batched = batch_terminals(walk, np.asarray, N_PATHS, 30, seed=4)
        assert_means_agree(scalar, batched)
        # Terminal variance is 30 * sigma^2.
        assert batched.var(ddof=1) == pytest.approx(30 * 0.25, rel=0.2)


class TestGBMBatch:
    def test_distribution_matches_scalar(self):
        gbm = GBMProcess(start_price=100.0, mu=0.001, sigma=0.02)
        scalar = scalar_terminals(gbm, math.log, N_PATHS, 50, seed=5)
        batched = np.log(batch_terminals(gbm, np.asarray, N_PATHS, 50,
                                         seed=6))
        assert_means_agree(scalar, batched)


class TestARBatch:
    def test_distribution_matches_scalar(self):
        ar = ARProcess([0.5, 0.3], sigma=1.0, initial_values=[1.0, -1.0])
        scalar = scalar_terminals(ar, lambda s: s[0], N_PATHS, 40, seed=7)
        batched = batch_terminals(ar, lambda s: s[:, 0], N_PATHS, 40,
                                  seed=8)
        assert_means_agree(scalar, batched)

    def test_window_shifts_newest_first(self):
        ar = ARProcess([0.0, 0.0, 0.0], sigma=1e-12,
                       initial_values=[3.0, 2.0, 1.0])
        states = ar.initial_states(4)
        stepped = ar.step_batch(states, 1, np.random.default_rng(0))
        # New value ~0 enters in front; the oldest lag drops off.
        assert stepped[:, 1] == pytest.approx(3.0)
        assert stepped[:, 2] == pytest.approx(2.0)


class TestMarkovChainBatch:
    def test_distribution_matches_scalar(self):
        chain = birth_death_chain(n=13, p_up=0.3, p_down=0.3, start=4)
        scalar = scalar_terminals(chain, float, N_PATHS, 30, seed=9)
        batched = batch_terminals(chain, lambda s: s.astype(float),
                                  N_PATHS, 30, seed=10)
        assert_means_agree(scalar, batched)

    def test_one_step_transition_frequencies(self):
        matrix = [[0.2, 0.5, 0.3],
                  [0.6, 0.1, 0.3],
                  [0.0, 0.0, 1.0]]
        chain = MarkovChainProcess(matrix, start=0)
        rng = np.random.default_rng(11)
        stepped = chain.step_batch(chain.initial_states(30_000), 1, rng)
        freq = np.bincount(stepped, minlength=3) / 30_000
        assert freq == pytest.approx(matrix[0], abs=0.02)

    def test_states_stay_in_range(self):
        chain = birth_death_chain(n=5, p_up=0.4, p_down=0.4)
        rng = np.random.default_rng(12)
        states = chain.initial_states(1000)
        for t in range(1, 20):
            states = chain.step_batch(states, t, rng)
            assert states.min() >= 0 and states.max() <= 4


class TestTandemQueueBatch:
    def test_distribution_matches_scalar(self):
        queue = TandemQueueProcess()
        scalar = scalar_terminals(queue, lambda s: float(s[1]), 1500, 40,
                                  seed=13)
        batched = batch_terminals(queue, lambda s: s[:, 1].astype(float),
                                  1500, 40, seed=14)
        assert_means_agree(scalar, batched)

    def test_queue_lengths_never_negative(self):
        queue = TandemQueueProcess()
        rng = np.random.default_rng(15)
        states = queue.initial_states(300)
        for t in range(1, 30):
            states = queue.step_batch(states, t, rng)
            assert states.min() >= 0

    def test_input_states_not_mutated(self):
        queue = TandemQueueProcess()
        rng = np.random.default_rng(16)
        states = queue.initial_states(100)
        before = states.copy()
        queue.step_batch(states, 1, rng)
        assert (states == before).all()


class TestCompoundPoissonBatch:
    def test_distribution_matches_scalar(self):
        cpp = CompoundPoissonProcess()
        scalar = scalar_terminals(cpp, float, N_PATHS, 30, seed=17)
        batched = batch_terminals(cpp, np.asarray, N_PATHS, 30, seed=18)
        assert_means_agree(scalar, batched)
        # Terminal variance: 30 * lam * E[J^2].
        mean_sq = (5.0 ** 2 + 5.0 * 10.0 + 10.0 ** 2) / 3.0
        assert batched.var(ddof=1) == pytest.approx(30 * 0.8 * mean_sq,
                                                    rel=0.2)

    def test_batches_natively(self):
        cpp = CompoundPoissonProcess()
        assert as_vectorized(cpp) is cpp

    def test_zero_claims_step_is_pure_premium(self):
        cpp = CompoundPoissonProcess(jump_rate=1e-12)
        states = cpp.initial_states(50)
        stepped = cpp.step_batch(states, 1, np.random.default_rng(0))
        assert stepped == pytest.approx(15.0 + 4.5)

    def test_input_states_not_mutated(self):
        cpp = CompoundPoissonProcess()
        states = cpp.initial_states(100)
        before = states.copy()
        cpp.step_batch(states, 1, np.random.default_rng(1))
        assert (states == before).all()

    def test_in_place_step_writes_out(self):
        cpp = CompoundPoissonProcess()
        states = cpp.initial_states(100)
        result = cpp.step_batch(states, 1, np.random.default_rng(2),
                                out=states)
        assert result is states


class TestImpulseProcessBatch:
    def test_volatile_cpp_matches_scalar(self):
        process = volatile_cpp(CompoundPoissonProcess(), horizon=40,
                               impulse=20.0, probability=0.1)
        scalar = scalar_terminals(process, float, N_PATHS, 40, seed=19)
        batched = batch_terminals(process, np.asarray, N_PATHS, 40,
                                  seed=20)
        assert_means_agree(scalar, batched)

    def test_volatile_queue_matches_scalar(self):
        process = volatile_queue(TandemQueueProcess(), horizon=30,
                                 impulse=5.0, probability=0.1)
        scalar = scalar_terminals(process, lambda s: float(s[1]), 1500, 30,
                                  seed=21)
        batched = batch_terminals(process,
                                  lambda s: s[:, 1].astype(float), 1500,
                                  30, seed=22)
        assert_means_agree(scalar, batched)

    def test_batches_like_its_base(self):
        vectorized_base = volatile_cpp(CompoundPoissonProcess(),
                                       horizon=10)
        assert as_vectorized(vectorized_base) is vectorized_base
        assert not isinstance(vectorized_base._batch_base, ScalarFallback)

        class ScalarImpulsable(StochasticProcess):
            def initial_state(self):
                return 0.0

            def step(self, state, t, rng):
                return state + rng.random()

            def apply_impulse(self, state, magnitude):
                return state + magnitude

        scalar_base = ImpulseProcess(ScalarImpulsable(), impulse=1.0,
                                     probability=0.1, active_after=5)
        assert isinstance(scalar_base._batch_base, ScalarFallback)

        # The batched face runs the base's step row by row; the adapter
        # outlives one run, yet each fresh generator reseeds it, so
        # repeated runs under one seed draw the same stream.
        def run(seed):
            rng = np.random.default_rng(seed)
            states = scalar_base.initial_states(4)
            for t in range(1, 9):
                states = scalar_base.step_batch(states, t, rng)
            return states.tolist()

        assert len(run(0)) == 4
        assert run(0) == run(0)
        assert run(0) != run(1)

    def test_impulses_only_fire_after_activation(self):
        base = CompoundPoissonProcess(jump_rate=1e-12, premium_rate=0.0,
                                      jump_low=0.0, jump_high=0.0)
        process = ImpulseProcess(base, impulse=7.0, probability=1.0,
                                 active_after=3)
        states = process.initial_states(10)
        rng = np.random.default_rng(3)
        for t in range(1, 4):
            states = process.step_batch(states, t, rng)
        assert states == pytest.approx(15.0)
        states = process.step_batch(states, 4, rng)
        assert states == pytest.approx(22.0)

    def test_replicate_delegates_to_base(self):
        process = volatile_cpp(CompoundPoissonProcess(), horizon=10)
        states = np.array([1.0, 2.0, 3.0])
        clones = process.replicate(states, [1], [3])
        assert clones.tolist() == [2.0, 2.0, 2.0]


class TestStockRNNBatch:
    @pytest.fixture(scope="class")
    def stock(self):
        from repro.processes.rnn.model import LSTMMDNModel
        from repro.processes.rnn.stock_model import StockRNNProcess

        model = LSTMMDNModel(hidden_size=8, n_layers=2, n_mixtures=3,
                             seed=0)
        return StockRNNProcess(model, 0.0005, 0.015,
                               [0.001, -0.002, 0.003], 100.0)

    def test_distribution_matches_scalar(self, stock):
        scalar = scalar_terminals(stock, lambda s: math.log(s[2]), 1500,
                                  25, seed=23)
        batched = np.log(batch_terminals(
            stock, lambda s: s[:, -1], 1500, 25, seed=24))
        assert_means_agree(scalar, batched)

    def test_batches_natively(self, stock):
        assert as_vectorized(stock) is stock

    def test_packed_rows_replicate_independently(self, stock):
        states = stock.initial_states(3)
        rng = np.random.default_rng(4)
        states = stock.step_batch(states, 1, rng)
        clones = stock.replicate(states, [1], [2])
        clones[0, :] = -1.0
        assert (clones[1] != -1.0).any()
        assert (states[1] == stock.replicate(states, [1], [1])[0]).all()

    def test_replicated_rows_diverge_under_simulation(self, stock):
        states = stock.initial_states(1)
        rng = np.random.default_rng(5)
        clones = stock.replicate(states, [0], [64])
        for t in range(1, 6):
            clones = stock.step_batch(clones, t, rng)
        assert len(np.unique(clones[:, -1])) > 1

    def test_batch_z_reads_price_column(self, stock):
        states = stock.initial_states(4)
        from repro.processes.rnn.stock_model import StockRNNProcess

        values = batch_z_values(StockRNNProcess.price, states)
        assert values == pytest.approx(100.0)

    def test_mdn_sample_batch_matches_scalar_distribution(self):
        from repro.processes.rnn.mdn import MDNHead

        head = MDNHead(hidden_size=4, n_mixtures=3,
                       rng=np.random.default_rng(6))
        h = np.tile(np.random.default_rng(7).normal(size=(1, 4)),
                    (4000, 1))
        batched = head.sample_batch(h, np.random.default_rng(8))
        scalar_rng = random.Random(9)
        scalar = np.asarray([head.sample(h[:1], scalar_rng)
                             for _ in range(4000)])
        assert_means_agree(scalar, batched)
        assert batched.std() == pytest.approx(scalar.std(), rel=0.15)


class TestScalarFallback:
    def test_wraps_arbitrary_process(self):
        scripted = ScriptedProcess([0.25, 0.5, 1.0])
        fallback = as_vectorized(scripted)
        assert isinstance(fallback, ScalarFallback)
        states = fallback.initial_states(4)
        assert states.dtype == object
        rng = np.random.default_rng(0)
        states = fallback.step_batch(states, 1, rng)
        assert list(states) == [0.25] * 4
        states = fallback.step_batch(states, 2, rng)
        assert list(states) == [0.5] * 4

    def test_replicate_copies_mutable_states(self):
        class ListState(StochasticProcess):
            def initial_state(self):
                return [0.0]

            def step(self, state, t, rng):
                state = list(state)
                state[0] += 1.0
                return state

        fallback = as_vectorized(ListState())
        states = fallback.initial_states(2)
        clones = fallback.replicate(states, [0], [3])
        clones[0][0] = 99.0
        assert states[0][0] == 0.0 and clones[1][0] == 0.0

    def test_tuple_states_stay_opaque(self):
        class TupleState(StochasticProcess):
            def initial_state(self):
                return (1, 2.0)

            def step(self, state, t, rng):
                return (state[0] + 1, state[1])

        fallback = as_vectorized(TupleState())
        states = fallback.initial_states(3)
        assert states.shape == (3,)
        assert states[0] == (1, 2.0)
        clones = fallback.replicate(states, [1, 2], [2, 1])
        assert clones.shape == (3,)
        assert clones[0] == (1, 2.0)

    def test_refuses_double_wrapping(self):
        with pytest.raises(TypeError):
            ScalarFallback(RandomWalkProcess())

    def test_native_process_passes_through(self):
        walk = RandomWalkProcess()
        assert as_vectorized(walk) is walk

    def test_scalar_contract_still_works(self):
        fallback = ScalarFallback(ScriptedProcess([0.5, 1.0]))
        state = fallback.initial_state()
        assert fallback.step(state, 1, random.Random(0)) == 0.5


class TestBatchZRegistry:
    def test_static_z_variants(self):
        states = np.asarray([1, 2, 3], dtype=np.int64)
        values = batch_z_values(RandomWalkProcess.position, states)
        assert values.tolist() == [1.0, 2.0, 3.0]

    def test_bound_method_z(self):
        chain = MarkovChainProcess([[0.5, 0.5], [0.0, 1.0]],
                                   values=[10.0, 20.0])
        values = batch_z_values(chain.state_value, np.asarray([0, 1, 0]))
        assert values.tolist() == [10.0, 20.0, 10.0]

    def test_queue_columns(self):
        states = np.asarray([[1, 4], [2, 5]], dtype=np.int64)
        assert batch_z_values(TandemQueueProcess.queue2_length,
                              states).tolist() == [4.0, 5.0]
        assert batch_z_values(TandemQueueProcess.queue1_length,
                              states).tolist() == [1.0, 2.0]
        assert batch_z_values(TandemQueueProcess.total_customers,
                              states).tolist() == [5.0, 7.0]

    def test_ar_window_z(self):
        states = np.asarray([[1.0, 0.0], [2.0, 1.0]])
        assert batch_z_values(ARProcess.current_value,
                              states).tolist() == [1.0, 2.0]

    def test_registered_z_handles_object_state_arrays(self):
        """Registered batch-z variants must also accept the object
        arrays that ScalarFallback produces (e.g. an impulse-decorated
        process evaluated with the base process's z)."""
        from repro.core.srs import SRSSampler
        from repro.core.value_functions import DurabilityQuery
        from repro.processes.volatile import ImpulseProcess

        ar = ARProcess([0.5], sigma=1.0)
        volatile = ImpulseProcess(ar, impulse=1.0, probability=0.1,
                                  active_after=0)
        fallback = as_vectorized(volatile)
        states = fallback.initial_states(4)
        assert batch_z_values(ARProcess.current_value,
                              states).tolist() == [0.0] * 4
        # ... and end-to-end through the sampler.
        query = DurabilityQuery.threshold(volatile, ARProcess.current_value,
                                          beta=5.0, horizon=20)
        estimate = SRSSampler().run(query, max_roots=200, seed=1)
        assert 0.0 <= estimate.probability <= 1.0

        queue_states = as_vectorized(
            ImpulseProcess(TandemQueueProcess(), impulse=1.0,
                           probability=0.1,
                           active_after=0)).initial_states(3)
        assert batch_z_values(TandemQueueProcess.total_customers,
                              queue_states).tolist() == [0.0] * 3

    def test_unregistered_z_falls_back_to_row_loop(self):
        def doubled(state):
            return 2.0 * state

        values = batch_z_values(doubled, np.asarray([1.0, 2.0]))
        assert values.tolist() == [2.0, 4.0]

    def test_explicit_batch_attribute_wins(self):
        def z(state):
            raise AssertionError("scalar path should not run")

        z.batch = lambda states: np.zeros(len(states))
        assert batch_z_values(z, np.ones(3)).tolist() == [0.0, 0.0, 0.0]

    def test_all_vectorized_processes_declare_the_protocol(self):
        for process in (RandomWalkProcess(), GaussianWalkProcess(),
                        GBMProcess(), ARProcess([0.5]),
                        MarkovChainProcess([[1.0]]),
                        TandemQueueProcess()):
            assert isinstance(process, VectorizedProcess)
