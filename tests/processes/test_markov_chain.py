"""Tests for finite Markov chains."""

import math
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.srs import FleetRows
from repro.processes.base import FusedBatch, resolve_batch_z, simulate_path
from repro.processes.markov_chain import MarkovChainProcess, birth_death_chain


class TestConstruction:
    def test_validates_row_sums(self):
        with pytest.raises(ValueError):
            MarkovChainProcess([[0.5, 0.4], [0.0, 1.0]])

    def test_validates_negative_entries(self):
        with pytest.raises(ValueError):
            MarkovChainProcess([[1.5, -0.5], [0.0, 1.0]])

    def test_validates_square_shape(self):
        with pytest.raises(ValueError):
            MarkovChainProcess([[0.5, 0.5]])

    def test_validates_start_state(self):
        with pytest.raises(ValueError):
            MarkovChainProcess([[1.0]], start=3)

    def test_validates_values_length(self):
        with pytest.raises(ValueError):
            MarkovChainProcess([[1.0]], values=[1.0, 2.0])

    def test_rejects_empty_matrix(self):
        with pytest.raises(ValueError):
            MarkovChainProcess([])

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (1, 0)])
    def test_non_finite_matrix_entry_rejected(self, entry, value):
        matrix = [[0.5, 0.5], [0.5, 0.5]]
        matrix[entry[0]][entry[1]] = value
        name = f"transition_matrix[{entry[0]}][{entry[1]}]"
        with pytest.raises(ValueError,
                           match=re.escape(f"{name} must be finite")):
            MarkovChainProcess(matrix)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, value):
        with pytest.raises(ValueError,
                           match=re.escape("values[1] must be finite")):
            MarkovChainProcess([[0.5, 0.5], [0.5, 0.5]], values=[0, value])

    def test_default_values_are_indices(self):
        chain = MarkovChainProcess([[0.5, 0.5], [0.5, 0.5]])
        assert chain.state_value(0) == 0.0
        assert chain.state_value(1) == 1.0

    def test_num_states(self):
        assert MarkovChainProcess([[1.0]]).num_states == 1


class TestSampling:
    def test_absorbing_state_stays(self):
        chain = MarkovChainProcess([[0.0, 1.0], [0.0, 1.0]])
        path = simulate_path(chain, 5, random.Random(0))
        assert path == [0, 1, 1, 1, 1, 1]

    def test_transition_frequencies_match_matrix(self):
        matrix = [[0.2, 0.5, 0.3], [0.6, 0.1, 0.3], [0.3, 0.3, 0.4]]
        chain = MarkovChainProcess(matrix)
        rng = random.Random(13)
        counts = Counter()
        n = 6000
        for _ in range(n):
            counts[chain.step(0, 1, rng)] += 1
        for j in range(3):
            assert counts[j] / n == pytest.approx(matrix[0][j], abs=0.03)

    def test_deterministic_under_seed(self):
        chain = birth_death_chain(6, 0.3, 0.3)
        a = simulate_path(chain, 30, random.Random(1))
        b = simulate_path(chain, 30, random.Random(1))
        assert a == b


class TestBirthDeathChain:
    def test_structure(self):
        chain = birth_death_chain(5, p_up=0.3, p_down=0.2, start=1)
        assert chain.start == 1
        assert chain.matrix[0][1] == 0.3
        assert chain.matrix[0][0] == 0.7
        assert chain.matrix[2][3] == 0.3
        assert chain.matrix[2][1] == 0.2
        assert chain.matrix[2][2] == pytest.approx(0.5)
        assert chain.matrix[4][4] == 1.0  # absorbing top

    def test_moves_one_unit_at_most(self):
        chain = birth_death_chain(8, 0.4, 0.4)
        path = simulate_path(chain, 100, random.Random(3))
        assert all(abs(b - a) <= 1 for a, b in zip(path, path[1:]))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            birth_death_chain(1, 0.3, 0.3)
        with pytest.raises(ValueError):
            birth_death_chain(5, 0.7, 0.5)

    @pytest.mark.parametrize("param", ["p_up", "p_down"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_probability_rejected(self, param, value):
        params = {"n": 5, "p_up": 0.3, "p_down": 0.3, param: value}
        with pytest.raises(ValueError):
            birth_death_chain(**params)


class _FixedUniforms:
    """A stand-in generator whose ``random(n)`` returns given ``u``."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, size):
        assert size == len(self.u)
        return self.u


class _ScalarUniform:
    """A stand-in ``random.Random`` whose ``random()`` returns ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


@st.composite
def stochastic_rows(draw, n):
    """One row: exactly one 1.0 entry, or weights with zeros, scaled to
    sum to one."""
    if draw(st.booleans()):
        row = [0.0] * n
        row[draw(st.integers(0, n - 1))] = 1.0
        return row
    weights = draw(st.lists(
        st.one_of(st.just(0.0), st.floats(0.001, 1.0)), min_size=n,
        max_size=n).filter(lambda w: sum(w) > 0))
    total = sum(weights)
    return [w / total for w in weights]


def tied_uniforms(draw, matrices, rows):
    """``rows`` uniforms in [0, 1), many of them equal to one of the
    matrices' own cumulative entries."""
    ties = sorted({value for matrix in matrices
                   for row in np.cumsum(matrix, axis=1)
                   for value in row if 0.0 <= value < 1.0})
    return draw(st.lists(st.one_of(
        st.just(0.0), st.floats(0.0, 1.0, exclude_max=True),
        st.sampled_from(ties or [0.0])), min_size=rows, max_size=rows))


@st.composite
def chain_steps(draw):
    n = draw(st.integers(1, 8))
    matrix = [draw(stochastic_rows(n)) for _ in range(n)]
    rows = draw(st.integers(1, 40))
    states = draw(st.lists(st.integers(0, n - 1), min_size=rows,
                           max_size=rows))
    return (matrix, np.asarray(states, dtype=np.int64),
            tied_uniforms(draw, [matrix], rows))


@st.composite
def fused_chain_steps(draw):
    """1-5 chains over one state space, one row count per member, each
    row's state and its tied uniform."""
    n = draw(st.integers(1, 8))
    matrices = [[draw(stochastic_rows(n)) for _ in range(n)]
                for _ in range(draw(st.integers(1, 5)))]
    counts = draw(st.lists(st.integers(0, 12), min_size=len(matrices),
                           max_size=len(matrices)).filter(any))
    rows = sum(counts)
    states = draw(st.lists(st.integers(0, n - 1), min_size=rows,
                           max_size=rows))
    return (matrices, counts, np.asarray(states, dtype=np.int64),
            np.asarray(tied_uniforms(draw, matrices, rows)))


class TestBatchStep:
    """``step_batch`` compares ``u`` only with each state's cumulative
    entries strictly inside (0, 1); its successors must equal the
    dense count of every cumulative entry <= ``u``."""

    @settings(max_examples=200, deadline=None)
    @given(chain_steps())
    def test_equals_dense_compare(self, case):
        matrix, states, u = case
        chain = MarkovChainProcess(matrix)
        dense = (chain._cumulative_array[states]
                 <= np.asarray(u)[:, None]).sum(axis=1)
        successors = chain.step_batch(states, 1, _FixedUniforms(u))
        assert successors.dtype == dense.dtype
        assert successors.tolist() == dense.tolist()
        assert successors.tolist() == [
            chain.step(int(state), 1, _ScalarUniform(value))
            for state, value in zip(states, u)]

    @settings(max_examples=200, deadline=None)
    @given(fused_chain_steps())
    def test_fused_step_equals_each_members_step(self, case):
        """Fused rows step by (owner, state) in the stacked tables, in
        ``FusedBatch.step_batch`` (owners in any order) and in
        ``FleetRows`` (owners in runs): each row's successor is its
        owner's own ``step_batch`` successor under the same ``u``."""
        matrices, counts, states, u = case
        members = [MarkovChainProcess(matrix) for matrix in matrices]
        owners = np.repeat(np.arange(len(members)), counts)
        expected = np.empty(len(states), dtype=np.int64)
        for owner, member in enumerate(members):
            rows = owners == owner
            expected[rows] = member.step_batch(states[rows], 1,
                                               _FixedUniforms(u[rows]))
        fused = FusedBatch(members)
        order = np.random.default_rng(len(states)).permutation(len(states))
        rows = np.column_stack([states, owners]).astype(np.float64)[order]
        stepped = fused.step_batch(rows, 1, _FixedUniforms(u[order]))
        assert stepped[:, 1].tolist() == owners[order].tolist()
        assert stepped[:, 0].tolist() == expected[order].tolist()
        fleet = FleetRows(fused, MarkovChainProcess.state_index,
                          [(1.0,)] * len(members))
        core, _, _ = fleet.start(counts)
        core[:, 0] = states
        assert fleet.step(core, 1, _FixedUniforms(u)).tolist() == [
            [float(state)] for state in expected]

    def test_birth_death_compares_two_entries_per_state(self):
        chain = birth_death_chain(16, p_up=0.25, p_down=0.4)
        assert len(chain._columns) == 2
        for column in chain._columns:
            assert column.shape == (16,)
            assert column.flags.c_contiguous

    def test_state_values_gather_any_layout(self):
        chain = MarkovChainProcess([[0.5, 0.5], [0.0, 1.0]],
                                   values=[-2.0, 7.5])
        batch_z = resolve_batch_z(chain.state_value)
        for states in (np.array([1, 0, 1]), np.array([1, 0, 1], np.int32),
                       np.array([[1, 3], [0, 3], [1, 0]]),
                       np.array([1, 0, 1], dtype=object)):
            assert batch_z(states).tolist() == [7.5, -2.0, 7.5]
