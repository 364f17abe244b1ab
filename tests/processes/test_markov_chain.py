"""Tests for finite Markov chains."""

import math
import random
import re
from collections import Counter

import pytest

from repro.processes.base import simulate_path
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
