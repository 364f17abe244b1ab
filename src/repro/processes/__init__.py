"""Simulation models: the substrates the paper evaluates MLSS on."""

from .ar import ARProcess
from .base import (FusedBatch, ImmutableStateProcess, ScalarFallback,
                   StochasticProcess, VectorizedProcess, as_vectorized,
                   batch_z_values, fuse_processes, register_batch_z,
                   scalar_state_column, simulate_path, step_into)
from .cpp import CompoundPoissonProcess, poisson_variate
from .gbm import GBMProcess, log_returns, synthetic_stock_series
from .markov_chain import MarkovChainProcess, birth_death_chain
from .queueing import TandemQueueProcess
from .random_walk import GaussianWalkProcess, RandomWalkProcess
from .volatile import ImpulseProcess, volatile_cpp, volatile_queue

__all__ = [
    "ARProcess", "CompoundPoissonProcess", "FusedBatch", "GBMProcess",
    "GaussianWalkProcess", "ImmutableStateProcess", "ImpulseProcess",
    "MarkovChainProcess", "RandomWalkProcess", "ScalarFallback",
    "StochasticProcess", "TandemQueueProcess", "VectorizedProcess",
    "as_vectorized", "batch_z_values", "birth_death_chain",
    "fuse_processes", "log_returns", "poisson_variate", "register_batch_z",
    "scalar_state_column", "simulate_path", "step_into",
    "synthetic_stock_series", "volatile_cpp", "volatile_queue",
]
