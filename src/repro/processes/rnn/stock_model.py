"""The black-box stock model: a trained LSTM-MDN as a simulation process.

This is the paper's third experimental substrate (Section 6): an
LSTM-RNN-MDN trained on five years of daily prices, then used as the
step-wise simulation procedure ``g`` for durability queries such as
"will the price reach beta within 200 trading days?".  The query
processor never looks inside — it just calls ``step``.

The process state is ``(per-layer LSTM states, last normalised return,
price)``; a step feeds the last return through the network, samples the
next return from the mixture head, and updates the price
multiplicatively.

``pretrained_stock_process`` trains (once per configuration, cached in
memory and optionally on disk) on the synthetic GBM series standing in
for the Google data (:func:`repro.processes.gbm.synthetic_stock_series`).
"""

from __future__ import annotations

import math
import random
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ..base import StochasticProcess, VectorizedProcess, register_batch_z
from ..gbm import log_returns, synthetic_stock_series
from .model import LSTMMDNModel
from .train import TrainingResult, train_model

#: Bound on a single day's sampled log-return (normalised units) — keeps
#: an undertrained mixture component from producing absurd prices.
_MAX_ABS_NORMALIZED_RETURN = 8.0


class StockRNNProcess(StochasticProcess, VectorizedProcess):
    """Wrap a trained LSTM-MDN model as a price simulation process.

    Parameters
    ----------
    model:
        The trained sequence model over *normalised* log-returns.
    return_mean, return_std:
        The normalisation moments of the training returns.
    context_returns:
        Raw (unnormalised) log-returns used to warm the hidden state up
        before simulation starts — the model's conditioning window.
    start_price:
        Price at time 0 (the last training price).

    Batched simulation packs each path's full state into one float row
    — ``[h_0, c_0, ..., h_{L-1}, c_{L-1}, last_return, price]`` — so a
    state array is a plain ``(n, 2*L*hidden + 2)`` matrix.  A
    ``step_batch`` then runs one LSTM matmul per layer over the whole
    batch and one batched MDN sample (``MDNHead.sample_batch``) instead
    of ``n`` scalar network evaluations; row selection and
    ``numpy.repeat`` replication work for free on the packed rows.
    """

    supports_out = True

    def __init__(self, model: LSTMMDNModel, return_mean: float,
                 return_std: float, context_returns: Sequence[float],
                 start_price: float):
        if return_std <= 0:
            raise ValueError(f"return_std must be > 0, got {return_std}")
        if start_price <= 0:
            raise ValueError(f"start_price must be > 0, got {start_price}")
        if not context_returns:
            raise ValueError("context_returns must be non-empty")
        self.model = model
        self.return_mean = return_mean
        self.return_std = return_std
        self.start_price = float(start_price)
        self._context = [(r - return_mean) / return_std
                         for r in context_returns]
        # The warmed-up state is identical for every path: compute once.
        state, _ = model.warm_up(self._context[:-1])
        self._warm_state = state
        self._last_context_return = self._context[-1]

    def initial_state(self) -> tuple:
        layers = tuple((h.copy(), c.copy()) for h, c in self._warm_state)
        return (layers, self._last_context_return, self.start_price)

    def step(self, state: tuple, t: int, rng: random.Random) -> tuple:
        layers, last_return, price = state
        new_layers, hidden_row = self.model.advance(last_return, layers)
        sampled = self.model.sample_next(hidden_row, rng)
        sampled = max(-_MAX_ABS_NORMALIZED_RETURN,
                      min(_MAX_ABS_NORMALIZED_RETURN, sampled))
        log_return = sampled * self.return_std + self.return_mean
        return (new_layers, sampled, price * math.exp(log_return))

    def copy_state(self, state: tuple) -> tuple:
        layers, last_return, price = state
        copied = tuple((h.copy(), c.copy()) for h, c in layers)
        return (copied, last_return, price)

    # --- batched contract (packed rows) -------------------------------

    @property
    def state_width(self) -> int:
        """Columns of a packed state row (see the class docstring)."""
        return 2 * self.model.n_layers * self.model.hidden_size + 2

    def initial_states(self, n: int) -> np.ndarray:
        parts = []
        for h, c in self._warm_state:
            parts.append(h.ravel())
            parts.append(c.ravel())
        parts.append([self._last_context_return, self.start_price])
        row = np.concatenate([np.asarray(p, dtype=np.float64)
                              for p in parts])
        return np.tile(row, (n, 1))

    def step_batch(self, states: np.ndarray, t: int,
                   rng: np.random.Generator,
                   out: np.ndarray | None = None) -> np.ndarray:
        hidden = self.model.hidden_size
        layer_state = []
        for index in range(self.model.n_layers):
            offset = 2 * hidden * index
            layer_state.append((states[:, offset:offset + hidden],
                                states[:, offset + hidden:
                                       offset + 2 * hidden]))
        new_state, top = self.model.advance_batch(states[:, -2],
                                                  layer_state)
        sampled = self.model.sample_next_batch(top, rng)
        np.clip(sampled, -_MAX_ABS_NORMALIZED_RETURN,
                _MAX_ABS_NORMALIZED_RETURN, out=sampled)
        prices = states[:, -1] * np.exp(sampled * self.return_std
                                        + self.return_mean)
        # All reads are done (advance_batch allocates fresh h/c), so
        # writing into out is safe even when out is states.
        target = out if out is not None else np.empty_like(states)
        for index, (h, c) in enumerate(new_state):
            offset = 2 * hidden * index
            target[:, offset:offset + hidden] = h
            target[:, offset + hidden:offset + 2 * hidden] = c
        target[:, -2] = sampled
        target[:, -1] = prices
        return target

    @staticmethod
    def price(state: tuple) -> float:
        """Real-valued evaluation ``z``: the simulated price (paper §6)."""
        return float(state[2])


def _batch_prices(states: np.ndarray) -> np.ndarray:
    # Packed float rows keep the price in the last column; object rows
    # (ScalarFallback) hold the scalar (layers, return, price) tuples.
    if states.dtype == object:
        return np.asarray([s[2] for s in states], dtype=np.float64)
    return states[:, -1].astype(np.float64)


register_batch_z(StockRNNProcess.price, _batch_prices)


def build_stock_process(prices: Sequence[float], hidden_size: int = 32,
                        n_layers: int = 2, n_mixtures: int = 5,
                        seq_len: int = 50, epochs: int = 10,
                        batch_size: int = 32, learning_rate: float = 3e-3,
                        context_len: int = 50,
                        seed: int = 0) -> tuple:
    """Train an LSTM-MDN on a price series and wrap it as a process.

    Returns ``(process, training_result)``.
    """
    returns = log_returns(list(prices))
    mean = sum(returns) / len(returns)
    variance = sum((r - mean) ** 2 for r in returns) / max(len(returns) - 1, 1)
    std = math.sqrt(variance) if variance > 0 else 1.0
    normalised = [(r - mean) / std for r in returns]

    model = LSTMMDNModel(hidden_size=hidden_size, n_layers=n_layers,
                         n_mixtures=n_mixtures, seed=seed)
    result = train_model(model, normalised, seq_len=seq_len,
                         batch_size=batch_size, epochs=epochs,
                         learning_rate=learning_rate, seed=seed + 1)
    context = returns[-context_len:]
    process = StockRNNProcess(model, mean, std, context, prices[-1])
    return process, result


# ----------------------------------------------------------------------
# Cached pretrained processes (training is the expensive part)
# ----------------------------------------------------------------------

_PROCESS_CACHE: dict = {}


def pretrained_stock_process(hidden_size: int = 32, n_layers: int = 2,
                             n_mixtures: int = 5, seq_len: int = 50,
                             epochs: int = 10, seed: int = 0,
                             cache_dir: Optional[str] = None
                             ) -> StockRNNProcess:
    """The default stock substrate, trained once and cached.

    Trains on the synthetic "Google 2015-2020" series.  With
    ``cache_dir`` the trained weights persist across interpreter runs
    (``.npz``), so benchmarks never retrain.
    """
    key = (hidden_size, n_layers, n_mixtures, seq_len, epochs, seed)
    if key in _PROCESS_CACHE:
        return _PROCESS_CACHE[key]

    prices = synthetic_stock_series()
    cache_path = None
    if cache_dir is not None:
        name = ("stock_h{}_l{}_k{}_s{}_e{}_seed{}.npz"
                .format(*key))
        cache_path = Path(cache_dir) / name

    if cache_path is not None and cache_path.exists():
        model = LSTMMDNModel(hidden_size=hidden_size, n_layers=n_layers,
                             n_mixtures=n_mixtures, seed=seed)
        with np.load(cache_path) as saved:
            model.load_parameters({name: saved[name]
                                   for name in saved.files})
        returns = log_returns(prices)
        mean = sum(returns) / len(returns)
        variance = (sum((r - mean) ** 2 for r in returns)
                    / max(len(returns) - 1, 1))
        std = math.sqrt(variance) if variance > 0 else 1.0
        process = StockRNNProcess(model, mean, std, returns[-seq_len:],
                                  prices[-1])
    else:
        process, _ = build_stock_process(
            prices, hidden_size=hidden_size, n_layers=n_layers,
            n_mixtures=n_mixtures, seq_len=seq_len, epochs=epochs,
            context_len=seq_len, seed=seed)
        if cache_path is not None:
            cache_path.parent.mkdir(parents=True, exist_ok=True)
            np.savez(cache_path, **process.model.parameters())

    _PROCESS_CACHE[key] = process
    return process
