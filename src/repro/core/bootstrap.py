"""Bootstrap variance estimation for g-MLSS (Section 4.2).

The general MLSS estimator has no closed-form variance, so the paper
resamples root paths with replacement and reads the variance off the
empirical distribution of the resampled estimates:

    Var_hat(tau_hat) = sum_i (tau_hat_i - tau_bar)^2 / N.

Because every root tree is summarised by a handful of counters
(:class:`repro.core.records.RootRecord`), a bootstrap replicate never
re-simulates anything — it resamples counter rows and refolds them
through the estimator, vectorised with numpy.

There is one bootstrap.  Every replicate refolds its resampled counters
through the one Eq. 9 fold (:func:`repro.core.gmlss.gmlss_pi_hat_rows`)
and takes the running product, so one resampling pass yields the
variance of every prefix of the g-MLSS product: the durability curve's
per-level variances, whose last entry is the point estimate's.

All ``n_boot`` replicates evaluate as **one** gather + fold: the
resampled indices become an ``(n_boot, n_roots)`` multiplicity matrix
(one ``bincount``), every replicate's counter totals are a single
matrix product against the per-root matrices, and the estimator folds
over all replicate rows at once.  No Python loop runs per replicate, so
the bootstrap stays a rounding error next to simulation even at large
``n_boot``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .records import ForestAggregate

#: Bound on the multiplicity-matrix chunk (floats): replicates are
#: folded in chunks of ``_CHUNK_CELLS / n_roots`` rows, so peak memory
#: stays ~32 MB regardless of ``n_boot * n_roots``.
_CHUNK_CELLS = 4_000_000


def _resample_counts(rng: np.random.Generator, n_boot: int,
                     n_roots: int) -> np.ndarray:
    """Multiplicity matrix of a block of bootstrap resamples.

    Row ``b`` counts how often each root was drawn in replicate ``b``
    (``n_roots`` draws with replacement).  Drawing the ``(n_boot,
    n_roots)`` index block in one call consumes the generator stream in
    the same order a per-replicate loop would, so a seeded run
    resamples the same root multisets; the bincount turns gathering +
    summing per replicate into one matrix product downstream.
    """
    indices = rng.integers(0, n_roots, size=(n_boot, n_roots))
    offsets = np.arange(n_boot, dtype=np.int64)[:, None] * n_roots
    flat = (indices + offsets).ravel()
    counts = np.bincount(flat, minlength=n_boot * n_roots)
    return counts.reshape(n_boot, n_roots).astype(np.float64)


def _replicate_chunks(n_boot: int, n_roots: int):
    """Replicate-row chunk sizes bounding peak multiplicity memory."""
    chunk = max(1, _CHUNK_CELLS // max(n_roots, 1))
    for start in range(0, n_boot, chunk):
        yield start, min(chunk, n_boot - start)


def bootstrap_variance(aggregate: ForestAggregate, ratios: tuple,
                       n_boot: int = 200,
                       seed: Optional[int] = None) -> np.ndarray:
    """Bootstrap the g-MLSS prefixes over root-path records.

    Returns the variances of all ``aggregate.num_levels`` prefixes,
    aligned with :func:`repro.core.gmlss.gmlss_prefix_estimates`; the
    last entry is the point estimate's.  Fewer than two roots give
    zeros.

    Parameters
    ----------
    aggregate:
        Forest counters with per-root records.
    ratios:
        Normalised per-level splitting ratios (index 0 unused).
    n_boot:
        Number of bootstrap replicates (the paper's ``N``).
    seed:
        Seed for the resampling RNG (independent of simulation RNG).
    """
    # Imported here to avoid a circular import (gmlss imports this module).
    from .gmlss import gmlss_pi_hat_rows

    m = aggregate.num_levels
    n_roots = aggregate.n_roots
    if n_roots < 2:
        return np.zeros(m, dtype=np.float64)
    if n_boot < 2:
        raise ValueError(f"n_boot must be >= 2, got {n_boot}")

    landings, skips, crossings, hits = aggregate.per_root_matrices()
    rng = np.random.default_rng(seed)
    estimates = np.empty((n_boot, m), dtype=np.float64)
    for start, block in _replicate_chunks(n_boot, n_roots):
        counts = _resample_counts(rng, block, n_roots)
        estimates[start:start + block] = np.cumprod(gmlss_pi_hat_rows(
            counts @ landings, counts @ skips, counts @ crossings,
            counts @ hits, float(n_roots), ratios), axis=1)
    return estimates.var(axis=0)
