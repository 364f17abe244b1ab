"""Bootstrap variance estimation for g-MLSS (Section 4.2).

The general MLSS estimator has no closed-form variance, so the paper
resamples root paths with replacement and reads the variance off the
empirical distribution of the resampled estimates:

    Var_hat(tau_hat) = sum_i (tau_hat_i - tau_bar)^2 / N.

Because every root tree is summarised by a handful of counters — one
row of the aggregate's per-root matrix
(:meth:`repro.core.records.ForestAggregate.per_root_rows`) — a
bootstrap replicate never re-simulates anything: it resamples counter
rows and refolds them through the estimator, vectorised with numpy.

There is one bootstrap.  Every replicate refolds its resampled counters
through the one Eq. 9 fold (:func:`repro.core.gmlss.gmlss_pi_hat_rows`)
and takes the running product, so one resampling pass yields the
variance of every prefix of the g-MLSS product: the durability curve's
per-level variances, whose last entry is the point estimate's.

Only *live* roots — those whose counter row is not all zeros — can
change a replicate's totals, and on rare events they are few (about 7%
of the resampled roots on perfbench ``rare_mlss``).  So the bootstrap
gathers the live rows once, draws the replicates' root indices in
chunks of at most :data:`_CHUNK_CELLS` draws, drops the draws that land
on dead roots, and counts each replicate's draws of each live root into
a ``(block, k)`` multiplicity matrix for the ``k`` live roots (one
``bincount``).  A chunk's replicate totals are one matrix product
against the live rows, and the fold runs over all of the chunk's
replicate rows at once.  No Python loop runs per replicate, and memory
stays a few MB at any ``n_roots``.  The index draw itself (every draw
is needed for the stream below) sets the floor of the cost.  Dropping
the dead draws costs one pass over every draw plus a few ns per kept
one, so the fewer roots are live the more it saves: with 7% live an
evaluation takes about 0.6x the time of a dense fold over every root's
row, and with nearly every root live (a first boundary most paths
cross) about 1.5x.

The variances are the same bytes as those of a dense fold over every
root's row, for three reasons:

1. The draws are the same.  NumPy's bounded-integer fill takes one
   32-bit word per value, rejections included, from the bit
   generator's buffered stream, so the stream is the same however the
   ``integers`` calls are split into chunks
   (``tests/core/test_bootstrap.py`` pins this).
2. Replicate totals are sums of integer-valued ``float64`` products
   below ``2**53``.  They are exact in any order, and dropping all-zero
   rows leaves them unchanged.
3. The fold, the ``cumprod`` and ``estimates.var(axis=0)`` see the same
   ``(n_boot, m)`` matrix in the same row order.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .records import ForestAggregate, counter_columns

#: Bound on one resampling chunk (drawn root indices): replicates are
#: drawn ``_CHUNK_CELLS // n_roots`` at a time (at least one), so a
#: chunk's index block stays ~2 MB of ``int64``.
_CHUNK_CELLS = 1 << 18


def _replicate_chunks(n_boot: int, n_roots: int):
    """Replicate-row chunk sizes bounding one chunk's index draws."""
    chunk = max(1, _CHUNK_CELLS // max(n_roots, 1))
    for start in range(0, n_boot, chunk):
        yield start, min(chunk, n_boot - start)


def bootstrap_variance(aggregate: ForestAggregate, ratios: tuple,
                       n_boot: int = 200,
                       seed: Optional[int] = None) -> np.ndarray:
    """Bootstrap the g-MLSS prefixes over per-root counter rows.

    Returns the variances of all ``aggregate.num_levels`` prefixes,
    aligned with :func:`repro.core.gmlss.gmlss_prefix_estimates`; the
    last entry is the point estimate's.  Fewer than two roots, or no
    root with a nonzero counter, give zeros.

    Parameters
    ----------
    aggregate:
        Forest counters with per-root rows.
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

    rows = aggregate.per_root_rows()
    live = rows.any(axis=1)
    compact = rows[live]
    k = len(compact)
    if k == 0:
        return np.zeros(m, dtype=np.float64)
    slots = np.cumsum(live) - 1  # a live root's row in ``compact``
    rng = np.random.default_rng(seed)
    estimates = np.empty((n_boot, m), dtype=np.float64)
    for start, block in _replicate_chunks(n_boot, n_roots):
        drawn = rng.integers(0, n_roots, size=block * n_roots)
        kept = np.flatnonzero(live[drawn])
        cells = kept // n_roots * k + slots[drawn[kept]]
        counts = np.bincount(cells, minlength=block * k).reshape(block, k)
        estimates[start:start + block] = np.cumprod(gmlss_pi_hat_rows(
            *counter_columns(counts @ compact, m), float(n_roots), ratios),
            axis=1)
    return estimates.var(axis=0)
