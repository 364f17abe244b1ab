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
draws only the live roots' multiplicities.  A replicate resamples
``n`` roots uniformly with replacement; with ``k`` of them live, the
number of its draws that land on a live root is ``Binomial(n, k / n)``,
and given that number each such draw is uniform over the live roots.
So one vectorized ``binomial`` call draws every replicate's live count,
and the live draws themselves are uniform indices into the ``k`` live
rows, counted into a ``(block, k)`` multiplicity matrix in chunks of
about :data:`_CHUNK_CELLS` draws (one ``bincount``).  That is exactly
the law of a resample over every root restricted to the live ones, at
``O(n_boot * k)`` draws instead of ``O(n_boot * n)``.  A chunk's
replicate totals are one matrix product against the live rows, and the
fold runs over all of the chunk's replicate rows at once.  No Python
loop runs per replicate, and memory stays a few MB at any ``n_roots``.

The variances do not depend on the chunking: the live counts are drawn
in one call before any index, NumPy's bounded-integer fill takes one
32-bit word per value from the bit generator's buffered stream however
the ``integers`` calls are split (``tests/core/test_bootstrap.py`` pins
this), and replicate totals are sums of integer-valued ``float64``
products below ``2**53``, exact in any order.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .records import ForestAggregate, counter_columns

#: Bound on one resampling chunk (live-root draws): replicates are drawn
#: ``_CHUNK_CELLS // k`` at a time for ``k`` live roots (at least one),
#: so a chunk's index and multiplicity blocks stay ~2 MB of ``int64``.
_CHUNK_CELLS = 1 << 18


def live_multiplicities(rng: np.random.Generator, n_roots: int, k: int,
                        n_boot: int):
    """Each replicate's draw counts of the ``k`` live roots among
    ``n_roots``, in chunks: yields ``(start, counts)`` with ``counts``
    a ``(block, k)`` ``int64`` matrix for replicates ``start ..
    start + block - 1``.

    Row ``b`` has the law of the live columns of a multinomial resample
    of ``n_roots`` draws over every root: its total is ``Binomial(n_roots,
    k / n_roots)`` (one call for every replicate, before any index), and
    each of those draws is uniform over the live roots.
    """
    landed = rng.binomial(n_roots, k / n_roots, size=n_boot)
    chunk = max(1, _CHUNK_CELLS // k)
    for start in range(0, n_boot, chunk):
        per_row = landed[start:start + chunk]
        block = len(per_row)
        cells = (np.repeat(np.arange(block, dtype=np.int64) * k, per_row)
                 + rng.integers(0, k, size=int(per_row.sum())))
        yield start, np.bincount(cells, minlength=block * k).reshape(block, k)


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
    compact = rows[rows.any(axis=1)]
    if not len(compact):
        return np.zeros(m, dtype=np.float64)
    estimates = np.empty((n_boot, m), dtype=np.float64)
    for start, counts in live_multiplicities(
            np.random.default_rng(seed), n_roots, len(compact), n_boot):
        estimates[start:start + len(counts)] = np.cumprod(gmlss_pi_hat_rows(
            *counter_columns(counts @ compact, m), float(n_roots), ratios),
            axis=1)
    return estimates.var(axis=0)
