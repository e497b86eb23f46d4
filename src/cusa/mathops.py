"""Dense numeric kernels: normalization, cosine similarity, softmax, KL.

Everything here computes in float64 regardless of input dtype, is pure,
and validates its inputs rather than repairing them. These functions are
the building blocks for the soft-label targets and every loss term.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidDistribution,
    NonFiniteValue,
    NonPositiveTemperature,
    NotNormalized,
    ShapeMismatch,
    ZeroRow,
)

# Unit-norm tolerance for embedding rows; rows produced by
# l2_normalize_rows in float64 sit far inside this.
NORM_TOL = 1e-9

# Below this Euclidean norm a row is treated as the zero vector.
ZERO_ROW_TOL = 1e-12

ROW_SUM_TOL = 1e-9


def _as_matrix(m, name: str) -> np.ndarray:
    out = np.asarray(m, dtype=np.float64)
    if out.ndim != 2:
        raise ShapeMismatch(f"{name} must be 2-D, got shape {out.shape}")
    if out.shape[0] < 1 or out.shape[1] < 1:
        raise ShapeMismatch(f"{name} must be non-empty, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise NonFiniteValue(f"{name} contains NaN or Inf")
    return out


def check_normalized(m: np.ndarray, name: str = "matrix") -> None:
    """Reject matrices whose rows are not unit-norm within NORM_TOL."""
    norms = np.linalg.norm(m, axis=1)
    bad = np.abs(norms - 1.0) > NORM_TOL
    if np.any(bad):
        row = int(np.argmax(bad))
        raise NotNormalized(
            f"{name} row {row} has norm {norms[row]!r}, expected 1 within {NORM_TOL}"
        )


def _check_row_stochastic(m: np.ndarray, name: str) -> None:
    if np.any(m < 0.0):
        raise InvalidDistribution(f"{name} has negative entries")
    sums = m.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > ROW_SUM_TOL):
        row = int(np.argmax(np.abs(sums - 1.0)))
        raise InvalidDistribution(
            f"{name} row {row} sums to {sums[row]!r}, expected 1 within {ROW_SUM_TOL}"
        )


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def l2_normalize_rows(m) -> np.ndarray:
    """Scale every row of `m` to unit Euclidean norm.

    Args:
        m: N x D real matrix; no row may be (near-)zero.

    Returns:
        float64 N x D matrix whose rows have norm 1.

    Raises:
        ZeroRow: if a row norm falls below 1e-12.
    """
    mat = _as_matrix(m, "m")
    norms = np.linalg.norm(mat, axis=1)
    denorm = norms < ZERO_ROW_TOL
    if np.any(denorm):
        raise ZeroRow(int(np.argmax(denorm)))
    return mat / norms[:, None]


def cosine_similarity(a, b) -> np.ndarray:
    """Pairwise cosine similarities between rows of `a` and rows of `b`.

    Both inputs must already be row-normalized; denormalized inputs are
    rejected so that pipeline bugs surface here instead of skewing every
    downstream distribution.

    Args:
        a: normalized N x D matrix.
        b: normalized M x D matrix.

    Returns:
        N x M matrix with entry (i, j) = a[i] . b[j].

    Raises:
        DimensionMismatch: if the column counts differ.
        NotNormalized: if any row norm deviates from 1 by more than 1e-9.
    """
    am = _as_matrix(a, "a")
    bm = _as_matrix(b, "b")
    if am.shape[1] != bm.shape[1]:
        raise DimensionMismatch(
            f"column counts differ: {am.shape[1]} vs {bm.shape[1]}"
        )
    check_normalized(am, "a")
    check_normalized(bm, "b")
    return am @ bm.T


def row_softmax_with_log(s: np.ndarray, inv_temp: float):
    """Softmax of `s * inv_temp` per row, returned with its log.

    Internal fast path shared by the loss kernels: max-subtraction keeps
    exp() in range, and the log is derived from the same shifted logits so
    log q never goes through a lossy log(exp(...)) round trip.

    Works in place on the two buffers it allocates, which keep the memory
    layout of `s` (a transposed view stays column-major), so row sums run
    in the same order as an out-of-place evaluation; `s` is not modified.
    """
    shifted = s * inv_temp
    shifted -= shifted.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    sums = expd.sum(axis=1, keepdims=True)
    expd /= sums
    shifted -= np.log(sums)
    return expd, shifted


def row_softmax(s, inv_temp: float) -> np.ndarray:
    """Temperature softmax applied independently to each row.

    Args:
        s: N x M matrix of similarity logits, all finite.
        inv_temp: inverse temperature (1/tau), strictly positive.

    Returns:
        N x M row-stochastic matrix.

    Raises:
        NonPositiveTemperature: if inv_temp <= 0.
    """
    mat = _as_matrix(s, "s")
    if not (inv_temp > 0.0) or not np.isfinite(inv_temp):
        raise NonPositiveTemperature(f"inv_temp must be > 0, got {inv_temp!r}")
    q, _ = row_softmax_with_log(mat, float(inv_temp))
    return q


def kl_divergence_rows(p, q):
    """Row-wise KL divergence D(p_i || q_i) and its mean over rows.

    Uses the convention 0 * log 0 = 0, so one-hot rows in `p` are valid.

    Args:
        p: N x M row-stochastic matrix (entries may be zero).
        q: N x M row-stochastic matrix with strictly positive entries.

    Returns:
        (per_row, mean): length-N float64 vector and its average.

    Raises:
        ShapeMismatch: if the shapes differ.
        InvalidDistribution: if q has an entry <= 0 or either input's rows
            do not sum to 1 within 1e-9.
    """
    pm = _as_matrix(p, "p")
    qm = _as_matrix(q, "q")
    if pm.shape != qm.shape:
        raise ShapeMismatch(f"shapes differ: {pm.shape} vs {qm.shape}")
    if np.any(qm <= 0.0):
        raise InvalidDistribution("q has a non-positive entry")
    _check_row_stochastic(pm, "p")
    _check_row_stochastic(qm, "q")
    per_row = kl_rows_raw(pm, np.log(qm), log_prob(pm))
    return per_row, float(per_row.mean())


def log_prob(p: np.ndarray) -> np.ndarray:
    """np.log(p) with 0 where p == 0, the log term of the 0 * log 0 = 0
    convention. Compute it once per distribution and pass it to every
    kl_rows_raw call against that distribution."""
    with np.errstate(divide="ignore"):
        log_p = np.log(p)
    zero = p == 0.0
    if zero.any():
        log_p[zero] = 0.0
    return log_p


def kl_rows_raw(p: np.ndarray, log_q: np.ndarray, log_p: np.ndarray) -> np.ndarray:
    """Per-row KL from probabilities `p` and log-probabilities `log_q`.

    No validation; callers guarantee the distribution contracts and a
    finite `log_q`. `log_p` is log_prob(p), so zero entries of p
    contribute exactly 0. The inputs are not modified; the terms go to
    one buffer laid out like `p`, so each row sums in a fixed order
    whatever the layout of `log_q`.
    """
    terms = np.subtract(log_p, log_q, out=np.empty_like(p))
    terms *= p
    return terms.sum(axis=1)
