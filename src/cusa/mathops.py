"""Dense numeric kernels: normalization, cosine similarity, softmax, p log p.

The public kernels compute in float64 regardless of input dtype, are
pure, and validate their inputs rather than repairing them. They and the
internal row_softmax_with_log, which writes into buffers its caller
passes (usually from a Workspace), are the building blocks for the
soft-label targets and every loss term. No KL is formed here: the one
KL, losses._mean_kl, takes the shifted logits and log-sum-exp of
row_softmax_with_log and the p log p row sums of neg_entropy_rows.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatch,
    NonFiniteValue,
    NonPositiveTemperature,
    NotNormalized,
    NumericError,
    ShapeMismatch,
    ZeroRow,
)

# Unit-norm tolerance for embedding rows; rows produced by
# l2_normalize_rows in float64 sit far inside this.
NORM_TOL = 1e-9

# Below this Euclidean norm a row is treated as the zero vector.
ZERO_ROW_TOL = 1e-12

# Smallest row sum of exp(z) that row_softmax_with_log accepts after
# shifting by the whole matrix's maximum: far above the subnormal range.
LSE_FLOOR = 1e-250


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
    with np.errstate(over="ignore"):  # an entry above about 1e154 overflows m * m
        return unit_rows(_as_matrix(m, "m"))[0]


def unit_rows(m: np.ndarray, messages=(None,)) -> tuple:
    """(rows of `m`, a matrix or a stack of them, scaled to unit norm,
    their norms); ZeroRow with its matrix's message from `messages` below
    ZERO_ROW_TOL, NumericError for a norm that is not finite. An entry
    above about 1e154 overflows m * m: the caller holds np.errstate."""
    # np.linalg.norm(m, axis=-1) of a real array, without its dispatch
    norms = np.sqrt(np.add.reduce(m * m, axis=-1))
    if not np.isfinite(norms).all():  # rows are counted within their matrix
        row = np.argmax(~np.isfinite(norms)) % norms.shape[-1]
        raise NumericError(f"row {row} has a norm that is not finite")
    if np.minimum.reduce(norms, axis=None) < ZERO_ROW_TOL:
        k, row = divmod(int(np.argmax(norms < ZERO_ROW_TOL)), norms.shape[-1])
        raise ZeroRow(row, messages[k])
    return m / norms[..., None], norms


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
    am, bm = unit_pair(a, b)
    return am @ bm.T


def unit_pair(a, b) -> tuple:
    """`a` and `b` as float64 matrices, checked as cosine_similarity's inputs."""
    am = _as_matrix(a, "a")
    bm = _as_matrix(b, "b")
    if am.shape[1] != bm.shape[1]:
        raise DimensionMismatch(f"column counts differ: {am.shape[1]} vs {bm.shape[1]}")
    check_normalized(am, "a")
    check_normalized(bm, "b")
    return am, bm


class Workspace:
    """Named float64 buffers that outlive one call.

    A training loop passes one workspace to every step, so its n x n
    arrays are allocated once, at the first step, and rewritten after.
    What a call writes into a workspace, including the arrays it
    returns, stays valid until the next call that uses the same
    workspace.
    """

    def __init__(self):
        self._buffers = {}

    def buffer(self, name: str, shape) -> np.ndarray:
        """The C-ordered buffer `name`, allocated afresh only when its shape changes."""
        buf = self._buffers.get(name)
        if buf is None or buf.shape != tuple(shape):
            buf = self._buffers[name] = np.empty(shape)
        return buf


def row_softmax_with_log(s: np.ndarray, inv_temp: float, q=None, z=None, axis: int = -1):
    """Softmax of `s * inv_temp` along `axis`: -1 per row, -2 per column.

    Internal fast path shared by the loss kernels. `s` is a matrix or a
    stack of them, and each matrix gets the bits it would get alone.
    Writes the shifted logits z = s * inv_temp - shift (the maximum of
    the matrix, or of each row when a row of it lies too far below it)
    into `z` and the softmax q into `q`, and returns (q, z, lse) with lse
    = log sum exp(z) along `axis` (kept as a length-1 axis). log q = z -
    lse is never formed: a KL against q is sum(p log p) - sum(p z) + lse
    per row. The name is kept from when it returned log q.

    `q` and `z` default to fresh arrays laid out like `s` (a transposed
    view stays column-major, so its rows sum in the same order as a
    copy's); `z` may be `s` itself, which is then overwritten, and
    otherwise `s` is not modified. Reductions call their ufunc directly,
    as ndarray.sum does, which saves the method's two Python calls.
    """
    if q is None:
        q = np.empty_like(s)
    if z is None:
        z = np.empty_like(s)
    np.multiply(s, inv_temp, out=z)
    # One shift for the whole matrix costs two scalar passes, where a
    # shift per row costs a reduction and a broadcast. It keeps exp() in
    # range; if some row then sits so far below the maximum that its sum
    # loses precision, every row is shifted by its own maximum instead.
    z -= np.maximum.reduce(z, axis=(-2, -1), keepdims=True)
    np.exp(z, out=q)
    sums = np.add.reduce(q, axis=axis, keepdims=True)
    if np.minimum.reduce(sums, axis=None) < LSE_FLOOR:
        for k in np.ndindex(z.shape[:-2]):  # one empty index for a single matrix
            if sums[k].min() < LSE_FLOOR:
                z[k] -= z[k].max(axis=axis, keepdims=True)
                np.exp(z[k], out=q[k])
                sums[k] = q[k].sum(axis=axis, keepdims=True)
    q /= sums
    return q, z, np.log(sums)


def row_softmax(s, inv_temp: float) -> np.ndarray:
    """Temperature softmax applied independently to each row.

    Args:
        s: N x M matrix of similarity logits, all finite.
        inv_temp: inverse temperature (1/tau), strictly positive.

    Returns:
        N x M row-stochastic matrix.

    Raises:
        NonPositiveTemperature: if inv_temp <= 0.
        NumericError: if the spread of s * inv_temp, max - min, is not finite.
    """
    mat = _as_matrix(s, "s")
    if not (inv_temp > 0.0) or not np.isfinite(inv_temp):
        raise NonPositiveTemperature(f"inv_temp must be > 0, got {inv_temp!r}")
    it = float(inv_temp)
    spread = float(mat.max()) * it - float(mat.min()) * it  # as the kernel forms it, warning-free
    if not np.isfinite(spread):
        raise NumericError(f"the spread of s * inv_temp is not finite: {spread}")
    q, _, _ = row_softmax_with_log(mat, it)
    return q


def neg_entropy_rows(p: np.ndarray) -> np.ndarray:
    """Row sums of p log p with 0 * log 0 = 0, the one place that
    convention is applied, for a matrix or a stack of them. No
    validation: entries are >= 0."""
    with np.errstate(divide="ignore"):
        log_p = np.log(p)
    log_p[p == 0.0] = 0.0
    return np.einsum("...ij,...ij->...i", p, log_p)


def stack_slice(stack: str, k: int) -> property:
    """Property for matrix `k` of the stack in attribute `stack`: a view,
    and assigning to it writes into the stack."""
    return property(lambda obj: getattr(obj, stack)[k],
                    lambda obj, value: getattr(obj, stack).__setitem__(k, value))
