"""Dense complex linear algebra with validated contracts.

Matrices are plain complex ndarrays.  as_array is the one 2-D coercion
and check; require_signature checks the signature contract (Hermitian,
zero diagonal, unimodular off-diagonal to 1e-10) where a caller's matrix
must be one.
"""

import numpy as np
import scipy.linalg

from .errors import (
    InvalidArgumentError,
    NumericFailureError,
    RankDeficiencyError,
)

_SIGNATURE_TOL = 1e-10
_RANK_RTOL = 1e-8


def as_array(x):
    """Coerce an array-like to a 2-D complex ndarray."""
    a = np.asarray(x, dtype=complex)
    if a.ndim != 2:
        raise InvalidArgumentError("expected a 2-D matrix")
    return a


def require_hermitian(a, tol, what):
    """Refuse a unless it is square and Hermitian to tol."""
    if a.shape[0] != a.shape[1]:
        raise InvalidArgumentError("%s must be square" % what)
    dev = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    if dev > tol:
        raise InvalidArgumentError(
            "%s deviates from Hermitian by %.3e (tol %.1e)" % (what, dev, tol)
        )


def require_signature(a):
    """Refuse a unless it is a signature matrix to 1e-10."""
    require_hermitian(a, _SIGNATURE_TOL, "signature matrix")
    n = a.shape[0]
    diag_dev = float(np.max(np.abs(np.diag(a)))) if n else 0.0
    if diag_dev > _SIGNATURE_TOL:
        raise InvalidArgumentError(
            "signature diagonal deviates from zero by %.3e" % diag_dev
        )
    if n > 1:
        off = np.abs(a[~np.eye(n, dtype=bool)])
        mod_dev = float(np.max(np.abs(off - 1.0)))
        if mod_dev > _SIGNATURE_TOL:
            raise InvalidArgumentError(
                "signature off-diagonal moduli deviate from one by %.3e" % mod_dev
            )


def dft_matrix(m):
    """Unitary DFT matrix F[alpha, g] = exp(-2 pi i alpha g / m) / sqrt(m)."""
    m = int(m)
    if m < 1:
        raise InvalidArgumentError("DFT order must be a positive integer")
    alpha = np.arange(m)
    return np.exp(-2j * np.pi * np.outer(alpha, alpha) / m) / np.sqrt(m)


def hermitian_eigen(a):
    """(w, v) of a (numerically) Hermitian matrix, as np.linalg.eigh:
    eigenvalues ascending, eigenvectors as columns.

    The input may deviate from Hermitian by at most 1e-8; it is
    symmetrized as (A + A*)/2 before factorization.
    """
    a = as_array(a)
    require_hermitian(a, 1e-8, "hermitian_eigen input")
    sym = 0.5 * (a + a.conj().T)
    try:
        return np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError("eigendecomposition failed: %s" % exc) from exc


def pseudoinverse(a):
    """Right inverse of a wide full-rank real matrix via pivoted QR.

    For an n x m input (n <= m) of rank n the result T satisfies A @ T = I.
    Raises RankDeficiencyError when the singular value ratio drops below
    _RANK_RTOL, carrying the smallest singular value.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise InvalidArgumentError("pseudoinverse expects a nonempty 2-D real matrix")
    n, m = a.shape
    if n > m:
        raise InvalidArgumentError(
            "pseudoinverse expects a wide matrix, got %d x %d" % (n, m)
        )
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] <= _RANK_RTOL * sv[0]:
        raise RankDeficiencyError(
            "matrix is rank deficient (smallest sv %.3e, largest %.3e)"
            % (sv[-1], sv[0]),
            smallest_sv=float(sv[-1]),
        )
    # A^T P = Q R, so A = P R^T Q^T and the right inverse is T = Q R^{-T} P^T:
    # Q R^{-T} scattered to columns piv (a column gather would be F-ordered).
    q, r, piv = scipy.linalg.qr(a.T, mode="economic", pivoting=True)
    rt_inv = scipy.linalg.solve_triangular(r, np.eye(n), trans="T", lower=False)
    t = np.empty((m, n))
    t[:, piv] = q @ rt_inv
    residual = float(np.max(np.abs(a @ t - np.eye(n))))
    if residual > 1e-8:
        raise NumericFailureError(
            "pseudoinverse residual %.3e exceeds 1e-8" % residual
        )
    return t


def op_norm_inf(a):
    """Max absolute row sum: the operator norm for sup-norm vectors."""
    a = as_array(a)
    if a.size == 0:
        return 0.0
    return float(np.max(np.sum(np.abs(a), axis=1)))
