"""Dense complex linear algebra with validated contracts.

Matrices are plain complex ndarrays.  as_array is the one 2-D coercion
and check; require_signature checks the signature contract (Hermitian,
zero diagonal, unimodular off-diagonal to 1e-10) where a caller's matrix
must be one, and gaussian_signature_defect is its exact counterpart for
Gaussian-integer conference signatures.  The one QR of the package,
certify.pseudoinverse, lives with its one caller; a rank refusal there
carries min |R_ii|, an upper bound on the smallest singular value.
"""

import numpy as np

from .errors import InvalidArgumentError, NumericFailureError

_SIGNATURE_TOL = 1e-10


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


def gaussian_signature_defect(re, im):
    """The first identity that keeps S = re + i im (two n x n int64
    arrays) from being a Gaussian conference signature, or None.  In
    order: entries in {-1, 0, 1}; zero diagonal and unimodular entries;
    hermiticity; S^2 = (n-1) I.  S^2 is formed in float64 BLAS and is
    still exact: the entries are checked to lie in {-1, 0, 1} first, so
    every partial sum is an integer of size at most 2n < 2^53, whatever
    order the sum is taken in.  It takes three products, not four: with
    re = re^T and im = -im^T checked, im @ re = -(re @ im)^T exactly, so
    the imaginary part re @ im + im @ re is P - P^T for P = re @ im."""
    n = re.shape[0]
    eye = np.eye(n, dtype=np.int64)
    # first, as np.abs wraps at -2^63; then |re| + |im| = 1 is re^2 + im^2 = 1
    if np.any((re < -1) | (re > 1) | (im < -1) | (im > 1)):
        return "entries in {-1, 0, 1}"
    if np.any(np.abs(re) + np.abs(im) != 1 - eye):
        return "zero diagonal and unimodular entries"
    if np.any(re != re.T) or np.any(im != -im.T):
        return "hermiticity"
    fre, fim = re.astype(np.float64), im.astype(np.float64)
    p = fre @ fim
    if np.any(fre @ fre - fim @ fim != (n - 1) * eye) or np.any(p != p.T):
        return "S^2 = (n-1) I"
    return None


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


def op_norm_inf(a):
    """Max absolute row sum: the operator norm for sup-norm vectors."""
    a = as_array(a)
    if a.size == 0:
        return 0.0
    return float(np.max(np.sum(np.abs(a), axis=1)))
