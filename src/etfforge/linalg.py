"""Dense complex linear algebra with validated contracts.

Matrices move through the toolkit either as plain ndarrays or wrapped in
ComplexMatrix, which tags a role and enforces the role's invariants at
construction time.  Functions here accept both forms.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import serialize
from .errors import (
    InvalidArgumentError,
    NumericFailureError,
    RankDeficiencyError,
)

ROLES = ("frame", "gram", "signature", "generic")

_GRAM_HERMITIAN_TOL = 1e-10
_SIGNATURE_TOL = 1e-10


def as_array(x, dtype=complex):
    """Unwrap ComplexMatrix or coerce array-likes to a 2-D ndarray."""
    if isinstance(x, ComplexMatrix):
        return x.data
    a = np.asarray(x, dtype=dtype)
    if a.ndim != 2:
        raise InvalidArgumentError("expected a 2-D matrix")
    return a


@dataclass(frozen=True)
class ComplexMatrix:
    """A role-tagged complex matrix.

    Roles: "frame" (d x n synthesis matrix), "gram" (Hermitian to 1e-10),
    "signature" (Hermitian, zero diagonal, unimodular off-diagonal to
    1e-10), "generic" (no constraint beyond being 2-D complex).
    """

    data: np.ndarray
    role: str = "generic"

    def __post_init__(self):
        a = np.asarray(self.data, dtype=complex)
        if a.ndim != 2:
            raise InvalidArgumentError("ComplexMatrix payload must be 2-D")
        object.__setattr__(self, "data", a)
        if self.role not in ROLES:
            raise InvalidArgumentError("unknown role %r" % (self.role,))
        if self.role == "gram":
            _require_hermitian(a, _GRAM_HERMITIAN_TOL, "gram matrix")
        elif self.role == "signature":
            _require_signature_shape(a)

    @property
    def rows(self):
        return self.data.shape[0]

    @property
    def cols(self):
        return self.data.shape[1]

    def to_obj(self):
        return serialize.matrix_to_obj(self.data, kind=self.role)

    @classmethod
    def from_obj(cls, obj):
        data, kind = serialize.matrix_from_obj(obj)
        role = kind if kind in ROLES else "generic"
        return cls(data, role)


def _require_hermitian(a, tol, what):
    if a.shape[0] != a.shape[1]:
        raise InvalidArgumentError("%s must be square" % what)
    dev = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    if dev > tol:
        raise InvalidArgumentError(
            "%s deviates from Hermitian by %.3e (tol %.1e)" % (what, dev, tol)
        )
    return dev


def _require_signature_shape(a):
    _require_hermitian(a, _SIGNATURE_TOL, "signature matrix")
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


@dataclass(frozen=True)
class HermitianEigen:
    """Eigendecomposition with eigenvalues ascending, eigenvectors as columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray = field(repr=False)


def dft_matrix(m):
    """Unitary DFT matrix F[alpha, g] = exp(-2 pi i alpha g / m) / sqrt(m)."""
    m = int(m)
    if m < 1:
        raise InvalidArgumentError("DFT order must be a positive integer")
    alpha = np.arange(m)
    return np.exp(-2j * np.pi * np.outer(alpha, alpha) / m) / np.sqrt(m)


def hermitian_eigen(a, tol=1e-8):
    """Full eigendecomposition of a (numerically) Hermitian matrix.

    The input may deviate from Hermitian by at most `tol`; it is
    symmetrized as (A + A*)/2 before factorization.
    """
    a = as_array(a)
    _require_hermitian(a, tol, "hermitian_eigen input")
    sym = 0.5 * (a + a.conj().T)
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError("eigendecomposition failed: %s" % exc) from exc
    return HermitianEigen(eigenvalues=w, eigenvectors=v)


def pseudoinverse(a, rank_rtol=1e-8):
    """Right/pseudo-inverse of a full-rank real matrix via pivoted QR.

    For a wide n x m input of rank n the result T satisfies A @ T = I.
    Raises RankDeficiencyError when the singular value ratio drops below
    rank_rtol, carrying the smallest singular value.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise InvalidArgumentError("pseudoinverse expects a nonempty 2-D real matrix")
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] <= rank_rtol * sv[0]:
        raise RankDeficiencyError(
            "matrix is rank deficient (smallest sv %.3e, largest %.3e)"
            % (sv[-1], sv[0]),
            smallest_sv=float(sv[-1]),
        )
    n, m = a.shape
    if n <= m:
        # A^T P = Q R, so A = P R^T Q^T and the right inverse is T = Q R^{-T} P^T:
        # Q R^{-T} scattered to columns piv (a column gather would be F-ordered).
        q, r, piv = scipy.linalg.qr(a.T, mode="economic", pivoting=True)
        rt_inv = scipy.linalg.solve_triangular(r, np.eye(n), trans="T", lower=False)
        t = np.empty((m, n))
        t[:, piv] = q @ rt_inv
    else:
        # A P = Q R, so the left inverse is T = P R^{-1} Q^T.
        q, r, piv = scipy.linalg.qr(a, mode="economic", pivoting=True)
        r_inv = scipy.linalg.solve_triangular(r, np.eye(m), lower=False)
        t = r_inv[np.argsort(piv)] @ q.T
    residual = float(np.max(np.abs(_right_identity_residual(a, t))))
    if residual > 1e-8:
        raise NumericFailureError(
            "pseudoinverse residual %.3e exceeds 1e-8" % residual
        )
    return t


def _right_identity_residual(a, t):
    n, m = a.shape
    if n <= m:
        return a @ t - np.eye(n)
    return t @ a - np.eye(m)


def op_norm_inf(a):
    """Max absolute row sum: the operator norm for sup-norm vectors."""
    a = as_array(a)
    if a.size == 0:
        return 0.0
    return float(np.max(np.sum(np.abs(a), axis=1)))
