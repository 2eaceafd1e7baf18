"""Frame-level predicates and conversions for equiangular tight frames.

A d x n ETF has unit-norm columns, frame operator (n/d) I, and all
off-diagonal Gram moduli equal to the Welch constant
gamma = sqrt((n-d)/(d(n-1))).  Its Gram factors as I + gamma S for a
signature matrix S (Hermitian, zero diagonal, unimodular off-diagonal).
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from . import serialize
from .errors import (
    InvalidArgumentError,
    InvalidSignatureError,
    NotEquiangularError,
)
from .linalg import as_array, hermitian_eigen, require_hermitian, require_signature

_GRAM_HERMITIAN_TOL = 1e-10
_DIAG_TOL = 1e-8
_EQUI_TOL = 1e-6
_SPECTRAL_TOL = 1e-6
_RANK_TOL = 1e-6


def welch_gamma(d, n):
    """Off-diagonal Gram modulus forced on any d x n ETF."""
    d, n = int(d), int(n)
    if d < 1 or n <= d:
        raise InvalidArgumentError("welch_gamma requires n > d >= 1")
    return math.sqrt((n - d) / (d * (n - 1)))


@dataclass(frozen=True)
class EtfReport:
    """Deviations of a candidate frame from the ETF conditions."""

    d: int
    n: int
    max_norm_dev: float
    max_tight_dev: float
    max_equi_dev: float
    gamma: float
    verdict: bool

    def to_obj(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class CirculantPair:
    """Generators x, y of a 2-circulant d x 2d frame [C_x | C_y]."""

    d: int
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        d = int(self.d)
        x = np.asarray(self.x, dtype=complex).ravel()
        y = np.asarray(self.y, dtype=complex).ravel()
        if d < 1 or x.shape != (d,) or y.shape != (d,):
            raise InvalidArgumentError("generators must both have length d")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def to_obj(self):
        return serialize.pair_to_obj(self.d, self.x, self.y)

    @classmethod
    def from_obj(cls, obj):
        d, x, y = serialize.pair_from_obj(obj)
        return cls(d, x, y)


def frame_products(a):
    """The frame operator a a^H and the Gram a^H a of a 2-D array a.
    Raises InvalidArgumentError when either is not finite, as when finite
    entries overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        frame_op = a @ a.conj().T
        gram = a.conj().T @ a
    if not (np.all(np.isfinite(frame_op)) and np.all(np.isfinite(gram))):
        raise InvalidArgumentError(
            "the Gram or frame operator of the frame overflows or is not finite"
        )
    return frame_op, gram


def check_etf(phi, tol=1e-10):
    """Measure how far phi is from being a d x n ETF.

    Deviations: column norms vs 1, frame operator vs (n/d) I, off-diagonal
    Gram moduli vs the Welch constant.  A single unit vector (d = n) passes
    vacuously with gamma = 0.  Raises InvalidArgumentError as
    frame_products does.
    """
    a = as_array(phi)
    d, n = a.shape
    if d < 1 or n < d:
        raise InvalidArgumentError("check_etf expects d x n with n >= d >= 1")
    frame_op, gram = frame_products(a)
    norms = np.linalg.norm(a, axis=0)
    max_norm_dev = float(np.max(np.abs(norms - 1.0)))
    max_tight_dev = float(np.max(np.abs(frame_op - (n / d) * np.eye(d))))
    gamma = 0.0 if n == d else welch_gamma(d, n)
    if n > 1:
        off = np.abs(gram[~np.eye(n, dtype=bool)])
        max_equi_dev = float(np.max(np.abs(off - gamma)))
    else:
        max_equi_dev = 0.0
    verdict = max(max_norm_dev, max_tight_dev, max_equi_dev) <= tol
    return EtfReport(
        d=d,
        n=n,
        max_norm_dev=max_norm_dev,
        max_tight_dev=max_tight_dev,
        max_equi_dev=max_equi_dev,
        gamma=gamma,
        verdict=bool(verdict),
    )


@dataclass(frozen=True)
class SignatureExtract:
    signature: np.ndarray
    gamma: float


def signature_of_gram(gram):
    """Split a Gram matrix as I + gamma S and return (S, gamma).

    gamma is the mean off-diagonal modulus.  The diagonal must be 1 to
    1e-8 and the off-diagonal moduli must sit within 1e-6 of their mean,
    else NotEquiangularError.  S is not held to the 1e-10 signature
    contract: solver-grade Grams may miss it.
    """
    g = as_array(gram)
    n = g.shape[0]
    if g.shape[0] != g.shape[1] or n < 2:
        raise InvalidArgumentError("signature_of_gram expects a square Gram, n >= 2")
    require_hermitian(g, 1e-8, "Gram")
    diag_dev = float(np.max(np.abs(np.diag(g) - 1.0)))
    if diag_dev > _DIAG_TOL:
        raise NotEquiangularError(
            "Gram diagonal deviates from one by %.3e" % diag_dev
        )
    mask = ~np.eye(n, dtype=bool)
    moduli = np.abs(g[mask])
    gamma = float(np.mean(moduli))
    if gamma == 0.0:
        raise NotEquiangularError("Gram has identically zero off-diagonal")
    spread = float(np.max(np.abs(moduli - gamma)))
    if spread > _EQUI_TOL:
        raise NotEquiangularError(
            "off-diagonal moduli spread %.3e exceeds %.1e" % (spread, _EQUI_TOL)
        )
    s = (g - np.eye(n)) / gamma
    np.fill_diagonal(s, 0.0)
    return SignatureExtract(signature=s, gamma=gamma)


def gram_of_signature(sig, d):
    """Gram I + gamma S for a d x n ETF from its signature matrix S.

    When n = 2d the quadratic identity S^2 = (n-1) I is checked up front
    to 1e-6.  The result must be Hermitian to 1e-10, else
    InvalidArgumentError, and PSD with eigenvalue n/d of multiplicity d
    and 0 of multiplicity n - d to 1e-6, else InvalidSignatureError
    carrying the residuals.
    """
    s = as_array(sig)
    n = s.shape[0]
    if s.shape[0] != s.shape[1] or n < 2:
        raise InvalidArgumentError("signature must be square with n >= 2")
    d = int(d)
    if not 1 <= d < n:
        raise InvalidArgumentError("need 1 <= d < n")
    if n == 2 * d:
        sq_dev = float(np.max(np.abs(s @ s - (n - 1) * np.eye(n))))
        if sq_dev > _SPECTRAL_TOL:
            raise InvalidSignatureError(
                "S^2 deviates from (n-1)I by %.3e" % sq_dev
            )
    gamma = welch_gamma(d, n)
    g = np.eye(n) + gamma * s
    w, _ = hermitian_eigen(g)
    residuals = np.concatenate([w[: n - d] - 0.0, w[n - d :] - n / d])
    worst = float(np.max(np.abs(residuals)))
    if worst > _SPECTRAL_TOL:
        raise InvalidSignatureError(
            "Gram spectrum off the two-point ETF spectrum by %.3e" % worst,
            residuals=residuals,
        )
    require_hermitian(g, _GRAM_HERMITIAN_TOL, "gram matrix")
    return g


def frame_from_gram(gram, d):
    """Synthesis matrix whose rows are sqrt(lambda_i) v_i^* for the top-d
    eigenpairs (descending).  The Gram must be PSD of rank d."""
    g = as_array(gram)
    n = g.shape[0]
    if g.shape[0] != g.shape[1]:
        raise InvalidArgumentError("Gram must be square")
    d = int(d)
    if not 1 <= d <= n:
        raise InvalidArgumentError("need 1 <= d <= n")
    w, v = hermitian_eigen(g)
    if float(w[0]) < -_RANK_TOL:
        raise InvalidArgumentError("Gram is not PSD (min eigenvalue %.3e)" % w[0])
    if n - d - 1 >= 0 and float(w[n - d - 1]) > _RANK_TOL:
        raise InvalidArgumentError(
            "Gram rank exceeds %d (eigenvalue %.3e should vanish)" % (d, w[n - d - 1])
        )
    if float(w[n - d]) <= _RANK_TOL:
        raise InvalidArgumentError(
            "Gram rank falls below %d (eigenvalue %.3e)" % (d, w[n - d])
        )
    top = range(n - 1, n - d - 1, -1)
    rows = [np.sqrt(max(float(w[i]), 0.0)) * v[:, i].conj() for i in top]
    phi = np.vstack(rows)
    recon = float(np.max(np.abs(phi.conj().T @ phi - g)))
    if recon > 1e-8:
        raise InvalidSignatureError(
            "factorization residual %.3e exceeds 1e-8" % recon
        )
    return phi


def naimark_complement_signature(sig):
    """Signature of the (n-d) x n complement: the negation."""
    s = as_array(sig)
    require_signature(s)
    return -s


def lag_windows(rows):
    """Views plus and minus of rows (..., d), each (d, ..., d), with
    plus[j, ..., l] = rows[..., (l + j) mod d] and minus[j, ..., l] =
    rows[..., (l - j) mod d]: windows on one doubled copy, no index array."""
    doubled = np.concatenate([rows, rows], axis=-1)
    d, step = doubled.shape[-1] // 2, doubled.strides[-1]
    # win[s, ..., l] = doubled[..., s + l]
    win = np.ndarray((d + 1, *doubled.shape[:-1], d), doubled.dtype, doubled, 0, (step, *doubled.strides))
    return win[:d], win[d:0:-1]


def circulant(gen):
    """d x d circulant whose column g is the g-step cyclic shift of gen; a
    stack of generators (..., d) gives the stack of their circulants."""
    _, minus = lag_windows(np.asarray(gen, dtype=complex))
    return np.moveaxis(minus, 0, -1).copy()


def assemble_2circulant(pair):
    """The d x 2d frame [C_x | C_y] built from a generator pair."""
    if not isinstance(pair, CirculantPair):
        raise InvalidArgumentError("assemble_2circulant expects a CirculantPair")
    return np.hstack(circulant([pair.x, pair.y]))
