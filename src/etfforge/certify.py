"""Rigorous existence certificates for 2-circulant ETF solutions.

Given a floating approximation x0 of the residual system's zero, a
derivative-free Newton-Kantorovich argument proves a true zero nearby:
build the secant Jacobian S with step delta in interval arithmetic, take
any floating right inverse T of its midpoint, bound

    A  >= ||S T - I||_inf,   B_T >= ||T||_inf,   C0 >= ||f(x0)||_inf

rigorously, and find eps > 0 with ||x0||_inf + eps <= 1 making the
quadratic

    Q(eps) = B eps^2 + (A + dtil B / 2 - 1) eps + B_T C0 < 0,

where B = 16 d^2 * 12 * B_T packs the residual's coefficient-norm bound
(|f| <= 16 d^2, total degree 4, so D(D-1) = 12) and dtil accounts for the
secant step.  Success proves a solution within eps of x0.

All interval evaluation here uses direct O(d^2) correlation sums; the
FFTs in the floating solver never enter the rigorous path.  S is not
built from differences of residual values: each column is the exact
difference quotient for the float step h_l = fl(fl(x0_l + delta) - x0_l),
enclosed from its closed form as an interval slope (see
secant_jacobian) on only the blocks and lags that can be nonzero; the
rest (u against y, v against x) are exact point zeros.  S is a float
midpoint M and one a-priori radius (rigor.MidRadMatrix) from its blocks
to A.  T is pseudoinverse's right inverse of M, Q R^-T from one numpy QR
whose R diagonal also decides the rank, with R^-1 a blocked triangular
inverse (_upper_inverse).  Both sums of products, S T and the
correlations behind u, v and c (_correlations_interval), are
midpoint-radius products on BLAS (rigor._mid_rad_product); every lagged
copy of a generator, there and in S, is a frames.lag_windows view.  S T
is formed once, in right_inverse, with no endpoint array: its midpoint
minus I refuses a T missing I by more than 1e-8 (reason "rank") and,
with its radius, bounds A.  B_T is one pass over |T|
(rigor.norm_inf_upper).  certify encloses u, v and c at x0 once, as
midpoints and radii, and shares them between S and the residual bound
C0, which alone forms their ends (rigor._ends).
epsilon_search tests every candidate eps at once, on the same array
kernels.  The residual row layout is solver's (solver.row_spec):
f_eval_interval gathers its rows with solver.gather_rows,
secant_jacobian fills S row by row from the same index, and the
coefficient audit (_residual_polynomials, on collections.Counter)
iterates the spec.

Where that argument cannot close (at d = 4 every zero is singular beyond
the gauge kernel), a dimension covered by a witnessed symplectic
construction is proved instead by exact Gaussian-integer identities; see
Certificate and certify_exact, which takes its signature and witness from
harmonic.family_signature.
"""

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .errors import CertificationError, InvalidArgumentError, ToolkitError
from .frames import CirculantPair, lag_windows
from .rigor import (
    _ETA,
    _PHI,
    MidRadMatrix,
    _ends,
    _gamma,
    _mid_rad,
    _mid_rad_product,
    _radius_operand,
    _up,
    norm_inf_upper,
    vadd,
    vdiv,
    vmul,
    vscale,
    vsqr,
    vsub,
)
# certify calls none of these; perfbench/spans.py counts or times them on this module
from .rigor import iv_add, iv_div, iv_matmul, iv_mul, iv_norm_inf, iv_sub  # noqa: F401
from .solver import _row_index, gather_rows, pack, require_sizable, residual_count, row_spec


def _correlations_interval(lo, hi, d):
    """Enclosures of u, v and c (see solver) over the box [lo, hi] of
    packed points, each as (re, im), each part a float midpoint M and
    radius R over the lags 0..d-1: the exact part lies in [M - R, M + R].

    All sixteen correlations sum_m s_m t_(m+j) of the parts s, t of
    (Re x, Im x, Re y, Im y) are one rigor._mid_rad_product P Circ: P the
    parts' midpoints and radii (4 x d; R = 0 at a point, where no product
    of radii is formed), Circ[m, t d + j] = t_(m+j) their circulants side
    by side (d x 4d), read off one frames.lag_windows of both.  Each part
    of u, v and c is a +- b for two of them, (M_a, R_a) and (M_b, R_b):
    M_a +- M_b = M (1 + delta) for M = fl(M_a +- M_b), |delta| <= u =
    2^-53 (Higham, Accuracy and Stability of Numerical Algorithms, eq.
    2.5; exact where subnormal), so |a +- b - M| <= R_a + R_b + u |M|,
    which R bounds with each operation nudged upward.  One product of
    inner length 2d for the +- would double gamma_k and so the radius.
    """
    mid, rad = _mid_rad(lo[:4 * d].reshape(4, d), hi[:4 * d].reshape(4, d))
    plus, _ = lag_windows(np.stack([mid, rad]))
    # Circ[..., m, t d + j] = t_(m+j) = plus[m, ..., t, j], as m + j = j + m
    circ = np.moveaxis(plus, 0, -3).reshape(2, d, 4 * d)
    c_mid, c_rad = (p.reshape(4, 4, d) for p in _mid_rad_product(mid, rad, *circ))
    # u, v, c = sum_m f_m conj(g_(m+j)) for (f, g) = (x, x), (y, y), (y, x), real parts
    # at rows f, g and imaginary next: re = f_re g_re + f_im g_im, im = f_im g_re - f_re g_im
    f, g = np.array([0, 2, 2]), np.array([0, 2, 0])
    a, b = (np.stack([f, f + 1]), g), (np.stack([f + 1, f]), g + 1)
    with np.errstate(invalid="ignore"):  # inf - inf where the product overflowed
        m = c_mid[a] + np.array([1.0, -1.0])[:, None, None] * c_mid[b]
    r = _radius_operand(m, _up(c_rad[a] + c_rad[b]), _PHI)
    return tuple(((m[0, k], r[0, k]), (m[1, k], r[1, k])) for k in range(3))


def _abs2(re, im):
    return vadd(*vsqr(*re), *vsqr(*im))


def f_eval_interval(z, d):
    """Residual system over interval inputs.

    z is a (lo, hi) pair of shape-(4d+1) arrays ordered (Re x, Im x,
    Re y, Im y, w).  Returns (lo, hi) arrays over the residual rows, in
    the exact layout of solver.residual.
    """
    lo, hi = z
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    d = int(d)
    if lo.shape != (4 * d + 1,) or hi.shape != (4 * d + 1,):
        raise InvalidArgumentError("interval input must have 4d+1 entries")
    return _residual_rows(_correlations_interval(lo, hi, d), lo[4 * d], hi[4 * d])


def _residual_rows(uvc, w_lo, w_hi):
    """f_eval_interval's rows from an enclosure uvc of u, v and c, as
    _correlations_interval returns it, and the interval [w_lo, w_hi]:
    the ends of uvc (rigor._ends), then solver._float_rows in interval
    arithmetic and the constants of rows 0..2."""
    (u_re, u_im), (v_re, v_im), c = (tuple(_ends(*part) for part in q) for q in uvc)
    abs2_c = _abs2(*c)
    pivot = (abs2_c[0][0], abs2_c[1][0])
    data = {
        "u_re": u_re,
        "v_re": v_re,
        "s_re": vadd(*u_re, *v_re),
        "s_im": vadd(*u_im, *v_im),
        "mod_u": vsub(*_abs2(u_re, u_im), *pivot),
        "mod_c": vsub(*abs2_c, *pivot),
    }
    d = len(u_re[0])
    rows_lo, rows_hi = (gather_rows(d, {k: q[end] for k, q in data.items()}) for end in (0, 1))
    w4_lo, w4_hi = vscale(w_lo, w_hi, 4.0)
    rows_lo[:3], rows_hi[:3] = vsub(
        rows_lo[:3], rows_hi[:3], np.array([1.0, 1.0, w4_lo]), np.array([1.0, 1.0, w4_hi])
    )
    return rows_lo, rows_hi


def _slope_abs2(z, dz, h, g):
    """The float midpoint of the slope 2 Re(conj(z) dz) + h |dz|^2 of
    |z|^2 and its share of the radius, 2 (X_re |dz_re| + X_im |dz_im|)
    + g t with t the midpoint's h |dz|^2 term, unnudged (see _secant_rows):
    z as _lag_factors returns it, dz's float parts and h over lags x
    columns."""
    (m_re, x_re), (m_im, x_im) = z
    dz_re, dz_im = dz
    # in place on three buffers, in the order of
    # t = h (dz_re^2 + dz_im^2), mid = 2 (m_re dz_re + m_im dz_im) + t
    # and rad = 2 (x_re |dz_re| + x_im |dz_im|) + g t
    t, buf = dz_re * dz_re, dz_im * dz_im
    t += buf
    t *= h
    mid = np.multiply(m_re, dz_re)
    mid += np.multiply(m_im, dz_im, out=buf)
    mid *= 2.0
    mid += t
    rad = np.abs(dz_re)
    rad *= x_re
    rad += np.multiply(np.abs(dz_im, out=buf), x_im, out=buf)
    rad *= 2.0
    rad += np.multiply(t, g, out=buf)
    return mid, rad


def _lag_factors(z, g, k):
    """(M, X) for each part (M, R) of an enclosure z over the lags: the
    float midpoint M and X >= k (R + g |M|), as columns."""
    return [(mid[:, None], _up(k * _radius_operand(mid, rad, g))[:, None]) for mid, rad in z]


def secant_jacobian(x0, delta, d, uvc=None):
    """Interval enclosure of the secant Jacobian at x0 with step delta.

    Column l holds the slope (f(x0 + h_l e_l) - f(x0)) / h_l, where
    h_l = fl(fl(x0_l + delta) - x0_l) is the float step; the slope is
    enclosed for exactly this real h_l.  Returns the matrix, a
    rigor.MidRadMatrix, and the largest step, max h_l.  uvc is an
    enclosure of u, v and c at x0 as _correlations_interval(x0, x0, d)
    returns it, built here when None; S holds the slope for every u and
    c in it.  A delta that moves no x0_l is refused ("infeasible").

    No f is evaluated at a moved point.  Each entry is enclosed from the
    exact algebraic difference quotient (an interval slope, Neumaier,
    Interval Methods for Systems of Equations, 1990): moving x_l by h e
    (e = 1 for Re x_l, e = i for Im x_l) changes u_j by h D,
    D = e conj(x_(l+j)) + conj(e) x_(l-j) + h [j = 0], and c_j by
    h conj(e) y_(l-j); moving y_l changes v_j likewise and c_j by
    h e conj(x_(l+j)).  A modulus row |z|^2 has the slope
    2 Re(conj(z) D) + h |D|^2, and the w column is exactly -4 in the
    lag-0 tightness row and 0 elsewhere.  As e and conj(e) only swap and
    negate real and imaginary parts, each part of D is taken from x0 by
    index.  Only the blocks that can be nonzero are evaluated, on one
    enclosure of u, v and c at x0: D and the |u_j|^2 slope on the columns
    that move u (x) and D on those that move v (y), at the lags 0..d/2
    that row_spec reads, and the |c_j|^2 slope, for a point change of c,
    at every lag and column.  u does not move with y nor v with x, so
    those entries are exact point zeros.  Every other entry is a float
    midpoint with one a-priori radius (midpoint-radius form; the bound
    is derived in _secant_rows), so the cost is O(d^2) and the entries
    are a few ulps wide: nothing nearly equal is subtracted.
    """
    x0 = np.asarray(x0, dtype=float)
    d = int(d)
    n_var = 4 * d + 1
    if x0.shape != (n_var,):
        raise InvalidArgumentError("x0 must have 4d+1 entries")
    if not np.all(np.isfinite(x0)) or not 0 < delta < 1:
        raise InvalidArgumentError("x0 must be finite and 0 < delta < 1")
    steps = (x0 + delta) - x0
    if np.any(steps <= 0.0):
        raise CertificationError(
            "infeasible",
            "delta %.3e is too small to move x0: secant step vanished at coordinate %d"
            % (delta, int(np.argmax(steps <= 0.0))),
        )
    u, _, c = _correlations_interval(x0, x0, d) if uvc is None else uvc
    return MidRadMatrix(*_secant_rows(x0[:4 * d].reshape(4, d), steps, u, c)), float(np.max(steps))


def _secant_rows(parts, steps, u, c):
    """secant_jacobian's midpoint and radius arrays from the parts (Re x,
    Im x, Re y, Im y) of x0 as rows, the steps and u and c at x0: a
    function of its own, so that its temporaries are freed when it returns.

    Each block is a float midpoint M, computed once in round-to-nearest,
    and a radius r with |S - M| <= r for the exact entry S, nudged once;
    exact point zeros and the -4 of the w column have r = 0.  With
    u = 2^-53, eta = 2^-1074 and gamma_k = k u / (1 - k u) (Higham,
    Accuracy and Stability of Numerical Algorithms, chapter 3):

    - D.  Each part is one rounded sum M = fl(a + b) of two floats (at
      lag 0, 2 x_l is exact and h is the one addition), so
      a + b = M (1 + delta), |delta| <= u (Higham, eq. 2.5; exact where
      subnormal): |S - M| <= u |M| <= r = _up(phi |M|), phi = u (1 + 2 u).
    - A modulus slope 2 (z_re D_re + z_im D_im) + h (D_re^2 + D_im^2),
      for z in [M_z - R_z, M_z + R_z] per part (R_z from u's or c's
      enclosure) and the float D above (exact for c's change).  Replacing
      z and the exact D by M_z and the float D moves it by at most, per
      part,
          2 ((1 + u) R_z + u |M_z|) |D| + (2 u + u^2) h D^2,
      and its float evaluation, minus the pivot M_0 (lag 0 of the
      |c_j|^2 slope), rounds each term at most 5 times: gamma_5 times
      the sum of the terms' moduli.  With g = gamma_7 >= gamma_5 + 2u + u^2
      a row's share of the radius is
          2 ((1 + u) R_z + g |M_z|) |D| + g h D^2,
      and r is the share of row j plus the pivot's.
    - Evaluating r.  Its terms are nonnegative and each passes at most 4
      roundings; the h D^2 term reuses the float t = fl(h (D_re^2 +
      D_im^2)) of the midpoint, at least (1 - gamma_3) times the exact
      value.  _lag_factors forms X >= k (R_z + g |M_z|) per lag and the
      scalar of t is g_t >= k g, with k >= 1 + 2 gamma_8 >=
      (1 + u) / ((1 - gamma_4) (1 - gamma_3)), so the float r bounds the
      two shares, but for underflow.
    - Underflow.  Each product that underflows is off by at most eta / 2,
      grown by less than 2 in later roundings: 10 in M - M_0, 6 in r and
      t's 3 scaled by g_t < 1, under 17 eta.  The one nudge of r adds
      32 eta first.
    """
    d = parts.shape[1]
    half = d // 2 + 1
    g = _gamma(7)
    k = float(_up(1.0 + 2.0 * _gamma(8)))
    g_t = float(_up(k * g))
    under = 32.0 * _ETA
    # D on each column's own generator: e conj(z_(l+j)) has the parts
    # (z_re, -z_im) for e = 1 and (z_im, z_re) for e = i, conj(e) z_(l-j)
    # the parts (z_re, z_im) and (z_im, -z_re); so rows 4..7 are the
    # parts (Im x, -Re x, Im y, -Re y)
    swapped = parts[[1, 0, 3, 2]] * np.array([[1.0], [-1.0], [1.0], [-1.0]])
    plus, minus = lag_windows(np.concatenate([parts, swapped]))
    flat = lambda a: a.reshape(a.shape[0], 4 * d)
    # c's change: conj(e) y_(l-j) on the x columns, e conj(x_(l+j)) on the y columns
    dc = (flat(np.concatenate([minus[:, 2:4], plus[:, 0:2]], axis=1)),
          flat(np.concatenate([minus[:, 6:8], -plus[:, 4:6]], axis=1)))
    mid_c, rad_c = _slope_abs2(_lag_factors(c, g, k), dc, steps[:4 * d], g_t)
    del dc  # two d x 4d arrays, gone before D's are made
    pivot_mid, pivot_rad = mid_c[0], rad_c[0]
    mod_c = (mid_c - pivot_mid, _up(rad_c + pivot_rad + under))
    del mid_c, rad_c
    d_re = flat(plus[:half, 0:4] + minus[:half, 0:4])
    d_re[0] += steps[:4 * d]
    d_im = flat(minus[:half, 4:8] - plus[:half, 4:8])
    x, y, xy = slice(0, 2 * d), slice(2 * d, 4 * d), slice(0, 4 * d)
    mid_u, rad_u = _slope_abs2(
        _lag_factors([(m[:half], r[:half]) for m, r in u], g, k),
        (d_re[:, x], d_im[:, x]), steps[:2 * d], g_t)
    # |u_j|^2 - |c_0|^2: u does not move with y, so there it is -|c_0|^2
    on_y = lambda row: np.broadcast_to(row[y], mid_u.shape)
    mod_u_mid = np.concatenate([mid_u - pivot_mid[x], on_y(-pivot_mid)], axis=1)
    mod_u_rad = np.concatenate([rad_u + pivot_rad[x], on_y(pivot_rad)], axis=1)
    d_re, d_im = ((e, _up(_PHI * np.abs(e))) for e in (d_re, d_im))
    blocks = {
        "u_re": (x, tuple(e[:, x] for e in d_re)),
        "v_re": (y, tuple(e[:, y] for e in d_re)),
        "s_re": (xy, d_re),
        "s_im": (xy, d_im),
        "mod_u": (xy, (mod_u_mid, _up(mod_u_rad + under))),
        "mod_c": (xy, mod_c),
    }
    mid, rad = np.zeros((2, residual_count(d), 4 * d + 1))
    for name, rows, lags in _row_index(d):
        cols, (m, r) = blocks[name]
        mid[rows, cols], rad[rows, cols] = m[lags], r[lags]
    mid[2, 4 * d] = -4.0
    return mid, rad


_RANK_RTOL = 1e-8
_RANK_REFUSAL = "secant Jacobian midpoint is numerically rank deficient: "
# orders below this are inverted by np.linalg.inv (see _upper_inverse)
_UPPER_INVERSE_BASE = 64


def pseudoinverse(a):
    """Right inverse T (A @ T = I up to rounding) of a wide n x m real
    matrix and min |R_ii|, from one QR, A^T = Q R, whose diagonal also
    decides the rank.  Each |R_ii| is an eigenvalue of the triangular R,
    so at least sigma_min (R and A share singular values), and at most
    the norm of R's column i, so at most sigma_max; the guard
    min |R_ii| <= _RANK_RTOL max |R_ii| thus refuses no matrix whose
    singular value ratio exceeds _RANK_RTOL.  Raises CertificationError
    ("rank"), worded for certify's S_mid and carrying min |R_ii|, then.
    How far A @ T misses I is not checked here: right_inverse reads it off
    the product that certify forms anyway.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise InvalidArgumentError("pseudoinverse expects a nonempty 2-D real matrix")
    n, m = a.shape
    if n > m:
        raise InvalidArgumentError(
            "pseudoinverse expects a wide matrix, got %d x %d" % (n, m)
        )
    # A^T = Q R, so A = R^T Q^T and the right inverse is T = Q R^{-T}.
    q, r = np.linalg.qr(a.T)
    diag = np.abs(np.diagonal(r))
    r_min, r_max = float(diag.min()), float(diag.max())
    if r_max == 0.0 or r_min <= _RANK_RTOL * r_max:
        text = "matrix is rank deficient (min |R_ii| %.3e, max |R_ii| %.3e)" % (r_min, r_max)
        raise CertificationError("rank", _RANK_REFUSAL + text, detail=r_min)
    return q @ _upper_inverse(r).T, r_min


def _upper_inverse(r):
    """R^-1 of an upper triangular R with a nonzero diagonal, by blocks:
    R = [[R11, R12], [0, R22]] has R^-1 = [[X11, -X11 R12 X22], [0, X22]]
    with X11 = R11^-1 and X22 = R22^-1 inverted the same way, about
    2 n^3 / 3 flops in dense products where LU inversion takes 2 n^3.
    Below _UPPER_INVERSE_BASE it is np.linalg.inv, whose partial pivoting
    swaps no rows of a triangular matrix with a nonzero diagonal."""
    n = r.shape[0]
    if n < _UPPER_INVERSE_BASE:
        return np.linalg.inv(r)
    h = n // 2
    out = np.zeros_like(r)
    out[:h, :h] = x11 = _upper_inverse(r[:h, :h])
    out[h:, h:] = x22 = _upper_inverse(r[h:, h:])
    out[:h, h:] = -x11 @ (r[:h, h:] @ x22)
    return out


def right_inverse(s):
    """T = pseudoinverse(M) for the midpoint M and radius R of an interval
    matrix S, and A >= ||S' T - I||_inf for every point matrix S' in S.
    With C, rad = rigor._mid_rad_product(M, R, T), |S' T - C| <= rad, and
    E = fl(C - I) is C - I: off the diagonal trivially, and on it once
    max |E| <= 1e-8, as C_ii is then in [1/2, 2] (Sterbenz's lemma).  So
    A = norm_inf_upper(_up(|E| + rad)), NaN or inf if rad is, which
    epsilon_search never accepts.  Raises CertificationError("rank"),
    carrying min |R_ii|, when pseudoinverse does or when max |E| > 1e-8
    (or NaN): an absolute test, so near the rank threshold it can still
    refuse a matrix the R guard passed (a singular value ratio of 1.1e-8
    can leave 1.2e-8)."""
    mid, rad = s.mid_rad()
    t, r_min = pseudoinverse(mid)
    e, e_rad = _mid_rad_product(mid, rad, t)
    e[np.diag_indices_from(e)] -= 1.0
    residual = float(np.max(np.abs(e, out=e)))
    if not residual <= 1e-8:
        text = "right inverse residual %.3e exceeds 1e-8 (min |R_ii| %.3e)" % (residual, r_min)
        raise CertificationError("rank", _RANK_REFUSAL + text, detail=r_min)
    return t, norm_inf_upper(_up(e + e_rad))


METHOD_NK = "newton-kantorovich"
METHOD_EXACT = "exact-construction"


@dataclass(frozen=True, kw_only=True)
class Certificate:
    """Verified existence of a d x 2d ETF made of two circulant blocks.

    A Certificate exists only as a proof: verified is always True, and
    rows, variables and kernel_dim follow from d.

    method "newton-kantorovich": a true residual zero lies within epsilon
    of the packed point x0 (in the infinity norm).  All bound_* fields are
    certified upper bounds, and lhs_upper < rhs_lower holds strictly in
    outward-rounded arithmetic (epsilon_search).

    method "exact-construction": no floating point enters the proof.  For
    a signature S of order n = 2d, checked over Z[i] in this order by
    harmonic.prove_witnessed_signature:

    - S is Hermitian with zero diagonal and unimodular off-diagonal
      entries, and S^2 = (n-1) I.  As tr S = 0, half the eigenvalues are
      +sqrt(n-1), so G = I + S / sqrt(n-1) is the Gram of a d x 2d ETF.
    - Every witness scalar c_i is one of +-1, +-i and
      S[i,j] = conj(c_i) c_j S[sigma i, sigma j] for all i, j.  The
      monomial unitary M e_i = c_i e_(sigma i) then commutes with G, so
      Phi M = V Phi for a unitary V on C^d, Phi the frame.
    - sigma has cycle type d^2 and the products of the scalars around the
      two cycles (the holonomies) agree, say = h; then V^d = h I.
    - For k = 1..d-1, sum_i P_k(i) S[i, sigma^k i] = 0, where P_k(i) is
      the product of the scalars along i -> sigma^k i.  Since sigma^k has
      no fixed point this sum is sqrt(n-1) tr(G M^k) = sqrt(n-1) (n/d)
      tr(V^k), so tr(V^k) = 0.

    V / h^(1/d) is then the regular representation of Z_d: in its
    Fourier basis it is the cyclic shift, the frame is two circulant
    blocks (up to unimodular rescaling of its vectors), and their
    generators are an exact zero of the residual system at w = 1/2.

    An exact certificate has seed -1 and x0 the generators as recovered
    in floating point (informational only).  epsilon, delta, delta_eff,
    bound_T_norm, bound_f_x0, f_abs_bound and q_value are None.
    lhs_upper and bound_ST_minus_I hold the largest modulus of the
    identity defects (0.0: every one was checked to vanish), and
    rhs_lower is 1.0, because a Gaussian integer of modulus below 1 is 0.
    """

    method: str = METHOD_NK
    d: int
    seed: int
    x0: tuple
    delta: Optional[float] = None
    delta_eff: Optional[float] = None
    epsilon: Optional[float] = None
    bound_ST_minus_I: float
    bound_T_norm: Optional[float] = None
    bound_f_x0: Optional[float] = None
    f_abs_bound: Optional[float] = None
    lhs_upper: float
    rhs_lower: float
    q_value: Optional[float] = None
    kernel_dim: int = field(init=False)
    rows: int = field(init=False)
    variables: int = field(init=False)
    verified: bool = field(init=False)

    def __post_init__(self):
        rows = residual_count(self.d)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "variables", 4 * self.d + 1)
        object.__setattr__(self, "kernel_dim", 4 * self.d + 1 - rows)
        object.__setattr__(self, "verified", True)

    def to_obj(self):
        obj = {"kind": "certificate"}
        obj.update((f.name, getattr(self, f.name)) for f in fields(self))
        obj["x0"] = list(self.x0)
        return obj


def certify(pair, delta=1e-10, w=0.5, seed=-1):
    """Produce a Certificate for a near-solution pair, or raise
    CertificationError (reason "rank" when S_mid has no right inverse,
    or "infeasible", also when delta is too small to move x0)."""
    if not isinstance(pair, CirculantPair):
        raise InvalidArgumentError("certify expects a CirculantPair")
    d = pair.d
    x0 = pack(pair, w)
    norm_x0 = float(np.max(np.abs(x0)))
    if norm_x0 >= 1.0:
        raise CertificationError(
            "infeasible", "point infinity norm %.3e leaves no room for epsilon" % norm_x0
        )
    uvc = _correlations_interval(x0, x0, d)
    s_mat, delta_eff = secant_jacobian(x0, delta, d, uvc)
    t, a_bound = right_inverse(s_mat)
    bt = norm_inf_upper(t)
    f0_lo, f0_hi = _residual_rows(uvc, x0[4 * d], x0[4 * d])
    c0 = float(np.max(np.maximum(np.abs(f0_lo), np.abs(f0_hi))))
    f_abs = float(16 * d * d)
    eps, lhs, rhs, q = epsilon_search(a_bound, bt, c0, delta_eff, norm_x0, f_abs)
    return Certificate(
        d=d,
        seed=int(seed),
        x0=tuple(float(v) for v in x0),
        delta=float(delta),
        delta_eff=float(delta_eff),
        epsilon=eps,
        bound_ST_minus_I=a_bound,
        bound_T_norm=bt,
        bound_f_x0=c0,
        f_abs_bound=f_abs,
        lhs_upper=lhs,
        rhs_lower=rhs,
        q_value=q,
    )


def epsilon_search(a, bt, c0, delta_eff, norm_x0, f_abs):
    """The contraction inequality of the module docstring, for the float
    bounds A = a, B_T = bt, C0 = c0, the secant step delta_eff, ||x0||_inf
    and the coefficient bound f_abs (|f| <= f_abs).

    Each candidate eps (the vertex of Q when it lies in (0, cap], then
    geomspace(1e-13, cap, 32), cap = 1 - ||x0||) with (||x0|| + eps).hi
    <= 1 is tested at once, in outward-rounded array arithmetic:

        lhs = A + (dtil / 2 + eps) B,   rhs = 1 - B_T C0 / eps.

    Returns (eps, lhs.hi, rhs.lo, Q(eps).hi) for the first candidate with
    lhs.hi < rhs.lo; a NaN compares false there, so it never proves
    anything.  Otherwise raises CertificationError ("infeasible") carrying
    the best gap, min(lhs.hi - rhs.lo).
    """
    cap = 1.0 - norm_x0
    base = max(1.0, vadd(norm_x0, norm_x0, delta_eff, delta_eff)[1])
    dtil = vmul(delta_eff, delta_eff, *vmul(base, base, base, base))
    half_dtil = vmul(0.5, 0.5, *dtil)
    big_b = vmul(12.0 * f_abs, 12.0 * f_abs, bt, bt)  # coefficient bound times D(D-1), D = 4
    lin = vsub(*vadd(a, a, *vmul(*half_dtil, *big_b)), 1.0, 1.0)
    const = vmul(bt, bt, c0, c0)
    eps = np.geomspace(1e-13, cap, 32)
    if big_b[1] > 0 and lin[1] < 0:
        eps = np.concatenate([[-lin[1] / (2.0 * big_b[1])], eps])
    eps = eps[(0.0 < eps) & (eps <= cap)]
    eps = eps[vadd(norm_x0, norm_x0, eps, eps)[1] <= 1.0]
    lhs = vadd(a, a, *vmul(*vadd(*half_dtil, eps, eps), *big_b))[1]
    rhs = vsub(1.0, 1.0, *vdiv(*const, eps, eps))[0]
    proved = np.flatnonzero(lhs < rhs)
    if proved.size == 0:
        best_gap = float(np.min(lhs - rhs, initial=math.inf))
        raise CertificationError(
            "infeasible",
            "no epsilon makes the contraction inequality hold (best gap %.3e)"
            % best_gap,
            detail=best_gap,
        )
    k = proved[0]
    e = eps[k]
    quad = vmul(*big_b, *vmul(e, e, e, e))
    q = vadd(*vadd(*quad, *vmul(*lin, e, e)), *const)
    return float(e), float(lhs[k]), float(rhs[k]), float(q[1])


def exact_constructions(d):
    """(family, q) for each Gaussian-integer family at dimension d:
    paley_plus at q = 2d-1 and double_paley_plus at q = d-1, each when q
    is an odd prime power.  A q past galois.within_line_system_cap is
    listed too; harmonic.family_signature refuses it, naming the cap (in
    galois.build_line_system), before certify_exact runs."""
    from .constructions import FAMILY_TABLE, is_odd_prime_power

    d = int(d)
    return [(family, q) for _, q_of, family in FAMILY_TABLE
            if family and is_odd_prime_power(q := q_of(d))]


def certify_exact(sig_re, sig_im, witness):
    """Prove that a d x 2d ETF of two circulant blocks exists, from an
    exact signature (int64 arrays re, im of order n = 2d) and a shift
    witness, by harmonic.prove_witnessed_signature, which raises
    CertificationError (reason "infeasible") naming the first identity
    that fails.  Only x0 is then computed in floating point: the
    generators recovered by harmonic._straighten, which re-checks nothing
    the proof has checked exactly, and generators_from_blockgram.
    """
    from .harmonic import _straighten, generators_from_blockgram, prove_witnessed_signature

    gram = prove_witnessed_signature(sig_re, sig_im, witness)
    d = gram.shape[0] // 2
    block, _, _ = _straighten(gram, witness)
    gens = generators_from_blockgram(block)
    x0 = pack(CirculantPair(d, gens[0], gens[1]), 0.5)
    return Certificate(
        method=METHOD_EXACT,
        d=d,
        seed=-1,
        x0=tuple(float(v) for v in x0),
        bound_ST_minus_I=0.0,
        lhs_upper=0.0,
        rhs_lower=1.0,
    )


@dataclass(frozen=True)
class RangeResult:
    """Outcome for one dimension of a certification sweep.  A verified
    dimension carries its certificate; failures keep the sweep alive and
    carry the reason instead."""

    d: int
    certificate: Optional[Certificate]
    failure_reason: Optional[str] = None
    failure_message: Optional[str] = None

    @property
    def verified(self):
        return self.certificate is not None and self.certificate.verified

    def to_obj(self):
        return {
            "kind": "range_result",
            "d": self.d,
            "verified": self.verified,
            "certificate": None if self.certificate is None else self.certificate.to_obj(),
            "failure_reason": self.failure_reason,
            "failure_message": self.failure_message,
        }


def _prove_exactly(d):
    """certify_exact on each family exact_constructions lists for d: the
    first proof, else None and the refusals as a message suffix."""
    from .harmonic import family_signature

    notes = ""
    for family, q in exact_constructions(d):
        try:
            return certify_exact(*family_signature(family, q)), notes
        except ToolkitError as exc:
            notes += "; exact route via %s q=%d: %s" % (family, q, exc)
    return None, notes


def _certify_dimension(args):
    d, seeds, delta, tol, max_iter = args
    from .solver import solve

    best_residual = math.inf
    reason = None
    message = None
    for seed in (*seeds[:1], None, *seeds[1:]):  # None is the exact route
        if seed is None:
            proof, exact_notes = _prove_exactly(d)
            if proof is not None:
                return RangeResult(d, proof)
            continue
        result = solve(d, seed=seed, tol=tol, max_iter=max_iter)
        if not result.converged:
            best_residual = min(best_residual, result.residual_inf)
            continue
        try:
            return RangeResult(d, certify(result.pair, delta=delta, seed=seed))
        except CertificationError as exc:
            # certification failures outrank plain non-convergence notes
            reason = exc.reason
            message = str(exc)
    if reason is None:
        reason = "no-convergence"
        message = "solver missed tolerance for d=%d over seeds %s (best residual %.3e)" % (
            d,
            list(seeds),
            best_residual,
        )
    return RangeResult(d, None, reason, message + exact_notes)


def certify_range(d_lo, d_hi, seeds=(0, 1, 2, 3, 4), delta=1e-10, jobs=1,
                  tol=1e-12, max_iter=500):
    """Solve and certify every dimension in [d_lo, d_hi], one RangeResult
    per dimension.  Each dimension tries its seeds in order, each an LM
    solve and a Newton-Kantorovich certify.  Right after the first seed
    that gives no NK certificate, a dimension that exact_constructions
    lists a family for is proved by certify_exact: that proof is
    float-free, so it ends the search, and the remaining seeds run only
    when the exact route refuses (past the line-system cap, say).
    Per-dimension failures are recorded in the result, never raised, so
    one bad dimension cannot abort the sweep.  With jobs = 1 the
    dimensions are drawn lazily from the range.  With jobs > 1 the range
    goes through ProcessPoolExecutor.map on at most one worker per
    dimension: the results come in range order; a slow dimension at the
    head idles no worker, since each takes the next queued dimension as
    it frees up; and map submits the whole range up front, at about 2 KB
    per dimension."""
    d_lo, d_hi = int(d_lo), int(d_hi)
    if d_lo < 2:
        raise InvalidArgumentError("certification starts at d = 2")
    if d_hi < d_lo:
        return []
    require_sizable(d_hi)
    work = ((d, tuple(seeds), delta, tol, max_iter) for d in range(d_lo, d_hi + 1))
    # the pool starts all its workers at the first submit
    jobs = min(int(jobs), d_hi - d_lo + 1)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_certify_dimension, work))
    return [_certify_dimension(item) for item in work]


def _lin(plus, minus=()):
    """The sum of the polynomials plus minus those of minus, zeros kept."""
    out = Counter()
    for poly in plus:
        out.update(poly)
    for poly in minus:
        out.subtract(poly)
    return out


def _abs2_polynomial(re, im):
    """re^2 + im^2 expanded, for polynomials re and im."""
    out = Counter()
    for part in (re, im):
        for (ka, ca), (kb, cb) in itertools.product(part.items(), repeat=2):
            out[tuple(sorted(ka + kb))] += ca * cb
    return out


def _residual_polynomials(d):
    """The residual rows as explicit real polynomials in the 4d+1
    variables: float coefficients keyed by sorted tuples of variable
    indices, from integer Counters whose zero terms are dropped per row."""
    d = int(d)
    x, y = (range(0, d), range(d, 2 * d)), (range(2 * d, 3 * d), range(3 * d, 4 * d))  # (Re, Im)

    def parts(f, g, j):  # (Re, Im) of sum_m f_m conj(g_(m+j))
        corr = lambda s, t: Counter(tuple(sorted((s[m], t[(m + j) % d]))) for m in range(d))
        return _lin([corr(f[0], g[0]), corr(f[1], g[1])]), _lin([corr(f[1], g[0])], [corr(f[0], g[1])])

    u, v, c = ([parts(f, g, j) for j in range(d)] for f, g in ((x, x), (y, y), (y, x)))
    pivot = _abs2_polynomial(*c[0])
    quantity = {
        "u_re": lambda j: _lin([u[j][0]]),
        "v_re": lambda j: _lin([v[j][0]]),
        "s_re": lambda j: _lin([u[j][0], v[j][0]]),
        "s_im": lambda j: _lin([u[j][1], v[j][1]]),
        "mod_u": lambda j: _lin([_abs2_polynomial(*u[j])], [pivot]),
        "mod_c": lambda j: _lin([_abs2_polynomial(*c[j])], [pivot]),
    }
    rows = [quantity[name](j) for name, j in row_spec(d)]
    for row, constant in zip(rows, ({(): 1}, {(): 1}, {(4 * d,): 4})):
        row.subtract(constant)  # u_0 - 1, v_0 - 1 and s_0 - 4 w
    return [{key: float(cf) for key, cf in row.items() if cf} for row in rows]


def coefficient_norms(d):
    """Per-row (total degree, coefficient 1-norm) of the expanded residual."""
    return [(max(map(len, poly), default=0), float(sum(map(abs, poly.values()))))
            for poly in _residual_polynomials(d)]
