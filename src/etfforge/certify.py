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
secant_jacobian), so S costs O(d^2) and its entries are a few ulps
wide.  Its product with T is a midpoint-radius product on BLAS (see
rigor.iv_matmul).  certify encloses u, v and c at x0 once, as one
stacked interval pass (_correlations_interval), and shares that
enclosure between S and the residual bound C0.  epsilon_search tests
every candidate eps at once, on the same array kernels.  The residual
row layout is solver's (solver.row_spec): f_eval_interval and
secant_jacobian gather their rows with solver.gather_rows, and
_residual_polynomials iterates the spec.

Where that argument cannot close (at d = 4 every zero is singular beyond
the gauge kernel), a dimension covered by a witnessed symplectic
construction is proved instead by exact Gaussian-integer identities; see
Certificate and certify_exact, which takes its signature and witness from
harmonic.family_signature.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    CertificationError,
    InvalidArgumentError,
    NumericFailureError,
    RankDeficiencyError,
    ToolkitError,
)
from .frames import CirculantPair
from .linalg import pseudoinverse
from .rigor import (
    IntervalMatrix,
    iv_matmul,
    iv_mat_sub,
    iv_norm_inf,
    vadd,
    vdiv,
    vmul,
    vscale,
    vsqr,
    vsub,
)
# certify calls none of these; perfbench/spans.py counts them on this module
from .rigor import iv_add, iv_div, iv_mul, iv_sub  # noqa: F401
from .solver import gather_rows, pack, residual_count, row_spec, unpack


def _iv_sum_last(lo, hi):
    """Sum intervals along the last axis by pairwise folding."""
    while lo.shape[-1] > 1:
        n = lo.shape[-1]
        if n % 2:
            pad = np.zeros(lo.shape[:-1] + (1,))
            lo = np.concatenate([lo, pad], axis=-1)
            hi = np.concatenate([hi, pad], axis=-1)
            n += 1
        half = n // 2
        lo, hi = vadd(lo[..., :half], hi[..., :half], lo[..., half:], hi[..., half:])
    return lo[..., 0], hi[..., 0]


# the twelve real correlations behind u, v and c as (s, t) factor pairs
# over the packed parts a = Re x, b = Im x, p = Re y, q = Im y.  Pair k
# and pair k + 6 are added (k < 3: Re u, Re v, Re c) or subtracted
# (3 <= k < 6: Im u, Im v, Im c).
_CORRELATION_PAIRS = ("aa", "pp", "pa", "ba", "qp", "qa", "bb", "qq", "qb", "ab", "pq", "pb")
_S_PART = np.array(["abpq".index(k[0]) for k in _CORRELATION_PAIRS])
_T_PART = np.array(["abpq".index(k[1]) for k in _CORRELATION_PAIRS])


def _correlations_interval(lo, hi, d):
    """Interval enclosures of u, v and c (see solver) over the box
    [lo, hi] of packed points, each as (re, im) with re and im (lo, hi)
    pairs over the lags 0..d-1.

    All twelve correlations sum_m s_m t_(m+j) are one (12, d, d) stack:
    one interval product, one pairwise fold over m, then one addition
    and one subtraction across the stack.  Every kernel is elementwise,
    so each entry is rounded exactly as it would be on its own.  certify
    builds this once at x0 and shares it between secant_jacobian and the
    residual bound C0.
    """
    m = np.arange(d)
    idx = (m[None, :] + m[:, None]) % d  # idx[j, m] = m + j
    parts_lo = lo[:4 * d].reshape(4, d)
    parts_hi = hi[:4 * d].reshape(4, d)
    # s broadcasts over the lag axis j of t[k, j, m] = t_k(m + j)
    c_lo, c_hi = _iv_sum_last(*vmul(
        parts_lo[_S_PART, None, :], parts_hi[_S_PART, None, :],
        parts_lo[_T_PART][:, idx], parts_hi[_T_PART][:, idx],
    ))
    re_lo, re_hi = vadd(c_lo[:3], c_hi[:3], c_lo[6:9], c_hi[6:9])
    im_lo, im_hi = vsub(c_lo[3:6], c_hi[3:6], c_lo[9:], c_hi[9:])
    # u_j = sum x_m conj(x_{m+j}), v likewise, c_j = sum y_m conj(x_{m+j})
    return tuple(((re_lo[k], re_hi[k]), (im_lo[k], im_hi[k])) for k in range(3))


def _assemble_rows(u, v, abs2_u, abs2_c):
    """Interval residual rows, without the constants of rows 0..2.

    u and v are (re, im) pairs of (lo, hi) intervals, abs2_u and abs2_c
    (lo, hi) intervals for |u_j|^2 and |c_j|^2, all with the lag on the
    first axis.  f_eval_interval passes values; secant_jacobian passes
    difference quotients with a column axis after the lag, which every
    row is linear in.  Returns (lo, hi) gathered by solver.gather_rows.
    """
    (u_re, u_im), (v_re, v_im) = u, v
    pivot = (abs2_c[0][0], abs2_c[1][0])
    data = {
        "u_re": u_re,
        "v_re": v_re,
        "s_re": vadd(*u_re, *v_re),
        "s_im": vadd(*u_im, *v_im),
        "mod_u": vsub(*abs2_u, *pivot),
        "mod_c": vsub(*abs2_c, *pivot),
    }
    return tuple(gather_rows(len(u_re[0]), {k: q[end] for k, q in data.items()}) for end in (0, 1))


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
    _correlations_interval returns it, and the interval [w_lo, w_hi]."""
    u, v, c = uvc
    rows_lo, rows_hi = _assemble_rows(u, v, _abs2(*u), _abs2(*c))
    w4_lo, w4_hi = vscale(w_lo, w_hi, 4.0)
    rows_lo[:3], rows_hi[:3] = vsub(
        rows_lo[:3], rows_hi[:3], np.array([1.0, 1.0, w4_lo]), np.array([1.0, 1.0, w4_hi])
    )
    return rows_lo, rows_hi


def _slope_abs2(z, dz, h):
    """Enclosure of (|z + h dz|^2 - |z|^2) / h = 2 Re(conj(z) dz) + h |dz|^2,
    for z over lags (first axis) and dz, h over lags x columns."""
    (zr_lo, zr_hi), (zi_lo, zi_hi) = z
    dz_re, dz_im = dz
    cross = vadd(
        *vmul(zr_lo[:, None], zr_hi[:, None], *dz_re),
        *vmul(zi_lo[:, None], zi_hi[:, None], *dz_im),
    )
    return vadd(*vscale(*cross, 2.0), *vscale(*_abs2(dz_re, dz_im), h))


def secant_jacobian(x0, delta, d, uvc=None):
    """Interval enclosure of the secant Jacobian at x0 with step delta.

    Column l holds the slope (f(x0 + h_l e_l) - f(x0)) / h_l, where
    h_l = fl(fl(x0_l + delta) - x0_l) is the float step; the slope is
    enclosed for exactly this real h_l.  Returns the matrix and the
    largest step, max h_l.  uvc is the enclosure of u, v and c at x0,
    _correlations_interval(x0, x0, d); it is built here when None.

    No f is evaluated at a moved point.  Each entry is enclosed from the
    exact algebraic difference quotient (an interval slope, Neumaier,
    Interval Methods for Systems of Equations, 1990): moving x_l by h e
    (e = 1 for Re x_l, e = i for Im x_l) changes u_j by
    h (e conj(x_(l+j)) + conj(e) x_(l-j)), plus h^2 when j = 0, and c_j
    by h conj(e) y_(l-j); moving y_l changes v_j likewise and c_j by
    h e conj(x_(l+j)).  A modulus row |z|^2 has the slope
    2 Re(conj(z) D) + h |D|^2 with D = (change of z) / h, and the w
    column is exactly -4 in the lag-0 tightness row and 0 elsewhere.
    These are evaluated for all lags and columns at once on one interval
    enclosure of u, v and c at x0, and assembled by the same row helper
    as f_eval_interval, so the cost is O(d^2) and the entries are a few
    ulps wide: nothing nearly equal is subtracted.
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
        raise NumericFailureError(
            "secant step vanished at coordinate %d" % int(np.argmax(steps <= 0.0))
        )
    pair, _ = unpack(x0, d)
    u, v, c = _correlations_interval(x0, x0, d) if uvc is None else uvc
    h = steps[None, :4 * d]
    lag = np.arange(d)[:, None]
    col = np.arange(4 * d)[None, :]
    plus, minus = (col + lag) % d, (col - lag) % d  # (lag, column) index tables
    # direction e of each column (Re x, Im x, Re y, Im y blocks); multiplying
    # by e or conj(e) only permutes and negates real and imaginary parts
    e = np.tile(np.repeat([1.0, 1j], d), 2)[None, :]
    x_col = col < 2 * d

    def moved(z, mine):
        """Enclosure of D = e conj(z_(l+j)) + conj(e) z_(l-j) + h [j = 0]
        in the columns that move z, 0 elsewhere."""
        t1 = np.where(mine, e * np.conj(z[plus]), 0.0)
        t2 = np.where(mine, np.conj(e) * z[minus], 0.0)
        re = vadd(t1.real, t1.real, t2.real, t2.real)
        im = vadd(t1.imag, t1.imag, t2.imag, t2.imag)
        h0 = np.where(mine[0], h[0], 0.0)
        re[0][0], re[1][0] = vadd(re[0][0], re[1][0], h0, h0)
        return re, im

    du = moved(pair.x, x_col)
    dv = moved(pair.y, ~x_col)
    dc_point = np.where(x_col, np.conj(e) * pair.y[minus], e * np.conj(pair.x[plus]))
    dc = ((dc_point.real, dc_point.real), (dc_point.imag, dc_point.imag))
    rows_lo, rows_hi = _assemble_rows(du, dv, _slope_abs2(u, du, h), _slope_abs2(c, dc, h))
    w_col = np.zeros((rows_lo.shape[0], 1))
    w_col[2] = -4.0
    s_mat = IntervalMatrix(np.hstack([rows_lo, w_col]), np.hstack([rows_hi, w_col]))
    return s_mat, float(np.max(steps))


METHOD_NK = "newton-kantorovich"
METHOD_EXACT = "exact-construction"


@dataclass(frozen=True)
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

    d: int
    seed: int
    x0: tuple
    delta: Optional[float]
    delta_eff: Optional[float]
    epsilon: Optional[float]
    bound_ST_minus_I: float
    bound_T_norm: Optional[float]
    bound_f_x0: Optional[float]
    f_abs_bound: Optional[float]
    lhs_upper: float
    rhs_lower: float
    q_value: Optional[float]
    kernel_dim: int = field(init=False)
    rows: int = field(init=False)
    variables: int = field(init=False)
    verified: bool = field(init=False)
    method: str = METHOD_NK

    def __post_init__(self):
        rows = residual_count(self.d)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "variables", 4 * self.d + 1)
        object.__setattr__(self, "kernel_dim", 4 * self.d + 1 - rows)
        object.__setattr__(self, "verified", True)

    def to_obj(self):
        return {
            "kind": "certificate",
            "method": self.method,
            "d": self.d,
            "seed": self.seed,
            "x0": list(self.x0),
            "delta": self.delta,
            "delta_eff": self.delta_eff,
            "epsilon": self.epsilon,
            "bound_ST_minus_I": self.bound_ST_minus_I,
            "bound_T_norm": self.bound_T_norm,
            "bound_f_x0": self.bound_f_x0,
            "f_abs_bound": self.f_abs_bound,
            "lhs_upper": self.lhs_upper,
            "rhs_lower": self.rhs_lower,
            "q_value": self.q_value,
            "kernel_dim": self.kernel_dim,
            "rows": self.rows,
            "variables": self.variables,
            "verified": self.verified,
        }


def certify(pair, delta=1e-10, w=0.5, seed=-1):
    """Produce a Certificate for a near-solution pair, or raise
    CertificationError (reason "rank", or "infeasible", also when delta
    is too small to move x0)."""
    if not isinstance(pair, CirculantPair):
        raise InvalidArgumentError("certify expects a CirculantPair")
    d = pair.d
    x0 = pack(pair, w)
    norm_x0 = float(np.max(np.abs(x0)))
    if norm_x0 >= 1.0:
        raise CertificationError(
            "infeasible", "point infinity norm %.6f leaves no room for epsilon" % norm_x0
        )
    uvc = _correlations_interval(x0, x0, d)
    try:
        s_mat, delta_eff = secant_jacobian(x0, delta, d, uvc)
    except NumericFailureError as exc:
        raise CertificationError(
            "infeasible", "delta %.3e is too small to move x0: %s" % (delta, exc)
        ) from exc
    try:
        t = pseudoinverse(s_mat.mid())
    except RankDeficiencyError as exc:
        raise CertificationError(
            "rank",
            "secant Jacobian midpoint is numerically rank deficient",
            detail=exc.smallest_sv,
        ) from exc
    st = iv_matmul(s_mat, t)
    eye = IntervalMatrix.from_point(np.eye(st.shape[0]))
    a_bound = iv_norm_inf(iv_mat_sub(st, eye)).hi
    bt = iv_norm_inf(IntervalMatrix.from_point(t)).hi
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
    """(family, q) for each Gaussian-integer family that table_dispatch
    lists at dimension d: paley_plus at q = 2d-1 (label G_q+1) and
    double_paley_plus at q = d-1 (label 2·(G_q+1))."""
    from .constructions import LABEL_DOUBLE_PLUS, LABEL_HALF, table_dispatch

    d = int(d)
    try:
        labels = table_dispatch(d)
    except InvalidArgumentError:  # beyond the dispatch table nothing is listed
        return []
    out = []
    if LABEL_HALF % (2 * d - 1) in labels:
        out.append(("paley_plus", 2 * d - 1))
    if LABEL_DOUBLE_PLUS % (d - 1) in labels:
        out.append(("double_paley_plus", d - 1))
    return out


def certify_exact(sig_re, sig_im, witness):
    """Prove that a d x 2d ETF of two circulant blocks exists, from an
    exact signature (int64 arrays re, im of order n = 2d) and a shift
    witness, by harmonic.prove_witnessed_signature, which raises
    CertificationError (reason "infeasible") naming the first identity
    that fails.  Only x0 is then computed in floating point: the
    generators recovered by circulantize and generators_from_blockgram.
    """
    from .harmonic import circulantize, generators_from_blockgram, prove_witnessed_signature

    gram = prove_witnessed_signature(sig_re, sig_im, witness)
    d = gram.shape[0] // 2
    block, _, _ = circulantize(gram, witness)
    gens = generators_from_blockgram(block)
    x0 = pack(CirculantPair(d, gens[0], gens[1]), 0.5)
    return Certificate(
        d=d,
        seed=-1,
        x0=tuple(float(v) for v in x0),
        delta=None,
        delta_eff=None,
        epsilon=None,
        bound_ST_minus_I=0.0,
        bound_T_norm=None,
        bound_f_x0=None,
        f_abs_bound=None,
        lhs_upper=0.0,
        rhs_lower=1.0,
        q_value=None,
        method=METHOD_EXACT,
    )


@dataclass(frozen=True)
class RangeResult:
    """Outcome for one dimension of a certification sweep.  A verified
    dimension carries its certificate; failures keep the sweep alive and
    carry the reason instead."""

    d: int
    certificate: Optional[Certificate]
    failure_reason: Optional[str]
    failure_message: Optional[str]

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


def _certify_dimension(args):
    d, seeds, delta, tol, max_iter = args
    from .solver import solve

    best_residual = math.inf
    reason = None
    message = None
    for seed in seeds:
        result = solve(d, seed=seed, tol=tol, max_iter=max_iter)
        if not result.converged:
            best_residual = min(best_residual, result.residual_inf)
            continue
        try:
            return RangeResult(d, certify(result.pair, delta=delta, seed=seed), None, None)
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
    from .harmonic import family_signature

    for family, q in exact_constructions(d):
        try:
            return RangeResult(d, certify_exact(*family_signature(family, q)), None, None)
        except ToolkitError as exc:
            message += "; exact route via %s q=%d: %s" % (family, q, exc)
    return RangeResult(d, None, reason, message)


def certify_range(d_lo, d_hi, seeds=(0, 1, 2, 3, 4), delta=1e-10, jobs=1,
                  tol=1e-12, max_iter=500):
    """Solve and certify every dimension in [d_lo, d_hi], one RangeResult
    per dimension.  A dimension that no seed certifies by
    Newton-Kantorovich is proved by certify_exact when exact_constructions
    lists a family for it.  Per-dimension failures are recorded in the
    result, never raised, so one bad dimension cannot abort the sweep.
    With jobs > 1 the dimensions are distributed over a process pool of
    at most one worker per dimension."""
    d_lo, d_hi = int(d_lo), int(d_hi)
    if d_lo < 2:
        raise InvalidArgumentError("certification starts at d = 2")
    if d_hi < d_lo:
        return []
    work = [(d, tuple(seeds), delta, tol, max_iter) for d in range(d_lo, d_hi + 1)]
    # the pool starts all its workers at the first submit
    jobs = min(int(jobs), len(work))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_certify_dimension, work))
    return [_certify_dimension(item) for item in work]


def _poly_add(target, key, coeff):
    new = target.get(key, 0.0) + coeff
    if new == 0.0:
        target.pop(key, None)
    else:
        target[key] = new


def _poly_sum(*polys):
    out = {}
    for sign, poly in polys:
        for key, coeff in poly.items():
            _poly_add(out, key, sign * coeff)
    return out


def _poly_mul(pa, pb):
    out = {}
    for ka, ca in pa.items():
        for kb, cb in pb.items():
            _poly_add(out, tuple(sorted(ka + kb)), ca * cb)
    return out


def _residual_polynomials(d):
    """The residual rows as explicit real polynomials in the 4d+1
    variables, keyed by sorted tuples of variable indices."""
    d = int(d)
    a = lambda l: l % d
    b = lambda l: d + l % d
    p = lambda l: 2 * d + l % d
    q = lambda l: 3 * d + l % d
    w_idx = 4 * d

    def corr(f_idx, g_idx, j):
        out = {}
        for m_ in range(d):
            _poly_add(out, tuple(sorted((f_idx(m_), g_idx(m_ + j)))), 1.0)
        return out

    def u_parts(f1, f2, j):
        re = _poly_sum((1.0, corr(f1, f1, j)), (1.0, corr(f2, f2, j)))
        im = _poly_sum((1.0, corr(f2, f1, j)), (-1.0, corr(f1, f2, j)))
        return re, im

    def c_parts(j):
        re = _poly_sum((1.0, corr(p, a, j)), (1.0, corr(q, b, j)))
        im = _poly_sum((1.0, corr(q, a, j)), (-1.0, corr(p, b, j)))
        return re, im

    u = [u_parts(a, b, j) for j in range(d)]
    v = [u_parts(p, q, j) for j in range(d)]
    c = [c_parts(j) for j in range(d)]

    def abs2(parts):
        re, im = parts
        return _poly_sum((1.0, _poly_mul(re, re)), (1.0, _poly_mul(im, im)))

    pivot = abs2(c[0])
    quantity = {
        "u_re": lambda j: u[j][0],
        "v_re": lambda j: v[j][0],
        "s_re": lambda j: _poly_sum((1.0, u[j][0]), (1.0, v[j][0])),
        "s_im": lambda j: _poly_sum((1.0, u[j][1]), (1.0, v[j][1])),
        "mod_u": lambda j: _poly_sum((1.0, abs2(u[j])), (-1.0, pivot)),
        "mod_c": lambda j: _poly_sum((1.0, abs2(c[j])), (-1.0, pivot)),
    }
    rows = [quantity[name](j) for name, j in row_spec(d)]
    for k, constant in enumerate(({(): -1.0}, {(): -1.0}, {(w_idx,): -4.0})):
        rows[k] = _poly_sum((1.0, rows[k]), (1.0, constant))
    return rows


def coefficient_norms(d):
    """Per-row (total degree, coefficient 1-norm) of the residual system,
    from the expanded polynomials."""
    rows = _residual_polynomials(d)
    out = []
    for poly in rows:
        degree = max((len(k) for k in poly), default=0)
        norm = float(sum(abs(cf) for cf in poly.values()))
        out.append((degree, norm))
    return out
