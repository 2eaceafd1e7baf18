"""Directed-rounded interval arithmetic on binary64 endpoints.

Every arithmetic operation evaluates with the hardware's round-to-nearest
and then nudges each endpoint outward by the successor bound of Rump,
Zimmermann, Boldo and Melquiond ("Computing predecessor and successor in
rounding to nearest", BIT 49, 2009):

    _up(a) = fl(a + t),  _down(a) = fl(a - t),  t = fl(fl(|a| phi) + eta),
    phi = u (1 + 2 u),  u = 2^-53,  eta = 2^-1074.

In round-to-nearest _up(a) is succ(a) or succ(succ(a)), and _down(a) is
pred(a) or pred(pred(a)); both equal nextafter except for |a| near the
underflow threshold.  Since round-to-nearest lands within half an ulp of
the exact value, the nudged endpoints bracket it, with no change of the
FPU rounding mode and no branch per element.  The special values map as
nextafter maps them: _up(+inf) = +inf, _up(max) overflows to +inf, and
_up(-inf) = -max, since a hi endpoint that overflowed to -inf stands for
a finite value below -max (mirrored for _down); NaN stays NaN.

Absolute value and negation are exact in binary64 and are not nudged.
Infinities may appear only as the result of overflow; NaN is rejected.

The two matrix reductions do not nudge term by term.  They evaluate in
round-to-nearest, with any summation order, and inflate the result by an
a-priori error bound: iv_matmul is a midpoint-radius product on BLAS
(Rump, "Fast and parallel interval arithmetic", BIT 39, 1999; Rump,
"Fast interval matrix multiplication", Numer. Algorithms 61, 2012) whose
right factor is a float or an interval matrix, the package's one
enclosure of sums of products, and iv_norm_inf sums each row with
np.sum.  Both rest on the classical bound for a length-k dot product
in any order, with or without FMA (Higham, Accuracy and Stability of
Numerical Algorithms, 2nd ed., chapter 3):

    |fl(x . y) - x . y| <= gamma_k |x| . |y| + k eta,
    gamma_k = k u / (1 - k u),  u = 2^-53,  eta = 2^-1074.

The k eta term covers underflow: a product or FMA whose result is
subnormal is off by at most eta / 2 in absolute terms, and each of the
at most k such errors grows by less than a factor 2 through the later
roundings.
Additions alone are exact in the subnormal range, so a sum of m terms
needs only gamma_(m-1).

One rule keeps subnormal operands out of iv_matmul's radius products
without changing the FPU mode: where an entry of the left factor is an
exact point zero (midpoint M = 0 and radius R = 0), R + g |M| and R + |M|
are exactly 0, so 0 is stored there, not the nudged _up(_up(0)) = 2 eta.
Every other entry keeps its outward nudges, so a subnormal operand that
stands for a nonzero bound is never lowered.
"""

import functools

import numpy as np

from .errors import IntervalDivisionError, InvalidArgumentError

_NEG_INF = -np.inf
_POS_INF = np.inf
_MAX = np.finfo(np.float64).max
_UNIT_ROUNDOFF = 2.0 ** -53
_ETA = 2.0 ** -1074  # smallest positive subnormal
_PHI = _UNIT_ROUNDOFF * (1.0 + 2.0 * _UNIT_ROUNDOFF)  # exact in binary64


# In place on the fresh |a| buffer of an array a; numpy scalars are
# rebound.  |a| is capped at max so that a + t keeps the sign of an
# infinite a.  _down forms -t, exactly the negated t in round-to-nearest.

def _down(a):
    t = np.abs(a)
    buf = t if type(t) is np.ndarray else None
    t = np.minimum(t, _MAX, out=buf)
    t *= -_PHI
    t -= _ETA
    t += a
    return np.minimum(t, _MAX, out=buf)


def _up(a):
    t = np.abs(a)
    buf = t if type(t) is np.ndarray else None
    t = np.minimum(t, _MAX, out=buf)
    t *= _PHI
    t += _ETA
    t += a
    return np.maximum(t, -_MAX, out=buf)


# Vectorized endpoint kernels.  All take/return ndarrays (or scalars via
# numpy broadcasting) and are shared by Interval, IntervalMatrix, and the
# certification residual evaluator.

def vadd(alo, ahi, blo, bhi):
    return _down(alo + blo), _up(ahi + bhi)


def vsub(alo, ahi, blo, bhi):
    return _down(alo - bhi), _up(ahi - blo)


def _hull(*ends):
    """The candidate endpoints' [min, max], nudged outward."""
    return _down(functools.reduce(np.minimum, ends)), _up(functools.reduce(np.maximum, ends))


def vmul(alo, ahi, blo, bhi):
    return _hull(alo * blo, alo * bhi, ahi * blo, ahi * bhi)


def vscale(alo, ahi, b):
    """Multiply interval data by a pointwise float array b (exact input)."""
    return _hull(alo * b, ahi * b)


def vdiv(alo, ahi, blo, bhi):
    if np.any((blo <= 0.0) & (bhi >= 0.0)):
        raise IntervalDivisionError("division by an interval containing zero")
    return _hull(alo / blo, alo / bhi, ahi / blo, ahi / bhi)


def vabs(alo, ahi):
    lo = np.where(alo > 0.0, alo, np.where(ahi < 0.0, -ahi, 0.0))
    hi = np.maximum(-alo, ahi)
    return lo, hi


def vsqr(alo, ahi):
    lo_m = np.minimum(np.abs(alo), np.abs(ahi))
    hi_m = np.maximum(np.abs(alo), np.abs(ahi))
    straddles = (alo <= 0.0) & (ahi >= 0.0)
    lo = np.where(straddles, 0.0, np.maximum(_down(lo_m * lo_m), 0.0))
    hi = _up(hi_m * hi_m)
    return lo, hi


def vneg(alo, ahi):
    return -ahi, -alo


def _validate(lo, hi):
    if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
        raise InvalidArgumentError("interval endpoints must not be NaN")
    if np.any(lo > hi):
        raise InvalidArgumentError("interval lower endpoint exceeds upper")


class Interval:
    """A closed real interval [lo, hi] with binary64 endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        if hi is None:
            hi = lo
        lo = float(lo)
        hi = float(hi)
        _validate(lo, hi)
        self.lo = lo
        self.hi = hi

    def __repr__(self):
        return "Interval(%r, %r)" % (self.lo, self.hi)


def _scalar_op(op, a, b):
    """op on the endpoints of a and b, each an Interval or a float."""
    a, b = (x if isinstance(x, Interval) else Interval(float(x)) for x in (a, b))
    lo, hi = op(a.lo, a.hi, b.lo, b.hi)
    return Interval(float(lo), float(hi))


def iv_add(a, b):
    return _scalar_op(vadd, a, b)


def iv_sub(a, b):
    return _scalar_op(vsub, a, b)


def iv_mul(a, b):
    return _scalar_op(vmul, a, b)


def iv_div(a, b):
    return _scalar_op(vdiv, a, b)


class IntervalMatrix:
    """A rectangular matrix of intervals stored as lo/hi endpoint arrays.

    Float arrays are wrapped, not copied, and may be views or one shared
    array (from_point): no code mutates an endpoint array once wrapped.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 2:
            raise InvalidArgumentError("endpoint arrays must share a 2-D shape")
        _validate(lo, hi)
        self.lo = lo
        self.hi = hi

    @classmethod
    def from_point(cls, arr):
        return cls(arr, arr)

    @property
    def shape(self):
        return self.lo.shape

    def mid(self):
        return _mid(self.lo, self.hi)


@functools.lru_cache(maxsize=256)
def _gamma(k):
    """A float upper bound on gamma_k = k u / (1 - k u), cached by k."""
    ku = k * _UNIT_ROUNDOFF  # exact: an integer times a power of two
    if ku >= 0.5:
        raise InvalidArgumentError("reduction length %d is too long for the error bound" % k)
    return float(_up(ku / _down(1.0 - ku)))


def iv_norm_inf(a):
    """Enclosure of the max absolute row sum of an interval matrix.

    The hi endpoint is a certified upper bound for the infinity operator
    norm of every point matrix contained in `a`.  Each row of |a| is summed
    once by np.sum; a sum s of m nonnegative terms computed in any order
    satisfies |fl(s) - s| <= gamma_(m-1) s, so the exact row sum lies in
    [fl(s) (1 - g), fl(s) (1 + 2 g)] for any g >= gamma_m <= 1/2.  The
    nudged products are nondecreasing in fl(s) (each rounding is), so the
    bound of the largest row sum is the largest row bound, bit for bit.
    """
    if not isinstance(a, IntervalMatrix):
        raise InvalidArgumentError("iv_norm_inf expects an IntervalMatrix")
    n, m = a.shape
    if n == 0 or m == 0:
        return Interval(0.0)
    abs_lo, abs_hi = vabs(a.lo, a.hi)
    lo = _down(np.max(np.sum(abs_lo, axis=1)) * _down(1.0 - _gamma(m)))
    return Interval(float(lo), norm_inf_upper(abs_hi))


def norm_inf_upper(a):
    """iv_norm_inf(IntervalMatrix.from_point(a)).hi for a float matrix a,
    bit for bit, from one pass over |a|: a certified upper bound on
    ||a||_inf.  a is not validated; a NaN entry gives NaN, which no
    comparison accepts."""
    n, m = a.shape
    if n == 0 or m == 0:
        return 0.0
    return float(_up(np.max(np.sum(np.abs(a), axis=1)) * _up(1.0 + 2.0 * _gamma(m))))


def _mid(lo, hi):
    """Float midpoint of [lo, hi]: the sum of the halves, which cannot
    overflow, and on a point the point (halving an odd subnormal rounds)."""
    return np.where(lo == hi, hi, 0.5 * lo + 0.5 * hi)


def _mid_rad(lo, hi):
    """Float midpoint M and radius R of [lo, hi], with |x - M| <= R for
    every x in it and R = 0 exactly on point entries."""
    mid = _mid(lo, hi)
    # a float difference rounds to <= 0 only when it is exactly <= 0
    radius = np.maximum(hi - mid, mid - lo)
    return mid, np.where(radius > 0.0, _up(radius), 0.0)


def _radius_operand(mid, radius, g=None):
    """iv_matmul's X >= R + g |M| (Y >= R + |M| when g is None) for the
    midpoint M and radius R of its left factor, nudged upward, and 0
    exactly where M = R = 0, since R + g |M| is exactly 0 there."""
    term = np.abs(mid) if g is None else _up(g * np.abs(mid))
    return np.where((mid == 0.0) & (radius == 0.0), 0.0, _up(radius + term))


def _ends(mid, rad):
    """[mid - rad, mid + rad] nudged outward."""
    return _down(mid - rad), _up(mid + rad)


def iv_matmul(a, b):
    """Product of an interval matrix with a float or interval matrix.

    Midpoint-radius form on BLAS products (Rump 1999, 2012; see the
    module docstring).  With k the inner dimension, g >= gamma_k, M and R
    a float midpoint and radius of `a` (|A - M| <= R for every point
    matrix A in `a`), N and Q those of `b` (Q = 0 for a float `b`) and
    C = fl(M @ N), for every such A and B

        |A B - C| <= R |N| + (R + |M|) Q + gamma_k |M| |N| + k eta
                  <= X |N| + Y Q + k eta,

    where X >= R + g |M| and Y >= R + |M| entrywise are formed with
    outward nudges, except at an exact point zero of `a` (M = R = 0),
    where both are stored as 0: there R + g |M| = R + |M| = 0 exactly.
    So no subnormal 2 eta from nudging a zero enters the BLAS products.
    The nonnegative product P = fl(X @ |N|) has
    |P - X |N|| <= gamma_k X |N| + k eta, so X |N| <= (P + k eta) / (1 - g),
    and likewise Y Q with P' = fl(Y @ Q); the radius

        rad = (P + k eta + P' + k eta) / (1 - g) + k eta,

    each operation nudged upward, bounds |A B - C|.  The P' terms are
    added only when Q has a nonzero entry, so a float or point `b` costs
    two products.  The result is [C - rad, C + rad], nudged outward.
    This holds for any summation order the BLAS chooses, with or without
    FMA, in round-to-nearest (it assumes only that each entry is a sum of
    the k products, not a Strassen-like scheme).  Entries where C or rad
    overflow become [-inf, inf].
    """
    if not isinstance(a, IntervalMatrix):
        raise InvalidArgumentError("iv_matmul expects an IntervalMatrix left factor")
    if not isinstance(b, IntervalMatrix):
        b = np.asarray(b, dtype=float)
    if len(b.shape) != 2 or a.shape[1] != b.shape[0]:
        raise InvalidArgumentError("inner dimensions disagree")
    k = a.shape[1]
    if k == 0:
        return IntervalMatrix.from_point(np.zeros((a.shape[0], b.shape[1])))
    g = _gamma(k)
    under = k * _ETA
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is mapped below
        mid, radius = _mid_rad(a.lo, a.hi)
        b_mid, b_rad = _mid_rad(b.lo, b.hi) if isinstance(b, IntervalMatrix) else (b, 0.0)
        p = _up(_radius_operand(mid, radius, g) @ np.abs(b_mid) + under)
        if np.any(b_rad):
            p = _up(p + _up(_radius_operand(mid, radius) @ b_rad + under))
        rad = _up(_up(p / _down(1.0 - g)) + under)
        c = mid @ b_mid
        lo, hi = _ends(c, rad)
    bad = ~(np.isfinite(c) & np.isfinite(rad))
    lo[bad] = _NEG_INF
    hi[bad] = _POS_INF
    return IntervalMatrix(lo, hi)
