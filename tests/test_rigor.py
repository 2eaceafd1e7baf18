"""Containment tests for the outward-rounded interval kernels.

The oracle is exact rational arithmetic (fractions.Fraction): binary64
endpoints convert to Fraction losslessly, so containment of the exact
rational result in the returned interval is decidable with no tolerance.
"""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from etfforge.errors import IntervalDivisionError, InvalidArgumentError
from etfforge.linalg import op_norm_inf
from etfforge.rigor import (
    Interval,
    IntervalMatrix,
    iv_add,
    iv_div,
    iv_matmul,
    iv_mul,
    iv_norm_inf,
    iv_sub,
    norm_inf_upper,
    vabs,
    vadd,
    vdiv,
    vmul,
    vneg,
    vscale,
    vsqr,
    vsub,
    _down,
    _gamma,
    _mid_rad,
    _radius_operand,
    _up,
)


def _rand_intervals(rng, n, scale=1.0, away_from_zero=False):
    mid = rng.standard_normal(n) * scale
    if away_from_zero:
        mid = np.sign(mid) * (np.abs(mid) + 0.5)
    rad = np.abs(rng.standard_normal(n)) * 1e-3 * scale
    return mid - rad, mid + rad


def _contains(lo, hi, exact):
    # exact is a list of Fractions; endpoints convert losslessly
    for i in range(len(exact)):
        if not (Fraction(float(lo[i])) <= exact[i] <= Fraction(float(hi[i]))):
            return False
    return True


def test_vector_kernels_contain_rational_results():
    rng = np.random.default_rng(2024)
    n = 4000
    alo, ahi = _rand_intervals(rng, n, scale=3.0)
    blo, bhi = _rand_intervals(rng, n, scale=0.7, away_from_zero=True)
    fa_lo = [Fraction(v) for v in alo]
    fa_hi = [Fraction(v) for v in ahi]
    fb_lo = [Fraction(v) for v in blo]
    fb_hi = [Fraction(v) for v in bhi]

    lo, hi = vadd(alo, ahi, blo, bhi)
    assert _contains(lo, hi, [x + y for x, y in zip(fa_lo, fb_lo)])
    assert _contains(lo, hi, [x + y for x, y in zip(fa_hi, fb_hi)])

    lo, hi = vsub(alo, ahi, blo, bhi)
    assert _contains(lo, hi, [x - y for x, y in zip(fa_lo, fb_hi)])
    assert _contains(lo, hi, [x - y for x, y in zip(fa_hi, fb_lo)])

    lo, hi = vmul(alo, ahi, blo, bhi)
    for pick_a, pick_b in [(fa_lo, fb_lo), (fa_lo, fb_hi), (fa_hi, fb_lo), (fa_hi, fb_hi)]:
        assert _contains(lo, hi, [x * y for x, y in zip(pick_a, pick_b)])

    lo, hi = vdiv(alo, ahi, blo, bhi)
    for pick_a, pick_b in [(fa_lo, fb_lo), (fa_lo, fb_hi), (fa_hi, fb_lo), (fa_hi, fb_hi)]:
        assert _contains(lo, hi, [x / y for x, y in zip(pick_a, pick_b)])

    scale = rng.standard_normal(n)
    lo, hi = vscale(alo, ahi, scale)
    fs = [Fraction(v) for v in scale]
    assert _contains(lo, hi, [x * s for x, s in zip(fa_lo, fs)])
    assert _contains(lo, hi, [x * s for x, s in zip(fa_hi, fs)])

    lo, hi = vsqr(alo, ahi)
    assert _contains(lo, hi, [x * x for x in fa_lo])
    assert _contains(lo, hi, [x * x for x in fa_hi])

    lo, hi = vabs(alo, ahi)
    assert _contains(lo, hi, [abs(x) for x in fa_lo])
    assert _contains(lo, hi, [abs(x) for x in fa_hi])

    lo, hi = vneg(alo, ahi)
    assert _contains(lo, hi, [-x for x in fa_lo])
    assert _contains(lo, hi, [-x for x in fa_hi])


def test_interior_points_stay_contained():
    # sample interior points of the operand intervals, not just endpoints
    rng = np.random.default_rng(5)
    n = 1000
    alo, ahi = _rand_intervals(rng, n, scale=2.0)
    blo, bhi = _rand_intervals(rng, n, scale=1.0, away_from_zero=True)
    ta = rng.uniform(size=n)
    tb = rng.uniform(size=n)
    fa = [Fraction(l) + Fraction(t) * (Fraction(h) - Fraction(l))
          for l, h, t in zip(alo, ahi, ta)]
    fb = [Fraction(l) + Fraction(t) * (Fraction(h) - Fraction(l))
          for l, h, t in zip(blo, bhi, tb)]
    lo, hi = vmul(alo, ahi, blo, bhi)
    assert _contains(lo, hi, [x * y for x, y in zip(fa, fb)])
    lo, hi = vdiv(alo, ahi, blo, bhi)
    assert _contains(lo, hi, [x / y for x, y in zip(fa, fb)])
    lo, hi = vsqr(alo, ahi)
    assert _contains(lo, hi, [x * x for x in fa])


def test_vdiv_rejects_zero_straddle():
    with pytest.raises(IntervalDivisionError):
        vdiv(np.array([1.0]), np.array([2.0]), np.array([-0.5]), np.array([0.5]))
    with pytest.raises(IntervalDivisionError):
        iv_div(Interval(1.0), Interval(0.0))


def test_vsqr_straddle_hits_zero():
    lo, hi = vsqr(np.array([-0.5]), np.array([0.25]))
    assert lo[0] == 0.0
    assert hi[0] >= 0.25


def test_point_one_plus_point_two_strictly_encloses():
    s = iv_add(Interval(0.1), Interval(0.2))
    assert s.lo <= 0.1 + 0.2 <= s.hi
    # the exact rational 3/10 is not a binary64 value; the outward nudge
    # must cover it as well
    assert Fraction(s.lo) <= Fraction(3, 10) <= Fraction(s.hi)
    assert s.lo < s.hi


def test_interval_constructor_and_accessors():
    a = Interval(1.0, 2.0)
    assert (a.lo, a.hi) == (1.0, 2.0)
    b = Interval(2.0)
    assert (b.lo, b.hi) == (2.0, 2.0)
    assert repr(a) == "Interval(1.0, 2.0)"
    with pytest.raises(InvalidArgumentError):
        Interval(2.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        Interval(float("nan"))


def test_scalar_wrappers_match_kernels():
    a = Interval(-1.25, 0.5)
    b = Interval(0.25, 0.75)
    for wrapper, kernel in ((iv_add, vadd), (iv_sub, vsub), (iv_mul, vmul), (iv_div, vdiv)):
        out = wrapper(a, b)
        assert (out.lo, out.hi) == kernel(a.lo, a.hi, b.lo, b.hi)
    # plain floats coerce to point intervals
    out = iv_add(2.0, 3.0)
    assert out.lo <= 5.0 <= out.hi


finite = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6
)


@st.composite
def intervals(draw):
    a = draw(finite)
    b = draw(finite)
    return Interval(min(a, b), max(a, b))


@given(intervals(), intervals())
@settings(max_examples=300, deadline=None)
def test_prop_add_contains_exact(a, b):
    out = iv_add(a, b)
    exact = Fraction(a.lo) + Fraction(b.lo)
    assert Fraction(out.lo) <= exact <= Fraction(out.hi)
    exact = Fraction(a.hi) + Fraction(b.hi)
    assert Fraction(out.lo) <= exact <= Fraction(out.hi)


@given(intervals(), intervals())
@settings(max_examples=300, deadline=None)
def test_prop_mul_contains_exact(a, b):
    out = iv_mul(a, b)
    for u in (a.lo, a.hi):
        for v in (b.lo, b.hi):
            exact = Fraction(u) * Fraction(v)
            assert Fraction(out.lo) <= exact <= Fraction(out.hi)


def test_interval_matrix_basics():
    point = np.array([[1.0, -2.0], [0.5, 3.0]])
    a = IntervalMatrix.from_point(point)
    assert a.shape == (2, 2)
    # both endpoints are the point itself, to the bit
    assert np.array_equal(a.lo, point) and np.array_equal(a.hi, point)
    with pytest.raises(InvalidArgumentError):
        IntervalMatrix(np.zeros((2, 2)), np.zeros((3, 2)))
    with pytest.raises(InvalidArgumentError):
        IntervalMatrix.from_point(np.zeros(3))


def test_interval_matrix_refuses_nan_and_reversed_endpoints():
    with pytest.raises(InvalidArgumentError, match="must not be NaN"):
        IntervalMatrix(np.array([[np.nan]]), np.array([[1.0]]))
    with pytest.raises(InvalidArgumentError, match="must not be NaN"):
        IntervalMatrix(np.array([[0.0]]), np.array([[np.nan]]))
    with pytest.raises(InvalidArgumentError, match="lower endpoint exceeds upper"):
        IntervalMatrix(np.array([[0.0, 2.0]]), np.array([[1.0, 1.0]]))


def test_midpoint_of_a_point_is_the_point_without_warnings():
    # 0.5 * (lo + hi) overflows at +-1.7e308 and 0.5 * lo + 0.5 * hi
    # rounds the halves of odd subnormals; a point is its own midpoint
    tiny = np.nextafter(0.0, 1.0)
    points = np.array([1.7e308, np.finfo(float).max, 0.0, tiny, 3 * tiny, 2.2e-308 + tiny])
    points = np.concatenate([points, -points]).reshape(2, -1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mid = IntervalMatrix.from_point(points).mid()
        mid_rad, rad = _mid_rad(points, points)
    for got in (mid, mid_rad):
        assert np.array_equal(got, points) and np.array_equal(np.signbit(got), np.signbit(points))
    assert not np.any(rad)


def test_vsub_on_interval_matrices():
    a = IntervalMatrix(np.array([[1.0, -1.0]]), np.array([[1.5, -0.5]]))
    b = IntervalMatrix.from_point(np.array([[0.25, 0.25]]))
    out = IntervalMatrix(*vsub(a.lo, a.hi, b.lo, b.hi))
    assert out.lo[0, 0] <= 0.75 <= out.hi[0, 0]
    assert out.lo[0, 1] <= -1.25 <= out.hi[0, 1]


def test_iv_norm_inf_point_matrix_known_value():
    m = np.array([[1.0, -2.0], [3.0, 4.0]])
    out = iv_norm_inf(IntervalMatrix.from_point(m))
    assert out.lo <= 7.0 <= out.hi
    assert out.hi - out.lo < 1e-12
    with pytest.raises(InvalidArgumentError):
        iv_norm_inf(m)


def test_iv_norm_inf_dominates_float_norm():
    # certified upper endpoint must dominate the float operator norm
    rng = np.random.default_rng(99)
    for trial in range(100):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        a = rng.standard_normal((n, m)) * 10.0 ** rng.integers(-6, 7)
        iv = iv_norm_inf(IntervalMatrix.from_point(a))
        assert iv.hi >= op_norm_inf(a)


def test_norm_inf_upper_is_iv_norm_inf_hi_bit_for_bit():
    # the nudged bound of the largest row sum is the largest nudged row
    # bound, as _up, _down and rounding are nondecreasing: norm_inf_upper
    # and iv_norm_inf both give the row-by-row bounds' maximum, bit for bit
    rng = np.random.default_rng(26)
    for trial in range(300):
        n, m = (int(v) for v in rng.integers(1, 40, size=2))
        lo_exp = int(rng.integers(-320, 280))
        mid = _log_uniform(rng, (n, m), lo_exp, lo_exp + int(rng.integers(0, 20)))
        mid[rng.random((n, m)) < 0.3] = 0.0
        rad = np.abs(mid) * 10.0 ** rng.uniform(-16, 0, size=(n, m))
        g = _gamma(m)
        for lo, hi in ((mid, mid), (mid - rad, mid + rad)):
            abs_lo, abs_hi = vabs(lo, hi)
            out = iv_norm_inf(IntervalMatrix(lo, hi))
            assert out.lo == np.max(_down(np.sum(abs_lo, axis=1) * _down(1.0 - g)))
            assert out.hi == np.max(_up(np.sum(abs_hi, axis=1) * _up(1.0 + 2.0 * g)))
        assert norm_inf_upper(mid) == iv_norm_inf(IntervalMatrix.from_point(mid)).hi
    assert norm_inf_upper(np.zeros((0, 3))) == 0.0


def test_iv_matmul_contains_rational_product():
    rng = np.random.default_rng(42)
    a_mid = rng.standard_normal((3, 4))
    rad = np.abs(rng.standard_normal((3, 4))) * 1e-5
    a = IntervalMatrix(a_mid - rad, a_mid + rad)
    b = rng.standard_normal((4, 5))
    out = iv_matmul(a, b)
    fb = [[Fraction(b[i, j]) for j in range(5)] for i in range(4)]
    for grid in (a.lo, a.hi, a_mid):
        fg = [[Fraction(float(grid[i, j])) for j in range(4)] for i in range(3)]
        for i in range(3):
            for j in range(5):
                exact = sum(fg[i][k] * fb[k][j] for k in range(4))
                assert Fraction(out.lo[i, j]) <= exact <= Fraction(out.hi[i, j])
    with pytest.raises(InvalidArgumentError):
        iv_matmul(a, rng.standard_normal((3, 3)))
    with pytest.raises(InvalidArgumentError):
        iv_matmul(a_mid, b)


def _log_uniform(rng, shape, lo_exp, hi_exp):
    signs = rng.choice([-1.0, 1.0], size=shape)
    return signs * 10.0 ** rng.uniform(lo_exp, hi_exp, size=shape)


def _exact_hull(lo, hi, b):
    """Exact rational hull of {A b : lo <= A <= hi} entrywise."""
    n, k = lo.shape
    m = b.shape[1]
    flo = [[Fraction(float(v)) for v in row] for row in lo]
    fhi = [[Fraction(float(v)) for v in row] for row in hi]
    fb = [[Fraction(float(v)) for v in row] for row in b]
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            ends = [(flo[i][t] * fb[t][j], fhi[i][t] * fb[t][j]) for t in range(k)]
            row.append((sum(min(e) for e in ends), sum(max(e) for e in ends)))
        out.append(row)
    return out


@pytest.mark.parametrize("k", [1, 7, 64, 400])
def test_iv_matmul_encloses_exact_product_across_magnitudes(k):
    # entries span 1e-200..1e200; the 1e-200 x 1e-200 products underflow,
    # and the second case puts every product in the subnormal range
    rng = np.random.default_rng(1000 + k)
    cases = [
        (_log_uniform(rng, (3, k), -200, 200), _log_uniform(rng, (k, 4), -200, 100)),
        (_log_uniform(rng, (3, k), -162, -155), _log_uniform(rng, (k, 4), -162, -155)),
    ]
    for mid, b in cases:
        rad = np.abs(mid) * 10.0 ** rng.uniform(-16, -3, size=mid.shape)
        rad[0] = 0.0  # one row of point entries inside an interval factor
        for lo, hi in ((mid, mid), (mid - rad, mid + rad)):
            out = iv_matmul(IntervalMatrix(lo, hi), b)
            hull = _exact_hull(lo, hi, b)
            for i in range(3):
                for j in range(4):
                    lo_x, hi_x = hull[i][j]
                    assert Fraction(out.lo[i, j]) <= lo_x
                    assert hi_x <= Fraction(out.hi[i, j])


def _exact_interval_hull(a_lo, a_hi, b_lo, b_hi):
    """Exact rational hull of {A B : a_lo <= A <= a_hi, b_lo <= B <= b_hi}
    entrywise: per term, the extreme corner products."""
    fa = [[(Fraction(float(l)), Fraction(float(h))) for l, h in zip(*rows)]
          for rows in zip(a_lo, a_hi)]
    fb = [[(Fraction(float(l)), Fraction(float(h))) for l, h in zip(*rows)]
          for rows in zip(b_lo, b_hi)]
    out = []
    for row in fa:
        hull = []
        for j in range(len(fb[0])):
            corners = [[x * y for x in ends for y in fb[t][j]] for t, ends in enumerate(row)]
            hull.append((sum(min(c) for c in corners), sum(max(c) for c in corners)))
        out.append(hull)
    return out


@pytest.mark.parametrize("k", [1, 5, 64])
def test_iv_matmul_encloses_interval_right_factors(k):
    # mixed signs with some entries straddling zero, a row of `a` and a
    # column of `b` of zero radius, magnitudes near 1e-300 and 1e300
    # (products overflow or underflow) and subnormal entries
    rng = np.random.default_rng(2000 + k)
    cases = [
        (rng.standard_normal((3, k)), rng.standard_normal((k, 4))),
        (_log_uniform(rng, (3, k), -300, 300), _log_uniform(rng, (k, 4), -300, 5)),
        (_log_uniform(rng, (3, k), -300, -290), _log_uniform(rng, (k, 4), -30, -20)),
        (_log_uniform(rng, (3, k), -323, -309), _log_uniform(rng, (k, 4), -2, 2)),
    ]
    for a_mid, b_mid in cases:
        a_rad = np.abs(a_mid) * 10.0 ** rng.uniform(-16, 0.5, size=a_mid.shape)
        b_rad = np.abs(b_mid) * 10.0 ** rng.uniform(-16, 0.5, size=b_mid.shape)
        a_rad[0] = 0.0
        b_rad[:, 0] = 0.0
        a = IntervalMatrix(a_mid - a_rad, a_mid + a_rad)
        b = IntervalMatrix(b_mid - b_rad, b_mid + b_rad)
        out = iv_matmul(a, b)
        hull = _exact_interval_hull(a.lo, a.hi, b.lo, b.hi)
        for i in range(3):
            for j in range(4):
                lo_x, hi_x = hull[i][j]
                assert Fraction(out.lo[i, j]) <= lo_x
                assert hi_x <= Fraction(out.hi[i, j])
        # a point right factor is the float product, bit for bit
        point = iv_matmul(a, IntervalMatrix.from_point(b_mid))
        plain = iv_matmul(a, b_mid)
        assert np.array_equal(point.lo, plain.lo) and np.array_equal(point.hi, plain.hi)


def test_iv_matmul_is_tight_and_maps_overflow_to_the_real_line():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((5, 300))
    b = rng.standard_normal((300, 6))
    out = iv_matmul(IntervalMatrix.from_point(a), b)
    assert np.all(out.hi - out.lo <= 1e-12 * (np.abs(a) @ np.abs(b)))
    big = IntervalMatrix.from_point(np.full((1, 2), 1e200))
    out = iv_matmul(big, np.array([[1e200], [1.0]]))
    assert out.lo[0, 0] == -np.inf and out.hi[0, 0] == np.inf


_SUBNORMAL = st.integers(-2 ** 52 + 1, 2 ** 52 - 1).map(lambda m: m * 2.0 ** -1074)
_ENTRY = st.one_of(finite, _SUBNORMAL, st.just(0.0))


def _ends(pair):
    return min(pair), max(pair)


# left-factor entries: exact point zeros (either sign of zero), nonzero
# and subnormal points, intervals symmetric about zero (midpoint 0 with a
# radius), general and subnormal intervals
_LEFT_ENTRY = st.one_of(
    st.sampled_from([(0.0, 0.0), (-0.0, -0.0)]),
    _ENTRY.map(lambda v: (v, v)),
    finite.map(lambda v: (-abs(v), abs(v))),
    st.tuples(finite, finite).map(_ends),
    st.tuples(_SUBNORMAL, _SUBNORMAL).map(_ends),
)


@st.composite
def _interval_factor(draw, entry, n, k, zero_lines):
    """(lo, hi) of an n x k factor from `entry`; with zero_lines, maybe a
    row and maybe a column of exact point zeros."""
    ends = np.array(draw(st.lists(entry, min_size=n * k, max_size=n * k)), dtype=float)
    lo, hi = ends[:, 0].reshape(n, k).copy(), ends[:, 1].reshape(n, k).copy()
    if zero_lines:
        for axis, size in ((0, n), (1, k)):
            line = draw(st.none() | st.integers(0, size - 1))
            if line is not None:
                index = (line, slice(None)) if axis == 0 else (slice(None), line)
                lo[index] = hi[index] = 0.0
    return lo, hi


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_iv_matmul_encloses_products_with_point_zeros(data):
    n, k, m = (data.draw(st.integers(1, size)) for size in (3, 5, 3))
    lo, hi = data.draw(_interval_factor(_LEFT_ENTRY, n, k, True))
    if data.draw(st.booleans()):
        b_lo, b_hi = data.draw(_interval_factor(st.tuples(_ENTRY, _ENTRY).map(_ends), k, m, True))
        b = IntervalMatrix(b_lo, b_hi)
    else:
        b = b_lo = b_hi = data.draw(_interval_factor(_ENTRY.map(lambda v: (v, v)), k, m, True))[0]
    out = iv_matmul(IntervalMatrix(lo, hi), b)
    for i, row in enumerate(_exact_interval_hull(lo, hi, b_lo, b_hi)):
        for j, (lo_x, hi_x) in enumerate(row):
            assert Fraction(out.lo[i, j]) <= lo_x and hi_x <= Fraction(out.hi[i, j])
    # the radius operands X >= R + g |M| and Y >= R + |M| hold 0, not a
    # subnormal 2 eta, exactly at the point zeros of the left factor
    mid, rad = _mid_rad(lo, hi)
    point_zero = (lo == 0.0) & (hi == 0.0)
    for g in (_gamma(k), None):
        operand = _radius_operand(mid, rad, g)
        assert np.all(operand[point_zero] == 0.0)
        scale = Fraction(1) if g is None else Fraction(g)
        for x, r, c in zip(operand.ravel(), rad.ravel(), mid.ravel()):
            assert Fraction(float(x)) >= Fraction(float(r)) + scale * abs(Fraction(float(c)))


def test_iv_norm_inf_encloses_exact_row_sums():
    rng = np.random.default_rng(11)
    mid = _log_uniform(rng, (4, 1000), -20, 20)
    rad = np.abs(mid) * 1e-3
    out = iv_norm_inf(IntervalMatrix(mid - rad, mid + rad))
    upper = max(sum(Fraction(float(max(abs(l), abs(h)))) for l, h in zip(lo, hi))
                for lo, hi in zip(mid - rad, mid + rad))
    lower = max(sum(Fraction(float(min(abs(l), abs(h)))) for l, h in zip(lo, hi))
                for lo, hi in zip(mid - rad, mid + rad))
    assert Fraction(out.lo) <= lower and upper <= Fraction(out.hi)
    assert out.hi <= float(upper) * (1 + 1e-12)


# --- the outward nudge -------------------------------------------------

_MAX = np.finfo(np.float64).max
_TINY = np.finfo(np.float64).tiny  # smallest normal
_SUB = 2.0 ** -1074  # smallest subnormal
_POWERS_OF_TWO = np.ldexp(1.0, np.arange(-1074, 1024))
_SPECIAL = [0.0, -0.0, _SUB, -_SUB, 2 * _SUB, 3 * _SUB, _TINY, -_TINY,
            _TINY - _SUB, _TINY + _SUB, 1.0, -1.0, _MAX, -_MAX,
            float(np.nextafter(_MAX, 0.0)), np.inf, -np.inf, np.nan]


@st.composite
def _power_of_two_or_neighbour(draw):
    x = float(_POWERS_OF_TWO[draw(st.integers(0, len(_POWERS_OF_TWO) - 1))])
    x = float(np.nextafter(x, draw(st.sampled_from((0.0, x, np.inf)))))
    return -x if draw(st.booleans()) else x


every_float = st.one_of(
    st.sampled_from(_SPECIAL),
    st.integers(1, 2 ** 52 - 1).map(lambda m: m * _SUB),  # subnormals
    _power_of_two_or_neighbour(),
    st.floats(),  # every class, NaN and infinities included
)


def _nudge_brackets(a):
    """Elementwise: nextafter(a) <= _up(a) <= nextafter^2(a), the mirror
    for _down, NaN kept where a is NaN, and the input left unchanged."""
    a = np.asarray(a, dtype=float)
    before = a.copy()
    with np.errstate(over="ignore"):
        up, down = _up(a), _down(a)
        up1 = np.nextafter(a, np.inf)
        down1 = np.nextafter(a, -np.inf)
        up2, down2 = np.nextafter(up1, np.inf), np.nextafter(down1, -np.inf)
    nan = np.isnan(a)
    assert np.array_equal(np.isnan(up), nan) and np.array_equal(np.isnan(down), nan)
    assert np.all((up1 <= up) & (up <= up2) | nan)
    assert np.all((down2 <= down) & (down <= down1) | nan)
    assert np.array_equal(a, before, equal_nan=True)


@given(st.lists(every_float, min_size=1, max_size=40))
@example([0.0])
@example([1.0])
@example([-np.inf, np.nan, np.inf])
@settings(max_examples=600, deadline=None)
def test_nudge_lies_between_one_and_two_ulps_out(values):
    a = np.array(values)
    _nudge_brackets(a)
    with np.errstate(over="ignore"):
        up, down, up_array = _up(values[0]), _down(values[0]), _up(a)
    # a Python float in gives a numpy scalar out, as np.nextafter does
    assert type(up) is np.float64 and type(down) is np.float64
    assert np.array_equal(up, up_array[0], equal_nan=True)


def test_nudge_brackets_every_power_of_two_and_its_neighbours():
    p = _POWERS_OF_TWO
    near = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])
    _nudge_brackets(np.concatenate([near, -near, _SPECIAL]))


def test_nudge_maps_special_values_as_nextafter_does():
    # a hi endpoint that overflowed to -inf stands for a finite value
    # below -max, so its upper bound is -max (and the mirror for lo)
    assert _up(-np.inf) == -_MAX and _down(np.inf) == _MAX
    assert _up(np.inf) == np.inf and _down(-np.inf) == -np.inf
    with np.errstate(over="ignore"):
        assert _up(_MAX) == np.inf and _down(-_MAX) == -np.inf
    assert _up(0.0) == _SUB and _down(-0.0) == -_SUB
    assert np.isnan(_up(np.nan)) and np.isnan(_down(np.nan))
    for x in (0.5, np.float64(0.5), np.array(0.5), 3):
        assert type(_up(x)) is np.float64 and type(_down(x)) is np.float64
    a = np.array([-np.inf, np.nan, np.inf])
    assert np.array_equal(_up(a), [-_MAX, np.nan, np.inf], equal_nan=True)
    assert np.array_equal(_down(a), [-np.inf, np.nan, _MAX], equal_nan=True)


# --- the kernels at the extremes of binary64 -----------------------------

# signed zeros, subnormals (products and quotients of these underflow),
# the smallest normal, magnitudes whose products overflow, and max
_EXTREMES = np.array(
    [0.0, _SUB, 3 * _SUB, 2.0 ** -1060, 2.0 ** -1030, _TINY, 1e-200, 1e-160,
     0.75, 1.0, 3.0, 1e160, 1e200, 2.0 ** 1000, _MAX / 3.0, _MAX]
)


def _extreme_intervals(rng, n, nonzero=False):
    """n intervals with endpoints drawn from +-_EXTREMES (-0.0 included)."""
    pool = _EXTREMES[1:] if nonzero else _EXTREMES
    mag = pool[rng.integers(0, len(pool), size=(2, n))]
    if nonzero:  # both endpoints of one sign: a valid divisor
        sign = rng.choice([-1.0, 1.0], size=n)
        ends = np.sort(mag * sign, axis=0)
    else:
        ends = np.sort(mag * rng.choice([-1.0, 1.0], size=(2, n)), axis=0)
    return ends[0], ends[1]


def _check_enclosure(lo, hi, exact_lo, exact_hi):
    """[lo, hi] holds the exact range [exact_lo, exact_hi].  An exact
    endpoint past +-max must come out as +-inf on its side; the other
    endpoint must still bound the exact value."""
    for i in range(len(exact_lo)):
        l, h = float(lo[i]), float(hi[i])
        assert l == l and h == h and l != np.inf and h != -np.inf
        if exact_lo[i] < -Fraction(_MAX):
            assert l == -np.inf
        assert l == -np.inf or Fraction(l) <= exact_lo[i]
        if exact_hi[i] > Fraction(_MAX):
            assert h == np.inf
        assert h == np.inf or exact_hi[i] <= Fraction(h)


def _fractions(x):
    return [Fraction(float(v)) for v in x]


def _corners(fa_lo, fa_hi, fb_lo, fb_hi, op):
    lo, hi = [], []
    for ends in zip(fa_lo, fa_hi, fb_lo, fb_hi):
        c = [op(x, y) for x in ends[:2] for y in ends[2:]]
        lo.append(min(c))
        hi.append(max(c))
    return lo, hi


def test_kernels_enclose_exact_results_at_the_extremes():
    rng = np.random.default_rng(17)
    n = 1500
    alo, ahi = _extreme_intervals(rng, n)
    blo, bhi = _extreme_intervals(rng, n)
    dlo, dhi = _extreme_intervals(rng, n, nonzero=True)
    b = blo  # a pointwise factor for vscale
    fa_lo, fa_hi = _fractions(alo), _fractions(ahi)
    fb_lo, fb_hi = _fractions(blo), _fractions(bhi)
    fd_lo, fd_hi = _fractions(dlo), _fractions(dhi)
    with np.errstate(over="ignore", under="ignore"):
        out_add = vadd(alo, ahi, blo, bhi)
        out_sub = vsub(alo, ahi, blo, bhi)
        out_mul = vmul(alo, ahi, blo, bhi)
        out_scale = vscale(alo, ahi, b)
        out_div = vdiv(alo, ahi, dlo, dhi)
        out_sqr = vsqr(alo, ahi)
    _check_enclosure(*out_add, [x + y for x, y in zip(fa_lo, fb_lo)],
                     [x + y for x, y in zip(fa_hi, fb_hi)])
    _check_enclosure(*out_sub, [x - y for x, y in zip(fa_lo, fb_hi)],
                     [x - y for x, y in zip(fa_hi, fb_lo)])
    mul_lo, mul_hi = _corners(fa_lo, fa_hi, fb_lo, fb_hi, lambda x, y: x * y)
    _check_enclosure(*out_mul, mul_lo, mul_hi)
    scale_lo, scale_hi = _corners(fa_lo, fa_hi, fb_lo, fb_lo, lambda x, y: x * y)
    _check_enclosure(*out_scale, scale_lo, scale_hi)
    div_lo, div_hi = _corners(fa_lo, fa_hi, fd_lo, fd_hi, lambda x, y: x / y)
    _check_enclosure(*out_div, div_lo, div_hi)
    sqr_lo = [Fraction(0) if l <= 0 <= h else min(l * l, h * h) for l, h in zip(fa_lo, fa_hi)]
    sqr_hi = [max(l * l, h * h) for l, h in zip(fa_lo, fa_hi)]
    _check_enclosure(*out_sqr, sqr_lo, sqr_hi)
    # the draw reaches both ends of the range: exact products that
    # underflow to zero or a subnormal, and sums and products past max
    big, tiny = Fraction(_MAX), Fraction(_TINY)
    assert any(0 < abs(x) < tiny for x in mul_lo + mul_hi + div_lo + div_hi + sqr_hi)
    assert any(abs(x) > big for x in mul_lo + mul_hi + div_lo + div_hi)
    assert any(abs(x + y) > big for x, y in zip(fa_hi, fb_hi))
    assert np.any((alo == 0.0) & np.signbit(alo)) and np.any((ahi == 0.0) & ~np.signbit(ahi))
