import hashlib
import json
import math
import os
import subprocess
import sys
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import etfforge
from etfforge import certify as certify_module
from etfforge.certify import (
    Certificate,
    RangeResult,
    certify,
    certify_exact,
    certify_range,
    coefficient_norms,
    epsilon_search,
    exact_constructions,
    f_eval_interval,
    secant_jacobian,
    _residual_polynomials,
)
from etfforge.errors import CertificationError, InvalidArgumentError
from etfforge.frames import CirculantPair, assemble_2circulant, check_etf
from etfforge.harmonic import AutomorphismWitness, family_signature
from etfforge.rigor import Interval, iv_add, iv_div, iv_mul, iv_sub
from etfforge.serialize import dumps
from etfforge.solver import analytic_jacobian, residual, residual_count, solve


def _pack(pair, w):
    return np.concatenate(
        [pair.x.real, pair.x.imag, pair.y.real, pair.y.imag, [w]]
    )


def test_f_eval_interval_point_matches_float_residual():
    for d in [2, 3, 5, 8]:
        result = solve(d)
        x0 = _pack(result.pair, 0.5)
        lo, hi = f_eval_interval((x0, x0), d)
        assert lo.shape == (residual_count(d),)
        r = residual(result.pair, 0.5)
        # narrow enclosures around the float evaluation
        assert np.all(lo <= r + 1e-11)
        assert np.all(r - 1e-11 <= hi)
        assert np.max(hi - lo) < 1e-11
        assert np.max(np.maximum(np.abs(lo), np.abs(hi))) < 1e-10


def test_f_eval_interval_zero_vector():
    d = 3
    z = np.zeros(4 * d + 1)
    lo, hi = f_eval_interval((z, z), d)
    # norm rows enclose -1, the pinned tightness row encloses 0, all with
    # only the outward ulp nudges as slack
    for k, target in [(0, -1.0), (1, -1.0), (2, 0.0)]:
        assert lo[k] <= target <= hi[k]
        assert hi[k] - lo[k] < 1e-15
    with pytest.raises(InvalidArgumentError):
        f_eval_interval((z[:-1], z[:-1]), d)


def test_f_eval_interval_contains_samples_in_box():
    rng = np.random.default_rng(21)
    d = 4
    mid = rng.standard_normal(4 * d + 1) * 0.4
    rad = np.abs(rng.standard_normal(4 * d + 1)) * 1e-6
    lo, hi = f_eval_interval((mid - rad, mid + rad), d)
    for _ in range(50):
        pt = mid + (2.0 * rng.uniform(size=mid.shape) - 1.0) * rad
        pair = CirculantPair(
            d, pt[0:d] + 1j * pt[d : 2 * d], pt[2 * d : 3 * d] + 1j * pt[3 * d : 4 * d]
        )
        r = residual(pair, pt[4 * d])
        assert np.all(lo <= r) and np.all(r <= hi)


def test_f_eval_interval_widths_shrink_with_input():
    rng = np.random.default_rng(22)
    d = 3
    mid = rng.standard_normal(4 * d + 1) * 0.3
    rad = np.abs(rng.standard_normal(4 * d + 1)) * 1e-5
    lo1, hi1 = f_eval_interval((mid - rad, mid + rad), d)
    lo2, hi2 = f_eval_interval((mid - rad / 2, mid + rad / 2), d)
    assert np.all((hi2 - lo2) <= (hi1 - lo1) + 1e-15)


def test_secant_jacobian_encloses_exact_quadratic_secant():
    # row 0 is sum a_l^2 + b_l^2 - 1: its secant in a_0 is exactly
    # 2 a_0 + step, computable in rational arithmetic
    d = 2
    x0 = np.zeros(4 * d + 1)
    x0[0] = 1.0
    x0[4 * d] = 0.5
    delta = 1e-10
    s, step_max = secant_jacobian(x0, delta, d)
    step = (1.0 + delta) - 1.0  # the representable step actually taken
    exact = 2 * Fraction(1) + Fraction(step)
    ent = s.entry(0, 0)
    assert Fraction(ent.lo) <= exact <= Fraction(ent.hi)
    assert step_max >= step
    with pytest.raises(InvalidArgumentError):
        secant_jacobian(x0, 0.0, d)
    with pytest.raises(InvalidArgumentError):
        secant_jacobian(x0[:-1], delta, d)


def test_secant_midpoint_near_analytic_jacobian():
    result = solve(3)
    x0 = _pack(result.pair, 0.5)
    s, _ = secant_jacobian(x0, 1e-10, 3)
    jac = analytic_jacobian(result.pair, 0.5)
    assert np.max(np.abs(s.mid() - jac)) <= 1e-5
    assert np.max(s.width()) <= 1e-4


def test_certify_d2_verified():
    result = solve(2)
    cert = certify(result.pair, delta=1e-10, seed=0)
    assert cert.verified
    assert cert.d == 2
    assert cert.kernel_dim == 3
    assert cert.rows == 6 and cert.variables == 9
    assert cert.epsilon > 0.0
    assert max(abs(v) for v in cert.x0) + cert.epsilon <= 1.0
    assert cert.lhs_upper < cert.rhs_lower
    assert cert.q_value < 0.0
    obj = cert.to_obj()
    assert obj["kind"] == "certificate"
    assert obj["verified"] is True


def test_certify_d5_verified_kernel_dim():
    result = solve(5)
    cert = certify(result.pair, delta=1e-10, seed=0)
    assert cert.verified
    assert cert.kernel_dim == 8  # 21 variables - 13 rows
    assert cert.bound_f_x0 <= 1e-10


def test_certify_rejects_big_point():
    pair = CirculantPair(2, np.array([2.0, 0.0]), np.array([0.0, 1.0]))
    with pytest.raises(CertificationError) as err:
        certify(pair)
    assert err.value.reason == "infeasible"
    with pytest.raises(InvalidArgumentError):
        certify(np.zeros(9))


def test_certify_rejects_corrupted_point():
    result = solve(3)
    x = result.pair.x.copy()
    x[0] += 1e-2
    with pytest.raises(CertificationError) as err:
        certify(CirculantPair(3, x, result.pair.y))
    assert err.value.reason == "infeasible"


def test_certificate_survives_one_ulp_widening():
    # soundness stress: bump every certified bound by one ulp outward and
    # re-evaluate the inequality; it must still hold strictly
    result = solve(3)
    cert = certify(result.pair, delta=1e-10, seed=0)
    up = lambda v: float(np.nextafter(v, np.inf))
    a = Interval(up(cert.bound_ST_minus_I))
    bt = Interval(up(cert.bound_T_norm))
    c0 = Interval(up(cert.bound_f_x0))
    dtil_half = iv_mul(Interval(0.5), Interval(up(cert.delta_eff)))
    big_b = iv_mul(Interval(12.0 * cert.f_abs_bound), bt)
    eps = Interval(cert.epsilon)
    lhs = iv_add(a, iv_mul(iv_add(dtil_half, eps), big_b))
    rhs = iv_sub(Interval(1.0), iv_div(iv_mul(bt, c0), eps))
    assert lhs.hi < rhs.lo


def test_certificate_monotone_in_residual_bound():
    # a smaller residual bound C0 only raises the right side
    result = solve(3)
    cert = certify(result.pair, delta=1e-10, seed=0)
    bt = Interval(cert.bound_T_norm)
    smaller_c0 = Interval(cert.bound_f_x0 / 2.0)
    eps = Interval(cert.epsilon)
    rhs2 = iv_sub(Interval(1.0), iv_div(iv_mul(bt, smaller_c0), eps))
    assert cert.lhs_upper < rhs2.lo
    assert rhs2.lo >= cert.rhs_lower - 1e-15


def test_certify_range_empty_and_bad_args():
    assert certify_range(5, 4) == []
    with pytest.raises(InvalidArgumentError):
        certify_range(1, 3)


def test_certify_range_2_to_3():
    results = certify_range(2, 3)
    assert [r.d for r in results] == [2, 3]
    for r in results:
        assert isinstance(r, RangeResult)
        assert r.verified
        assert isinstance(r.certificate, Certificate)
        assert r.failure_reason is None
        obj = r.to_obj()
        assert obj["kind"] == "range_result"
        assert obj["certificate"]["d"] == r.d


def test_certify_range_records_d4_failure_without_aborting(monkeypatch):
    # Newton-Kantorovich alone still cannot prove d=4: every zero there is
    # singular beyond the gauge kernel
    with pytest.raises(CertificationError) as err:
        certify(solve(4).pair)
    assert err.value.reason in ("infeasible", "rank")
    # the sweep proves it by the exact route instead
    by_d = {r.d: r for r in certify_range(3, 5)}
    assert by_d[3].verified and by_d[5].verified
    assert by_d[4].verified
    assert by_d[4].certificate.method == "exact-construction"
    # a dimension with no Gaussian-integer construction that NK fails is
    # recorded as unverified, and the sweep continues past it
    real_certify = certify_module.certify

    def certify_failing_at_11(pair, **kwargs):
        if pair.d == 11:
            raise CertificationError("infeasible", "injected failure at d=11")
        return real_certify(pair, **kwargs)

    monkeypatch.setattr(certify_module, "certify", certify_failing_at_11)
    by_d = {r.d: r for r in certify_range(10, 12)}
    assert by_d[10].verified and by_d[12].verified
    assert not by_d[11].verified
    assert by_d[11].certificate is None
    assert by_d[11].failure_reason == "infeasible"
    assert by_d[11].failure_message


def test_sweep_message_names_the_line_system_cap(monkeypatch):
    # exact_constructions lists paley_plus at q = 1997 for d = 999, past
    # the cap; the LM solve is replaced by a miss, so no solve runs
    assert exact_constructions(999) == [("paley_plus", 1997)]
    monkeypatch.setattr("etfforge.solver.solve",
                        lambda d, **kw: types.SimpleNamespace(converged=False, residual_inf=0.5))
    result = certify_module._certify_dimension((999, (0,), 1e-10, 1e-12, 500))
    assert not result.verified and result.failure_reason == "no-convergence"
    assert "exact route via paley_plus q=1997" in result.failure_message
    assert "line-system cap q^2 <= 10^6" in result.failure_message


def test_certify_range_parallel_matches_serial():
    serial = certify_range(2, 4, jobs=1)
    parallel = certify_range(2, 4, jobs=2)
    assert [r.to_obj() for r in serial] == [r.to_obj() for r in parallel]
    # the d=4 row comes from the exact route and is byte-identical too
    assert serial[2].certificate.method == "exact-construction"
    assert dumps(serial[2].to_obj()) == dumps(parallel[2].to_obj())


def _frame_of_x0(cert):
    x0 = np.asarray(cert.x0)
    d = cert.d
    return assemble_2circulant(
        CirculantPair(d, x0[:d] + 1j * x0[d : 2 * d], x0[2 * d : 3 * d] + 1j * x0[3 * d : 4 * d])
    )


@pytest.mark.parametrize("family, q", [("paley_plus", 7), ("double_paley_plus", 3)])
def test_certify_exact_proves_d4_from_both_families(family, q):
    assert (family, q) in exact_constructions(4)
    cert = certify_exact(*family_signature(family, q))
    assert cert.verified and cert.method == "exact-construction"
    assert cert.d == 4 and cert.seed == -1
    assert cert.kernel_dim == 6 and cert.rows == 11 and cert.variables == 17
    assert cert.lhs_upper == 0.0 == cert.bound_ST_minus_I
    assert cert.rhs_lower == 1.0
    assert cert.epsilon is None and cert.delta is None and cert.q_value is None
    assert check_etf(_frame_of_x0(cert), tol=1e-10).verdict
    obj = cert.to_obj()
    assert obj["method"] == "exact-construction" and obj["epsilon"] is None


def test_certify_exact_refuses_flipped_signature_entry():
    re, im, witness = family_signature("paley_plus", 7)  # S = i C
    assert im[0, 1] != 0
    im = im.copy()
    im[0, 1] = -im[0, 1]
    with pytest.raises(CertificationError) as err:
        certify_exact(re, im, witness)
    assert err.value.reason == "infeasible"


def test_certify_exact_refuses_entries_where_abs_wraps():
    # np.abs(-2^63) is -2^63, so |re| + |im| alone would pass this diagonal
    re, im, witness = family_signature("paley_plus", 7)
    re, im = re.copy(), im.copy()
    re[2, 2] = im[2, 2] = np.iinfo(np.int64).min
    with pytest.raises(CertificationError, match="entries in"):
        certify_exact(re, im, witness)


def test_certify_exact_refuses_negated_witness_scalar():
    re, im, witness = family_signature("double_paley_plus", 3)
    c = witness.c.copy()
    c[0] = -c[0]
    with pytest.raises(CertificationError) as err:
        certify_exact(re, im, AutomorphismWitness(sigma=witness.sigma, c=c))
    assert err.value.reason == "infeasible"
    assert "witness identity" in str(err.value)


LISTED_CONSTRUCTIONS = [(d, family, q) for d in range(2, 31)
                        for family, q in exact_constructions(d)]


def test_exact_constructions_cover_2_to_30_but_four():
    assert len(LISTED_CONSTRUCTIONS) == 32
    assert {d for d, _, _ in LISTED_CONSTRUCTIONS} == set(range(2, 31)) - {11, 17, 23, 29}


@pytest.mark.parametrize("d, family, q", LISTED_CONSTRUCTIONS + [
    (41, "paley_plus", 81),
    (82, "double_paley_plus", 81),
    (122, "paley_plus", 243),
    (126, "double_paley_plus", 125),
])
def test_certify_exact_proves_every_listed_construction(d, family, q):
    # q runs over prime fields, GF(25), GF(27) and GF(49), then GF(3^4),
    # GF(3^5) and GF(5^3), whose line systems live in GF(q^2)
    assert (family, q) in exact_constructions(d)
    cert = certify_exact(*family_signature(family, q))
    assert cert.verified and cert.method == "exact-construction"
    assert (cert.d, cert.kernel_dim) == (d, 4 * d + 1 - residual_count(d))


def test_certify_exact_has_no_construction_at_d11():
    assert exact_constructions(11) == []


@pytest.mark.parametrize("d", [2, 3, 5, 6, 8])
def test_certify_exact_agrees_with_newton_kantorovich(d):
    nk = certify(solve(d).pair, seed=0)
    assert nk.verified and nk.method == "newton-kantorovich"
    routes = exact_constructions(d)
    assert routes
    for family, q in routes:
        cert = certify_exact(*family_signature(family, q))
        assert cert.verified
        assert (cert.kernel_dim, cert.rows, cert.variables) == (
            nk.kernel_dim, nk.rows, nk.variables)
        assert check_etf(_frame_of_x0(cert), tol=1e-10).verdict


@pytest.mark.parametrize("d", list(range(2, 11)))
def test_coefficient_norms_within_stated_bound(d):
    norms = coefficient_norms(d)
    assert len(norms) == residual_count(d)
    for degree, norm in norms:
        assert degree <= 4
        assert norm <= 16.0 * d * d


def test_residual_polynomials_evaluate_to_residual():
    rng = np.random.default_rng(31)
    for d in [2, 3, 5]:
        polys = _residual_polynomials(d)
        vec = rng.standard_normal(4 * d + 1)
        pair = CirculantPair(
            d,
            vec[0:d] + 1j * vec[d : 2 * d],
            vec[2 * d : 3 * d] + 1j * vec[3 * d : 4 * d],
        )
        r = residual(pair, vec[4 * d])
        for row, poly in enumerate(polys):
            val = 0.0
            for key, coeff in poly.items():
                term = coeff
                for idx in key:
                    term *= vec[idx]
                val += term
            assert abs(val - r[row]) < 1e-9


def _exact_residual(vec, d):
    """solver.residual in exact rational arithmetic, from a packed point
    of Fractions."""
    x = [(vec[m], vec[d + m]) for m in range(d)]
    y = [(vec[2 * d + m], vec[3 * d + m]) for m in range(d)]

    def corr(s, t, j):  # sum_m s_m conj(t_(m+j))
        re = sum(s[m][0] * t[(m + j) % d][0] + s[m][1] * t[(m + j) % d][1] for m in range(d))
        im = sum(s[m][1] * t[(m + j) % d][0] - s[m][0] * t[(m + j) % d][1] for m in range(d))
        return re, im

    u = [corr(x, x, j) for j in range(d)]
    v = [corr(y, y, j) for j in range(d)]
    c = [corr(y, x, j) for j in range(d)]
    rows = [u[0][0] - 1, v[0][0] - 1, u[0][0] + v[0][0] - 4 * vec[4 * d]]
    for j in range(1, (d + 1) // 2):
        rows += [u[j][0] + v[j][0], u[j][1] + v[j][1]]
    if d % 2 == 0:
        rows.append(u[d // 2][0] + v[d // 2][0])
    pivot = c[0][0] ** 2 + c[0][1] ** 2
    rows += [u[j][0] ** 2 + u[j][1] ** 2 - pivot for j in range(1, d // 2 + 1)]
    rows += [c[j][0] ** 2 + c[j][1] ** 2 - pivot for j in range(1, d)]
    return rows


@pytest.mark.parametrize("d", list(range(2, 10)))
def test_residual_layout_matches_exact_reference(d):
    # _exact_residual writes the layout out by hand, so this checks the
    # row spec that residual, analytic_jacobian, f_eval_interval and
    # _residual_polynomials all share against an independent copy
    rng = np.random.default_rng(700 + d)
    for _ in range(3):
        vec = rng.standard_normal(4 * d + 1) * 0.4
        vec[4 * d] = rng.uniform(-1.0, 1.0)
        pair = CirculantPair(d, vec[:d] + 1j * vec[d:2 * d], vec[2 * d:3 * d] + 1j * vec[3 * d:4 * d])
        rows = residual(pair, vec[4 * d])
        exact = _exact_residual([Fraction(float(v)) for v in vec], d)
        assert len(rows) == len(exact) == residual_count(d)
        for got, want in zip(rows, exact):
            assert abs(Fraction(float(got)) - want) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_secant_jacobian_contains_exact_rational_secant(d):
    delta = 1e-10
    rng = np.random.default_rng(500 + d)
    n_var = 4 * d + 1
    x0 = rng.standard_normal(n_var) * 0.4
    picks = rng.permutation(n_var)
    x0[picks[:2]] = 0.0
    # 0 < |x0_l| < delta: here fl(x0_l + delta) - x0_l is often inexact
    x0[picks[2:5]] = rng.choice([-1.0, 1.0], size=3) * delta * rng.uniform(0.01, 1.0, size=3)
    s, step_max = secant_jacobian(x0, delta, d)
    steps = (x0 + delta) - x0
    assert step_max == np.max(steps)
    assert np.max(s.width()) <= 1e-12
    base = [Fraction(float(v)) for v in x0]
    f0 = _exact_residual(base, d)
    for col in range(n_var):
        h = Fraction(float(steps[col]))
        moved = list(base)
        moved[col] += h
        f1 = _exact_residual(moved, d)
        for row, (a, b) in enumerate(zip(f1, f0)):
            assert Fraction(s.lo[row, col]) <= (a - b) / h <= Fraction(s.hi[row, col])


@pytest.mark.parametrize("d", [100, 150])
def test_certify_verifies_large_dimensions(d):
    result = solve(d, seed=0)
    assert result.converged
    cert = certify(result.pair, seed=0)
    assert cert.verified and cert.method == "newton-kantorovich"
    assert cert.bound_ST_minus_I < 1e-6
    assert cert.lhs_upper < cert.rhs_lower


# sha256 of the outputs below as the per-correlation enclosure (twelve
# separate products and folds, u, v and c enclosed twice per certify)
# produced them; the stacked single enclosure must round every endpoint
# exactly as it did.
PINNED_CERTIFY_OUTPUTS = "d35e90547398dfb96f8318a1d104e167fa7513af6de2097f8e63fa872cf68dec"


def _certify_outputs_digest():
    h = hashlib.sha256()
    for d in range(2, 13):
        try:
            obj = certify(solve(d, seed=0).pair).to_obj()
        except CertificationError as exc:  # d = 4: NK cannot close
            obj = {"reason": exc.reason, "detail": exc.detail}
        h.update(json.dumps(obj, sort_keys=True).encode())
    for d in (3, 8, 30):
        x0 = _pack(solve(d, seed=0).pair, 0.5)
        s_mat, step = secant_jacobian(x0, 1e-10, d)
        h.update(s_mat.lo.tobytes())
        h.update(s_mat.hi.tobytes())
        h.update(np.float64(step).tobytes())
        center = np.random.default_rng(d).uniform(-0.5, 0.5, 4 * d + 1)
        lo, hi = f_eval_interval((center - 1e-6, center + 1e-6), d)
        h.update(lo.tobytes())
        h.update(hi.tobytes())
    return h.hexdigest()


def test_certify_outputs_match_pinned_digest():
    # The pin was taken with BLAS on two threads, and solve(30) returns
    # other bits on one (its dense LM step), so the digest is computed in
    # a fresh interpreter on two threads, whatever this one runs with.
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(etfforge.__file__)))
    path = [src_dir, tests_dir, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p),
               OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2", MKL_NUM_THREADS="2")
    script = "import test_certify; print(test_certify._certify_outputs_digest())"
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == PINNED_CERTIFY_OUTPUTS


def test_certify_encloses_u_v_c_once(monkeypatch):
    calls = []
    enclose = certify_module._correlations_interval

    def counted(*args):
        calls.append(args[2])
        return enclose(*args)

    monkeypatch.setattr(certify_module, "_correlations_interval", counted)
    pair = solve(5, seed=0).pair
    assert certify(pair).verified
    assert calls == [5]


def _scalar_epsilon_search(a, bt, c0, delta_eff, norm_x0, f_abs):
    """The epsilon search as a loop over scalar Intervals, kept as the
    oracle for epsilon_search: (eps, lhs.hi, rhs.lo, Q(eps).hi) for the
    first candidate that proves, else the best gap."""
    cap = 1.0 - norm_x0
    a_bound, bt, c0, de = Interval(a), Interval(bt), Interval(c0), Interval(delta_eff)
    reach = iv_add(Interval(norm_x0), de)
    base = Interval(max(1.0, reach.hi))
    dtil = iv_mul(de, iv_mul(base, base))
    big_b = iv_mul(Interval(12.0 * f_abs), bt)
    half_dtil = iv_mul(Interval(0.5), dtil)
    lin = iv_sub(iv_add(a_bound, iv_mul(half_dtil, big_b)), Interval(1.0))
    const = iv_mul(bt, c0)
    candidates = []
    if big_b.hi > 0 and lin.hi < 0:
        vertex = -lin.hi / (2.0 * big_b.hi)
        if 0.0 < vertex <= cap:
            candidates.append(vertex)
    candidates.extend(float(e) for e in np.geomspace(1e-13, cap, 32))
    best_gap = math.inf
    for eps in candidates:
        if not 0.0 < eps <= cap:
            continue
        if iv_add(Interval(norm_x0), Interval(eps)).hi > 1.0:
            continue
        e = Interval(eps)
        lhs = iv_add(a_bound, iv_mul(iv_add(half_dtil, e), big_b))
        rhs = iv_sub(Interval(1.0), iv_div(const, e))
        best_gap = min(best_gap, lhs.hi - rhs.lo)
        if lhs.hi < rhs.lo:
            q = iv_add(iv_add(iv_mul(big_b, iv_mul(e, e)), iv_mul(lin, e)), const)
            return eps, lhs.hi, rhs.lo, q.hi
    return best_gap


def _log_floats(lo_exp, hi_exp):
    return st.builds(lambda m, k: m * 10.0 ** k, st.floats(1.0, 10.0), st.integers(lo_exp, hi_exp))


@settings(max_examples=300, deadline=None)
@given(
    a=st.one_of(_log_floats(-16, -1), st.floats(0.0, 2.0)),
    bt=_log_floats(-6, 4),
    c0=st.one_of(st.just(0.0), _log_floats(-18, 0)),
    delta_eff=_log_floats(-17, -1),
    norm_x0=st.floats(0.0, 1.0, exclude_max=True),
    d=st.integers(2, 400),
)
@example(a=1e-10, bt=10.0, c0=1e-13, delta_eff=1e-10, norm_x0=0.5, d=5)  # proves at the vertex
@example(a=1e-10, bt=1e-6, c0=1e-13, delta_eff=1e-10, norm_x0=0.5, d=2)  # vertex > cap
@example(a=1.5, bt=10.0, c0=1e-13, delta_eff=1e-10, norm_x0=0.5, d=5)  # lin >= 0
@example(a=1e-10, bt=10.0, c0=1.0, delta_eff=1e-10, norm_x0=0.5, d=5)  # infeasible
def test_epsilon_search_matches_the_scalar_loop(a, bt, c0, delta_eff, norm_x0, d):
    f_abs = float(16 * d * d)
    want = _scalar_epsilon_search(a, bt, c0, delta_eff, norm_x0, f_abs)
    if isinstance(want, tuple):
        assert epsilon_search(a, bt, c0, delta_eff, norm_x0, f_abs) == want
        assert want[1] < want[2]
    else:
        with pytest.raises(CertificationError) as err:
            epsilon_search(a, bt, c0, delta_eff, norm_x0, f_abs)
        assert err.value.reason == "infeasible" and err.value.detail == want


def test_certify_range_starts_at_most_one_worker_per_dimension(monkeypatch):
    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(certify_module, "ProcessPoolExecutor", InProcessPool)
    results = certify_range(2, 3, seeds=(0,), jobs=5000)
    assert started == [2]
    assert [(r.d, r.verified) for r in results] == [(2, True), (3, True)]
    # one dimension runs in-process, without a pool
    assert certify_range(2, 2, seeds=(0,), jobs=5000)[0].verified
    assert started == [2]
