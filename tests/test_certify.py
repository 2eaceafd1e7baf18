import hashlib
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import types
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import etfforge
from etfforge import certify as certify_module
from etfforge import rigor as rigor_module
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
from etfforge.rigor import (
    Interval,
    IntervalMatrix,
    _ends,
    _mid_rad,
    iv_add,
    iv_div,
    iv_mul,
    iv_sub,
    vadd,
    vmul,
    vscale,
    vsqr,
    vsub,
)
from etfforge.serialize import dumps
from etfforge.solver import (
    analytic_jacobian,
    gather_rows,
    residual,
    residual_count,
    row_spec,
    solve,
    unpack,
)


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
    mid, rad = s.mid_rad()
    step = (1.0 + delta) - 1.0  # the representable step actually taken
    exact = 2 * Fraction(1) + Fraction(step)
    assert abs(exact - Fraction(mid[0, 0])) <= rad[0, 0]
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
    assert np.max(s.hi - s.lo) <= 1e-4


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


def test_certify_factors_s_mid_without_an_svd(monkeypatch):
    # the QR that builds T also decides the rank of S_mid
    pair = solve(5, seed=0).pair

    def no_svd(*args, **kwargs):
        raise AssertionError("certify ran an SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    assert certify(pair, seed=0).verified


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


def test_a_failed_right_inverse_is_a_rank_refusal(monkeypatch):
    # a T that misses S_mid T = I by more than 1e-8 is refused with reason
    # "rank", in certify and as a recorded row of a sweep
    exact_inv = np.linalg.inv  # pseudoinverse's R^-1; nothing else here calls it
    monkeypatch.setattr(np.linalg, "inv", lambda r: exact_inv(r) * (1.0 + 1e-6))
    with pytest.raises(CertificationError) as err:
        certify(solve(2, seed=0).pair)
    assert err.value.reason == "rank"
    assert "right inverse residual" in str(err.value)
    monkeypatch.setattr(certify_module, "exact_constructions", lambda d: [])
    results = certify_range(2, 3)
    assert [(r.d, r.verified, r.failure_reason) for r in results] == [
        (2, False, "rank"), (3, False, "rank")]
    assert all("right inverse residual" in r.failure_message for r in results)


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


def _pair_of_x0(cert):
    x0 = np.asarray(cert.x0)
    d = cert.d
    return CirculantPair(d, x0[:d] + 1j * x0[d : 2 * d], x0[2 * d : 3 * d] + 1j * x0[3 * d : 4 * d])


def _frame_of_x0(cert):
    return assemble_2circulant(_pair_of_x0(cert))


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


CERTIFICATE_KEYS = [
    "kind", "method", "d", "seed", "x0", "delta", "delta_eff", "epsilon",
    "bound_ST_minus_I", "bound_T_norm", "bound_f_x0", "f_abs_bound", "lhs_upper",
    "rhs_lower", "q_value", "kernel_dim", "rows", "variables", "verified",
]
# sha256 of dumps(certify_exact(*family_signature("paley_plus", 7)).to_obj()),
# key order included (PINNED_CERTIFY_OUTPUTS sorts the keys)
EXACT_D4_CERTIFICATE = "c328ca1f60e0961e16e5d7b643e88f629239edfc9ac01e495db1b7ba8e66d85b"


def test_certificate_json_keeps_its_key_order():
    nk = certify(solve(3, seed=0).pair, seed=0)
    exact = certify_exact(*family_signature("paley_plus", 7))
    assert list(nk.to_obj()) == CERTIFICATE_KEYS
    assert list(exact.to_obj()) == CERTIFICATE_KEYS
    digest = hashlib.sha256(dumps(exact.to_obj()).encode()).hexdigest()
    assert digest == EXACT_D4_CERTIFICATE


def _count_routes(monkeypatch, nk_fails=lambda pair, seed: False, exact_refuses=False):
    """Counting wrappers on the sweep's three routes: the LM solve, the NK
    certify (failing where nk_fails(pair, seed) says) and certify_exact
    (refusing when exact_refuses).  Returns the counts and the message of
    the last NK refusal."""
    calls = {"solve": 0, "certify": 0, "exact": 0, "nk_message": None}
    real_certify, real_exact = certify_module.certify, certify_module.certify_exact

    def counted_solve(d, **kwargs):
        calls["solve"] += 1
        return solve(d, **kwargs)

    def counted_certify(pair, **kwargs):
        calls["certify"] += 1
        try:
            if nk_fails(pair, kwargs["seed"]):
                raise CertificationError("infeasible", "injected at seed %d" % kwargs["seed"])
            return real_certify(pair, **kwargs)
        except CertificationError as exc:
            calls["nk_message"] = str(exc)
            raise

    def counted_exact(*args):
        calls["exact"] += 1
        if exact_refuses:
            raise CertificationError("infeasible", "injected exact refusal")
        return real_exact(*args)

    monkeypatch.setattr("etfforge.solver.solve", counted_solve)
    monkeypatch.setattr(certify_module, "certify", counted_certify)
    monkeypatch.setattr(certify_module, "certify_exact", counted_exact)
    return calls


def test_sweep_proves_d4_exactly_after_its_first_failed_seed(monkeypatch):
    # NK fails at d = 4 for every seed, so the exact route runs after
    # seed 0 and its proof ends the search
    calls = _count_routes(monkeypatch)
    (result,) = certify_range(4, 4)
    assert (calls["solve"], calls["certify"], calls["exact"]) == (1, 1, 1)
    assert result.verified and result.certificate.method == "exact-construction"
    digest = hashlib.sha256(dumps(result.certificate.to_obj()).encode()).hexdigest()
    assert digest == EXACT_D4_CERTIFICATE
    # with no seeds to try, the exact route still runs
    (result,) = certify_range(4, 4, seeds=())
    assert (calls["solve"], calls["certify"], calls["exact"]) == (1, 1, 2)
    assert result.verified and result.certificate.method == "exact-construction"


def test_sweep_tries_the_other_seeds_when_the_exact_route_refuses(monkeypatch):
    # d = 3 is witnessed (paley_plus q = 5); with its exact route refused
    # and seed 0 failing NK, seed 1's NK certificate proves it
    calls = _count_routes(monkeypatch, nk_fails=lambda pair, seed: seed == 0,
                          exact_refuses=True)
    (result,) = certify_range(3, 3)
    assert (calls["solve"], calls["certify"], calls["exact"]) == (2, 2, 1)
    assert result.verified and result.certificate.method != "exact-construction"
    assert result.certificate.seed == 1
    # where nothing proves a witnessed d, all five seeds run, the exact
    # route once per family, and the message is the last NK refusal
    # followed by each family's refusal
    calls = _count_routes(monkeypatch, exact_refuses=True)
    (result,) = certify_range(4, 4)
    assert (calls["solve"], calls["certify"], calls["exact"]) == (5, 5, 2)
    assert not result.verified and result.failure_reason in ("infeasible", "rank")
    assert result.failure_message == calls["nk_message"] + (
        "; exact route via paley_plus q=7: injected exact refusal"
        "; exact route via double_paley_plus q=3: injected exact refusal")


def test_sweep_tries_every_seed_at_an_unwitnessed_d(monkeypatch):
    assert exact_constructions(11) == []
    calls = _count_routes(monkeypatch, nk_fails=lambda pair, seed: True)
    (result,) = certify_range(11, 11)
    assert (calls["solve"], calls["certify"], calls["exact"]) == (5, 5, 0)
    assert result.failure_reason == "infeasible"
    assert result.failure_message == "injected at seed 4"


def test_certify_range_lists_no_work_up_front(monkeypatch):
    # the dimensions are drawn from the range one at a time: a sweep of
    # 10^6 dimensions stopped at its first holds no list of them
    class Stop(Exception):
        pass

    def stop(args):
        raise Stop

    monkeypatch.setattr(certify_module, "_certify_dimension", stop)
    tracemalloc.start()
    try:
        with pytest.raises(Stop):
            certify_range(2, 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


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
    (242, "double_paley_plus", 241),
    (250, "paley_plus", 499),
])
def test_certify_exact_proves_every_listed_construction(d, family, q):
    # q runs over prime fields, GF(25), GF(27) and GF(49), then GF(3^4),
    # GF(3^5) and GF(5^3), whose line systems live in GF(q^2)
    assert (family, q) in exact_constructions(d)
    cert = certify_exact(*family_signature(family, q))
    assert cert.verified and cert.method == "exact-construction"
    assert (cert.d, cert.kernel_dim) == (d, 4 * d + 1 - residual_count(d))


@pytest.mark.parametrize("d, family, q", [(500, "double_paley_plus", 499),
                                           (499, "paley_plus", 997)])
def test_certify_exact_proves_a_large_q_sample_of_each_family(d, family, q):
    # about 0.5 s each for family_signature and certify_exact on one
    # thread of a 2-vCPU VM; the host's speed drifts by tens of per cent,
    # so no time is asserted
    cert = certify_exact(*family_signature(family, q))
    assert cert.verified and cert.d == d
    assert check_etf(_frame_of_x0(cert), tol=1e-8).verdict


def test_certify_exact_runs_no_float_recheck_of_its_proved_witness(monkeypatch):
    import etfforge.harmonic as harmonic

    def refuse(*args):
        raise AssertionError("verify_automorphism re-ran after the exact proof")

    monkeypatch.setattr(harmonic, "verify_automorphism", refuse)
    assert certify_exact(*family_signature("double_paley_plus", 13)).verified


def test_certify_refuses_the_singular_exact_point_at_d7():
    # the exact route's point is a singular zero for Newton-Kantorovich:
    # min |R_ii| of S_mid's QR falls below 1e-8 max |R_ii|
    cert = certify_exact(*family_signature("paley_plus", 13))
    assert cert.d == 7
    with pytest.raises(CertificationError) as err:
        certify(_pair_of_x0(cert), w=cert.x0[-1])
    assert err.value.reason == "rank"
    assert 0.0 < err.value.detail < 1e-9


_RANK_PREFIX = "secant Jacobian midpoint is numerically rank deficient: "


def _secant_mid(pair, w=0.5):
    x0 = _pack(pair, w)
    return secant_jacobian(x0, 1e-10, pair.d)[0]


@pytest.mark.parametrize("family, q", [("double_paley_plus", 3), ("paley_plus", 13)])
def test_certify_refusal_text_at_a_singular_exact_point(family, q):
    # the QR guard refuses S_mid; the min and max |R_ii| in the text are
    # read off the same R diagonal, whose bits depend on the BLAS build
    cert = certify_exact(*family_signature(family, q))
    pair, w = _pair_of_x0(cert), cert.x0[-1]
    diag = np.abs(np.diagonal(np.linalg.qr(_secant_mid(pair, w).mid().T)[1]))
    with pytest.raises(CertificationError) as err:
        certify(pair, w=w)
    assert err.value.reason == "rank"
    assert err.value.detail == float(diag.min())
    assert str(err.value) == _RANK_PREFIX + (
        "matrix is rank deficient (min |R_ii| %.3e, max |R_ii| %.3e)" % (diag.min(), diag.max()))


def test_certify_refusal_text_when_delta_cannot_move_x0():
    pair = solve(11, seed=0).pair
    x0 = _pack(pair, 0.5)
    coordinate = int(np.argmax((x0 + 1e-17) - x0 <= 0.0))
    with pytest.raises(CertificationError) as err:
        certify(pair, delta=1e-17)
    assert err.value.reason == "infeasible"
    assert err.value.detail is None
    assert str(err.value) == (
        "delta 1.000e-17 is too small to move x0: secant step vanished at coordinate %d"
        % coordinate)


def test_certify_refusal_text_when_the_right_inverse_misses_identity(monkeypatch):
    pair = solve(2, seed=0).pair
    exact_inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda r: exact_inv(r) * (1.0 + 1e-6))
    s = _secant_mid(pair)
    t, r_min = certify_module.pseudoinverse(s.mid())
    st = certify_module.iv_matmul(s, t)
    eye = np.eye(st.shape[0])
    residual = float(np.max(np.abs(IntervalMatrix(*vsub(st.lo, st.hi, eye, eye)).mid())))
    with pytest.raises(CertificationError) as err:
        certify(pair)
    assert err.value.reason == "rank"
    assert err.value.detail == r_min
    assert str(err.value) == _RANK_PREFIX + (
        "right inverse residual %.3e exceeds 1e-8 (min |R_ii| %.3e)" % (residual, r_min))


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_right_inverse_bound_holds_in_rational_arithmetic(d):
    # A bounds ||S' T - I||_inf, computed in Fractions, for S' the midpoint
    # M of S and corners of [M - R, M + R]: one whose signs raise each
    # row's sum of |S' T - I| to first order, and two at random.  A bound
    # that drops S's radius fails at every corner.  A is also no larger
    # than the endpoint form it replaced: S's nudged ends, their interval
    # product with T, minus I, and that enclosure's row-sum bound.
    s, _ = secant_jacobian(_pack(solve(d, seed=0).pair, 0.5), 1e-10, d)
    mid, rad = s.mid_rad()
    t, a_bound = certify_module.right_inverse(s)
    st = certify_module.iv_matmul(IntervalMatrix(s.lo, s.hi), t)
    eye = np.eye(st.shape[0])
    assert a_bound <= certify_module.iv_norm_inf(IntervalMatrix(*vsub(st.lo, st.hi, eye, eye))).hi
    rng = np.random.default_rng(d)
    push = np.sign(np.sign(mid @ t - eye) @ t.T)
    t_q = _fractions(t)
    for signs in (np.zeros(mid.shape), push, *rng.choice([-1.0, 1.0], (2, *mid.shape))):
        corner = _fractions(mid) + signs.astype(int).astype(object) * _fractions(rad)
        defect = corner @ t_q
        defect[np.diag_indices_from(defect)] -= 1
        assert max(sum(map(abs, row)) for row in defect) <= a_bound


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


# sha256 over repr(coefficient_norms(d)) and repr(sorted(row.items())) for
# every row of _residual_polynomials(d), d = 2..10, from the dict-polynomial
# expansion the Counter one replaced
COEFFICIENT_AUDIT_DIGEST = "8814c2b78d48af4ba53bed97e514c669a623a149d23b1d48c0eaaa933524f746"


def test_coefficient_audit_is_pinned():
    digest = hashlib.sha256()
    for d in range(2, 11):
        digest.update(repr(coefficient_norms(d)).encode())
        for row in _residual_polynomials(d):
            digest.update(repr(sorted(row.items())).encode())
    assert digest.hexdigest() == COEFFICIENT_AUDIT_DIGEST


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


def _exact_uvc(vec, d):
    """u, v and c in exact rational arithmetic, from a packed point of
    Fractions: one (re, im) pair per lag for each."""
    x = [(vec[m], vec[d + m]) for m in range(d)]
    y = [(vec[2 * d + m], vec[3 * d + m]) for m in range(d)]

    def corr(s, t, j):  # sum_m s_m conj(t_(m+j))
        re = sum(s[m][0] * t[(m + j) % d][0] + s[m][1] * t[(m + j) % d][1] for m in range(d))
        im = sum(s[m][1] * t[(m + j) % d][0] - s[m][0] * t[(m + j) % d][1] for m in range(d))
        return re, im

    return tuple([corr(f, g, j) for j in range(d)] for f, g in ((x, x), (y, y), (y, x)))


def _exact_residual(vec, d):
    """solver.residual in exact rational arithmetic, from a packed point
    of Fractions."""
    u, v, c = _exact_uvc(vec, d)
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


def _degenerate_point(d, delta=1e-10):
    """A packed point with two exact zeros and three entries of modulus
    below delta, where fl(x0_l + delta) - x0_l is often inexact and sums
    can cancel to zero."""
    rng = np.random.default_rng(500 + d)
    x0 = rng.standard_normal(4 * d + 1) * 0.4
    picks = rng.permutation(4 * d + 1)
    x0[picks[:2]] = 0.0
    x0[picks[2:5]] = rng.choice([-1.0, 1.0], size=3) * delta * rng.uniform(0.01, 1.0, size=3)
    return x0


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
def test_secant_jacobian_contains_exact_rational_secant(d):
    delta = 1e-10
    for x0 in (_degenerate_point(d, delta), _pack(solve(d, seed=0).pair, 0.5)):
        n_var = 4 * d + 1
        s, step_max = secant_jacobian(x0, delta, d)
        mid, rad = s.mid_rad()
        steps = (x0 + delta) - x0
        assert step_max == np.max(steps)
        assert 2.0 * np.max(rad) <= 1e-12
        base = [Fraction(float(v)) for v in x0]
        f0 = _exact_residual(base, d)
        for col in range(n_var):
            h = Fraction(float(steps[col]))
            moved = list(base)
            moved[col] += h
            f1 = _exact_residual(moved, d)
            for row, (a, b) in enumerate(zip(f1, f0)):
                assert abs((a - b) / h - Fraction(mid[row, col])) <= rad[row, col]


def _fractions(a):
    """An object array of the exact values of a float array."""
    return np.frompyfunc(Fraction, 1, 1)(a)


def _closed_form_secant(x0, delta, d, u_at, c_at):
    """The secant Jacobian's closed form in exact rational arithmetic, with
    u and c at x0 replaced by the points u_at and c_at (an (re, im) pair
    of Fractions per lag): the changes D of u, v and c are exact
    difference quotients, and a modulus row is 2 Re(conj(z) D) + h |D|^2
    at the given z.  Any enclosure of u and c that holds the two points
    gives an S that holds this matrix."""
    base = [Fraction(float(v)) for v in x0]
    at_x0 = _exact_uvc(base, d)
    steps = (x0 + delta) - x0
    out = np.empty((residual_count(d), 4 * d + 1), dtype=object)
    out[:, 4 * d] = [Fraction(-4 if row == 2 else 0) for row in range(residual_count(d))]
    for col in range(4 * d):
        h = Fraction(float(steps[col]))
        moved = list(base)
        moved[col] += h
        du, dv, dc = ([((a[0] - b[0]) / h, (a[1] - b[1]) / h) for a, b in zip(q1, q0)]
                      for q1, q0 in zip(_exact_uvc(moved, d), at_x0))

        def slope(z, dz):
            return 2 * (z[0] * dz[0] + z[1] * dz[1]) + h * (dz[0] ** 2 + dz[1] ** 2)

        pivot = slope(c_at[0], dc[0])
        quantity = {
            "u_re": lambda j: du[j][0],
            "v_re": lambda j: dv[j][0],
            "s_re": lambda j: du[j][0] + dv[j][0],
            "s_im": lambda j: du[j][1] + dv[j][1],
            "mod_u": lambda j: slope(u_at[j], du[j]) - pivot,
            "mod_c": lambda j: slope(c_at[j], dc[j]) - pivot,
        }
        out[:, col] = [quantity[name](j) for name, j in row_spec(d)]
    return out


@pytest.mark.parametrize("radius", [0.0, 1e-9])
def test_secant_jacobian_encloses_the_slope_at_every_point_of_uvc(radius):
    # u and c are free parameters of secant_jacobian: S must hold the
    # closed form for every u and c in the enclosure it is given.  A point
    # enclosure (radius 0) of full-mantissa floats leaves only the
    # rounding of the midpoints, so dropping the gamma_k rounding bound
    # fails here; corners of a wide enclosure fail when c's or u's radius
    # is dropped.
    d, delta = 5, 1e-10
    rng = np.random.default_rng(29)
    x0 = rng.standard_normal(4 * d + 1) * 0.4
    mids = rng.uniform(-1.0, 1.0, (3, 2, d))
    ends = (mids, mids) if radius == 0.0 else (mids - radius, mids + radius)
    uvc = tuple(tuple(_mid_rad(ends[0][k, p], ends[1][k, p]) for p in range(2)) for k in range(3))
    mid, rad = secant_jacobian(x0, delta, d, uvc)[0].mid_rad()
    mid, rad = _fractions(mid), rad.astype(object)
    for _ in range(3):
        pick = rng.integers(0, 2, (3, 2, d))  # a corner of the box per entry
        corner = np.where(pick == 0, ends[0], ends[1])
        u_at, _, c_at = ([(Fraction(float(z[0, j])), Fraction(float(z[1, j]))) for j in range(d)]
                         for z in corner)
        exact = _closed_form_secant(x0, delta, d, u_at, c_at)
        assert np.all(np.abs(exact - mid) <= rad)


def test_secant_jacobian_nudges_at_most_half_the_elements_it_did(monkeypatch):
    # Counts the elements passed to rigor's _up and _down during one
    # secant_jacobian at d = 30.  Formed in endpoint arithmetic, with a
    # nudge after every operation, S (9196 entries) took 108720; the
    # midpoint-radius form nudges each block's radius once, 9734, and
    # forms no ends of S (24614 when it did).  A count, not a time, so it
    # cannot flake.
    d = 30
    x0 = _pack(solve(d, seed=0).pair, 0.5)
    uvc = certify_module._correlations_interval(x0, x0, d)
    count = [0]

    def counted(fn):
        def wrapper(a):
            count[0] += np.size(a)
            return fn(a)
        return wrapper

    for module in (rigor_module, certify_module):  # certify binds its own names
        for name in ("_up", "_down"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(getattr(module, name)))
    secant_jacobian(x0, 1e-10, d, uvc)
    assert 0 < count[0] <= 108720 // 2


@pytest.mark.parametrize("d", [100, 150])
def test_certify_verifies_large_dimensions(d):
    result = solve(d, seed=0)
    assert result.converged
    cert = certify(result.pair, seed=0)
    assert cert.verified and cert.method == "newton-kantorovich"
    assert cert.bound_ST_minus_I < 1e-6
    assert cert.lhs_upper < cert.rhs_lower


def test_every_dimension_up_to_165_is_proved():
    # the paper's theorem: a d x 2d ETF of two circulant blocks exists for
    # every d <= 165.  Every d in 2..165 is proved, by Newton-Kantorovich
    # but d = 4, which only the exact route proves.  Verdicts and methods
    # only: solve's bits move with the BLAS thread count from d = 39.  The
    # README's table and smallest margin are read off this same run.
    results = certify_range(2, 165)
    assert [r.d for r in results] == list(range(2, 166))
    assert all(r.verified for r in results)
    methods = {r.d: r.certificate.method for r in results}
    assert methods == {d: "exact-construction" if d == 4 else "newton-kantorovich"
                       for d in range(2, 166)}
    margin, at = min((r.certificate.rhs_lower - r.certificate.lhs_upper, r.d)
                     for r in results if r.d != 4)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    table = dict(re.findall(r"^\| `(newton-kantorovich|exact-construction)` \| (\d+) ", readme, re.M))
    assert table == {"newton-kantorovich": "163", "exact-construction": "1"}
    assert ("smallest margin rhs_lower - lhs_upper is %.3f, at d = %d" % (margin, at)
            in " ".join(readme.split()))


# sha256 of certify's outputs at d = 2..12: each Certificate.to_obj(), or
# the CertificationError reason and detail.  Re-pinned when u, v and c
# were kept as midpoints and radii from their product to S and C0: A,
# B_T, C0, eps, lhs_upper and the d = 4 gap move in the last digits; no
# verdict moved.
PINNED_CERTIFICATES = "be7768fc2ef6e87f158f2172d96d400d347089553108fcd1509f8b8203748d88"
# sha256 of the secant_jacobian midpoint and radius bytes at d = 3, 8 and
# 30 and of f_eval_interval boxes, with u, v and c enclosed by one
# midpoint-radius product (rigor._mid_rad_product), S's blocks each a float
# midpoint with one nudged a-priori radius and S's structural zeros exact
# points (radius 0); any change to how a radius or an endpoint is rounded
# moves it.
PINNED_SECANT_AND_BOXES = "f38862a42fc1f0fdb288583ee71b6367ae9a62a1afb670472361af5d93038b3f"


def _certify_outputs_digests():
    """(certificates digest, S-and-boxes digest), as pinned above."""
    certs, boxes = hashlib.sha256(), hashlib.sha256()
    for d in range(2, 13):
        try:
            obj = certify(solve(d, seed=0).pair).to_obj()
        except CertificationError as exc:  # d = 4: NK cannot close
            obj = {"reason": exc.reason, "detail": exc.detail}
        certs.update(json.dumps(obj, sort_keys=True).encode())
    for d in (3, 8, 30):
        x0 = _pack(solve(d, seed=0).pair, 0.5)
        s_mat, step = secant_jacobian(x0, 1e-10, d)
        for part in s_mat.mid_rad():
            boxes.update(part.tobytes())
        boxes.update(np.float64(step).tobytes())
        center = np.random.default_rng(d).uniform(-0.5, 0.5, 4 * d + 1)
        lo, hi = f_eval_interval((center - 1e-6, center + 1e-6), d)
        boxes.update(lo.tobytes())
        boxes.update(hi.tobytes())
    return certs.hexdigest(), boxes.hexdigest()


def test_certify_outputs_match_pinned_digest():
    # The pins were taken with BLAS on two threads.  They read the same on
    # one, since solve's bits move with the thread count only from d = 39
    # (test_sweep_manifest_is_the_same_on_one_and_two_blas_threads), but
    # the digests are still computed in a fresh interpreter on two threads,
    # whatever this one runs with.
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(etfforge.__file__)))
    path = [src_dir, tests_dir, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p),
               OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2", MKL_NUM_THREADS="2")
    script = "import test_certify; print(*test_certify._certify_outputs_digests())"
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    certs, boxes = run.stdout.split()
    assert certs == PINNED_CERTIFICATES
    assert boxes == PINNED_SECANT_AND_BOXES


def _dense_secant_oracle(x0, delta, d):
    """The secant Jacobian evaluated densely: D, the |u_j|^2 slope and the
    |c_j|^2 slope over every lag and all 4d columns, in complex
    temporaries, with the changes of u on the y columns and of v on the x
    columns formed as interval zeros and carried through the arithmetic.
    Kept as the oracle for secant_jacobian, which evaluates only the
    blocks that can be nonzero."""
    def abs2(re, im):
        return vadd(*vsqr(*re), *vsqr(*im))

    def slope_abs2(z, dz, h):
        (zr_lo, zr_hi), (zi_lo, zi_hi) = z
        dz_re, dz_im = dz
        cross = vadd(
            *vmul(zr_lo[:, None], zr_hi[:, None], *dz_re),
            *vmul(zi_lo[:, None], zi_hi[:, None], *dz_im),
        )
        return vadd(*vscale(*cross, 2.0), *vscale(*abs2(dz_re, dz_im), h))

    steps = (x0 + delta) - x0
    pair, _ = unpack(x0, d)
    u, v, c = ([_ends(*part) for part in q] for q in certify_module._correlations_interval(x0, x0, d))
    h = steps[None, :4 * d]
    lag = np.arange(d)[:, None]
    col = np.arange(4 * d)[None, :]
    plus, minus = (col + lag) % d, (col - lag) % d
    e = np.tile(np.repeat([1.0, 1j], d), 2)[None, :]
    x_col = col < 2 * d

    def moved(z, mine):
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
    abs2_u, abs2_c = slope_abs2(u, du, h), slope_abs2(c, dc, h)
    (du_re, du_im), (dv_re, dv_im) = du, dv
    pivot = (abs2_c[0][0], abs2_c[1][0])
    data = {
        "u_re": du_re,
        "v_re": dv_re,
        "s_re": vadd(*du_re, *dv_re),
        "s_im": vadd(*du_im, *dv_im),
        "mod_u": vsub(*abs2_u, *pivot),
        "mod_c": vsub(*abs2_c, *pivot),
    }
    rows_lo, rows_hi = (gather_rows(d, {k: q[end] for k, q in data.items()}) for end in (0, 1))
    w_col = np.zeros((rows_lo.shape[0], 1))
    w_col[2] = -4.0
    return IntervalMatrix(np.hstack([rows_lo, w_col]), np.hstack([rows_hi, w_col]))


def _structural_zeros(d):
    """Mask of the entries of S that are exact point zeros but that the
    dense oracle forms as interval zeros: u_re (row 0) on the y columns
    and v_re (row 1) on the x columns."""
    mask = np.zeros((residual_count(d), 4 * d + 1), dtype=bool)
    mask[0, 2 * d:4 * d] = mask[1, :2 * d] = True
    return mask


# S's widths against the dense endpoint oracle's, entry by entry: at most
# 1.62 times over d = 2..40 at solver points and 1.56 at the degenerate
# points of d = 2..6 (wider where the gamma_k bound of a modulus row
# exceeds the oracle's per-operation nudges)
ORACLE_WIDTH_FACTOR = 2.0


def _assert_near_dense_oracle(x0, d):
    """S keeps its structural zeros exact, puts its midpoint inside the
    dense oracle's interval and is at most ORACLE_WIDTH_FACTOR as wide."""
    s, _ = secant_jacobian(x0, 1e-10, d)
    oracle = _dense_secant_oracle(x0, 1e-10, d)
    zeros = _structural_zeros(d)
    assert np.all(s.lo[zeros] == 0.0) and np.all(s.hi[zeros] == 0.0)
    mid = s.mid()
    assert np.all(oracle.lo <= mid) and np.all(mid <= oracle.hi)
    assert np.all(s.hi - s.lo <= ORACLE_WIDTH_FACTOR * (oracle.hi - oracle.lo))
    return oracle


@pytest.mark.parametrize("d", range(2, 41))
def test_secant_jacobian_matches_dense_oracle_off_its_structural_zeros(d):
    oracle = _assert_near_dense_oracle(_pack(solve(d, seed=0).pair, 0.5), d)
    zeros = _structural_zeros(d)
    assert np.all(oracle.lo[zeros] < 0.0) and np.all(oracle.hi[zeros] > 0.0)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_secant_jacobian_lies_inside_dense_oracle_at_degenerate_points(d):
    # the degenerate points of test_secant_jacobian_contains_exact_rational_secant
    _assert_near_dense_oracle(_degenerate_point(d), d)


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


def test_certify_forms_the_parts_midpoints_and_radii_once(monkeypatch):
    # u, v and c stay midpoints and radii from their product to S and C0:
    # the one _mid_rad is of the parts of x0, none turns ends back
    calls = []
    mid_rad = certify_module._mid_rad

    def counted(*args):
        calls.append(np.shape(args[0]))
        return mid_rad(*args)

    monkeypatch.setattr(certify_module, "_mid_rad", counted)
    assert certify(solve(5, seed=0).pair).verified
    assert calls == [(4, 5)]


def _assert_encloses_exactly(lo, hi, d, points):
    """_correlations_interval over the box [lo, hi] holds the exact u, v
    and c, and f_eval_interval's rows the exact residual rows, at each
    packed point of the box."""
    uvc = certify_module._correlations_interval(lo, hi, d)
    rows_lo, rows_hi = f_eval_interval((lo, hi), d)
    for x in points:
        vec = [Fraction(float(v)) for v in x]
        for enclosure, exact in zip(uvc, _exact_uvc(vec, d)):
            for part, (mid, rad) in enumerate(enclosure):
                for j in range(d):
                    assert abs(exact[j][part] - Fraction(float(mid[j]))) <= Fraction(float(rad[j]))
        for row_lo, want, row_hi in zip(rows_lo, _exact_residual(vec, d), rows_hi):
            assert Fraction(float(row_lo)) <= want <= Fraction(float(row_hi))


@pytest.mark.parametrize("d", range(2, 10))
def test_u_v_c_and_rows_contain_the_exact_values(d):
    # at full-mantissa random points, solver points and degenerate points,
    # then at corners of small boxes; the radius of the correlation product
    # and of each sum or difference of two correlations are what hold these
    rng = np.random.default_rng(900 + d)
    for x in (rng.uniform(-1.0, 1.0, 4 * d + 1), _pack(solve(d, seed=0).pair, 0.5),
              _degenerate_point(d)):
        _assert_encloses_exactly(x, x, d, [x])
    for radius in (1e-12, 1e-6):
        center = rng.uniform(-0.5, 0.5, 4 * d + 1)
        lo, hi = center - radius, center + radius
        corners = [np.where(rng.integers(0, 2, 4 * d + 1) == 0, lo, hi) for _ in range(4)]
        _assert_encloses_exactly(lo, hi, d, corners)


def test_f_eval_interval_maps_overflow_to_the_real_line():
    # the correlations of 1e200 entries overflow, and their differences
    # (inf - inf) are NaN: every row must read [-inf, inf], none NaN
    d = 3
    big = np.full(4 * d + 1, 1e200)
    for lo, hi in ((big, big), (0.5 * big, big)):
        rows_lo, rows_hi = f_eval_interval((lo, hi), d)
        assert np.all(rows_lo == -np.inf) and np.all(rows_hi == np.inf)


def test_u_v_c_enclosure_memory_stays_quadratic_at_d300():
    # one product of a 4 x d by a d x 4d interval matrix holds a few
    # d x 4d arrays (about 18 MB at d = 300); a (12, d, d) interval
    # stack with its elementwise temporaries would take over 80 MB
    d = 300
    x = np.random.default_rng(d).uniform(-0.1, 0.1, 4 * d + 1)
    tracemalloc.start()
    try:
        certify_module._correlations_interval(x, x, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6


def test_secant_jacobian_memory_stays_quadratic_at_d300():
    # S is 751 x 1201, 7.2 MB per endpoint array, which IntervalMatrix
    # wraps without a copy; the |c_j|^2 slope over d x 4d entries holds a
    # few more of 2.9 MB.  Evaluating every quantity over all lags and
    # columns in complex temporaries took 86 MB.
    d = 300
    x = np.random.default_rng(d).uniform(-0.1, 0.1, 4 * d + 1)
    uvc = certify_module._correlations_interval(x, x, d)
    tracemalloc.start()
    try:
        secant_jacobian(x, 1e-10, d, uvc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 70e6


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

    class InProcessPool(Executor):
        def __init__(self, max_workers):
            started.append(max_workers)

        def submit(self, fn, item):
            future = Future()
            future.set_result(fn(item))
            return future

    # certify_range imports the pool only when it starts one
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
    results = certify_range(2, 3, seeds=(0,), jobs=5000)
    assert started == [2]
    assert [(r.d, r.verified) for r in results] == [(2, True), (3, True)]
    # one dimension runs in-process, without a pool
    assert certify_range(2, 2, seeds=(0,), jobs=5000)[0].verified
    assert started == [2]


def test_certify_range_keeps_order_and_idles_no_worker(monkeypatch):
    # a slow first dimension does not idle the other worker: d = 2 runs
    # until d = 41 has started, and the results still come in range order
    last_started = threading.Event()

    def certify_dimension(args):
        if args[0] == 41:
            last_started.set()
        if args[0] == 2:
            assert last_started.wait(timeout=10)
        return RangeResult(args[0], None, "no-convergence", "stub")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", ThreadPoolExecutor)
    monkeypatch.setattr(certify_module, "_certify_dimension", certify_dimension)
    results = certify_range(2, 41, jobs=2)
    assert [r.d for r in results] == list(range(2, 42))


def test_certify_range_submits_a_long_range_in_little_memory(monkeypatch):
    # Executor.map submits the whole range before its first result, at
    # about 2 KB per dimension; d = 3000 is ROADMAP item 10's reach
    def certify_dimension(args):
        return RangeResult(args[0], None, "no-convergence", "stub")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", ThreadPoolExecutor)
    monkeypatch.setattr(certify_module, "_certify_dimension", certify_dimension)
    tracemalloc.start()
    try:
        results = certify_range(2, 3001, jobs=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.d for r in results] == list(range(2, 3002))
    assert peak < 16 * 2**20
