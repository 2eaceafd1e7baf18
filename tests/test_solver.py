import hashlib
import math

import numpy as np
import pytest

from etfforge.constructions import paley_graph, synthesize_doubled_frame
from etfforge.errors import InvalidArgumentError
from etfforge.frames import (
    CirculantPair,
    assemble_2circulant,
    check_etf,
)
from etfforge.solver import (
    _lm_step,
    alternating_projections_gram,
    alternating_projections_grams,
    analytic_jacobian,
    correlations,
    D4Report,
    d4_uniqueness_experiment,
    pack,
    residual,
    residual_count,
    solve,
    unpack,
)

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def icosahedral_pair():
    s = 1.0 / math.sqrt(1.0 + PHI * PHI)
    return CirculantPair(
        3, np.array([0.0, 1.0, PHI]) * s, np.array([0.0, 1.0, -PHI]) * s
    )


def test_residual_count_layout_identity():
    for d in range(2, 201):
        rows = residual_count(d)
        assert rows == 2 * d + d // 2 + 1
        # generic solution manifold dimension over the 4d generator
        # coordinates plus the tightness scale
        assert (4 * d + 1) - rows == math.ceil(1.5 * d)


def test_residual_frozen_d2_hand_case():
    pair = CirculantPair(
        2,
        np.array([1.0, 0.0]),
        np.array([1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0)]),
    )
    r = residual(pair, 0.5)
    expect = np.array([0.0, 0.0, 0.0, 0.0, -0.5, 0.0])
    assert np.max(np.abs(r - expect)) < 1e-15


def test_residual_orthonormal_pair_fails_equiangularity_only():
    e0 = np.array([1.0, 0.0])
    pair = CirculantPair(2, e0, e0)
    r = residual(pair, 0.5)
    # norms and tightness hold; both modulus rows sit at -1
    assert np.max(np.abs(r[:4])) < 1e-15
    assert r[4] == -1.0
    assert r[5] == -1.0


def test_residual_vanishes_on_closed_form_solution():
    pair = synthesize_doubled_frame(paley_graph(5), 1)
    assert isinstance(pair, CirculantPair)
    r = residual(pair, 0.5)
    assert np.max(np.abs(r)) <= 1e-10


def test_residual_small_on_icosahedral_pair():
    r = residual(icosahedral_pair(), 0.5)
    assert np.max(np.abs(r)) <= 1e-11


def test_correlations_match_direct_sums():
    rng = np.random.default_rng(12)
    d = 5
    x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    y = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    u, v, c = correlations(x, y)
    for j in range(d):
        su = sum(x[m] * np.conj(x[(m + j) % d]) for m in range(d))
        sv = sum(y[m] * np.conj(y[(m + j) % d]) for m in range(d))
        sc = sum(y[m] * np.conj(x[(m + j) % d]) for m in range(d))
        assert abs(u[j] - su) < 1e-12
        assert abs(v[j] - sv) < 1e-12
        assert abs(c[j] - sc) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_analytic_jacobian_matches_finite_differences(d):
    rng = np.random.default_rng(100 + d)
    h = 1e-6
    for _ in range(20):
        vec = rng.standard_normal(4 * d + 1)
        vec[4 * d] = 0.5 + 0.1 * rng.standard_normal()

        def at(v):
            pair = CirculantPair(
                d, v[0:d] + 1j * v[d : 2 * d], v[2 * d : 3 * d] + 1j * v[3 * d : 4 * d]
            )
            return residual(pair, v[4 * d])

        pair0 = CirculantPair(
            d,
            vec[0:d] + 1j * vec[d : 2 * d],
            vec[2 * d : 3 * d] + 1j * vec[3 * d : 4 * d],
        )
        jac = analytic_jacobian(pair0, vec[4 * d])
        fd = np.empty_like(jac)
        for col in range(4 * d + 1):
            hi = vec.copy()
            lo = vec.copy()
            hi[col] += h
            lo[col] -= h
            fd[:, col] = (at(hi) - at(lo)) / (2.0 * h)
        scale = max(1.0, float(np.max(np.abs(fd))))
        assert np.max(np.abs(jac - fd)) / scale <= 1e-5


def test_jacobian_frozen_entries():
    pair = icosahedral_pair()
    jac = analytic_jacobian(pair, 0.5)
    d = 3
    # unit-norm row differentiates to 2 Re x_j
    assert np.max(np.abs(jac[0, 0:d] - 2.0 * pair.x.real)) < 1e-14
    assert np.max(np.abs(jac[0, d : 2 * d] - 2.0 * pair.x.imag)) < 1e-14
    # the pinned tightness row carries d/dw = -4
    assert jac[2, 4 * d] == -4.0
    assert np.max(np.abs(jac[3:, 4 * d])) == 0.0


def test_float_residual_system_matches_pinned_digest():
    # residual and analytic_jacobian at seeded random points, d = 2..40;
    # "+ 0.0" folds -0 into +0, so only the signs of zeros may move
    res, jac = hashlib.sha256(), hashlib.sha256()
    for d in range(2, 41):
        rng = np.random.default_rng(d)
        x = rng.normal(size=d) + 1j * rng.normal(size=d)
        y = rng.normal(size=d) + 1j * rng.normal(size=d)
        pair, w = CirculantPair(d, x / 2, y / 2), rng.uniform(0.25, 0.75)
        res.update(residual(pair, w).tobytes())
        jac.update((analytic_jacobian(pair, w) + 0.0).tobytes())
    assert res.hexdigest() == (
        "3cc2bfed73348828bfaf090f7ba8d971bca55cb2d183c54619f0c1fc7c7b61a2"
    )
    assert jac.hexdigest() == (
        "7572145ec9e7c8522b1412ce8c51bad712e7af9bd3ba712459006151ffa3d3b9"
    )


def test_residual_and_jacobian_take_shared_correlations():
    # solve passes each accepted point's correlations on; the bytes are
    # those of evaluating them again
    for d in (2, 3, 8, 17):
        rng = np.random.default_rng(50 + d)
        x = rng.normal(size=d) + 1j * rng.normal(size=d)
        y = rng.normal(size=d) + 1j * rng.normal(size=d)
        pair, w = CirculantPair(d, x / 2, y / 2), rng.uniform(0.25, 0.75)
        uvc = correlations(pair.x, pair.y)
        assert residual(pair, w, uvc).tobytes() == residual(pair, w).tobytes()
        assert analytic_jacobian(pair, w, uvc).tobytes() == analytic_jacobian(pair, w).tobytes()


def _svd_step(jac, r, lam):
    """(step, s): the damped step -V diag(s / (s^2 + lam)) U^T r from the
    SVD of jac, and its singular values.  Rows 0 + 1 - 2 of jac are
    exactly zero, so its last singular value is exactly zero; the
    rounding the SVD returns in its place is dropped."""
    u, s, vt = np.linalg.svd(jac, full_matrices=False)
    gain = s / (s * s + lam)
    gain[-1] = 0.0
    return -vt.T @ (gain * (u.T @ r)), s


@pytest.mark.parametrize("d", list(range(2, 31)))
def test_row_space_step_matches_svd_step(d):
    rng = np.random.default_rng(700 + d)
    points = []
    for _ in range(2):
        x = rng.normal(size=d) + 1j * rng.normal(size=d)
        y = rng.normal(size=d) + 1j * rng.normal(size=d)
        points.append(CirculantPair(d, x / np.linalg.norm(x), y / np.linalg.norm(y)))
    points.append(solve(d, 0).pair)
    for k, pair in enumerate(points):
        jac = analytic_jacobian(pair, 0.5)[:, :4 * d]
        r = residual(pair, 0.5)
        assert not np.any(jac[0] + jac[1] - jac[2])
        for lam in (1e-3, 1e-8, 1e-14):
            ref, s = _svd_step(jac, r, lam)
            step = _lm_step(jac, jac @ jac.T, r, lam)
            tol = 1e-10
            if d == 4 and k == 2:
                # solve(4, 0) is a singular zero: J's second-smallest
                # singular value is about 2e-6, and a step through J J^T
                # loses digits in proportion to that system's condition
                # number, as any normal-equations step does
                assert s[-2] < 1e-5
                tol = 16 * np.finfo(float).eps * (s[0] ** 2 + lam) / (s[-2] ** 2 + lam)
            assert np.linalg.norm(step - ref) <= tol * np.linalg.norm(ref)


def _column_space_solve(d, seed, tol=1e-12, max_iter=500):
    """(iterations, converged) of solve's loop with each damped step from
    the 4d x 4d system (J^T J + lam I) step = -J^T r, the column-space
    form of solve's row-space step.  Kept as the oracle for solve's path."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=d) + 1j * rng.normal(size=d)
    y = rng.normal(size=d) + 1j * rng.normal(size=d)
    vec = pack(CirculantPair(d, x / np.linalg.norm(x), y / np.linalg.norm(y)), 0.5)
    n_var = 4 * d
    r = residual(unpack(vec, d)[0], 0.5)
    cost, lam = float(r @ r), 1e-3
    for iterations in range(1, max_iter + 1):
        if np.max(np.abs(r)) <= tol:
            return iterations - 1, True
        jac = analytic_jacobian(unpack(vec, d)[0], 0.5)[:, :n_var]
        for _ in range(60):
            trial = vec.copy()
            trial[:n_var] += np.linalg.solve(jac.T @ jac + lam * np.eye(n_var), -jac.T @ r)
            trial_r = residual(unpack(trial, d)[0], 0.5)
            if float(trial_r @ trial_r) < cost:
                vec, r, cost = trial, trial_r, float(trial_r @ trial_r)
                lam = max(lam / 2.0, 1e-14)
                break
            lam *= 2.0
        else:
            return iterations, False
    return max_iter, bool(np.max(np.abs(r)) <= tol)


@pytest.mark.parametrize("d", list(range(2, 21)))
def test_solve_follows_the_column_space_path(d):
    for seed in range(3):
        result = solve(d, seed)
        assert (result.iterations, result.converged) == _column_space_solve(d, seed)


@pytest.mark.parametrize("d", list(range(2, 21)))
def test_solve_converges_and_builds_etf(d):
    result = solve(d)
    assert result.converged
    assert result.residual_inf <= 1e-12
    assert result.w == 0.5
    frame = assemble_2circulant(result.pair)
    assert check_etf(frame, tol=1e-10).verdict


def test_solve_pivot_modulus_limit_d3():
    result = solve(3)
    _, _, c = correlations(result.pair.x, result.pair.y)
    assert abs(abs(c[0]) ** 2 - 0.2) <= 1e-10  # 1/(2d-1) at d=3


def test_solve_solutions_are_spectrally_flat():
    for d in [2, 5, 8]:
        result = solve(d)
        fx = np.abs(np.fft.fft(result.pair.x)) ** 2
        fy = np.abs(np.fft.fft(result.pair.y)) ** 2
        assert np.max(np.abs(fx + fy - 2.0)) < 1e-8


def test_solve_is_bitwise_deterministic():
    a = solve(7, seed=3)
    b = solve(7, seed=3)
    assert np.array_equal(a.pair.x, b.pair.x)
    assert np.array_equal(a.pair.y, b.pair.y)
    assert a.residual_inf == b.residual_inf
    assert a.iterations == b.iterations


def test_solve_iteration_budget_reports_failure():
    result = solve(12, seed=0, max_iter=1)
    assert not result.converged
    assert result.residual_inf > 1e-12
    assert result.iterations <= 1
    obj = result.to_obj()
    assert obj["converged"] is False
    assert obj["kind"] == "circulant-generators"


def test_solve_rejects_small_d():
    with pytest.raises(InvalidArgumentError):
        solve(1)


def test_solve_result_json_fields():
    result = solve(4, seed=2, max_iter=50)
    obj = result.to_obj()
    for key in ["w", "residual_inf", "iterations", "converged", "seed", "d"]:
        assert key in obj
    assert obj["seed"] == 2


def test_alternating_projections_3x6():
    g = alternating_projections_gram(3, 6, seed=0, iterations=10000)
    assert np.max(np.abs(np.diag(g) - 1.0)) < 1e-15
    ev = np.linalg.eigvalsh(g)
    assert np.max(np.abs(ev[3:] - 2.0)) < 1e-6
    assert np.max(np.abs(ev[:3])) < 1e-6


def test_alternating_projections_2x4():
    g = alternating_projections_gram(2, 4, seed=5, iterations=10000)
    ev = np.linalg.eigvalsh(g)
    assert np.max(np.abs(ev[2:] - 2.0)) < 1e-6
    assert np.max(np.abs(ev[:2])) < 1e-6
    with pytest.raises(InvalidArgumentError):
        alternating_projections_gram(4, 4)


def test_stacked_projections_match_one_start_runs():
    full = alternating_projections_grams(3, 6, range(6), iterations=10000)
    assert full.shape == (6, 6, 6)
    for seed in range(6):
        solo = alternating_projections_gram(3, 6, seed=seed, iterations=10000)
        assert full[seed].tobytes() == solo.tobytes()
    # seeds 1, 2, 4 and 5 settle within 200 passes and leave the stack
    # while 0 and 3 run on, so the per-trial stop is exercised
    short = alternating_projections_grams(3, 6, range(6), iterations=200)
    settled = [short[k].tobytes() == full[k].tobytes() for k in range(6)]
    assert settled == [False, True, True, False, True, True]


def test_d4_experiment_records_match_pinned_digest():
    # sha256 computed with the one-start-at-a-time loop this stack replaced
    rep = d4_uniqueness_experiment(trials=4, iterations=2000, seed=0)
    text = "".join("%s %s;" % (rec.max_abs_re.hex(), rec.rounding_ok) for rec in rep.records)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "58611dc29fc93d8d387a09f2dc9f5fda54d8677b0060fe26c2c797da2f5b8874")


def test_d4_experiment_zero_trials():
    rep = d4_uniqueness_experiment(trials=0, iterations=10, seed=0)
    assert rep == D4Report(trials=0, worst_re=0.0, all_rounded=True, records=())
    assert alternating_projections_grams(4, 8, [], iterations=10).shape == (0, 8, 8)


def test_d4_experiment_zero_iterations_well_formed():
    rep = d4_uniqueness_experiment(trials=1, iterations=0, seed=0)
    assert rep.trials == 1
    assert len(rep.records) == 1
    assert rep.records[0].trial == 0
    assert rep.worst_re == rep.records[0].max_abs_re
    # a random start has no reason to round to the integer signature
    assert not rep.records[0].rounding_ok
    assert not rep.all_rounded


def test_d4_experiment_short_run_rounds():
    rep = d4_uniqueness_experiment(trials=2, iterations=10000, seed=0)
    assert rep.worst_re < 0.1
    assert rep.all_rounded

