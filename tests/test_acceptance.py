"""Acceptance gate: one named test per shipped guarantee.

Every tolerance and runtime budget below is part of the package contract.
A red test here means the guarantee itself regressed; do not loosen the
numbers to make it pass.
"""

import math
import time
from fractions import Fraction

import numpy as np

from etfforge.certify import certify_range, coefficient_norms
from etfforge.constructions import (
    appendix_line_reps,
    double_conference_graph,
    doubling_coefficients,
    is_odd_prime_power,
    paley_conference,
    paley_graph,
    symplectic_conference,
    synthesize_doubled_frame,
    table_dispatch,
)
from etfforge import galois
from etfforge.frames import (
    CirculantPair,
    assemble_2circulant,
    check_etf,
    signature_of_gram,
)
from etfforge.harmonic import (
    check_regular_representation,
    circulantize,
    detect_harmonic_gram,
    family_automorphism,
)
from etfforge.linalg import op_norm_inf
from etfforge.rigor import (
    IntervalMatrix,
    iv_norm_inf,
    vabs,
    vadd,
    vdiv,
    vmul,
    vneg,
    vscale,
    vsqr,
    vsub,
)
from etfforge.solver import analytic_jacobian, d4_uniqueness_experiment, residual, solve


def test_criterion_01_doubled_conference_graph_identities():
    t0 = time.perf_counter()
    for v in (5, 9, 13, 17, 25):
        graph = paley_graph(v)
        for eps in (1, -1):
            s = double_conference_graph(graph, eps)
            dev = float(np.max(np.abs(s @ s - (2 * v - 1) * np.eye(2 * v))))
            assert dev <= 1e-9, "v=%d eps=%d square deviation %.3e" % (v, eps, dev)
        a = graph.adjacency.astype(object)
        eye = np.eye(v, dtype=object)
        b = np.ones((v, v), dtype=object) - eye - a
        assert np.array_equal(4 * (a @ a), (2 * v - 2) * eye + (v - 5) * a + (v - 1) * b)
        assert np.array_equal(4 * (a @ b), (v - 1) * (a + b))
        assert np.array_equal(4 * (b @ b), (2 * v - 2) * eye + (v - 1) * a + (v - 5) * b)
    assert time.perf_counter() - t0 < 5.0


def test_criterion_02_closed_form_doubled_frame_v5():
    t0 = time.perf_counter()
    ca, cb, cc, cd, ce, cf = doubling_coefficients(5, 1)
    s215 = math.sqrt(2.0 / 15.0)
    assert abs(ca - (0.2 + 2.0 * s215)) <= 1e-12
    assert abs(cb - 0.2) <= 1e-12
    assert abs(cc - (0.2 - s215)) <= 1e-12
    assert abs(cd - (0.2 - np.exp(2j * np.pi / 3) * s215)) <= 1e-12
    assert abs(ce - (6.0 - np.sqrt(-15.0 * (13.0 + 3j * math.sqrt(3.0)))) / 30.0) <= 1e-12
    assert abs(cf - (0.2 - 1j / math.sqrt(10.0))) <= 1e-12
    pair = synthesize_doubled_frame(paley_graph(5), 1)
    assert isinstance(pair, CirculantPair)
    report = check_etf(assemble_2circulant(pair), tol=1e-12)
    assert report.verdict
    assert abs(report.gamma - 1.0 / 3.0) <= 1e-12
    assert time.perf_counter() - t0 < 1.0


def test_criterion_03_conference_matrix_suite():
    t0 = time.perf_counter()
    prime_powers = [q for q in range(3, 294, 2) if is_odd_prime_power(q)]
    assert prime_powers[0] == 3 and prime_powers[-1] == 293
    for q in prime_powers:
        c = paley_conference(q).data
        assert np.array_equal(c.T @ c, q * np.eye(q + 1, dtype=np.int64))
    for q in (3, 5, 7, 9, 13):
        p, k = galois.prime_power_decomposition(q)
        field = galois.make_field(p, k)
        c_sym = symplectic_conference(q, appendix_line_reps(field)).data
        c_pal = paley_conference(q).data
        n = q + 1
        # the symplectic enumeration puts the infinite line last
        perm = [n - 1] + list(range(n - 1))
        p_mat = np.zeros((n, n), dtype=np.int64)
        for i, j in enumerate(perm):
            p_mat[i, j] = 1
        moved = p_mat @ c_sym @ p_mat.T
        if q % 4 == 1:
            assert np.array_equal(moved, c_pal)
        else:
            d_mat = np.eye(n, dtype=np.int64)
            d_mat[0, 0] = -1
            assert np.array_equal(moved, d_mat @ c_pal.T @ d_mat)
    assert time.perf_counter() - t0 < 30.0


def _circulant_from_row(row):
    m = len(row)
    out = np.empty((m, m), dtype=complex)
    for i in range(m):
        out[i] = np.roll(row, i)
    return out


def _q7_reference_signature():
    # 8 x 8 two-circulant signature over the eighth root of unity
    w = np.exp(1j * np.pi / 4)
    return np.block([
        [_circulant_from_row([0, -w**3, -1, w]),
         _circulant_from_row([1j, w**3, -1, -w])],
        [_circulant_from_row([-1j, w**3, -1, -w]),
         _circulant_from_row([0, w**3, 1, -w])],
    ])


def test_criterion_04_two_circulantization_of_both_families():
    t0 = time.perf_counter()
    for family in ("paley_plus", "double_paley_plus"):
        for q in (3, 5, 7, 9, 13):
            gram, witness = family_automorphism(family, q)
            block, diag, perm = circulantize(gram, witness)
            again = detect_harmonic_gram(block.gram, block.m)
            dev_sq, dev_tight = check_regular_representation(again)
            assert dev_sq <= 1e-8 and dev_tight <= 1e-8

    # q = 7 halfsize signature agrees with the reference 8 x 8 layout up
    # to switching; search the reindexings that keep both blocks circulant
    target = _q7_reference_signature()
    gram, witness = family_automorphism("paley_plus", 7)
    block, _, _ = circulantize(gram, witness)
    s = signature_of_gram(block.gram).signature
    m = 4
    best = np.inf
    for conj_flag in (False, True):
        base = np.conj(s) if conj_flag else s
        for swap in (False, True):
            for refl in (False, True):
                for a in range(m):
                    for b in range(m):
                        idx1 = [(a + (-i if refl else i)) % m for i in range(m)]
                        idx2 = [m + ((b + (-i if refl else i)) % m) for i in range(m)]
                        order = idx2 + idx1 if swap else idx1 + idx2
                        cand = base[np.ix_(order, order)]
                        row = cand[0]
                        if np.min(np.abs(row[1:])) < 0.5:
                            continue
                        dvec = np.empty(2 * m, dtype=complex)
                        dvec[0] = 1.0
                        dvec[1:] = target[0, 1:] / row[1:]
                        switched = np.conj(dvec)[:, None] * cand * dvec[None, :]
                        best = min(best, float(np.max(np.abs(switched - target))))
    assert best <= 1e-9, "closest switching representative off by %.3e" % best
    assert time.perf_counter() - t0 < 30.0


def test_criterion_05_solver_converges_on_coverage_grid():
    dims = sorted(set(range(2, 41)) | {33, 77, 93, 105, 133})
    for d in dims:
        t0 = time.perf_counter()
        result = None
        for seed in range(5):
            attempt = solve(d, seed=seed)
            if attempt.converged:
                result = attempt
                break
        elapsed = time.perf_counter() - t0
        assert result is not None, "no seed in 0..4 converged at d=%d" % d
        assert result.residual_inf <= 1e-12, "d=%d residual %.3e" % (
            d, result.residual_inf)
        assert elapsed < 120.0, "d=%d took %.1f s" % (d, elapsed)
        report = check_etf(assemble_2circulant(result.pair), tol=1e-10)
        assert report.verdict, "d=%d frame fails ETF check: %r" % (d, report)


def test_criterion_06_certified_existence_sweep_2_to_30():
    t0 = time.perf_counter()
    results = certify_range(2, 30, delta=1e-10)
    elapsed = time.perf_counter() - t0
    assert len(results) == 29
    assert elapsed < 1800.0
    failures = [
        "d=%d reason=%s (%s)" % (r.d, r.failure_reason, r.failure_message)
        for r in results
        if not r.verified
    ]
    assert not failures, "unverified dimensions: " + "; ".join(failures)
    for r in results:
        assert r.certificate.kernel_dim == -(-3 * r.d // 2)


def test_criterion_07_residual_magnitude_audit():
    for d in range(2, 11):
        rows = coefficient_norms(d)
        assert max(degree for degree, _ in rows) <= 4
        bound = 16.0 * d * d
        worst = max(norm for _, norm in rows)
        assert worst <= bound, "d=%d coefficient norm %.3f exceeds %.1f" % (
            d, worst, bound)


def test_criterion_08_jacobian_matches_central_differences():
    h = 1e-6
    for d in range(2, 11):
        rng = np.random.default_rng(8000 + d)
        for _ in range(100):
            vec = rng.standard_normal(4 * d + 1)
            vec[4 * d] = 0.5 + 0.1 * rng.standard_normal()

            def at(v):
                pair = CirculantPair(
                    d,
                    v[0:d] + 1j * v[d:2 * d],
                    v[2 * d:3 * d] + 1j * v[3 * d:4 * d],
                )
                return residual(pair, v[4 * d])

            pair0 = CirculantPair(
                d,
                vec[0:d] + 1j * vec[d:2 * d],
                vec[2 * d:3 * d] + 1j * vec[3 * d:4 * d],
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
            rel = float(np.max(np.abs(jac - fd))) / scale
            assert rel <= 1e-5, "d=%d relative deviation %.3e" % (d, rel)


def test_criterion_09_interval_soundness_randomized():
    rng = np.random.default_rng(90)
    batch = 12500  # 8 primitives x 12500 = 1e5 containment checks
    checks = 0
    for op in range(8):
        width_a = np.abs(rng.standard_normal(batch))
        alo = rng.standard_normal(batch) * 10.0 ** rng.integers(-8, 8, batch)
        ahi = alo + width_a
        blo = rng.standard_normal(batch) * 10.0 ** rng.integers(-4, 4, batch)
        if op == 3:
            blo = np.abs(blo) + 0.5  # keep divisors away from zero
        bhi = blo + np.abs(rng.standard_normal(batch))
        ta = rng.random(batch)
        tb = rng.random(batch)
        if op == 0:
            lo, hi = vadd(alo, ahi, blo, bhi)
        elif op == 1:
            lo, hi = vsub(alo, ahi, blo, bhi)
        elif op == 2:
            lo, hi = vmul(alo, ahi, blo, bhi)
        elif op == 3:
            lo, hi = vdiv(alo, ahi, blo, bhi)
        elif op == 4:
            lo, hi = vscale(alo, ahi, 3.7)
        elif op == 5:
            lo, hi = vabs(alo, ahi)
        elif op == 6:
            lo, hi = vsqr(alo, ahi)
        else:
            lo, hi = vneg(alo, ahi)
        for i in range(batch):
            fa = Fraction(alo[i]) + Fraction(ta[i]) * (
                Fraction(ahi[i]) - Fraction(alo[i]))
            fb = Fraction(blo[i]) + Fraction(tb[i]) * (
                Fraction(bhi[i]) - Fraction(blo[i]))
            if op == 0:
                exact = fa + fb
            elif op == 1:
                exact = fa - fb
            elif op == 2:
                exact = fa * fb
            elif op == 3:
                exact = fa / fb
            elif op == 4:
                exact = fa * Fraction(3.7)
            elif op == 5:
                exact = abs(fa)
            elif op == 6:
                exact = fa * fa
            else:
                exact = -fa
            assert Fraction(lo[i]) <= exact <= Fraction(hi[i])
            checks += 1
    assert checks == 100000

    for _ in range(100):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        a = rng.standard_normal((n, m)) * 10.0 ** rng.integers(-6, 7)
        upper = iv_norm_inf(IntervalMatrix.from_point(a))
        assert upper.hi >= op_norm_inf(a)


def test_criterion_10_d4_core_experiment():
    report = d4_uniqueness_experiment(trials=50, iterations=10000, seed=0)
    assert report.trials == 50
    assert len(report.records) == 50
    assert report.worst_re < 0.1, "largest normalized-core real part %.4f" % (
        report.worst_re)
    rounded = sum(1 for rec in report.records if rec.rounding_ok)
    assert rounded >= 0.95 * 50, "only %d/50 trials rounded to the integer model" % rounded


# Dimension -> frozen reference labels for the three covered families.
# Rows absent from this map carry no covered-family label.
_REFERENCE_NOTES = {
    2: ("G_3+1",),
    3: ("G_5+1", "2·G_3"),
    4: ("G_7+1", "2·(G_3+1)"),
    5: ("G_9+1", "2·G_5"),
    6: ("G_11+1", "2·(G_5+1)"),
    7: ("G_13+1", "2·G_7"),
    8: ("2·(G_7+1)",),
    9: ("G_17+1",),
    10: ("G_19+1", "2·(G_9+1)"),
    11: ("2·G_11",),
    12: ("G_23+1", "2·(G_11+1)"),
    13: ("G_25+1", "2·G_13"),
    14: ("2·(G_13+1)",),
    15: ("G_29+1",),
    16: ("G_31+1",),
    17: ("2·G_17",),
    18: ("2·(G_17+1)",),
    19: ("G_37+1", "2·G_19"),
    20: ("2·(G_19+1)",),
    21: ("G_41+1",),
    22: ("G_43+1",),
    23: ("2·G_23",),
    24: ("G_47+1", "2·(G_23+1)"),
    25: ("G_49+1",),
    26: ("2·(G_25+1)",),
    27: ("G_53+1", "2·G_27"),
    28: ("2·(G_27+1)",),
    29: ("2·G_29",),
    30: ("G_59+1", "2·(G_29+1)"),
    31: ("G_61+1", "2·G_31"),
    32: ("2·(G_31+1)",),
    34: ("G_67+1",),
    36: ("G_71+1",),
    37: ("G_73+1", "2·G_37"),
    38: ("2·(G_37+1)",),
    40: ("G_79+1",),
    41: ("2·G_41",),
    42: ("G_83+1", "2·(G_41+1)"),
    43: ("2·G_43",),
    44: ("2·(G_43+1)",),
    45: ("G_89+1",),
    47: ("2·G_47",),
    48: ("2·(G_47+1)",),
    49: ("G_97+1",),
    50: ("2·(G_49+1)",),
    51: ("G_101+1",),
    52: ("G_103+1",),
    53: ("2·G_53",),
    54: ("G_107+1", "2·(G_53+1)"),
    55: ("G_109+1",),
    57: ("G_113+1",),
    59: ("2·G_59",),
    60: ("2·(G_59+1)",),
    61: ("G_121+1", "2·G_61"),
    62: ("2·(G_61+1)",),
    64: ("G_127+1",),
    66: ("G_131+1",),
    67: ("2·G_67",),
    68: ("2·(G_67+1)",),
    69: ("G_137+1",),
    70: ("G_139+1",),
    71: ("2·G_71",),
    72: ("2·(G_71+1)",),
    73: ("2·G_73",),
    74: ("2·(G_73+1)",),
    75: ("G_149+1",),
    76: ("G_151+1",),
    79: ("G_157+1", "2·G_79"),
    80: ("2·(G_79+1)",),
    81: ("2·G_81",),
    82: ("G_163+1", "2·(G_81+1)"),
    83: ("2·G_83",),
    84: ("G_167+1", "2·(G_83+1)"),
    85: ("G_169+1",),
    87: ("G_173+1",),
    89: ("2·G_89",),
    90: ("G_179+1", "2·(G_89+1)"),
    91: ("G_181+1",),
    96: ("G_191+1",),
    97: ("G_193+1", "2·G_97"),
    98: ("2·(G_97+1)",),
    99: ("G_197+1",),
    100: ("G_199+1",),
    101: ("2·G_101",),
    102: ("2·(G_101+1)",),
    103: ("2·G_103",),
    104: ("2·(G_103+1)",),
    106: ("G_211+1",),
    107: ("2·G_107",),
    108: ("2·(G_107+1)",),
    109: ("2·G_109",),
    110: ("2·(G_109+1)",),
    112: ("G_223+1",),
    113: ("2·G_113",),
    114: ("G_227+1", "2·(G_113+1)"),
    115: ("G_229+1",),
    117: ("G_233+1",),
    120: ("G_239+1",),
    121: ("G_241+1",),
    122: ("2·(G_121+1)",),
    125: ("2·G_125",),
    126: ("G_251+1", "2·(G_125+1)"),
    127: ("2·G_127",),
    128: ("2·(G_127+1)",),
    129: ("G_257+1",),
    131: ("2·G_131",),
    132: ("G_263+1", "2·(G_131+1)"),
    135: ("G_269+1",),
    136: ("G_271+1",),
    137: ("2·G_137",),
    138: ("2·(G_137+1)",),
    139: ("G_277+1", "2·G_139"),
    140: ("2·(G_139+1)",),
    141: ("G_281+1",),
    142: ("G_283+1",),
    145: ("G_289+1",),
    147: ("G_293+1",),
    149: ("2·G_149",),
    150: ("2·(G_149+1)",),
}

# Labels valid by the arithmetic conditions but absent from the frozen
# reference table; each row is a documented, deliberate surplus.
_ALLOWED_EXTRAS = {
    9: {"2·G_9"},
    14: {"G_27+1"},
    25: {"2·G_25"},
    41: {"G_81+1"},
    49: {"2·G_49"},
    63: {"G_125+1"},
    121: {"2·G_121"},
    122: {"G_243+1"},
}


def test_criterion_11_table_dispatch_matches_reference_notes():
    for d in range(1, 151):
        produced = set(table_dispatch(d))
        notes = set(_REFERENCE_NOTES.get(d, ()))
        extras = _ALLOWED_EXTRAS.get(d, set())
        missing = notes - produced
        assert not missing, "d=%d misses reference labels %s" % (d, sorted(missing))
        surplus = produced - notes - extras
        assert not surplus, "d=%d emits unexpected labels %s" % (d, sorted(surplus))
