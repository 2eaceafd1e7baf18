import math

import numpy as np
import pytest

from etfforge.errors import (
    InvalidArgumentError,
    InvalidSignatureError,
    NotEquiangularError,
)
from etfforge.frames import (
    CirculantPair,
    assemble_2circulant,
    check_etf,
    circulant,
    frame_from_gram,
    gram_of_signature,
    lag_windows,
    naimark_complement_signature,
    signature_of_gram,
    welch_gamma,
)

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def icosahedral_pair():
    # real 3x6 generators: cyclic shifts of (0, 1, phi) and (0, 1, -phi)
    s = 1.0 / math.sqrt(1.0 + PHI * PHI)
    x = np.array([0.0, 1.0, PHI]) * s
    y = np.array([0.0, 1.0, -PHI]) * s
    return CirculantPair(3, x, y)


def test_welch_gamma_frozen_values():
    assert abs(welch_gamma(5, 10) - 1.0 / 3.0) < 1e-15
    assert abs(welch_gamma(3, 6) - 1.0 / math.sqrt(5.0)) < 1e-15
    assert abs(welch_gamma(3, 9) - 0.5) < 1e-15
    with pytest.raises(InvalidArgumentError):
        welch_gamma(3, 3)
    with pytest.raises(InvalidArgumentError):
        welch_gamma(0, 5)


def test_welch_gamma_doubling_identity():
    for d in range(1, 1001):
        assert abs(welch_gamma(d, 2 * d) - 1.0 / math.sqrt(2 * d - 1)) < 1e-15


def test_check_etf_mercedes_benz():
    ang = 2.0 * np.pi * np.arange(3) / 3.0
    phi = np.vstack([np.cos(ang), np.sin(ang)])
    report = check_etf(phi, tol=1e-12)
    assert report.verdict
    assert report.d == 2 and report.n == 3
    assert abs(report.gamma - 0.5) < 1e-15


def test_check_etf_flags_perturbation():
    ang = 2.0 * np.pi * np.arange(3) / 3.0
    phi = np.vstack([np.cos(ang), np.sin(ang)])
    phi[0, 0] += 1e-6
    report = check_etf(phi, tol=1e-10)
    assert not report.verdict
    assert report.max_norm_dev > 1e-10


def test_check_etf_icosahedral_pair():
    frame = assemble_2circulant(icosahedral_pair())
    report = check_etf(frame, tol=1e-12)
    assert report.verdict
    assert abs(report.gamma - 1.0 / math.sqrt(5.0)) < 1e-15


def test_check_etf_single_unit_vector():
    report = check_etf(np.array([[1.0]]), tol=1e-12)
    assert report.verdict
    assert report.gamma == 0.0
    assert report.max_equi_dev == 0.0
    with pytest.raises(InvalidArgumentError):
        check_etf(np.zeros((3, 2)))


def test_signature_round_trip_2x4():
    # 4x4 signature with S^2 = 3I, Gaussian-integer entries
    s = np.array(
        [
            [0, 1, 1, -1j],
            [1, 0, -1j, 1],
            [1, 1j, 0, -1],
            [1j, 1, -1, 0],
        ],
        dtype=complex,
    )
    assert np.array_equal(s @ s, 3 * np.eye(4, dtype=complex))
    gram = gram_of_signature(s, 2)
    extract = signature_of_gram(gram)
    assert abs(extract.gamma - welch_gamma(2, 4)) < 1e-12
    assert np.max(np.abs(extract.signature - s)) < 1e-10
    frame = frame_from_gram(gram, 2)
    assert check_etf(frame, tol=1e-10).verdict


def test_signature_of_gram_rejects_degenerates():
    with pytest.raises(InvalidArgumentError):
        signature_of_gram(np.eye(1))
    with pytest.raises(NotEquiangularError):
        signature_of_gram(np.eye(3))  # zero off-diagonal
    g = np.array([[1.0, 0.5, 0.1], [0.5, 1.0, 0.5], [0.1, 0.5, 1.0]])
    with pytest.raises(NotEquiangularError):
        signature_of_gram(g)  # moduli not constant
    with pytest.raises(NotEquiangularError):
        signature_of_gram(np.eye(2) * 2.0)  # diagonal off one
    with pytest.raises(InvalidArgumentError):
        signature_of_gram(np.array([[1.0, 1.0], [-1.0, 1.0]]))  # not Hermitian


def test_gram_of_signature_checks_quadratic_identity():
    s = np.array([[0.0, 1.0], [1.0, 0.0]])
    # n = 2d = 2 would need S^2 = I; this S satisfies it, d=1 works
    gram = gram_of_signature(s, 1)
    assert np.array_equal(gram, np.ones((2, 2)))
    # within hermitian_eigen's 1e-8 and the spectrum's 1e-6, but G must be
    # Hermitian to 1e-10
    with pytest.raises(InvalidArgumentError, match="Hermitian"):
        gram_of_signature(s + np.array([[0.0, 1e-9], [0.0, 0.0]]), 1)
    bad = np.array(
        [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]], dtype=complex
    )
    with pytest.raises(InvalidSignatureError):
        gram_of_signature(bad, 2)  # S^2 != 3I


def test_gram_of_signature_spectrum_failure_reports_residuals():
    # conference-like S with wrong d: spectrum test must fail
    s = np.array(
        [
            [0, 1, 1, -1j],
            [1, 0, -1j, 1],
            [1, 1j, 0, -1],
            [1j, 1, -1, 0],
        ],
        dtype=complex,
    )
    with pytest.raises(InvalidSignatureError) as err:
        gram_of_signature(s, 3)
    assert err.value.residuals is not None


def test_frame_from_gram_identity_and_rank1():
    phi = frame_from_gram(np.eye(3), 3)
    assert check_etf(phi, tol=1e-12).max_norm_dev < 1e-12
    ones = np.ones((3, 3)) / 1.0
    phi1 = frame_from_gram(ones, 1)
    assert phi1.shape == (1, 3)
    assert np.max(np.abs(phi1.conj().T @ phi1 - ones)) < 1e-10


def test_frame_from_gram_rank_mismatch():
    with pytest.raises(InvalidArgumentError):
        frame_from_gram(np.eye(3), 2)  # rank 3 > 2
    g = np.ones((3, 3))
    with pytest.raises(InvalidArgumentError):
        frame_from_gram(g, 2)  # rank 1 < 2
    with pytest.raises(InvalidArgumentError):
        frame_from_gram(-np.eye(2), 1)  # not PSD


def test_naimark_complement():
    s = np.array([[0.0, 1.0], [1.0, 0.0]])
    ns = naimark_complement_signature(s)
    assert np.array_equal(ns, -s)
    assert np.array_equal(naimark_complement_signature(ns), s)
    with pytest.raises(InvalidArgumentError):
        naimark_complement_signature(np.eye(2))  # nonzero diagonal


def test_naimark_rank_split():
    s = np.array(
        [
            [0, 1, 1, -1j],
            [1, 0, -1j, 1],
            [1, 1j, 0, -1],
            [1j, 1, -1, 0],
        ],
        dtype=complex,
    )
    g1 = gram_of_signature(s, 2)
    g2 = gram_of_signature(-s, 2)
    r1 = np.linalg.matrix_rank(g1, tol=1e-8)
    r2 = np.linalg.matrix_rank(g2, tol=1e-8)
    assert r1 + r2 == 4


def test_circulant_layout_frozen():
    c = circulant([1.0, 2.0, 3.0])
    expect = np.array([[1, 3, 2], [2, 1, 3], [3, 2, 1]], dtype=complex)
    assert np.array_equal(c, expect)


def test_circulant_of_a_stack_is_the_stack_of_circulants():
    gens = np.arange(12.0).reshape(2, 2, 3) + 1j
    stacked = circulant(gens)
    assert stacked.shape == (2, 2, 3, 3)
    for i in range(2):
        for j in range(2):
            assert np.array_equal(stacked[i, j], circulant(gens[i, j]))


@pytest.mark.parametrize("lead", [(), (2,), (8,), (3, 2)])
def test_lag_windows_match_a_modular_index(lead):
    rng = np.random.default_rng(len(lead))
    for d in range(1, 13):
        rows = rng.standard_normal(lead + (d,))
        plus, minus = lag_windows(rows)
        lag, col = np.arange(d)[:, None], np.arange(d)
        # oracle[j, ..., l] = rows[..., index[j, l]]
        oracle = lambda index: np.moveaxis(rows[..., index], -2, 0)
        assert plus.shape == minus.shape == (d,) + lead + (d,)
        assert np.array_equal(plus, oracle((col + lag) % d))
        assert np.array_equal(minus, oracle((col - lag) % d))


def test_circulant_is_a_new_array_equal_to_the_modular_gather():
    rng = np.random.default_rng(5)
    for d in range(1, 91):
        for lead in [(), (2,), (3, 2)]:
            gen = rng.standard_normal(lead + (d,)) + 1j * rng.standard_normal(lead + (d,))
            c = circulant(gen)
            want = gen[..., (np.arange(d)[:, None] - np.arange(d)) % d]
            assert c.flags.writeable and c.flags.c_contiguous and not np.shares_memory(c, gen)
            assert c.shape == want.shape and c.tobytes() == want.tobytes()


def test_assemble_identity_pair():
    e0 = np.array([1.0, 0.0])
    frame = assemble_2circulant(CirculantPair(2, e0, e0))
    assert np.array_equal(frame, np.hstack([np.eye(2), np.eye(2)]))
    with pytest.raises(InvalidArgumentError):
        assemble_2circulant(np.eye(2))


def test_assemble_commutes_with_rotation():
    pair = icosahedral_pair()
    rot = CirculantPair(3, np.roll(pair.x, 1), np.roll(pair.y, 1))
    a = assemble_2circulant(pair)
    b = assemble_2circulant(rot)
    # rotating both generators permutes columns inside each block
    cols_a = {tuple(np.round(a[:, j], 12)) for j in range(6)}
    cols_b = {tuple(np.round(b[:, j], 12)) for j in range(6)}
    assert cols_a == cols_b


def test_circulant_pair_validation_and_json():
    with pytest.raises(InvalidArgumentError):
        CirculantPair(3, np.zeros(2), np.zeros(3))
    pair = icosahedral_pair()
    back = CirculantPair.from_obj(pair.to_obj())
    assert back.d == 3
    assert np.array_equal(back.x, pair.x)
    assert np.array_equal(back.y, pair.y)
