import itertools

import numpy as np
import pytest

from etfforge.certify import _UPPER_INVERSE_BASE, _upper_inverse, pseudoinverse, right_inverse
from etfforge.errors import (
    CertificationError,
    InvalidArgumentError,
)
from etfforge.harmonic import family_signature
from etfforge.rigor import IntervalMatrix
from etfforge.linalg import (
    as_array,
    dft_matrix,
    gaussian_signature_defect,
    hermitian_eigen,
    op_norm_inf,
    require_signature,
)


def test_dft_matrix_is_unitary():
    for m in [1, 2, 3, 4, 7, 12]:
        f = dft_matrix(m)
        assert np.max(np.abs(f @ f.conj().T - np.eye(m))) < 1e-12


def test_dft_matrix_m4_frozen_entries():
    f = dft_matrix(4) * 2.0
    expect = np.array(
        [
            [1, 1, 1, 1],
            [1, -1j, -1, 1j],
            [1, -1, 1, -1],
            [1, 1j, -1, -1j],
        ],
        dtype=complex,
    )
    assert np.max(np.abs(f - expect)) < 1e-14
    with pytest.raises(InvalidArgumentError):
        dft_matrix(0)


def test_hermitian_eigen_reconstructs():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    a = a + a.conj().T
    w, v = hermitian_eigen(a)
    assert np.all(np.diff(w) >= 0)  # ascending order
    assert np.max(np.abs(v @ np.diag(w) @ v.conj().T - a)) < 1e-10
    assert np.max(np.abs(v.conj().T @ v - np.eye(6))) < 1e-12


def test_hermitian_eigen_rejects_far_from_hermitian():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(InvalidArgumentError):
        hermitian_eigen(a)
    # within tol it symmetrizes instead
    b = np.array([[1.0, 0.5 + 1e-10], [0.5, 2.0]])
    w, v = hermitian_eigen(b)
    assert w.shape == (2,) and v.shape == (2, 2)


def test_pseudoinverse_wide_right_identity():
    rng = np.random.default_rng(8)
    for trial in range(5):
        n, m = 6, 11
        a = rng.standard_normal((n, m))
        t, r_min = pseudoinverse(a)
        assert t.shape == (m, n)
        assert np.max(np.abs(a @ t - np.eye(n))) < 1e-8
        sv = np.linalg.svd(a, compute_uv=False)
        assert sv[-1] - 1e-13 * sv[0] <= r_min <= sv[0] * (1 + 1e-12)


def test_pseudoinverse_refuses_tall():
    rng = np.random.default_rng(9)
    with pytest.raises(InvalidArgumentError, match="wide"):
        pseudoinverse(rng.standard_normal((9, 4)))
    t, _ = pseudoinverse(rng.standard_normal((4, 4)))  # square is still wide enough
    assert t.shape == (4, 4)


def test_pseudoinverse_rank_deficiency_reports_sv():
    a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])  # rank 1
    with pytest.raises(CertificationError) as err:
        pseudoinverse(a)
    assert err.value.reason == "rank"
    assert err.value.detail < 1e-12
    with pytest.raises(InvalidArgumentError):
        pseudoinverse(np.zeros((0, 3)))


def test_pseudoinverse_rank_guard_reads_the_whole_r_diagonal():
    # a repeated first row: the QR of A^T meets the dependence at its
    # second column, so R_22 is round-off while R_33 is of order one
    rng = np.random.default_rng(12)
    a = rng.standard_normal((3, 5))
    a[1] = a[0]
    with pytest.raises(CertificationError, match="rank deficient") as err:
        pseudoinverse(a)
    assert err.value.reason == "rank"
    assert err.value.detail < 1e-12


# the bound of the triangular inverse tests: max |R X - I| <= n u cond_2(R)
# for X = _upper_inverse(R); the largest ratio seen on their inputs is 0.21
_U = 2.0 ** -53


def _assert_upper_inverse(r):
    n = r.shape[0]
    x = _upper_inverse(r)
    assert np.array_equal(np.tril(x, -1), np.zeros((n, n)))
    assert np.max(np.abs(r @ x - np.eye(n))) <= n * _U * np.linalg.cond(r)
    return x


@pytest.mark.parametrize("ratio", [1e-12, 1e-10, 1e-9, 1e-7, 1e-6, 1e-4, 1e-2])
def test_pseudoinverse_rank_guard_against_svd_oracle(ratio):
    # random wide matrices with singular values geomspace(1, ratio) times a
    # random scale; the SVD is the oracle.  Above sigma_min / sigma_max =
    # 1e-8 every one gets a right inverse; a refusal reports |R_nn|, which
    # is at least sigma_min.  right_inverse owns the 1e-8 residual test
    # that refuses a T, so it is the function called here; the triangular
    # inverse of each R is checked on the same inputs.
    rng = np.random.default_rng(round(-np.log10(ratio)))
    for trial in range(20):
        n = int(rng.integers(2, 30))
        m = n + int(rng.integers(0, 30))
        u = np.linalg.qr(rng.standard_normal((n, n)))[0]
        v = np.linalg.qr(rng.standard_normal((m, n)))[0]
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        a = (u * (scale * np.geomspace(1.0, ratio, n))) @ v.T
        sv = np.linalg.svd(a, compute_uv=False)
        _assert_upper_inverse(np.linalg.qr(a.T)[1])
        try:
            t, _ = right_inverse(IntervalMatrix.from_point(a))
        except CertificationError as err:
            assert err.reason == "rank"
            assert sv[-1] <= 1e-8 * sv[0]
            assert err.detail >= sv[-1] - 1e-13 * sv[0]
            continue
        assert np.max(np.abs(a @ t - np.eye(n))) <= 1e-8


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130, 251])
@pytest.mark.parametrize("ratio", [1.0, 1e-6, 1e-10])
def test_upper_inverse_against_lu_inverse(n, ratio):
    # R of the QR of a matrix with singular values geomspace(1, ratio), and
    # of a Gaussian one; below the base case the bits are np.linalg.inv's
    assert _UPPER_INVERSE_BASE == 64
    rng = np.random.default_rng(n)
    u = np.linalg.qr(rng.standard_normal((n, n)))[0]
    v = np.linalg.qr(rng.standard_normal((n, n)))[0]
    for a in ((u * np.geomspace(1.0, ratio, n)) @ v.T, rng.standard_normal((n, n))):
        r = np.linalg.qr(a)[1]
        x = _assert_upper_inverse(r)
        lu = np.linalg.inv(r)
        if n < _UPPER_INVERSE_BASE:
            assert np.array_equal(x, lu)
        assert np.max(np.abs(x - lu)) <= n * _U * np.linalg.cond(r) * np.max(np.abs(lu))


def test_right_inverse_refuses_a_t_that_misses_identity(monkeypatch):
    # the residual refusal reads S T off the one midpoint-radius product
    # that also bounds A; at a point S, A exceeds ||S T - I|| by rounding only
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 9))
    t, a_bound = right_inverse(IntervalMatrix.from_point(a))
    assert np.max(np.abs(a @ t - np.eye(5))) < 1e-12
    norm = np.max(np.sum(np.abs(a @ t - np.eye(5)), axis=1))
    assert norm <= a_bound < norm + 1e-14
    exact_inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda r: exact_inv(r) * (1.0 + 1e-6))
    with pytest.raises(CertificationError, match="right inverse residual") as err:
        right_inverse(IntervalMatrix.from_point(a))
    assert err.value.reason == "rank"
    assert err.value.detail == pseudoinverse(a)[1]


def test_op_norm_inf_frozen():
    assert op_norm_inf(np.array([[1.0, -2.0], [3.0, 4.0]])) == 7.0
    assert op_norm_inf(np.array([[3j]])) == 3.0
    assert op_norm_inf(np.zeros((2, 0))) == 0.0


def test_require_signature_refuses_non_signatures():
    require_signature(np.array([[0, 1], [1, 0]], dtype=complex))
    require_signature(np.array([[0, 1j], [-1j, 0]]))
    with pytest.raises(InvalidArgumentError, match="moduli"):
        require_signature(np.array([[0.0, 2.0], [2.0, 0.0]]))
    with pytest.raises(InvalidArgumentError, match="diagonal"):
        require_signature(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(InvalidArgumentError, match="Hermitian"):
        require_signature(np.array([[0.0, 1.0], [1j, 0.0]]))
    with pytest.raises(InvalidArgumentError, match="square"):
        require_signature(np.zeros((2, 3)))


def _int64_pair(s):
    s = np.array(s)
    return s.real.astype(np.int64), s.imag.astype(np.int64)


@pytest.mark.parametrize("s, defect", [
    ([[0, 1], [1, 0]], None),
    ([[0, 1j], [-1j, 0]], None),
    ([[0, 1, 1, 1], [1, 0, 1j, -1j], [1, -1j, 0, 1j], [1, 1j, -1j, 0]], None),
    ([[0, 2], [2, 0]], "entries in {-1, 0, 1}"),
    ([[0, 1 + 1j], [1 - 1j, 0]], "zero diagonal and unimodular entries"),
    ([[1, 1], [1, -1]], "zero diagonal and unimodular entries"),
    ([[0, 0], [0, 0]], "zero diagonal and unimodular entries"),
    ([[0, 1j], [1j, 0]], "hermiticity"),
    ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], "S^2 = (n-1) I"),
])
def test_gaussian_signature_defect_names_the_first_failing_identity(s, defect):
    assert gaussian_signature_defect(*_int64_pair(s)) == defect


def test_gaussian_signature_defect_refuses_entries_where_abs_wraps():
    re, im = _int64_pair([[0, 1], [1, 0]])
    re[0, 0] = im[0, 0] = np.iinfo(np.int64).min
    assert gaussian_signature_defect(re, im) == "entries in {-1, 0, 1}"


def _four_product_defect(re, im):
    """gaussian_signature_defect with S^2 formed from four products: the
    oracle for the three-product form."""
    defect = gaussian_signature_defect(re, im)
    if defect not in (None, "S^2 = (n-1) I"):
        return defect  # an earlier identity, which forms no product
    n = re.shape[0]
    fre, fim = re.astype(np.float64), im.astype(np.float64)
    if np.any(fre @ fre - fim @ fim != (n - 1) * np.eye(n)) or np.any(fre @ fim + fim @ fre):
        return "S^2 = (n-1) I"
    return None


def _hermitian(n, upper):
    s = np.zeros((n, n), dtype=complex)
    s[np.triu_indices(n, 1)] = upper
    return _int64_pair(s + s.conj().T)


def test_gaussian_signature_defect_matches_four_products():
    units = np.array([1, -1, 1j, -1j])
    cases = [_hermitian(4, units[list(idx)])  # every unimodular one of order 4
             for idx in itertools.product(range(4), repeat=6)]
    rng = np.random.default_rng(0)
    for n in range(2, 13):
        for _ in range(50):
            cases.append(_hermitian(n, rng.choice(np.append(units, 0), n * (n - 1) // 2,
                                                  p=[0.24, 0.24, 0.24, 0.24, 0.04])))
    re, im, _ = family_signature("double_paley_plus", 5)
    for i, j in zip(*np.triu_indices(len(re), 1)):
        for u in units:
            s = re + 1j * im
            s[i, j], s[j, i] = u, np.conj(u)
            cases.append(_int64_pair(s))
    # the imaginary part alone decides some: 144 of order 4, 6 of the family's
    im_only = 0
    for re, im in cases:
        n = re.shape[0]
        defect = gaussian_signature_defect(re, im)
        assert defect == _four_product_defect(re, im)
        im_only += defect == "S^2 = (n-1) I" and np.array_equal(
            re @ re - im @ im, (n - 1) * np.eye(n, dtype=np.int64))
    assert im_only == 150


def test_as_array_unwraps_and_validates():
    a = np.eye(2, dtype=complex)
    assert as_array(a) is a
    assert as_array([[1, 2]]).shape == (1, 2)
    assert as_array([[1, 2]]).dtype == complex
    with pytest.raises(InvalidArgumentError):
        as_array([1, 2, 3])
