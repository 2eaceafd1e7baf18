import numpy as np
import pytest

from etfforge.errors import (
    InvalidArgumentError,
    RankDeficiencyError,
)
from etfforge.linalg import (
    as_array,
    dft_matrix,
    gaussian_signature_defect,
    hermitian_eigen,
    op_norm_inf,
    pseudoinverse,
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
        t = pseudoinverse(a)
        assert t.shape == (m, n)
        assert np.max(np.abs(a @ t - np.eye(n))) < 1e-8


def test_pseudoinverse_refuses_tall():
    rng = np.random.default_rng(9)
    with pytest.raises(InvalidArgumentError, match="wide"):
        pseudoinverse(rng.standard_normal((9, 4)))
    t = pseudoinverse(rng.standard_normal((4, 4)))  # square is still wide enough
    assert t.shape == (4, 4)


def test_pseudoinverse_rank_deficiency_reports_sv():
    a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])  # rank 1
    with pytest.raises(RankDeficiencyError) as err:
        pseudoinverse(a)
    assert err.value.smallest_sv < 1e-12
    with pytest.raises(InvalidArgumentError):
        pseudoinverse(np.zeros((0, 3)))


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


def test_as_array_unwraps_and_validates():
    a = np.eye(2, dtype=complex)
    assert as_array(a) is a
    assert as_array([[1, 2]]).shape == (1, 2)
    assert as_array([[1, 2]]).dtype == complex
    with pytest.raises(InvalidArgumentError):
        as_array([1, 2, 3])
