import hashlib
import math

import numpy as np
import pytest

from etfforge import galois
from etfforge.constructions import (
    ConferenceGraph,
    ConferenceMatrix,
    appendix_line_reps,
    double_conference_graph,
    double_renes_strohmer_signature,
    double_signature,
    doubling_coefficients,
    family_3x6,
    is_odd_prime_power,
    line_system_conference,
    paley_conference,
    paley_graph,
    planar_difference_set,
    renes_strohmer_complement_signature,
    renes_strohmer_gram,
    steiner_circulant,
    symplectic_conference,
    synthesize_doubled_frame,
    table_dispatch,
    zauner_2x4_signature,
)
from etfforge.errors import ConstructionError, InvalidArgumentError
from etfforge.frames import (
    CirculantPair,
    assemble_2circulant,
    check_etf,
    frame_from_gram,
    gram_of_signature,
)
from etfforge.harmonic import family_signature
from etfforge.linalg import dft_matrix


def test_is_odd_prime_power():
    for n in [3, 5, 7, 9, 25, 27, 81, 243, 293]:
        assert is_odd_prime_power(n)
    for n in [0, 1, 2, 4, 8, 15, 21, 45, 100]:
        assert not is_odd_prime_power(n)


def test_paley_graph_5_frozen():
    g = paley_graph(5)
    # squares mod 5 are {1, 4}: circulant with first row 0 1 0 0 1
    assert np.array_equal(g.adjacency[0], np.array([0, 1, 0, 0, 1]))
    assert np.array_equal(g.adjacency, g.adjacency.T)


@pytest.mark.parametrize("v", [5, 9, 13, 17, 25])
def test_paley_graph_adjacency_algebra_integer_exact(v):
    g = paley_graph(v)
    a = g.adjacency.astype(object)  # exact integer products
    eye = np.eye(v, dtype=object)
    b = np.ones((v, v), dtype=object) - eye - a
    assert np.array_equal(4 * (a @ a), (2 * v - 2) * eye + (v - 5) * a + (v - 1) * b)
    assert np.array_equal(4 * (a @ b), (v - 1) * (a + b))
    assert np.array_equal(4 * (b @ b), (2 * v - 2) * eye + (v - 1) * a + (v - 5) * b)


def test_paley_graph_rejects_bad_orders():
    with pytest.raises(InvalidArgumentError):
        paley_graph(7)  # 3 mod 4
    with pytest.raises(InvalidArgumentError):
        paley_graph(15)


def test_paley_conference_5_frozen():
    c = paley_conference(5)
    expect = np.array(
        [
            [0, 1, 1, 1, 1, 1],
            [1, 0, 1, -1, -1, 1],
            [1, 1, 0, 1, -1, -1],
            [1, -1, 1, 0, 1, -1],
            [1, -1, -1, 1, 0, 1],
            [1, 1, -1, -1, 1, 0],
        ],
        dtype=np.int64,
    )
    assert np.array_equal(c.data, expect)
    assert c.symmetry == "symmetric"


@pytest.mark.parametrize("q", [3, 5, 7, 9, 13, 25, 27])
def test_paley_conference_exact_identity(q):
    c = paley_conference(q)
    n = q + 1
    # constructor enforces C^T C = q I exactly; re-assert over plain ints
    assert np.array_equal(
        c.data.T @ c.data, q * np.eye(n, dtype=np.int64)
    )
    if q % 4 == 1:
        assert c.symmetry == "symmetric"
        assert np.array_equal(c.data, c.data.T)
    else:
        assert c.symmetry == "skew"
        assert np.array_equal(c.data, -c.data.T)


@pytest.mark.parametrize("q", [3, 5, 9])
def test_symplectic_conference_matches_paley_up_to_reindex(q):
    p, k = galois.prime_power_decomposition(q)
    field = galois.make_field(p, k)
    reps = appendix_line_reps(field)
    c_app = symplectic_conference(q, reps).data
    c_pal = paley_conference(q).data
    n = q + 1
    # move the infinite point to the front
    perm = [n - 1] + list(range(n - 1))
    p_mat = np.zeros((n, n), dtype=np.int64)
    for i, j in enumerate(perm):
        p_mat[i, j] = 1
    moved = p_mat @ c_app @ p_mat.T
    if q % 4 == 1:
        assert np.array_equal(moved, c_pal)
    else:
        d = np.eye(n, dtype=np.int64)
        d[0, 0] = -1
        assert np.array_equal(moved, d @ c_pal.T @ d)


def test_symplectic_conference_rejects_dependent_reps():
    with pytest.raises(InvalidArgumentError, match="span the same line"):
        symplectic_conference(5, [(1, 1), (2, 2)])
    with pytest.raises(InvalidArgumentError, match="zero vector"):
        symplectic_conference(5, [(0, 0)])
    with pytest.raises(InvalidArgumentError, match="0..q-1"):
        symplectic_conference(5, [(1, 0), (5, 1)])
    with pytest.raises(InvalidArgumentError, match="0..q-1"):
        symplectic_conference(5, [(1, 0), (-1, 1)])


# sha256 of the outputs below as the polynomial-residue field code
# produced them; the table-based field must number elements, pick the
# generator and evaluate characters exactly as it did.
PINNED_FIELD_OUTPUTS = "aa5d3fbce0498834ffce0592045e6588df3254909dccbdb235b17cd7ab6ba5ae"


def test_field_constructions_match_pinned_digest():
    qs = [q for q in range(3, 294, 2) if is_odd_prime_power(q)]
    h = hashlib.sha256()
    for q in qs:
        h.update(paley_conference(q).data.tobytes())
    for q in qs:
        if q % 4 == 1:
            h.update(paley_graph(q).adjacency.tobytes())
    for family in ("paley_plus", "double_paley_plus"):
        for q in qs:
            if q <= 81:
                re, im, witness = family_signature(family, q)
                h.update(re.tobytes())
                h.update(im.tobytes())
                h.update(np.asarray(witness.sigma, dtype=np.int64).tobytes())
                h.update(np.asarray(witness.c, dtype=complex).tobytes())
    assert h.hexdigest() == PINNED_FIELD_OUTPUTS


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_halfturn_signature_square_identity(q):
    re, im, _ = family_signature("paley_plus", q)
    n = q + 1
    s = re + 1j * im
    assert s.shape == (n, n)
    assert np.max(np.abs(s @ s - q * np.eye(n))) < 1e-10
    if q % 4 == 1:
        assert np.max(np.abs(s.imag)) == 0.0  # omega = 1
    else:
        assert np.max(np.abs(s.real)) == 0.0  # omega = i
    gram = gram_of_signature(s, (q + 1) // 2)
    frame = frame_from_gram(gram, (q + 1) // 2)
    assert check_etf(frame, tol=1e-10).verdict


@pytest.mark.parametrize("q", [3, 5])
def test_fullturn_signature_square_identity(q):
    re, im, _ = family_signature("double_paley_plus", q)
    n = 2 * (q + 1)
    s = re + 1j * im
    assert s.shape == (n, n)
    assert np.max(np.abs(s @ s - (n - 1) * np.eye(n))) < 1e-9
    gram = gram_of_signature(s, (q + 1))
    frame = frame_from_gram(gram, q + 1)
    assert check_etf(frame, tol=1e-9).verdict


def test_line_system_conference_matches_tag():
    sys5 = galois.build_line_system(5, "halfturn")
    c = line_system_conference(sys5)
    assert c.symmetry == "symmetric"
    assert np.array_equal(c.data.T @ c.data, 5 * np.eye(6, dtype=np.int64))


def test_double_signature_validates():
    s = zauner_2x4_signature()
    with pytest.raises(InvalidArgumentError):
        double_signature(s, 2, 4, epsilon=2)
    with pytest.raises(InvalidArgumentError):
        double_signature(s, 1, 4, epsilon=1)  # n - 2d = 2
    with pytest.raises(InvalidArgumentError):
        double_signature(s, 2, 5, epsilon=1)  # shape disagrees
    # diag(1, -1) squares to I, so the doubled matrix squares to 3I, but it
    # is no signature: the refusal comes after the square identity check
    with pytest.raises(InvalidArgumentError, match="diagonal"):
        double_signature(np.diag([1.0, -1.0]), 1, 2, epsilon=1)


def test_double_signature_square_identity():
    # double the 2x4 signature (n - 2d = 0): 8x8 with S^2 = 7I
    s = zauner_2x4_signature()
    out = double_signature(s, 2, 4, +1)
    assert out.shape == (8, 8)
    assert np.max(np.abs(out @ out - 7 * np.eye(8))) < 1e-9
    # n - 2d = 0 makes beta = epsilon i, injected on the coupling diagonal
    out_m = double_signature(s, 2, 4, -1)
    assert abs(out[0, 4] - 1j) < 1e-12
    assert abs(out_m[0, 4] + 1j) < 1e-12
    off_diag = ~np.eye(4, dtype=bool)
    assert np.max(np.abs((out_m - out)[:4, 4:][off_diag])) < 1e-12


@pytest.mark.parametrize("v", [5, 9, 13])
def test_double_conference_graph_square_identity(v):
    g = paley_graph(v)
    for eps in (1, -1):
        s = double_conference_graph(g, eps)
        assert np.max(np.abs(s @ s - (2 * v - 1) * np.eye(2 * v))) < 1e-9
    with pytest.raises(InvalidArgumentError):
        double_conference_graph(g, 0)


def test_double_conference_graph_beta_position():
    # v=5, eps=1: x = 1/2, beta = exp(i pi/3) sits at adjacency positions
    g = paley_graph(5)
    s = double_conference_graph(g, 1)
    beta = np.exp(1j * np.pi / 3)
    s12 = s[:5, 5:]
    assert abs(s12[0, 1] - beta) < 1e-12          # 1 is a square mod 5
    assert abs(s12[0, 2] - np.conj(beta)) < 1e-12  # 2 is not
    assert abs(s12[0, 0] - 1.0) < 1e-12            # epsilon on the diagonal


def test_doubling_coefficients_frozen_v5():
    a, b, c, d, e, f = doubling_coefficients(5, 1)
    s215 = math.sqrt(2.0 / 15.0)
    assert abs(a - (0.2 + 2.0 * s215)) < 1e-12
    assert abs(b - 0.2) < 1e-12
    assert abs(c - (0.2 - s215)) < 1e-12
    assert abs(d - (0.2 - np.exp(2j * np.pi / 3) * s215)) < 1e-12
    assert abs(e - (6.0 - np.sqrt(-15.0 * (13.0 + 3j * math.sqrt(3.0)))) / 30.0) < 1e-12
    assert abs(f - (0.2 - 1j / math.sqrt(10.0))) < 1e-12
    with pytest.raises(InvalidArgumentError):
        doubling_coefficients(5, 0)


def test_synthesize_doubled_frame_v5_is_circulant_pair():
    pair = synthesize_doubled_frame(paley_graph(5), 1)
    assert isinstance(pair, CirculantPair)
    frame = assemble_2circulant(pair)
    report = check_etf(frame, tol=1e-12)
    assert report.verdict
    assert abs(report.gamma - 1.0 / 3.0) < 1e-15


def test_synthesize_doubled_frame_v9_is_plain_frame():
    # GF(9) adjacency is not circulant in coefficient-lex order
    out = synthesize_doubled_frame(paley_graph(9), 1)
    assert isinstance(out, np.ndarray)
    assert check_etf(out, tol=1e-10).verdict


def test_renes_strohmer_gram_shape_and_rank():
    for q in [3, 7, 11]:
        g = renes_strohmer_gram(q)
        assert g.shape == (q, q)
        d = (q + 1) // 2
        frame = frame_from_gram(g, d)
        assert check_etf(frame, tol=1e-10).verdict
    with pytest.raises(InvalidArgumentError):
        renes_strohmer_gram(5)


def test_renes_strohmer_complement_round_trip():
    q = 7
    s = renes_strohmer_complement_signature(q)
    gram = gram_of_signature(s, (q - 1) // 2)
    frame = frame_from_gram(gram, (q - 1) // 2)
    assert check_etf(frame, tol=1e-10).verdict


def test_double_renes_strohmer_signature():
    q = 7
    s = double_renes_strohmer_signature(q, 1)
    assert s.shape == (2 * q, 2 * q)
    assert np.max(np.abs(s @ s - (2 * q - 1) * np.eye(2 * q))) < 1e-9
    frame = frame_from_gram(gram_of_signature(s, q), q)
    assert check_etf(frame, tol=1e-9).verdict


def test_planar_difference_sets_frozen():
    assert planar_difference_set(1) == [0, 1]
    assert planar_difference_set(2) == [0, 1, 3]
    assert planar_difference_set(3) == [0, 1, 3, 9]
    assert planar_difference_set(4) == [0, 1, 4, 14, 16]
    assert planar_difference_set(5) == [0, 1, 3, 8, 12, 18]
    with pytest.raises(InvalidArgumentError):
        planar_difference_set(6)
    with pytest.raises(InvalidArgumentError):
        planar_difference_set(0)


def test_steiner_circulant_7x28():
    k = 3
    h = dft_matrix(k + 1) * math.sqrt(k + 1)
    frame = steiner_circulant(2, h, [0, 1, 3])
    assert frame.shape == (7, 28)
    assert check_etf(frame, tol=1e-10).verdict
    # every column touches exactly k coordinates
    supports = np.sum(np.abs(frame) > 1e-12, axis=0)
    assert np.all(supports == k)


def test_steiner_circulant_3x9():
    h = dft_matrix(3) * math.sqrt(3)
    frame = steiner_circulant(1, h, [0, 1])
    report = check_etf(frame, tol=1e-10)
    assert report.verdict
    assert abs(report.gamma - 0.5) < 1e-15


def test_steiner_circulant_rejects_bad_inputs():
    with pytest.raises(InvalidArgumentError):
        steiner_circulant(2, np.eye(4), [0, 1, 3])  # not unimodular
    ones = np.ones((4, 4))
    with pytest.raises(InvalidArgumentError):
        steiner_circulant(2, ones, [0, 1, 3])  # H* H != 4I
    h = dft_matrix(4) * 2.0
    with pytest.raises(ConstructionError):
        steiner_circulant(2, h, [0, 1, 2])  # not planar
    with pytest.raises(InvalidArgumentError):
        steiner_circulant(2, h, [0, 1, 1])  # repeated residue


def test_family_3x6_alpha_one_frozen_row():
    s = family_3x6(1.0)
    assert np.array_equal(s[0], np.array([0, 1, 1, 1, 1, -1], dtype=complex))
    assert np.max(np.abs(s @ s - 5 * np.eye(6))) < 1e-10


def test_family_3x6_triple_products_separate_members():
    # generic members are not switching equivalent: a closed triple product
    # of signature entries distinguishes them
    s1 = family_3x6(1.0)
    s2 = family_3x6(np.exp(2j * np.pi / 7))
    t1 = s1[0, 1] * s1[1, 2] * s1[2, 0]
    t2 = s2[0, 1] * s2[1, 2] * s2[2, 0]
    assert abs(t1 - t2) > 1e-3


def test_family_3x6_pipeline_alpha_i():
    gram = gram_of_signature(family_3x6(1j), 3)
    frame = frame_from_gram(gram, 3)
    assert check_etf(frame, tol=1e-10).verdict
    with pytest.raises(InvalidArgumentError):
        family_3x6(2.0)


def test_zauner_2x4_signature_exact():
    s = zauner_2x4_signature()
    assert s[0, 3] == -1j
    assert np.array_equal(s @ s, 3.0 * np.eye(4, dtype=complex))
    frame = frame_from_gram(gram_of_signature(s, 2), 2)
    assert check_etf(frame, tol=1e-12).verdict


def test_table_dispatch_frozen_rows():
    assert table_dispatch(2) == ["G_3+1"]
    assert table_dispatch(4) == ["G_7+1", "2·(G_3+1)"]
    assert table_dispatch(8) == ["2·(G_7+1)"]
    assert table_dispatch(13) == ["G_25+1", "2·G_13"]
    assert table_dispatch(17) == ["2·G_17"]
    assert table_dispatch(77) == []
    assert table_dispatch(122) == ["G_243+1", "2·(G_121+1)"]
    assert table_dispatch(1) == []
    with pytest.raises(InvalidArgumentError):
        table_dispatch(0)
    with pytest.raises(InvalidArgumentError):
        table_dispatch(1001)


@pytest.mark.parametrize("n", [5, 64, 301])
def test_float64_products_of_sign_matrices_match_int64(n):
    # the conference and S^2 checks multiply {-1, 0, 1} matrices in
    # float64 BLAS; the int64 product is the oracle
    rng = np.random.default_rng(n)
    ones = np.ones((n, n), dtype=np.int64)  # partial sums reach n
    for a in (rng.integers(-1, 2, size=(n, n)), ones, -ones):
        b = rng.integers(-1, 2, size=(n, n))
        af, bf = a.astype(np.float64), b.astype(np.float64)
        assert np.array_equal(af.T @ af, a.T @ a)
        assert np.array_equal(af @ af, a @ a)
        assert np.array_equal(af @ bf - bf @ af, a @ b - b @ a)


def test_conference_checks_reject_one_changed_entry():
    c = paley_conference(13).data.copy()
    ConferenceMatrix(n=14, data=c, symmetry="none")
    c[3, 5] = -c[3, 5]
    with pytest.raises(ConstructionError):
        ConferenceMatrix(n=14, data=c, symmetry="none")
    c[3, 5] = np.iinfo(np.int64).min  # np.abs wraps here; the bound check must not
    with pytest.raises(InvalidArgumentError, match="entries"):
        ConferenceMatrix(n=14, data=c, symmetry="none")
    a = paley_graph(13).adjacency.copy()
    ConferenceGraph(v=13, adjacency=a)
    a[2, 7] = a[7, 2] = 1 - a[2, 7]
    with pytest.raises(InvalidArgumentError, match="strong regularity"):
        ConferenceGraph(v=13, adjacency=a)
