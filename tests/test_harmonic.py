import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import etfforge.harmonic as harmonic
from etfforge.constructions import family_3x6, is_odd_prime_power, zauner_2x4_signature
from etfforge.errors import (
    CertificationError,
    InconsistentWitnessError,
    InvalidArgumentError,
    NumericFailureError,
    UnsupportedInputError,
)
from etfforge.frames import (
    CirculantPair,
    assemble_2circulant,
    check_etf,
    circulant,
    gram_of_signature,
    signature_of_gram,
    welch_gamma,
)
from etfforge.harmonic import (
    AutomorphismWitness,
    BlockGram,
    brute_force_automorphism_search,
    check_regular_representation,
    circulantize,
    detect_harmonic_gram,
    family_automorphism,
    family_signature,
    generators_from_blockgram,
    verify_automorphism,
)

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def icosahedral_gram():
    s = 1.0 / math.sqrt(1.0 + PHI * PHI)
    x = np.array([0.0, 1.0, PHI]) * s
    y = np.array([0.0, 1.0, -PHI]) * s
    frame = assemble_2circulant(CirculantPair(3, x, y))
    return frame.conj().T @ frame


def test_witness_validation():
    with pytest.raises(InvalidArgumentError):
        AutomorphismWitness(sigma=(0, 0, 1), c=np.ones(3))
    with pytest.raises(InvalidArgumentError):
        AutomorphismWitness(sigma=(1, 0), c=np.array([1.0, 2.0]))
    with pytest.raises(InvalidArgumentError):
        AutomorphismWitness(sigma=(1, 0), c=np.ones(3))


def test_witness_cycles_least_leader():
    w = AutomorphismWitness(sigma=(2, 3, 0, 1, 4), c=np.ones(5))
    assert w.cycles() == [[0, 2], [1, 3], [4]]
    assert w.cycle_type() == (1, 2, 2)
    assert w.n == 5


def test_verify_identity_witness_is_exact():
    g = icosahedral_gram()
    w = AutomorphismWitness(sigma=tuple(range(6)), c=np.ones(6))
    assert verify_automorphism(g, w) == 0.0
    with pytest.raises(InvalidArgumentError):
        verify_automorphism(g[:4, :4], w)


def test_verify_rejects_random_permutation():
    gram, _ = family_automorphism("paley_plus", 5)
    rng = np.random.default_rng(1)
    sigma = tuple(int(v) for v in rng.permutation(6))
    w = AutomorphismWitness(sigma=sigma, c=np.ones(6))
    assert verify_automorphism(gram, w) > 1e-2


@pytest.mark.parametrize("q", [3, 5, 7, 9, 13])
def test_family_witness_paley_plus(q):
    gram, witness = family_automorphism("paley_plus", q)
    m = (q + 1) // 2
    assert witness.cycle_type() == (m, m)
    assert verify_automorphism(gram, witness) <= 1e-10


@pytest.mark.parametrize("q", [3, 5, 7, 9, 13])
def test_family_witness_double_paley_plus(q):
    gram, witness = family_automorphism("double_paley_plus", q)
    n = q + 1
    assert witness.cycle_type() == (n, n)
    assert verify_automorphism(gram, witness) <= 1e-10
    # the orbit alternates between the two copies: sigma maps copy 0 into
    # copy 1 and back, closing after n steps
    for i in range(n):
        assert witness.sigma[i] >= n
        assert witness.sigma[n + i] < n


def test_family_witness_scalars_match_across_copies_q5():
    _, witness = family_automorphism("paley_plus", 5)
    m = 3
    for j in range(m):
        assert witness.c[j] == witness.c[m + j]


def test_family_automorphism_rejects_unknown():
    with pytest.raises(InvalidArgumentError):
        family_automorphism("mystery", 5)


def _raise(*args, **kwargs):
    raise AssertionError("float re-check reached")


@pytest.mark.parametrize("family, q", [("paley_plus", 13), ("double_paley_plus", 7)])
def test_family_automorphism_proves_without_float_checks(monkeypatch, family, q):
    for module, name in ((harmonic, "gram_of_signature"), (harmonic, "verify_automorphism"),
                         (np.linalg, "eigh")):
        monkeypatch.setattr(module, name, _raise)
    gram, witness = family_automorphism(family, q)
    re, im, _ = family_signature(family, q)
    n = re.shape[0]
    assert np.array_equal(gram, np.eye(n) + welch_gamma(n // 2, n) * (re + 1j * im))
    assert witness.cycle_type() == (n // 2, n // 2)


@pytest.mark.parametrize("family, q", [("paley_plus", 13), ("paley_plus", 7),
                                       ("double_paley_plus", 7)])
def test_family_automorphism_refuses_flipped_entry(monkeypatch, family, q):
    re, im, witness = family_signature(family, q)
    part = re if re[0, 1] else im
    part[0, 1] = -part[0, 1]
    monkeypatch.setattr(harmonic, "family_signature", lambda *args: (re, im, witness))
    with pytest.raises(CertificationError, match="hermiticity fails exactly") as err:
        family_automorphism(family, q)
    assert err.value.reason == "infeasible"


def _loop_cycle_traces(re, im, c_re, c_im, sigma, d):
    """The per-k loop of reductions that certify_exact ran before the
    array form, kept as the oracle for harmonic._cycle_traces: the sums
    tr_k for k = 1..d-1 and every element's holonomy P_d(i)."""
    rows_idx = np.arange(len(sigma))
    pos = rows_idx
    p_re = np.ones(len(sigma), dtype=np.int64)
    p_im = np.zeros(len(sigma), dtype=np.int64)
    traces = []
    for k in range(1, d + 1):
        p_re, p_im = (p_re * c_re[pos] - p_im * c_im[pos],
                      p_re * c_im[pos] + p_im * c_re[pos])
        pos = sigma[pos]
        if k < d:
            e_re = re[rows_idx, pos]
            e_im = im[rows_idx, pos]
            traces.append(complex(np.sum(p_re * e_re - p_im * e_im),
                                  np.sum(p_re * e_im + p_im * e_re)))
    return traces, p_re + 1j * p_im


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_cycle_traces_match_the_per_k_loop(d, seed):
    # random unit-scalar witnesses of cycle type d^2 over random
    # {0, +-1, +-i} matrices, which need not be signatures
    rng = np.random.default_rng(seed)
    n = 2 * d
    sigma = np.array(harmonic._random_cycle_type_permutation(n, d, rng))
    c = np.array([1, 1j, -1, -1j])[rng.integers(0, 4, n)]
    entries = np.array([0, 1, -1, 1j, -1j])[rng.integers(0, 5, (n, n))]
    re, im = entries.real.astype(np.int64), entries.imag.astype(np.int64)
    witness = AutomorphismWitness(sigma=tuple(sigma), c=c)
    assert witness.cycle_type() == (d, d)
    cycles = witness.cycles()
    traces, holonomy = harmonic._cycle_traces(re + 1j * im, c, cycles)
    want_traces, want_holonomy = _loop_cycle_traces(
        re, im, c.real.astype(np.int64), c.imag.astype(np.int64), sigma, d)
    assert traces.tolist() == want_traces
    for j, cyc in enumerate(cycles):
        assert np.all(want_holonomy[cyc] == holonomy[j])


def test_detect_harmonic_gram_icosahedral():
    g = icosahedral_gram()
    block = detect_harmonic_gram(g, 3)
    assert block.m == 3 and block.t == 2
    dev_sq, dev_tight = check_regular_representation(block)
    assert dev_sq < 1e-10 and dev_tight < 1e-10
    # per-frequency trace carries the tightness constant
    for alpha in range(3):
        assert abs(np.trace(block.frequency_components[alpha]) - 2.0) < 1e-8


def test_detect_fourier_diagonalizes_stable_blocks():
    g = icosahedral_gram()
    f = np.exp(-2j * np.pi * np.outer(np.arange(3), np.arange(3)) / 3) / math.sqrt(3)
    for i in range(2):
        for j in range(2):
            blk = g[3 * i : 3 * i + 3, 3 * j : 3 * j + 3]
            conj = f @ blk @ f.conj().T
            off = conj[~np.eye(3, dtype=bool)]
            assert np.max(np.abs(off)) < 1e-9


def test_detect_rejects_bad_inputs():
    g = icosahedral_gram()
    with pytest.raises(UnsupportedInputError):
        detect_harmonic_gram(g, 4)  # 4 does not divide 6
    with pytest.raises(UnsupportedInputError):
        detect_harmonic_gram(g, 2)  # wrong block size breaks circulance
    bad = g.copy()
    bad[0, 1] += 0.1
    bad[1, 0] += 0.1
    with pytest.raises(UnsupportedInputError):
        detect_harmonic_gram(bad, 3)


def test_detect_t1_circulant_psd():
    gen = np.array([1.0, 0.5, 0.25, 0.5])
    g = circulant(gen)
    block = detect_harmonic_gram(g, 4)
    assert block.t == 1
    comps = block.frequency_components[:, 0, 0]
    assert np.max(np.abs(comps.imag)) < 1e-12
    assert np.min(comps.real) >= -1e-10


def test_check_regular_representation_rejects_loose_gram():
    # identity gram: circulant blocks but G^2 = G != 2G
    block = detect_harmonic_gram(np.eye(4, dtype=complex), 2)
    with pytest.raises(UnsupportedInputError):
        check_regular_representation(block)


def test_check_regular_representation_rejects_bad_multiplicity():
    # hand-built frequency components with eigenvalue t twice
    m, t = 2, 2
    g = np.kron(np.eye(t), np.eye(m)) * t  # G^2 = tG and trace blocks = tI
    block = BlockGram(
        m=m, t=t, gram=g * 0 + np.kron(np.ones((t, t)), np.eye(m)),
        frequency_components=np.stack([np.eye(t) * t, np.eye(t) * t]),
    )
    with pytest.raises((NumericFailureError, UnsupportedInputError)):
        check_regular_representation(block)


def test_generators_recover_icosahedral_gram():
    g = icosahedral_gram()
    block = detect_harmonic_gram(g, 3)
    gens = generators_from_blockgram(block)
    assert gens.shape == (2, 3)
    frame = np.hstack([circulant(gens[0]), circulant(gens[1])])
    assert np.max(np.abs(frame.conj().T @ frame - g)) < 1e-8
    assert check_etf(frame, tol=1e-8).verdict


def test_generators_reject_rank_two_frequency():
    m, t = 2, 2
    comps = np.stack([np.eye(2) * 2.0, np.eye(2) * 2.0])
    g = np.kron(np.ones((2, 2)), np.eye(2))
    block = BlockGram(m=m, t=t, gram=g, frequency_components=comps)
    with pytest.raises(UnsupportedInputError):
        generators_from_blockgram(block)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 13])
def test_circulantize_families_end_to_end(q):
    for family in ("paley_plus", "double_paley_plus"):
        gram, witness = family_automorphism(family, q)
        block, diag, perm = circulantize(gram, witness)
        n = witness.n
        assert sorted(perm) == list(range(n))
        assert np.max(np.abs(np.abs(diag) - 1.0)) < 1e-10
        # switching equivalence: moduli survive the reindexing
        g = gram
        assert np.max(np.abs(np.abs(block.gram) - np.abs(g[np.ix_(perm, perm)]))) < 1e-9
        check_regular_representation(block)
        gens = generators_from_blockgram(block)
        frame = np.hstack([circulant(row) for row in gens])
        assert check_etf(frame, tol=1e-7).verdict


def test_circulantize_block_negation_identity():
    # circulantized halfturn signature: second diagonal block is the
    # negation of the first
    for q in [5, 7, 9, 13]:
        gram, witness = family_automorphism("paley_plus", q)
        block, _, _ = circulantize(gram, witness)
        m = (q + 1) // 2
        extract = signature_of_gram(block.gram)
        s = extract.signature
        assert abs(extract.gamma - welch_gamma((q + 1) // 2, q + 1)) < 1e-9
        assert np.max(np.abs(s[m:, m:] + s[:m, :m])) < 1e-9


def test_circulantize_trivial_identity_witness():
    g = gram_of_signature(zauner_2x4_signature(), 2)
    w = AutomorphismWitness(sigma=tuple(range(4)), c=np.ones(4))
    block, diag, perm = circulantize(g, w)
    assert block.m == 1 and block.t == 4
    assert perm == [0, 1, 2, 3]
    assert np.max(np.abs(block.gram - g)) < 1e-12


def test_circulantize_rejects_inconsistencies():
    g = icosahedral_gram()
    # failing witness
    rng = np.random.default_rng(3)
    sigma = tuple(int(v) for v in rng.permutation(6))
    bad = AutomorphismWitness(sigma=sigma, c=np.ones(6))
    if verify_automorphism(g, bad) > 1e-8:
        with pytest.raises(InconsistentWitnessError):
            circulantize(g, bad)
    # verified witness with unequal cycle lengths
    w = AutomorphismWitness(sigma=(0, 2, 1), c=np.ones(3))
    with pytest.raises(InconsistentWitnessError):
        circulantize(np.eye(3, dtype=complex), w)
    # verified witness whose cycle holonomies disagree
    w2 = AutomorphismWitness(sigma=(0, 1), c=np.array([1.0, -1.0]))
    with pytest.raises(InconsistentWitnessError):
        circulantize(np.eye(2, dtype=complex), w2)


def test_brute_force_finds_zauner_witness():
    g = gram_of_signature(zauner_2x4_signature(), 2)
    w = brute_force_automorphism_search(g, 2, 2)
    assert w is not None
    assert w.cycle_type() == (2, 2)
    assert w.sigma == (1, 0, 3, 2)  # first hit in canonical order
    assert verify_automorphism(g, w) <= 1e-8
    # deterministic across calls
    w2 = brute_force_automorphism_search(g, 2, 2)
    assert w2.sigma == w.sigma
    assert np.array_equal(w2.c, w.c)


def test_brute_force_finds_3x6_family_witness():
    g = gram_of_signature(family_3x6(np.exp(0.41j)), 3)
    w = brute_force_automorphism_search(g, 3, 2)
    assert w is not None
    assert w.cycle_type() == (3, 3)
    block, _, _ = circulantize(g, w)
    check_regular_representation(block)


def test_brute_force_returns_none_on_junk():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    g = a + a.conj().T
    g = g / np.max(np.abs(g)) + 3.0 * np.eye(4)
    assert brute_force_automorphism_search(g, 2, 2) is None


def test_brute_force_rejects_zero_entries():
    with pytest.raises(UnsupportedInputError):
        brute_force_automorphism_search(np.eye(4, dtype=complex), 2, 2)
    with pytest.raises(InvalidArgumentError):
        brute_force_automorphism_search(icosahedral_gram(), 4, 2)


def test_blockgram_validation():
    with pytest.raises(InvalidArgumentError):
        BlockGram(m=2, t=2, gram=np.eye(3), frequency_components=np.zeros((2, 2, 2)))
    with pytest.raises(InvalidArgumentError):
        BlockGram(m=2, t=2, gram=np.eye(4), frequency_components=np.zeros((3, 2, 2)))
    with pytest.raises(InvalidArgumentError):
        BlockGram(m=0, t=2, gram=np.eye(0), frequency_components=np.zeros((0, 2, 2)))


def test_blockgram_spectrum_matches_per_frequency_eigh():
    gram, witness = family_automorphism("double_paley_plus", 13)
    block, _, _ = circulantize(gram, witness)
    rng = np.random.default_rng(5)
    raw = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    hand = BlockGram(m=4, t=3, gram=np.eye(12), frequency_components=raw)
    for b in (block, hand):
        assert b.eigenvalues.shape == (b.m, b.t)
        assert b.eigenvectors.shape == (b.m, b.t, b.t)
        for alpha, h in enumerate(b.frequency_components):
            ev, vec = np.linalg.eigh((h + h.conj().T) / 2.0)
            assert np.array_equal(b.eigenvalues[alpha], ev)
            assert np.array_equal(b.eigenvectors[alpha], vec)


# sha256 over the float64 bytes of the frequency components, recovered
# generators and regular-representation deviations of both symplectic
# families at every odd prime power 5..81, as the per-frequency loops
# computed them; a change in the order of any floating-point operation
# shows here (a different BLAS or LAPACK build may also move it)
HARMONIC_DIGEST = "d6c635706b783d610ccd9ade9d1de289a0b23653832d83f10e30b3302de54654"


def test_harmonic_outputs_pinned_bit_for_bit():
    digest = hashlib.sha256()
    for family in ("paley_plus", "double_paley_plus"):
        for q in filter(is_odd_prime_power, range(5, 82)):
            gram, witness = family_automorphism(family, q)
            block, _, _ = circulantize(gram, witness)
            devs = check_regular_representation(block)
            gens = generators_from_blockgram(block)
            assert gens.flags["C_CONTIGUOUS"]  # each generator a contiguous row
            digest.update(block.frequency_components.tobytes())
            digest.update(gens.tobytes())
            digest.update(np.array(devs, dtype=float).tobytes())
    assert digest.hexdigest() == HARMONIC_DIGEST
