import hashlib
import math
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import etfforge.harmonic as harmonic
from etfforge.constructions import is_odd_prime_power, zauner_2x4_signature
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
    check_regular_representation,
    circulantize,
    detect_harmonic_gram,
    family_automorphism,
    family_signature,
    generators_from_blockgram,
    prove_witnessed_signature,
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


def test_witness_walks_its_cycles_once(monkeypatch):
    # family_automorphism's proof and circulantize read one walk of sigma
    walks = []
    walk = AutomorphismWitness._cycles.func
    counted = cached_property(lambda self: walks.append(self) or walk(self))
    counted.__set_name__(AutomorphismWitness, "_cycles")
    monkeypatch.setattr(AutomorphismWitness, "_cycles", counted)
    gram, witness = family_automorphism("paley_plus", 13)
    circulantize(gram, witness)
    witness.cycles()[0].append(99)  # a caller's copy, not the witness's
    assert witness.cycle_type() == (7, 7)
    assert walks == [witness]


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


def test_prove_refuses_scalars_off_the_units():
    # a global phase keeps the witness identity but leaves Z[i]
    re, im, witness = family_signature("paley_plus", 5)
    turned = AutomorphismWitness(sigma=witness.sigma, c=witness.c * np.exp(1j * np.pi / 4))
    with pytest.raises(CertificationError, match=r"scalars are not all in \{\+-1, \+-i\}") as err:
        prove_witnessed_signature(re, im, turned)
    assert err.value.reason == "infeasible"


def test_prove_refuses_cycle_type_other_than_d_squared():
    re, im, _ = family_signature("paley_plus", 5)
    n = re.shape[0]
    identity = AutomorphismWitness(sigma=tuple(range(n)), c=np.ones(n))
    with pytest.raises(CertificationError, match=r"cycle type \(1, 1, 1, 1, 1, 1\) is not 3\^2"):
        prove_witnessed_signature(re, im, identity)


@pytest.mark.parametrize("family, q", [("paley_plus", 5), ("double_paley_plus", 3)])
def test_prove_refuses_nonzero_cycle_trace(monkeypatch, family, q):
    # no cycle-type-d^2 symmetry of a signature has turned up with a
    # nonzero trace, so the trace is forged
    real = harmonic._cycle_traces

    def forged(s, c, cycles):
        traces, holonomy = real(s, c, cycles)
        traces = traces.copy()
        traces[-1] += 1
        return traces, holonomy

    monkeypatch.setattr(harmonic, "_cycle_traces", forged)
    re, im, witness = family_signature(family, q)
    k = witness.n // 2 - 1
    with pytest.raises(CertificationError, match=r"tr V\^%d = 0 fails exactly" % k):
        prove_witnessed_signature(re, im, witness)


@pytest.mark.parametrize("family, q", [("paley_plus", 5), ("double_paley_plus", 3)])
def test_prove_refuses_unequal_holonomies(monkeypatch, family, q):
    # the witness identity with nonzero off-diagonal entries already
    # forces equal holonomies, so the holonomy is forged
    real = harmonic._cycle_traces

    def forged(s, c, cycles):
        traces, holonomy = real(s, c, cycles)
        return traces, holonomy * np.array([1, -1])

    monkeypatch.setattr(harmonic, "_cycle_traces", forged)
    re, im, witness = family_signature(family, q)
    with pytest.raises(CertificationError, match="equal cycle holonomies fails exactly"):
        prove_witnessed_signature(re, im, witness)


def test_prove_refuses_malformed_inputs():
    re, im, witness = family_signature("paley_plus", 5)
    shape_msg = "signature must be two n x n int64 arrays"
    with pytest.raises(InvalidArgumentError, match=shape_msg):
        prove_witnessed_signature(re.astype(float), im, witness)
    with pytest.raises(InvalidArgumentError, match=shape_msg):
        prove_witnessed_signature(re[:5, :5], im[:5, :5], witness)  # odd order
    short = AutomorphismWitness(sigma=(1, 0, 3, 2), c=np.ones(4))
    with pytest.raises(InvalidArgumentError, match="witness length disagrees"):
        prove_witnessed_signature(re, im, short)


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


def _random_cycle_type_permutation(n, m, rng):
    """A random permutation of range(n) whose cycles all have length m."""
    cycles = rng.permutation(n).reshape(-1, m)
    sigma = np.empty(n, dtype=np.int64)
    sigma[cycles] = np.roll(cycles, -1, axis=1)
    return sigma


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_cycle_traces_match_the_per_k_loop(d, seed):
    # random unit-scalar witnesses of cycle type d^2 over random
    # {0, +-1, +-i} matrices, which need not be signatures
    rng = np.random.default_rng(seed)
    n = 2 * d
    sigma = _random_cycle_type_permutation(n, d, rng)
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


def test_detect_refuses_non_hermitian_components():
    # m = 1: every block is circulant and the components are the Gram itself
    with pytest.raises(NumericFailureError, match="lost hermiticity"):
        detect_harmonic_gram(np.array([[1.0, 1.0], [0.0, 1.0]]), 1)


def test_detect_refuses_negative_eigenvalue():
    with pytest.raises(NumericFailureError, match="frequency component 0 has eigenvalue"):
        detect_harmonic_gram(-np.eye(4), 2)


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


def test_generators_refuse_gram_the_components_disagree_with():
    block = detect_harmonic_gram(icosahedral_gram(), 3)
    doubled = BlockGram(m=3, t=2, gram=2.0 * block.gram,
                        frequency_components=block.frequency_components)
    with pytest.raises(NumericFailureError, match="reproduce the Gram only to"):
        generators_from_blockgram(doubled)


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


def _loop_diag_perm(witness):
    """circulantize's diagonal and permutation as its per-element loop
    built them before the array form, kept as the oracle: each cycle's
    holonomy by np.prod, then the running scalar product along the cycle
    over beta**ell."""
    cycles = witness.cycles()
    m = len(cycles[0])
    c, sigma = witness.c, witness.sigma
    holonomy = np.array([np.prod(c[cyc]) for cyc in cycles])
    mean = np.mean(holonomy)
    beta = complex(mean / abs(mean)) ** (1.0 / m)
    diag = np.empty(witness.n, dtype=complex)
    perm = []
    for cyc in cycles:
        acc = 1.0 + 0.0j
        idx = cyc[0]
        for ell in range(m):
            diag[idx] = acc / beta**ell
            perm.append(idx)
            acc = acc * c[idx]
            idx = sigma[idx]
    return diag, perm


@pytest.mark.parametrize("family", ["paley_plus", "double_paley_plus"])
def test_circulantize_matches_the_per_element_loop(family):
    for q in filter(is_odd_prime_power, range(3, 82)):
        gram, witness = family_automorphism(family, q)
        _, diag, perm = circulantize(gram, witness)
        want_diag, want_perm = _loop_diag_perm(witness)
        assert diag.tobytes() == want_diag.tobytes()
        assert perm == want_perm and all(type(p) is int for p in perm)


@pytest.mark.parametrize("family, q, seed", [("paley_plus", 13, 0), ("paley_plus", 27, 1),
                                             ("double_paley_plus", 9, 2),
                                             ("double_paley_plus", 19, 3)])
def test_circulantize_matches_the_loop_under_random_phases(family, q, seed):
    # G'[i, j] = conj(p_i) p_j G[i, j] has the witness c'_i = c_i p_i conj(p_(sigma i))
    gram, witness = family_automorphism(family, q)
    p = np.exp(2j * np.pi * np.random.default_rng(seed).random(witness.n))
    rescaled = AutomorphismWitness(
        sigma=witness.sigma, c=witness.c * p * np.conj(p[list(witness.sigma)]))
    assert np.all(np.abs(rescaled.c.imag) > 1e-6)  # not units any more
    _, diag, perm = circulantize(np.conj(p)[:, None] * gram * p, rescaled)
    want_diag, want_perm = _loop_diag_perm(rescaled)
    assert perm == want_perm
    assert np.max(np.abs(diag - want_diag)) <= 1e-12


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


def _einsum_components(blocks):
    """(F B_ij F*)_aa over a (t, t, m, m) block stack, by the dense DFT:
    the oracle for the FFT of the wrapped-diagonal sums."""
    m = blocks.shape[-1]
    f = np.exp(-2j * np.pi * np.outer(np.arange(m), np.arange(m)) / m) / math.sqrt(m)
    return np.einsum("ag,ijgh,ah->aij", f, blocks, np.conj(f))


def _assert_components_match_the_oracle(comps, blocks):
    want = _einsum_components(blocks)
    assert comps.shape == want.shape
    assert np.max(np.abs(comps - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("family", ["paley_plus", "double_paley_plus"])
def test_fft_components_match_the_einsum_oracle_on_both_families(family):
    for q in filter(is_odd_prime_power, range(5, 82)):
        block, _, _ = circulantize(*family_automorphism(family, q))
        m, t = block.m, block.t
        blocks = block.gram.reshape(t, m, t, m).transpose(0, 2, 1, 3)
        _assert_components_match_the_oracle(block.frequency_components, blocks)


@pytest.mark.parametrize("t", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 5, 8])
def test_fft_components_match_the_einsum_oracle_on_any_blocks(t, m):
    # the wrapped-diagonal identity needs no circulance and no symmetry
    rng = np.random.default_rng(10 * t + m)
    blocks = rng.standard_normal((t, t, m, m)) + 1j * rng.standard_normal((t, t, m, m))
    _assert_components_match_the_oracle(harmonic._frequency_components(blocks), blocks)


# sha256 over the float64 bytes of the frequency components, recovered
# generators and regular-representation deviations of both symplectic
# families at every odd prime power 5..81, with the components taken by
# the FFT of the wrapped-diagonal sums; a change in the order of any
# floating-point operation shows here (a different BLAS or LAPACK build
# may also move it)
HARMONIC_DIGEST = "c09f247e269ea297144bf68262bf33d7adf7e905c2403c0978e4dafc2a36ecb9"


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
