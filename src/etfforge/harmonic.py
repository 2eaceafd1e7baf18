"""Detection and extraction of cyclic harmonic structure in Gram matrices.

A Gram on n = m*t vectors is "harmonic" when, under some ordering, it
splits into t x t blocks of m x m circulants.  Such a Gram is the Gram of
t generator vectors and their m cyclic translates.  The tools here detect
that structure, recover generators, straighten a scaled permutation
symmetry into honest block circulance, and search for such symmetries.

A BlockGram carries the spectrum of its m frequency components, computed
once by one stacked eigh; the PSD check, the regular-representation
multiplicity check and generator recovery all read it.

The two witnessed symplectic families are built here once, as exact
Gaussian-integer signatures with their shift witnesses
(family_signature), and proved once (prove_witnessed_signature), which
both family_automorphism and certify's exact route call.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import galois
# double_signature is unused here; perfbench/spans.py patches it on this module
from .constructions import double_signature, line_system_conference  # noqa: F401
from .errors import (
    CertificationError,
    InconsistentWitnessError,
    InvalidArgumentError,
    NumericFailureError,
    UnsupportedInputError,
)
# gram_of_signature is unused here; perfbench/spans.py patches it on this module
from .frames import circulant, gram_of_signature, welch_gamma  # noqa: F401
from .linalg import as_array, dft_matrix, gaussian_signature_defect


@dataclass(frozen=True)
class BlockGram:
    """Gram split into t x t circulant blocks of size m, with the
    per-frequency t x t components (F G_ij F*)_aa collected along axis 0.

    The spectrum of each component's Hermitian part (h + h*)/2 is computed
    once, by one stacked eigh: eigenvalues (m, t) ascending and
    eigenvectors (m, t, t) as columns."""

    m: int
    t: int
    gram: np.ndarray
    frequency_components: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False)
    eigenvectors: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m, t = int(self.m), int(self.t)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "t", t)
        g = np.asarray(self.gram, dtype=complex)
        h = np.asarray(self.frequency_components, dtype=complex)
        object.__setattr__(self, "gram", g)
        object.__setattr__(self, "frequency_components", h)
        if m < 1 or t < 1:
            raise InvalidArgumentError("m and t must be positive")
        if g.shape != (m * t, m * t):
            raise InvalidArgumentError("gram shape disagrees with m*t")
        if h.shape != (m, t, t):
            raise InvalidArgumentError("frequency components must be (m, t, t)")
        ev, vec = np.linalg.eigh((h + np.conj(np.swapaxes(h, 1, 2))) / 2.0)
        object.__setattr__(self, "eigenvalues", ev)
        object.__setattr__(self, "eigenvectors", vec)


@dataclass(frozen=True)
class AutomorphismWitness:
    """Scaled permutation symmetry of a Gram: G[i,j] = conj(c_i) c_j
    G[sigma(i), sigma(j)] for all i, j."""

    sigma: tuple
    c: np.ndarray

    def __post_init__(self):
        sigma = tuple(int(s) for s in self.sigma)
        c = np.asarray(self.c, dtype=complex)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "c", c)
        n = len(sigma)
        if sorted(sigma) != list(range(n)):
            raise InvalidArgumentError("sigma is not a permutation")
        if c.shape != (n,):
            raise InvalidArgumentError("scalar vector length disagrees with sigma")
        if not np.all(np.abs(np.abs(c) - 1.0) <= 1e-10):  # NaN fails too
            raise InvalidArgumentError("witness scalars must be unimodular to 1e-10")

    @property
    def n(self):
        return len(self.sigma)

    def cycles(self):
        """Cycles of sigma, each led by its least element, leaders ascending."""
        seen = set()
        out = []
        for start in range(self.n):
            if start not in seen:
                cyc = [start]
                while self.sigma[cyc[-1]] != start:
                    cyc.append(self.sigma[cyc[-1]])
                seen.update(cyc)
                out.append(cyc)
        return out

    def cycle_type(self):
        """Sorted tuple of cycle lengths."""
        return tuple(sorted(len(c) for c in self.cycles()))


def verify_automorphism(gram, witness):
    """Largest deviation in G[i,j] = conj(c_i) c_j G[sigma(i), sigma(j)]."""
    g = as_array(gram)
    n = witness.n
    if g.shape != (n, n):
        raise InvalidArgumentError("gram shape disagrees with witness length")
    sigma = list(witness.sigma)
    c = witness.c
    mapped = np.outer(np.conj(c), c) * g[np.ix_(sigma, sigma)]
    return float(np.max(np.abs(g - mapped)))


def detect_harmonic_gram(gram, m, tol=1e-8):
    """Split an n x n Gram into t = n/m blocks of m x m circulants.

    Every block must be stable under the simultaneous cyclic shift of its
    rows and columns to within tol.  Returns the block decomposition with
    the per-frequency t x t component matrices, which are checked to be
    Hermitian positive semidefinite.
    """
    g = as_array(gram)
    m = int(m)
    n = g.shape[0]
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise InvalidArgumentError("gram must be square")
    if m < 1 or n % m != 0:
        raise UnsupportedInputError("block size m must divide the Gram order")
    t = n // m
    # blocks[i, j] is the m x m block G_ij, laid out contiguously: einsum
    # over the strided (t, m, t, m) view sums in another order
    blocks = np.ascontiguousarray(g.reshape(t, m, t, m).transpose(0, 2, 1, 3))
    worst = float(np.max(np.abs(blocks - np.roll(blocks, (1, 1), axis=(2, 3)))))
    if worst > tol:
        raise UnsupportedInputError(
            "blocks are not circulant: worst shift deviation %.3e" % worst
        )
    f = dft_matrix(m)
    comps = np.einsum("ag,ijgh,ah->aij", f, blocks, np.conj(f))
    herm = float(np.max(np.abs(comps - np.conj(np.transpose(comps, (0, 2, 1))))))
    if herm > tol:
        raise NumericFailureError(
            "frequency components lost hermiticity: %.3e" % herm
        )
    block = BlockGram(m=m, t=t, gram=g, frequency_components=comps)
    low = block.eigenvalues[:, 0]
    negative = np.flatnonzero(low < -1e-8)
    if negative.size:
        alpha = int(negative[0])
        raise NumericFailureError(
            "frequency component %d has eigenvalue %.3e < 0" % (alpha, float(low[alpha]))
        )
    return block


def check_regular_representation(block, tol=1e-8):
    """Tightness of the underlying frame in block-circulant terms.

    Verifies G^2 = t G, that the diagonal blocks sum to t I_m, and that
    every frequency component has eigenvalue t with multiplicity exactly
    one (the rest near zero).  Returns (idempotency deviation, tightness
    deviation).
    """
    m, t, g = block.m, block.t, block.gram
    dev_sq = float(np.max(np.abs(g @ g - t * g)))
    diag_sum = np.einsum("igih->gh", g.reshape(t, m, t, m))
    dev_tight = float(np.max(np.abs(diag_sum - t * np.eye(m))))
    if dev_sq > tol or dev_tight > tol:
        raise UnsupportedInputError(
            "gram is not tight: G^2-tG off by %.3e, block trace off by %.3e"
            % (dev_sq, dev_tight)
        )
    ev = block.eigenvalues
    big = np.sum(np.abs(ev - t) <= 1e-6, axis=1)
    small = np.sum(np.abs(ev) <= 1e-6, axis=1)
    split = np.flatnonzero((big != 1) | (small != t - 1))
    if split.size:
        alpha = int(split[0])
        raise NumericFailureError(
            "frequency %d eigenvalues %s split as %d near t and %d near 0"
            % (alpha, np.array2string(ev[alpha], precision=3), big[alpha], small[alpha])
        )
    return dev_sq, dev_tight


def generators_from_blockgram(block, tol=1e-8):
    """Recover t generator vectors whose cyclic translates carry the Gram.

    Each frequency component is (numerically) rank one; its leading
    eigenpair fixes the generators' DFT coefficients up to a harmless
    per-frequency phase.  The reassembled Gram is checked against the
    input to within tol.
    """
    ev = block.eigenvalues
    lead = ev[:, -1]
    rest = np.max(np.abs(ev[:, :-1]), axis=1, initial=0.0)
    wide = np.flatnonzero(rest > np.maximum(tol, 1e-10 * np.maximum(lead, 1.0)) * 10)
    if wide.size:
        alpha = int(wide[0])
        raise UnsupportedInputError(
            "frequency %d is not rank one: secondary eigenvalue %.3e"
            % (alpha, float(rest[alpha]))
        )
    xhat = np.sqrt(np.maximum(lead, 0.0))[:, None] * np.conj(block.eigenvectors[:, :, -1])
    gens = np.fft.ifft(xhat.T.copy(), axis=1)  # C-ordered (t, m), as callers index rows
    phi = np.hstack(circulant(gens))
    rebuilt = phi.conj().T @ phi
    dev = float(np.max(np.abs(rebuilt - block.gram)))
    if dev > max(tol, 1e-7):
        raise NumericFailureError(
            "generators reproduce the Gram only to %.3e" % dev
        )
    return gens


def circulantize(gram, witness, tol=1e-8):
    """Straighten a scaled permutation symmetry into block circulance.

    Needs a verified witness whose cycles all share one length m and a
    Gram with no zero entries off the diagonal of the relation track.
    Reindexing by cycles and conjugating by a diagonal unimodular matrix
    built from the witness scalars (with the cycle holonomy split evenly
    by a principal m-th root) produces a Gram that passes
    detect_harmonic_gram.  Returns (block_gram, diagonal, permutation).
    """
    g = as_array(gram)
    res = verify_automorphism(gram, witness)
    if res > tol:
        raise InconsistentWitnessError(
            "witness fails on this Gram: residual %.3e" % res
        )
    cycles = witness.cycles()
    lengths = {len(c) for c in cycles}
    if len(lengths) != 1:
        raise InconsistentWitnessError(
            "cycle lengths %s are not all equal" % sorted(lengths)
        )
    m = lengths.pop()
    t = len(cycles)
    c = witness.c
    sigma = witness.sigma
    holonomy = np.empty(t, dtype=complex)
    for j, cyc in enumerate(cycles):
        holonomy[j] = np.prod(c[cyc])
    spread = float(np.max(np.abs(holonomy - holonomy[0])))
    if spread > tol:
        raise InconsistentWitnessError(
            "cycle scalar products disagree by %.3e" % spread
        )
    mean = np.mean(holonomy)
    mean = mean / abs(mean)
    beta = complex(mean) ** (1.0 / m)
    n = witness.n
    diag = np.empty(n, dtype=complex)
    perm = []
    for cyc in cycles:
        acc = 1.0 + 0.0j
        idx = cyc[0]
        for ell in range(m):
            diag[idx] = acc / beta**ell
            perm.append(idx)
            acc = acc * c[idx]
            idx = sigma[idx]
    scaled = np.conj(diag)[:, None] * g * diag[None, :]
    reordered = scaled[np.ix_(perm, perm)]
    block = detect_harmonic_gram(reordered, m, tol=max(tol, 1e-8))
    return block, diag, perm


def _halfturn_witness(system):
    m = system.cycle_len
    j = np.arange(2 * m) % m
    sigma = np.arange(2 * m) - j + (j + 1) % m
    return AutomorphismWitness(sigma=tuple(sigma), c=system.chi(system.alpha_signs[j]))


def _fullturn_witness(system):
    n = system.cycle_len
    i = np.arange(n)
    sigma = np.concatenate([n + (i + 1) % n, (i + 1) % n])
    chi = system.chi(system.alpha_signs)
    return AutomorphismWitness(sigma=tuple(sigma), c=np.concatenate([chi, -chi]))


def family_signature(family, q):
    """Exact signature of a symplectic family as int64 arrays (re, im),
    with the family's shift witness.

    family "paley_plus": omega C of order q+1, with C the halfturn
    conference matrix and omega = 1 (q = 1 mod 4) or i (q = 3 mod 4); the
    witness advances each halfturn orbit, scalars chi of the wrap signs.
    family "double_paley_plus": the fullturn signature S doubled to
    [[S, S + iI], [S - iI, -S]], of order 2(q+1); the witness advances
    the fullturn orbit while swapping the two copies.
    """
    q = int(q)
    if family == "paley_plus":
        system = galois.build_line_system(q, "halfturn")
        witness = _halfturn_witness(system)
    elif family == "double_paley_plus":
        system = galois.build_line_system(q, "fullturn")
        witness = _fullturn_witness(system)
    else:
        raise InvalidArgumentError(
            "family must be 'paley_plus' or 'double_paley_plus'"
        )
    conf = line_system_conference(system).data
    zero = np.zeros_like(conf)
    re, im = (conf, zero) if q % 4 == 1 else (zero, conf)
    if family == "double_paley_plus":
        eye = np.eye(q + 1, dtype=np.int64)
        re = np.block([[re, re], [re, -re]])
        im = np.block([[im, im + eye], [im - eye, -im]])
    return re, im, witness


def family_automorphism(family, q):
    """Gram of family_signature's signature, in dimension half its order,
    with the family's shift witness, both proved by prove_witnessed_signature."""
    re, im, witness = family_signature(family, q)
    return prove_witnessed_signature(re, im, witness), witness


def _refusal(identity):
    return CertificationError("infeasible", "%s fails exactly over Z[i]" % identity)


def _cycle_traces(s, c, cycles):
    """tr_k = sum_i P_k(i) S[i, sigma^k i] for k = 1..m-1, and each
    cycle's holonomy P_m, for the monomial map M e_i = c_i e_(sigma i)
    given by its cycles, all of length m and each listed along sigma.
    P_k(i) is the product of the scalars along i -> sigma^k i."""
    cyc = np.array(cycles)
    m = cyc.shape[1]
    # path[j, l]: product of the first l scalars along cycle j, run twice round
    path = np.cumprod(np.hstack([np.ones((len(cyc), 1)), c[cyc], c[cyc]]), axis=1)
    start = np.arange(m)[:, None]
    end = start + np.arange(1, m)
    terms = np.conj(path[:, start]) * path[:, end] * s[cyc[:, start], cyc[:, end % m]]
    return terms.sum(axis=(0, 1)), path[:, m]


def prove_witnessed_signature(sig_re, sig_im, witness):
    """Check the identities stated on certify.Certificate exactly for an
    int64 signature (re, im) of order n = 2d and a shift witness; return
    the Gram I + S / sqrt(n-1), or raise CertificationError (reason
    "infeasible") naming the first that fails.  Past
    gaussian_signature_defect every entry of S, and every scalar before
    any is multiplied, is 0 or a unit: so each product is 0 or a unit and
    each sum a Gaussian integer of modulus at most n, exact in float64."""
    re = np.asarray(sig_re)
    im = np.asarray(sig_im)
    n = re.shape[0] if re.ndim == 2 else 0
    if (n < 4 or n % 2 or re.shape != (n, n) or im.shape != (n, n)
            or re.dtype != np.int64 or im.dtype != np.int64):
        raise InvalidArgumentError("signature must be two n x n int64 arrays, n = 2d >= 4")
    if witness.n != n:
        raise InvalidArgumentError("witness length disagrees with the signature")
    d = n // 2
    defect = gaussian_signature_defect(re, im)
    if defect is not None:
        raise _refusal(defect)
    s = re + 1j * im
    c = witness.c
    if not np.all(np.isin(c, (1, -1, 1j, -1j))):
        raise CertificationError("infeasible", "witness scalars are not all in {+-1, +-i}")
    sigma = np.asarray(witness.sigma)
    if np.any(s != np.conj(c)[:, None] * c * s[np.ix_(sigma, sigma)]):
        raise _refusal("witness identity")
    if witness.cycle_type() != (d, d):
        raise CertificationError(
            "infeasible", "witness cycle type %s is not %d^2" % (witness.cycle_type(), d)
        )
    traces, holonomy = _cycle_traces(s, c, witness.cycles())
    nonzero = np.flatnonzero(traces)
    if nonzero.size:
        raise _refusal("tr V^%d = 0" % (nonzero[0] + 1))
    if np.any(holonomy != holonomy[0]):
        raise _refusal("equal cycle holonomies")
    return np.eye(n) + welch_gamma(d, n) * s


def _cycle_type_permutations(n, m):
    """Lazily enumerate permutations of [n] with all cycles of length m,
    in a canonical order (cycles led by least remaining element)."""
    if n % m != 0:
        return

    def rec(remaining, assignment):
        if not remaining:
            yield dict(assignment)
            return
        rest = sorted(remaining)
        lead = rest[0]
        pool = rest[1:]
        for tail in itertools.permutations(pool, m - 1):
            cyc = (lead,) + tail
            for a, b in zip(cyc, cyc[1:] + (lead,)):
                assignment[a] = b
            yield from rec(remaining - set(cyc), assignment)
        for a in rest:
            assignment.pop(a, None)

    for mapping in rec(set(range(n)), {}):
        yield tuple(mapping[i] for i in range(n))


def _random_cycle_type_permutation(n, m, rng):
    order = list(rng.permutation(n))
    sigma = [0] * n
    for start in range(0, n, m):
        cyc = order[start : start + m]
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            sigma[a] = b
    return tuple(sigma)


def brute_force_automorphism_search(gram, m, t, budget=200000, seed=0, tol=1e-8):
    """Search for a shift symmetry with cycle type m^t.

    Scalars are forced by the permutation through the pivot row:
    c_0 = 1 and c_j = G[0,j] / G[sigma(0), sigma(j)], which is complete
    whenever the Gram has no zero off-diagonal entries (the witness
    scalars are only ever determined up to one global phase).  Candidate
    permutations are enumerated canonically up to `budget`, then sampled
    at random.  Returns a witness or None.
    """
    g = as_array(gram)
    n = g.shape[0]
    if g.shape != (n, n) or n != m * t:
        raise InvalidArgumentError("gram order must equal m*t")
    offdiag = np.abs(g[~np.eye(n, dtype=bool)])
    if float(np.min(offdiag)) < 1e-12:
        raise UnsupportedInputError(
            "scalar recovery needs all off-diagonal entries nonzero"
        )
    tested = 0
    exhausted = True
    for sigma in _cycle_type_permutations(n, m):
        if tested >= budget:
            exhausted = False
            break
        tested += 1
        witness = _witness_from_sigma(g, sigma, n)
        if witness is not None and verify_automorphism(g, witness) <= tol:
            return witness
    if exhausted:
        return None
    rng = np.random.default_rng(seed)
    while tested < 2 * budget:
        tested += 1
        sigma = _random_cycle_type_permutation(n, m, rng)
        witness = _witness_from_sigma(g, sigma, n)
        if witness is not None and verify_automorphism(g, witness) <= tol:
            return witness
    return None


def _witness_from_sigma(g, sigma, n):
    s0 = sigma[0]
    c = np.empty(n, dtype=complex)
    c[0] = 1.0
    for j in range(1, n):
        denom = g[s0, sigma[j]]
        if abs(denom) < 1e-12:
            return None
        c[j] = g[0, j] / denom
    if float(np.max(np.abs(np.abs(c) - 1.0))) > 1e-8:
        return None
    c = c / np.abs(c)
    return AutomorphismWitness(sigma=sigma, c=c)
