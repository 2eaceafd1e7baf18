"""Explicit ETF constructions: Paley-type conference matrices, symplectic
line systems, conference-graph doubling, closed-form doubled frames,
skew-Paley Gram matrices, Steiner circulant frames, and small parametric
families, plus the dimension dispatch table.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import galois
from .errors import (
    ConstructionError,
    InvalidArgumentError,
)
from .frames import (
    CirculantPair,
    check_etf,
    circulant,
    gram_of_signature,
    signature_of_gram,
    welch_gamma,
)
from .linalg import as_array, gaussian_signature_defect, require_signature

_MAX_PALEY_Q = 10**4


def is_odd_prime_power(n):
    if n < 3 or n % 2 == 0:
        return False
    return galois.prime_power_decomposition(n) is not None


@dataclass(frozen=True)
class ConferenceGraph:
    """Strongly regular graph with parameters (v, (v-1)/2, (v-5)/4, (v-1)/4).

    Validated exactly over the integers at construction.  The product
    a @ a runs in float64 BLAS and is still exact: the entries are checked
    to be 0 or 1 first, so every partial sum is an integer of size at most
    v < 2^53, whatever order the sum is taken in.
    """

    v: int
    adjacency: np.ndarray

    def __post_init__(self):
        v = int(self.v)
        a = np.asarray(self.adjacency, dtype=np.int64)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "adjacency", a)
        if v % 4 != 1 or v < 5:
            raise InvalidArgumentError("conference graphs need v = 1 mod 4, v >= 5")
        if a.shape != (v, v):
            raise InvalidArgumentError("adjacency shape disagrees with v")
        if not np.array_equal(a, a.T):
            raise InvalidArgumentError("adjacency must be symmetric")
        if np.any((a != 0) & (a != 1)) or np.any(np.diag(a) != 0):
            raise InvalidArgumentError("adjacency must be 0/1 with zero diagonal")
        k, lam, mu = (v - 1) // 2, (v - 5) // 4, (v - 1) // 4
        eye = np.eye(v, dtype=np.int64)
        other = np.ones((v, v), dtype=np.int64) - eye - a
        af = a.astype(np.float64)
        if not np.array_equal(af @ af, k * eye + lam * a + mu * other):
            raise InvalidArgumentError(
                "adjacency fails the (v, %d, %d, %d) strong regularity identity"
                % (k, lam, mu)
            )


@dataclass(frozen=True)
class ConferenceMatrix:
    """n x n matrix over {0, +1, -1} with zero diagonal and C^T C = (n-1) I.

    C^T C is formed in float64 BLAS and is still exact, as the entries are
    checked to lie in {-1, 0, 1} first (see linalg.gaussian_signature_defect).
    """

    n: int
    data: np.ndarray
    symmetry: str  # "symmetric" | "skew" | "none"

    def __post_init__(self):
        n = int(self.n)
        c = np.asarray(self.data, dtype=np.int64)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "data", c)
        if c.shape != (n, n):
            raise InvalidArgumentError("conference matrix shape disagrees with n")
        if np.any((c < -1) | (c > 1)) or np.any(np.diag(c) != 0):
            raise InvalidArgumentError("entries must be 0/+-1 with zero diagonal")
        if self.symmetry not in ("symmetric", "skew", "none"):
            raise InvalidArgumentError("unknown symmetry tag")
        if self.symmetry == "symmetric" and not np.array_equal(c, c.T):
            raise InvalidArgumentError("matrix is not symmetric")
        if self.symmetry == "skew" and not np.array_equal(c, -c.T):
            raise InvalidArgumentError("matrix is not skew-symmetric")
        cf = c.astype(np.float64)
        if not np.array_equal(cf.T @ cf, (n - 1) * np.eye(n)):
            raise ConstructionError("C^T C = (n-1) I fails exactly")


def _odd_field(q):
    decomp = galois.prime_power_decomposition(q)
    if decomp is None or decomp[0] == 2:
        raise InvalidArgumentError("q must be an odd prime power")
    return galois.make_field(*decomp)


def paley_graph(q):
    """Quadratic-residue graph on GF(q), q = 1 mod 4; vertices enumerate the
    field in coefficient-lex order."""
    q = int(q)
    if q > _MAX_PALEY_Q:
        raise InvalidArgumentError("q exceeds the Paley construction cap")
    if q % 4 != 1:
        raise InvalidArgumentError("Paley graphs need q = 1 mod 4")
    field = _odd_field(q)
    elements = np.arange(q)
    a = np.zeros((q, q), dtype=np.int64)
    for i in range(q):
        a[i] = field.chi(field.sub(i, elements)) == 1
    return ConferenceGraph(v=q, adjacency=a)


def paley_conference(q):
    """Bordered conference matrix of order q+1 from quadratic residues.

    Core entry (i, j) is chi(e_j - e_i); the border row is +1 and the
    border column is chi(-1).  Symmetric for q = 1 mod 4, skew otherwise.
    """
    q = int(q)
    if q > _MAX_PALEY_Q:
        raise InvalidArgumentError("q exceeds the Paley construction cap")
    field = _odd_field(q)
    elements = np.arange(q)
    n = q + 1
    c = np.zeros((n, n), dtype=np.int64)
    c[0, 1:] = 1
    c[1:, 0] = field.chi(field.sub(0, 1))
    for i in range(q):
        c[i + 1, 1:] = field.chi(field.sub(elements, i))
    symmetry = "symmetric" if q % 4 == 1 else "skew"
    return ConferenceMatrix(n=n, data=c, symmetry=symmetry)


def appendix_line_reps(field):
    """Projective line representatives (alpha, 1) for alpha in GF(q), then
    the infinite point (1, 0), as pairs of element indices."""
    return [(alpha, 1) for alpha in range(field.q)] + [(1, 0)]


def symplectic_conference(q, reps):
    """Conference matrix chi(det(t_i, t_j)) from projective line
    representatives over GF(q)^2, pairs of element indices in 0..q-1,
    with the determinant pairing."""
    q = int(q)
    field = _odd_field(q)
    t = np.array(reps, dtype=np.int64)
    if t.ndim != 2 or t.shape[1] != 2:
        raise InvalidArgumentError("line representatives must be pairs")
    if np.any((t < 0) | (t >= q)):
        raise InvalidArgumentError("representative entries must lie in 0..q-1")
    if np.any(np.all(t == 0, axis=1)):
        raise InvalidArgumentError("the zero vector is not a line representative")
    a, b = t[:, 0], t[:, 1]
    n = len(t)
    c = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        det = field.sub(field.mul(a[i], b), field.mul(a, b[i]))
        zero = np.flatnonzero(det[i + 1 :] == 0)
        if len(zero):
            raise InvalidArgumentError(
                "representatives %d and %d span the same line" % (i, i + 1 + zero[0])
            )
        c[i] = field.chi(det)
    symmetry = "symmetric" if q % 4 == 1 else "skew"
    return ConferenceMatrix(n=n, data=c, symmetry=symmetry)


def line_system_conference(system):
    """Conference matrix chi([t_i, t_j]) over a symplectic line system."""
    logs = system.form_logs()
    off = logs >= 0
    c = np.zeros(logs.shape, dtype=np.int64)
    c[off] = system.chi(logs[off])
    symmetry = "symmetric" if system.q % 4 == 1 else "skew"
    return ConferenceMatrix(n=len(c), data=c, symmetry=symmetry)


def double_signature(sig, d, n, epsilon):
    """Blow a d x n ETF signature up to a 2n-vector signature in dimension n.

    Requires n - 2d in {-1, 0, 1}.  With c = (n-2d) sqrt((n-1)/(d(n-d)))
    and beta = -c + epsilon i sqrt(1-c^2), the output is
    [[S, S+beta I], [S+conj(beta) I, -S]] and satisfies
    S_out^2 = (2n-1) I to 1e-9.
    """
    s = as_array(sig)
    if epsilon not in (-1, 1):
        raise InvalidArgumentError("epsilon must be +1 or -1")
    d, n = int(d), int(n)
    if s.shape != (n, n):
        raise InvalidArgumentError("signature shape disagrees with n")
    k = n - 2 * d
    if k not in (-1, 0, 1):
        raise InvalidArgumentError("doubling needs n - 2d in {-1, 0, 1}")
    c = k * math.sqrt((n - 1) / (d * (n - d)))
    beta = -c + epsilon * 1j * math.sqrt(max(0.0, 1.0 - c * c))
    eye = np.eye(n)
    out = np.block([
        [s, s + beta * eye],
        [s + np.conj(beta) * eye, -s],
    ])
    dev = float(np.max(np.abs(out @ out - (2 * n - 1) * np.eye(2 * n))))
    if dev > 1e-9:
        raise ConstructionError(
            "doubled signature square identity off by %.3e" % dev
        )
    require_signature(out)
    return out


def double_conference_graph(graph, epsilon):
    """Signature of a 2v-dimensional ETF on 4v vectors from a conference
    graph on v vertices.

    With x = (-1 + sqrt(2v-1))/(v-1), beta = epsilon x + i sqrt(1-x^2),
    and B the non-adjacency, the blocks are [[A-B, eI+bA+conj(b)B],
    [eI+conj(b)A+bB, B-A]]; the square identity S^2 = (2v-1) I is
    enforced to 1e-9.
    """
    if epsilon not in (-1, 1):
        raise InvalidArgumentError("epsilon must be +1 or -1")
    v = graph.v
    a = graph.adjacency.astype(float)
    b = np.ones((v, v)) - np.eye(v) - a
    x = (-1.0 + math.sqrt(2 * v - 1)) / (v - 1)
    y = math.sqrt(max(0.0, 1.0 - x * x))
    beta = epsilon * x + 1j * y
    eye = np.eye(v)
    s12 = epsilon * eye + beta * a + np.conj(beta) * b
    s21 = epsilon * eye + np.conj(beta) * a + beta * b
    out = np.block([[a - b, s12], [s21, b - a]])
    dev = float(np.max(np.abs(out @ out - (2 * v - 1) * np.eye(2 * v))))
    if dev > 1e-9:
        raise ConstructionError(
            "doubled conference-graph signature square identity off by %.3e" % dev
        )
    return out


def doubling_coefficients(v, epsilon):
    """Closed-form entries (a, b, c, d, e, f) of the doubled frame
    [aI + bA + cB | dI + eA + fB] over a conference graph on v vertices."""
    if epsilon not in (-1, 1):
        raise InvalidArgumentError("epsilon must be +1 or -1")
    v = int(v)
    gamma = 1.0 / math.sqrt(2 * v - 1)
    k = (v - 1) / 2.0
    r = (-1.0 + math.sqrt(v)) / 2.0
    s = (-1.0 - math.sqrt(v)) / 2.0
    x = (-1.0 + math.sqrt(2 * v - 1)) / (v - 1)
    y = math.sqrt(max(0.0, 1.0 - x * x))
    beta = epsilon * x + 1j * y
    qp = math.sqrt(1.0 + gamma * (r - s))
    qm = math.sqrt(1.0 - gamma * (r - s))
    a = (1.0 + k * qp + k * qm) / v
    b = (1.0 + r * qp + s * qm) / v
    c = (1.0 + s * qp + r * qm) / v
    head = epsilon + 2.0 * k * beta.real
    term_p = (epsilon + beta * r + np.conj(beta) * s) / qp
    term_m = (epsilon + beta * s + np.conj(beta) * r) / qm
    dd = gamma / v * (head + k * term_p + k * term_m)
    ee = gamma / v * (head + r * term_p + s * term_m)
    ff = gamma / v * (head + s * term_p + r * term_m)
    return (complex(a), complex(b), complex(c), dd, ee, ff)


def synthesize_doubled_frame(graph, epsilon):
    """Closed-form v x 2v ETF over a conference graph.

    Returns a CirculantPair when the adjacency is circulant under the
    identity vertex ordering, otherwise the full frame matrix.  The frame
    passes check_etf at 1e-10 and its Gram matches the doubled signature
    Gram to 1e-9.
    """
    v = graph.v
    a_int = graph.adjacency
    a = a_int.astype(float)
    b = np.ones((v, v)) - np.eye(v) - a
    ca, cb, cc, cd, ce, cf = doubling_coefficients(v, epsilon)
    m1 = ca * np.eye(v) + cb * a + cc * b
    m2 = cd * np.eye(v) + ce * a + cf * b
    frame = np.hstack([m1, m2])
    report = check_etf(frame, tol=1e-10)
    if not report.verdict:
        raise ConstructionError(
            "synthesized frame misses ETF tolerances: %r" % (report,)
        )
    target = gram_of_signature(double_conference_graph(graph, epsilon), v)
    gram = frame.conj().T @ frame
    dev = float(np.max(np.abs(gram - target)))
    if dev > 1e-9:
        raise ConstructionError(
            "synthesized Gram deviates from doubled signature Gram by %.3e" % dev
        )
    is_circulant = np.array_equal(a_int, np.roll(a_int, (1, 1), axis=(0, 1)))
    if is_circulant:
        return CirculantPair(d=v, x=m1[:, 0], y=m2[:, 0])
    return frame


def renes_strohmer_gram(q):
    """Gram of the (q+1)/2 x q skew-Paley ETF:
    [q I + J + i sqrt(q) T] / (q+1) with T the skew Paley core."""
    q = int(q)
    if q % 4 != 3:
        raise InvalidArgumentError("skew-Paley Grams need q = 3 mod 4")
    conf = paley_conference(q)
    t = conf.data[1:, 1:].astype(float)
    d = (q + 1) // 2
    n = 2 * d - 1
    g = (n * np.eye(n) + np.ones((n, n)) + 1j * math.sqrt(n) * t) / (n + 1)
    gamma = welch_gamma(d, n)
    mask = ~np.eye(n, dtype=bool)
    dev = float(np.max(np.abs(np.abs(g[mask]) - gamma)))
    if dev > 1e-12:
        raise ConstructionError("off-diagonal moduli off by %.3e" % dev)
    return g


def renes_strohmer_complement_signature(q):
    """Signature of the (q-1)/2 x q complement of the skew-Paley ETF."""
    return -signature_of_gram(renes_strohmer_gram(q)).signature


def double_renes_strohmer_signature(q, epsilon):
    """Signature of a q x 2q ETF: the skew-Paley complement doubled."""
    q = int(q)
    s = renes_strohmer_complement_signature(q)
    return double_signature(s, (q - 1) // 2, q, epsilon)


def planar_difference_set(m):
    """Lexicographically least planar difference set in Z_(m^2+m+1)."""
    m = int(m)
    if m < 1:
        raise InvalidArgumentError("m must be >= 1")
    v = m * m + m + 1
    k = m + 1
    if m > 5:
        raise InvalidArgumentError("difference set search capped at m <= 5")

    def extend(current, used):
        if len(current) == k:
            return list(current)
        start = current[-1] + 1 if current else 0
        for cand in range(start, v):
            fresh = set()
            ok = True
            for prev in current:
                d1 = (cand - prev) % v
                d2 = (prev - cand) % v
                if d1 == d2 or d1 in used or d2 in used or d1 in fresh or d2 in fresh:
                    ok = False
                    break
                fresh.add(d1)
                fresh.add(d2)
            if not ok:
                continue
            result = extend(current + [cand], used | fresh)
            if result is not None:
                return result
        return None

    result = extend([], set())
    if result is None:
        raise ConstructionError("no planar difference set found for m=%d" % m)
    return result


def steiner_circulant(m, hadamard, diff_set):
    """v x (k+1)v ETF of circulant blocks from a planar difference set.

    v = m^2 + m + 1, k = m + 1.  Generator i places the i-th column of the
    unimodular matrix `hadamard` (H* H = (k+1) I) on the difference set
    positions, scaled by 1/sqrt(k); rows of H beyond the difference set
    (the final row) are unused.  All v cyclic translates of each generator
    enter the frame.
    """
    m = int(m)
    if m < 1:
        raise InvalidArgumentError("m must be >= 1")
    v = m * m + m + 1
    k = m + 1
    d_set = [int(x) % v for x in diff_set]
    if len(d_set) != k or len(set(d_set)) != k:
        raise InvalidArgumentError("difference set must have %d distinct residues" % k)
    counts = np.zeros(v, dtype=np.int64)
    for x, y_ in itertools.permutations(d_set, 2):
        counts[(x - y_) % v] += 1
    for residue in range(1, v):
        if counts[residue] != 1:
            raise ConstructionError(
                "difference set misses planarity at residue %d (count %d)"
                % (residue, int(counts[residue]))
            )
    h = as_array(hadamard)
    if h.shape != (k + 1, k + 1):
        raise InvalidArgumentError("hadamard must be (k+1) x (k+1)")
    if float(np.max(np.abs(np.abs(h) - 1.0))) > 1e-10:
        raise InvalidArgumentError("hadamard entries must be unimodular")
    if float(np.max(np.abs(h.conj().T @ h - (k + 1) * np.eye(k + 1)))) > 1e-10:
        raise InvalidArgumentError("hadamard fails H* H = (k+1) I")
    gens = np.zeros((k + 1, v), dtype=complex)
    gens[:, sorted(d_set)] = h[:k].T / math.sqrt(k)
    frame = np.hstack(circulant(gens))
    report = check_etf(frame, tol=1e-10)
    if not report.verdict:
        raise ConstructionError("steiner frame misses ETF tolerances: %r" % (report,))
    return frame


def family_3x6(alpha):
    """One-parameter family of 3 x 6 signatures over a unimodular alpha."""
    alpha = complex(alpha)
    if abs(abs(alpha) - 1.0) > 1e-12:
        raise InvalidArgumentError("alpha must be unimodular to 1e-12")
    a = alpha
    ab = np.conj(alpha)
    s = np.array(
        [
            [0, a, ab, 1, a, -ab],
            [ab, 0, a, -ab, 1, a],
            [a, ab, 0, a, -ab, 1],
            [1, -a, ab, 0, -a, -ab],
            [ab, 1, -a, -ab, 0, -a],
            [-a, ab, 1, -a, -ab, 0],
        ],
        dtype=complex,
    )
    dev = float(np.max(np.abs(s @ s - 5 * np.eye(6))))
    if dev > 1e-10:
        raise ConstructionError("3x6 signature square identity off by %.3e" % dev)
    return s


def zauner_2x4_signature():
    """The 2 x 4 signature with S^2 = 3I, checked exactly over Z[i]."""
    re = np.array(
        [
            [0, 1, 1, 0],
            [1, 0, 0, 1],
            [1, 0, 0, -1],
            [0, 1, -1, 0],
        ],
        dtype=np.int64,
    )
    im = np.array(
        [
            [0, 0, 0, -1],
            [0, 0, -1, 0],
            [0, 1, 0, 0],
            [1, 0, 0, 0],
        ],
        dtype=np.int64,
    )
    defect = gaussian_signature_defect(re, im)
    if defect is not None:
        raise ConstructionError("2x4 signature: %s fails exactly" % defect)
    return re + 1j * im


LABEL_HALF = "G_%d+1"
LABEL_DOUBLE = "2·G_%d"
LABEL_DOUBLE_PLUS = "2·(G_%d+1)"


def table_dispatch(d):
    """Construction labels available at dimension d (d x 2d target).

    Checks the three covered families: G_q+1 at q = 2d-1, 2·G_q at q = d,
    and 2·(G_q+1) at q = d-1, each requiring q to be an odd prime power.
    An empty list means none of the implemented families applies.
    """
    d = int(d)
    if not 1 <= d <= 1000:
        raise InvalidArgumentError("dispatch covers 1 <= d <= 1000")
    labels = []
    if is_odd_prime_power(2 * d - 1):
        labels.append(LABEL_HALF % (2 * d - 1))
    if is_odd_prime_power(d):
        labels.append(LABEL_DOUBLE % d)
    if is_odd_prime_power(d - 1):
        labels.append(LABEL_DOUBLE_PLUS % (d - 1))
    return labels
