"""Finite fields GF(p^k) as index tables, and symplectic line systems.

An element of GF(p^k) is an int n in 0..q-1.  Its base-p digits are the
little-endian coefficients of a polynomial residue modulo the
lexicographically least monic irreducible of degree k, so n counts the
field in coefficient-lex order.  make_field returns the field as two
tables: exp[e] = g^e for the first generator g in coefficient-lex order,
and log, the inverse of exp.  Addition and subtraction act digit-wise
mod p on digits computed from the indices, multiplication adds logs
mod q-1, and the quadratic character is the parity of log.  The tables
are built in exact integer arithmetic modulo the modulus f, written once
as k x k matrices of multiplication by an element (Lidl and Niederreiter,
Finite Fields, ch. 2): Rabin's test, the generator search, the doubling.

A symplectic line system over GF(q^2) stores each representative
t_i = zeta^(a_i) by its exponent a_i, with zeta the generator.  The form
[x, y] = zeta^((q+1)/2) (x y^q - y x^q) is then

    [t_i, t_j] = zeta^((q+1)/2 + a_i + a_j q) (1 - zeta^((a_j - a_i)(1 - q))),

one log lookup of 1 - zeta^e for the q+1 multiples e of q-1 (a Zech
logarithm).  It vanishes exactly when a_i = a_j mod q+1, that is, when
t_i and t_j span one line.  Its value lies in the subfield GF(q) exactly
when its log is a multiple of q+1, because zeta^(q+1) generates GF(q)*,
and the quadratic character of GF(q) there is (-1)^(log/(q+1)).
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import InvalidArgumentError, NumericFailureError

_MAX_FIELD_ORDER = 10**6


def _prime_powers(n):
    """Yield (p, k) for each prime power p^k exactly dividing n, p
    ascending, by trial division; nothing for n < 2.  Lazy, so a caller
    that needs only the least prime stops there."""
    f = 2
    while f * f <= n:
        if n % f == 0:
            k = 0
            while n % f == 0:
                n //= f
                k += 1
            yield f, k
        f += 1 if f == 2 else 2
    if n > 1:
        yield n, 1


def is_prime(n):
    return next(_prime_powers(n), None) == (n, 1)


def prime_power_decomposition(n):
    """Return (p, k) with n = p^k for prime p, or None."""
    least = next(_prime_powers(n), None)
    return least if least is not None and least[0] ** least[1] == n else None


def odd_prime_power(q):
    """(p, k) with q = p^k for an odd prime p; InvalidArgumentError otherwise."""
    decomp = prime_power_decomposition(q)
    if decomp is None or decomp[0] == 2:
        raise InvalidArgumentError("q must be an odd prime power")
    return decomp


def factor_into_primes(n):
    """Distinct prime divisors of n (trial division)."""
    return [p for p, _ in _prime_powers(n)]


# Arithmetic modulo a monic f of degree k over GF(p), on digit row vectors,
# exact in int64: for k = 1 entries are below p < 10^6, so a product is
# below 2^40; for k > 1, p <= 10^3 and k <= 19, so a k-term row sum is below 2^25.

def _digits(n, p, k):
    """The k base-p digits of n, least significant first, on a new last axis."""
    return np.asarray(n, dtype=np.int64)[..., None] // p ** np.arange(k, dtype=np.int64) % p


def _times(g, f, p):
    """The matrix of multiplication by g modulo f: v @ _times(g) is the
    digits of v g.  Row j is g x^j mod f; row j+1 is row j shifted up one
    digit, less its top digit times f (f is monic, so x^k = -f[:k] mod f)."""
    k = len(f) - 1
    low = np.asarray(f[:k], dtype=np.int64)
    rows = np.zeros((k, k), dtype=np.int64)
    rows[0] = g
    for j in range(1, k):
        rows[j, 1:] = rows[j - 1, :-1]
        rows[j] = (rows[j] - rows[j - 1, -1] * low) % p
    return rows


def _power(m, e, p):
    """m^e mod p by square and multiply."""
    out = np.eye(len(m), dtype=np.int64)
    while e:
        if e & 1:
            out = out @ m % p
        m, e = m @ m % p, e >> 1
    return out


def _singular(m, p):
    """Whether the square matrix m is singular over GF(p), by elimination."""
    m = m % p
    for j in range(len(m)):
        i = j + np.argmax(m[j:, j] != 0)
        if m[i, j] == 0:
            return True
        m[[j, i]] = m[[i, j]]
        m[j] = m[j] * pow(int(m[j, j]), -1, p) % p
        m[j + 1:] = (m[j + 1:] - m[j + 1:, j, None] * m[j]) % p
    return False


def _is_irreducible(f, p):
    """Rabin's test for a monic f of degree k > 1 over GF(p): with X the
    multiplication by x, X^(p^k) = X, and X^(p^(k/r)) - X is invertible,
    that is gcd(x^(p^(k/r)) - x, f) = 1, for each prime r | k."""
    k = len(f) - 1
    x = _times(_digits(p, p, k), f, p)  # the element x has index p
    return np.array_equal(_power(x, p**k, p), x) and not any(
        _singular(_power(x, p ** (k // r), p) - x, p) for r in factor_into_primes(k))


def _first_generator(f, p, q):
    """_times(g) for the first multiplicative generator g of GF(p)[x]/f in
    coefficient-lex order: g^((q-1)/r), row 0 of _times(g)^((q-1)/r), is
    not 1 for any prime r | q - 1.  For k > 1 the search starts at n = p: the
    constants below it have orders dividing p - 1 < q - 1."""
    k = len(f) - 1
    one = _digits(1, p, k)
    prime_divisors = factor_into_primes(q - 1)
    for n in range(p if k > 1 else 1, q):
        times_g = _times(_digits(n, p, k), f, p)
        if all(np.any(_power(times_g, (q - 1) // r, p)[0] != one) for r in prime_divisors):
            return times_g
    raise NumericFailureError("no generator found")  # pragma: no cover


class GaloisField:
    """GF(p^k) as exp and log tables over element indices 0..q-1.

    Arithmetic takes ints or integer arrays of element indices and
    broadcasts.  log[0] is -1: zero has no logarithm.
    """

    def __init__(self, p, k, modulus):
        self.p = p
        self.k = k
        self.q = q = p**k
        self.modulus = f = tuple(modulus)
        self.weights = p ** np.arange(k, dtype=np.int64)
        # exp by doubling: powers g^(m..2m-1) are powers g^(0..m-1) times h = g^m
        powers = np.zeros((q - 1, k), dtype=np.int64)
        powers[0, 0] = 1
        times_h, m = _first_generator(f, p, q), 1
        while m < q - 1:
            r = min(m, q - 1 - m)
            powers[m : m + r] = powers[:r] @ times_h % p
            times_h = times_h @ times_h % p
            m *= 2
        self.exp = powers @ self.weights
        self.log = np.full(q, -1, dtype=np.int64)
        self.log[self.exp] = np.arange(q - 1)
        if np.any(self.log[1:] < 0):
            raise NumericFailureError("log table misses a nonzero element")

    def __repr__(self):
        return "GaloisField(p=%d, k=%d)" % (self.p, self.k)

    def add(self, a, b):
        return (_digits(a, self.p, self.k) + _digits(b, self.p, self.k)) % self.p @ self.weights

    def sub(self, a, b):
        return (_digits(a, self.p, self.k) - _digits(b, self.p, self.k)) % self.p @ self.weights

    def mul(self, a, b):
        a, b = np.asarray(a), np.asarray(b)
        prod = self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]
        return np.where((a == 0) | (b == 0), 0, prod)

    def chi(self, a):
        """Quadratic character: 0 at zero, +1 on nonzero squares (even
        logs), -1 otherwise.  Odd characteristic only."""
        if self.p == 2:
            raise InvalidArgumentError("quadratic character undefined in characteristic 2")
        a = np.asarray(a)
        return np.where(a == 0, 0, 1 - 2 * (self.log[a] % 2))


def make_field(p, k=1):
    """Construct GF(p^k), q = p^k <= 10^6, with the lex-least monic
    irreducible modulus (found by Rabin's test) and its index tables."""
    p, k = int(p), int(k)
    if k < 1:
        raise InvalidArgumentError("extension degree must be >= 1")
    # 2^20 > 10^6, so capping the exponent at 20 decides every order
    if p ** min(k, 20) > _MAX_FIELD_ORDER:
        raise InvalidArgumentError("field order exceeds 10^6")
    if not is_prime(p):
        raise InvalidArgumentError("%d is not prime" % p)
    if k == 1:
        return GaloisField(p, 1, (0, 1))
    for n in range(p**k):
        f = (*_digits(n, p, k).tolist(), 1)
        if _is_irreducible(f, p):
            return GaloisField(p, k, f)
    raise NumericFailureError("no irreducible polynomial found")  # pragma: no cover


@dataclass(frozen=True, eq=False)
class SymplecticLineSystem:
    """Projective line representatives over GF(q^2) with the symplectic
    form of the module docstring, stored as exponents of the generator
    zeta = ext.exp[1].

    variant "halfturn": q+1 representatives L^j(zeta^eps) for
    j < (q+1)/2 and eps in {0, 1}, with L(x) = zeta^(1-q) x, stored at
    index eps*(q+1)/2 + j.  L advances j by one; wrapping past the orbit
    end multiplies by the sign zeta^alpha_signs[j].

    variant "fullturn": q+1 representatives zeta^j for j <= q; the map
    x -> zeta x advances j, wrapping with scalar zeta^alpha_signs[q] =
    zeta^(q+1).
    """

    q: int
    variant: str
    ext: GaloisField
    representatives: np.ndarray = dc_field(repr=False)
    alpha_signs: np.ndarray = dc_field(repr=False)
    cycle_len: int = 0

    def form_logs(self):
        """log_zeta [t_i, t_j] for every pair, -1 on the diagonal, where
        the form vanishes.  Raises when two representatives span one line."""
        q, ext = self.q, self.ext
        order = q * q - 1
        a = self.representatives
        e = (a[None, :] - a[:, None]) * (1 - q) % order
        # log(1 - zeta^e) for the q+1 multiples e of q-1; -1 at e = 0
        zech = ext.log[ext.sub(1, ext.exp[(q - 1) * np.arange(q + 1)])]
        logs = ((q + 1) // 2 + a[:, None] + q * a[None, :] + zech[e // (q - 1)]) % order
        same = (e == 0) & ~np.eye(len(a), dtype=bool)
        if np.any(same):
            i, j = np.argwhere(np.triu(same))[0]
            raise InvalidArgumentError(
                "representatives %d and %d span the same line" % (i, j)
            )
        return np.where(e == 0, -1, logs)

    def chi(self, e):
        """Quadratic character of the subfield GF(q) at zeta^e; each e
        must be a multiple of q+1."""
        e = np.asarray(e)
        if np.any(e % (self.q + 1)):
            raise NumericFailureError("value escaped the subfield GF(q)")
        return 1 - 2 * (e // (self.q + 1) % 2)


def within_line_system_cap(q):
    """Whether build_line_system reaches q: its field GF(q^2) has order
    q^2 <= 10^6 (q <= 997)."""
    return q * q <= _MAX_FIELD_ORDER


def build_line_system(q, variant):
    """Assemble the projective line representatives used by the symplectic
    conference constructions, in GF(q^2): q^2 <= 10^6 (q <= 997)."""
    q = int(q)
    if variant not in ("halfturn", "fullturn"):
        raise InvalidArgumentError("variant must be 'halfturn' or 'fullturn'")
    # size first: odd_prime_power factors q by trial division up to sqrt(q)
    if not within_line_system_cap(q):
        raise InvalidArgumentError("q = %d is past the line-system cap q^2 <= 10^6" % q)
    p, k = odd_prime_power(q)
    ext = make_field(p, 2 * k)
    order = q * q - 1
    if variant == "halfturn":
        m = (q + 1) // 2
        j = np.arange(m)
        reps = np.concatenate([eps + j * (1 - q) for eps in (0, 1)]) % order
        alphas = np.array([0] * (m - 1) + [order // 2])
        cycle_len = m
    else:
        reps = np.arange(q + 1)
        alphas = np.array([0] * q + [q + 1])
        cycle_len = q + 1
    return SymplecticLineSystem(
        q=q,
        variant=variant,
        ext=ext,
        representatives=reps,
        alpha_signs=alphas,
        cycle_len=cycle_len,
    )
