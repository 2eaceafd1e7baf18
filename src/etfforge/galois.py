"""Finite fields GF(p^k) as index tables, and symplectic line systems.

An element of GF(p^k) is an int n in 0..q-1.  Its base-p digits are the
little-endian coefficients of a polynomial residue modulo the
lexicographically least monic irreducible of degree k, so n counts the
field in coefficient-lex order.  make_field returns the field as three
tables: digits[n] (those coefficients), exp[e] = g^e for the first
generator g in coefficient-lex order, and log, the inverse of exp.
Addition and subtraction act digit-wise mod p, multiplication adds logs
mod q-1, and the quadratic character is the parity of log.  Everything
is exact integer arithmetic; no floats.

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


# Polynomial helpers over GF(p), little-endian coefficient lists.

def _poly_trim(a):
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def _poly_mulmod(a, b, f, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_modred(out, f, p)


def _poly_modred(a, f, p):
    a = list(a)
    deg_f = len(f) - 1
    for i in range(len(a) - 1, deg_f - 1, -1):
        c = a[i] % p
        if c:
            # subtract c * x^(i - deg_f) * f; f is monic.
            shift = i - deg_f
            for j, fj in enumerate(f):
                a[shift + j] = (a[shift + j] - c * fj) % p
    return _poly_trim(a[:deg_f])


def _poly_powmod(base, e, f, p):
    result = [1]
    acc = _poly_modred(base, f, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, acc, f, p)
        acc = _poly_mulmod(acc, acc, f, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    return a


def _poly_divmod(a, b, p):
    a = list(a)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(b[-1], p - 2, p)
    deg_b = len(b) - 1
    quot = [0] * max(1, len(a) - deg_b)
    while len(_poly_trim(a)) - 1 >= deg_b and _poly_trim(a):
        a = _poly_trim(a)
        shift = len(a) - 1 - deg_b
        c = (a[-1] * inv_lead) % p
        quot[shift] = c
        for j, bj in enumerate(b):
            a[shift + j] = (a[shift + j] - c * bj) % p
    return _poly_trim(quot), _poly_trim(a)


def _poly_sub(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        ai = a[i] if i < len(a) else 0
        bi = b[i] if i < len(b) else 0
        out[i] = (ai - bi) % p
    return _poly_trim(out)


def _is_irreducible(f, p):
    """Rabin's test for a monic polynomial f over GF(p)."""
    k = len(f) - 1
    x = [0, 1]
    xq = _poly_powmod(x, p**k, f, p)
    if _poly_trim(_poly_sub(xq, x, p)):
        return False
    for r in factor_into_primes(k):
        xe = _poly_powmod(x, p ** (k // r), f, p)
        g = _poly_gcd(_poly_sub(xe, x, p), f, p)
        if len(g) != 1:
            return False
    return True


def _first_generator(f, p, q):
    """First multiplicative generator of GF(p)[x]/f in coefficient-lex order,
    as a coefficient list of length k.  For k > 1 the search starts at
    n = p: the constants below it have orders dividing p - 1 < q - 1."""
    k = len(f) - 1
    order = q - 1
    prime_divisors = factor_into_primes(order)
    for n in range(p if k > 1 else 1, q):
        g = [n // p**i % p for i in range(k)]
        if all(_poly_powmod(g, order // r, f, p) != [1] for r in prime_divisors):
            return g
    raise NumericFailureError("no generator found")  # pragma: no cover


class GaloisField:
    """GF(p^k) as digit, exp and log tables over element indices 0..q-1.

    Arithmetic takes ints or integer arrays of element indices and
    broadcasts.  log[0] is -1: zero has no logarithm.
    """

    def __init__(self, p, k, modulus):
        self.p = p
        self.k = k
        self.q = q = p**k
        self.modulus = tuple(modulus)
        f = list(self.modulus)
        self.weights = p ** np.arange(k, dtype=np.int64)
        self.digits = np.arange(q, dtype=np.int64)[:, None] // self.weights % p
        # exp by doubling: powers g^(m..2m-1) are powers g^(0..m-1) times
        # h = g^m, a linear map on digit vectors whose row j is h x^j mod f.
        # Row j+1 is row j times x: shifted up one digit, less its top
        # digit times f (f is monic, so x^k = -f[:k] mod f).
        low = np.array(f[:k], dtype=np.int64)
        powers = np.zeros((q - 1, k), dtype=np.int64)
        powers[0, 0] = 1
        h, m = np.array(_first_generator(f, p, q), dtype=np.int64), 1
        times_h = np.empty((k, k), dtype=np.int64)
        while m < q - 1:
            times_h[0] = h
            for j in range(1, k):
                prev = times_h[j - 1]
                times_h[j] = (np.concatenate(([0], prev[:-1])) - prev[-1] * low) % p
            r = min(m, q - 1 - m)
            powers[m : m + r] = powers[:r] @ times_h % p
            h = h @ times_h % p
            m *= 2
        self.exp = powers @ self.weights
        self.log = np.full(q, -1, dtype=np.int64)
        self.log[self.exp] = np.arange(q - 1)
        if np.any(self.log[1:] < 0):
            raise NumericFailureError("log table misses a nonzero element")

    def __repr__(self):
        return "GaloisField(p=%d, k=%d)" % (self.p, self.k)

    def add(self, a, b):
        return (self.digits[a] + self.digits[b]) % self.p @ self.weights

    def sub(self, a, b):
        return (self.digits[a] - self.digits[b]) % self.p @ self.weights

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
        f = [n // p**i % p for i in range(k)] + [1]
        if _is_irreducible(f, p):
            return GaloisField(p, k, tuple(f))
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
