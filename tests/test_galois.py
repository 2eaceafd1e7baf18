import hashlib
from itertools import zip_longest

import numpy as np
import pytest

import etfforge.galois as galois
from etfforge.errors import InvalidArgumentError
from etfforge.galois import (
    build_line_system,
    factor_into_primes,
    is_prime,
    make_field,
    prime_power_decomposition,
)


# A list-polynomial oracle over GF(p), on little-endian coefficient lists
# of Python ints, independent of galois's matrix arithmetic.

def _trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _mulmod(a, b, f, p):
    out = [0] * (len(a) + len(b))
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    deg = len(f) - 1
    for i in range(len(out) - 1, deg - 1, -1):
        c = out[i] % p  # subtract c x^(i - deg) f; f is monic
        for j, fj in enumerate(f):
            out[i - deg + j] -= c * fj
    return _trim(c % p for c in out[:deg])


def _sub(a, b, p):
    return _trim((x - y) % p for x, y in zip_longest(a, b, fillvalue=0))


def _powmod(a, e, f, p):
    out, a = [1], _mulmod(a, [1], f, p)
    while e:
        if e & 1:
            out = _mulmod(out, a, f, p)
        a = _mulmod(a, a, f, p)
        e >>= 1
    return out


def _poly(field, n):
    """Element n of the field as a trimmed coefficient list."""
    return _trim(galois._digits(n, field.p, field.k).tolist())


def _index(poly, p):
    return sum(c * p**i for i, c in enumerate(poly))


# the largest prime field, and the largest fields of the longest moduli
# with p = 3 and p = 2, under the 10^6 order cap
_EXTREMES = [(999983, 1), (3, 12), (2, 19)]


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-3, 50):
        assert is_prime(n) == (n in primes)
    assert is_prime(2**31 - 1)  # Mersenne
    assert not is_prime(2**31 - 2)


def test_prime_power_decomposition():
    assert prime_power_decomposition(9) == (3, 2)
    assert prime_power_decomposition(25) == (5, 2)
    assert prime_power_decomposition(27) == (3, 3)
    assert prime_power_decomposition(13) == (13, 1)
    assert prime_power_decomposition(1) is None
    assert prime_power_decomposition(12) is None
    assert prime_power_decomposition(0) is None


def test_trial_division_matches_a_sieve():
    # the least prime factor of every n <= 10^4 by the sieve of Eratosthenes
    top = 10**4
    least = list(range(top + 1))
    for f in range(2, 101):
        if least[f] == f:
            for m in range(f * f, top + 1, f):
                least[m] = min(least[m], f)
    for n in range(top + 1):
        primes, m = [], n
        while m > 1:
            primes.append(least[m])
            while m % primes[-1] == 0:
                m //= primes[-1]
        assert is_prime(n) == (n >= 2 and least[n] == n)
        assert factor_into_primes(n) == primes
        expected = None
        if len(primes) == 1:
            k = 0
            while primes[0] ** (k + 1) <= n:
                k += 1
            expected = (primes[0], k)
        assert prime_power_decomposition(n) == expected
    assert prime_power_decomposition(2**31 - 1) == (2**31 - 1, 1)
    assert factor_into_primes(2**31 - 2) == [2, 3, 7, 11, 31, 151, 331]


def test_prime_field_arithmetic():
    f = make_field(7)
    assert f.add(3, 5) == 1  # 3+5 = 8 = 1 mod 7
    assert f.mul(3, 5) == 1  # 15 = 1 mod 7
    assert f.sub(0, 3) == 4
    assert f.sub(3, 5) == 5
    inv5 = f.exp[-f.log[5] % 6]
    assert f.mul(5, inv5) == 1
    assert f.mul(f.mul(3, inv5), 5) == 3  # (3 / 5) * 5 = 3
    assert f.mul(0, 3) == 0 and f.mul(3, 0) == 0
    assert f.exp[6 * f.log[3] % 6] == 1  # Fermat


def test_extension_field_fermat():
    # every element of GF(25) satisfies x^25 = x, and g^e runs over GF(25)*
    f = make_field(5, 2)
    assert f.q == 25
    assert sorted(f.exp) == list(range(1, 25))
    assert np.array_equal(galois._digits(np.arange(25), 5, 2) @ f.weights, np.arange(25))
    for n in range(25):
        x = _poly(f, n)
        assert _powmod(x, 25, list(f.modulus), 5) == x


@pytest.mark.parametrize("p, counts", [(2, [1, 2, 3, 6, 9, 18, 30]), (3, [3, 8, 18]),
                                       (5, [10, 40]), (7, [21])])
def test_rabin_counts_the_irreducibles(p, counts):
    # Gauss's count of monic irreducibles of degree k = 2, 3, ... over
    # GF(p), (1/k) sum over d | k of mu(d) p^(k/d), against Rabin's test
    # run on every monic polynomial of that degree
    for k, count in enumerate(counts, start=2):
        polys = [tuple(n // p**i % p for i in range(k)) + (1,) for n in range(p**k)]
        assert sum(galois._is_irreducible(f, p) for f in polys) == count


def test_make_field_validates():
    with pytest.raises(InvalidArgumentError):
        make_field(6)
    with pytest.raises(InvalidArgumentError):
        make_field(5, 0)


def test_make_field_caps_order_at_10_6():
    assert make_field(999983).q == 999983
    assert make_field(2, 19).q == 2**19
    for p, k in [(1000003, 1), (2, 20), (3, 13), (1009, 2), (2**31 - 1, 1), (3, 10**9)]:
        with pytest.raises(InvalidArgumentError, match="10\\^6"):
            make_field(p, k)


def test_quadratic_character_gf7():
    f = make_field(7)
    squares = {1, 2, 4}
    for n in range(7):
        if n == 0:
            assert f.chi(n) == 0
        elif n in squares:
            assert f.chi(n) == 1
        else:
            assert f.chi(n) == -1
    assert list(f.chi(np.arange(7))) == [0, 1, 1, -1, 1, -1, -1]


def test_character_of_minus_one_by_residue():
    # chi(-1) = +1 iff q = 1 mod 4
    for q, expect in [(5, 1), (9, 1), (13, 1), (3, -1), (7, -1), (11, -1), (27, -1)]:
        p, k = prime_power_decomposition(q)
        f = make_field(p, k)
        assert f.chi(f.sub(0, 1)) == expect
    f2 = make_field(2)
    with pytest.raises(InvalidArgumentError):
        f2.chi(1)


def test_find_generator_has_full_order():
    for p, k in [(7, 1), (3, 2), (13, 1), (5, 2)] + _EXTREMES:
        f = make_field(p, k)
        q = f.q
        assert sorted(f.exp) == list(range(1, q))
        assert f.exp[0] == 1 and f.mul(f.exp[q - 2], f.exp[1]) == 1
        g = _poly(f, f.exp[1])
        for r in factor_into_primes(q - 1):
            assert _powmod(g, (q - 1) // r, list(f.modulus), p) != [1]


@pytest.mark.parametrize("p, k", [(3, 2), (5, 2), (3, 3)] + _EXTREMES)
def test_table_mul_matches_polynomial_product(p, k):
    # every pair in the small fields, 300 sampled pairs in the extremes
    f = make_field(p, k)
    if f.q <= 27:
        a, b = (m.ravel() for m in np.meshgrid(np.arange(f.q), np.arange(f.q), indexing="ij"))
    else:
        a, b = np.random.default_rng(0).integers(0, f.q, size=(2, 300))
    table = f.mul(a, b)
    for x, y, got in zip(a, b, table):
        assert got == _index(_mulmod(_poly(f, x), _poly(f, y), list(f.modulus), p), p)


def test_field_tables_match_pinned_digest():
    # modulus, exp and log of every prime power q < 4096, then of GF(q^2)
    # for each odd prime power q <= 81: any change to the modulus search,
    # the generator search or the table build moves this digest
    fields = [prime_power_decomposition(q) for q in range(2, 4096)]
    fields += [(pk[0], 2 * pk[1]) for pk in map(prime_power_decomposition, range(3, 82, 2)) if pk]
    digest = hashlib.sha256()
    count = 0
    for p, k in filter(None, fields):
        f = make_field(p, k)
        for table in (f.modulus, f.exp, f.log):
            digest.update(np.asarray(table, dtype=np.int64).tobytes())
        count += 1
    assert count == 629
    assert digest.hexdigest() == "00256476abe1cfc7e5bb0f452ee0e3d5b79e6d27dec0dbaa66ddb3388474e36c"


def _form_by_polynomials(system, x, y):
    """zeta^((q+1)/2) (x y^q - y x^q) for exponents x, y of zeta, evaluated
    with polynomial arithmetic; returns the element index."""
    ext, q = system.ext, system.q
    f, p = list(ext.modulus), ext.p
    zeta = _poly(ext, ext.exp[1])
    tx, ty = _powmod(zeta, x, f, p), _powmod(zeta, y, f, p)
    diff = _sub(_mulmod(tx, _powmod(ty, q, f, p), f, p),
                _mulmod(ty, _powmod(tx, q, f, p), f, p), p)
    return _index(_mulmod(_powmod(zeta, (q + 1) // 2, f, p), diff, f, p), p)


@pytest.mark.parametrize("variant", ["halfturn", "fullturn"])
@pytest.mark.parametrize("q", [3, 5, 9, 27])
def test_form_logs_match_polynomial_form(q, variant):
    sys = build_line_system(q, variant)
    logs = sys.form_logs()
    reps = sys.representatives
    for i in range(q + 1):
        for j in range(q + 1):
            got = 0 if logs[i, j] < 0 else sys.ext.exp[logs[i, j]]
            assert got == _form_by_polynomials(sys, int(reps[i]), int(reps[j]))


@pytest.mark.parametrize("q", [3, 5, 7, 9, 13])
def test_line_system_halfturn_shape(q):
    sys = build_line_system(q, "halfturn")
    m = (q + 1) // 2
    order = q * q - 1
    assert len(sys.representatives) == q + 1
    assert sys.cycle_len == m
    assert len(sys.alpha_signs) == m
    # orbit closure: applying the step zeta^(1-q) m times returns the start
    # up to the recorded wrap sign
    for eps in (0, 1):
        start = sys.representatives[eps * m]
        assert (start + m * (1 - q)) % order == (sys.alpha_signs[m - 1] + start) % order
    assert sys.chi(sys.alpha_signs[m - 1]) == (1 if q % 4 == 1 else -1)


@pytest.mark.parametrize("q", [3, 5, 9])
def test_line_system_fullturn_shape(q):
    sys = build_line_system(q, "fullturn")
    n = q + 1
    assert len(sys.representatives) == n
    assert sys.cycle_len == n
    # zeta times the last representative equals zeta^(q+1) times the first
    assert (1 + sys.representatives[n - 1]) % (q * q - 1) == (
        sys.alpha_signs[n - 1] + sys.representatives[0]) % (q * q - 1)


def test_line_system_form_properties():
    sys = build_line_system(5, "halfturn")
    logs = sys.form_logs()
    n = len(sys.representatives)
    half = (5 * 5 - 1) // 2  # -1 = zeta^half
    for i in range(n):
        assert logs[i, i] == -1  # zero on the diagonal
        for j in range(i):
            assert logs[j, i] >= 0  # nonzero off it
            # alternating: [x,y] = -[y,x]
            assert logs[i, j] == (logs[j, i] + half) % 24
            # value lies in the subfield, so chi is defined
            assert sys.chi(logs[j, i]) in (-1, 1)


def test_line_system_rejects_same_line():
    sys = build_line_system(5, "fullturn")
    reps = sys.representatives.copy()
    reps[4] = reps[1] + 6  # zeta^6 lies in GF(5)*, so the same line
    dup = type(sys)(q=5, variant="fullturn", ext=sys.ext, representatives=reps,
                    alpha_signs=sys.alpha_signs, cycle_len=6)
    with pytest.raises(InvalidArgumentError, match="1 and 4"):
        dup.form_logs()


def test_line_system_rejects_bad_q():
    with pytest.raises(InvalidArgumentError):
        build_line_system(4, "halfturn")
    with pytest.raises(InvalidArgumentError):
        build_line_system(15, "halfturn")
    with pytest.raises(InvalidArgumentError):
        build_line_system(5, "sideways")
    with pytest.raises(InvalidArgumentError):
        build_line_system(1009, "fullturn")  # q^2 past the field cap


def test_line_system_refuses_q_by_size_before_factoring(monkeypatch):
    # factoring is trial division up to sqrt(q): a huge q must meet the
    # cap first, or a 19-digit prime q divides by every odd f up to 10^9
    def no_factoring(n):
        raise AssertionError("q was factored before the cap check")

    monkeypatch.setattr(galois, "_prime_powers", no_factoring)
    with pytest.raises(InvalidArgumentError, match="past the line-system cap"):
        build_line_system(1009, "fullturn")
