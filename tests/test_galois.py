import numpy as np
import pytest

import etfforge.galois as galois
from etfforge.errors import InvalidArgumentError
from etfforge.galois import (
    _poly_mulmod,
    _poly_powmod,
    _poly_sub,
    _poly_trim,
    build_line_system,
    factor_into_primes,
    is_prime,
    make_field,
    prime_power_decomposition,
)


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
    assert np.array_equal(f.digits @ f.weights, np.arange(25))
    for n in range(25):
        x = _poly_trim(list(f.digits[n]))
        assert _poly_powmod(x, 25, list(f.modulus), 5) == x


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
    for q in [7, 9, 13, 25]:
        p, k = prime_power_decomposition(q)
        f = make_field(p, k)
        assert sorted(f.exp) == list(range(1, q))
        assert f.exp[0] == 1 and f.mul(f.exp[q - 2], f.exp[1]) == 1
        g = _poly_trim(list(f.digits[f.exp[1]]))
        for r in factor_into_primes(q - 1):
            assert _poly_powmod(g, (q - 1) // r, list(f.modulus), p) != [1]


@pytest.mark.parametrize("p, k", [(3, 2), (5, 2), (3, 3)])
def test_table_mul_matches_polynomial_product(p, k):
    f = make_field(p, k)
    a, b = np.meshgrid(np.arange(f.q), np.arange(f.q), indexing="ij")
    table = f.mul(a, b)
    for x in range(f.q):
        for y in range(f.q):
            prod = _poly_mulmod(_poly_trim(list(f.digits[x])), _poly_trim(list(f.digits[y])),
                                list(f.modulus), p)
            assert table[x, y] == sum(c * p**i for i, c in enumerate(prod))


def _form_by_polynomials(system, x, y):
    """zeta^((q+1)/2) (x y^q - y x^q) for exponents x, y of zeta, evaluated
    with polynomial arithmetic; returns the element index."""
    ext, q = system.ext, system.q
    f, p = list(ext.modulus), ext.p
    zeta = _poly_trim(list(ext.digits[ext.exp[1]]))
    tx, ty = _poly_powmod(zeta, x, f, p), _poly_powmod(zeta, y, f, p)
    diff = _poly_sub(_poly_mulmod(tx, _poly_powmod(ty, q, f, p), f, p),
                     _poly_mulmod(ty, _poly_powmod(tx, q, f, p), f, p), p)
    val = _poly_mulmod(_poly_powmod(zeta, (q + 1) // 2, f, p), diff, f, p)
    return sum(c * p**i for i, c in enumerate(val))


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
