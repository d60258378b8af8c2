"""Exact arithmetic in Q(xi_n)."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knyd import cyclotomic
from knyd.cyclotomic import (CycNum, cyc, cyclotomic_polynomial, from_images,
                             mod_p, modular_prime, root, root_exponents,
                             root_growth, root_images, root_order)


def test_cyclotomic_polynomial_small_cases():
    # independently known coefficient lists (ascending degree)
    assert cyclotomic_polynomial(3) == [1, 1, 1]
    assert cyclotomic_polynomial(5) == [1, 1, 1, 1, 1]
    assert cyclotomic_polynomial(7) == [1, 1, 1, 1, 1, 1, 1]
    assert cyclotomic_polynomial(9) == [1, 0, 0, 1, 0, 0, 1]
    assert cyclotomic_polynomial(15) == [1, -1, 0, 1, -1, 1, 0, -1, 1]


@pytest.mark.parametrize("n", [3, 5, 7, 9, 15])
def test_root_of_unity_relations(n):
    xi = cyc(n, 1)
    assert xi ** n == CycNum.one(n)
    for k in range(1, n):
        assert xi ** k != CycNum.one(n)
    # sum over a full orbit of a primitive character vanishes
    total = CycNum.zero(n)
    for k in range(n):
        total = total + cyc(n, k)
    if n in (3, 5, 7):  # prime conductor: 1 + xi + ... + xi^{n-1} = 0
        assert total.is_zero()


def test_constructor_rejects_even_or_unit_conductor():
    with pytest.raises(ValueError):
        CycNum.zero(4)
    with pytest.raises(ValueError):
        CycNum.zero(1)
    with pytest.raises(ValueError):
        cyc(6, 1)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_field_axioms_on_sample(n):
    samples = [cyc(n, 1), cyc(n, 2) - CycNum.rational(n, 3),
               CycNum.rational(n, Fraction(2, 7)) * cyc(n, n - 1),
               CycNum.one(n) + cyc(n, 1) + cyc(n, 2)]
    for a in samples:
        for b in samples:
            assert a + b == b + a
            assert a * b == b * a
            for c in samples:
                assert (a + b) + c == a + (b + c)
                assert a * (b + c) == a * b + a * c
    for a in samples:
        if not a.is_zero():
            assert a * a.inv() == CycNum.one(n)
            assert (a / a).is_one()


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        CycNum.one(3) / CycNum.zero(3)
    with pytest.raises(ZeroDivisionError):
        CycNum.zero(3).inv()


def test_canonical_form_equality():
    n = 3
    # xi^2 = -1 - xi in the power basis mod Phi_3
    assert cyc(n, 2) == -CycNum.one(n) - cyc(n, 1)
    # equality is O(1) structural comparison of normal forms
    a = (cyc(n, 1) + cyc(n, 2)) * CycNum.rational(n, Fraction(1, 2))
    assert a == CycNum.rational(n, Fraction(-1, 2))


def test_rational_detection():
    n = 5
    a = cyc(n, 1) + cyc(n, 2) + cyc(n, 3) + cyc(n, 4)
    assert a == CycNum.rational(n, -1)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_root_order(n):
    assert root_order(CycNum.one(n)) == 1
    for k in range(1, n):
        assert root_order(cyc(n, k)) == n // math.gcd(k, n)
    assert root_order(-CycNum.one(n)) == 2
    for k in range(1, n):
        assert root_order(-cyc(n, k)) == 2 * (n // math.gcd(k, n))
    # non-roots report None
    assert root_order(CycNum.rational(n, 2)) is None
    assert root_order(CycNum.zero(n)) is None
    assert root_order(CycNum.one(n) + CycNum.one(n) + cyc(n, 1)) is None


@pytest.mark.parametrize("n", [3, 5, 9, 15])
def test_root_exponents_is_a_group_isomorphism(n):
    roots = root_exponents(n)
    assert sorted(roots.values()) == list(range(2 * n))
    for a, ea in roots.items():
        assert root_order(a) == 2 * n // math.gcd(ea, 2 * n)
        for b, eb in roots.items():
            assert roots[a * b] == (ea + eb) % (2 * n)
    assert roots[CycNum.one(n)] == 0
    assert roots[-CycNum.one(n)] == n
    assert CycNum.zero(n) not in roots


def test_json_round_trip():
    n = 5
    a = cyc(n, 2) * CycNum.rational(n, Fraction(3, 4)) - cyc(n, 1)
    # power basis 1, xi, xi^2, xi^3 mod Phi_5: a = -xi + 3/4 xi^2
    assert a.to_json() == {"n": 5,
                           "coeffs": [[0, 1], [-1, 1], [3, 4], [0, 1]]}


def test_mixed_conductor_rejected():
    with pytest.raises(ValueError):
        cyc(3, 1) + cyc(5, 1)


# -- reduction mod p -----------------------------------------------------------------

SMALL_PRIME = {3: 7, 5: 11, 7: 29, 9: 19, 15: 31}


@pytest.mark.parametrize("n", [3, 5, 7, 9, 15])
def test_modular_root_is_a_root_of_phi(n):
    # xi -> omega is a ring map Z[xi] -> F_p exactly when Phi_n(omega) = 0
    for p in (modular_prime(n), SMALL_PRIME[n]):
        assert p % n == 1
        assert all(p % d for d in range(2, math.isqrt(p) + 1))
        omega = mod_p(cyc(n, 1), p)
        phi = cyclotomic_polynomial(n)
        assert sum(c * pow(omega, k, p) for k, c in enumerate(phi)) % p == 0
        assert [k for k in range(1, n + 1) if pow(omega, k, p) == 1] == [n]
    assert modular_prime(n) > 2 ** 30


def _trial_division_prime(p):
    return p > 1 and all(p % d for d in range(2, math.isqrt(p) + 1))


@pytest.mark.parametrize("n", [3, 5, 7, 9, 15, 21, 99, 101])
def test_modular_prime_is_the_least(n):
    # no prime of the progression 1 mod 2n above 2^30 comes before it
    p = modular_prime(n)
    start = (2 ** 30 // (2 * n) + 1) * 2 * n + 1
    assert _trial_division_prime(p)
    assert not any(map(_trial_division_prime, range(start, p, 2 * n)))


def test_is_prime_miller_rabin():
    # the odd numbers of a window where modular_prime searches
    for p in range(2 ** 30 + 1, 2 ** 30 + 2001, 2):
        assert cyclotomic._is_prime(p) == _trial_division_prime(p), p
    # strong pseudoprimes to the first 4, 9 and 12 prime bases, a Carmichael
    # number whose squares reach 1 without passing -1, and a prime past the
    # search window
    for factors in ([151, 751, 28351], [149491, 747451, 34233211],
                    [399165290221, 798330580441], [211, 421, 631]):
        assert not cyclotomic._is_prime(math.prod(factors))
        assert all(map(_trial_division_prime, factors))
    assert cyclotomic._is_prime(2 ** 61 - 1)
    # the least strong pseudoprime to all 13 bases is where the test ends
    for p in (41, 3317044064679887385961981):
        with pytest.raises(ValueError):
            cyclotomic._is_prime(p)


@st.composite
def _elements(draw, n):
    deg = len(cyclotomic_polynomial(n)) - 1
    coeffs = draw(st.lists(st.fractions(min_value=-5, max_value=5,
                                        max_denominator=6),
                           min_size=deg, max_size=deg))
    return CycNum.from_coeffs(n, coeffs)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SMALL_PRIME)).flatmap(
    lambda n: st.tuples(st.just(n), _elements(n), _elements(n))))
def test_mod_p_is_a_ring_map(case):
    n, a, b = case
    for p in (modular_prime(n), SMALL_PRIME[n]):
        ra, rb = mod_p(a, p), mod_p(b, p)
        assert mod_p(a + b, p) == (ra + rb) % p
        assert mod_p(a * b, p) == ra * rb % p
        if rb:
            # 1/b is stored over the rational norm of b, which p may divide
            # even when b is a unit mod p; a / b still has its image
            assert mod_p(a / b, p) == ra * pow(rb, -1, p) % p


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 5, 7, 9, 15]).flatmap(
    lambda n: st.tuples(st.just(n), _elements(n), _elements(n),
                        _elements(n))))
def test_field_axioms(case):
    n, a, b, c = case
    zero, one = CycNum.zero(n), CycNum.one(n)
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and (a - a).is_zero()
    assert a + (-a) == zero and (a * zero).is_zero()
    if not a.is_zero():
        assert a * a.inv() == one and a.inv().inv() == a
        assert (b / a) * a == b
        if not b.is_zero():
            assert (a * b).inv() == a.inv() * b.inv()
    else:
        with pytest.raises(ZeroDivisionError):
            a.inv()


def test_mod_p_undefined_on_p_in_denominator():
    n, p = 3, SMALL_PRIME[3]
    assert mod_p(CycNum.rational(n, Fraction(2, p)), p) is None
    assert mod_p(CycNum.rational(n, Fraction(p, 2)), p) == 0
    assert mod_p(CycNum.rational(n, Fraction(1, 2)), p) == pow(2, -1, p)


def test_mod_p_on_p_integral_elements():
    # 1 + 2 xi has norm 11 at n = 5: p = 11 divides the denominator of
    # xi^3 / (xi^2 + 2 xi^3), yet xi -> omega = 4 keeps 1 + 2 omega a unit
    n, p = 5, SMALL_PRIME[5]
    omega = mod_p(cyc(n, 1), p)
    two = CycNum.rational(n, 2)
    b = cyc(n, 2) + two * cyc(n, 3)
    w2 = (omega ** 2 + 2 * omega ** 3) % p
    assert w2
    a = cyc(n, 3) / b
    assert a.den % p == 0
    assert mod_p(a, p) == omega ** 3 * pow(w2, -1, p) % p
    assert mod_p(a / b, p) == omega ** 3 * pow(w2, -2, p) % p
    # 1 + 2 xi^2 vanishes at omega (1 + 2 * 16 = 33): its inverse has no
    # image, but (1 + 2 xi^2) / 11 is a unit at the prime
    c = CycNum.one(n) + two * cyc(n, 2)
    assert mod_p(c, p) == 0
    assert mod_p(c.inv(), p) is None
    assert mod_p(c.inv() * c.inv(), p) is None
    u = c * CycNum.rational(n, Fraction(1, p))
    ru = mod_p(u, p)
    assert ru and mod_p(u.inv(), p) * ru % p == 1
    assert mod_p(u * cyc(n, 1), p) == ru * omega % p


# -- the embeddings into F_p and back ----------------------------------------------


def _units(n):
    return [u for u in range(1, n) if math.gcd(u, n) == 1]


def _conjugate(a, u):
    """a with xi replaced by xi^u."""
    total = CycNum.zero(a.n)
    for t, c in enumerate(a.num):
        total = total + (CycNum.rational(a.n, Fraction(c, a.den))
                         * cyc(a.n, u * t))
    return total


def _images(a, p):
    return tuple(mod_p(_conjugate(a, u), p) for u in _units(a.n))


@pytest.mark.parametrize("n", [3, 5, 7, 9, 15])
def test_root_images_are_the_embeddings(n):
    # one tuple per unit u, the images of the 2n roots under xi -> omega^u,
    # all distinct embeddings; the first is mod_p's
    for p in (modular_prime(n), SMALL_PRIME[n]):
        images = root_images(n, p)
        assert len(images) == len(_units(n)) == len(set(images))
        for u, row in zip(_units(n), images):
            assert list(row) == [mod_p(_conjugate(root(n, e), u), p)
                                 for e in range(2 * n)]
        assert list(images[0]) == [mod_p(root(n, e), p) for e in range(2 * n)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SMALL_PRIME)).flatmap(
    lambda n: st.tuples(st.just(n), _elements(n))))
def test_from_images_inverts_the_embeddings(case):
    # coefficients up to 5 over denominators up to 6 are far inside the
    # reconstruction bound sqrt(p / 2) of modular_prime
    n, a = case
    p = modular_prime(n)
    assert from_images(n, p, _images(a, p)) == a


def test_from_images_past_the_bound():
    # a coefficient beyond sqrt(p / 2) is not recovered: either no fraction
    # fits, or one congruent to it mod p comes back, which only a
    # certificate can tell from the true one
    n, p = 5, modular_prime(5)
    bound = math.isqrt((p - 1) // 2)
    for big in (bound + 1, 3 * bound, Fraction(bound + 1, 2)):
        a = CycNum.rational(n, big) + cyc(n, 1)
        got = from_images(n, p, _images(a, p))
        assert got != a
        assert got is None or _images(got, p) == _images(a, p)


def test_rational_reconstruction():
    p = modular_prime(3)
    bound = math.isqrt((p - 1) // 2)
    for r, s in ((0, 1), (1, 1), (-1, 1), (2, 3), (-5, 7), (bound, 1),
                 (-bound, bound - 1)):
        if math.gcd(r, s) == 1:
            assert cyclotomic._rational_reconstruction(
                r * pow(s, -1, p) % p, p) == (r, s)
    assert cyclotomic._rational_reconstruction(5, 7) is None


@pytest.mark.parametrize("n, kappa", [(3, 2), (5, 2), (7, 2), (9, 2),
                                      (15, 6)])
def test_root_growth_bounds_products_with_roots(n, kappa):
    # |coefficients of +-xi^m a| <= kappa(n) max |coefficients of a|, and
    # kappa(n) is reached: on every a with coefficients in {-1, 0, 1} for
    # n <= 9, on 300 seeded ones for n = 15
    assert root_growth(n) == kappa
    deg = len(cyclotomic_polynomial(n)) - 1
    if n <= 9:
        vectors = itertools.product((-1, 0, 1), repeat=deg)
    else:
        rng = random.Random(15)
        vectors = ([rng.choice((-1, 0, 1)) for _ in range(deg)]
                   for _ in range(300))
    top = 0
    for coeffs in vectors:
        a = CycNum.from_coeffs(n, coeffs)
        for m in range(n):
            top = max(top, max(map(abs, (a * cyc(n, m)).num)))
    assert top == kappa
