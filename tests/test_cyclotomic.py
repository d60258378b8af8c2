"""Exact arithmetic in Q(xi_n)."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knyd.cyclotomic import (CycNum, cyc, cyclotomic_polynomial, mod_p,
                             modular_prime, root_order)


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
    assert a.is_rational()
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


def test_json_round_trip():
    n = 5
    a = cyc(n, 2) * CycNum.rational(n, Fraction(3, 4)) - cyc(n, 1)
    assert CycNum.from_json(a.to_json()) == a


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
            # even when b is a unit mod p: then there is no image
            assert mod_p(a / b, p) in (None, ra * pow(rb, -1, p) % p)


def test_mod_p_undefined_on_p_in_denominator():
    n, p = 3, SMALL_PRIME[3]
    assert mod_p(CycNum.rational(n, Fraction(2, p)), p) is None
    assert mod_p(CycNum.rational(n, Fraction(p, 2)), p) == 0
    assert mod_p(CycNum.rational(n, Fraction(1, 2)), p) == pow(2, -1, p)
