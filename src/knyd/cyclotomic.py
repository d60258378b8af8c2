"""Exact arithmetic in the cyclotomic field Q(xi_n) for odd n >= 3.

Elements are represented in the power basis 1, xi, ..., xi^{deg-1} modulo
the n-th cyclotomic polynomial Phi_n, so every element has a unique normal
form and equality is coefficient-wise.  Internally a CycNum keeps an integer
numerator vector together with a single positive integer denominator; the
whole vector is reduced by the gcd of all entries, which keeps arithmetic in
fast integer operations and still gives a canonical form.

`mod_p` reduces an element to F_p for a prime p = 1 (mod n), sending xi to
a primitive n-th root of unity mod p; `modular_prime` fixes one such p per
n.  The reduction is a ring map wherever it is defined, so a matrix rank
mod p never exceeds the rank over Q(xi_n).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt


def cyclotomic_polynomial(n: int) -> list[int]:
    """Coefficients of Phi_n, ascending degree, computed by recursively
    dividing x^n - 1 by Phi_d over the proper divisors d of n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return [-1, 1]
    # x^n - 1
    poly = [0] * (n + 1)
    poly[0] = -1
    poly[n] = 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divexact(poly, cyclotomic_polynomial(d))
    return poly


def _poly_divexact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (ascending coefficients)."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c % den[-1] != 0:
            raise ArithmeticError("division is not exact")
        c //= den[-1]
        q[i] = c
        for j, dj in enumerate(den):
            num[i + j] -= c * dj
    if any(num):
        raise ArithmeticError("division is not exact")
    return q


@lru_cache(maxsize=None)
def _field_data(n: int):
    """Per-conductor tables: degree of Phi_n and the power-basis expansion
    of xi^k for k = 0 .. 2*deg - 2 (integer tuples; Phi_n is monic)."""
    if n < 3 or n % 2 == 0:
        raise ValueError("conductor must be odd and >= 3, got %r" % (n,))
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    powers = []
    for k in range(deg):
        row = [0] * deg
        row[k] = 1
        powers.append(tuple(row))
    # xi^deg = -(phi_0 + phi_1 xi + ... + phi_{deg-1} xi^{deg-1})
    for k in range(deg, 2 * deg - 1):
        prev = powers[k - 1]
        row = [0] * deg
        for i in range(deg - 1):
            row[i + 1] = prev[i]
        top = prev[deg - 1]
        if top:
            for i in range(deg):
                row[i] -= top * phi[i]
        powers.append(tuple(row))
    return deg, tuple(phi), tuple(powers)


def _gcd_all(nums, den):
    g = den
    for c in nums:
        if c:
            g = gcd(g, c)
            if g == 1:
                return 1
    return g


class CycNum:
    """An element of Q(xi_n): integer coefficient vector over one positive
    denominator, reduced so that gcd(coeffs, den) = 1."""

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, num: tuple[int, ...], den: int, _normalized=False):
        if not _normalized:
            if den == 0:
                raise ZeroDivisionError("zero denominator")
            if den < 0:
                den = -den
                num = tuple(-c for c in num)
            if not any(num):
                num = (0,) * len(num)
                den = 1
            else:
                g = _gcd_all(num, den)
                if g > 1:
                    num = tuple(c // g for c in num)
                    den //= g
        self.n = n
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(n: int) -> "CycNum":
        deg, _, _ = _field_data(n)
        return CycNum(n, (0,) * deg, 1, _normalized=True)

    @staticmethod
    def one(n: int) -> "CycNum":
        return CycNum.rational(n, 1)

    @staticmethod
    def rational(n: int, value) -> "CycNum":
        deg, _, _ = _field_data(n)
        frac = Fraction(value)
        num = [0] * deg
        num[0] = frac.numerator
        return CycNum(n, tuple(num), frac.denominator)

    @staticmethod
    def from_coeffs(n: int, coeffs) -> "CycNum":
        """Build from a length-deg sequence of rationals (power basis)."""
        deg, _, _ = _field_data(n)
        fracs = [Fraction(c) for c in coeffs]
        if len(fracs) != deg:
            raise ValueError("expected %d coefficients" % deg)
        den = 1
        for f in fracs:
            den = den * f.denominator // gcd(den, f.denominator)
        num = tuple(f.numerator * (den // f.denominator) for f in fracs)
        return CycNum(n, num, den)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        return self.den == 1 and self.num[0] == 1 and not any(self.num[1:])

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "CycNum"):
        if self.n != other.n:
            raise ValueError("conductor mismatch: %d vs %d" % (self.n, other.n))

    def __add__(self, other):
        if not isinstance(other, CycNum):
            return NotImplemented
        self._check(other)
        a, b = self, other
        if a.den == b.den:
            return CycNum(a.n, tuple(x + y for x, y in zip(a.num, b.num)), a.den)
        num = tuple(x * b.den + y * a.den for x, y in zip(a.num, b.num))
        return CycNum(a.n, num, a.den * b.den)

    def __sub__(self, other):
        if not isinstance(other, CycNum):
            return NotImplemented
        self._check(other)
        a, b = self, other
        if a.den == b.den:
            return CycNum(a.n, tuple(x - y for x, y in zip(a.num, b.num)), a.den)
        num = tuple(x * b.den - y * a.den for x, y in zip(a.num, b.num))
        return CycNum(a.n, num, a.den * b.den)

    def __neg__(self):
        return CycNum(self.n, tuple(-c for c in self.num), self.den, _normalized=True)

    def __mul__(self, other):
        if not isinstance(other, CycNum):
            return NotImplemented
        self._check(other)
        deg, _, powers = _field_data(self.n)
        a, b = self.num, other.num
        conv = [0] * (2 * deg - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        out = list(conv[:deg])
        for k in range(deg, 2 * deg - 1):
            ck = conv[k]
            if ck:
                row = powers[k]
                for i in range(deg):
                    if row[i]:
                        out[i] += ck * row[i]
        return CycNum(self.n, tuple(out), self.den * other.den)

    def inv(self) -> "CycNum":
        """Multiplicative inverse via the extended gcd of the representative
        polynomial with Phi_n."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        deg, phi, _ = _field_data(self.n)
        a = [Fraction(c, self.den) for c in self.num]
        b = [Fraction(c) for c in phi]
        # extended Euclid: s*a + t*b = gcd; we only track s
        r0, r1 = b, a
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while True:
            while r1 and r1[-1] == 0:
                r1.pop()
            if len(r1) == 1:
                c = r1[0]
                coeffs = [x / c for x in s1] + [Fraction(0)] * deg
                return CycNum.from_coeffs(self.n, coeffs[:deg])
            q, r = _frac_poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _frac_poly_sub(s0, _frac_poly_mul(q, s1))

    def __truediv__(self, other):
        if not isinstance(other, CycNum):
            return NotImplemented
        return self * other.inv()

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        result = CycNum.one(self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- comparison / hashing ------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, CycNum):
            return NotImplemented
        return self.n == other.n and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.n, self.num, self.den))

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.num):
            if not c:
                continue
            coeff = Fraction(c, self.den)
            if k == 0:
                terms.append(str(coeff))
            elif k == 1:
                terms.append("%s*x" % coeff if coeff != 1 else "x")
            else:
                terms.append("%s*x^%d" % (coeff, k) if coeff != 1 else "x^%d" % k)
        return "CycNum(%d: %s)" % (self.n, " + ".join(terms) if terms else "0")

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        coeffs = []
        for c in self.num:
            f = Fraction(c, self.den)
            coeffs.append([f.numerator, f.denominator])
        return {"n": self.n, "coeffs": coeffs}

    @staticmethod
    def from_json(obj: dict) -> "CycNum":
        return CycNum.from_coeffs(obj["n"], [Fraction(p, q) for p, q in obj["coeffs"]])


def _frac_poly_divmod(a, b):
    a = list(a)
    db = len(b) - 1
    q = [Fraction(0)] * max(len(a) - db, 1)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] / b[-1]
        q[i - db] = c
        if c:
            for j in range(db + 1):
                a[i - db + j] -= c * b[j]
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return q, a


def _frac_poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _frac_poly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] += ai
    for i, bi in enumerate(b):
        out[i] -= bi
    return out


@lru_cache(maxsize=None)
def _xi_powers(n: int) -> tuple[CycNum, ...]:
    """xi^0 .. xi^{n-1} in normal form."""
    deg, _, _ = _field_data(n)
    xi1 = [0] * deg
    xi1[1] = 1
    xi = CycNum(n, tuple(xi1), 1, _normalized=True)
    out = [CycNum.one(n)]
    for _ in range(n - 1):
        out.append(out[-1] * xi)
    return tuple(out)


def cyc(n: int, k: int) -> CycNum:
    """xi^k in Q(xi_n); conductor must be odd and >= 3."""
    return _xi_powers(n)[k % n]


@lru_cache(maxsize=None)
def modular_prime(n: int) -> int:
    """The least prime p > 2^30 with p = 1 (mod n), so that F_p holds a
    primitive n-th root of unity."""
    p = (2 ** 30 // (2 * n) + 1) * 2 * n + 1   # odd and 1 mod n
    while any(p % d == 0 for d in range(3, isqrt(p) + 1, 2)):
        p += 2 * n
    return p


@lru_cache(maxsize=None)
def _omega_powers(n: int, p: int) -> tuple[int, ...]:
    """omega^0 .. omega^{deg-1} mod p for omega = g^((p-1)/n), g the least
    base with omega of order exactly n.  For a prime p = 1 (mod n) omega is
    then a root of Phi_n mod p, so xi -> omega is a ring map from Z[xi]."""
    if (p - 1) % n:
        raise ValueError("p = %d is not 1 mod %d" % (p, n))
    deg, _, _ = _field_data(n)
    for g in range(2, p):
        omega = pow(g, (p - 1) // n, p)
        if all(pow(omega, k, p) != 1 for k in range(1, n)):
            return tuple(pow(omega, k, p) for k in range(deg))
    raise ValueError("no primitive %d-th root of unity mod %d" % (n, p))


def mod_p(a: CycNum, p: int) -> int | None:
    """The image of a in F_p under xi -> omega (`_omega_powers`), or None
    when p divides the denominator of a."""
    if a.den % p == 0:
        return None
    value = sum(c * w for c, w in zip(a.num, _omega_powers(a.n, p)))
    if a.den != 1:
        value *= pow(a.den, -1, p)
    return value % p


def root_order(a: CycNum) -> int | None:
    """Smallest k >= 1 with a^k = 1, or None if a is not a root of unity
    of order <= 2n (the only orders occurring in Q(xi_n) for odd n)."""
    if a.is_zero():
        return None
    one = CycNum.one(a.n)
    p = a
    for k in range(1, 2 * a.n + 1):
        if p == one:
            return k
        p = p * a
    return None
