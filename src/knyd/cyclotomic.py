"""Exact arithmetic in the cyclotomic field Q(xi_n) for odd n >= 3.

Elements are represented in the power basis 1, xi, ..., xi^{deg-1} modulo
the n-th cyclotomic polynomial Phi_n, so every element has a unique normal
form and equality is coefficient-wise.  Internally a CycNum keeps an integer
numerator vector together with a single positive integer denominator; the
whole vector is reduced by the gcd of all entries, which keeps arithmetic in
fast integer operations and still gives a canonical form.

`mod_p` reduces an element to F_p for a prime p = 1 (mod n), sending xi to
a primitive n-th root of unity mod p; `modular_prime` fixes one such p per
n.  The reduction is the ring map at the prime (p, xi - omega), defined on
every element integral there, so a matrix rank mod p never exceeds the rank
over Q(xi_n).  The phi(n) embeddings xi -> omega^u, u a unit mod n, are all
the ring maps Z[xi_n] -> F_p (`root_images`); `from_images` goes back, from
the images of an element under all of them to the element itself, when its
coefficients are small fractions.
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
        """Multiplicative inverse by the Galois norm: for a = num / den and
        b the product of the conjugates xi -> xi^k of num over the units
        k != 1 mod n, num * b = N(num) is a nonzero integer, so
        a^-1 = den * b / N(num)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        n, num = self.n, self.num
        deg = len(num)
        powers = _xi_powers(n)
        b = None
        for k in _units(n)[1:]:
            conj = [0] * deg
            for i, c in enumerate(num):
                if c:
                    for j, x in enumerate(powers[i * k % n].num):
                        conj[j] += c * x
            conj = CycNum(n, tuple(conj), 1, _normalized=True)
            b = conj if b is None else b * conj
        norm = (CycNum(n, num, 1, _normalized=True) * b).num[0]
        return CycNum(n, tuple(self.den * c for c in b.num), norm)

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
def _roots(n: int) -> tuple[CycNum, ...]:
    """The 2n roots of unity of Q(xi_n), indexed by their exponent e."""
    powers = _xi_powers(n)
    return tuple(-powers[e % n] if e % 2 else powers[e % n]
                 for e in range(2 * n))


def root(n: int, e: int) -> CycNum:
    """The root of unity with exponent e in Z/2n (see `root_exponents`):
    (-1)^(e mod 2) xi^(e mod n).  xi^k has exponent k(n+1) mod 2n, -1 has
    exponent n."""
    return _roots(n)[e % (2 * n)]


@lru_cache(maxsize=None)
def root_exponents(n: int) -> dict[CycNum, int]:
    """The 2n roots of unity of Q(xi_n), each mapped to its exponent e in
    Z/2n; the inverse of `root`.  Since n is odd, Z/2n = Z/2 x Z/n by CRT
    and e stands for (-1)^(e mod 2) xi^(e mod n), so a product of roots is
    the root of the sum of their exponents mod 2n."""
    return {r: e for e, r in enumerate(_roots(n))}


# Miller-Rabin with the first 13 primes as bases decides primality of every
# p below the bound (Sorenson and Webster, 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin test of an odd p, 41 < p < _MR_BOUND."""
    if not 41 < p < _MR_BOUND:
        raise ValueError("no deterministic primality test for %d" % p)
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    # p is composite if some base a has a^d != 1 and a^(d 2^j) != -1, j < s
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x != 1 and all(pow(x, 2 ** j, p) != p - 1 for j in range(s)):
            return False
    return True


@lru_cache(maxsize=None)
def modular_prime(n: int) -> int:
    """The least prime p > 2^30 with p = 1 (mod n), so that F_p holds a
    primitive n-th root of unity."""
    p = (2 ** 30 // (2 * n) + 1) * 2 * n + 1   # odd and 1 mod n
    while not _is_prime(p):
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


@lru_cache(maxsize=None)
def _units(n: int) -> tuple[int, ...]:
    return tuple(u for u in range(1, n) if gcd(u, n) == 1)


@lru_cache(maxsize=None)
def root_images(n: int, p: int) -> tuple[tuple[int, ...], ...]:
    """For each embedding xi -> omega^u of Z[xi_n] into F_p, u a unit mod n
    in ascending order and omega that of `_omega_powers`, the images of the
    2n roots of unity, indexed by their exponent (`root`).  The omega^u are
    the phi(n) roots of Phi_n mod p, so these are all the embeddings; the
    first, u = 1, is that of `mod_p`."""
    omega = _omega_powers(n, p)[1]
    return tuple(tuple((-1) ** e * pow(omega, u * e, p) % p
                       for e in range(2 * n)) for u in _units(n))


@lru_cache(maxsize=None)
def _images_inverse(n: int, p: int) -> tuple[tuple[int, ...], ...]:
    """The inverse mod p of the Vandermonde matrix V[i][t] = omega^(u_i t)
    that takes power-basis coefficients to the images under the embeddings
    of `root_images`: row t gives coefficient t from the images."""
    deg = len(_omega_powers(n, p))
    omega = _omega_powers(n, p)[1]
    rows = [[pow(omega, u * t, p) for t in range(deg)]
            + [int(i == j) for j in range(deg)]
            for i, u in enumerate(_units(n))]
    for col in range(deg):   # Gauss-Jordan on [V | id]; V is invertible
        piv = next(r for r in range(col, deg) if rows[r][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = pow(rows[col][col], -1, p)
        rows[col] = [x * inv % p for x in rows[col]]
        for r in range(deg):
            f = rows[r][col]
            if r != col and f:
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[col])]
    return tuple(tuple(row[deg:]) for row in rows)


def _rational_reconstruction(a: int, p: int) -> tuple[int, int] | None:
    """The fraction r/s = a mod p with |r|, s <= sqrt((p - 1) / 2), s > 0,
    in lowest terms, by the extended Euclidean algorithm on (p, a) (Wang,
    Guy and Davenport 1982); at most one exists.  None when there is
    none."""
    bound = isqrt((p - 1) // 2)
    r0, r1, s0, s1 = p, a % p, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 < 0:
        r1, s1 = -r1, -s1
    if s1 > bound or gcd(r1, s1) != 1:
        return None
    return r1, s1


def from_images(n: int, p: int, images) -> CycNum | None:
    """The element of Q(xi_n) with the given images in F_p under the
    embeddings of `root_images`, in their order: its power-basis
    coefficients mod p are read off by `_images_inverse` and each is lifted
    by rational reconstruction.  None when one cannot be lifted.  An element
    whose coefficients are fractions r/s with |r|, s <= sqrt((p - 1) / 2)
    is always found; any other result is only congruent mod p to the
    element sought, and must be certified by its caller."""
    coeffs = []
    for row in _images_inverse(n, p):
        frac = _rational_reconstruction(
            sum(w * x for w, x in zip(row, images)), p)
        if frac is None:
            return None
        coeffs.append(Fraction(*frac))
    return CycNum.from_coeffs(n, coeffs)


@lru_cache(maxsize=None)
def root_growth(n: int) -> int:
    """kappa(n) = max_t (1 + sum_{deg <= m < n} |coefficient t of xi^m|):
    multiplying an element of Z[xi_n] by a root of unity +-xi^m makes its
    power-basis coefficients at most kappa(n) times as large as its
    largest.  For a = sum_s a_s xi^s, xi^m a = sum_s a_s xi^(m + s), the
    deg exponents m + s are distinct mod n, and xi^j is a basis vector for
    j < deg.  kappa is 2 for n = 3, 5, 7 and 9, and 6 for n = 15."""
    powers = _xi_powers(n)
    deg = len(powers[0].num)
    return max(1 + sum(abs(powers[m].num[t]) for m in range(deg, n))
               for t in range(deg))


def mod_p(a: CycNum, p: int) -> int | None:
    """The image of a in F_p under xi -> omega (`_omega_powers`), or None
    when a is not integral at the prime (p, xi - omega)."""
    if a.den % p == 0:
        return _mod_p_lifted(a, p)
    value = sum(c * w for c, w in zip(a.num, _omega_powers(a.n, p)))
    if a.den != 1:
        value *= pow(a.den, -1, p)
    return value % p


def _mod_p_lifted(a: CycNum, p: int) -> int | None:
    """`mod_p` when p divides the denominator p^v u of a: omega is lifted
    to the root of unity w = omega^(p^v) mod p^(v+1), a root of Phi_n there
    since p is unramified, and a is integral exactly when p^v divides
    num(w); its image is then num(w) / p^v * u^(-1) mod p."""
    v, u = 0, a.den
    while u % p == 0:
        u //= p
        v += 1
    modulus = p ** (v + 1)
    lift = pow(_omega_powers(a.n, p)[1], p ** v, modulus)
    value = sum(c * pow(lift, k, modulus) for k, c in enumerate(a.num))
    value %= modulus
    if value % p ** v:
        return None
    return value // p ** v * pow(u, -1, p) % p


def root_order(a: CycNum) -> int | None:
    """Smallest k >= 1 with a^k = 1, or None if a is not a root of unity
    (the 2n of `root_exponents` are all of them in Q(xi_n) for odd n)."""
    e = root_exponents(a.n).get(a)
    return None if e is None else 2 * a.n // gcd(e, 2 * a.n)
