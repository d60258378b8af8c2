"""The Hopf algebra K_n = k^{Z_n x Z_n} x| kZ_2 for odd n >= 3.

Basis: p_{ij} (idempotents of the function algebra on Z_n x Z_n) and
f_{ij} = p_{ij} x^, for i, j in Z_n, so dim K_n = 2n^2.  Basis indices are
(kind, i, j) with kind P or F, indices reduced mod n.  Structure constants:

    p_{ij} p_{ij} = p_{ij}       p_{ij} f_{ij} = f_{ij}
    f_{ij} p_{ji} = f_{ij}       f_{ij} f_{ji} = p_{ij}

with all other products of basis elements zero (`product_table` is the one
implementation of this rule), and

    Delta(p_{ij}) = sum_{i'+i''=i, j'+j''=j} p_{i'j'} (x) p_{i''j''}
    Delta(f_{ij}) = sum            xi^{i'j'' - j'i''} f_{i'j'} (x) f_{i''j''}
    eps(p_{ij}) = eps(f_{ij}) = delta_{i,0} delta_{j,0}
    S(p_{ij}) = p_{-i,-j}        S(f_{ij}) = f_{-j,-i}
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from operator import itemgetter

from .cyclotomic import CycNum, cyc, root, root_exponents, _field_data

P = 0
F = 1

_KIND_NAME = {P: "p", F: "f"}


class KnAlgebra:
    """Handle for K_n; carries n and the scalar field Q(xi_n)."""

    def __init__(self, n: int):
        _field_data(n)  # validates n odd >= 3
        self.n = n
        self.dim = 2 * n * n

    def xi(self, k: int) -> CycNum:
        return cyc(self.n, k)

    def scalar(self, value) -> CycNum:
        return CycNum.rational(self.n, value)

    def basis_indices(self):
        n = self.n
        for kind in (P, F):
            for i in range(n):
                for j in range(n):
                    yield (kind, i, j)

    def basis(self, kind: int, i: int, j: int) -> "KnElement":
        n = self.n
        return KnElement(self, {(kind, i % n, j % n): self.scalar(1)})

    def unit(self) -> "KnElement":
        """1 = sum_{ij} p_{ij}."""
        one = self.scalar(1)
        return KnElement(self, {(P, i, j): one
                                for i in range(self.n) for j in range(self.n)})

    def __eq__(self, other):
        return isinstance(other, KnAlgebra) and self.n == other.n

    def __hash__(self):
        return hash(("KnAlgebra", self.n))

    def __repr__(self):
        return "KnAlgebra(n=%d)" % self.n


class _SparseElement:
    """Sparse element over Q(xi_n): map key -> CycNum, zeros pruned.  The
    linear arithmetic of K_n (`KnElement`) and K_n (x) K_n
    (`TensorElement`), which differ in their keys and their products."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: KnAlgebra, coeffs: dict):
        self.algebra = algebra
        self.coeffs = {k: v for k, v in coeffs.items() if not v.is_zero()}

    @classmethod
    def _nonzero(cls, algebra: KnAlgebra, coeffs: dict):
        """The element of coeffs, taken as they are: every one is nonzero."""
        out = cls.__new__(cls)
        out.algebra = algebra
        out.coeffs = coeffs
        return out

    def _check(self, other):
        if self.algebra.n != other.algebra.n:
            raise ValueError("algebra mismatch")

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            s = out.get(k)
            out[k] = v if s is None else s + v
        return type(self)(self.algebra, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            s = out.get(k)
            out[k] = -v if s is None else s - v
        return type(self)(self.algebra, out)

    def __neg__(self):
        return type(self)(self.algebra,
                          {k: -v for k, v in self.coeffs.items()})

    def scale(self, a: CycNum):
        return type(self)(self.algebra,
                          {k: v * a for k, v in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.algebra.n == other.algebra.n and self.coeffs == other.coeffs


class KnElement(_SparseElement):
    """Sparse element of K_n: map (kind, i, j) -> CycNum, zeros pruned."""

    __slots__ = ()

    def __hash__(self):
        return hash((self.algebra.n, frozenset(self.coeffs.items())))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for (kind, i, j), v in sorted(self.coeffs.items()):
            parts.append("(%r)*%s[%d,%d]" % (v, _KIND_NAME[kind], i, j))
        return " + ".join(parts)

    def __mul__(self, other: "KnElement") -> "KnElement":
        return multiply(self, other)


@lru_cache(maxsize=None)
def product_table(n: int) -> dict:
    """The one product rule of K_n: {left key: ((right key, product key),
    (right key, product key))}, the two right basis factors (kinds P, F in
    that order) with a nonzero product.  The coefficient is always 1 and the
    product's kind is kind1 XOR kind2."""
    out = {}
    for key in KnAlgebra(n).basis_indices():
        kind, i, j = key
        a, b = (i, j) if kind == P else (j, i)
        out[key] = tuple(((kind2, a, b), (kind ^ kind2, i, j))
                         for kind2 in (P, F))
    return out


def multiply(x: KnElement, y: KnElement) -> KnElement:
    """The product xy.  The coefficients of x and y are nonzero, and so is
    a product of two of them, so only a key that sums products can come
    out zero; those keys alone are tested."""
    x._check(y)
    table = product_table(x.algebra.n)
    out: dict = {}
    summed = []
    ycoeffs = y.coeffs
    for k1, v in x.coeffs.items():
        for k2, key in table[k1]:
            w = ycoeffs.get(k2)
            if w is None:
                continue
            c = v * w
            s = out.get(key)
            if s is None:
                out[key] = c
            else:
                out[key] = s + c
                summed.append(key)
    for key in summed:
        if key in out and out[key].is_zero():
            del out[key]
    return KnElement._nonzero(x.algebra, out)


class TensorElement(_SparseElement):
    """Sparse element of K_n (x) K_n: map (key1, key2) -> CycNum."""

    __slots__ = ()

    def __mul__(self, other: "TensorElement") -> "TensorElement":
        """Componentwise algebra product on K_n (x) K_n."""
        self._check(other)
        table = product_table(self.algebra.n)
        ocoeffs = other.coeffs
        out: dict = {}
        for (l1, r1), v in self.coeffs.items():
            for l2, kl in table[l1]:
                for r2, kr in table[r1]:
                    w = ocoeffs.get((l2, r2))
                    if w is None:
                        continue
                    c = v * w
                    s = out.get((kl, kr))
                    out[(kl, kr)] = c if s is None else s + c
        return TensorElement(self.algebra, out)


def comultiply(x: KnElement) -> TensorElement:
    """Delta(x), read off the Delta table (`_delta_cache`)."""
    n = x.algebra.n
    return TensorElement._nonzero(x.algebra, _collect(
        ((k1, k2), v * root(n, e)) for key, v in x.coeffs.items()
        for k1, k2, e in _delta_cache(n)[key]))


def antipode_key(n: int, key):
    """S on a basis key: S(p_{ij}) = p_{-i,-j}, S(f_{ij}) = f_{-j,-i}."""
    kind, i, j = key
    return (P, -i % n, -j % n) if kind == P else (F, -j % n, -i % n)


def antipode(x: KnElement) -> KnElement:
    n = x.algebra.n
    return KnElement(x.algebra, {antipode_key(n, k): v
                                 for k, v in x.coeffs.items()})


def counit(x: KnElement) -> CycNum:
    acc = CycNum.zero(x.algebra.n)
    for (kind, i, j), v in x.coeffs.items():
        if i == 0 and j == 0:
            acc = acc + v
    return acc


def character(A: KnAlgebra, m: int, t: int) -> KnElement:
    """chi_{m,t} = sum_{ij} xi^{mi+tj} p_{ij} (the character a^i b^j -> xi^{mi+tj})."""
    return KnElement(A, {(P, i, j): A.xi(m * i + t * j)
                         for i in range(A.n) for j in range(A.n)})


# -- the coproduct on exponents --------------------------------------------------


def delta_terms(A: KnAlgebra, key) -> list:
    """Delta of a basis element as a list of (key1, key2, e): the
    coefficient of key1 (x) key2 is the root of unity with exponent e in
    Z/2n (`cyclotomic.root`)."""
    return _delta_cache(A.n)[key]


@lru_cache(maxsize=None)
def _delta_cache(n: int) -> dict:
    """The one Delta: Delta on every basis key, from the closed form in
    the module docstring, the term of left factor (i', j') at entry
    i' n + j': the coefficient of f_{i'j'} (x) f_{i''j''} is
    xi^{i'j'' - j'i''}, whose exponent in Z/2n is (i'j'' - j'i'')(n + 1)."""
    # one key tuple per basis element: the audits compare tuples built from
    # these keys, and equal items that are the same object compare at once
    keys = [[[(kind, i, j) for j in range(n)] for i in range(n)]
            for kind in (P, F)]
    out = {}
    for kind, i, j in KnAlgebra(n).basis_indices():
        key = keys[kind]
        terms = out[key[i][j]] = []
        for i1 in range(n):
            i2 = (i - i1) % n
            for j1 in range(n):
                j2 = (j - j1) % n
                e = (i1 * j2 - j1 * i2) * (n + 1) % (2 * n) if kind == F else 0
                terms.append((key[i1][j1], key[i2][j2], e))
    return out


@lru_cache(maxsize=None)
def basis_numbers(n: int) -> dict:
    """{basis key: number}: the keys of K_n numbered 0 .. 2n^2 - 1 in basis
    order (`KnAlgebra.basis_indices`), so (kind, i, j) is (kind n + i) n + j.
    The exhaustive audits key their sums by these numbers.  The keys are
    those of `product_table`, which lists them in basis order."""
    return {k: i for i, k in enumerate(product_table(n))}


# -- axiom verification ---------------------------------------------------------


def _left_partners(table: dict) -> dict:
    """The inverse of `product_table`: {right key: [(left key, product key)]}."""
    out: dict = {}
    for k1, partners in table.items():
        for k2, key in partners:
            out.setdefault(k2, []).append((k1, key))
    return out


def _collect(terms) -> dict:
    """Sum (key, CycNum) terms into a dict, zeros pruned."""
    out: dict = {}
    for key, c in terms:
        s = out.get(key)
        out[key] = c if s is None else s + c
    return {k: v for k, v in out.items() if not v.is_zero()}


def _sums_equal(lhs: tuple, rhs: tuple) -> bool:
    """Whether two sparse sums over Q(xi_n) are equal: the one comparison
    rule of the exhaustive audits.  Each side is a triple (exponents,
    count, terms): terms() streams its terms as (key, CycNum) pairs, count
    is their number, and exponents maps keys to the exponent in Z/2n
    (`cyclotomic.root`) of a root-of-unity term there, the last one if a
    key has several; terms that are not roots are left out of it.  A side
    whose count is the size of its map has one term per key, each a root.
    The 2n roots are distinct for odd n, so two such sides with equal maps
    are equal sums.  Anything else -- a repeated key, a term that is not a
    root, or maps that differ -- is decided by the exact sums of the two
    streams (`_collect`)."""
    (lmap, lcount, lterms), (rmap, rcount, rterms) = lhs, rhs
    if lcount == len(lmap) and rcount == len(rmap) and lmap == rmap:
        return True
    return _collect(lterms()) == _collect(rterms())


def _scatter(n: int, terms) -> dict:
    """The sides (`_sums_equal`) of many identities, read in one pass over
    terms(), a stream of (case, key, term) triples, where a term is the
    exponent in Z/2n of a root of unity or a CycNum that is not one.
    Returns {case: side}.  The first side read exactly makes one more pass,
    which lists the exact terms of every case."""
    sides: dict = {}
    exact: dict = {}

    def exact_terms(case):
        if not exact:
            for c, key, t in terms():
                exact.setdefault(c, []).append(
                    (key, root(n, t) if type(t) is int else t))
        return exact[case]

    for case, key, t in terms():
        side = sides.get(case)
        if side is None:
            side = sides[case] = [{}, 0, lambda case=case: exact_terms(case)]
        if type(t) is int:
            side[0][key] = t
        side[1] += 1
    return sides


_EMPTY = ({}, 0, tuple)   # the side of no terms


def _first_failure(cases):
    """The first case of a stream of (case, failed) pairs that failed, or
    None: the one counterexample rule of the exhaustive audits."""
    return next((case for case, failed in cases if failed), None)


# -- coassociativity: (Delta x id) Delta = (id x Delta) Delta ----------------------


@lru_cache(maxsize=None)
def _row_indices(n: int) -> tuple:
    """The index tables of the row route, which depend on n alone.  A row
    r over the grid is laid out padded, with n junk lanes after each of
    its n grid rows, and doubled, as the padded layout of the 2n x 2n grid
    (i, j) -> r[i mod n, j mod n].  The slice of 2n^2 lanes of the doubled
    layout at offset 2n g_i + g_j is then the padded layout of the row
    h2 -> r[g + h2], junk lanes aside.  Returns the itemgetters of the
    doubled and of the padded layout, the latter reading entry n^2 at a
    junk lane; for each grid entry g, its offset and the entries g - h1
    over h1; the mask of the valid lanes of n^2 padded rows laid end to
    end, as an integer; and for each c in Z/2n, the table
    v -> (v + c) mod 2n of `bytes.translate`, which takes 255 to 0."""
    m, size = 2 * n, n * n
    grid = [(i, j) for i in range(n) for j in range(n)]
    entries = list(range(size))

    def entry(i, j):
        # one int object per entry, shared by the n^4 of `minus`
        return entries[i % n * n + j % n]

    padded = [entry(i, j) if j < n else size for i in range(n)
              for j in range(m)]
    double = itemgetter(*(entry(i, j) for i in range(m) for j in range(m)))
    offsets = [i * m + j for i, j in grid]
    minus = [[entry(i - i1, j - j1) for i1, j1 in grid] for i, j in grid]
    mask = int.from_bytes(
        bytes(0 if e == size else 255 for e in padded) * size, "big")
    adds = [bytes((v + c) % m for v in range(255)) + b"\0"
            for c in range(m)]
    return double, itemgetter(*padded), offsets, minus, mask, adds


def _exponent_rows(n: int, delta: dict):
    """{key: D[key]}, the exponents mod 2n of Delta(key) as one bytes row
    over the n^2 first factors in grid order, or None where the row route
    does not apply: when two exponents summed as bytes could exceed 255
    (4n - 2 > 255, n >= 65), or when some Delta(h) does not list each pair
    (h1, h - h1) of h's kind exactly once, in grid order."""
    if 4 * n - 2 > 255:
        return None
    m = 2 * n
    minus = _row_indices(n)[3]
    rows = {}
    for kind in (P, F):
        keys = [(kind, i, j) for i in range(n) for j in range(n)]
        for key, diffs in zip(keys, minus):
            terms = delta[key]
            if ([k1 for k1, _, _ in terms] != keys
                    or [k2 for _, k2, _ in terms] != [keys[y] for y in diffs]):
                return None
            rows[key] = bytes(e % m for _, _, e in terms)
    return rows


def _shifted_columns(n: int, D: list) -> int:
    """Each column h1 of the rows D over the grid, read at h1 + h2, laid out
    padded (`_row_indices`) and end to end over h1, as one integer: the
    lane of (h1, h2) holds D[h1 + h2][h1]."""
    double, _, offsets = _row_indices(n)[:3]
    width = 2 * n * n
    return int.from_bytes(b"".join(
        [bytes(double(column))[s:s + width]
         for column, s in zip(zip(*D), offsets)]), "big")


def _coassociative_rows(n: int, rows: dict):
    """The (key, failed) pairs of coassociativity in basis order, decided
    from the rows of `_exponent_rows`.  Both sides of x sum over the
    triples h1 (x) h2 (x) h3 of x's kind with h1 + h2 + h3 = x, one root on
    each.  For each first factor h1, the row over h2 of the left side is
    D[x] plus column h1 of D, read at h1 + h2; that of the right side is
    D[x - h1] plus the constant D[x][h1].  The 2n roots are distinct for
    odd n, so equal rows prove the identity.  The rows of each side, over
    all h1, are laid end to end in the padded layout of `_row_indices`
    and compared at once; a row read at h1 + h2 is a slice of its doubled
    layout.  The exponents are added as 8-bit lanes of one integer, which
    cannot carry since 4n - 2 <= 255, and reduced mod 2n by
    `bytes.translate`, which also clears the junk lanes of the right
    side."""
    double, pad, offsets, minus, mask, adds = _row_indices(n)
    width = 2 * n * n
    length = width * len(offsets)
    wrap = adds[0]
    for kind in (P, F):
        keys = [(kind, i, j) for i in range(n) for j in range(n)]
        D = [rows[key] for key in keys]
        # the doubled and the padded layout (junk 255) of each row, and
        # every column h1 of D read at h1 + h2, end to end
        doubled_rows = [bytes(double(row)) for row in D]
        padded_rows = [bytes(pad(row + b"\xff")) for row in D]
        columns = _shifted_columns(n, D)
        for key, dx, row, diffs in zip(keys, D, doubled_rows, minus):
            left = ((int.from_bytes(b"".join([row[s:s + width]
                                              for s in offsets]), "big")
                     + columns) & mask).to_bytes(length, "big")
            yield key, left.translate(wrap) != b"".join(
                [padded_rows[y].translate(adds[c]) for y, c in zip(diffs, dx)])


def _coassociative_terms(n: int, delta: dict):
    """The (key, failed) pairs of coassociativity in basis order, decided
    term by term for any Delta table.  With the basis keys numbered
    (`basis_numbers`), a term h1 (x) h2 (x) h3 is the number
    (i1 dim + i2) dim + i3, and tensors[i] lists Delta of key number i as
    (i1 dim + i2, exponent).  A term i1 (x) i2 of Delta(x) gives one term
    of the left side per term of Delta(i1) and one of the right side per
    term of Delta(i2); every coefficient is a root, products add exponents
    mod 2n, and the sides are compared by `_sums_equal`."""
    m = 2 * n
    number = basis_numbers(n)
    dim = len(number)
    dim2 = dim * dim
    tensors = [[(number[l] * dim + number[r], w) for l, r, w in delta[k]]
               for k in number]
    for kx in number:
        dx = [(number[l], number[r], v) for l, r, v in delta[kx]]
        yield kx, not _sums_equal(
            ({t * dim + i2: (v + w) % m
              for i1, i2, v in dx for t, w in tensors[i1]},
             sum(len(tensors[i1]) for i1, _, _ in dx),
             lambda: ((t * dim + i2, root(n, v + w))
                      for i1, i2, v in dx for t, w in tensors[i1])),
            ({i1 * dim2 + t: (v + w) % m
              for i1, i2, v in dx for t, w in tensors[i2]},
             sum(len(tensors[i2]) for _, i2, _ in dx),
             lambda: ((i1 * dim2 + t, root(n, v + w))
                      for i1, i2, v in dx for t, w in tensors[i2])))


def _antipode_sides(n: int, S, e: dict, delta: dict, table: dict,
                    left_of: dict):
    """The two sides of the antipode law on each basis key x, in basis
    order: (x, m(S x id)Delta(x), m(id x S)Delta(x)), each summed exactly
    (`_collect`) as {key: coefficient}.  S is applied once per basis
    element k of e, and the nonzero products S(k) k2 and k1 S(k) are read
    off `product_table` and its inverse (`_left_partners`), listed once
    per k as {k2: [(key, coefficient)]} and {k1: [(key, coefficient)]}."""
    S_times: dict = {}
    times_S: dict = {}
    for k, x in e.items():
        s_k2 = S_times[k] = {}
        k1_s = times_S[k] = {}
        for s, c in S(x).coeffs.items():
            for k2, key in table[s]:
                s_k2.setdefault(k2, []).append((key, c))
            for k1, key in left_of.get(s, ()):
                k1_s.setdefault(k1, []).append((key, c))
    for kx in e:
        yield (kx,
               _collect((key, root(n, v) * c) for k1, k2, v in delta[kx]
                        for key, c in S_times[k1].get(k2, ())),
               _collect((key, root(n, v) * c) for k1, k2, v in delta[kx]
                        for key, c in times_S[k2].get(k1, ())))


def verify_hopf_axioms(A: KnAlgebra, antipode_fn=None) -> dict:
    """Exhaustive Hopf-axiom audit over the basis.  Returns a report dict
    {axiom: {"ok": bool, "counterexample": ... or None}}: each axiom is a
    stream of (case, failed) pairs in basis order, and its counterexample
    the first failing basis key, pair or triple (`_first_failure`).  An
    alternative antipode may be injected for negative-control tests.

    Associativity and eps-multiplicativity read `product_table`; the unit
    multiplies through `multiply`; Delta(1) comes from `comultiply` and is
    compared with the root of exponent 0 on each pair of the keys of 1.
    The counit and antipode laws are summed exactly (`_collect`), every
    product a root-times-root lookup, the antipode's products S(k1) k2 and
    k1 S(k2) read off `product_table` (`_antipode_sides`).
    Coassociativity compares whole rows of exponents where the Delta table
    has the grid shape of K_n (`_coassociative_rows`), else term by term
    (`_coassociative_terms`).
    Delta-multiplicativity multiplies roots by adding exponents: each side
    of an identity is one map {key: exponent} with the count of its terms,
    compared by the one rule `_sums_equal`, which sums exactly only a side
    with a repeated key or a term that is not a root, or maps that
    differ."""
    S = antipode_fn if antipode_fn is not None else antipode
    n = A.n
    basis = list(A.basis_indices())
    one = A.unit()
    e = {k: A.basis(*k) for k in basis}
    table = product_table(n)
    left_of = _left_partners(table)
    delta = _delta_cache(n)
    m = 2 * n
    axioms = {}

    def compare(lhs, rhs):
        # the keys of two sparse maps in sorted (basis) order, failing
        # where the maps differ
        return ((k, lhs.get(k) != rhs.get(k))
                for k in sorted(lhs.keys() | rhs.keys()))

    # associativity on basis triples: both sides of every triple are one
    # basis key or zero, so comparing the nonzero triples of (xy)z and of
    # x(yz), 4 dim each, covers all dim^3
    axioms["associativity"] = compare(
        {(x, y, z): xyz for x, partners in table.items()
         for y, xy in partners for z, xyz in table[xy]},
        {(x, y, z): xyz for y, partners in table.items()
         for z, yz in partners for x, xyz in left_of[yz]})

    axioms["unit"] = ((kx, not multiply(one, x) == x == multiply(x, one))
                      for kx, x in e.items())

    # coassociativity by rows where the Delta table has the grid shape of
    # K_n, else term by term
    rows = _exponent_rows(n, delta)
    axioms["coassociativity"] = (
        _coassociative_terms(n, delta) if rows is None
        else _coassociative_rows(n, rows))

    # counit laws: (eps x id) Delta = id = (id x eps) Delta
    eps = _collect((k, counit(x)) for k, x in e.items())
    axioms["counit"] = (
        (kx, not _collect((k2, root(n, v) * eps[k1])
                          for k1, k2, v in delta[kx] if k1 in eps)
         == x.coeffs
         == _collect((k1, root(n, v) * eps[k2])
                     for k1, k2, v in delta[kx] if k2 in eps))
        for kx, x in e.items())

    # Delta is an algebra map: Delta(1) = 1 (x) 1, and Delta(xy) =
    # Delta(x) Delta(y) on basis pairs.  A term l1 (x) r1 of Delta(x) meets
    # only the 2 x 2 tensors of right partners of l1 and r1, and each such
    # tensor is a term of Delta(y) for one y, so one pass over Delta(x)
    # gives Delta(x) Delta(y) for every y
    owner: dict = {}
    for ky in basis:
        for l2, r2, w in delta[ky]:
            owner.setdefault((l2, r2), []).append((ky, w))

    def delta_side(kz):
        # Delta(z) as one side
        dz = delta[kz]
        return ({(l2, r2): w for l2, r2, w in dz}, len(dz),
                lambda: (((l2, r2), root(n, w)) for l2, r2, w in dz))

    def products(dx):
        # the terms of Delta(x) Delta(y) for every y, as (y, key, exponent)
        for l1, r1, v in dx:
            for l2, kl in table[l1]:
                for r2, kr in table[r1]:
                    for ky, w in owner.get((l2, r2), ()):
                        yield ky, (kl, kr), (v + w) % m

    def delta_multiplicative():
        for kx in basis:
            by_y = _scatter(n, lambda: products(delta[kx]))
            xy = dict(table[kx])
            # a pair with both sides empty passes
            for ky in basis:
                if ky in by_y or ky in xy:
                    yield (kx, ky), not _sums_equal(
                        by_y.get(ky, _EMPTY),
                        delta_side(xy[ky]) if ky in xy else _EMPTY)
    # Delta(1) = 1 (x) 1: each coefficient of 1 = sum p_{ij} is one, so
    # 1 (x) 1 holds the root of exponent 0 at each of the n^4 pairs of
    # its keys, and Delta(1) must hold that many terms, each such a pair
    # with that root
    ones, roots = one.coeffs, root_exponents(n)
    d1 = comultiply(one).coeffs
    axioms["delta_multiplicative"] = chain(
        [("unit", len(d1) != len(ones) ** 2 or any(
            k1 not in ones or k2 not in ones or roots.get(v) != 0
            for (k1, k2), v in d1.items()))], delta_multiplicative())

    # eps is an algebra map: eps(1) = 1, and eps(xy) = eps(x) eps(y) on
    # basis pairs
    axioms["counit_multiplicative"] = chain(
        [("unit", not counit(one).is_one())],
        compare({(x, y): eps[xy] for x, partners in table.items()
                 for y, xy in partners if xy in eps},
                _collect(((x, y), eps[x] * eps[y])
                         for x in eps for y in eps)))

    # antipode axiom: m(S x id)Delta = eps(.)1 = m(id x S)Delta
    target = {k: one.scale(c).coeffs for k, c in eps.items()}
    axioms["antipode"] = (
        (kx, not left == target.get(kx, {}) == right)
        for kx, left, right in _antipode_sides(n, S, e, delta, table, left_of))

    report = {}
    for name, cases in axioms.items():
        ce = _first_failure(cases)
        report[name] = {"ok": ce is None, "counterexample": ce}
    report["ok"] = all(v["ok"] for v in report.values())
    return report
