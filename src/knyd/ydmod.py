"""Simple Yetter-Drinfeld modules over K_n.

Three families, labelled V(eps,i,m) (dim 1), U(i,j,m,t) (dim 2) and
W(eps,i,m) (dim n):

    V: f.v = f(i,i) v,   x^.v = eps v,   delta(v) = chi_{m,m-2i} (x) v
    U: f.u1 = f(i,j) u1, f.u2 = f(j,i) u2, x^ swaps u1 <-> u2,
       delta(u1) = chi_{m,t} (x) u1, delta(u2) = chi_{t+2i,m-2j} (x) u2
    W: f.w_r = f(i+2r,i-2r) w_r, x^.w_r = eps xi^{4ir} w_{-r},
       delta(w_r) = sum_k chi_{m,m-2i} e_{rk} (x) w_k,
       e_{rk} = sum_s xi^{-2s(r+k)} f_{s+r-k,s-r+k}

U labels are canonicalized to the lexicographically smaller of (i,j,m,t)
and (j,i,t+2i,m-2j); a U label with i=j and t=m-2i is reducible (it splits
as V(+1,i,m) + V(-1,i,m)) and is rejected by the constructor.

Every module is stored in a weight basis.  The p_{ab} are orthogonal
idempotents summing to 1, so every finite-dimensional K_n-module has a basis
on which each p_{ab} acts by 0 or 1.  A module is then given by the weight
(a,b) of each basis vector (f.v = f(a,b) v above), the matrix of x^ and the
coaction.

YD maps S -> M are the solutions of one sparse linear system over Q(xi_n)
(`_hom_system`): T pairs only basis vectors of equal weight
(p-equivariance), commutes with x^ and intertwines the two coaction
matrices (`YDModule.coaction`) at the four keys of `_GENERATORS`.  For
comodules S and M that is every condition, since the duals of those keys
generate K_n^*, the algebra the comodules are modules over.  Each module
lists the entries of its five matrices once (`_hom_entries`);
`hom_dimension` is the nullity of the system.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

from .cyclotomic import CycNum, root, root_exponents
from .linalg import CycMatrix
from .hopf import (_EMPTY, F, P, KnAlgebra, KnElement, _collect,
                   _first_failure, _scatter, _sums_equal, antipode_key,
                   basis_numbers, character, counit, delta2_term,
                   delta_terms, product_table)


# -- labels ---------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class Label:
    """Canonical label of a simple YD module over K_n."""
    kind: str      # 'V', 'U' or 'W'
    data: tuple    # V/W: (eps, i, m); U: (i, j, m, t)
    n: int

    def dim(self) -> int:
        return {"V": 1, "U": 2, "W": self.n}[self.kind]

    def __str__(self):
        if self.kind == "U":
            return "U(%d,%d,%d,%d)" % self.data
        eps, i, m = self.data
        return "%s(%+d,%d,%d)" % (self.kind, eps, i, m)


def V(n: int, eps: int, i: int, m: int) -> Label:
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    return Label("V", (eps, i % n, m % n), n)


def W(n: int, eps: int, i: int, m: int) -> Label:
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    return Label("W", (eps, i % n, m % n), n)


def U(n: int, i: int, j: int, m: int, t: int) -> Label:
    i, j, m, t = i % n, j % n, m % n, t % n
    if i == j and t == (m - 2 * i) % n:
        raise ValueError("U(%d,%d,%d,%d) is not simple" % (i, j, m, t))
    partner = (j, i, (t + 2 * i) % n, (m - 2 * j) % n)
    return Label("U", min((i, j, m, t), partner), n)


_LABEL_RE = re.compile(r"^\s*([VUW])\s*\(\s*([+-]?\d+(?:\s*,\s*[+-]?\d+)*)\s*\)\s*$")


def parse_label(text: str, n: int) -> Label:
    m = _LABEL_RE.match(text)
    if not m:
        raise ValueError("invalid label %r: expected V(e,i,m), U(i,j,m,t) "
                         "or W(e,i,m)" % text)
    kind = m.group(1)
    args = [int(a) for a in m.group(2).split(",")]
    if kind == "U":
        if len(args) != 4:
            raise ValueError("U label takes 4 integers, got %d" % len(args))
        return U(n, *args)
    if len(args) != 3:
        raise ValueError("%s label takes 3 integers, got %d" % (kind, len(args)))
    if args[0] not in (1, -1):
        raise ValueError("first %s argument must be +1 or -1" % kind)
    return (V if kind == "V" else W)(n, *args)


def list_simples(A: KnAlgebra) -> list[Label]:
    """All canonical simple labels: 2n^2 V's, the canonical U's, 2n^2 W's."""
    n = A.n
    out = [V(n, eps, i, m) for eps in (1, -1) for i in range(n) for m in range(n)]
    us = set()
    for i in range(n):
        for j in range(n):
            for m in range(n):
                for t in range(n):
                    if i == j and t == (m - 2 * i) % n:
                        continue
                    us.add(U(n, i, j, m, t))
    out.extend(sorted(us))
    out.extend(W(n, eps, i, m) for eps in (1, -1) for i in range(n) for m in range(n))
    return out


def dimension_census(A: KnAlgebra) -> int:
    """sum of dim(S)^2 over all simple labels; equals 4n^4."""
    return sum(L.dim() ** 2 for L in list_simples(A))


# -- the module container ----------------------------------------------------------


class YDModule:
    """A finite-dimensional YD module over K_n, stored in a weight basis.

    The p_{ab} are orthogonal idempotents summing to 1, so every
    finite-dimensional K_n-module is the direct sum of their images and has
    a basis of weight vectors: weights[r] = (a, b) says that p_{ab} fixes
    v_r and every other p kills it.  With action_x, the matrix of x^, the
    weights give the whole action (`action_of`): f_{ab} = p_{ab} x^.
    The coaction is stored as its matrix over K_n: coaction[j] is row j, a
    dict {k: KnElement} with delta(v_j) = sum_k coaction[j][k] (x) v_k, and
    zero cells are dropped.

    The third argument may also be a dict {(a, b): matrix of p_{ab}}.  It is
    read once and must describe a weight basis, else ValueError.  Each
    weight is stored as the tuple (a, b) of ints with 0 <= a, b < n that
    equals it; a weight equal to no such pair raises ValueError.
    """

    def __init__(self, algebra: KnAlgebra, dim: int, weights,
                 action_x: CycMatrix, coaction: list, label: Label | None = None):
        if isinstance(weights, dict):
            weights = _weights_of(weights, dim)
        if len(weights) != dim:
            raise ValueError("%d weights for dimension %d" % (len(weights), dim))
        self.algebra = algebra
        self.dim = dim
        self.weights = _stored_weights(weights, algebra.n)
        self.action_x = action_x
        self.coaction = [{k: h for k, h in row.items() if not h.is_zero()}
                         for row in coaction]
        self.label = label
        self._act_cache: dict = {}
        self._hom_cache = None
        self._blocks = None

    @property
    def action_p(self) -> dict:
        """{(a, b): matrix of p_{ab}}, derived from the weights."""
        n = self.algebra.n
        return {(a, b): self.action_of((P, a, b))
                for a in range(n) for b in range(n)}

    def action_of(self, key) -> CycMatrix:
        """Matrix of a basis element of K_n: p_{ab} is the 0/1 diagonal on
        the vectors of weight (a, b), f_{ab} = p_{ab} x^ the rows of x^ at
        those vectors."""
        m = self._act_cache.get(key)
        if m is None:
            kind, a, b = key
            n = self.algebra.n
            rows = [r for r, w in enumerate(self.weights) if w == (a, b)]
            if kind == F:
                x = self.action_x.data
                data = {r: dict(x[r]) for r in rows if r in x}
            else:
                one = root(n, 0)
                data = {r: {r: one} for r in rows}
            m = self._act_cache[key] = CycMatrix(n, self.dim, self.dim, data)
        return m

    def __repr__(self):
        return "YDModule(%s, dim %d over K_%d)" % (
            self.label if self.label else "?", self.dim, self.algebra.n)


@lru_cache(maxsize=None)
def _weight_table(n: int) -> dict:
    """{(a, b): (a, b)} over the weights of K_n, ints 0 <= a, b < n."""
    return {(a, b): (a, b) for a in range(n) for b in range(n)}


def _stored_weights(weights, n: int) -> tuple:
    """The weights as the tuples of `_weight_table(n)` that they equal;
    ValueError naming the first weight that equals none."""
    table, stored = _weight_table(n), []
    for w in weights:
        try:
            stored.append(table[tuple(w)])
        except (KeyError, TypeError):
            raise ValueError("weight %r is not a pair (a, b) of ints in "
                             "0 .. %d" % (w, n - 1)) from None
    return tuple(stored)


def _weights_of(action_p: dict, dim: int) -> list:
    """The weights of a basis on which the p_{ab} act by the matrices of
    action_p; ValueError unless each is diagonal with entries 0 and 1 and
    each basis vector is fixed by exactly one of them."""
    weights = [None] * dim
    for ab, mat in action_p.items():
        for r, row in mat.data.items():
            for c, v in row.items():
                if v.is_zero():
                    continue
                if r != c or not v.is_one() or weights[r] is not None:
                    raise ValueError("p_%s does not act on a weight basis"
                                     % (ab,))
                weights[r] = ab
    if None in weights:
        raise ValueError("basis vector %d has no weight" % weights.index(None))
    return weights


def label_weights(label: Label) -> list:
    """The weight (a, b) of each basis vector of the simple module."""
    n = label.n
    if label.kind == "U":
        i, j, _, _ = label.data
        return [(i, j), (j, i)]
    _, i, _ = label.data
    if label.kind == "V":
        return [(i, i)]
    return [((i + 2 * r) % n, (i - 2 * r) % n) for r in range(n)]


def build_simple(A: KnAlgebra, label: Label) -> YDModule:
    n = A.n
    if label.n != n:
        raise ValueError("label/algebra conductor mismatch")
    if label.kind == "U":
        mod = build_u_module(A, *label.data)
        mod.label = label
        return mod
    eps, i, m = label.data
    t = m - 2 * i
    if label.kind == "V":
        return YDModule(A, 1, label_weights(label),
                        CycMatrix.from_rows(n, [[A.scalar(eps)]]),
                        [{0: character(A, m, t)}], label)
    # W
    action_x = CycMatrix.zero(n, n, n)
    for r in range(n):
        coeff = A.xi(4 * i * r)
        if eps == -1:
            coeff = -coeff
        action_x.set((-r) % n, r, coeff)
    # chi_{m,t} e_{rk}: p_{ab} f_{ab} = f_{ab} keeps one term of e_{rk} per
    # s, f_{ab} with (a, b) = (s+r-k, s-r+k), times the character's
    # xi^{ma+tb}; taken in ascending a, the order of `hopf.multiply`
    coaction = []
    for r in range(n):
        row = {}
        for k in range(n):
            coeffs = {}
            for a in range(n):
                s = a - r + k
                b = (s - r + k) % n
                coeffs[(F, a, b)] = A.xi(m * a + t * b - 2 * s * (r + k))
            row[k] = KnElement(A, coeffs)
        coaction.append(row)
    return YDModule(A, n, label_weights(label), action_x, coaction, label)


def build_u_module(A: KnAlgebra, i: int, j: int, m: int, t: int) -> YDModule:
    """The two-dimensional module with U-type structure constants, without
    canonicalizing the parameters or requiring simplicity (the i=j,
    t=m-2i case is the reducible module V(+1,i,m) + V(-1,i,m))."""
    n = A.n
    i, j, m, t = i % n, j % n, m % n, t % n
    action_x = CycMatrix.from_rows(n, [[0, 1], [1, 0]])
    coaction = [{0: character(A, m, t)},
                {1: character(A, t + 2 * i, m - 2 * j)}]
    return YDModule(A, 2, [(i, j), (j, i)], action_x, coaction)


def direct_sum(M1: YDModule, M2: YDModule) -> YDModule:
    if M1.algebra.n != M2.algebra.n:
        raise ValueError("algebra mismatch")
    A = M1.algebra
    d1 = M1.dim
    dim = d1 + M2.dim
    action_x = CycMatrix.zero(A.n, dim, dim)
    for r, row in M1.action_x.data.items():
        action_x.data[r] = dict(row)
    for r, row in M2.action_x.data.items():
        action_x.data[r + d1] = {c + d1: v for c, v in row.items()}
    coaction = M1.coaction + [{k + d1: h for k, h in row.items()}
                              for row in M2.coaction]
    return YDModule(A, dim, M1.weights + M2.weights, action_x, coaction)


# -- YD axiom checking ----------------------------------------------------------------


class _YDTerms(dict):
    """The terms of the YD right sides over K_n, filled as they are met:
    {hkind dim + g: (si, sj, result, e0, ea, eb)} for a kind hkind and the
    basis key numbered g (`hopf.basis_numbers`).  In h1 g S(h3), with h1
    and h3 of kind hkind, one h1 and one h3 give a nonzero product, the key
    numbered result.  For h2 = (hkind, a, b), the term h1 (x) h2 (x) h3 of
    Delta^2 is that of h = (hkind, si + a, sj + b), and its coefficient is
    the root of exponent e0 + a ea + b eb in Z/2n (`hopf.delta2_term`): h's
    indices and the exponent, (i1 (j2 + j3) - j1 (i2 + i3) + i2 j3 - j2 i3)
    (n + 1) for f, are affine in (i2, j2) = (a, b)."""

    def __init__(self, n: int):
        super().__init__()
        self.n = n
        self.basis = list(basis_numbers(n))

    def __missing__(self, key):
        n = self.n
        table = product_table(n)
        hkind, g = divmod(key, 2 * n * n)
        gkind, c, d = self.basis[g]
        # h1 g != 0 needs g at h1's partner position; the partner map on
        # index pairs is an involution, so h1 sits at the partner position
        # of (c, d)
        h1 = (hkind,) + table[(hkind, c, d)][0][0][1:]
        q = table[h1][gkind][1]                     # h1 g
        # s3 = S(h3) is the right factor of kind hkind meeting q; S is an
        # involution on basis keys, so h3 = S(s3)
        s3, result = table[q][hkind]
        h3 = antipode_key(n, s3)
        si, sj = h1[1] + h3[1], h1[2] + h3[2]

        def exponent(a, b):
            return delta2_term(n, (hkind, (si + a) % n, (sj + b) % n),
                               h1, h3)[1]

        e0 = exponent(0, 0)
        entry = self[key] = (si, sj, basis_numbers(n)[result], e0,
                             exponent(1, 0) - e0, exponent(0, 1) - e0)
        return entry


_yd_terms = lru_cache(maxsize=None)(_YDTerms)    # one table per n


def check_yd(M: YDModule) -> dict:
    """Verify module axioms, comodule axioms, and the YD compatibility
    delta(h.v) = h1 v_{-1} S(h3) (x) h2.v_0 on every basis pair.  Returns
    {"module", "comodule", "yd": first failing case or None, "ok": bool};
    each check is a stream of (case, failed) pairs in basis order, and
    `hopf._first_failure` picks its case.

    Both sides of comodule coassociativity and of each YD pair are
    compared by `hopf._sums_equal`: every action and coaction coefficient
    that is a root of unity is read as its exponent, so products add
    exponents mod 2n, each side is built as one map of exponents with a
    count of its terms, and a side with a repeated key or a coefficient
    that is not a root is summed exactly.  The maps are keyed by integers:
    with the basis of K_n numbered (`hopf.basis_numbers`) and M of
    dimension d, a term h (x) v_l is h d + l, and h1 (x) h2 (x) v_l is
    (h1 dim + h2) d + l."""
    A = M.algebra
    n = A.n
    m = 2 * n
    d, dim = M.dim, A.dim
    number = basis_numbers(n)

    # module axioms via generator relations (equivalent to rho being an
    # algebra map on the basis).  On a weight basis the p's are orthogonal
    # idempotents summing to the identity by construction; left are x^2 = 1
    # and x p_{ab} = p_{ba} x, i.e. x^ maps weight (a,b) to weight (b,a).
    wt = M.weights
    module = chain(
        [(("x_squared", None),
          M.action_x @ M.action_x != CycMatrix.identity(n, M.dim))],
        ((("x_p_commutation", wt[c]), wt[r] != wt[c][::-1] and not v.is_zero())
         for r, row in M.action_x.data.items() for c, v in row.items()))

    # the coaction matrix as numbered terms: cells[j] maps k to the terms
    # (h, u, e) of cell (j, k), where u is the coefficient of the key
    # numbered h and e its exponent, None if u is not a root; tails[k]
    # lists the terms of delta(v_k) as (h d + l, u, e)
    roots = root_exponents(n)
    one = root(n, 0)
    co = M.coaction
    cells = [{k: [(number[hkey], u, roots.get(u))
                  for hkey, u in h.coeffs.items()] for k, h in row.items()}
             for row in co]
    tails = [[(h * d + l, u, e) for l, cell in row.items() for h, u, e in cell]
             for row in cells]

    # comodule axioms on each row of the coaction matrix.  A term
    # h (x) g (x) v_l is h dim d + (g d + l).  delta_of[h dim d] pairs the
    # number (h1 dim + h2) d of each term h1 (x) h2 of Delta(h), once per
    # call, with the list of those terms that `hopf.delta_terms` keeps
    dd = dim * d
    basis = list(number)
    delta_of = {h * dd: ([(number[k1] * dim + number[k2]) * d
                          for k1, k2, _ in delta_terms(A, basis[h])],
                         delta_terms(A, basis[h]))
                for h in {h for row in cells for cell in row.values()
                          for h, _, _ in cell}}

    def comodule():
        for j, row in enumerate(co):
            # counit: (eps (x) id) delta = id
            yield (("counit", j),
                   _collect((k, counit(h)) for k, h in row.items()) != {j: one})
            # coassociativity: (Delta (x) id) delta = (id (x) delta) delta
            terms = [(k, h * dd, u, e) for k, cell in cells[j].items()
                     for h, u, e in cell]
            yield ("coassociativity", j), not _sums_equal(
                ({t + k: (e + f) % m for k, h, _, e in terms if e is not None
                  for t, (_, _, f) in zip(*delta_of[h])},
                 sum(len(delta_of[h][0]) for _, h, _, _ in terms),
                 lambda: ((t + k, u * root(n, f)) for k, h, u, _ in terms
                          for t, (_, _, f) in zip(*delta_of[h]))),
                ({h + t: (e + f) % m for k, h, _, e in terms if e is not None
                  for t, _, f in tails[k] if f is not None},
                 sum(len(tails[k]) for k, _, _, _ in terms),
                 lambda: ((h + t, u * v) for k, h, u, _ in terms
                          for t, v, _ in tails[k])))

    # YD compatibility on every (basis of K_n) x (basis of M).  column maps
    # h d + c, for the key numbered h, to the nonzero entries (r, x, f) of
    # column c of that key's action, f the exponent of x or None, read off
    # the weights and x^: p_{ab} is the 0/1 diagonal on the vectors of
    # weight (a, b), and f_{ab} = p_{ab} x^ the rows of x^ at those vectors
    column: dict = {number[(P,) + w] * d + c: [(c, one, 0)]
                    for c, w in enumerate(wt)}
    for r, row in M.action_x.data.items():
        h = number[(F,) + wt[r]]
        for c, v in row.items():
            if not v.is_zero():
                column.setdefault(h * d + c, []).append((r, v, roots.get(v)))
    terms_of = _yd_terms(n)
    nn = n * n

    def yd_rhs():
        # (h d + j, result d + r, term) for every term of
        # h1 v_{-1} S(h3) (x) h2 . v_0, v = v_j.  A term g of cell (j, k)
        # of the coaction meets one h1, h3 of each kind, and h2 . v_k is
        # nonzero only for the keys h2 of column k (`_YDTerms`).  A term is
        # an exponent when both coefficients are roots, else their exact
        # product.
        for key, entries in column.items():
            h2, k = divmod(key, d)
            kind, ab = divmod(h2, nn)
            a, b = divmod(ab, n)
            for j, row in enumerate(cells):
                for g, u, e in row.get(k, ()):
                    si, sj, result, e0, ea, eb = terms_of[kind * dim + g]
                    h = kind * nn + (si + a) % n * n + (sj + b) % n
                    t = e0 + a * ea + b * eb
                    for r, x, f in entries:
                        yield h * d + j, result * d + r, (
                            u * root(n, t) * x if e is None or f is None
                            else (e + t + f) % m)

    rhs = _scatter(n, yd_rhs)

    # delta(h . v_j) against rhs[h d + j]; a pair with both sides empty
    # passes
    def yd():
        for h, hkey in enumerate(basis):
            for j in range(d):
                case = h * d + j
                entries = column.get(case, ())
                if not entries and case not in rhs:
                    continue
                yield ("yd", hkey, j), not _sums_equal(
                    ({t: (e + f) % m for k, _, e in entries if e is not None
                      for t, _, f in tails[k] if f is not None},
                     sum(len(tails[k]) for k, _, _ in entries),
                     lambda: ((t, x * v) for k, x, _ in entries
                              for t, v, _ in tails[k])),
                    rhs.get(case, _EMPTY))

    report = {"module": _first_failure(module),
              "comodule": _first_failure(comodule()),
              "yd": _first_failure(yd())}
    report["ok"] = all(v is None for v in report.values())
    return report


# -- braiding --------------------------------------------------------------------------


def braiding(Mv: YDModule, Mw: YDModule) -> CycMatrix:
    """Matrix of c(v (x) w) = v_{-1}.w (x) v_0, mapping Mv (x) Mw to
    Mw (x) Mv; tensor bases are row-major (index of v_a (x) w_b is
    a*dim(Mw) + b)."""
    if Mv.algebra.n != Mw.algebra.n:
        raise ValueError("algebra mismatch")
    n = Mv.algebra.n
    dv, dw = Mv.dim, Mw.dim
    acc: dict = {}
    for a in range(dv):
        for a1, g in Mv.coaction[a].items():
            for hkey, coeff in g.coeffs.items():
                for c_, grow in Mw.action_of(hkey).data.items():
                    for b, v in grow.items():
                        key = (c_ * dv + a1, a * dw + b)
                        term = coeff * v
                        prev = acc.get(key)
                        acc[key] = term if prev is None else prev + term
    out = CycMatrix.zero(n, dw * dv, dv * dw)
    for (row, col), v in acc.items():
        out.set(row, col, v)
    return out


def braided_space(M: YDModule):
    from .nichols import BraidedSpace
    return BraidedSpace(M.dim, braiding(M, M))


# -- hom spaces and isomorphism ---------------------------------------------------------


# A left K_n-comodule is a module over the dual algebra K_n^*, h^* acting by
# v -> h^*(v_{-1}) v_0, and its comodule maps are its K_n^*-module maps.
# Delta pairs p's with p's and f's with f's, so in K_n^* the dual basis
# multiplies as p^*_{ab} p^*_{cd} = p^*_{a+c,b+d}, f^*_{ab} f^*_{cd} =
# xi^{ad-bc} f^*_{a+c,b+d} and p^* f^* = 0: K_n^* is k[Z_n x Z_n] plus a
# twisted group algebra, each generated by its elements of index (1,0) and
# (0,1).  So every basis dual is a root of unity times a product of the
# duals of these four keys, and a map that commutes with the coaction at
# them commutes with it at every key.
_GENERATORS = ((P, 1, 0), (P, 0, 1), (F, 1, 0), (F, 0, 1))


def _hom_entries(M: YDModule):
    """The nonzero entries (t, r, c, v) of the five matrices of M's Hom
    systems (`_hom_system`): tag t = 0 is x^, tag t >= 1 the transposed
    coaction matrix at _GENERATORS[t - 1], whose entry (l, k) is that key's
    coefficient in coaction[k][l].  Built once and cached on M."""
    if M._hom_cache is None:
        entries = [(0, r, c, v) for r, row in M.action_x.data.items()
                   for c, v in row.items() if not v.is_zero()]
        for k, row in enumerate(M.coaction):
            for l, h in row.items():
                for t, key in enumerate(_GENERATORS, 1):
                    v = h.coeffs.get(key)
                    if v is not None:
                        entries.append((t, l, k, v))
        M._hom_cache = entries
    return M._hom_cache


def _weight_blocks(M: YDModule):
    """{weight: the basis vectors of M of that weight, in ascending order},
    and the place pos[r] of each v_r in its block; built once and cached on
    M, like `_hom_entries`.  A simple may hold two vectors of one weight
    (U(i,i,m,t))."""
    if M._blocks is None:
        blocks: dict = {}
        pos = []
        for r, w in enumerate(M.weights):
            block = blocks.setdefault(w, [])
            pos.append(len(block))
            block.append(r)
        M._blocks = blocks, pos
    return M._blocks


def _unknowns(S: YDModule, M: YDModule):
    """The numbering of the unknowns of the Hom systems from S to M, one per
    pair of basis vectors m_k, s_j of one weight: T[k][j] is unknown
    offsets[j] + pos[k] (`_weight_blocks` of M); offsets[-1] is their
    number.  Returns (offsets, pos, blocks of M)."""
    blocks, pos = _weight_blocks(M)
    offsets = [0]
    for w in S.weights:
        offsets.append(offsets[-1] + len(blocks.get(w, ())))
    return offsets, pos, blocks


def _hom_system(S: YDModule, M: YDModule):
    """The linear system whose solutions are the YD maps T: S -> M, where
    T[k][j] is the coefficient of m_k in T(s_j).  Returns (offsets,
    matrix): T[k][j] is unknown offsets[j] + pos[k] (`_unknowns`), the
    matrix has one column per unknown, and each of its rows is a sparse
    {unknown: coeff} that T must annihilate.

    S and M must be comodules, as every module that `build_simple`,
    `build_u_module`, `direct_sum` and `tensor_module` builds is.  Both are
    in weight bases, so p-equivariance is exactly T[k][j] = 0 unless m_k
    and s_j have the same weight: those (k, j) are the unknowns.  T then
    commutes with every f_{ab} = p_{ab} x^ once it commutes with x^, and
    with the coaction at every key once it does at the four _GENERATORS.
    Each of these five conditions is a commutant equation A^M T = T A^S
    between the matrices of `_hom_entries`.  Row (t, k, j), with index
    (t dim M + k) dim S + j, is entry (k, j) of A^M T - T A^S for tag t:
    the M part sum_l A^M[k][l] T[l][j], then the S part sum_{j1} T[k][j1]
    A^S[j1][j].  The rows with an M part come first; zero entries, and zero
    rows, are dropped."""
    if S.algebra.n != M.algebra.n:
        raise ValueError("algebra mismatch")
    m_entries, s_entries = _hom_entries(M), _hom_entries(S)
    dm, ds = M.dim, S.dim
    wm, ws = M.weights, S.weights
    offsets, pos, blocks = _unknowns(S, M)
    s_blocks = _weight_blocks(S)[0]
    zero = CycNum.zero(S.algebra.n)
    rows: dict = {}
    # M part: A^M[k][l] meets T[l][j] for each s_j of the weight of m_l
    for t, k, l, v in m_entries:
        for j in s_blocks.get(wm[l], ()):
            rows.setdefault((t * dm + k) * ds + j, {})[offsets[j] + pos[l]] = v
    # S part: A^S[j1][j] meets T[k][j1] for each m_k of the weight of s_j1
    for t, j1, j, v in s_entries:
        for k in blocks.get(ws[j1], ()):
            row = rows.setdefault((t * dm + k) * ds + j, {})
            c = offsets[j1] + pos[k]
            s = row.pop(c, zero) - v
            if not s.is_zero():
                row[c] = s
    rows = {key: row for key, row in rows.items() if row}
    return offsets, CycMatrix(S.algebra.n, (1 + len(_GENERATORS)) * dm * ds,
                              offsets[-1], rows)


def hom_dimension(S: YDModule, M: YDModule) -> int:
    """Dimension of the space of YD maps S -> M between comodules: the
    nullity of `_hom_system`."""
    system = _hom_system(S, M)[1]
    return system.cols - system.rank()
