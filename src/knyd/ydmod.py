"""Simple Yetter-Drinfeld modules over K_n.

Three families, labelled V(eps,i,m) (dim 1), U(i,j,m,t) (dim 2) and
W(eps,i,m) (dim n):

    V: f.v = f(i,i) v,   x^.v = eps v,   delta(v) = chi_{m,m-2i} (x) v
    U: f.u1 = f(i,j) u1, f.u2 = f(j,i) u2, x^ swaps u1 <-> u2,
       delta(u1) = chi_{m,t} (x) u1, delta(u2) = chi_{t+2i,m-2j} (x) u2
    W: f.w_r = f(i+2r,i-2r) w_r, x^.w_r = eps xi^{4ir} w_{-r},
       delta(w_r) = sum_k chi_{m,m-2i} e_{rk} (x) w_k

U labels are canonicalized to the lexicographically smaller of (i,j,m,t)
and (j,i,t+2i,m-2j); a U label with i=j and t=m-2i is reducible (it splits
as V(+1,i,m) + V(-1,i,m)) and is rejected by the constructor.

YD maps S -> M are the solutions of one sparse linear system
(`_hom_system`): x^- and p-equivariance and the intertwining of the two
coaction matrices (`YDModule.comatrix`).  `hom_dimension` is its nullity and
`is_yd_map` tests a given matrix against it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .cyclotomic import CycNum
from .linalg import CycMatrix
from .hopf import (P, F, KnAlgebra, KnElement, antipode_key, character,
                   comatrix_element, counit, delta_terms, multiply,
                   product_table)


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
    """A finite-dimensional YD module over K_n.

    action_p maps (a,b) to the matrix of p_{ab}; action_x is the matrix of
    x^; f_{ab} acts by action_p[(a,b)] @ action_x.  coaction[j] is a list of
    (KnElement, k) pairs with delta(v_j) = sum h (x) v_k.
    """

    def __init__(self, algebra: KnAlgebra, dim: int, action_p: dict,
                 action_x: CycMatrix, coaction: list, label: Label | None = None):
        self.algebra = algebra
        self.dim = dim
        self.action_p = action_p
        self.action_x = action_x
        self.coaction = coaction
        self.label = label
        self._weights = None
        self._act_cache: dict = {}
        self._comatrix = None

    def action_of(self, key) -> CycMatrix:
        """Matrix of a basis element of K_n."""
        m = self._act_cache.get(key)
        if m is None:
            kind, a, b = key
            m = self.action_p[(a, b)]
            if kind == F:
                m = m @ self.action_x
            self._act_cache[key] = m
        return m

    def act(self, h: KnElement) -> CycMatrix:
        out = CycMatrix.zero(self.algebra.n, self.dim, self.dim)
        for key, v in h.coeffs.items():
            out = out + self.action_of(key).scale(v)
        return out

    def comatrix(self) -> dict:
        """The coaction as a matrix over K_n: {(j, k): {basis key: coeff}}
        with delta(v_j) = sum_k H_jk (x) v_k, zero entries pruned."""
        if self._comatrix is None:
            co: dict = {}
            for j, terms in enumerate(self.coaction):
                for h, k in terms:
                    cell = co.setdefault((j, k), {})
                    for hkey, v in h.coeffs.items():
                        s = cell.get(hkey)
                        cell[hkey] = v if s is None else s + v
            self._comatrix = {}
            for jk, cell in co.items():
                cell = {hkey: v for hkey, v in cell.items() if not v.is_zero()}
                if cell:
                    self._comatrix[jk] = cell
        return self._comatrix

    def weights(self):
        """If every p_{ab} acts diagonally with 0/1 entries, the weight
        (a,b) of each basis vector; otherwise None."""
        if self._weights is not None:
            return self._weights
        wt = [None] * self.dim
        for (a, b), mat in self.action_p.items():
            for r, row in mat.data.items():
                for c, v in row.items():
                    if r != c or not v.is_one():
                        return None
                    if wt[r] is not None:
                        return None
                    wt[r] = (a, b)
        if any(w is None for w in wt):
            return None
        self._weights = wt
        return wt

    def __repr__(self):
        return "YDModule(%s, dim %d over K_%d)" % (
            self.label if self.label else "?", self.dim, self.algebra.n)


def build_simple(A: KnAlgebra, label: Label) -> YDModule:
    n = A.n
    if label.n != n:
        raise ValueError("label/algebra conductor mismatch")
    zero = CycMatrix.zero
    if label.kind == "V":
        eps, i, m = label.data
        action_p = {(a, b): (CycMatrix.identity(n, 1) if (a, b) == (i, i)
                             else zero(n, 1, 1))
                    for a in range(n) for b in range(n)}
        action_x = CycMatrix.from_rows(n, [[A.scalar(eps)]])
        coaction = [[(character(A, m, m - 2 * i), 0)]]
        return YDModule(A, 1, action_p, action_x, coaction, label)
    if label.kind == "U":
        mod = build_u_module(A, *label.data)
        mod.label = label
        return mod
    # W
    eps, i, m = label.data
    action_p = {(a, b): zero(n, n, n) for a in range(n) for b in range(n)}
    for r in range(n):
        action_p[((i + 2 * r) % n, (i - 2 * r) % n)].set(r, r, A.scalar(1))
    action_x = zero(n, n, n)
    for r in range(n):
        coeff = A.xi(4 * i * r)
        if eps == -1:
            coeff = -coeff
        action_x.set((-r) % n, r, coeff)
    chi = character(A, m, m - 2 * i)
    coaction = []
    for r in range(n):
        coaction.append([(multiply(chi, comatrix_element(A, r, k)), k)
                         for k in range(n)])
    return YDModule(A, n, action_p, action_x, coaction, label)


def build_u_module(A: KnAlgebra, i: int, j: int, m: int, t: int) -> YDModule:
    """The two-dimensional module with U-type structure constants, without
    canonicalizing the parameters or requiring simplicity (the i=j,
    t=m-2i case is the reducible module V(+1,i,m) + V(-1,i,m))."""
    n = A.n
    i, j, m, t = i % n, j % n, m % n, t % n
    action_p = {}
    for a in range(n):
        for b in range(n):
            mat = CycMatrix.zero(n, 2, 2)
            if (a, b) == (i, j):
                mat.set(0, 0, A.scalar(1))
            if (a, b) == (j, i):
                mat.set(1, 1, A.scalar(1))
            action_p[(a, b)] = mat
    action_x = CycMatrix.from_rows(n, [[0, 1], [1, 0]])
    coaction = [[(character(A, m, t), 0)],
                [(character(A, t + 2 * i, m - 2 * j), 1)]]
    return YDModule(A, 2, action_p, action_x, coaction)


def direct_sum(M1: YDModule, M2: YDModule) -> YDModule:
    if M1.algebra.n != M2.algebra.n:
        raise ValueError("algebra mismatch")
    A = M1.algebra
    n = A.n
    d1, d2 = M1.dim, M2.dim
    dim = d1 + d2

    def block(m1: CycMatrix, m2: CycMatrix) -> CycMatrix:
        out = CycMatrix.zero(n, dim, dim)
        for r, row in m1.data.items():
            out.data[r] = dict(row)
        for r, row in m2.data.items():
            out.data[r + d1] = {c + d1: v for c, v in row.items()}
        return out

    action_p = {key: block(M1.action_p[key], M2.action_p[key])
                for key in M1.action_p}
    action_x = block(M1.action_x, M2.action_x)
    coaction = [list(terms) for terms in M1.coaction]
    coaction += [[(h, k + d1) for h, k in terms] for terms in M2.coaction]
    return YDModule(A, dim, action_p, action_x, coaction)


# -- YD axiom checking ----------------------------------------------------------------


@lru_cache(maxsize=None)
def _delta2_forced(n: int, hkey):
    """Delta^2(h) indexed for sandwich products: {h1key: {h3key: (h2key, coeff)}}.

    For a basis element h of kind K, every Delta^2 term is K (x) K (x) K over
    index splittings i1+i2+i3 = i, j1+j2+j3 = j, with twist coefficient
    xi^{i1(j2+j3) - j1(i2+i3) + i2 j3 - j2 i3} in the F case.
    """
    from .cyclotomic import cyc
    kind, i, j = hkey
    out: dict = {}
    one = CycNum.one(n)
    for i1 in range(n):
        for j1 in range(n):
            inner = {}
            for i3 in range(n):
                i2 = (i - i1 - i3) % n
                for j3 in range(n):
                    j2 = (j - j1 - j3) % n
                    if kind == P:
                        c = one
                    else:
                        c = cyc(n, i1 * (j2 + j3) - j1 * (i2 + i3)
                                + i2 * j3 - j2 * i3)
                    inner[(kind, i3, j3)] = ((kind, i2, j2), c)
            out[(kind, i1, j1)] = inner
    return out


def _sandwich_term(n: int, hkind: int, gkey):
    """For h1 g S(h3) with h1, h3 of kind hkind and g a basis key, the unique
    nonzero combination: returns (h1key, h3key, result_key)."""
    table = product_table(n)
    gkind, c, d = gkey
    # h1 g != 0 needs g at h1's partner position; the partner map on index
    # pairs is an involution, so h1 sits at the partner position of (c, d)
    _, a, b = table[(hkind, c, d)][0][0]
    h1 = (hkind, a, b)
    q = table[h1][gkind][1]                     # h1 g
    # s3 = S(h3) is the right factor of kind hkind meeting q; S is an
    # involution on basis keys, so h3 = S(s3)
    s3, result = table[q][hkind]
    return h1, antipode_key(n, s3), result


def check_yd(M: YDModule) -> dict:
    """Verify module axioms, comodule axioms, and the YD compatibility
    delta(h.v) = h1 v_{-1} S(h3) (x) h2.v_0 on every basis pair."""
    A = M.algebra
    n = A.n
    report = {"module": None, "comodule": None, "yd": None}

    # module axioms via generator relations (equivalent to rho being an
    # algebra map on the basis): p's are orthogonal idempotents summing to
    # the identity, x^2 = 1, and x p_{ab} = p_{ba} x.
    failure = None
    total = CycMatrix.zero(n, M.dim, M.dim)
    for (a, b), mat in M.action_p.items():
        total = total + mat
        if not (mat @ mat == mat):
            failure = ("p_idempotent", (a, b))
            break
    ident = CycMatrix.identity(n, M.dim)
    if failure is None and total != ident:
        failure = ("p_sum", None)
    if failure is None:
        for (a, b), mat in M.action_p.items():
            for (c, d), mat2 in M.action_p.items():
                if (a, b) < (c, d):
                    prod = mat @ mat2
                    if not prod.is_zero():
                        failure = ("p_orthogonal", ((a, b), (c, d)))
                        break
            if failure:
                break
    if failure is None and M.action_x @ M.action_x != ident:
        failure = ("x_squared", None)
    if failure is None:
        for (a, b), mat in M.action_p.items():
            if M.action_x @ mat != M.action_p[(b, a)] @ M.action_x:
                failure = ("x_p_commutation", (a, b))
                break
    report["module"] = failure

    # comodule axioms
    failure = None
    for j in range(M.dim):
        # counit: (eps (x) id) delta = id
        acc = [CycNum.zero(n)] * M.dim
        for h, k in M.coaction[j]:
            acc[k] = acc[k] + counit(h)
        for k in range(M.dim):
            ok = acc[k].is_one() if k == j else acc[k].is_zero()
            if not ok:
                failure = ("counit", j)
                break
        if failure:
            break
        # coassociativity
        left: dict = {}
        for h, k in M.coaction[j]:
            for hkey, v in h.coeffs.items():
                for (k1, k2, w) in delta_terms(A, hkey):
                    key = (k1, k2, k)
                    c = v * w
                    s = left.get(key)
                    left[key] = c if s is None else s + c
        right: dict = {}
        for h, k in M.coaction[j]:
            for g, l in M.coaction[k]:
                for hkey, v in h.coeffs.items():
                    for gkey, w in g.coeffs.items():
                        key = (hkey, gkey, l)
                        c = v * w
                        s = right.get(key)
                        right[key] = c if s is None else s + c
        left = {k_: v for k_, v in left.items() if not v.is_zero()}
        right = {k_: v for k_, v in right.items() if not v.is_zero()}
        if left != right:
            failure = ("coassociativity", j)
            break
    report["comodule"] = failure

    # YD compatibility on every (basis of K_n) x (basis of M)
    failure = None
    for hkey in A.basis_indices():
        hmat = M.action_of(hkey)
        idx = _delta2_forced(n, hkey)
        hkind = hkey[0]
        for j in range(M.dim):
            # lhs: delta(h . v_j)
            lhs: dict = {}
            for k in range(M.dim):
                coeff = hmat.get(k, j)
                if coeff.is_zero():
                    continue
                for g, l in M.coaction[k]:
                    for gkey, v in g.coeffs.items():
                        key = (gkey, l)
                        c = coeff * v
                        s = lhs.get(key)
                        lhs[key] = c if s is None else s + c
            # rhs: h1 v_{-1} S(h3) (x) h2 . v_0
            rhs: dict = {}
            for g, k in M.coaction[j]:
                for gkey, gamma in g.coeffs.items():
                    h1, h3, result = _sandwich_term(n, hkind, gkey)
                    h2key, coeff = idx[h1][h3]
                    c0 = gamma * coeff
                    col = M.action_of(h2key)
                    for row in range(M.dim):
                        w = col.get(row, k)
                        if w.is_zero():
                            continue
                        key = (result, row)
                        c = c0 * w
                        s = rhs.get(key)
                        rhs[key] = c if s is None else s + c
            lhs = {k_: v for k_, v in lhs.items() if not v.is_zero()}
            rhs = {k_: v for k_, v in rhs.items() if not v.is_zero()}
            if lhs != rhs:
                failure = ("yd", hkey, j)
                break
        if failure:
            break
    report["yd"] = failure

    report["ok"] = all(report[k] is None for k in ("module", "comodule", "yd"))
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
    out = CycMatrix.zero(n, dw * dv, dv * dw)
    for a in range(dv):
        for g, a1 in Mv.coaction[a]:
            gmat = Mw.act(g)
            for b in range(dw):
                col = a * dw + b
                for c_ in range(dw):
                    v = gmat.get(c_, b)
                    if not v.is_zero():
                        row = c_ * dv + a1
                        prev = out.data.get(row, {}).get(col)
                        out.set(row, col, v if prev is None else prev + v)
    return out


def braided_space(M: YDModule):
    from .nichols import BraidedSpace
    return BraidedSpace(M.dim, braiding(M, M))


# -- hom spaces and isomorphism ---------------------------------------------------------


def _hom_system(S: YDModule, M: YDModule):
    """The linear system whose solutions are the YD maps T: S -> M, where
    T[k][j] is the coefficient of m_k in T(s_j).  Returns (cells, rows):
    cells maps each (k, j) that may be nonzero to its unknown's index, and
    each row is a sparse {index: coeff} that T must annihilate."""
    if S.algebra.n != M.algebra.n:
        raise ValueError("algebra mismatch")
    ds, dm = S.dim, M.dim
    wS, wM = S.weights(), M.weights()
    # between weight modules, p-equivariance is exactly T[k][j] = 0 unless
    # the weights of m_k and s_j match
    weighted = wS is not None and wM is not None
    cells = {}
    for k in range(dm):
        for j in range(ds):
            if not weighted or wM[k] == wS[j]:
                cells[(k, j)] = len(cells)
    rows: list[dict[int, CycNum]] = []

    def add_row(row: dict):
        row = {c: v for c, v in row.items() if not v.is_zero()}
        if row:
            rows.append(row)

    def add_commutant_rows(mat_m: CycMatrix, mat_s: CycMatrix):
        # mat_m T - T mat_s = 0, one row per entry
        for k in range(dm):
            mrow = mat_m.data.get(k, {})
            for j in range(ds):
                row: dict[int, CycNum] = {}
                for l, v in mrow.items():
                    idx = cells.get((l, j))
                    if idx is not None:
                        row[idx] = v
                for j1 in range(ds):
                    v = mat_s.get(j1, j)
                    idx = cells.get((k, j1))
                    if idx is None or v.is_zero():
                        continue
                    s = row.get(idx)
                    row[idx] = -v if s is None else s - v
                add_row(row)

    add_commutant_rows(M.action_x, S.action_x)
    if not weighted:
        for key in S.action_p:
            add_commutant_rows(M.action_p[key], S.action_p[key])

    # coaction rows: for each (j, l), sum_k T[k][j] H^M_{kl}
    # = sum_{j1} H^S_{j j1} T[l][j1] in K_n, one row per K_n basis key
    cond: dict = {}
    for (k, l), h in M.comatrix().items():
        for j in range(ds):
            idx = cells.get((k, j))
            if idx is not None:
                for hkey, v in h.items():
                    cond.setdefault((j, l, hkey), {})[idx] = v
    for (j, j1), h in S.comatrix().items():
        for l in range(dm):
            idx = cells.get((l, j1))
            if idx is None:
                continue
            for hkey, v in h.items():
                bucket = cond.setdefault((j, l, hkey), {})
                s = bucket.get(idx)
                bucket[idx] = -v if s is None else s - v
    for row in cond.values():
        add_row(row)
    return cells, rows


def hom_dimension(S: YDModule, M: YDModule,
                  prime: int | None = None) -> int | None:
    """Dimension of the space of YD maps S -> M: the nullity of the system
    of `_hom_system`.  With a prime, the nullity over F_p (see
    `CycMatrix.rank`): an upper bound on the dimension, or None if the
    system cannot be reduced mod p."""
    cells, rows = _hom_system(S, M)
    if not cells:
        return 0
    mat = CycMatrix(S.algebra.n, len(rows), len(cells), dict(enumerate(rows)))
    rank = mat.rank(prime)
    return None if rank is None else len(cells) - rank


def is_isomorphic(M1: YDModule, M2: YDModule) -> bool:
    return M1.dim == M2.dim and hom_dimension(M1, M2) >= 1


def is_yd_map(S: YDModule, M: YDModule, T: CycMatrix) -> bool:
    """Whether the dm x ds matrix T intertwines actions and coactions: T is
    zero off the cells of `_hom_system` and satisfies each of its rows."""
    if T.rows != M.dim or T.cols != S.dim:
        raise ValueError("shape mismatch")
    cells, rows = _hom_system(S, M)
    for k, row in T.data.items():
        for j, v in row.items():
            if (k, j) not in cells and not v.is_zero():
                return False
    value = [T.get(k, j) for k, j in cells]
    zero = CycNum.zero(S.algebra.n)
    return all(sum((v * value[c] for c, v in row.items()), zero).is_zero()
               for row in rows)
