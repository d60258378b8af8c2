"""Tensor products of YD modules over K_n and their fusion rules.

Two independent routes are provided and cross-validated:

  * decompose(): an oracle that builds the actual tensor-product module,
    on which K_n acts through its one comultiplication `hopf.delta_terms`,
    and computes the multiplicity of every simple via Hom spaces (valid by
    semisimplicity of the category), first mod p and certified by the
    dimension count, else exactly;
  * closed_form_fuse(): the symbolic fusion-ring relations, with every
    product reduced to products of modules of dimension at most two and the
    n-dimensional generator W(+1,0,0) via W(eps,i,m) = V(eps,i,m).W(+1,0,0).

Fractional indices like (i+j)/2 and (i-j)/4 are taken in Z_n, where 2 and 4
are invertible because n is odd.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .cyclotomic import modular_prime
from .linalg import CycMatrix
from .hopf import F, P, KnAlgebra, delta_terms, multiply
from .ydmod import (Label, U, V, W, YDModule, build_simple, build_u_module,
                    hom_dimension, list_simples)


# -- decompositions ---------------------------------------------------------------


@dataclass(frozen=True)
class FusionDecomposition:
    """A multiset of simple labels with multiplicities, stored sorted."""
    terms: tuple  # tuple of (Label, multiplicity), sorted by label

    @staticmethod
    def from_pairs(pairs) -> "FusionDecomposition":
        acc: dict[Label, int] = {}
        for lab, mult in pairs:
            if mult < 0:
                raise ValueError("negative multiplicity")
            if mult:
                acc[lab] = acc.get(lab, 0) + mult
        return FusionDecomposition(tuple(sorted(acc.items())))

    def dim(self) -> int:
        return sum(mult * lab.dim() for lab, mult in self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for lab, mult in self.terms:
            parts.append(str(lab) if mult == 1 else "%d*%s" % (mult, lab))
        return " + ".join(parts)

    def to_json(self):
        return [[str(lab), mult] for lab, mult in self.terms]


def zn_orbit_set(n: int) -> list[tuple[int, int]]:
    """Representatives of Z_n x Z_n modulo (r,k) ~ (-r,-k); exactly
    (n^2+1)/2 classes, with (0,0) its own class."""
    reps = set()
    for r in range(n):
        for k in range(n):
            reps.add(min((r, k), ((-r) % n, (-k) % n)))
    return sorted(reps)


# -- tensor products ---------------------------------------------------------------


def tensor_module(M1: YDModule, M2: YDModule) -> YDModule:
    """The tensor product in the YD category: h acts through the
    comultiplication (`hopf.delta_terms`), the coaction is delta(v (x) w) =
    v_{-1}w_{-1} (x) (v_0 (x) w_0).  Basis is row-major: index of v_a (x) w_b
    is a*dim(M2) + b."""
    if M1.algebra.n != M2.algebra.n:
        raise ValueError("algebra mismatch")
    A = M1.algebra
    n = A.n
    d1, d2 = M1.dim, M2.dim
    dim = d1 * d2

    def act(keys) -> CycMatrix:
        # sum over h in keys and Delta(h) = sum v h1 (x) h2 of
        # h1 (x) v h2, with the h2 side summed first for each h1
        right: dict = {}
        for key in keys:
            for k1, k2, v in delta_terms(A, key):
                m2 = M2.action_of(k2)
                if not m2.data or not M1.action_of(k1).data:
                    continue
                if not v.is_one():
                    m2 = m2.scale(v)
                prev = right.get(k1)
                right[k1] = m2 if prev is None else prev + m2
        out = CycMatrix.zero(n, dim, dim)
        for k1, m2 in right.items():
            out = out + M1.action_of(k1).kron(m2)
        return out

    action_p = {(a, b): act([(P, a, b)]) for a in range(n) for b in range(n)}
    # x^ = sum of all f_{ab}
    action_x = act([(F, a, b) for a in range(n) for b in range(n)])

    coaction = []
    for a in range(d1):
        for b in range(d2):
            terms = []
            for g, a1 in M1.coaction[a]:
                for h, b1 in M2.coaction[b]:
                    terms.append((multiply(g, h), a1 * d2 + b1))
            coaction.append(terms)
    return YDModule(A, dim, action_p, action_x, coaction)


# -- the Hom-space oracle ----------------------------------------------------------


_SIMPLE_CACHE: dict = {}


def _simple(A: KnAlgebra, lab: Label) -> YDModule:
    key = (A.n, lab)
    mod = _SIMPLE_CACHE.get(key)
    if mod is None:
        mod = build_simple(A, lab)
        _SIMPLE_CACHE[key] = mod
    return mod


def _label_weights(lab: Label):
    n = lab.n
    if lab.kind == "V":
        _, i, _ = lab.data
        return [(i, i)]
    if lab.kind == "U":
        i, j, _, _ = lab.data
        return [(i, j), (j, i)]
    _, i, _ = lab.data
    return [((i + 2 * r) % n, (i - 2 * r) % n) for r in range(n)]


def decompose(M: YDModule, simples: list[Label] | None = None
              ) -> FusionDecomposition:
    """Decompose M into simples; the multiplicity of S is dim Hom(S, M).

    The multiplicities are first computed over F_p (`modular_prime`).  Each
    is an upper bound on the true one, and by semisimplicity the true ones
    satisfy sum mult * dim = dim M, so bounds that add up to dim M are all
    exact.  Otherwise they are recomputed over Q(xi).  Fails loudly if the
    exact multiplicities do not account for dim M either."""
    A = M.algebra
    if simples is None:
        simples = list_simples(A)
    wM = M.weights()
    weight_count = Counter(wM) if wM is not None else None
    # both filters are exact: a nonzero map from a simple is injective and
    # keeps weights
    candidates = []
    for lab in simples:
        if lab.dim() > M.dim:
            continue
        if weight_count is not None:
            need = Counter(_label_weights(lab))
            if any(weight_count.get(w, 0) < c for w, c in need.items()):
                continue
        candidates.append(lab)
    found = _multiplicities(M, candidates, modular_prime(A.n))
    if found is None or found.dim() != M.dim:
        found = _multiplicities(M, candidates, None)
    if found.dim() != M.dim:
        raise ArithmeticError(
            "decomposition does not balance: %d of %d dimensions unaccounted"
            % (M.dim - found.dim(), M.dim))
    return found


def _multiplicities(M: YDModule, candidates: list[Label], prime):
    """The candidates with their multiplicities dim Hom(S, M), over F_prime
    or, for prime None, over Q(xi); None if some Hom system cannot be
    reduced mod prime.  Every candidate is evaluated: a sum of upper bounds
    proves nothing until it is complete."""
    pairs = []
    for lab in candidates:
        mult = hom_dimension(_simple(M.algebra, lab), M, prime)
        if mult is None:
            return None
        pairs.append((lab, mult))
    return FusionDecomposition.from_pairs(pairs)


# -- closed-form fusion rules --------------------------------------------------------


def _u_or_split(n: int, i: int, j: int, m: int, t: int) -> list[Label]:
    """The fusion-ring symbol u_{i,j,m,t}: a simple U label, or its
    splitting V(+1,i,m) + V(-1,i,m) when the parameters are reducible."""
    i, j, m, t = i % n, j % n, m % n, t % n
    if i == j and t == (m - 2 * i) % n:
        return [V(n, 1, i, m), V(n, -1, i, m)]
    return [U(n, i, j, m, t)]


def _fuse_vv(n, d1, d2):
    (e1, i1, m1), (e2, i2, m2) = d1, d2
    return [V(n, e1 * e2, i1 + i2, m1 + m2)]


def _fuse_vu(n, dv, du):
    (e1, i1, m1) = dv
    (i2, j2, m2, t2) = du
    return _u_or_split(n, i1 + i2, i1 + j2, m1 + m2, -2 * i1 + m1 + t2)


def _fuse_uu(n, d1, d2):
    (i1, j1, m1, t1) = d1
    (i2, j2, m2, t2) = d2
    out = _u_or_split(n, i1 + i2, j1 + j2, m1 + m2, t1 + t2)
    out += _u_or_split(n, i1 + j2, j1 + i2, m1 + 2 * i2 + t2,
                       t1 - 2 * j2 + m2)
    return out


def _fuse_uw0(n, du):
    (i, j, m, t) = du
    half = (n + 1) // 2
    iw = ((i + j) * half) % n
    mw = ((2 * i + m + t) * half) % n
    return [W(n, 1, iw, mw), W(n, -1, iw, mw)]


def _fuse_w0w0(n):
    half = (n + 1) // 2
    out = [V(n, 1, 0, 0)]
    for (r, k) in zn_orbit_set(n):
        if (r, k) == (0, 0):
            continue
        out += _u_or_split(n, -4 * k, 4 * k, 4 * k - half * r, 4 * k + half * r)
    return out


def closed_form_fuse(L1: Label, L2: Label) -> FusionDecomposition:
    """Symbolic product of two simple labels via the fusion-ring relations;
    W labels are rewritten as W(eps,i,m) = V(eps,i,m).W(+1,0,0) first."""
    if L1.n != L2.n:
        raise ValueError("conductor mismatch")
    n = L1.n
    k1, k2 = L1.kind, L2.kind
    if k1 == "V" and k2 == "V":
        out = _fuse_vv(n, L1.data, L2.data)
    elif k1 == "V" and k2 == "U":
        out = _fuse_vu(n, L1.data, L2.data)
    elif k1 == "U" and k2 == "V":
        out = _fuse_vu(n, L2.data, L1.data)
    elif k1 == "U" and k2 == "U":
        out = _fuse_uu(n, L1.data, L2.data)
    elif k1 == "V" and k2 == "W":
        (e1, i1, m1), (e2, i2, m2) = L1.data, L2.data
        out = [W(n, e1 * e2, i1 + i2, m1 + m2)]
    elif k1 == "W" and k2 == "V":
        return closed_form_fuse(L2, L1)
    elif k1 == "U" and k2 == "W":
        # U.W = (U.V(eps,i,m)).W0
        (e, i, m) = L2.data
        out = []
        for lab in _fuse_vu(n, (e, i, m), L1.data):
            if lab.kind == "U":
                out += _fuse_uw0(n, lab.data)
            else:  # split V part: V.W0 = W
                (ev, iv, mv) = lab.data
                out.append(W(n, ev, iv, mv))
        return FusionDecomposition.from_pairs((lab, 1) for lab in out)
    elif k1 == "W" and k2 == "U":
        return closed_form_fuse(L2, L1)
    else:  # W.W = (V.V).(W0.W0)
        (e1, i1, m1), (e2, i2, m2) = L1.data, L2.data
        vlab = V(n, e1 * e2, i1 + i2, m1 + m2)
        out = []
        for lab in _fuse_w0w0(n):
            if lab.kind == "V":
                out += _fuse_vv(n, vlab.data, lab.data)
            else:
                out += _fuse_vu(n, vlab.data, lab.data)
        return FusionDecomposition.from_pairs((lab, 1) for lab in out)
    return FusionDecomposition.from_pairs((lab, 1) for lab in out)


# -- table generation and cross-validation ---------------------------------------------


def fusion_table(A: KnAlgebra, pairs=None, verify: bool = True):
    """Rows [left, right, closed_form, oracle (if verify), match] for every
    pair of simple labels in `pairs` (default: all ordered pairs)."""
    labels = list_simples(A)
    if pairs is None:
        pairs = [(l1, l2) for l1 in labels for l2 in labels]
    rows = []
    mismatches = 0
    for l1, l2 in pairs:
        closed = closed_form_fuse(l1, l2)
        row = {"left": str(l1), "right": str(l2), "closed_form": str(closed)}
        if verify:
            oracle = decompose(tensor_module(_simple(A, l1), _simple(A, l2)),
                               labels)
            row["oracle"] = str(oracle)
            row["match"] = closed == oracle
            if not row["match"]:
                mismatches += 1
        rows.append(row)
    return rows, mismatches


def sample_pairs(A: KnAlgebra, count: int, seed: int = 0):
    """Deterministic sample of ordered label pairs."""
    import random
    labels = list_simples(A)
    rng = random.Random(seed)
    return [(rng.choice(labels), rng.choice(labels)) for _ in range(count)]


# -- the explicit U (x) W0 isomorphism ----------------------------------------------------


def uw0_isomorphism(A: KnAlgebra, i: int, j: int, m: int, t: int):
    """The explicit intertwiner phi: U' (x) W0 -> U(i,j,m,t) (x) W0, where
    U' = U_{i',i',m',m'-2i'} with i' = (i+j)/2, m' = (m+t+2i)/2 is the
    reducible module splitting as V(+1,i',m') + V(-1,i',m').  With
    D = (i-j)/4 and M = m-t-i-j:

        phi(u'_1 (x) w_r) = xi^{-rM}          u_1 (x) w_{r-D}
        phi(u'_2 (x) w_r) = xi^{rM - 2D(i+j)} u_2 (x) w_{r+D}

    Returns (source, target, phi) as YD modules and a matrix."""
    n = A.n
    half = (n + 1) // 2
    quarter = (half * half) % n
    ip = ((i + j) * half) % n
    mp = ((m + t + 2 * i) * half) % n
    D = ((i - j) * quarter) % n
    M = (m - t - i - j) % n
    w0 = _simple(A, W(n, 1, 0, 0))
    source = tensor_module(build_u_module(A, ip, ip, mp, mp - 2 * ip), w0)
    target = tensor_module(build_u_module(A, i, j, m, t), w0)
    phi = CycMatrix.zero(n, 2 * n, 2 * n)
    for r in range(n):
        phi.set(0 * n + (r - D) % n, 0 * n + r, A.xi(-r * M))
        phi.set(1 * n + (r + D) % n, 1 * n + r, A.xi(r * M - 2 * D * (i + j)))
    return source, target, phi
