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

from .cyclotomic import modular_prime, root
from .linalg import CycMatrix
from .hopf import F, KnAlgebra, delta_terms, multiply
from .ydmod import (Label, U, V, W, YDModule, build_simple, build_u_module,
                    hom_dimension, label_weights, list_simples)


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
    comultiplication, the coaction is delta(v (x) w) = v_{-1}w_{-1} (x)
    (v_0 (x) w_0), so each cell of its matrix over K_n is the product of a
    cell of M1's and one of M2's.  Basis is row-major: index of v_a (x) w_b
    is a*dim(M2) + b.
    Delta(p_{ab}) is the sum of p_{a'b'} (x) p_{a''b''} over (a',b') +
    (a'',b'') = (a,b), so the weight of v_a (x) w_b is the sum of theirs;
    x^, the sum of all f_{ab}, acts through `hopf.delta_terms`, one term
    per pair of entries of M1's and M2's x^."""
    if M1.algebra.n != M2.algebra.n:
        raise ValueError("algebra mismatch")
    A = M1.algebra
    n = A.n
    d1, d2 = M1.dim, M2.dim
    dim = d1 * d2
    weights = [((a1 + a2) % n, (b1 + b2) % n)
               for a1, b1 in M1.weights for a2, b2 in M2.weights]

    # f_{ab} acts on v_{r1} (x) w_{r2} through the one term f_{a1b1} (x)
    # f_{a2b2} of Delta(f_{ab}) whose factors keep the weights (a1, b1) of
    # row r1 and (a2, b2) of row r2, index a1 n + b1 in `delta_terms`
    action_x = {}
    for r1, row1 in M1.action_x.data.items():
        a1, b1 = M1.weights[r1]
        for r2, row2 in M2.action_x.data.items():
            a2, b2 = M2.weights[r2]
            term = delta_terms(A, (F, (a1 + a2) % n, (b1 + b2) % n))
            e = term[a1 * n + b1][2]
            out = action_x[r1 * d2 + r2] = {}
            for c1, v1 in row1.items():
                if e:
                    v1 = v1 * root(n, e)
                for c2, v2 in row2.items():
                    out[c1 * d2 + c2] = v1 * v2

    coaction = [{a1 * d2 + b1: multiply(g, h)
                 for a1, g in M1.coaction[a].items()
                 for b1, h in M2.coaction[b].items()}
                for a in range(d1) for b in range(d2)]
    return YDModule(A, dim, weights, CycMatrix(n, dim, dim, action_x),
                    coaction)


# -- the Hom-space oracle ----------------------------------------------------------


_SIMPLE_CACHE: dict = {}


def _simple(A: KnAlgebra, lab: Label) -> YDModule:
    key = (A.n, lab)
    mod = _SIMPLE_CACHE.get(key)
    if mod is None:
        mod = build_simple(A, lab)
        _SIMPLE_CACHE[key] = mod
    return mod


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
    weight_count = Counter(M.weights)
    # both filters are exact: a nonzero map from a simple is injective and
    # keeps weights
    candidates = []
    for lab in simples:
        if lab.dim() > M.dim:
            continue
        need = Counter(label_weights(lab))
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
    W labels are rewritten as W(eps,i,m) = V(eps,i,m).W(+1,0,0) first.
    The ring is commutative, so the factors are put in the order V, U, W."""
    if L1.n != L2.n:
        raise ValueError("conductor mismatch")
    n = L1.n
    if "VUW".index(L1.kind) > "VUW".index(L2.kind):
        L1, L2 = L2, L1
    kinds = L1.kind + L2.kind
    if kinds == "VV":
        out = _fuse_vv(n, L1.data, L2.data)
    elif kinds == "VU":
        out = _fuse_vu(n, L1.data, L2.data)
    elif kinds == "UU":
        out = _fuse_uu(n, L1.data, L2.data)
    elif kinds == "VW":
        (e1, i1, m1), (e2, i2, m2) = L1.data, L2.data
        out = [W(n, e1 * e2, i1 + i2, m1 + m2)]
    elif kinds == "UW":
        # U.W = (U.V(eps,i,m)).W0
        (e, i, m) = L2.data
        out = []
        for lab in _fuse_vu(n, (e, i, m), L1.data):
            if lab.kind == "U":
                out += _fuse_uw0(n, lab.data)
            else:  # split V part: V.W0 = W
                (ev, iv, mv) = lab.data
                out.append(W(n, ev, iv, mv))
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
