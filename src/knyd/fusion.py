"""Tensor products of YD modules over K_n and their fusion rules.

Two independent routes are provided and cross-validated:

  * decompose(): an oracle that builds the actual tensor-product module,
    on which K_n acts through its one comultiplication `hopf.delta_terms`,
    and computes, via Hom spaces, the multiplicity of every simple that
    its weights and comodule characters admit (valid by semisimplicity of
    the category), first mod p and certified by the dimension count, else
    exactly;
  * closed_form_fuse(): the symbolic fusion-ring relations, with every
    product reduced to products of modules of dimension at most two and the
    n-dimensional generator W(+1,0,0) via W(eps,i,m) = V(eps,i,m).W(+1,0,0).

Fractional indices like (i+j)/2 and (i-j)/4 are taken in Z_n, where 2 and 4
are invertible because n is odd.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .cyclotomic import mod_p, modular_prime, root, root_images
from .linalg import CycMatrix
from .hopf import F, P, KnAlgebra, delta_terms, multiply
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


@lru_cache(maxsize=None)
def _label_needs(lab: Label) -> tuple:
    """The weights (w, count) of the simple `lab`, and its profile counts
    (key, count) (`decompose`): (w, (m, t)) for a vector of weight w whose
    coaction is chi_{m,t}, as `build_simple` builds it, and (w, None) for
    each vector of a W."""
    n, weights = lab.n, label_weights(lab)
    if lab.kind == "V":
        _, i, m = lab.data
        chars = [(m, (m - 2 * i) % n)]
    elif lab.kind == "U":
        i, j, m, t = lab.data
        chars = [(m, t), ((t + 2 * i) % n, (m - 2 * j) % n)]
    else:
        chars = [None] * n
    return (tuple(Counter(weights).items()),
            tuple(Counter(zip(weights, chars)).items()))


def _profile(M: YDModule):
    """M's profile counts mod p = `modular_prime` (`decompose`) as a
    function of the key, or None if a coefficient has no image mod p."""
    n, prime = M.algebra.n, modular_prime(M.algebra.n)
    residues: dict = {}
    traces: dict = {}   # {w: {(i, j): T_w(i, j) mod p}}
    for k, w in enumerate(M.weights):
        cell = M.coaction[k].get(k)
        for (kind, i, j), v in cell.coeffs.items() if cell else ():
            if kind == P:
                if v not in residues:
                    residues[v] = mod_p(v, prime)
                if residues[v] is None:
                    return None
                tw = traces.setdefault(w, {})
                tw[i, j] = tw.get((i, j), 0) + residues[v]
    roots, inv = root_images(n, prime)[0], pow(n * n, -1, prime)
    size = Counter(M.weights)

    def count(key) -> int:
        w, chi = key
        tw = traces.get(w, {})
        if chi is None:
            return (size[w] - tw.get((0, 0), 0)) % prime
        # chi_{m,t}(i, j)^-1 = xi^{-(mi+tj)}, of exponent -(mi+tj)(n+1)
        return sum(x * roots[-(chi[0] * i + chi[1] * j) * (n + 1) % (2 * n)]
                   for (i, j), x in tw.items()) * inv % prime

    return count


def _candidates(M: YDModule, simples: list[Label]) -> list[Label]:
    """The simples that pass the filters of `decompose`, or the weight
    filter alone when M's profile is not certified."""
    have = Counter(M.weights)
    weighed = [lab for lab in simples if all(
        have.get(w, 0) >= c for w, c in _label_needs(lab)[0])]
    count = _profile(M)
    if count is None:
        return weighed
    counts: dict = {}
    kept = []
    for lab in weighed:
        for key, c in _label_needs(lab)[1]:
            if key not in counts:
                counts[key] = count(key)
                if counts[key] > M.dim:
                    return weighed
            if counts[key] < c:
                break
        else:
            kept.append(lab)
    return kept


def decompose(M: YDModule, simples: list[Label] | None = None
              ) -> FusionDecomposition:
    """Decompose M into simples; the multiplicity of S is dim Hom(S, M).

    Three exact filters drop the simples S that cannot occur in M.  A
    nonzero map from S is injective and keeps weights, so S fits in each
    weight space of M, and so in its dimension.  Third, the profile: the
    coaction makes M a module over K_n^*, where the p^*_{ij} span the group
    algebra of Z_n x Z_n, with unit p^*_{00}.  Let T_w(i, j) be the trace
    of p_w o p^*_{ij}.  Key (w, chi) counts the vectors of weight w on which
    the p^* act by chi, n^-2 sum_{ij} chi(i, j)^-1 T_w(i, j); key (w, None)
    those outside that part, |block w| - T_w(0, 0).  Every YD map commutes
    with p_w and p^*_{ij}, so M's count is the sum of m_S times S's over
    M = + S^{m_S}, and is at least S's wherever m_S > 0 (a simple's counts
    are the non-negative ones of `_label_needs`).  It lies in [0, dim M]
    and dim M < p, so its residue mod p is the count itself; a coefficient
    with no image mod p, or a residue past dim M, drops this filter.

    The multiplicities are first computed over F_p (`modular_prime`).  Each
    is an upper bound on the true one, and by semisimplicity the true ones
    satisfy sum mult * dim = dim M, so bounds that add up to dim M are all
    exact.  Otherwise they are recomputed over Q(xi).  Fails loudly if the
    exact multiplicities do not account for dim M either."""
    A = M.algebra
    if simples is None:
        simples = list_simples(A)
    candidates = _candidates(M, simples)
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
