"""Tensor products of YD modules over K_n and their fusion rules.

Two independent routes are provided and cross-validated:

  * decompose(): an oracle that builds the actual tensor-product module,
    on which K_n acts through its one comultiplication `hopf.delta_terms`,
    and reads every multiplicity off its character over the Drinfeld
    double D(K_n) mod p, certified; else from its Hom spaces over Q(xi_n)
    (valid by semisimplicity of the category);
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
from itertools import product

from .cyclotomic import CycNum, mod_p, modular_prime, root, root_images
from .linalg import CycMatrix
from .hopf import F, P, KnAlgebra, delta_terms, multiply
from .ydmod import (Label, U, V, W, YDModule, build_simple, hom_dimension,
                    label_weights, list_simples)


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


# -- the decomposition oracle: characters, then Hom spaces -------------------------


@lru_cache(maxsize=None)
def _simple(A: KnAlgebra, lab: Label) -> YDModule:
    return build_simple(A, lab)


def _traces(M: YDModule, prime: int):
    """M's traces T0 and T1 mod prime (`decompose`), as {weight: {basis
    key: residue}}, or None if a coefficient read has no image."""
    residues: dict = {}
    traces: tuple = ({}, {})
    one = CycNum.one(M.algebra.n)
    for j, (w, row) in enumerate(zip(M.weights, M.coaction)):
        cells = [(0, one, row.get(j))] + [
            (1, x, row.get(k)) for k, x in M.action_x.data.get(j, {}).items()]
        for e, x, cell in cells:
            if cell is None:
                continue
            for v in (x, *cell.coeffs.values()):
                if v not in residues:
                    residues[v] = mod_p(v, prime)
                    if residues[v] is None:
                        return None
            acc = traces[e].setdefault(w, {})
            for key, v in cell.coeffs.items():
                acc[key] = acc.get(key, 0) + residues[x] * residues[v]
    return traces


def _lift(x: int, prime: int) -> int:
    """The integer of least absolute value congruent to x mod prime."""
    return (x + prime // 2) % prime - prime // 2


def _transform(part: dict, xi: list, prime: int) -> list:
    """The lifted n^-2 sum_{ij} xi^-(ai+bj) part[i, j] mod prime, as rows
    over a of entries over b, summed over j first; xi[k] is xi^k mod p."""
    n = len(xi)
    inner: dict = {}
    for (i, j), t in part.items():
        row = inner.setdefault(i, [0] * n)
        for b in range(n):
            row[b] += t * xi[-b * j % n]
    scale = pow(n * n, -1, prime)
    return [[_lift(sum(xi[-a * i % n] * row[b] for i, row in inner.items())
                   * scale, prime) for b in range(n)] for a in range(n)]


def _read_characters(M: YDModule):
    """M's decomposition read off its traces mod p (`decompose`), or None
    when the certificate fails."""
    n, dim = M.algebra.n, M.dim
    prime = modular_prime(n)
    if 2 * dim >= prime or (traces := _traces(M, prime)) is None:
        return None
    xi = [root_images(n, prime)[0][k * (n + 1) % (2 * n)] for k in range(n)]
    inv_n, half, zeros = pow(n, -1, prime), (n + 1) // 2, [[0] * n] * n
    pairs: list = []
    reads: dict = {}   # {U or W(+1, i, m): {key: N or (A, B)}}
    for w in set(traces[0]) | set(traces[1]):
        a0, b0 = w
        i, r = (a0 + b0) * half % n, (a0 - b0) * half * half % n
        parts = [{}, {}, {}, {}]   # T0 and T1 at the p keys, then the f keys
        for e, trace in enumerate(traces):
            for (kind, a, b), t in trace.get(w, {}).items():
                parts[e + 2 * kind][a, b] = t % prime
        if any(t for (a, b), t in parts[2].items() if a != b) or any(
                t for (a, b), t in parts[3].items() if (a - b - 4 * r) % n):
            return None
        grids = [_transform(part, xi, prime) if part else zeros
                 for part in parts[:2]]
        for a, b in product(range(n), repeat=2) if any(parts[:2]) else ():
            N, X = grids[0][a][b], grids[1][a][b]
            if not 0 <= N <= dim:
                return None
            if a0 == b0 and b == (a - 2 * i) % n:
                if abs(X) > N or (N - X) % 2:
                    return None
                pairs += [(V(n, 1, i, a), (N + X) // 2),
                          (V(n, -1, i, a), (N - X) // 2)]
            elif X:
                return None
            elif N:
                reads.setdefault(U(n, a0, b0, a, b), {})[w, a, b] = N
        for mu in range(n) if any(parts[2:]) else ():
            m = (mu + 2 * i + 4 * r) * half % n
            A = _lift(sum(xi[-mu * a % n] * t
                          for (a, _), t in parts[2].items()) * inv_n, prime)
            B = _lift(sum(xi[-(mu + 4 * r) * a % n] * t
                          for (a, _), t in parts[3].items())
                      * xi[4 * r * (m - i) % n] * inv_n, prime)
            if not 0 <= A <= dim or abs(B) > A or (A - B) % 2:
                return None
            if A:
                reads.setdefault(W(n, 1, i, m), {})[r] = (A, B)
    for lab, read in reads.items():   # one value at each of dim S keys
        values = set(read.values())
        if len(read) != lab.dim() or len(values) > 1:
            return None
        (v,) = values
        if lab.kind == "U":
            pairs.append((lab, v))
        else:
            pairs += [(lab, (v[0] + v[1]) // 2),
                      (W(n, -1, *lab.data[1:]), (v[0] - v[1]) // 2)]
    found = FusionDecomposition.from_pairs(pairs)
    return found if found.dim() == dim else None


_CROSS_CHECKED: set = set()


def decompose(M: YDModule, simples: list[Label] | None = None
              ) -> FusionDecomposition:
    """Decompose M into simples by its character over the Drinfeld double,
    certified mod p, with the exact Hom spaces as fallback.

    YD(K_n) is the category of D(K_n)-modules, which is semisimple (Majid
    1991; Kassel, Quantum Groups, ch. IX and XIII): M = + S^{m_S}, and the
    trace on M of any element of D(K_n) is sum m_S times its trace on S.
    With K^* v_j = sum_k coeff_K(coaction[j][k]) v_k for a basis key K (the
    K_n^*-action the coaction defines) and p_w the projection on weight w,
    `_traces` reads, mod p = `modular_prime(n)`,

        T0_w(K) = tr(p_w K^*)    = sum_{j of weight w} coeff_K(coaction[j][j])
        T1_w(K) = tr(p_w x^ K^*) = sum_{j of weight w, k} x^[j][k]
                                                     coeff_K(coaction[j][k])

    and `_read_characters` reads off, by `build_simple`'s structure:
      * p keys: N(w, a, b) = n^-2 sum_{ij} xi^-(ai+bj) T0_w(p_ij) counts
        the vectors of weight w whose p^*-character is chi_{a,b}; X is the
        same transform of T1_w.  At w = (i, i) and b = a - 2i, V(+-1, i, a)
        has N = 1 and X = +-1: m_V(+-1,i,a) = (N +- X)/2.  Any other
        (w, a, b) is a key ((i, j), m, t) or ((j, i), t + 2i, m - 2j) of
        U(i, j, m, t), which has X = 0 there: m_U = N.
      * f keys, carried by the W alone, one vector of W(eps, i, m) at each
        w = (i + 2r, i - 2r): A(mu) = n^-1 sum_a xi^-(mu a) T0_w(f_aa) and
        B(mu) = n^-1 sum_a xi^-((mu + 4r)a) T1_w(f_{a,a-4r}) xi^{4r(m-i)}
        are 1 and eps on it, m = (mu + 2i + 4r)/2: m_W(+-1,i,m) = (A +- B)/2.
    The read is accepted only if every coefficient read has an image mod
    p; N and A lift into [0, dim M], X and B with |X| <= N, |B| <= A and
    the parity of N and A; every trace off these keys is 0 (T0 at f_ab,
    a != b; T1 at f_ab, b != a - 4r; X off w = (i, i), b = a - 2i); a U
    at both its keys and a W at all n weights read one multiplicity; and
    sum m_S dim S = dim M < p/2.  On a YD module each lift is then the
    true value.  Otherwise `_hom_route` decides exactly over Q(xi_n), over
    `simples` (default all).  The first module read at each n in a process
    is decomposed by `_hom_route` too, over the labels read.  Raises
    ArithmeticError if the two differ, or if the multiplicities do not
    account for dim M."""
    n = M.algebra.n
    found = _read_characters(M)
    if found is None:
        found = _hom_route(M, list_simples(M.algebra) if simples is None
                           else simples)
    elif n not in _CROSS_CHECKED:
        hom = _hom_route(M, [lab for lab, _ in found.terms])
        if hom != found:
            raise ArithmeticError("the characters of M give %s, its Hom "
                                  "spaces %s" % (found, hom))
        _CROSS_CHECKED.add(n)
    if found.dim() != M.dim:
        raise ArithmeticError(
            "decomposition does not balance: %d of %d dimensions unaccounted"
            % (M.dim - found.dim(), M.dim))
    return found


def _hom_route(M: YDModule, simples: list[Label]) -> FusionDecomposition:
    """M's decomposition by Hom spaces (`decompose`): m_S = dim Hom(S, M)
    over Q(xi_n), exact, for each simple S that fits in M's weight spaces."""
    have = Counter(M.weights)
    return FusionDecomposition.from_pairs(
        (lab, hom_dimension(_simple(M.algebra, lab), M)) for lab in simples
        if all(have[w] >= c for w, c in Counter(label_weights(lab)).items()))


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
    """Deterministic sample of min(count, L^2) distinct ordered pairs of the
    L labels; a pair drawn twice is drawn again."""
    import random
    labels = list_simples(A)
    rng = random.Random(seed)
    count = min(count, len(labels) ** 2)
    pairs: dict = {}
    while len(pairs) < count:
        pairs[rng.choice(labels), rng.choice(labels)] = None
    return list(pairs)
