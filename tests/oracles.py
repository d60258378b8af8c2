"""Reference implementations that only the tests use.

Each is a direct, slow route to something the package computes another way,
kept apart from `knyd` so that it stays independent of the code it checks:
the product in Q(xi_n) by long division by Phi_n (against `CycNum.__mul__`
and its exponent sums of roots); the braid-group representation and the
naive |S_k|-term quantum symmetrizer, against the full coset-factored QS_k
built from `knyd.nichols._coset_factor` (the recursion `graded_dims` runs on
row spaces); the coproduct of K_n from its closed form (against the Delta
table of `knyd.hopf`, which `comultiply`, the audits and the Delta^2 terms
of `check_yd` read); the comatrix elements of K_n (against the W coaction of
`knyd.ydmod.build_simple`) and its adjoint action from that coproduct,
multiplication and antipode; a test of one matrix against the Hom system of
`knyd.ydmod` and the explicit U (x) W0 isomorphism it checks; the
braiding of two YD modules with the terms of each cell summed (against the
one term per cell of `knyd.ydmod.braiding` on permutation braidings); the
q-matrix of a diagonal braiding; the plain column-by-column elimination
(against `knyd.linalg._echelon`), a linear solver, the transpose, a matrix
copy and the dense form of a sparse kernel vector; and a few small racks,
solutions and cocycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from knyd import nichols
from knyd.cyclotomic import CycNum, cyclotomic_polynomial
from knyd.fusion import _simple, tensor_module
from knyd.hopf import (F, P, KnAlgebra, KnElement, TensorElement, antipode,
                       multiply)
from knyd.linalg import CycMatrix, _reduced
from knyd.nichols import BraidedSpace, SquareZeroSpace
from knyd.racks import BraidedSet, CocycleTable, Rack
from knyd.ydmod import W, YDModule, _hom_system, _unknowns, build_u_module


# -- Q(xi_n) ---------------------------------------------------------------------------


def cyc_product(a: CycNum, b: CycNum) -> CycNum:
    """a * b by convolving the integer coefficient lists and taking the
    remainder of long division by Phi_n, without `CycNum.__mul__`."""
    phi = cyclotomic_polynomial(a.n)
    deg = len(phi) - 1
    conv = [0] * (2 * deg - 1)
    for i, x in enumerate(a.num):
        for j, y in enumerate(b.num):
            conv[i + j] += x * y
    for k in range(len(conv) - 1, deg - 1, -1):   # Phi_n is monic
        c = conv[k]
        for t, coeff in enumerate(phi):
            conv[k - deg + t] -= c * coeff
    return CycNum(a.n, tuple(conv[:deg]), a.den * b.den)


# -- braid words and the naive quantum symmetrizer ----------------------------------


@dataclass(frozen=True)
class BraidWord:
    """A positive word in the braid group B_{n_strands}; letters are
    generator indices 1 <= i <= n_strands - 1."""
    n_strands: int
    letters: tuple

    def __post_init__(self):
        for i in self.letters:
            if not 1 <= i <= self.n_strands - 1:
                raise ValueError("letter %r out of range" % (i,))


def matsumoto_lift(sigma) -> BraidWord:
    """A reduced word for the permutation sigma (one-line notation on
    1..k or 0..k-1), generated by bubble-sort descent; the word length is
    the inversion count, so the braid-group element is well-defined by
    Matsumoto's theorem."""
    a = list(sigma)
    k = len(a)
    if sorted(a) == list(range(k)):
        a = [v + 1 for v in a]
    if sorted(a) != list(range(1, k + 1)):
        raise ValueError("not a permutation: %r" % (sigma,))
    swaps = []
    changed = True
    while changed:
        changed = False
        for j in range(k - 1):
            if a[j] > a[j + 1]:
                a[j], a[j + 1] = a[j + 1], a[j]
                swaps.append(j + 1)
                changed = True
    # sorting multiplies sigma on the right by each s_j in order, so
    # sigma = s_{j_t} ... s_{j_1}
    return BraidWord(k, tuple(reversed(swaps)))


def strand_matrix(B: BraidedSpace, i: int, k: int) -> CycMatrix:
    """c acting on strands i, i+1 of a k-fold tensor power (1-based)."""
    d = B.dim
    mat = B.c
    if i > 1:
        mat = CycMatrix.identity(B.n, d ** (i - 1)).kron(mat)
    if i < k - 1:
        mat = mat.kron(CycMatrix.identity(B.n, d ** (k - 1 - i)))
    return mat


def braid_representation(B: BraidedSpace, word: BraidWord) -> CycMatrix:
    """rho(word) on the word.n_strands-fold tensor power: the letters are
    composed left to right as a matrix product."""
    k = word.n_strands
    out = CycMatrix.identity(B.n, B.dim ** k)
    for i in word.letters:
        out = out @ strand_matrix(B, i, k)
    return out


def naive_quantum_symmetrizer(B: BraidedSpace, k: int) -> CycMatrix:
    """The literal sum over all k! permutations of their Matsumoto lifts."""
    out = CycMatrix.zero(B.n, B.dim ** k, B.dim ** k)
    for sigma in permutations(range(1, k + 1)):
        out = out + braid_representation(B, matsumoto_lift(sigma))
    return out


def quantum_symmetrizer(B: BraidedSpace, k: int) -> CycMatrix:
    """QS_k as a d^k x d^k matrix, by the right coset factorization
    QS_k = (QS_{k-1} (x) id) T*_k, each T*_k applied by `_coset_factor`."""
    ident = qs = CycMatrix.identity(B.n, B.dim)
    perm = nichols._permutation_rows(B.c)
    for deg in range(2, k + 1):
        qs = nichols._coset_factor(B, deg, perm)(qs.kron(ident))
    return qs


@dataclass
class DynkinData:
    q_matrix: list                # d x d CycNum entries
    vertex_labels: list           # q_ii
    edge_labels: dict             # (a,b), a<b -> q_ab * q_ba
    quantum_linear_space: bool    # every edge label is 1
    cartan_a2: bool               # 2 vertices, q11 = q22 = q != 1, edge q^{-1}


def diagonal_data(B: BraidedSpace):
    """The q-matrix when c(e_a (x) e_b) = q_ab e_b (x) e_a for all basis
    pairs; None when the braiding is not diagonal in the given basis."""
    d = B.dim
    q = [[None] * d for _ in range(d)]
    # collect column supports
    cols: dict[int, list] = {}
    for r, row in B.c.data.items():
        for c_, v in row.items():
            cols.setdefault(c_, []).append((r, v))
    for a in range(d):
        for b in range(d):
            support = cols.get(a * d + b, [])
            if len(support) != 1 or support[0][0] != b * d + a:
                return None
            q[a][b] = support[0][1]
    vertex = [q[a][a] for a in range(d)]
    edges = {(a, b): q[a][b] * q[b][a]
             for a in range(d) for b in range(d) if a < b}
    one = CycNum.one(B.n)
    qls = all(v == one for v in edges.values())
    cartan = False
    if d == 2 and q[0][0] == q[1][1] and not q[0][0].is_one():
        cartan = edges[(0, 1)] * q[0][0] == one
    return DynkinData(q_matrix=q, vertex_labels=vertex, edge_labels=edges,
                      quantum_linear_space=qls, cartan_a2=cartan)


def contains_profile(space: SquareZeroSpace, v: list) -> bool:
    """Whether the monomial profile of the degree-1 vector v lies in the
    solution space of `square_zero_monomial_space` (equivalent to
    QS_2(v (x) v) = 0): appending it to the kernel basis keeps the rank."""
    if not v:
        return False
    n = v[0].n
    profile = [v[a] * v[b] for (a, b) in space.pairs]
    rows = dict(enumerate(space.kernel))
    mat = CycMatrix(n, len(space.kernel), len(space.pairs), rows)
    base_rank = mat.rank()
    extra = {c: x for c, x in enumerate(profile) if not x.is_zero()}
    if not extra:
        return True
    rows2 = dict(rows)
    rows2[len(space.kernel)] = extra
    mat2 = CycMatrix(n, len(space.kernel) + 1, len(space.pairs), rows2)
    return mat2.rank() == base_rank


# -- K_n -------------------------------------------------------------------------------


def xhat(A: KnAlgebra) -> KnElement:
    """x^ = sum_{ij} f_{ij}."""
    one = A.scalar(1)
    return KnElement(A, {(F, i, j): one
                         for i in range(A.n) for j in range(A.n)})


def comatrix_element(A: KnAlgebra, k: int, l: int) -> KnElement:
    """e_{kl} = sum_s xi^{-2s(k+l)} f_{s+k-l, s-k+l}."""
    n = A.n
    out: dict = {}
    for s in range(n):
        key = (F, (s + k - l) % n, (s - k + l) % n)
        c = A.xi(-2 * s * (k + l))
        prev = out.get(key)
        out[key] = c if prev is None else prev + c
    return KnElement(A, out)


def closed_form_comultiply(x: KnElement) -> TensorElement:
    """Delta(x) from the closed form in the `knyd.hopf` docstring, without
    its Delta table: Delta(p_{ij}) sums p_{i'j'} (x) p_{i''j''} and
    Delta(f_{ij}) sums xi^{i'j'' - j'i''} f_{i'j'} (x) f_{i''j''}, over
    i' + i'' = i and j' + j'' = j."""
    A = x.algebra
    n = A.n
    out: dict = {}
    for (kind, i, j), v in x.coeffs.items():
        for i1 in range(n):
            i2 = (i - i1) % n
            for j1 in range(n):
                j2 = (j - j1) % n
                c = v if kind == P else v * A.xi(i1 * j2 - j1 * i2)
                key = ((kind, i1, j1), (kind, i2, j2))
                s = out.get(key)
                out[key] = c if s is None else s + c
    return TensorElement(A, out)


def adjoint_action(h: KnElement, z: KnElement) -> KnElement:
    """h -> z = h_(1) z S(h_(2)), computed via the closed-form Delta,
    multiply and antipode."""
    A = h.algebra
    acc = KnElement(A, {})
    for (k1, k2), v in closed_form_comultiply(h).coeffs.items():
        left = KnElement(A, {k1: v})
        right = antipode(KnElement(A, {k2: A.scalar(1)}))
        acc = acc + multiply(multiply(left, z), right)
    return acc


# -- braidings -------------------------------------------------------------------------


def accumulated_braiding(Mv: YDModule, Mw: YDModule) -> CycMatrix:
    """The matrix of c(v (x) w) = v_{-1}.w (x) v_0 from Mv (x) Mw to
    Mw (x) Mv in the bases of `knyd.ydmod.braiding`, with every term
    summed into its cell: each coefficient of a coaction cell of Mv times
    each entry of its key's action on Mw (`YDModule.action_of`)."""
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


# -- YD maps ---------------------------------------------------------------------------


def is_yd_map(S: YDModule, M: YDModule, T: CycMatrix) -> bool:
    """Whether the dm x ds matrix T intertwines actions and coactions of
    the comodules S and M: T is zero off the unknowns of `_hom_system`
    (`_unknowns`) and satisfies each of its rows, the conditions at x^ and
    at the four generators of `knyd.ydmod._GENERATORS`."""
    if T.rows != M.dim or T.cols != S.dim:
        raise ValueError("shape mismatch")
    offsets, pos, _ = _unknowns(S, M)
    system = _hom_system(S, M)[1]
    zero = CycNum.zero(S.algebra.n)
    value = [zero] * system.cols
    for k, row in T.data.items():
        for j, v in row.items():
            if v.is_zero():
                continue
            if M.weights[k] != S.weights[j]:
                return False
            value[offsets[j] + pos[k]] = v
    return all(sum((v * value[c] for c, v in row.items()), zero).is_zero()
               for row in system.data.values())


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


# -- linear algebra --------------------------------------------------------------------


def dense(vec: dict, size: int) -> list:
    """The sparse vector vec {column: entry}, as `kernel_basis` returns
    it, as a list of size entries: the zeros are CycNum over Q(xi_n) and
    0 over F_p."""
    sample = next(iter(vec.values()))
    zero = CycNum.zero(sample.n) if isinstance(sample, CycNum) else 0
    return [vec.get(c, zero) for c in range(size)]


def transpose(M: CycMatrix) -> CycMatrix:
    out = CycMatrix(M.n, M.cols, M.rows)
    for r, row in M.data.items():
        for c, v in row.items():
            out.data.setdefault(c, {})[r] = v
    return out


def copy_matrix(M: CycMatrix) -> CycMatrix:
    return CycMatrix(M.n, M.rows, M.cols,
                     {r: dict(row) for r, row in M.data.items()}, M.prime)


def rref(M: CycMatrix) -> tuple[list[dict], list[int]]:
    """Reduced row echelon form of M over its field, Q(xi_n) or F_p, by
    plain column-by-column elimination, pivoting on the first nonzero row;
    returns (its nonzero rows as sparse dicts, their pivot columns)."""
    p = M.prime
    if p is None:
        zero, is_zero = CycNum.zero(M.n), CycNum.is_zero
        inverse, norm = CycNum.inv, lambda x: x
    else:
        zero, is_zero = 0, lambda x: x == 0
        inverse, norm = lambda x: pow(x, -1, p), lambda x: x % p
    work = [dict(M.data.get(r, {})) for r in range(M.rows)]
    pivots: list[int] = []
    rank = 0
    for c in range(M.cols):
        pivot_row = next((r for r in range(rank, M.rows) if c in work[r]),
                         None)
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        inv = inverse(work[rank][c])
        prow = work[rank] = {k: norm(v * inv) for k, v in work[rank].items()}
        for r in range(M.rows):
            factor = work[r].get(c) if r != rank else None
            if factor is None:
                continue
            row = work[r]
            for k, v in prow.items():
                s = norm(row.get(k, zero) - factor * v)
                if is_zero(s):
                    row.pop(k, None)
                else:
                    row[k] = s
        pivots.append(c)
        rank += 1
    return work[:rank], pivots


def rref_kernel(M: CycMatrix) -> list[dict]:
    """The reduced echelon basis of the right kernel of M, from `rref`
    alone: the vectors e_f - sum_i rows[i][f] e_{pivots[i]}, one for each
    free column f, put in reduced echelon form by `rref` once more."""
    rows, pivots = rref(M)
    one = CycNum.one(M.n) if M.prime is None else 1
    free = [f for f in range(M.cols) if f not in pivots]
    basis = {}
    for i, f in enumerate(free):
        vec = basis[i] = {f: one}
        for row, p in zip(rows, pivots):
            if f in row:
                vec[p] = -row[f] if M.prime is None else M.prime - row[f]
    return rref(CycMatrix(M.n, len(free), M.cols, basis, M.prime))[0]


def solve(M: CycMatrix, b: list):
    """Solve M x = b through the reduced echelon basis `_reduced` gives of
    [M | b], so that the tests of this solver also check the package's
    elimination against `rref`.
    Returns (particular, kernel_basis) or None if the system is
    inconsistent."""
    if len(b) != M.rows:
        raise ValueError("dimension mismatch")
    aug = CycMatrix(M.n, M.rows, M.cols + 1,
                    {r: dict(row) for r, row in M.data.items()})
    for r, v in enumerate(b):
        aug.set(r, M.cols, v)
    red = _reduced(aug)
    if M.cols in red:   # a row 0 = b_r with b_r nonzero
        return None
    zero = CycNum.zero(M.n)
    x = [zero] * M.cols
    for p, row in red.items():
        x[p] = row.get(M.cols, zero)
    return x, M.kernel_basis()


# -- racks and solutions ---------------------------------------------------------------


def flip_solution(size: int) -> BraidedSet:
    """s(x,y) = (y,x)."""
    return BraidedSet.from_map(size, lambda x, y: (y, x))


def trivial_rack(size: int) -> Rack:
    return Rack([[y for y in range(size)] for _ in range(size)])


def constant_cocycle(size: int, value: CycNum) -> CocycleTable:
    return CocycleTable([[value] * size for _ in range(size)])
