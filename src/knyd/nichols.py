"""Nichols-algebra engine over Q(xi_n).

A BraidedSpace is a finite-dimensional vector space with an invertible
solution c of the braid equation, stored as a d^2 x d^2 matrix in the
row-major tensor basis (the index of e_a (x) e_b is a*d + b; this ordering
is fixed once and used by every kernel basis and JSON report).

The k-th quantum symmetrizer QS_k = sum over the symmetric group of the
braid-group representation applied to the Matsumoto lift satisfies the
length-additive coset factorization

    QS_k = T_k (QS_{k-1} (x) id),
    T_k = id + c_{k-1} + c_{k-2}c_{k-1} + ... + c_1 c_2 ... c_{k-1},

which agrees with the naive |S_k|-term sum (the naive sum is kept as a test
oracle).  `_shuffle` applies T_k to a matrix with d^k rows by index
arithmetic on its rows, with no strand matrix; `quantum_symmetrizer` runs
the recursion through it on full d^k x d^k matrices.

The k-th graded component of the Nichols algebra has dimension rank(QS_k),
and the degree-k relations are ker(QS_k).  `graded_dims` never forms QS_k:
it carries the rank factorization QS_k = C_k R_k, with R_k the reduced
echelon basis of the row space of QS_k, P_k its pivot columns and
C_k = QS_k[:, P_k], which has only r_k = rank(QS_k) columns.  Since

    QS_k = T_k (C_{k-1} (x) id) (R_{k-1} (x) id) = M_k (R_{k-1} (x) id)

with R_{k-1} (x) id of full row rank, rank(QS_k) = rank(M_k), a matrix of
r_{k-1} d columns; R_k is the reduced echelon form of G (R_{k-1} (x) id) for
G the reduced echelon basis of the row space of M_k;
C_k = M_k (R_{k-1} (x) id)[:, P_k]; and ker(QS_k) = ker(R_k).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import permutations

from .cyclotomic import CycNum, root_order
from .linalg import CycMatrix


class MemoryBudgetError(Exception):
    """Raised when a symmetrizer would exceed the configured memory bound
    (env var KN_MEMORY_MB, default 1024)."""


def _memory_budget_cells() -> int:
    text = os.environ.get("KN_MEMORY_MB", "1024")
    try:
        mb = int(text)
    except ValueError:
        mb = 0
    if mb <= 0:
        raise ValueError("invalid KN_MEMORY_MB: must be a positive integer "
                         "(megabytes), got %r" % text)
    # a sparse CycNum entry costs on the order of 200 bytes
    return mb * 1024 * 1024 // 200


# -- braided spaces ---------------------------------------------------------------


class BraidedSpace:
    """dim-dimensional space with braiding matrix c (d^2 x d^2)."""

    def __init__(self, dim: int, c: CycMatrix, name: str | None = None):
        if c.rows != dim * dim or c.cols != dim * dim:
            raise ValueError("braiding must be a %d x %d matrix" %
                             (dim * dim, dim * dim))
        self.dim = dim
        self.n = c.n
        self.c = c
        self.name = name

    def __repr__(self):
        return "BraidedSpace(%s, dim %d over Q(xi_%d))" % (
            self.name or "?", self.dim, self.n)


def check_braid_equation(B: BraidedSpace) -> bool:
    """(c (x) id)(id (x) c)(c (x) id) = (id (x) c)(c (x) id)(id (x) c)
    as d^3 x d^3 matrices."""
    ident = CycMatrix.identity(B.n, B.dim)
    c1 = B.c.kron(ident)
    c2 = ident.kron(B.c)
    return c1 @ c2 @ c1 == c2 @ c1 @ c2


# -- braid words and the Matsumoto lift --------------------------------------------------


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


def _strand_matrix(B: BraidedSpace, i: int, k: int) -> CycMatrix:
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
        out = out @ _strand_matrix(B, i, k)
    return out


# -- quantum symmetrizers -----------------------------------------------------------


def _check_budget(d: int, k: int):
    if d ** k * min(_factorial(k), d ** k) > _memory_budget_cells():
        raise MemoryBudgetError(
            "QS_%d on a %d-dimensional space exceeds the memory budget "
            "(set KN_MEMORY_MB to raise it)" % (k, d))


def _shuffle(B: BraidedSpace, k: int, X: CycMatrix) -> CycMatrix:
    """T_k X for the shuffle factor

        T_k = id + c_{k-1} + c_{k-2}c_{k-1} + ... + c_1 c_2 ... c_{k-1}

    and a matrix X with d^k rows.  c_j, acting on strands j and j+1, is
    applied by index arithmetic on the rows: row (a, x, b), with x the index
    of the two strands, gets sum_y c[x][y] * row (a, y, b)."""
    d = B.dim
    c_cols: dict[int, list] = {}
    for x, row in B.c.data.items():
        for y, v in row.items():
            c_cols.setdefault(y, []).append((x, v))
    out = X
    term = X.data
    for j in range(k - 1, 0, -1):
        inner = d ** (k - 1 - j)   # the strands after j + 1
        outer = d * d * inner
        new: dict[int, dict] = {}
        for r, row in term.items():
            a, rest = divmod(r, outer)
            y, b = divmod(rest, inner)
            for x, cv in c_cols.get(y, ()):
                orow = new.setdefault(a * outer + x * inner + b, {})
                for col, v in row.items():
                    p = cv * v
                    s = orow.get(col)
                    orow[col] = p if s is None else s + p
        term = {}
        for r, row in new.items():
            row = {col: v for col, v in row.items() if not v.is_zero()}
            if row:
                term[r] = row
        out = out + CycMatrix(X.n, X.rows, X.cols, term)
    return out


def quantum_symmetrizer(B: BraidedSpace, k: int) -> CycMatrix:
    """QS_k as a d^k x d^k matrix, by the recursive coset factorization
    QS_k = T_k (QS_{k-1} (x) id)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_budget(B.dim, k)
    ident = CycMatrix.identity(B.n, B.dim)
    qs = ident
    for deg in range(2, k + 1):
        qs = _shuffle(B, deg, qs.kron(ident))
    return qs


def naive_quantum_symmetrizer(B: BraidedSpace, k: int) -> CycMatrix:
    """Test oracle: the literal sum over all k! permutations."""
    out = CycMatrix.zero(B.n, B.dim ** k, B.dim ** k)
    for sigma in permutations(range(1, k + 1)):
        out = out + braid_representation(B, matsumoto_lift(sigma))
    return out


def _factorial(k: int) -> int:
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


# -- graded dimensions ---------------------------------------------------------------


@dataclass
class GradedReport:
    dims: list            # dims[d] = dim of the degree-d component, d >= 0
    relations: dict       # degree -> kernel basis (lists of CycNum)
    status: str           # "finite" | "infinite" | "undetermined"
    cutoff: int
    total: int | None = None
    top_degree: int | None = None
    witness: list | None = None   # fixed vector of c, when one exists
    note: str | None = None

    def hilbert(self):
        """Coefficient list of the Hilbert polynomial (finite case only)."""
        if self.status != "finite":
            return None
        top = self.top_degree
        return list(self.dims[:top + 1])

    def to_json(self):
        return {
            "dims": list(self.dims),
            "total": self.total,
            "top_degree": self.top_degree,
            "relations": {str(deg): [[v.to_json() for v in vec]
                                     for vec in basis]
                          for deg, basis in self.relations.items()},
            "status": self.status,
            "witness": ([v.to_json() for v in self.witness]
                        if self.witness is not None else None),
        }


def graded_dims(B: BraidedSpace, cutoff: int,
                want_relations: bool = True) -> GradedReport:
    """dims[d] = rank(QS_d) for d = 0.., and relations[d] the reduced
    echelon basis of ker(QS_d), both read off the rank factorization
    QS_d = C_d R_d of the module docstring; stops early once a graded
    component vanishes (Nichols algebras are generated in degree 1, so all
    later components vanish too) and reports status "finite"; otherwise
    "infinite" when a diagonal fixed vector of c certifies an infinite
    dimension, else "undetermined"."""
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2")
    d = B.dim
    dims = [1, d]
    relations: dict[int, list] = {}
    finite = False
    # QS_1 = C_1 R_1 with C_1 = R_1 = id
    ident = CycMatrix.identity(B.n, d)
    C = R = ident
    for deg in range(2, cutoff + 1):
        _check_budget(d, deg)
        M = _shuffle(B, deg, C.kron(ident))
        G, _ = M.row_echelon()
        rank = len(G)
        R_id = R.kron(ident)
        red, pivots = (CycMatrix(B.n, rank, R_id.rows, dict(enumerate(G)))
                       @ R_id).row_echelon()
        R = CycMatrix(B.n, rank, d ** deg, dict(enumerate(red)))
        if want_relations:
            relations[deg] = R.kernel_basis()
        dims.append(rank)
        if rank == 0:
            finite = True
            break
        if deg < cutoff:
            position = {p: i for i, p in enumerate(pivots)}
            columns = {}
            for r, row in R_id.data.items():
                kept = {position[c]: v for c, v in row.items()
                        if c in position}
                if kept:
                    columns[r] = kept
            C = M @ CycMatrix(B.n, R_id.rows, rank, columns)
    if finite:
        top = max(i for i, v in enumerate(dims) if v)
        return GradedReport(dims=dims, relations=relations, status="finite",
                            cutoff=cutoff, total=sum(dims), top_degree=top)
    witness = infinite_precheck(B)
    if witness is not None:
        note = "fixed vector of the braiding on the diagonal"
        if d == 1:
            note = "symmetric line: the Nichols algebra is a polynomial ring"
        return GradedReport(dims=dims, relations=relations, status="infinite",
                            cutoff=cutoff, witness=witness, note=note)
    return GradedReport(dims=dims, relations=relations, status="undetermined",
                        cutoff=cutoff)


# -- infinite-dimension pre-check ------------------------------------------------------


def infinite_precheck(B: BraidedSpace):
    """A vector v with c(v (x) v) = v (x) v forces an infinite-dimensional
    Nichols algebra.  Searches the basis diagonal (which covers diagonal
    braidings with some q_ii = 1); returns the witness coefficient vector,
    or None."""
    d = B.dim
    one = CycNum.one(B.n)
    zero = CycNum.zero(B.n)
    for a in range(d):
        col = a * d + a
        entries = {r: v for r, v in
                   ((r, row.get(col)) for r, row in B.c.data.items())
                   if v is not None}
        if entries == {col: one}:
            return [one if b == a else zero for b in range(d)]
    return None


# -- diagonal braidings and Dynkin data -------------------------------------------------


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


def a2_criterion(label) -> dict:
    """Finiteness criterion for the Nichols algebra of a simple U(i,j,m,t).

    The braiding is diagonal with q-matrix exponents

        q11 = q22 = X = mi + tj,     q12 q21 = 2Y,  Y = ti + mj + i^2 - j^2,

    all in Z_n.  The algebra is finite-dimensional iff X != 0 and either

      * X + 2Y = 0  (Cartan type A2; dimension N^3), or
      * Y = 0       (quantum linear space, the two vertices disconnect;
                     dimension N^2),

    where N = ord(xi^X).  Both exponents X and Y are invariant under the
    label relabeling (i,j,m,t) -> (j,i,t+2i,m-2j) that swaps the two basis
    vectors, so the verdict does not depend on the chosen representative."""
    if label.kind != "U":
        raise ValueError("a2_criterion expects a U label")
    n = label.n
    i, j, m, t = label.data
    x_exp = (m * i + t * j) % n
    y_exp = (t * i + m * j + i * i - j * j) % n
    cartan = x_exp != 0 and (x_exp + 2 * y_exp) % n == 0
    qls = x_exp != 0 and y_exp == 0
    finite = cartan or qls
    N = None
    total = None
    if finite:
        from math import gcd
        N = n // gcd(x_exp, n)
        total = N ** 3 if cartan else N ** 2
    kind = "cartan-A2" if cartan else ("quantum-linear-space" if qls else None)
    return {"label": str(label), "finite": finite, "N": N, "kind": kind,
            "predicted_total": total}


def sum_criterion(labels) -> dict:
    """Theorem criterion for a direct sum of simple U modules: finite iff
    (a) each label passes a2_criterion and (b) for every pair
    ((i,j,m,t), (k,l,p,s)):

        0 = mk + tl + pi + sj   and   0 = pj + si + tk + 2ik + ml - 2jl

    in Z_n.  When finite, the dimension is the product of the N^3."""
    per_label = [a2_criterion(lab) for lab in labels]
    n = labels[0].n if labels else None
    per_pair = []
    for x in range(len(labels)):
        for y in range(x + 1, len(labels)):
            (i, j, m, t) = labels[x].data
            (k, l, p, s) = labels[y].data
            c1 = (m * k + t * l + p * i + s * j) % n == 0
            c2 = (p * j + s * i + t * k + 2 * i * k + m * l - 2 * j * l) % n == 0
            per_pair.append({"pair": [str(labels[x]), str(labels[y])],
                             "disconnected": c1 and c2,
                             "condition1": c1, "condition2": c2})
    finite = all(r["finite"] for r in per_label) and \
        all(r["disconnected"] for r in per_pair)
    total = None
    if finite:
        total = 1
        for r in per_label:
            total *= r["predicted_total"]
    return {"finite": finite, "per_label": per_label, "per_pair": per_pair,
            "predicted_total": total}


# -- square-zero locus -----------------------------------------------------------------


def is_square_zero(B: BraidedSpace, v: list) -> bool:
    """True iff QS_2(v (x) v) = 0, i.e. v^2 = 0 in the Nichols algebra."""
    d = B.dim
    if len(v) != d:
        raise ValueError("vector length mismatch")
    qs2 = quantum_symmetrizer(B, 2)
    vv = [v[a] * v[b] for a in range(d) for b in range(d)]
    return all(x.is_zero() for x in qs2.apply(vv))


@dataclass
class SquareZeroSpace:
    """The linear conditions QS_2(x (x) x) = 0 rewritten over the
    d(d+1)/2 symmetric monomials mu_ab = lambda_a lambda_b (a <= b)."""
    pairs: list          # ordered list of (a, b), a <= b
    kernel: list         # reduced-echelon basis of the solution space
    forced_zero: list    # pairs whose coordinate vanishes on the space

    def contains_profile(self, v: list) -> bool:
        """Whether the monomial profile of the degree-1 vector v lies in
        the solution space (equivalent to QS_2(v (x) v) = 0)."""
        if not v:
            return False
        n = v[0].n
        profile = [v[a] * v[b] for (a, b) in self.pairs]
        rows = {i: {c: x for c, x in enumerate(vec) if not x.is_zero()}
                for i, vec in enumerate(self.kernel)}
        mat = CycMatrix(n, len(self.kernel), len(self.pairs), rows)
        base_rank = mat.rank()
        extra = {c: x for c, x in enumerate(profile) if not x.is_zero()}
        if not extra:
            return True
        rows2 = dict(rows)
        rows2[len(self.kernel)] = extra
        mat2 = CycMatrix(n, len(self.kernel) + 1, len(self.pairs), rows2)
        return mat2.rank() == base_rank

    def forces_axis(self):
        """If mu_bb is forced to zero for every index b except one index a,
        then lambda_b^2 = 0 forces lambda_b = 0 for all b != a, so every
        square-zero vector lies on the axis a; returns that a, or None."""
        forced = set(self.forced_zero)
        dim = max(b for (_, b) in self.pairs) + 1 if self.pairs else 0
        free_axes = [a for a in range(dim) if (a, a) not in forced]
        if len(free_axes) == 1:
            return free_axes[0]
        return None


def square_zero_monomial_space(B: BraidedSpace, bound: int = 6
                               ) -> SquareZeroSpace:
    """Solve QS_2(x (x) x) = 0 as a linear system over the symmetric
    monomials mu_ab; QS_2(x (x) x) = sum mu_ab (QS_2(e_a e_b + e_b e_a))
    for a < b plus the diagonal columns."""
    d = B.dim
    if d > bound:
        raise ValueError("dimension %d exceeds the bound %d" % (d, bound))
    qs2 = quantum_symmetrizer(B, 2)
    pairs = [(a, b) for a in range(d) for b in range(a, d)]
    mat = CycMatrix.zero(B.n, d * d, len(pairs))
    for idx, (a, b) in enumerate(pairs):
        cols = [a * d + b] if a == b else [a * d + b, b * d + a]
        for r, row in qs2.data.items():
            acc = None
            for c_ in cols:
                v = row.get(c_)
                if v is not None:
                    acc = v if acc is None else acc + v
            if acc is not None and not acc.is_zero():
                mat.set(r, idx, acc)
    kernel = mat.kernel_basis()
    forced = []
    for idx, pair in enumerate(pairs):
        if all(vec[idx].is_zero() for vec in kernel):
            forced.append(pair)
    return SquareZeroSpace(pairs=pairs, kernel=kernel, forced_zero=forced)


# -- presentation checking ----------------------------------------------------------------


def tensor_vector(B: BraidedSpace, degree: int, terms) -> list:
    """Build a d^degree coefficient vector from (coeff, index-tuple)
    terms; indices are basis positions, row-major."""
    d = B.dim
    vec = [CycNum.zero(B.n)] * (d ** degree)
    for coeff, idx in terms:
        if len(idx) != degree:
            raise ValueError("index tuple %r has wrong length" % (idx,))
        pos = 0
        for a in idx:
            pos = pos * d + a
        vec[pos] = vec[pos] + coeff
    return vec


def presentation_check(B: BraidedSpace, relations) -> dict:
    """relations: list of (degree, coefficient vector).  Verifies that each
    lies in ker QS_degree, and that the degree-2 relations span ker QS_2
    exactly."""
    by_degree: dict[int, list] = {}
    for deg, vec in relations:
        by_degree.setdefault(deg, []).append(vec)
    in_kernel = True
    for deg, vecs in by_degree.items():
        qs = quantum_symmetrizer(B, deg)
        for vec in vecs:
            if not all(x.is_zero() for x in qs.apply(vec)):
                in_kernel = False
    kernel2 = quantum_symmetrizer(B, 2).kernel_basis()
    deg2 = by_degree.get(2, [])
    rows = {i: {c: x for c, x in enumerate(vec) if not x.is_zero()}
            for i, vec in enumerate(deg2)}
    given_rank = CycMatrix(B.n, len(deg2), B.dim ** 2, rows).rank() \
        if deg2 else 0
    spans = in_kernel and given_rank == len(kernel2)
    return {"all_in_kernel": in_kernel, "kernel2_dim": len(kernel2),
            "degree2_rank": given_rank, "degree2_spans": spans}
