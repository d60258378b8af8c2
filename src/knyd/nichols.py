"""Nichols-algebra engine over Q(xi_n), with graded dimensions over F_p.

A BraidedSpace is a finite-dimensional vector space with an invertible
solution c of the braid equation, stored as a d^2 x d^2 matrix in the
row-major tensor basis (the index of e_a (x) e_b is a*d + b; this ordering
is fixed once and used by every kernel basis and JSON report).

The k-th quantum symmetrizer QS_k = sum over the symmetric group of the
braid-group representation applied to the Matsumoto lift satisfies the
length-additive coset factorization

    QS_k = T_k (QS_{k-1} (x) id),
    T_k = id + c_{k-1} + c_{k-2}c_{k-1} + ... + c_1 c_2 ... c_{k-1},

which agrees with the naive |S_k|-term sum (the test oracle in
tests/oracles.py).  `_shuffle` applies T_k to a matrix with d^k rows by
index arithmetic on its rows, with no strand matrix: when c has one root of
unity in each column, every term c_j ... c_{k-1} of T_k sends e_r to a root
times one basis vector (`_shuffle_terms`).  `quantum_symmetrizer` runs the
recursion through it on full d^k x d^k matrices.

The k-th graded component of the Nichols algebra has dimension rank(QS_k),
and the degree-k relations are ker(QS_k).  `graded_dims` never forms QS_k:
it carries the rank factorization QS_k = C_k R_k, with R_k the reduced
echelon basis of the row space of QS_k keyed by each row's last column (its
pivot, where it is 1 and every other row 0), P_k its pivot columns and
C_k = QS_k[:, P_k], which has only r_k = rank(QS_k) columns.  Since

    QS_k = T_k (C_{k-1} (x) id) (R_{k-1} (x) id) = M_k (R_{k-1} (x) id)

with R_{k-1} (x) id of full row rank, rank(QS_k) = rank(M_k), a matrix of
r_{k-1} d columns; R_k = G (R_{k-1} (x) id) for G the reduced echelon basis
of the row space of M_k, keyed the same way and already in reduced form
since R_{k-1} (x) id is, with pivot P_{k-1}[j // d] d + j mod d in row j;
C_k = M_k (R_{k-1} (x) id)[:, P_k]; and ker(QS_k) = ker(R_k), whose reduced
echelon basis `kernel_basis` reads off R_k with no further elimination: for
each column f that is no pivot, e_f minus column f of R_k.

The same loop runs over F_p, p = `modular_prime(n)`, when c is a
permutation matrix with root-of-unity entries: once for each of the phi(n)
embeddings xi -> omega^u of Q(xi_n) into F_p (`cyclotomic.root_images`), on
residue matrices, all in lockstep, one degree at a time.  For each degree
R_k is lifted to Q(xi_n) from its phi(n) images and its kernel certified
(`_kernel_lift`):

  * the embeddings must agree on r_k and P_k, so that their R_k line up;
  * each entry is lifted by `cyclotomic.from_images`: the Vandermonde
    inverse gives its power-basis coefficients mod p, and rational
    reconstruction a fraction for each;
  * QS_k is a sum of k! products of the c_j, each a permutation matrix with
    root entries.  Take a kernel vector v of the lifted R_k, with common
    denominator D.  Each power-basis coefficient of QS_k D v is then at most
    kappa(n) k! ||D v|| in size (`cyclotomic.root_growth`; ||.|| the
    largest coefficient).  It is also a multiple of p, since QS_k D v
    vanishes under every embedding, and the embeddings together determine
    the power-basis coefficients mod p.  So if kappa(n) k! ||D v|| < p,
    then QS_k v = 0 exactly;
  * rank mod p never exceeds the rank over Q(xi_n), so the d^k - r_k kernel
    vectors, independent and in ker QS_k, span all of it: rank(QS_k) = r_k,
    and the lifted R_k has the kernel of the loop over Q(xi_n), whose
    reduced echelon basis is unique.

If any step fails, or a degree over F_p would exceed the memory budget,
the whole loop runs again over Q(xi_n); either way the report is the same.
"""

from __future__ import annotations

import os
import resource
import sys
from dataclasses import dataclass
from math import factorial, lcm

from .cyclotomic import (CycNum, from_images, modular_prime, root,
                         root_exponents, root_growth, root_images)
from .linalg import CycMatrix, _reduced


class MemoryBudgetError(Exception):
    """Raised when the next step of a symmetrizer or graded-dimension
    computation would take the process past the configured memory bound
    (env var KN_MEMORY_MB, default 1024)."""


def _memory_budget_bytes() -> int:
    text = os.environ.get("KN_MEMORY_MB", "1024")
    try:
        mb = int(text)
    except ValueError:
        mb = 0
    if mb <= 0:
        raise ValueError("invalid KN_MEMORY_MB: must be a positive integer "
                         "(megabytes), got %r" % text)
    return mb * 1024 * 1024


def _process_bytes() -> int:
    """The peak resident set size of this process so far, in bytes: what
    it already holds (getrusage counts KiB, bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else 1024 * peak


def _check_budget(need: int, what: str):
    """MemoryBudgetError unless the process, holding need more bytes,
    stays within KN_MEMORY_MB."""
    if _process_bytes() + need > _memory_budget_bytes():
        raise MemoryBudgetError(
            "%s exceeds the memory budget (set KN_MEMORY_MB to raise it)"
            % what)


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


def _monomial_columns(c: CycMatrix):
    """For c with exactly one nonzero entry in each column, every one a
    root of unity: the list of (row, exponent in Z/2n) per column (see
    `root_exponents`).  None for any other c."""
    roots = root_exponents(c.n)
    cols = [None] * c.cols
    for r, row in c.data.items():
        for j, v in row.items():
            e = roots.get(v)
            if e is None or cols[j] is not None:
                return None
            cols[j] = (r, e)
    return None if None in cols else cols


def check_braid_equation(B: BraidedSpace) -> bool:
    """(c (x) id)(id (x) c)(c (x) id) = (id (x) c)(c (x) id)(id (x) c)
    as d^3 x d^3 matrices.

    When c is monomial with root-of-unity entries (`_monomial_columns`), so
    is every product of c1 = c (x) id and c2 = id (x) c, and both sides are
    compared on each basis triple as a (target index, exponent mod 2n)
    pair: exact integer arithmetic in the roots of unity.  Any other c
    takes the route through kron and matrix products."""
    cols = _monomial_columns(B.c)
    if cols is not None:
        d, N = B.dim, 2 * B.n
        dd = d * d
        c1 = [(r * d + z, e) for r, e in cols for z in range(d)]
        c2 = [(x * dd + r, e) for x in range(d) for r, e in cols]
        for t in range(dd * d):
            u, e1 = c1[t]
            u, e2 = c2[u]
            u, e3 = c1[u]
            v, f1 = c2[t]
            v, f2 = c1[v]
            v, f3 = c2[v]
            if u != v or (e1 + e2 + e3 - f1 - f2 - f3) % N:
                return False
        return True
    ident = CycMatrix.identity(B.n, B.dim)
    c1 = B.c.kron(ident)
    c2 = ident.kron(B.c)
    return c1 @ c2 @ c1 == c2 @ c1 @ c2


# -- quantum symmetrizers -----------------------------------------------------------


def _shuffle(B: BraidedSpace, k: int, X: CycMatrix, terms=None,
             roots=None) -> CycMatrix:
    """T_k X for the shuffle factor

        T_k = id + c_{k-1} + c_{k-2}c_{k-1} + ... + c_1 c_2 ... c_{k-1}

    and a matrix X with d^k rows.  When c has one root-of-unity entry in
    each column, T_k X is formed from the terms of `_shuffle_terms`
    (computed when not given) over the field of X, with roots[e] the image
    there of the root of exponent e (by default the roots themselves, over
    Q(xi_n)).  Any other c is applied over Q(xi_n) one c_j at a time by
    index arithmetic on the rows: row (a, x, b), with x the index of the
    two strands, gets sum_y c[x][y] * row (a, y, b)."""
    d = B.dim
    if terms is None:
        terms = _shuffle_terms(B, k)
    if terms is not None:
        if roots is None:
            roots = [root(B.n, e) for e in range(2 * B.n)]
        sums = {r: dict(row) for r, row in X.data.items()}
        for targets, exponents in terms:
            for r, row in X.data.items():
                v = roots[exponents[r]]
                acc = sums.get(targets[r])
                if acc is None:
                    sums[targets[r]] = {col: v * w for col, w in row.items()}
                    continue
                for col, w in row.items():
                    p = v * w
                    s = acc.get(col)
                    acc[col] = p if s is None else s + p
        return CycMatrix.from_sums(X.n, X.rows, X.cols, sums, X.prime)
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
        term = CycMatrix.from_sums(X.n, X.rows, X.cols, new).data
        out = out + CycMatrix(X.n, X.rows, X.cols, term)
    return out


def _shuffle_terms(B: BraidedSpace, k: int):
    """For c with one root-of-unity entry in each column, the terms
    c_j c_{j+1} ... c_{k-1} e_r = root(e) e_t of T_k e_r, j = k-1 .. 1, each
    as the lists (t, e) over r: each is the last one moved by c_j, which
    takes the strands j, j+1 from index y to the row x of c's entry in
    column y, adding its exponent mod 2n.  None for any other c."""
    cols = _monomial_columns(B.c)
    if cols is None:
        return None
    d, size = B.dim, B.dim ** k
    targets, exponents = range(size), [0] * size
    terms = []
    for j in range(k - 1, 0, -1):
        inner = d ** (k - 1 - j)   # the strands after j + 1
        step = [(a + x * inner + b, f) for a in range(0, size, d * d * inner)
                for x, f in cols for b in range(inner)]
        exponents = [(e + step[t][1]) % (2 * B.n)
                     for t, e in zip(targets, exponents)]
        targets = [step[t][0] for t in targets]
        terms.append((targets, exponents))
    return terms


def quantum_symmetrizer(B: BraidedSpace, k: int) -> CycMatrix:
    """QS_k as a d^k x d^k matrix, by the recursive coset factorization
    QS_k = T_k (QS_{k-1} (x) id)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    # a sparse CycNum entry costs on the order of 200 bytes
    _check_budget(200 * B.dim ** k * min(factorial(k), B.dim ** k),
                  "QS_%d on a %d-dimensional space" % (k, B.dim))
    ident = CycMatrix.identity(B.n, B.dim)
    qs = ident
    for deg in range(2, k + 1):
        qs = _shuffle(B, deg, qs.kron(ident))
    return qs


# -- graded dimensions ---------------------------------------------------------------


# What a degree of `graded_dims` holds, measured with tracemalloc.  Over
# Q(xi_n), at n = 3: over degrees 4-7 of W(-1,1,0) and 4-6 of
# U(0,1,0,2) + U(0,1,2,1), M_k and R_k took 9-30 bytes per cell of their
# shapes below and the dense kernel basis about 8 per entry; whole degrees
# of W(-1,1,0) to 6 and U(1,0,1,0) to 9 took at most 0.45 of the estimate.
# Over F_p, in the last degree of W(-1,1,0) at n = 3 to degree 6 and at
# n = 9 to 3, U(1,0,1,0) at n = 3 to 9 and at n = 15 to 6,
# U(0,1,0,2) + U(0,1,2,1) to 5 and W(-1,0,0) at n = 5 to 4 and at n = 7
# to 3: each lockstep field took
# 1-8 bytes per cell (up to 28 in the small ones, inside the fixed cost),
# the lifted R_k at most 8 per cell of M_k's shape and the kernel basis at
# most 9 per entry; whole degrees took at most 0.63 of the estimate.  The
# shuffle terms take at most 64 bytes per entry, and small degrees add up
# to about 60 KB whatever their shapes.
_DEGREE_BYTES = 64 * 1024
_TERM_BYTES = 64
_CELL_BYTES = 40
_RESIDUE_CELL_BYTES = 16
_KERNEL_CELL_BYTES = 12


def _degree_bytes(d: int, k: int, r_prev: int, relations: bool,
                  fields: int = 0) -> int:
    """What degree k of `graded_dims` holds, in bytes: a fixed cost, the
    k - 1 shuffle terms of d^k entries, M_k, with d^k rows and r_{k-1} d
    columns, and R_k, with at most r_{k-1} d rows of d^k columns, over
    Q(xi_n), or over each of `fields` F_p in lockstep and R_k lifted to
    Q(xi_n); with relations also the kernel basis of QS_k, at most d^k
    dense vectors of d^k entries."""
    shape = d ** (k + 1) * r_prev   # M_k's, and the most R_k can hold
    if fields:
        cell_bytes = 2 * _RESIDUE_CELL_BYTES * fields + _CELL_BYTES
    else:
        cell_bytes = 2 * _CELL_BYTES
    kernel = d ** (2 * k) if relations else 0
    return (_DEGREE_BYTES + _TERM_BYTES * (k - 1) * d ** k
            + cell_bytes * shape + _KERNEL_CELL_BYTES * kernel)


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
    QS_d = C_d R_d of the module docstring, with one echelon pass per
    degree, on M_d; stops early once a graded component vanishes (Nichols
    algebras are generated in degree 1, so all later components vanish
    too) and reports status "finite"; otherwise "infinite" when a diagonal
    fixed vector of c certifies an infinite dimension, else
    "undetermined".

    When c is a permutation matrix with root-of-unity entries, the degree
    loop runs over F_p, in lockstep for every embedding of Q(xi_n) into
    F_p, and each degree's R_k is lifted to Q(xi_n) with its kernel
    certified: the embeddings agree on the rank and the pivots, and each
    kernel vector v, with denominator D, has kappa(n) k! ||D v|| < p, so
    QS_k v, a multiple of p no larger than that, is 0 (module docstring).
    Since a rank mod p is at most the rank over Q(xi_n), these vectors span
    the whole kernel, and dims[k] is the rank mod p.  If any degree fails,
    or would exceed the memory budget over F_p, the loop runs again over
    Q(xi_n); both routes give the same report."""
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2")
    found = None
    fields = _embeddings(B)
    if fields is not None:
        found = _degrees(B, fields, cutoff, want_relations, _kernel_lift(B))
    if found is None:
        found = _degrees(B, [(None, None)], cutoff, want_relations)
    dims, relations = found
    d = B.dim
    if dims[-1] == 0:
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


class _Factorization:
    """The rank factorization QS_k = C_k R_k of the module docstring, with
    the pivots P_k of R_k, advanced one degree at a time: over Q(xi_n), or
    over F_p for prime p, with roots the images of the 2n roots of unity
    under one embedding (`cyclotomic.root_images`)."""

    def __init__(self, B: BraidedSpace, prime=None, roots=None):
        self.B, self.roots = B, roots
        self.ident = CycMatrix.identity(B.n, B.dim, prime)
        self.C = self.R = self.ident   # QS_1 = C_1 R_1 with C_1 = R_1 = id
        self.pivots = list(range(B.dim))
        self.rank = B.dim

    def advance(self, deg: int, last: bool, terms):
        """From degree deg - 1 to deg, with the `_shuffle_terms` of deg;
        with last, C_deg is not formed."""
        B, ident, d, prime = self.B, self.ident, self.B.dim, self.ident.prime
        M = _shuffle(B, deg, self.C.kron(ident), terms, self.roots)
        red = _reduced(M, last=True)
        G_pivots = sorted(red)
        self.rank = rank = len(G_pivots)
        R_id = self.R.kron(ident)
        # row j of R_{k-1} (x) id has its last nonzero entry, a 1, at
        # pivots[j // d] d + j mod d and is the only row nonzero there, so
        # G R_id is already reduced, with G's pivots mapped through that list
        self.R = CycMatrix(B.n, rank, R_id.rows,
                           {i: red[p] for i, p in enumerate(G_pivots)},
                           prime) @ R_id
        self.pivots = [self.pivots[p // d] * d + p % d for p in G_pivots]
        if rank and not last:
            position = {p: i for i, p in enumerate(self.pivots)}
            columns = {}
            for r, row in R_id.data.items():
                kept = {position[c]: v for c, v in row.items()
                        if c in position}
                if kept:
                    columns[r] = kept
            self.C = M @ CycMatrix(B.n, R_id.rows, rank, columns, prime)


def _degrees(B: BraidedSpace, fields: list, cutoff: int,
             want_relations: bool, lift=None):
    """The degree loop of `graded_dims`: one `_Factorization` per field
    (prime, roots), advanced in lockstep; the relations are ker R_k.  Over
    Q(xi_n), fields is [(None, None)]; over F_p, they are the embeddings of
    `_embeddings`, and lift(deg, factorizations) gives R_k over Q(xi_n), or
    None when it cannot certify its kernel.  That ends the loop with None,
    and so does a degree past the memory budget over F_p, whose estimate
    exceeds the one over Q(xi_n); over Q(xi_n) that raises
    MemoryBudgetError.  Returns (dims, relations) otherwise."""
    d = B.dim
    states = [_Factorization(B, prime, roots) for prime, roots in fields]
    dims, relations = [1, d], {}
    lockstep = len(states) if lift is not None else 0
    for deg in range(2, cutoff + 1):
        need = _degree_bytes(d, deg, dims[-1], want_relations, lockstep)
        try:
            _check_budget(need, "degree %d of the Nichols algebra of a "
                                "%d-dimensional space" % (deg, d))
        except MemoryBudgetError:
            if lift is None:
                raise
            return None
        terms = _shuffle_terms(B, deg)
        for state in states:
            state.advance(deg, deg == cutoff, terms)
        R = states[0].R if lift is None else lift(deg, states)
        if R is None:
            return None
        if want_relations:
            relations[deg] = R.kernel_basis()
        dims.append(states[0].rank)
        if dims[-1] == 0:
            break
    return dims, relations


def _embeddings(B: BraidedSpace):
    """The fields (p, roots) of B's embeddings into F_p, p =
    `modular_prime(n)`, roots the images of the 2n roots of unity under
    each (`root_images`); None unless c is a permutation matrix with
    root-of-unity entries, the braidings whose kernels `_kernel_lift` can
    certify."""
    cols = _monomial_columns(B.c)
    if cols is None or len({r for r, _ in cols}) < len(cols):
        return None
    p = modular_prime(B.n)
    return [(p, roots) for roots in root_images(B.n, p)]


def _kernel_lift(B: BraidedSpace):
    """lift(deg, factorizations) for `_degrees` over the fields of
    `_embeddings`: R_deg over Q(xi_n), lifted from its images over F_p
    entry by entry (`cyclotomic.from_images`, once per tuple of images),
    with every vector of the kernel basis it gives certified as in the
    module docstring; None when that fails."""
    n, p = B.n, modular_prime(B.n)
    lifted: dict = {}
    missing = object()

    def lift(deg, states):
        first = states[0]
        growth_k = root_growth(n) * factorial(deg)
        if growth_k >= p or any(s.rank != first.rank or
                                s.pivots != first.pivots for s in states):
            return None
        rows, columns = {}, {}
        for i in range(first.rank):
            images = [s.R.data[i] for s in states]
            row = rows[i] = {}
            for c in sorted(set().union(*images)):
                key = tuple(image.get(c, 0) for image in images)
                x = lifted.get(key, missing)
                if x is missing:
                    x = lifted[key] = from_images(n, p, key)
                if x is None:
                    return None
                row[c] = x
                columns.setdefault(c, []).append(x)
        # the kernel vector of a column f that no row has its pivot in is
        # e_f minus column f of R; D v has integer coefficients for D the
        # common denominator
        for pivot in first.pivots:
            del columns[pivot]
        for xs in columns.values():
            den = lcm(*(x.den for x in xs))
            height = max(den, max(max(map(abs, x.num)) * (den // x.den)
                                  for x in xs))
            if height * growth_k >= p:
                return None
        return CycMatrix(n, first.rank, B.dim ** deg, rows)

    return lift


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


# the largest dimension `square_zero_monomial_space` accepts
_SQUARE_ZERO_BOUND = 6


def square_zero_monomial_space(B: BraidedSpace) -> SquareZeroSpace:
    """Solve QS_2(x (x) x) = 0 as a linear system over the symmetric
    monomials mu_ab; QS_2(x (x) x) = sum mu_ab (QS_2(e_a e_b + e_b e_a))
    for a < b plus the diagonal columns."""
    d = B.dim
    if d > _SQUARE_ZERO_BOUND:
        raise ValueError("dimension %d exceeds the bound %d"
                         % (d, _SQUARE_ZERO_BOUND))
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
