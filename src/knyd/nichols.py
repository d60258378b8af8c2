"""Nichols-algebra engine over Q(xi_n), with graded dimensions over F_p.

A BraidedSpace is a finite-dimensional vector space with an invertible
solution c of the braid equation, stored as a d^2 x d^2 matrix in the
row-major tensor basis (the index of e_a (x) e_b is a*d + b; this ordering
is fixed once and used by every kernel basis and JSON report).

The k-th quantum symmetrizer QS_k = sum over the symmetric group of the
braid-group representation applied to the Matsumoto lift satisfies the
length-additive right coset factorization (Andruskiewitsch-Schneider,
Pointed Hopf algebras, 2002)

    QS_k = (QS_{k-1} (x) id) T*_k,
    T*_k = id + c_{k-1} + c_{k-1}c_{k-2} + ... + c_{k-1}c_{k-2} ... c_1,

which agrees with the naive |S_k|-term sum (the test oracle in
tests/oracles.py).  `_coset_factor` multiplies by T*_k on the right with
no strand matrix: when c is a permutation matrix with root-of-unity
entries, every term sends e_r^T to a root times one e_t^T, found by
following row r through the strand moves; any other c is applied by sparse
right multiplication.  In degree 2, T*_2 = id + c, so QS_2 = id + c
(`_qs2`), which is all the square-zero and presentation checks need.

The k-th graded component of the Nichols algebra has dimension rank(QS_k),
and the degree-k relations are ker(QS_k).  `graded_dims` never forms QS_k:
it carries only R_k, the reduced echelon basis of the row space of QS_k
keyed by each row's last column (its pivot, where it is 1 and every other
row 0), with P_k its pivot columns and r_k = rank(QS_k).  Writing
QS_{k-1} = C_{k-1} R_{k-1}, with C_{k-1} = QS_{k-1}[:, P_{k-1}] of full
column rank,

    QS_k = (C_{k-1} (x) id) N_k,    N_k = (R_{k-1} (x) id) T*_k,

and C_{k-1} (x) id has full column rank, so QS_k and N_k have the same row
space: R_k is the reduced echelon basis of the rows of N_k, a matrix of
only r_{k-1} d rows, and rank(QS_k) = rank(N_k).  N_k is formed as
R_{k-1}.kron(id) @ T, with T holding only the rows of T*_k that the columns
of R_{k-1} (x) id reach.  ker(QS_k) = ker(R_k), whose reduced echelon basis
`kernel_basis` gives after one more echelon pass over R_k, which finds it
already reduced and subtracts nothing: for each column f that is no pivot,
e_f minus column f of R_k, as a sparse vector {column: entry}.

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
    """Raised when the next degree of a graded-dimension computation, or a
    `kn` command sized before it starts, would take the process past the
    configured memory bound (env var KN_MEMORY_MB, default 1024)."""


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


def check_braid_equation(B: BraidedSpace) -> bool:
    """(c (x) id)(id (x) c)(c (x) id) = (id (x) c)(c (x) id)(id (x) c)
    as d^3 x d^3 matrices.

    When c is a permutation matrix with root-of-unity entries
    (`_permutation_rows`), so is every product of c1 = c^T (x) id and
    c2 = id (x) c^T, and both sides are compared for c^T on each basis
    triple as a (target index, exponent mod 2n) pair: exact integer
    arithmetic in the roots of unity.  c^T holds the equation exactly when
    c does, since transposing reverses both triple products.  Any other c
    takes the route through kron and matrix products."""
    perm = _permutation_rows(B.c)
    if perm is not None:
        d, N = B.dim, 2 * B.n
        dd = d * d
        c1 = [((x + s) * d + z, e) for x, (s, e) in enumerate(perm)
              for z in range(d)]
        c2 = [(x * dd + y + s, e) for x in range(d)
              for y, (s, e) in enumerate(perm)]
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


def _permutation_rows(c: CycMatrix):
    """For c a permutation matrix with root-of-unity entries: for each row
    x, the pair (y - x, e) for its one entry, in column y, the root of
    exponent e in Z/2n (see `root_exponents`).  None for any other c: the
    one reader of permutation braidings."""
    roots = root_exponents(c.n)
    entries = [c.data.get(x, {}) for x in range(c.rows)]
    if (any(len(row) != 1 for row in entries)
            or len({y for row in entries for y in row}) != c.cols):
        return None
    rows = [(y - x, roots.get(v)) for x, row in enumerate(entries)
            for y, v in row.items()]
    return None if any(e is None for _, e in rows) else rows


def _coset_factor(B: BraidedSpace, k: int, perm):
    """The map X -> X T*_k, for the coset factor

        T*_k = id + c_{k-1} + c_{k-1}c_{k-2} + ... + c_{k-1}c_{k-2} ... c_1

    on the k-fold tensor power and matrices X with d^k columns, over the
    field of X, with roots[e] the image there of the root of exponent e
    (by default the roots themselves, over Q(xi_n)).

    When c is a permutation matrix with root entries, perm its rows
    (`_permutation_rows`, None for any other c), each term sends e_r^T
    to a root times one e_t^T: row r is followed through the strand moves
    c_{k-1}, ..., c_1, each of which takes the index x of the two strands
    it acts on to the column of c's entry in row x, adding that entry's
    exponent mod 2n.  Only the rows of T*_k that the columns of X reach are
    followed, each once per degree, when some X first reaches it; every
    field shares the moves found.  X T*_k is then X @ T, with T holding
    just those rows.  Any other c is applied to X over Q(xi_n) by sparse
    right multiplication, one c_j at a time."""
    d, N, size = B.dim, 2 * B.n, B.dim ** k
    if perm is None:
        return lambda X, roots=None: _right_products(B, k, X)
    dd = d * d
    # moves[r] = [(t_i, e_i)] with, for i = 0, ..., k - 2,
    # e_r^T c_{k-1} ... c_{k-1-i} = root(e_i) e_{t_i}^T
    moves: dict[int, list] = {}

    def follow(r):
        path, e, inner = [], 0, 1
        for _ in range(k - 1):   # c_{k-1}, ..., c_1: inner = d^(k-1-j)
            shift, f = perm[r // inner % dd]
            r += shift * inner
            e = (e + f) % N
            path.append((r, e))
            inner *= d
        return path

    def times(X, roots=None):
        if roots is None:
            roots = [root(B.n, e) for e in range(N)]
        sums = {}
        for c in {c for row in X.data.values() for c in row}:
            path = moves.get(c)
            if path is None:
                path = moves[c] = follow(c)
            row = sums[c] = {c: roots[0]}
            for t, e in path:
                s = row.get(t)
                row[t] = roots[e] if s is None else s + roots[e]
        return X @ CycMatrix.from_sums(B.n, size, size, sums, X.prime)

    return times


def _right_products(B: BraidedSpace, k: int, X: CycMatrix) -> CycMatrix:
    """X T*_k over Q(xi_n), for any c: each term is the one before it
    times c_j, and row r of Y c_j gets, for each entry v of Y in column
    (a, x, b), x the index of the strands j, j + 1, the entries v c[x][y]
    in the columns (a, y, b)."""
    d = B.dim
    out, term, inner = X, X.data, 1
    for _ in range(k - 1):   # c_{k-1}, ..., c_1: inner = d^(k-1-j)
        new = {}
        for r, row in term.items():
            acc = new[r] = {}
            for col, v in row.items():
                x = col // inner % (d * d)
                for y, cv in B.c.data.get(x, {}).items():
                    t, p = col + (y - x) * inner, v * cv
                    s = acc.get(t)
                    acc[t] = p if s is None else s + p
        term = CycMatrix.from_sums(X.n, X.rows, X.cols, new).data
        out = out + CycMatrix(X.n, X.rows, X.cols, term)
        inner *= d
    return out


def _qs2(B: BraidedSpace) -> CycMatrix:
    """QS_2 = id + c, the d^2 x d^2 symmetrizer of degree 2."""
    return B.c + CycMatrix.identity(B.n, B.dim * B.dim)


# -- graded dimensions ---------------------------------------------------------------


# What a degree of `graded_dims` holds, measured with tracemalloc on the
# permutation braidings of W(-1,1,0) at n = 3 to degree 7 and at n = 9 to 3,
# U(1,0,1,0) at n = 3 to 9 and at n = 15 to 6, U(0,1,0,2) + U(0,1,2,1) to 5
# and W(-1,0,0) at n = 5 to 5 and at n = 7 to 4, in the last degree.  Per
# cell of N_k's shape below: over F_p, each field kept R_k in at most 7
# bytes, the one field advancing took at most 19 (N_k, its echelon and R_k),
# and the lifted R_k at most 8; over Q(xi_n) the advancing field took at
# most 32 (up to 79 in the small ones, inside the fixed cost).  The strand
# moves and one field's rows of T*_k took at most 300 bytes per entry of
# T*_k (k = 2 at n = 15; 145-235 for k >= 3), and a kernel basis of d^k
# dense vectors at most 9 per entry.  Whole degrees took at most 0.4 of the
# estimate without relations and 0.5 with them, on either route.  The sparse
# kernel basis holds no more cells than R_k and one per column without a
# pivot, but with relations the estimate counts d^{2k} cells at
# _KERNEL_CELL_BYTES: the cells that `kn nichols --relations` writes densely
# for degree k.  That term does not bound the memory of the JSON, which is
# built after the last degree and not checked: with indent=2 it took
# 1.4-2.1 kB of peak resident set per dense cell (U(1,0,1,0) at n = 3 to
# degree 9, W(-1,0,0) at n = 5 to degree 4).  Any other braiding runs over
# Q(xi_n) on dense rows whose entries grow with k: on the Jordan plane to
# degree 13, 2 _CELL_BYTES per cell fell short from degree 8 on (1.42 of the
# estimate in degree 13), and with _DENSE_CELL_BYTES whole degrees took at
# most 0.61 of it.
_DEGREE_BYTES = 64 * 1024
_TERM_BYTES = 320
_CELL_BYTES = 40
_DENSE_CELL_BYTES = 400
_RESIDUE_CELL_BYTES = 16
_KERNEL_CELL_BYTES = 12


def _degree_bytes(d: int, k: int, r_prev: int, relations: bool,
                  fields: int = 0, dense: bool = False) -> int:
    """What degree k of `graded_dims` holds, in bytes: a fixed cost, the
    k d^k entries of T*_k, and N_k, with r_{k-1} d rows of d^k columns,
    and R_k, with at most as many cells, over Q(xi_n), at _DENSE_CELL_BYTES
    for a braiding that is not a permutation matrix with root entries; or
    over each of `fields` F_p in lockstep, R_k in every field, N_k in one at
    a time and R_k lifted to Q(xi_n); with relations also d^k vectors of
    d^k cells, the most that the dense JSON of the kernel basis of QS_k
    has (see the comment above)."""
    shape = d ** (k + 1) * r_prev   # N_k's, and the most R_k can hold
    if fields:
        cell_bytes = _RESIDUE_CELL_BYTES * (fields + 1) + _CELL_BYTES
    elif dense:
        cell_bytes = _DENSE_CELL_BYTES
    else:
        cell_bytes = 2 * _CELL_BYTES
    kernel = d ** (2 * k) if relations else 0
    return (_DEGREE_BYTES + _TERM_BYTES * k * d ** k
            + cell_bytes * shape + _KERNEL_CELL_BYTES * kernel)


@dataclass
class GradedReport:
    dims: list            # dims[d] = dim of the degree-d component, d >= 0
    relations: dict       # degree -> kernel basis, each vector a sparse
                          # row {column: CycNum}, dense in to_json
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
            "relations": {str(deg): [_dense_json(vec, self.dims[1] ** deg)
                                     for vec in basis]
                          for deg, basis in self.relations.items()},
            "status": self.status,
            "witness": ([v.to_json() for v in self.witness]
                        if self.witness is not None else None),
        }


def _dense_json(vec: dict, size: int) -> list:
    """The sparse kernel vector vec, of length size, as the dense JSON list
    `kn nichols --relations` writes: one entry per column, zeros
    included."""
    zero = CycNum.zero(next(iter(vec.values())).n).to_json()
    return [vec[c].to_json() if c in vec else zero for c in range(size)]


def graded_dims(B: BraidedSpace, cutoff: int,
                want_relations: bool = True) -> GradedReport:
    """dims[d] = rank(QS_d) for d = 0.., and relations[d] the reduced
    echelon basis of ker(QS_d), both read off R_d, the reduced echelon
    basis of the row space of QS_d.  By the right coset factorization
    QS_d = (QS_{d-1} (x) id) T*_d, QS_d has the row space of
    N_d = (R_{d-1} (x) id) T*_d, which has only rank(QS_{d-1}) dim rows, so
    each degree is one echelon pass, on N_d (module docstring).  Stops
    early once a graded component vanishes (Nichols algebras are generated
    in degree 1, so all later components vanish too) and reports status
    "finite"; otherwise "infinite" when a diagonal fixed vector of c
    certifies an infinite dimension, else "undetermined".

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
    perm = _permutation_rows(B.c)
    fields = None if perm is None else _embeddings(B)
    if fields is not None:
        found = _degrees(B, perm, fields, cutoff, want_relations,
                         _kernel_lift(B))
    if found is None:
        found = _degrees(B, perm, [(None, None)], cutoff, want_relations)
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


class _RowSpace:
    """R_k, the reduced echelon basis of the row space of QS_k keyed by
    each row's last column, with its pivots P_k and rank r_k, advanced one
    degree at a time (module docstring): over Q(xi_n), or over F_p for
    prime p, with roots the images of the 2n roots of unity under one
    embedding (`cyclotomic.root_images`)."""

    def __init__(self, B: BraidedSpace, prime=None, roots=None):
        self.roots = roots
        self.ident = self.R = CycMatrix.identity(B.n, B.dim, prime)  # QS_1
        self.pivots = list(range(B.dim))
        self.rank = B.dim

    def advance(self, times):
        """One degree on, from k - 1 to k, with times the `_coset_factor`
        of k: R_k is the reduced echelon basis of the rows of
        N_k = (R_{k-1} (x) id) T*_k."""
        R_id = self.R.kron(self.ident)
        red = _reduced(times(R_id, self.roots), last=True)
        self.pivots = sorted(red)
        self.rank = len(self.pivots)
        self.R = CycMatrix(R_id.n, self.rank, R_id.cols,
                           {i: red[p] for i, p in enumerate(self.pivots)},
                           R_id.prime)


def _degrees(B: BraidedSpace, perm, fields: list, cutoff: int,
             want_relations: bool, lift=None):
    """The degree loop of `graded_dims`: one `_RowSpace` per field
    (prime, roots), advanced in lockstep, sharing one `_coset_factor` per
    degree, with perm the rows of c (`_permutation_rows`); the relations
    are ker R_k.  Over Q(xi_n), fields is [(None, None)]; over F_p, they
    are the embeddings of `_embeddings`, and lift(deg, row spaces) gives
    R_k over Q(xi_n), or None when it cannot certify its kernel.  That
    ends the loop with None, and so does a degree past the memory budget
    over F_p, whose estimate exceeds the one over Q(xi_n); over Q(xi_n)
    that raises MemoryBudgetError.  Returns (dims, relations) otherwise."""
    d = B.dim
    states = [_RowSpace(B, prime, roots) for prime, roots in fields]
    dims, relations = [1, d], {}
    lockstep = len(states) if lift is not None else 0
    dense = perm is None
    for deg in range(2, cutoff + 1):
        need = _degree_bytes(d, deg, dims[-1], want_relations, lockstep,
                             dense)
        try:
            _check_budget(need, "degree %d of the Nichols algebra of a "
                                "%d-dimensional space" % (deg, d))
        except MemoryBudgetError:
            if lift is None:
                raise
            return None
        times = _coset_factor(B, deg, perm)
        for state in states:
            state.advance(times)
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
    each (`root_images`), for c a permutation matrix with root-of-unity
    entries: the braidings whose kernels `_kernel_lift` can certify."""
    p = modular_prime(B.n)
    return [(p, roots) for roots in root_images(B.n, p)]


def _kernel_lift(B: BraidedSpace):
    """lift(deg, row spaces) for `_degrees` over the fields of
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


# -- diagonal braidings ----------------------------------------------------------------


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
    qs2 = _qs2(B)
    vv = [v[a] * v[b] for a in range(d) for b in range(d)]
    return all(x.is_zero() for x in qs2.apply(vv))


@dataclass
class SquareZeroSpace:
    """The linear conditions QS_2(x (x) x) = 0 rewritten over the
    d(d+1)/2 symmetric monomials mu_ab = lambda_a lambda_b (a <= b)."""
    pairs: list          # ordered list of (a, b), a <= b
    kernel: list         # reduced-echelon basis of the solution space,
                         # sparse rows {pair index: CycNum}
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
    pairs = [(a, b) for a in range(d) for b in range(a, d)]
    one = CycNum.one(B.n)
    sym = CycMatrix(B.n, d * d, len(pairs))   # column ab: e_a e_b + e_b e_a
    for idx, (a, b) in enumerate(pairs):
        for r in {a * d + b, b * d + a}:
            sym.data.setdefault(r, {})[idx] = one
    kernel = (_qs2(B) @ sym).kernel_basis()
    reached = set().union(*kernel)
    forced = [pair for idx, pair in enumerate(pairs) if idx not in reached]
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
    """relations: list of (degree, coefficient vector), every degree 2.
    Verifies that each lies in ker QS_2 and that together they span it."""
    for deg, _ in relations:
        if deg != 2:
            raise ValueError("relation of degree %d: only degree-2 relations "
                             "are checked" % deg)
    qs2 = _qs2(B)
    vecs = [vec for _, vec in relations]
    in_kernel = all(all(x.is_zero() for x in qs2.apply(vec)) for vec in vecs)
    kernel2 = qs2.kernel_basis()
    rows = {i: {c: x for c, x in enumerate(vec) if not x.is_zero()}
            for i, vec in enumerate(vecs)}
    given_rank = CycMatrix(B.n, len(vecs), B.dim ** 2, rows).rank() \
        if vecs else 0
    spans = in_kernel and given_rank == len(kernel2)
    return {"all_in_kernel": in_kernel, "kernel2_dim": len(kernel2),
            "degree2_rank": given_rank, "degree2_spans": spans}
