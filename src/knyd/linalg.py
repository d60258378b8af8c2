"""Exact sparse linear algebra over Q(xi_n), and over F_p.

Matrices are stored sparsely as a dict of row index -> {col index: entry};
the representation never affects results.  A matrix over Q(xi_n) holds
CycNum entries.  A residue matrix, `CycMatrix(n, rows, cols, data, prime)`,
holds entries in F_p as ints in 1 .. p - 1, such as the image of a matrix
over Q(xi_n) under an embedding xi -> omega^u of `cyclotomic.root_images`;
no entry is 0 mod p.  `+`, `@`, `kron`, `kernel_basis` and `rank` read
the field from the matrix and work over either one, on machine integers
over F_p; the operands of `+`, `@` and `kron` share their field.
The other methods take matrices over Q(xi_n).

Every rank, echelon basis and kernel comes from one elimination, `_echelon`:
an incremental pass over the rows that keeps one pivot row per pivot column,
keyed by the row's least column (its greatest, for kernels and for the row
spaces that `nichols.graded_dims` carries from degree to degree), followed
by the back-substitution `_reduce`; `_reduced` runs both and gives the
reduced echelon basis of the row space.  That form is unique, so the
results do not depend on the row order.  Kernel bases are returned in
reduced echelon form (pivot = first nonzero column), each vector a sparse
row {column: entry} like the rows of a matrix.  The pass reads no
more rows once every column has a pivot row.  The tests keep the plain
column-by-column elimination as a reference (`tests/oracles.py`).
"""

from __future__ import annotations

from .cyclotomic import CycNum


class CycMatrix:
    __slots__ = ("n", "rows", "cols", "data", "prime")

    def __init__(self, n: int, rows: int, cols: int, data=None,
                 prime: int | None = None):
        self.n = n
        self.rows = rows
        self.cols = cols
        self.data: dict[int, dict] = data if data is not None else {}
        self.prime = prime

    # -- construction --------------------------------------------------------

    @staticmethod
    def from_rows(n: int, rows) -> "CycMatrix":
        """Dense nested lists of CycNum (or things CycNum.rational accepts)."""
        r = len(rows)
        c = len(rows[0]) if r else 0
        m = CycMatrix(n, r, c)
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if not isinstance(v, CycNum):
                    v = CycNum.rational(n, v)
                if not v.is_zero():
                    m.data.setdefault(i, {})[j] = v
        return m

    @staticmethod
    def identity(n: int, size: int, prime: int | None = None) -> "CycMatrix":
        one = CycNum.one(n) if prime is None else 1
        return CycMatrix(n, size, size, {i: {i: one} for i in range(size)},
                         prime)

    @staticmethod
    def from_sums(n: int, rows: int, cols: int, sums: dict,
                  prime: int | None = None) -> "CycMatrix":
        """The matrix whose entries are the sparse rows `sums`, with each
        entry reduced mod p over F_p, and zero entries and empty rows
        dropped."""
        data = {}
        for r, row in sums.items():
            if prime is None:
                row = {c: v for c, v in row.items() if not v.is_zero()}
            else:
                row = {c: x for c, v in row.items() if (x := v % prime)}
            if row:
                data[r] = row
        return CycMatrix(n, rows, cols, data, prime)

    @staticmethod
    def zero(n: int, rows: int, cols: int) -> "CycMatrix":
        return CycMatrix(n, rows, cols)

    # -- access ---------------------------------------------------------------

    def get(self, r: int, c: int) -> CycNum:
        return self.data.get(r, {}).get(c, CycNum.zero(self.n))

    def set(self, r: int, c: int, v: CycNum):
        if v.is_zero():
            self.data.get(r, {}).pop(c, None)
        else:
            self.data.setdefault(r, {})[c] = v

    def is_zero(self) -> bool:
        return not any(self.data.values())

    def __eq__(self, other):
        if not isinstance(other, CycMatrix):
            return NotImplemented
        if (self.n, self.rows, self.cols, self.prime) != (
                other.n, other.rows, other.cols, other.prime):
            return False
        keys = set(self.data) | set(other.data)
        for r in keys:
            if self.data.get(r, {}) != other.data.get(r, {}):
                return False
        return True

    def __hash__(self):
        return hash((self.n, self.rows, self.cols))

    def __repr__(self):
        nnz = sum(len(row) for row in self.data.values())
        field = ("Q(xi_%d)" % self.n if self.prime is None
                 else "F_%d" % self.prime)
        return "CycMatrix(%dx%d over %s, %d nonzero)" % (
            self.rows, self.cols, field, nnz)

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other: "CycMatrix") -> "CycMatrix":
        self._check_shape(other)
        sums = {r: dict(row) for r, row in self.data.items()}
        for r, row in other.data.items():
            srow = sums.setdefault(r, {})
            for c, v in row.items():
                s = srow.get(c)
                srow[c] = v if s is None else s + v
        return CycMatrix.from_sums(self.n, self.rows, self.cols, sums,
                                   self.prime)

    def __sub__(self, other: "CycMatrix") -> "CycMatrix":
        return self + other.scale(CycNum.rational(self.n, -1))

    def _check_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        self._check_field(other)

    def _check_field(self, other):
        if (self.n, self.prime) != (other.n, other.prime):
            raise ValueError("conductor or prime mismatch")

    def scale(self, a: CycNum) -> "CycMatrix":
        if a.is_zero():
            return CycMatrix(self.n, self.rows, self.cols)
        return CycMatrix(self.n, self.rows, self.cols,
                         {r: {c: v * a for c, v in row.items()}
                          for r, row in self.data.items()})

    def __matmul__(self, other: "CycMatrix") -> "CycMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        self._check_field(other)
        sums = {}
        for r, row in self.data.items():
            acc = sums[r] = {}
            for k, v in row.items():
                brow = other.data.get(k)
                if not brow:
                    continue
                for c, w in brow.items():
                    p = v * w
                    s = acc.get(c)
                    acc[c] = p if s is None else s + p
        return CycMatrix.from_sums(self.n, self.rows, other.cols, sums,
                                   self.prime)

    def kron(self, other: "CycMatrix") -> "CycMatrix":
        """Kronecker product, row-major index convention.  A product of
        two nonzero entries is nonzero over either field."""
        self._check_field(other)
        p = self.prime
        out = CycMatrix(self.n, self.rows * other.rows, self.cols * other.cols,
                        prime=p)
        for r1, row1 in self.data.items():
            for r2, row2 in other.data.items():
                orow = {c1 * other.cols + c2: v1 * v2
                        for c1, v1 in row1.items() for c2, v2 in row2.items()}
                if p is not None:
                    orow = {c: v % p for c, v in orow.items()}
                out.data[r1 * other.rows + r2] = orow
        return out

    def apply(self, vec: list[CycNum]) -> list[CycNum]:
        zero = CycNum.zero(self.n)
        out = [zero] * self.rows
        for r, row in self.data.items():
            acc = zero
            for c, v in row.items():
                if not vec[c].is_zero():
                    acc = acc + v * vec[c]
            out[r] = acc
        return out

    # -- elimination -------------------------------------------------------------

    def rank(self) -> int:
        """The rank over the matrix's field.  That of a residue matrix, the
        image of a matrix over Q(xi_n) under `cyclotomic.mod_p`, bounds the
        rank over Q(xi_n) from below."""
        return len(_echelon(self))

    def kernel_basis(self) -> list[dict]:
        """Basis of the right kernel, as the rows of a reduced-echelon
        matrix: each basis vector's least column is a leading 1 in a column
        no other basis vector uses.  Each vector is a sparse row
        {column: entry}, like the rows of a CycMatrix, with no zero entry
        and its columns in ascending order.

        The pivot rows are keyed by their greatest column, so after
        reduction a row with pivot p has its other entries in free columns
        below p.  The vector e_f - sum_p red[p][f] e_p of a free column f
        then has its leading 1 at f and vanishes on every other free column:
        sorted by f, these vectors are the reduced echelon basis, which is
        unique, over either field."""
        prime = self.prime
        one = CycNum.one(self.n) if prime is None else 1
        red = _reduced(self, last=True)
        vecs = {f: {f: one} for f in range(self.cols) if f not in red}
        for p in sorted(red):
            for f, x in red[p].items():
                if f != p:
                    vecs[f][p] = -x if prime is None else prime - x
        return list(vecs.values())


def _echelon(m: CycMatrix, last: bool = False):
    """The one elimination: an incremental echelon pass over the rows of m.
    Each row is reduced against the stored pivot rows, keyed by their least
    column (greatest with last=True), until its lead column has no pivot
    row; what is left, scaled to a leading 1, is stored as the pivot row of
    that column.  Once every column has one, the rows left cannot add a
    pivot and are not read.  Returns {pivot column: row}, an echelon basis
    of the row space.

    Over Q(xi_n) the entries are CycNum; over F_p they are residues mod p
    and the pass runs on machine integers."""
    prime, pick = m.prime, max if last else min
    pivots: dict[int, dict] = {}
    for row in m.data.values():
        work = dict(row)
        while work:
            lead = pick(work)
            prow = pivots.get(lead)
            if prow is None:
                pivots[lead] = _scaled(work, work[lead], prime)
                break
            _subtract(work, work[lead], prow, prime)
        if len(pivots) == m.cols:
            break
    return pivots


def _reduced(m: CycMatrix, last: bool = False) -> dict:
    """The reduced echelon basis of the row space of m, {pivot column:
    row}, keyed by each row's least column (its greatest with last=True):
    the row is 1 there and every other row is 0."""
    return _reduce(_echelon(m, last), m.prime, last)


def _reduce(pivots: dict, prime: int | None, last: bool) -> dict:
    """Back-substitution on the pivot rows of `_echelon(m, last)`, over the
    field of m (prime p for F_p, None for Q(xi_n)): clears each pivot
    column from every other pivot row, in place, which gives the reduced
    echelon form.  Rows are taken from the far end, so the pivot rows
    subtracted from a row are already reduced."""
    for lead in sorted(pivots, reverse=not last):
        row = pivots[lead]
        for c in [c for c in row if c != lead and c in pivots]:
            _subtract(row, row[c], pivots[c], prime)
    return pivots


def _scaled(row: dict, lead, prime: int | None) -> dict:
    """row divided by its lead entry, over Q(xi_n) or F_p."""
    if prime is not None:
        inv = pow(lead, -1, prime)
        return {c: v * inv % prime for c, v in row.items()}
    if lead.is_one():
        return row
    inv = lead.inv()
    return {c: v * inv for c, v in row.items()}


def _subtract(work: dict, factor, prow: dict, prime: int | None):
    """work -= factor * prow in place over Q(xi_n) or F_p, zero entries
    dropped."""
    if prime is not None:
        for c, v in prow.items():
            s = (work.get(c, 0) - factor * v) % prime
            if s:
                work[c] = s
            else:
                work.pop(c, None)
        return
    for c, v in prow.items():
        s = work.get(c)
        s = -factor * v if s is None else s - factor * v
        if s.is_zero():
            work.pop(c, None)
        else:
            work[c] = s
