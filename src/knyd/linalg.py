"""Exact sparse linear algebra over Q(xi_n).

Matrices are stored sparsely as a dict of row index -> {col index: CycNum};
the representation never affects results.  Elimination uses a deterministic
pivot rule: columns are scanned in order and the first remaining row with a
nonzero entry in the current column becomes the pivot, with no scaling
heuristics.  Kernel bases are returned in reduced echelon form (pivot =
first nonzero column).  `CycMatrix.rank(prime)` runs the same elimination on
the image of the matrix over F_p (`cyclotomic.mod_p`), in machine integers.
"""

from __future__ import annotations

from .cyclotomic import CycNum, mod_p


class CycMatrix:
    __slots__ = ("n", "rows", "cols", "data")

    def __init__(self, n: int, rows: int, cols: int, data=None):
        self.n = n
        self.rows = rows
        self.cols = cols
        self.data: dict[int, dict[int, CycNum]] = data if data is not None else {}

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
    def identity(n: int, size: int) -> "CycMatrix":
        one = CycNum.one(n)
        return CycMatrix(n, size, size, {i: {i: one} for i in range(size)})

    @staticmethod
    def zero(n: int, rows: int, cols: int) -> "CycMatrix":
        return CycMatrix(n, rows, cols)

    def copy(self) -> "CycMatrix":
        return CycMatrix(self.n, self.rows, self.cols,
                         {r: dict(row) for r, row in self.data.items()})

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
        if (self.n, self.rows, self.cols) != (other.n, other.rows, other.cols):
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
        return "CycMatrix(%dx%d over Q(xi_%d), %d nonzero)" % (
            self.rows, self.cols, self.n, nnz)

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other: "CycMatrix") -> "CycMatrix":
        self._check_shape(other)
        out = self.copy()
        for r, row in other.data.items():
            orow = out.data.setdefault(r, {})
            for c, v in row.items():
                s = orow.get(c)
                s = v if s is None else s + v
                if s.is_zero():
                    orow.pop(c, None)
                else:
                    orow[c] = s
        return out

    def __sub__(self, other: "CycMatrix") -> "CycMatrix":
        return self + other.scale(CycNum.rational(self.n, -1))

    def _check_shape(self, other):
        if (self.rows, self.cols, self.n) != (other.rows, other.cols, other.n):
            raise ValueError("shape or conductor mismatch")

    def scale(self, a: CycNum) -> "CycMatrix":
        if a.is_zero():
            return CycMatrix(self.n, self.rows, self.cols)
        return CycMatrix(self.n, self.rows, self.cols,
                         {r: {c: v * a for c, v in row.items()}
                          for r, row in self.data.items()})

    def __matmul__(self, other: "CycMatrix") -> "CycMatrix":
        if self.cols != other.rows or self.n != other.n:
            raise ValueError("shape or conductor mismatch")
        out = CycMatrix(self.n, self.rows, other.cols)
        for r, row in self.data.items():
            acc: dict[int, CycNum] = {}
            for k, v in row.items():
                brow = other.data.get(k)
                if not brow:
                    continue
                for c, w in brow.items():
                    p = v * w
                    s = acc.get(c)
                    acc[c] = p if s is None else s + p
            acc = {c: v for c, v in acc.items() if not v.is_zero()}
            if acc:
                out.data[r] = acc
        return out

    def transpose(self) -> "CycMatrix":
        out = CycMatrix(self.n, self.cols, self.rows)
        for r, row in self.data.items():
            for c, v in row.items():
                out.data.setdefault(c, {})[r] = v
        return out

    def kron(self, other: "CycMatrix") -> "CycMatrix":
        """Kronecker product, row-major index convention."""
        out = CycMatrix(self.n, self.rows * other.rows, self.cols * other.cols)
        for r1, row1 in self.data.items():
            for r2, row2 in other.data.items():
                orow = {}
                for c1, v1 in row1.items():
                    for c2, v2 in row2.items():
                        orow[c1 * other.cols + c2] = v1 * v2
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

    def rref(self) -> tuple[list[dict[int, CycNum]], list[int]]:
        """Reduced row echelon form; returns (rows as sparse dicts, pivot cols)."""
        work = [dict(self.data[r]) if r in self.data else {}
                for r in range(self.rows)]
        return _rref_rows(work, self.cols)

    def _component_blocks(self):
        """Split the support into connected components of the bipartite
        row/column graph; elimination never mixes components, so rank and
        kernel computations run block by block.  Returns a list of
        (rows, cols) with rows a list of sparse row dicts and cols the
        sorted column indices of the block."""
        parent: dict[int, int] = {}

        def find(c):
            root = c
            while parent[root] != root:
                root = parent[root]
            while parent[c] != root:
                parent[c], c = root, parent[c]
            return root

        for row in self.data.values():
            if not row:   # `set` to zero can empty a row
                continue
            it = iter(row)
            first = next(it)
            parent.setdefault(first, first)
            r0 = find(first)
            for c in it:
                parent.setdefault(c, c)
                r1 = find(c)
                if r1 != r0:
                    parent[r1] = r0
        groups: dict[int, list] = {}
        for c in parent:
            groups.setdefault(find(c), []).append(c)
        blocks = []
        rows_of: dict[int, list] = {root: [] for root in groups}
        for r in sorted(self.data):
            row = self.data[r]
            if row:
                rows_of[find(next(iter(row)))].append(row)
        for root in sorted(groups, key=lambda g: min(groups[g])):
            blocks.append((rows_of[root], sorted(groups[root])))
        return blocks

    def rank(self, prime: int | None = None) -> int | None:
        """The rank over Q(xi_n); with a prime p = 1 (mod n), the rank of
        the image over F_p under `mod_p` instead, which is at most the rank
        over Q(xi_n), or None if some entry's denominator is divisible by
        p."""
        rank = 0
        for rows, cols in self._component_blocks():
            if prime is None:
                remap = {c: i for i, c in enumerate(cols)}
                work = [{remap[c]: v for c, v in row.items()} for row in rows]
                rank += len(_rref_rows(work, len(cols))[1])
                continue
            work = []
            for row in rows:
                mrow = {}
                for c, v in row.items():
                    x = mod_p(v, prime)
                    if x is None:
                        return None
                    if x:
                        mrow[c] = x
                work.append(mrow)
            rank += _rank_mod(work, cols, prime)
        return rank

    def kernel_basis(self) -> list[list[CycNum]]:
        """Basis of the right kernel, as rows of a reduced-echelon matrix
        (each basis vector's first nonzero entry is a leading 1 in a column
        no other basis vector uses)."""
        zero = CycNum.zero(self.n)
        one = CycNum.one(self.n)
        vecs: list[dict[int, CycNum]] = []
        seen_cols: set[int] = set()
        for rows, cols in self._component_blocks():
            seen_cols.update(cols)
            remap = {c: i for i, c in enumerate(cols)}
            work = [{remap[c]: v for c, v in row.items()} for row in rows]
            red, pivots = _rref_rows(work, len(cols))
            pivot_set = set(pivots)
            for f in range(len(cols)):
                if f in pivot_set:
                    continue
                v = {cols[f]: one}
                for i, p in enumerate(pivots):
                    coeff = red[i].get(f)
                    if coeff is not None:
                        v[cols[p]] = -coeff
                vecs.append(v)
        for c in range(self.cols):
            if c not in seen_cols:
                vecs.append({c: one})
        if not vecs:
            return []
        red2, _ = _rref_rows(vecs, self.cols)
        out = []
        for row in red2:
            if row:
                v = [zero] * self.cols
                for c, x in row.items():
                    v[c] = x
                out.append(v)
        return out

    def solve(self, b: list[CycNum]):
        """Solve M x = b.  Returns (particular, kernel_basis) or None if the
        system is inconsistent."""
        if len(b) != self.rows:
            raise ValueError("dimension mismatch")
        work = []
        for r in range(self.rows):
            row = dict(self.data.get(r, {}))
            if not b[r].is_zero():
                row[self.cols] = b[r]
            work.append(row)
        red, pivots = _rref_rows(work, self.cols + 1)
        if self.cols in pivots:
            return None
        zero = CycNum.zero(self.n)
        x = [zero] * self.cols
        for i, p in enumerate(pivots):
            x[p] = red[i].get(self.cols, zero)
        return x, self.kernel_basis()


def _rank_mod(work: list[dict[int, int]], cols: list[int], p: int) -> int:
    """Rank of sparse rows over F_p, eliminating in place below each pivot;
    the pivot rule of `_rref_rows`, with the columns taken in the order of
    `cols`."""
    rank = 0
    nrows = len(work)
    for c in cols:
        pivot_row = None
        for r in range(rank, nrows):
            if c in work[r]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        prow = work[rank]
        inv = pow(prow[c], -1, p)
        for r in range(rank + 1, nrows):
            row = work[r]
            factor = row.get(c)
            if factor is None:
                continue
            factor = factor * inv % p
            for k, v in prow.items():
                s = (row.get(k, 0) - factor * v) % p
                if s:
                    row[k] = s
                else:
                    row.pop(k, None)
        rank += 1
        if rank == nrows:
            break
    return rank


def _rref_rows(work: list[dict[int, CycNum]], cols: int):
    """In-place RREF on sparse rows; deterministic first-nonzero pivoting."""
    pivots: list[int] = []
    rank = 0
    nrows = len(work)
    for c in range(cols):
        pivot_row = None
        for r in range(rank, nrows):
            if c in work[r]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        prow = work[rank]
        pval = prow[c]
        if not pval.is_one():
            inv = pval.inv()
            prow = {k: v * inv for k, v in prow.items()}
            work[rank] = prow
        for r in range(nrows):
            if r == rank:
                continue
            row = work[r]
            factor = row.get(c)
            if factor is None:
                continue
            for k, v in prow.items():
                s = row.get(k)
                s = -factor * v if s is None else s - factor * v
                if s.is_zero():
                    row.pop(k, None)
                else:
                    row[k] = s
        pivots.append(c)
        rank += 1
        if rank == nrows:
            break
    return work[:rank], pivots
