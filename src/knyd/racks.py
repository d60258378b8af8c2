"""Set-theoretic solutions of the braid equation, racks, 2-cocycles, and
the t-/twist-equivalence machinery connecting them to the W-module
braidings.

A braided set stores the solution s(x,y) = (g_x(y), f_y(x)) through its
two function tables.  The canonical example here is X = Z_n with
s(l,r) = (-r, l+2r), whose derived rack is the dihedral rack
l |> r = 2l - r.

The cocycle w_cocycle(n, eps, i, m) reproduces the categorical braiding of
the simple module W(eps,i,m):

    F[l][r] = eps * xi^{2i(m - i - 2(l+r))},

so sF_braiding(standard_solution(n), w_cocycle(...)) equals the braiding
matrix computed from the Yetter-Drinfeld structure, entry for entry.  The
related diagonal-rack cocycle family

    d_cocycle(n, eps, i, m):  q[l][r] = eps * xi^{2i(m - i - (l-r))}

on the dihedral rack satisfies the rack 2-cocycle condition and is the
standard exponent-1 parameterization; the two families coincide up to the
relabeling i -> 2i, m -> (m+3i)/2 of Z_n.

Every cocycle value is a root of unity, and for odd n the roots of unity
in Q(xi_n) are the 2n elements +-xi^k.  A CocycleTable therefore also
carries its values as exponents e in Z/2n, where e stands for
(-1)^(e mod 2) xi^(e mod n) (Z/2n = Z/2 x Z/n by CRT).  A product of
values is the root of the sum of their exponents, so the cocycle, rack
cocycle, invariance and twist identities are checked as integer sums
mod 2n, with no field multiplication.
"""

from __future__ import annotations

from .cyclotomic import root, root_exponents
from .linalg import CycMatrix
from .nichols import BraidedSpace


# -- braided sets --------------------------------------------------------------------


class BraidedSet:
    """A finite set {0..size-1} with a bijective s(x,y) = (g_x(y), f_y(x)),
    stored as the two function tables g[x][y] and f[y][x].  The tables are
    not changed after construction, so `is_solution` is decided once."""

    def __init__(self, g, f):
        size = len(g)
        if len(f) != size or any(len(row) != size for row in g + f):
            raise ValueError("g and f must be square tables of equal size")
        self.size = size
        self.g = [list(row) for row in g]
        self.f = [list(row) for row in f]
        seen = set()
        for x in range(size):
            for y in range(size):
                seen.add(self.s(x, y))
        if len(seen) != size * size:
            raise ValueError("s is not a bijection")
        self._solution = None

    @staticmethod
    def from_map(size: int, s) -> "BraidedSet":
        g = [[0] * size for _ in range(size)]
        f = [[0] * size for _ in range(size)]
        for x in range(size):
            for y in range(size):
                gx, fy = s(x, y)
                g[x][y] = gx
                f[y][x] = fy
        return BraidedSet(g, f)

    def s(self, x: int, y: int):
        return (self.g[x][y], self.f[y][x])

    def is_solution(self) -> bool:
        """Set-theoretic braid equation on all triples, checked on the
        first call; later calls return that verdict."""
        if self._solution is None:
            self._solution = self._braid_equation()
        return self._solution

    def _braid_equation(self) -> bool:
        s = self.s
        for x in range(self.size):
            for y in range(self.size):
                for z in range(self.size):
                    # (s x id)(id x s)(s x id)
                    a, b, c_ = s(x, y) + (z,)
                    a, b, c_ = (a,) + s(b, c_)
                    lhs = s(a, b) + (c_,)
                    a, b, c_ = (x,) + s(y, z)
                    a, b, c_ = s(a, b) + (c_,)
                    rhs = (a,) + s(b, c_)
                    if lhs != rhs:
                        return False
        return True

    def is_nondegenerate(self) -> bool:
        size = self.size
        full = set(range(size))
        return (all(set(self.g[x]) == full for x in range(size)) and
                all(set(self.f[y]) == full for y in range(size)))

    def f_inv(self, y: int, x: int) -> int:
        """The value f_y^{-1}(x)."""
        return self.f[y].index(x)


def standard_solution(n: int) -> BraidedSet:
    """The solution s(l,r) = (-r, l+2r) on Z_n."""
    return BraidedSet.from_map(n, lambda l, r: ((-r) % n, (l + 2 * r) % n))


# -- racks ------------------------------------------------------------------------


class Rack:
    """A finite rack on {0..size-1} with operation table t[x][y] = x |> y."""

    def __init__(self, table):
        self.size = len(table)
        if any(len(row) != self.size for row in table):
            raise ValueError("table must be square")
        self.table = [list(row) for row in table]
        full = set(range(self.size))
        for x in range(self.size):
            if set(self.table[x]) != full:
                raise ValueError("x |> - is not a bijection for x=%d" % x)

    def op(self, x: int, y: int) -> int:
        return self.table[x][y]

    def is_rack(self) -> bool:
        """Self-distributivity on all triples (bijectivity is checked at
        construction)."""
        op = self.op
        r = range(self.size)
        return all(op(x, op(y, z)) == op(op(x, y), op(x, z))
                   for x in r for y in r for z in r)

    def __eq__(self, other):
        return isinstance(other, Rack) and self.table == other.table


def dihedral_rack(n: int) -> Rack:
    """Z_n with x |> y = 2x - y (the conjugacy class of a reflection in the
    dihedral group of order 2n, for n odd)."""
    if n < 3:
        raise ValueError("n must be >= 3")
    return Rack([[(2 * x - y) % n for y in range(n)] for x in range(n)])


def derived_rack(B: BraidedSet) -> Rack:
    """x |> y = f_x(g_{f_y^{-1}(x)}(y)) for a non-degenerate solution."""
    if not B.is_nondegenerate():
        raise ValueError("the solution is degenerate")
    size = B.size
    table = [[0] * size for _ in range(size)]
    for x in range(size):
        for y in range(size):
            table[x][y] = B.f[x][B.g[B.f_inv(y, x)][y]]
    return Rack(table)


# -- cocycles -----------------------------------------------------------------------


class CocycleTable:
    """A table of roots of unity indexed by X x X.  `values` holds them as
    field elements, `exps` as exponents in Z/2n (see `root_exponents`)."""

    def __init__(self, values):
        self.size = len(values)
        if any(len(row) != self.size for row in values):
            raise ValueError("table must be square")
        self.values = [list(row) for row in values]
        self.n = self.values[0][0].n
        roots = root_exponents(self.n)
        try:
            self.exps = [[roots[v] for v in row] for row in self.values]
        except KeyError:
            raise ValueError("cocycle values must be roots of unity") from None

    def __getitem__(self, xy):
        x, y = xy
        return self.values[x][y]

    def __eq__(self, other):
        return isinstance(other, CocycleTable) and self.values == other.values


def _root_cocycle(n: int, eps: int, exponent) -> CocycleTable:
    """The table eps xi^{exponent(l, r)} on Z_n x Z_n, each entry a cached
    root (`root`): xi^k has exponent k(n + 1) in Z/2n, and -1 has n."""
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    sign = 0 if eps == 1 else n
    return CocycleTable([[root(n, exponent(l, r) * (n + 1) + sign)
                          for r in range(n)] for l in range(n)])


def w_cocycle(n: int, eps: int, i: int, m: int) -> CocycleTable:
    """The cocycle of the categorical W(eps,i,m) braiding on the standard
    solution: F[l][r] = eps xi^{2i(m-i-2(l+r))}."""
    return _root_cocycle(n, eps, lambda l, r: 2 * i * (m - i - 2 * (l + r)))


def d_cocycle(n: int, eps: int, i: int, m: int) -> CocycleTable:
    """The dihedral-rack 2-cocycle q[l][r] = eps xi^{2i(m-i-(l-r))}."""
    return _root_cocycle(n, eps, lambda l, r: 2 * i * (m - i - (l - r)))


def check_F_cocycle(B: BraidedSet, F: CocycleTable) -> bool:
    """The set-theoretic 2-cocycle condition making s^F a braiding:

        F[x][y] F[f_y(x)][z] F[g_x(y)][g_{f_y(x)}(z)]
          = F[y][z] F[x][g_y(z)] F[f_{g_y(z)}(x)][f_z(y)],

    compared as exponent sums mod 2n."""
    size = B.size
    g, f = B.g, B.f
    E, N = F.exps, 2 * F.n
    for x in range(size):
        for y in range(size):
            for z in range(size):
                lhs = E[x][y] + E[f[y][x]][z] + E[g[x][y]][g[f[y][x]][z]]
                rhs = E[y][z] + E[x][g[y][z]] + E[f[g[y][z]][x]][f[z][y]]
                if (lhs - rhs) % N:
                    return False
    return True


def check_rack_cocycle(R: Rack, q: CocycleTable) -> bool:
    """q[x][y|>z] q[y][z] = q[x|>y][x|>z] q[x][z] on all triples, compared
    as exponent sums mod 2n."""
    t = R.table
    E, N = q.exps, 2 * q.n
    r = range(R.size)
    for x in r:
        for y in r:
            for z in r:
                if (E[x][t[y][z]] + E[y][z] - E[t[x][y]][t[x][z]]
                        - E[x][z]) % N:
                    return False
    return True


# -- braidings from cocycles -------------------------------------------------------------


class CocycleError(ValueError):
    """A cocycle table that fails its cocycle condition, refused by
    `cq_braiding` or `sF_braiding`."""


def cq_braiding(R: Rack, q: CocycleTable) -> BraidedSpace:
    """c(x (x) y) = q[x][y] (x|>y) (x) x."""
    if not check_rack_cocycle(R, q):
        raise CocycleError("the rack 2-cocycle condition fails")
    d = R.size
    return _cocycle_braiding(q, [(R.table[x][y] * d + x, x, y)
                                 for x in range(d) for y in range(d)],
                             "rack braiding")


def sF_braiding(B: BraidedSet, F: CocycleTable) -> BraidedSpace:
    """s^F(x (x) y) = F[x][y] g_x(y) (x) f_y(x)."""
    if not B.is_solution():
        raise ValueError("s is not a set-theoretic solution")
    if not check_F_cocycle(B, F):
        raise CocycleError("the set-theoretic cocycle condition fails")
    d = B.size
    return _cocycle_braiding(F, [(B.g[x][y] * d + B.f[y][x], x, y)
                                 for x in range(d) for y in range(d)],
                             "set-theoretic braiding")


def _cocycle_braiding(F: CocycleTable, cells, name: str) -> BraidedSpace:
    """The braiding with entry F[x][y] in row `row`, column x d + y, for
    each (row, x, y) of cells, which meet every row once."""
    d = F.size
    data = {row: {x * d + y: F.values[x][y]} for row, x, y in cells}
    return BraidedSpace(d, CycMatrix(F.n, d * d, d * d, data), name)


# -- t-equivalence and twist-equivalence -----------------------------------------------------


def t_equivalence_cocycle(B: BraidedSet, F: CocycleTable) -> CocycleTable:
    """q[x][y] = F[f_y^{-1}(x)][y], a rack 2-cocycle on the derived rack
    whose braiding is t-equivalent to s^F, provided the invariance
    hypothesis q[f_z(x)][f_z(y)] = q[x][y] holds (checked on exponents)."""
    size = B.size
    rows = [[F[B.f_inv(y, x), y] for y in range(size)] for x in range(size)]
    q = CocycleTable(rows)
    E, f = q.exps, B.f
    for x in range(size):
        for y in range(size):
            for z in range(size):
                if E[f[z][x]][f[z][y]] != E[x][y]:
                    raise ValueError("invariance hypothesis fails at "
                                     "(%d,%d,%d)" % (x, y, z))
    return q


def twist_equivalence_check(B: BraidedSet, F: CocycleTable,
                            G: CocycleTable, phi) -> bool:
    """Twist-equivalence of s^F and s^G through phi: both the phi-cocycle
    identity on the derived rack,

        phi(x,z) phi(x|>y, x|>z) phi(x|>(y|>z), x) phi(y|>z, y)
          = phi(y,z) phi(x, y|>z) phi(x|>(y|>z), x|>y) phi(x|>z, x),

    and the comparison identity

        phi(f_y(x), y) F[x][y] = phi(f_x(g_x(y)), x) G[x][y]

    must hold for all arguments.  Both are compared as exponent sums
    mod 2n."""
    size = B.size
    if not isinstance(phi, CocycleTable):
        phi = CocycleTable(phi)
    if not F.n == G.n == phi.n:
        raise ValueError("conductor mismatch: %d, %d, %d" % (F.n, G.n, phi.n))
    t = derived_rack(B).table
    P, N = phi.exps, 2 * phi.n
    for x in range(size):
        for y in range(size):
            for z in range(size):
                yz = t[y][z]
                lhs = (P[x][z] + P[t[x][y]][t[x][z]]
                       + P[t[x][yz]][x] + P[yz][y])
                rhs = (P[y][z] + P[x][yz]
                       + P[t[x][yz]][t[x][y]] + P[t[x][z]][x])
                if (lhs - rhs) % N:
                    return False
    FE, GE, f, g = F.exps, G.exps, B.f, B.g
    for x in range(size):
        for y in range(size):
            lhs = P[f[y][x]][y] + FE[x][y]
            rhs = P[f[x][g[x][y]]][x] + GE[x][y]
            if (lhs - rhs) % N:
                return False
    return True
