"""Exact sparse linear algebra over Q(xi_n), and over F_p."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knyd.cyclotomic import CycNum, cyc, mod_p, modular_prime
from knyd.linalg import CycMatrix, _reduced
from oracles import copy_matrix, dense, rref, rref_kernel, solve, transpose


def _mat(n, rows):
    return CycMatrix.from_rows(
        n, [[CycNum.rational(n, x) if isinstance(x, (int, Fraction)) else x
             for x in row] for row in rows])


def test_matmul_identity_and_kron_shapes():
    n = 3
    I2 = CycMatrix.identity(n, 2)
    A = _mat(n, [[1, 2], [3, 4]])
    assert A @ I2 == A and I2 @ A == A
    K = A.kron(I2)
    assert (K.rows, K.cols) == (4, 4)
    # (A kron B)(C kron D) = AC kron BD
    B = _mat(n, [[0, 1], [1, 1]])
    C = _mat(n, [[2, 0], [0, 1]])
    D = _mat(n, [[1, 1], [0, 2]])
    assert A.kron(B) @ C.kron(D) == (A @ C).kron(B @ D)


def test_rank_and_kernel_rational_case():
    n = 3
    A = _mat(n, [[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert A.rank() == 2
    ker = A.kernel_basis()
    assert len(ker) == 1
    for vec in ker:
        assert all(x.is_zero() for x in A.apply(dense(vec, A.cols)))


def test_rank_cyclotomic_entries():
    n = 3
    xi = cyc(n, 1)
    # rows (1, xi), (xi^2, 1): second row = xi^2 * first row -> rank 1
    A = CycMatrix.from_rows(n, [[CycNum.one(n), xi],
                                [xi * xi, cyc(n, 3)]])
    assert A.rank() == 1
    assert len(A.kernel_basis()) == 1


def test_kernel_is_reduced_echelon_and_deterministic():
    n = 5
    A = _mat(n, [[1, 1, 1, 1], [0, 0, 1, 1]])
    k1 = A.kernel_basis()
    k2 = copy_matrix(A).kernel_basis()
    assert k1 == k2
    # canonical reduced form: each vector has a leading 1 in a distinct
    # coordinate that vanishes on every other basis vector
    leads = []
    k1 = [dense(vec, A.cols) for vec in k1]
    for vec in k1:
        lead = next(i for i, x in enumerate(vec) if not x.is_zero())
        assert vec[lead].is_one()
        leads.append(lead)
    assert len(set(leads)) == len(k1)
    for vec in k1:
        for other_lead in leads:
            if not vec[other_lead].is_one():
                assert vec[other_lead].is_zero()


def test_kernel_representation_independent():
    # the same linear map assembled with permuted rows (an invertible row
    # operation) must have the identical canonical kernel basis
    n = 3
    A = _mat(n, [[1, 2, 3], [0, 1, 1], [1, 3, 4]])
    B = _mat(n, [[0, 1, 1], [1, 3, 4], [1, 2, 3]])
    assert A.kernel_basis() == B.kernel_basis()
    assert A.rank() == B.rank()


def test_block_decomposition_agrees_with_dense_elimination():
    # a block-diagonal matrix with shuffled rows and columns: the one
    # elimination pass must agree with the plain rref-based rank
    n = 3
    A = CycMatrix.zero(n, 6, 6)
    one = CycNum.one(n)
    entries = [(0, 0), (0, 2), (1, 4), (2, 2), (3, 1), (3, 3), (4, 5)]
    for r, c in entries:
        A.set(r, c, one)
    rows, pivots = rref(A)
    assert A.rank() == len(pivots)
    ker = A.kernel_basis()
    assert len(ker) == A.cols - A.rank()
    for vec in ker:
        assert all(x.is_zero() for x in A.apply(dense(vec, A.cols)))


def test_solve():
    n = 3
    A = _mat(n, [[1, 1], [0, 1]])
    b = [CycNum.rational(n, 3), cyc(n, 1)]
    x, homogeneous = solve(A, b)
    assert A.apply(x) == b
    assert homogeneous == []  # invertible system: trivial kernel
    # inconsistent system
    B = _mat(n, [[1, 1], [1, 1]])
    assert solve(B, [CycNum.zero(n), CycNum.one(n)]) is None


def test_rank_nullity_random_sparse():
    import random
    rng = random.Random(0)
    n = 3
    for _ in range(10):
        A = CycMatrix.zero(n, 7, 9)
        for _ in range(12):
            A.set(rng.randrange(7), rng.randrange(9), cyc(n, rng.randrange(3)))
        assert A.rank() + len(A.kernel_basis()) == A.cols


def test_row_emptied_by_set():
    n = 3
    A = _mat(n, [[1, 0], [1, 1]])
    A.set(0, 0, CycNum.zero(n))
    assert A.rank() == 1
    assert len(A.kernel_basis()) == 1
    assert _residues(A, modular_prime(n)).rank() == 1


def test_shape_mismatch_rejected():
    n = 3
    A = CycMatrix.zero(n, 2, 3)
    B = CycMatrix.zero(n, 2, 2)
    with pytest.raises(ValueError):
        A + B
    with pytest.raises(ValueError):
        B @ A @ A


def test_apply_takes_one_entry_per_column():
    n = 3
    A = _mat(n, [[1, 2, 0], [0, 0, 1]])
    one = CycNum.one(n)
    assert A.apply([one, one, one]) == [CycNum.rational(n, 3), one]
    for vec in ([one, one], [one] * 4):
        with pytest.raises(ValueError, match="list of 3 entries.* of %d"
                                             % len(vec)):
            A.apply(vec)
    # sparse kernel rows, whether or not they hold every column the rows
    # of the matrix touch: {0, 1} misses column 2 of row 1, and {0, 1} of
    # the first row alone covers it
    for B in (A, _mat(n, [[1, 2, 0]])):
        vec = B.kernel_basis()[0]
        assert sorted(vec) == [0, 1]
        with pytest.raises(ValueError, match="got a dict of 2"):
            B.apply(vec)
        assert all(x.is_zero() for x in B.apply(dense(vec, B.cols)))


# -- properties on random sparse matrices ---------------------------------------------

# per conductor, a small prime = 1 (mod n): ranks mod a small prime fall
# below the true rank far more often than mod `modular_prime(n)`
SMALL_PRIME = {3: 7, 5: 11, 7: 29, 9: 19, 15: 31}


@st.composite
def sparse_matrices(draw):
    """A random sparse matrix over Q(xi_n) whose entries are small rational
    multiples of one or two roots of unity; with some probability one more
    row is a combination of two others, so that ranks drop."""
    n = draw(st.sampled_from(sorted(SMALL_PRIME)))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    term = st.builds(lambda k, c, d: cyc(n, k) * CycNum.rational(n, Fraction(c, d)),
                     st.integers(0, n - 1),
                     st.integers(-3, 3).filter(bool), st.integers(1, 2))
    entry = st.one_of(term, st.builds(lambda a, b: a + b, term, term))
    cells = draw(st.dictionaries(
        st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)), entry,
        max_size=rows * cols))
    A = CycMatrix.zero(n, rows, cols)
    for (r, c), v in cells.items():
        A.set(r, c, v)
    if rows >= 2 and draw(st.booleans()):
        r1, r2 = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
        a, b = draw(entry), draw(entry)
        A.rows += 1
        for c in range(cols):
            A.set(rows, c, a * A.get(r1, c) + b * A.get(r2, c))
    return A


_properties = settings(max_examples=60, deadline=None)


def _residues(A, p):
    """The image of A over F_p under `mod_p`, zero residues dropped, as a
    residue matrix; the entries of `sparse_matrices` have powers of 2 as
    denominators, so each has an image."""
    return CycMatrix(A.n, A.rows, A.cols,
                     {r: row for r, v_row in A.data.items()
                      if (row := {c: x for c, v in v_row.items()
                                  if (x := mod_p(v, p))})},
                     p)


@_properties
@given(sparse_matrices())
def test_modular_rank_is_a_lower_bound(A):
    exact = A.rank()
    for p in (modular_prime(A.n), SMALL_PRIME[A.n]):
        assert _residues(A, p).rank() <= exact


def _dense_rank_mod(rows, cols, p):
    """Rank over F_p of dense integer rows, by textbook elimination."""
    rows = [list(row) for row in rows]
    rank = 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c] % p),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for r in range(rank + 1, len(rows)):
            f = rows[r][c] * inv
            rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@_properties
@given(sparse_matrices())
def test_modular_rank_reads_residues(A):
    # entries given as their residues mod p, as the modular loop of
    # `nichols.graded_dims` gives them, have the rank of a dense
    # elimination of the residues
    p = modular_prime(A.n)
    residues = _residues(A, p)
    table = [[residues.data.get(r, {}).get(c, 0) for c in range(A.cols)]
             for r in range(A.rows)]
    assert residues.rank() == _dense_rank_mod(table, A.cols, p)


def _image(v, p):
    return 0 if isinstance(v, CycNum) and v.is_zero() else mod_p(v, p)


@_properties
@given(sparse_matrices())
def test_residue_matrices_follow_the_exact_ones(A):
    # a residue matrix (one that holds its prime) is the image of an exact
    # one under +, @, kron, and, when the pivots hold mod p, under the
    # reduced echelon basis, keyed by first or last columns, and
    # kernel_basis too
    p = modular_prime(A.n)
    R, At = _residues(A, p), transpose(A)
    assert R.kron(R) == _residues(A.kron(A), p)
    assert R @ _residues(At, p) == _residues(A @ At, p)
    assert R + R == _residues(A + A, p)
    for last in (False, True):
        exact, residue = _reduced(A, last), _reduced(R, last)
        if sorted(residue) == sorted(exact):
            assert residue == {
                pivot: {c: x for c, v in row.items() if (x := mod_p(v, p))}
                for pivot, row in exact.items()}
            if last:   # the pivots kernel_basis keys its rows by
                assert [dense(vec, R.cols) for vec in R.kernel_basis()] \
                    == [[_image(v, p) for v in dense(vec, A.cols)]
                        for vec in A.kernel_basis()]
    with pytest.raises(ValueError):
        R @ At
    with pytest.raises(ValueError):
        R.kron(_residues(A, SMALL_PRIME[A.n]))


@_properties
@given(sparse_matrices())
def test_rank_of_transpose(A):
    assert A.rank() == transpose(A).rank()




@st.composite
def block_matrices(draw):
    """A random sparse matrix over Q(xi_3) or Q(xi_5) whose rows and columns
    fall into up to three component blocks, with some columns left zero;
    with some probability one more row of a block is a combination of two
    of its rows."""
    n = draw(st.sampled_from([3, 5]))
    blocks = draw(st.integers(1, 3))
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 9))
    row_block = draw(st.lists(st.integers(0, blocks - 1), min_size=rows,
                              max_size=rows))
    col_block = draw(st.lists(st.integers(-1, blocks - 1), min_size=cols,
                              max_size=cols))   # -1: a zero column
    entry = st.builds(lambda k, c: cyc(n, k) * CycNum.rational(n, c),
                      st.integers(0, n - 1), st.integers(-2, 2).filter(bool))
    A = CycMatrix.zero(n, rows, cols)
    for r in range(rows):
        for c in range(cols):
            if col_block[c] == row_block[r] and draw(st.booleans()):
                A.set(r, c, draw(entry))
    if rows >= 2 and draw(st.booleans()):
        r1, r2 = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
        if row_block[r1] == row_block[r2]:
            a, b = draw(entry), draw(entry)
            A.rows += 1
            for c in range(cols):
                A.set(rows, c, a * A.get(r1, c) + b * A.get(r2, c))
    return A


@_properties
@given(st.one_of(sparse_matrices(), block_matrices()))
def test_rank_nullity_and_kernel(A):
    # the kernel is the reduced echelon basis: leading 1s in ascending
    # columns, each column led by one vector and zero in all the others
    ker = [dense(vec, A.cols) for vec in A.kernel_basis()]
    assert A.rank() + len(ker) == A.cols
    assert len(rref(A)[1]) == A.rank()   # the plain elimination agrees
    leads = []
    for vec in ker:
        assert len(vec) == A.cols
        assert all(x.is_zero() for x in A.apply(vec))
        lead = next(i for i, x in enumerate(vec) if not x.is_zero())
        assert vec[lead].is_one()
        leads.append(lead)
    assert leads == sorted(set(leads))
    for i, vec in enumerate(ker):
        assert all(vec[lead].is_zero() for j, lead in enumerate(leads)
                   if j != i)


@_properties
@given(st.one_of(sparse_matrices(), block_matrices()),
       st.sampled_from(["Q(xi_n)", "F_p", "small F_p"]))
def test_kernel_vectors_are_sparse_and_the_rref_kernel(A, field):
    # over Q(xi_n) and over F_p, each kernel vector is a sparse row with no
    # zero entry, its columns in ascending order, the least of them holding
    # its leading 1, and the vectors densify to the reduced echelon kernel
    # of the plain elimination
    if field != "Q(xi_n)":
        A = _residues(A, modular_prime(A.n) if field == "F_p"
                      else SMALL_PRIME[A.n])
    if A.prime is None:
        is_zero, is_one = CycNum.is_zero, CycNum.is_one
    else:
        is_zero, is_one = (lambda x: not 0 < x < A.prime), (lambda x: x == 1)
    ker = A.kernel_basis()
    for vec in ker:
        assert vec and not any(map(is_zero, vec.values()))
        assert list(vec) == sorted(vec) and is_one(vec[min(vec)])
    assert [dense(vec, A.cols) for vec in ker] \
        == [dense(row, A.cols) for row in rref_kernel(A)]


@_properties
@given(st.one_of(sparse_matrices(), block_matrices()))
def test_row_echelon_is_the_plain_rref(A):
    rows = sorted(_reduced(A).items())
    assert ([row for _, row in rows], [p for p, _ in rows]) == rref(A)


@_properties
@given(st.one_of(sparse_matrices(), block_matrices()))
def test_reduced_by_last_column_is_the_rref_of_the_mirror(A):
    # keyed by each row's last column, the reduced echelon basis is the
    # plain rref of A with its columns in reverse order, read back
    flip = A.cols - 1
    mirror = CycMatrix(A.n, A.rows, A.cols,
                       {r: {flip - c: v for c, v in row.items()}
                        for r, row in A.data.items()})
    rows, pivots = rref(mirror)
    assert _reduced(A, last=True) == {
        flip - p: {flip - c: v for c, v in row.items()}
        for row, p in zip(rows, pivots)}


def _vectors(n, size):
    """Vectors of length size over Q(xi_n) with entries c * xi^k, |c| <= 2."""
    entry = st.builds(lambda k, c: cyc(n, k) * CycNum.rational(n, c),
                      st.integers(0, n - 1), st.integers(-2, 2))
    return st.lists(entry, min_size=size, max_size=size)


def _plain_rank(A, b=None):
    """The rank of A, or of [A | b], through the plain `rref`."""
    if b is not None:
        aug = CycMatrix(A.n, A.rows, A.cols + 1,
                        {r: dict(row) for r, row in A.data.items()})
        for r, v in enumerate(b):
            aug.set(r, A.cols, v)
        A = aug
    return len(rref(A)[1])


@_properties
@given(st.one_of(sparse_matrices(), block_matrices()), st.data())
def test_solve_consistent_and_inconsistent(A, data):
    # b = A x0: solve returns some x with A x = b, and the kernel basis
    x0 = data.draw(_vectors(A.n, A.cols))
    b = A.apply(x0)
    x, homogeneous = solve(A, b)
    assert len(x) == A.cols and A.apply(x) == b
    assert homogeneous == A.kernel_basis()
    # an arbitrary b: None exactly when rank [A | b] > rank A
    b = data.draw(_vectors(A.n, A.rows))
    solution = solve(A, b)
    if _plain_rank(A, b) > _plain_rank(A):
        assert solution is None
    else:
        assert solution is not None and A.apply(solution[0]) == b


class _Unread(int):
    """A residue that fails when the elimination computes with it."""

    def __mod__(self, other):
        raise AssertionError("a row after full rank was read")

    __mul__ = __rmul__ = __mod__


def test_modular_rank_stops_at_full_rank():
    # once the pivot rows span F_p^cols the rows left are not read
    n = 3
    p = SMALL_PRIME[n]
    A = CycMatrix(n, 3, 2, {0: {0: 1}, 1: {1: 1}, 2: {0: _Unread(3)}}, p)
    assert A.rank() == 2
