"""Exact sparse linear algebra over Q(xi_n)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knyd.cyclotomic import CycNum, cyc, modular_prime
from knyd.linalg import CycMatrix


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
        assert all(x.is_zero() for x in A.apply(vec))


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
    k2 = A.copy().kernel_basis()
    assert k1 == k2
    # canonical reduced form: each vector has a leading 1 in a distinct
    # coordinate that vanishes on every other basis vector
    leads = []
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
    # a block-diagonal-with-shuffle matrix exercises the connected-component
    # path; compare against the plain rref-based rank
    n = 3
    A = CycMatrix.zero(n, 6, 6)
    one = CycNum.one(n)
    entries = [(0, 0), (0, 2), (1, 4), (2, 2), (3, 1), (3, 3), (4, 5)]
    for r, c in entries:
        A.set(r, c, one)
    rows, pivots = A.rref()
    assert A.rank() == len(pivots)
    ker = A.kernel_basis()
    assert len(ker) == A.cols - A.rank()
    for vec in ker:
        assert all(x.is_zero() for x in A.apply(vec))


def test_solve():
    n = 3
    A = _mat(n, [[1, 1], [0, 1]])
    b = [CycNum.rational(n, 3), cyc(n, 1)]
    x, homogeneous = A.solve(b)
    assert A.apply(x) == b
    assert homogeneous == []  # invertible system: trivial kernel
    # inconsistent system
    B = _mat(n, [[1, 1], [1, 1]])
    assert B.solve([CycNum.zero(n), CycNum.one(n)]) is None


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
    assert A.rank(modular_prime(n)) == 1


def test_shape_mismatch_rejected():
    n = 3
    A = CycMatrix.zero(n, 2, 3)
    B = CycMatrix.zero(n, 2, 2)
    with pytest.raises(ValueError):
        A + B
    with pytest.raises(ValueError):
        B @ A @ A


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


@_properties
@given(sparse_matrices())
def test_modular_rank_is_a_lower_bound(A):
    exact = A.rank()
    for p in (modular_prime(A.n), SMALL_PRIME[A.n]):
        rank_p = A.rank(p)
        assert rank_p is not None and rank_p <= exact


@_properties
@given(sparse_matrices())
def test_rank_of_transpose(A):
    assert A.rank() == A.transpose().rank()


@_properties
@given(sparse_matrices())
def test_rank_nullity_and_kernel(A):
    ker = A.kernel_basis()
    assert A.rank() + len(ker) == A.cols
    for vec in ker:
        assert all(x.is_zero() for x in A.apply(vec))


def test_modular_rank_undefined_on_p_in_denominator():
    n = 3
    p = SMALL_PRIME[n]
    A = _mat(n, [[1, Fraction(1, p)], [0, 1]])
    assert A.rank() == 2
    assert A.rank(p) is None
    assert A.rank(modular_prime(n)) == 2
