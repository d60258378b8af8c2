"""Quantum symmetrizers, graded dimensions, finiteness criteria,
square-zero loci, and presentations."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knyd import nichols
from knyd.cyclotomic import (CycNum, cyc, mod_p, modular_prime, root_images,
                             root_order)
from knyd.hopf import KnAlgebra
from knyd.linalg import CycMatrix, _reduced
from knyd.ydmod import (U, V, W, braided_space, braiding, build_simple,
                        direct_sum, list_simples)
from knyd.nichols import (BraidedSpace, MemoryBudgetError, a2_criterion,
                          check_braid_equation, graded_dims,
                          infinite_precheck, is_square_zero,
                          presentation_check, square_zero_monomial_space,
                          sum_criterion, tensor_vector)
from knyd.racks import (cq_braiding, d_cocycle, dihedral_rack, sF_braiding,
                        standard_solution, w_cocycle)
from oracles import (BraidWord, braid_representation, contains_profile,
                     copy_matrix, dense, diagonal_data, matsumoto_lift,
                     naive_quantum_symmetrizer, quantum_symmetrizer, solve,
                     transpose)


@pytest.fixture(scope="module")
def A3():
    return KnAlgebra(3)


def _space(A, text_label):
    from knyd.ydmod import parse_label
    return braided_space(build_simple(A, parse_label(text_label, A.n)))


# -- braid words and the Matsumoto section -------------------------------------------


def test_matsumoto_lift_basics():
    assert matsumoto_lift((0, 1, 2)).letters == ()
    assert matsumoto_lift((1, 0, 2)).letters == (1,)
    # longest element of S_3 has length 3
    assert len(matsumoto_lift((2, 1, 0)).letters) == 3
    with pytest.raises(ValueError):
        matsumoto_lift((0, 0, 1))


def test_lift_length_equals_inversions_s4():
    for sigma in itertools.permutations(range(4)):
        word = matsumoto_lift(sigma)
        inv = sum(1 for a in range(4) for b in range(a + 1, 4)
                  if sigma[a] > sigma[b])
        assert len(word.letters) == inv, sigma


def test_lift_is_word_independent_s4(A3):
    # a second reduced-word generator: insertion sort from the right.
    # Matsumoto's theorem says any two reduced words of the same
    # permutation give the same braid-group element, hence equal matrices
    # in every representation.
    def insertion_word(sigma):
        a = list(sigma)
        k = len(a)
        swaps = []
        for top in range(k - 1, 0, -1):
            pos = a.index(max(a[:top + 1]))
            while pos < top:
                a[pos], a[pos + 1] = a[pos + 1], a[pos]
                swaps.append(pos + 1)
                pos += 1
        return BraidWord(k, tuple(reversed(swaps)))

    B = _space(A3, "W(-1,1,1)")  # a genuinely non-symmetric braiding
    for sigma in itertools.permutations(range(4)):
        w1 = matsumoto_lift(sigma)
        w2 = insertion_word(sigma)
        assert len(w1.letters) == len(w2.letters), sigma
        if w1.letters != w2.letters:
            assert braid_representation(B, w1) == \
                braid_representation(B, w2), sigma


def test_braid_relation_as_matrices(A3):
    B = _space(A3, "W(-1,0,0)")
    s1 = BraidWord(3, (1,))
    s2 = BraidWord(3, (2,))
    lhs = (braid_representation(B, s1) @ braid_representation(B, s2)
           @ braid_representation(B, s1))
    rhs = (braid_representation(B, s2) @ braid_representation(B, s1)
           @ braid_representation(B, s2))
    assert lhs == rhs


def test_braid_equation_for_all_simple_braidings(A3):
    for L in list_simples(A3):
        B = braided_space(build_simple(A3, L))
        assert check_braid_equation(B), str(L)


def test_braid_equation_negative_control(A3):
    from knyd.nichols import BraidedSpace
    c = CycMatrix.identity(3, 4)
    c.set(0, 3, A3.scalar(1))  # not even invertible as a braiding candidate
    c.set(1, 1, A3.scalar(2))
    B = BraidedSpace(2, c, name="corrupt")
    assert not check_braid_equation(B)


def _braid_equation_oracle(c, d):
    ident = CycMatrix.identity(c.n, d)
    c1, c2 = c.kron(ident), ident.kron(c)
    return c1 @ c2 @ c1 == c2 @ c1 @ c2


def _check_and_route(B):
    """check_braid_equation(B), and whether it took the route of a
    permutation braiding (no CycMatrix.kron call) rather than the
    fallback."""
    calls = []
    kron = CycMatrix.kron

    def counting(self, other):
        calls.append(1)
        return kron(self, other)

    CycMatrix.kron = counting
    try:
        return check_braid_equation(B), not calls
    finally:
        CycMatrix.kron = kron


def _pm_xi(n, j):
    return cyc(n, j) if j < n else -cyc(n, j - n)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_monomial_braid_equation_against_matrix_products(data):
    # a monomial c, one root entry per column: a permutation matrix for at
    # least half the examples, else any row for each column.  The rows
    # route is taken exactly for a permutation matrix, and the verdict is
    # that of the matrix products, for c and for its transpose
    n = 3
    d = data.draw(st.sampled_from([2, 3]))
    if data.draw(st.booleans()):
        rows = data.draw(st.permutations(range(d * d)))
    else:
        rows = [data.draw(st.integers(0, d * d - 1)) for _ in range(d * d)]
    c = CycMatrix.zero(n, d * d, d * d)
    for col, row in enumerate(rows):
        c.set(row, col, _pm_xi(n, data.draw(st.integers(0, 2 * n - 1))))
    permutation = sorted(rows) == list(range(d * d))
    verdicts = []
    for m in (c, transpose(c)):
        verdict, rows_route = _check_and_route(BraidedSpace(d, m))
        assert rows_route == permutation
        assert verdict == _braid_equation_oracle(m, d)
        verdicts.append(verdict)
    # c holds the braid equation exactly when its transpose does
    assert verdicts[0] == verdicts[1]


def test_rack_braidings_braid_equation_against_matrix_products():
    n = 3
    B, R = standard_solution(n), dihedral_rack(n)
    spaces = [f(n, eps, i, m) for f in (
        lambda *lab: sF_braiding(B, w_cocycle(*lab)),
        lambda *lab: cq_braiding(R, d_cocycle(*lab)))
        for eps in (1, -1) for i in range(n) for m in range(n)]
    for S in spaces:
        assert _check_and_route(S) == (True, True)
        # one entry times xi: still a permutation matrix
        bad = copy_matrix(S.c)
        r, row = next(iter(bad.data.items()))
        col = next(iter(row))
        bad.set(r, col, row[col] * cyc(n, 1))
        verdict, monomial = _check_and_route(BraidedSpace(S.dim, bad))
        assert monomial and verdict == _braid_equation_oracle(bad, S.dim)
        # a column with two entries, or a non-root entry, takes the
        # fallback, which must still be right
        two = copy_matrix(S.c)
        two.set((r + 1) % S.dim ** 2, col, cyc(n, 1))
        scaled = copy_matrix(S.c)
        scaled.set(r, col, row[col] * CycNum.rational(n, 2))
        for c in (two, scaled):
            verdict, monomial = _check_and_route(BraidedSpace(S.dim, c))
            assert not monomial
            assert verdict == _braid_equation_oracle(c, S.dim)
    # the flip scaled by 2 is a braiding with no root-of-unity entries
    flip = CycMatrix.zero(n, 9, 9)
    for a in range(3):
        for b in range(3):
            flip.set(b * 3 + a, a * 3 + b, CycNum.rational(n, 2))
    assert _check_and_route(BraidedSpace(3, flip)) == (True, False)


# -- quantum symmetrizers ------------------------------------------------------------


@pytest.mark.parametrize("label", ["V(+1,1,1)", "U(1,0,1,0)", "W(-1,0,0)",
                                   "W(-1,1,1)"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_recursive_qs_equals_naive(A3, label, k):
    B = _space(A3, label)
    assert quantum_symmetrizer(B, k) == naive_quantum_symmetrizer(B, k)


def _scaled_flip(n, d, scale):
    flip = CycMatrix.zero(n, d * d, d * d)
    for a in range(d):
        for b in range(d):
            flip.set(b * d + a, a * d + b, scale)
    return BraidedSpace(d, flip)


def _half_diagonal(n):
    """The diagonal braiding x_a (x) x_b -> q_ab x_b (x) x_a of a plane
    with q_00 = 1/2, q_01 = q_10 = xi and q_11 = -1."""
    half = CycMatrix.zero(n, 4, 4)
    for (a, b), q in {(0, 0): CycNum.rational(n, Fraction(1, 2)),
                      (0, 1): cyc(n, 1), (1, 0): cyc(n, 1),
                      (1, 1): -CycNum.one(n)}.items():
        half.set(b * 2 + a, a * 2 + b, q)
    return BraidedSpace(2, half)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_recursive_qs_equals_naive_off_the_root_entries(k):
    # braidings with an entry that is no root of unity: _coset_factor
    # applies them one c_j at a time, not by following rows through the
    # strand moves of a permutation matrix
    n = 3
    for B in (_scaled_flip(n, 3, CycNum.rational(n, 2)), _half_diagonal(n)):
        assert nichols._permutation_rows(B.c) is None
        assert quantum_symmetrizer(B, k) == naive_quantum_symmetrizer(B, k)


def _rack_space(n=3):
    return cq_braiding(dihedral_rack(n), d_cocycle(n, -1, 1, 0))


def _jordan_plane(n):
    """The braiding of the Jordan plane, c(x_a (x) x_1) = x_1 (x) x_a and
    c(x_a (x) x_2) = (x_2 + x_1) (x) x_a: two of its columns have two
    entries, and c is not its own transpose."""
    c = CycMatrix.zero(n, 4, 4)
    for row, col in ((0, 0), (2, 1), (0, 1), (1, 2), (3, 3), (1, 3)):
        c.set(row, col, CycNum.one(n))
    return BraidedSpace(2, c)


# spaces on both routes of _coset_factor: permutation matrices with root
# entries (a simple, a sum of two simples, a rack braiding) and braidings
# with other entries (2 flip, a 1/2 on the diagonal, the Jordan plane)
_BOTH_KINDS = {
    "W(-1,0,0)": lambda: _space(KnAlgebra(3), "W(-1,0,0)"),
    "U(0,1,0,2)+U(0,1,2,1)": lambda: braided_space(direct_sum(
        build_simple(KnAlgebra(3), U(3, 0, 1, 0, 2)),
        build_simple(KnAlgebra(3), U(3, 0, 1, 2, 1)))),
    "rack": _rack_space,
    "2 flip": lambda: _scaled_flip(3, 3, CycNum.rational(3, 2)),
    "half diagonal": lambda: _half_diagonal(3),
    "Jordan plane": lambda: _jordan_plane(3),
}


@pytest.mark.parametrize("name", sorted(_BOTH_KINDS))
def test_right_coset_factorization_equals_the_naive_symmetrizer(name):
    # QS_k = (QS_{k-1} (x) id) T*_k, with the naive QS_{k-1} on the left
    B = _BOTH_KINDS[name]()
    ident = CycMatrix.identity(B.n, B.dim)
    monomial = name not in ("2 flip", "half diagonal", "Jordan plane")
    assert (nichols._permutation_rows(B.c) is not None) == monomial
    for k in (2, 3, 4):
        times = nichols._coset_factor(B, k, nichols._permutation_rows(B.c))
        assert times(naive_quantum_symmetrizer(B, k - 1).kron(ident)) == \
            naive_quantum_symmetrizer(B, k), (name, k)


@pytest.mark.parametrize("name", sorted(_BOTH_KINDS))
def test_qs2_is_id_plus_c(name):
    # the square-zero and presentation checks read QS_2 as id + c
    B = _BOTH_KINDS[name]()
    assert nichols._qs2(B) == naive_quantum_symmetrizer(B, 2)


@pytest.mark.parametrize("name", ["W(-1,0,0)", "rack"])
def test_coset_factor_over_f_p_is_the_image(name):
    # X T*_k over F_p, under each embedding, for X reaching only some
    # columns: the image of X T*_k over Q(xi_n)
    B = _BOTH_KINDS[name]()
    p = modular_prime(B.n)
    for k in (2, 3, 4):
        size = B.dim ** k
        X = naive_quantum_symmetrizer(B, k)
        X.data = {r: {c: v for c, v in row.items() if c % 3}
                  for r, row in X.data.items() if r % 2}
        times = nichols._coset_factor(B, k, nichols._permutation_rows(B.c))
        exact = times(X)
        for u, roots in enumerate(root_images(B.n, p)):
            def image(M):
                return CycMatrix.from_sums(
                    B.n, M.rows, M.cols,
                    {r: {c: _embed(v, roots, p) for c, v in row.items()}
                     for r, row in M.data.items()}, p)
            assert times(image(X), roots) == image(exact), (k, u)


def _embed(v, roots, p):
    """The image of v in F_p under the embedding whose root images are
    roots: xi goes to roots[n + 1], since the root of exponent n + 1,
    which is even and 1 mod n, is xi."""
    n = v.n
    xi = roots[n + 1]
    num = sum(c * pow(xi, i, p) for i, c in enumerate(v.num))
    return num * pow(v.den, -1, p) % p


@pytest.mark.parametrize("name", sorted(_BOTH_KINDS))
def test_graded_dims_against_the_naive_symmetrizer(name):
    # to degree 4, the ranks and the reduced kernel bases of the naive
    # k!-term QS_k, over both routes of graded_dims
    B = _BOTH_KINDS[name]()
    report = graded_dims(B, 4, want_relations=True)
    assert len(report.dims) == 5
    for k in (2, 3, 4):
        qs = naive_quantum_symmetrizer(B, k)
        assert report.dims[k] == qs.rank(), (name, k)
        assert report.relations[k] == qs.kernel_basis(), (name, k)


def _assert_reduced_echelon(vectors):
    """Each vector has a leading 1, in ascending columns, and every other
    vector vanishes in that column."""
    leads = [next(i for i, x in enumerate(vec) if not x.is_zero())
             for vec in vectors]
    assert leads == sorted(set(leads))
    for vec, lead in zip(vectors, leads):
        assert vec[lead].is_one()
    for i, vec in enumerate(vectors):
        assert all(vec[lead].is_zero() for j, lead in enumerate(leads)
                   if j != i)


@pytest.mark.parametrize("n, summands, top", [
    (3, "V(+1,1,1)", 4), (3, "U(1,0,1,0)", 4), (3, "W(-1,0,0)", 4),
    (3, "W(-1,1,1)", 4), (5, "W(-1,0,0)", 3),
    (3, "U(0,1,0,2);U(0,1,2,1)", 3)])
def test_graded_dims_against_full_symmetrizer(n, summands, top):
    # the factored recursion carries only the image of QS_k; its ranks and
    # relations must agree with the full d^k x d^k matrix, degree by degree
    from knyd.ydmod import parse_label
    A = KnAlgebra(n)
    modules = [build_simple(A, parse_label(text, n))
               for text in summands.split(";")]
    M = modules[0]
    for other in modules[1:]:
        M = direct_sum(M, other)
    B = braided_space(M)
    report = graded_dims(B, top, want_relations=True)
    assert sorted(report.relations) == list(range(2, top + 1))
    for k in range(2, top + 1):
        qs = quantum_symmetrizer(B, k)
        rank = qs.rank()
        assert report.dims[k] == rank, k
        rels = [dense(vec, B.dim ** k) for vec in report.relations[k]]
        assert len(rels) == B.dim ** k - rank, k
        for vec in rels:
            assert all(x.is_zero() for x in qs.apply(vec)), k
        _assert_reduced_echelon(rels)


@pytest.mark.parametrize("label", ["U(0,1,0,2)", "W(-1,0,0)", "W(-1,1,1)"])
def test_reduced_echelon_kron_identity_is_reduced(A3, label):
    # R_{k-1} (x) id, the left factor of N_k in graded_dims, is reduced
    # already, so of full row rank: row j has its pivot 1 at
    # P[j // d] d + j mod d, keyed by the rows' first or (as graded_dims
    # keys them) last columns
    B = _space(A3, label)
    d = B.dim
    for k, last in itertools.product((2, 3), (False, True)):
        pivots = sorted(red := _reduced(quantum_symmetrizer(B, k), last))
        R_id = CycMatrix(3, len(red), d ** k,
                         {i: red[p] for i, p in enumerate(pivots)}).kron(
            CycMatrix.identity(3, d))
        assert _reduced(R_id, last) == {
            pivots[j // d] * d + j % d: R_id.data[j]
            for j in range(R_id.rows)}


def test_qs1_is_identity(A3):
    B = _space(A3, "W(-1,0,0)")
    assert quantum_symmetrizer(B, 1) == CycMatrix.identity(3, 3)


def test_rank_nullity_per_degree(A3):
    B = _space(A3, "W(-1,0,0)")
    report = graded_dims(B, 4, want_relations=True)
    for deg in range(2, 5):
        rels = report.relations.get(deg, [])
        assert report.dims[deg] + len(rels) == 3 ** deg


def test_memory_budget_refuses_the_first_degree_past_it(A3, monkeypatch):
    # with the size of the process fixed, a budget one byte short of what
    # degree 4 of W(-1,1,0) holds: graded_dims runs degrees 2 and 3 and
    # refuses degree 4
    B = _space(A3, "W(-1,1,0)")
    dims = graded_dims(B, 4, want_relations=False).dims
    need = nichols._degree_bytes(3, 4, dims[3], False)
    assert nichols._degree_bytes(3, 3, dims[2], False) < need
    monkeypatch.setenv("KN_MEMORY_MB", "1")
    monkeypatch.setattr(nichols, "_process_bytes", lambda: 2 ** 20 - need + 1)
    with pytest.raises(MemoryBudgetError,
                       match="^degree 4 of the Nichols algebra of a "
                             "3-dimensional space exceeds"):
        graded_dims(B, 6, want_relations=False)


def test_a_budget_between_the_two_estimates_takes_the_exact_route(
        A3, monkeypatch):
    # degree 4 of W(-1,1,0) at n = 3 fits the budget over Q(xi_n), to the
    # byte, but not over its phi(3) = 2 embeddings into F_p in lockstep:
    # the F_p route gives way and the exact route computes it
    B = _space(A3, "W(-1,1,0)")
    exact = _exact_report(monkeypatch, B, 4, False)
    need = nichols._degree_bytes(3, 4, exact.dims[3], False)
    assert need < nichols._degree_bytes(3, 4, exact.dims[3], False, 2)
    monkeypatch.setenv("KN_MEMORY_MB", "1")
    monkeypatch.setattr(nichols, "_process_bytes", lambda: 2 ** 20 - need)
    routes = _routes(monkeypatch)
    assert graded_dims(B, 4, want_relations=False) == exact
    assert routes == ["refused", "exact"]


def _assert_estimate_bounds(monkeypatch, B, cutoff, relations):
    """The memory each degree of graded_dims newly allocates, traced by
    tracemalloc, stays within the estimate its budget check is given."""
    marks = []

    def record(need, what):
        current, peak = tracemalloc.get_traced_memory()
        marks.append((need, current, peak))
        tracemalloc.reset_peak()

    monkeypatch.setattr(nichols, "_check_budget", record)
    tracemalloc.start()
    try:
        graded_dims(B, cutoff, want_relations=relations)
        marks.append((None,) + tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(marks) > 4
    for (need, start, _), (_, _, peak) in zip(marks, marks[1:]):
        assert peak - start <= need


_ESTIMATE_CASES = [("W(-1,1,0)", 5, True), ("W(-1,1,0)", 5, False),
                   ("U(1,0,1,0)", 9, False)]


@pytest.mark.parametrize("label, cutoff, relations", _ESTIMATE_CASES)
def test_degree_estimate_bounds_what_each_degree_allocates(
        A3, monkeypatch, label, cutoff, relations):
    # these braidings are certified: the degrees run over F_p in lockstep
    _assert_estimate_bounds(monkeypatch, _space(A3, label), cutoff, relations)


@pytest.mark.parametrize("label, cutoff, relations", _ESTIMATE_CASES)
def test_exact_degree_estimate_bounds_what_each_degree_allocates(
        A3, monkeypatch, label, cutoff, relations):
    # the same braidings with no F_p embedding offered: the degrees run
    # over Q(xi_n), as for any braiding outside the certificate
    monkeypatch.setattr(nichols, "_embeddings", lambda B: None)
    _assert_estimate_bounds(monkeypatch, _space(A3, label), cutoff, relations)


@pytest.mark.parametrize("relations", [False, True])
def test_dense_degree_estimate_bounds_what_each_degree_allocates(
        monkeypatch, relations):
    # the Jordan plane is not a permutation braiding: its degrees run over
    # Q(xi_n) on dense rows whose entries grow with the degree
    _assert_estimate_bounds(monkeypatch, _jordan_plane(3), 9, relations)


def test_degree_eight_of_a_three_dimensional_space_fits_the_budget(
        monkeypatch):
    # degree 8 of W(-1,1,0) at n = 3, after r_7 = 228, holds M_8 of
    # 6561 x 684 and R_8; the full QS_8 that the budget used to be sized by
    # has 6561^2 entries and was refused under the default 1024 MB
    monkeypatch.delenv("KN_MEMORY_MB", raising=False)
    need = nichols._degree_bytes(3, 8, 228, False)
    assert need < 512 * 2 ** 20
    nichols._check_budget(need, "degree 8")
    with pytest.raises(MemoryBudgetError):
        nichols._check_budget(200 * 3 ** 8 * 3 ** 8, "QS_8")


def test_degree_eight_fits_the_budget_over_f_p_too(monkeypatch):
    # the estimate graded_dims checks first, for W(-1,1,0) at n = 3: M_8
    # and R_8 over each of phi(3) = 2 fields, and R_8 lifted
    monkeypatch.delenv("KN_MEMORY_MB", raising=False)
    need = nichols._degree_bytes(3, 8, 228, False, 2)
    assert nichols._degree_bytes(3, 8, 228, False) < need < 512 * 2 ** 20
    nichols._check_budget(need, "degree 8")


# -- graded dimensions: one-dimensional modules --------------------------------------


@pytest.mark.parametrize("n", [3, 5])
def test_one_dimensional_totals(n):
    A = KnAlgebra(n)
    for eps in (1, -1):
        for i in range(n):
            for m in range(n):
                if (2 * i * (m - i)) % n == 0:
                    continue
                B = braided_space(build_simple(A, V(n, eps, i, m)))
                rep = graded_dims(B, n + 1, want_relations=False)
                expected = root_order(cyc(n, i * (m - i)))
                assert rep.status == "finite"
                assert rep.total == expected, (eps, i, m)
                assert rep.hilbert() == [1] * expected


def test_one_dimensional_symmetric_line_is_infinite(A3):
    # q = 1: the fixed-vector witness fires and the status is infinite
    B = _space(A3, "V(+1,0,0)")
    rep = graded_dims(B, 4, want_relations=False)
    assert rep.status == "infinite"
    assert rep.witness is not None


# -- graded dimensions: the three-dimensional diagonal family ------------------------


@pytest.mark.parametrize("m", [0, 1, 2])
def test_w_minus_0m_hilbert_vector(A3, m):
    B = _space(A3, "W(-1,0,%d)" % m)
    rep = graded_dims(B, 6, want_relations=False)
    assert rep.status == "finite"
    assert rep.dims == [1, 3, 4, 3, 1, 0]
    assert rep.total == 12
    assert rep.top_degree == 4


@pytest.mark.parametrize("label", ["W(-1,1,1)", "W(-1,2,2)"])
def test_w_minus_diagonal_same_hilbert_vector(A3, label):
    # equal graded dimensions across the twist-equivalence class
    B = _space(A3, label)
    rep = graded_dims(B, 6, want_relations=False)
    assert rep.status == "finite"
    assert rep.dims == [1, 3, 4, 3, 1, 0]
    assert rep.total == 12


# -- A2 and quantum-linear-space criteria --------------------------------------------


def test_a2_example_finite(A3):
    crit = a2_criterion(U(3, 1, 0, 1, 0))
    assert crit == {"label": "U(0,1,2,1)", "finite": True, "N": 3,
                    "kind": "cartan-A2", "predicted_total": 27}
    B = _space(A3, "U(1,0,1,0)")
    rep = graded_dims(B, 9, want_relations=False)
    assert rep.status == "finite"
    assert rep.total == 27
    # PBW Hilbert vector: (1+t+t^2)^2 (1+t^2+t^4)
    assert rep.hilbert() == [1, 2, 4, 4, 5, 4, 4, 2, 1]
    dd = diagonal_data(B)
    assert dd is not None and dd.cartan_a2


def test_a2_example_infinite(A3):
    crit = a2_criterion(U(3, 1, 0, 0, 0))
    assert not crit["finite"] and crit["N"] is None


def test_a2_criterion_invariant_under_relabeling():
    n = 3
    for i in range(n):
        for j in range(n):
            for m in range(n):
                for t in range(n):
                    if i == j and t == (m - 2 * i) % n:
                        continue
                    a = a2_criterion(U(n, i, j, m, t))
                    b = a2_criterion(U(n, j, i, t + 2 * i, m - 2 * j))
                    assert a == b, (i, j, m, t)


# frozen from the exhaustive QS-rank sweep over all 36 canonical U labels
_FINITE_U_N3 = {
    "U(0,1,0,2)": 27, "U(0,1,1,1)": 9, "U(0,1,1,2)": 9, "U(0,1,2,1)": 27,
    "U(0,2,0,1)": 27, "U(0,2,1,2)": 27, "U(0,2,2,1)": 9, "U(0,2,2,2)": 9,
    "U(1,1,0,2)": 27, "U(1,1,1,0)": 27, "U(2,2,0,1)": 27, "U(2,2,1,1)": 27,
}


def test_a2_criterion_totals_at_composite_n():
    # n = 9: labels whose vertex root xi^X has order N = 3, a proper divisor
    # of n; ten seeded labels of each finite kind must reach a zero
    # component with the predicted total N^3 or N^2
    n = 9
    A = KnAlgebra(n)
    by_kind: dict = {}
    for L in list_simples(A):
        if L.kind == "U":
            crit = a2_criterion(L)
            if crit["finite"] and crit["N"] == 3:
                by_kind.setdefault(crit["kind"], []).append((L, crit))
    assert sorted(by_kind) == ["cartan-A2", "quantum-linear-space"]
    rng = random.Random(9)
    for kind in sorted(by_kind):
        for L, crit in rng.sample(by_kind[kind], 10):
            B = braided_space(build_simple(A, L))
            rep = graded_dims(B, 9, want_relations=False)
            assert rep.status == "finite", str(L)
            assert rep.total == crit["predicted_total"], str(L)


def test_criterion_matches_oracle_table(A3):
    for L in list_simples(A3):
        if L.kind != "U":
            continue
        crit = a2_criterion(L)
        expected = _FINITE_U_N3.get(str(L))
        assert crit["finite"] == (expected is not None), str(L)
        assert crit["predicted_total"] == expected, str(L)


def test_quantum_linear_space_label(A3):
    crit = a2_criterion(U(3, 0, 1, 1, 1))
    assert crit["finite"] and crit["kind"] == "quantum-linear-space"
    assert crit["predicted_total"] == 9
    B = _space(A3, "U(0,1,1,1)")
    rep = graded_dims(B, 6, want_relations=False)
    assert rep.status == "finite" and rep.total == 9
    assert rep.hilbert() == [1, 2, 3, 2, 1]
    dd = diagonal_data(B)
    assert dd.quantum_linear_space and not dd.cartan_a2


def test_sum_criterion_pair(A3):
    L1, L2 = U(3, 0, 1, 0, 2), U(3, 0, 1, 2, 1)
    result = sum_criterion([L1, L2])
    assert result["finite"]
    assert result["predicted_total"] == 729
    # the direct sum factors as the product of the two A2 Hilbert series,
    # checked degree-by-degree to the desk-scale cutoff
    M = direct_sum(build_simple(A3, L1), build_simple(A3, L2))
    rep = graded_dims(braided_space(M), 6, want_relations=False)
    a2_series = [1, 2, 4, 4, 5, 4, 4, 2, 1]
    product = [sum(a2_series[a] * a2_series[d - a]
                   for a in range(max(0, d - 8), min(d, 8) + 1))
               for d in range(7)]
    assert rep.dims == product


def test_sum_criterion_failing_pair(A3):
    # two copies of the same A2 label never disconnect (the cross edge
    # exponent doubles the nonzero vertex exponent)
    result = sum_criterion([U(3, 1, 0, 1, 0), U(3, 1, 0, 1, 0)])
    assert not result["finite"]
    assert all(r["finite"] for r in result["per_label"])
    assert not result["per_pair"][0]["disconnected"]


def test_sum_criterion_disconnected_is_the_trivial_double_braiding_n9():
    # composite n: a seeded U label, U(3,4,5,6), against the 3239 other U
    # labels; the pair is disconnected exactly when c_{M2,M1} c_{M1,M2} is
    # the identity
    A = KnAlgebra(9)
    labels = [L for L in list_simples(A) if L.kind == "U"]
    L1 = random.Random(9).choice(labels)
    M1 = build_simple(A, L1)
    identity = CycMatrix.identity(9, 4)
    disconnected = 0
    for L2 in labels:
        if L2 == L1:
            continue
        M2 = build_simple(A, L2)
        trivial = braiding(M2, M1) @ braiding(M1, M2) == identity
        pair = sum_criterion([L1, L2])["per_pair"][0]
        assert pair["disconnected"] == trivial, str(L2)
        disconnected += trivial
    assert disconnected == 36


def _series_product(a, b, top):
    """The coefficients of degree 0..top of the product of two series."""
    a, b = a + [0] * top, b + [0] * top
    return [sum(a[i] * b[d - i] for i in range(d + 1)) for d in range(top + 1)]


def _check_sums(A, pairs):
    """For each pair of finite U labels at A, the Hilbert series of a
    disconnected sum (`sum_criterion`) is the product of the summands'
    through degree 5, and that of a connected sum already differs from the
    product in degree 2; returns the number of disconnected pairs."""
    series = {}
    for L in {L for pair in pairs for L in pair}:
        series[L] = graded_dims(braided_space(build_simple(A, L)), 5,
                                want_relations=False).dims
    disconnected = 0
    for L1, L2 in pairs:
        sum_space = braided_space(direct_sum(build_simple(A, L1),
                                             build_simple(A, L2)))
        if sum_criterion([L1, L2])["per_pair"][0]["disconnected"]:
            disconnected += 1
            rep = graded_dims(sum_space, 5, want_relations=False)
            assert rep.dims == _series_product(series[L1], series[L2], 5), \
                (str(L1), str(L2))
        else:
            rep = graded_dims(sum_space, 2, want_relations=False)
            assert rep.dims[2] != _series_product(series[L1], series[L2],
                                                  2)[2], (str(L1), str(L2))
    return disconnected


def test_sum_criterion_against_graded_dims_of_the_sums(A3):
    # every pair of distinct finite U labels at n = 3
    labels = sorted(L for L in list_simples(A3)
                    if L.kind == "U" and str(L) in _FINITE_U_N3)
    assert len(labels) == 12
    assert _check_sums(A3, list(itertools.combinations(labels, 2))) == 12
    # at the composite n = 15, seeded pairs of finite U labels: the first
    # three disconnected and the first three connected ones drawn
    A = KnAlgebra(15)
    finite = [L for L in list_simples(A)
              if L.kind == "U" and a2_criterion(L)["finite"]]
    rng = random.Random(15)
    drawn = {True: [], False: []}
    while min(map(len, drawn.values())) < 3:
        L1, L2 = rng.sample(finite, 2)
        pairs = drawn[sum_criterion([L1, L2])["per_pair"][0]["disconnected"]]
        if len(pairs) < 3:
            pairs.append((L1, L2))
    assert (U(15, 1, 9, 5, 5), U(15, 12, 13, 1, 1)) in drawn[True]
    assert _check_sums(A, drawn[True] + drawn[False]) == 3


# -- infiniteness pre-check -----------------------------------------------------------


def test_infinite_precheck_witnesses(A3):
    n = 3
    for m in range(n):
        B = _space(A3, "W(+1,0,%d)" % m)
        assert infinite_precheck(B) is not None, m
    for i in range(1, n):
        B = _space(A3, "W(+1,%d,%d)" % (i, i))
        assert infinite_precheck(B) is not None, i
    # V(+1,i,m) with xi^{2i(m-i)} = 1 has c(v (x) v) = v (x) v
    B = _space(A3, "V(+1,1,1)")
    assert infinite_precheck(B) is not None
    # negative: the finite cases carry no fixed vector
    assert infinite_precheck(_space(A3, "W(-1,0,0)")) is None
    assert infinite_precheck(_space(A3, "U(1,0,1,0)")) is None


def test_infinite_status_with_witness(A3):
    B = _space(A3, "W(+1,0,0)")
    rep = graded_dims(B, 3, want_relations=False)
    assert rep.status == "infinite"
    assert rep.witness is not None
    # the witness really is a fixed vector of c
    d = B.dim
    vv = [rep.witness[a] * rep.witness[b] for a in range(d) for b in range(d)]
    assert B.c.apply(vv) == vv


def test_undetermined_without_witness():
    # an infinite Nichols algebra with no basis-diagonal fixed vector stays
    # "undetermined" at the cutoff: rank proofs cannot certify infiniteness
    A = KnAlgebra(3)
    B = _space(A, "U(1,0,0,1)")
    if infinite_precheck(B) is None:
        rep = graded_dims(B, 3, want_relations=False)
        assert rep.status == "undetermined"
        assert rep.total is None


# -- square-zero locus ----------------------------------------------------------------


def _vec(n, coeffs):
    return [c if isinstance(c, CycNum) else CycNum.rational(n, c)
            for c in coeffs]


def test_square_zero_witnesses_in_b1(A3):
    n = 3
    B = _space(A3, "W(-1,0,0)")
    xi = cyc(n, 1)
    xi2 = cyc(n, 2)
    one = CycNum.one(n)
    a = _vec(n, [1, 0, 0])
    b = [one, xi, xi2]
    c_ = [one, xi2, xi]
    for v in (a, b, c_):
        assert is_square_zero(B, v)
    assert is_square_zero(B, _vec(n, [0, 0, 0]))
    # the witnesses are linearly independent
    assert CycMatrix.from_rows(n, [a, b, c_]).rank() == 3
    space = square_zero_monomial_space(B)
    for v in (a, b, c_):
        assert contains_profile(space, v)
    assert space.forces_axis() is None


@pytest.mark.parametrize("label", ["W(-1,1,1)", "W(-1,2,2)"])
def test_square_zero_forces_axis_in_b_xi(A3, label):
    n = 3
    B = _space(A3, label)
    assert is_square_zero(B, _vec(n, [1, 0, 0]))      # w0
    assert not is_square_zero(B, _vec(n, [0, 1, 0]))  # w1
    space = square_zero_monomial_space(B)
    assert (1, 1) in space.forced_zero and (2, 2) in space.forced_zero
    assert space.forces_axis() == 0
    # no rank-1 profile off the axis is admitted
    assert not contains_profile(space, _vec(n, [0, 1, 0]))
    assert not contains_profile(space, _vec(n, [1, 1, 1]))


def test_square_zero_dimension_bound(monkeypatch):
    # the 7-dimensional W(-1,0,0) at n = 7 is refused before QS_2 is formed
    B = _space(KnAlgebra(7), "W(-1,0,0)")
    monkeypatch.setattr(nichols, "_qs2", None)
    with pytest.raises(ValueError, match="dimension 7 exceeds the bound 6"):
        square_zero_monomial_space(B)


# -- presentations --------------------------------------------------------------------


def _w_relations(n, k):
    """The five degree-2 relations of the diagonal family, parameterized by
    the scalar xi^k (k = 0 is the symmetric presentation)."""
    one = CycNum.one(n)
    xik = cyc(n, k)
    xi2k = cyc(n, 2 * k)
    return [
        [(one, (0, 0))],
        [(one, (1, 2))],
        [(one, (2, 1))],
        [(xi2k, (0, 1)), (xik, (1, 0)), (one, (2, 2))],
        [(xi2k, (0, 2)), (one, (2, 0)), (xik, (1, 1))],
    ]


def _check_presentation(B, terms_list):
    rels = [(2, tensor_vector(B, 2, terms)) for terms in terms_list]
    return presentation_check(B, rels)


@pytest.mark.parametrize("m", [0, 1, 2])
def test_symmetric_presentation_spans(A3, m):
    B = _space(A3, "W(-1,0,%d)" % m)
    result = _check_presentation(B, _w_relations(3, 0))
    assert result["all_in_kernel"]
    assert result["kernel2_dim"] == 5
    assert result["degree2_spans"]


def test_scalar_presentations_attach_to_swapped_spaces(A3):
    # the xi^k-scaled presentation spans ker QS_2 of W(-1,2k mod 3,2k mod 3):
    # the k=1 set belongs to W(-1,2,2) and the k=2 set to W(-1,1,1)
    B11 = _space(A3, "W(-1,1,1)")
    B22 = _space(A3, "W(-1,2,2)")
    r11 = _check_presentation(B11, _w_relations(3, 2))
    r22 = _check_presentation(B22, _w_relations(3, 1))
    assert r11["all_in_kernel"] and r11["degree2_spans"]
    assert r11["kernel2_dim"] == 5
    assert r22["all_in_kernel"] and r22["degree2_spans"]
    # the opposite attachment fails
    assert not _check_presentation(B11, _w_relations(3, 1))["all_in_kernel"]
    assert not _check_presentation(B22, _w_relations(3, 2))["all_in_kernel"]


def test_fomin_kirillov_relations_map_in(A3):
    # x_k = w0 + xi^k w1 + xi^{2k} w2; the quadratic relations
    # x_i^2, x0x1 + x1x2 + x2x0, x0x2 + x2x1 + x1x0 land in ker QS_2
    n = 3
    B = _space(A3, "W(-1,0,0)")
    x = [[CycNum.one(n), cyc(n, k), cyc(n, 2 * k)] for k in range(3)]

    def prod_terms(u, v):
        return [(u[a] * v[b], (a, b)) for a in range(3) for b in range(3)]

    rels = []
    for k in range(3):
        rels.append((2, tensor_vector(B, 2, prod_terms(x[k], x[k]))))
    for (a, b, c_) in [(0, 1, 2), (0, 2, 1)]:
        terms = (prod_terms(x[a], x[b]) + prod_terms(x[b], x[c_])
                 + prod_terms(x[c_], x[a]))
        rels.append((2, tensor_vector(B, 2, terms)))
    result = presentation_check(B, rels)
    assert result["all_in_kernel"]
    # and they span it: B_1 is FK_3 in degree 2
    assert result["degree2_rank"] == 5
    assert result["degree2_spans"]


def test_presentation_check_rejects_a_degree_3_relation(A3):
    # only ker QS_2 is checked: a relation of another degree is refused,
    # even next to degree-2 relations that hold
    B = _space(A3, "W(-1,0,0)")
    rels = [(2, tensor_vector(B, 2, terms)) for terms in _w_relations(3, 0)]
    cubic = tensor_vector(B, 3, [(CycNum.one(3), (0, 0, 0))])
    with pytest.raises(ValueError, match="relation of degree 3"):
        presentation_check(B, rels + [(3, cubic)])


def test_x_negation_intertwines_the_two_diagonal_braidings(A3):
    # in the x-basis, x_k -> x_{-k} intertwines the braidings of the two
    # scaled diagonal spaces
    n = 3
    X = CycMatrix.from_rows(n, [[cyc(n, k * a) for k in range(3)]
                                for a in range(3)])
    P = CycMatrix.zero(n, 3, 3)
    for k in range(3):
        P.set((-k) % n, k, CycNum.one(n))
    # T (w-basis matrix of x_k -> x_{-k}) = X P X^{-1}
    Xinv_cols = []
    for k in range(3):
        e = [CycNum.one(n) if a == k else CycNum.zero(n) for a in range(3)]
        sol, _ = solve(X, e)
        Xinv_cols.append(sol)
    Xinv = transpose(CycMatrix.from_rows(n, Xinv_cols))
    T = X @ P @ Xinv
    c1 = _space(A3, "W(-1,1,1)").c
    c2 = _space(A3, "W(-1,2,2)").c
    TT = T.kron(T)
    assert c2 @ TT == TT @ c1
    assert not (c1 @ TT == TT @ c1)  # the map is not an automorphism of one


def test_diagonal_rescaling_trivializes_the_cocycle():
    # y_k = xi^{-ik} x_k turns the xi^{-2i(l-r)}-scaled dihedral braiding
    # into the constant -1 braiding
    from knyd.racks import cq_braiding, d_cocycle, dihedral_rack
    n = 3
    R = dihedral_rack(n)
    base = cq_braiding(R, d_cocycle(n, -1, 0, 0)).c
    for i in range(1, n):
        ci = cq_braiding(R, d_cocycle(n, -1, i, i)).c
        D = CycMatrix.zero(n, 3, 3)
        for k in range(3):
            D.set(k, k, cyc(n, -i * k))
        DD = D.kron(D)
        Dinv = CycMatrix.zero(n, 3, 3)
        for k in range(3):
            Dinv.set(k, k, cyc(n, i * k))
        DDinv = Dinv.kron(Dinv)
        assert DDinv @ ci @ DD == base, i


# -- report plumbing ------------------------------------------------------------------


def test_graded_report_json_is_stable(A3):
    import json
    B = _space(A3, "W(-1,0,0)")
    r1 = graded_dims(B, 5, want_relations=True).to_json()
    r2 = graded_dims(B, 5, want_relations=True).to_json()
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    assert r1["dims"] == [1, 3, 4, 3, 1, 0]


# -- graded dimensions over F_p, certified ---------------------------------------------


def _routes(monkeypatch):
    """Record, for each graded_dims call, how its degree loop ended:
    "certified" over F_p, "refused" (the lift declined a degree, or one
    was past the memory budget over F_p), or "exact" over Q(xi_n)."""
    routes = []
    degrees = nichols._degrees

    def recording(B, perm, fields, cutoff, want_relations, lift=None):
        found = degrees(B, perm, fields, cutoff, want_relations, lift)
        routes.append("exact" if lift is None else
                      "certified" if found is not None else "refused")
        return found

    monkeypatch.setattr(nichols, "_degrees", recording)
    return routes


def _exact_report(monkeypatch, B, cutoff, want_relations=True):
    """graded_dims over Q(xi_n) alone: no F_p embedding is offered."""
    with monkeypatch.context() as m:
        m.setattr(nichols, "_embeddings", lambda B: None)
        return graded_dims(B, cutoff, want_relations=want_relations)


def _assert_certified_equals_exact(monkeypatch, B, cutoff):
    routes = _routes(monkeypatch)
    for want in (True, False):
        del routes[:]
        report = graded_dims(B, cutoff, want_relations=want)
        assert routes == ["certified"], (B.name, routes)
        exact = _exact_report(monkeypatch, B, cutoff, want)
        assert routes == ["certified", "exact"]
        assert report == exact, B.name
        assert (report.dims, report.relations, report.status, report.total) \
            == (exact.dims, exact.relations, exact.status, exact.total)


def test_certified_route_on_every_simple_n3(A3, monkeypatch):
    # all 72 simples to degree 4 over both routes, W(-1,1,0) to degree 6:
    # equal reports, and every braiding of a simple is a permutation matrix
    # with root entries, so none falls back
    for L in list_simples(A3):
        B = braided_space(build_simple(A3, L))
        B.name = str(L)
        _assert_certified_equals_exact(monkeypatch, B, 4)
    _assert_certified_equals_exact(monkeypatch, _space(A3, "W(-1,1,0)"), 6)


def test_certified_route_on_the_rack_braidings_n3(monkeypatch):
    n = 3
    B, R = standard_solution(n), dihedral_rack(n)
    for eps in (1, -1):
        for i in range(n):
            for m in range(n):
                for S in (sF_braiding(B, w_cocycle(n, eps, i, m)),
                          cq_braiding(R, d_cocycle(n, eps, i, m))):
                    S.name = "%s %s" % (S.name, (eps, i, m))
                    _assert_certified_equals_exact(monkeypatch, S, 4)


@pytest.mark.parametrize("label, cutoff", [("U(1,0,1,0)", 6),
                                           ("W(-1,0,0)", 2)])
def test_certified_route_at_composite_n15(monkeypatch, label, cutoff):
    # phi(15) = 8 embeddings, and root_growth(15) = 6
    _assert_certified_equals_exact(monkeypatch, _space(KnAlgebra(15), label),
                                   cutoff)


def test_braidings_outside_the_certificate_take_the_exact_route(monkeypatch):
    # 2 flip has no root entries, and a diagonal braiding with a 1/2 entry
    # neither; graded_dims offers no F_p route for them
    n = 3
    routes = _routes(monkeypatch)
    for S, cutoff in ((_scaled_flip(n, 3, CycNum.rational(n, 2)), 4),
                      (_half_diagonal(n), 6)):
        del routes[:]
        report = graded_dims(S, cutoff)
        assert routes == ["exact"]
        assert report == _exact_report(monkeypatch, S, cutoff)
    # the flip scaled by -1 has root entries: it is certified, and gives
    # the exterior algebra
    del routes[:]
    report = graded_dims(_scaled_flip(n, 3, -CycNum.one(n)), 4)
    assert routes == ["certified"] and report.dims == [1, 3, 3, 1, 0]


def test_a_small_prime_fails_the_bound_and_falls_back(A3, monkeypatch):
    # over F_7 the degree-2 kernel of W(-1,0,0) still passes, with height
    # 1 and root_growth(3) 2! = 4 < 7, but 2 * 3! = 12 >= 7 in degree 3:
    # no kernel there can be certified, and the exact route gives the
    # report
    B = _space(A3, "W(-1,0,0)")
    exact = _exact_report(monkeypatch, B, 6)
    routes = _routes(monkeypatch)
    lifted = []
    kernel_lift = nichols._kernel_lift

    def recording(B):
        lift = kernel_lift(B)

        def recorded(deg, states):
            R = lift(deg, states)
            lifted.append((deg, R is not None))
            return R

        return recorded

    monkeypatch.setattr(nichols, "modular_prime", lambda n: 7)
    monkeypatch.setattr(nichols, "_kernel_lift", recording)
    assert graded_dims(B, 6) == exact
    assert lifted == [(2, True), (3, False)]
    assert routes == ["refused", "exact"]


def test_a_coefficient_off_by_p_is_refused(A3, monkeypatch):
    # a lifted coefficient shifted by p is still right mod p, so every
    # image agrees; only the height bound sees it, and the exact route
    # then gives the report, with no coefficient that large in it
    from knyd import cyclotomic
    B = _space(A3, "W(-1,1,0)")
    exact = _exact_report(monkeypatch, B, 5)
    p = cyclotomic.modular_prime(3)
    shifted = []
    reconstruct = cyclotomic._rational_reconstruction

    def off_by_p(a, prime):
        frac = reconstruct(a, prime)
        if frac is not None and frac[0] and not shifted:
            shifted.append(frac)
            return frac[0] + prime * frac[1], frac[1]
        return frac

    monkeypatch.setattr(cyclotomic, "_rational_reconstruction", off_by_p)
    routes = _routes(monkeypatch)
    report = graded_dims(B, 5)
    assert shifted and routes == ["refused", "exact"]
    assert report == exact
    assert all(abs(c) < p for deg, vecs in report.relations.items()
               for vec in vecs for x in dense(vec, B.dim ** deg)
               for c in x.num)
