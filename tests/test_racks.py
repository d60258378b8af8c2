"""Set-theoretic solutions, racks, 2-cocycles, and equivalences."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knyd.cyclotomic import CycNum, cyc
from knyd.hopf import KnAlgebra
from knyd.ydmod import W, braided_space, build_simple
from knyd.nichols import check_braid_equation, graded_dims
from knyd.racks import (BraidedSet, CocycleTable, Rack, check_F_cocycle,
                        check_rack_cocycle, cq_braiding, d_cocycle,
                        derived_rack, dihedral_rack, sF_braiding,
                        standard_solution, t_equivalence_cocycle,
                        twist_equivalence_check, w_cocycle)
from knyd.rackbattery import run_battery
from oracles import constant_cocycle, flip_solution, trivial_rack


# -- braided sets and racks -----------------------------------------------------------


@pytest.mark.parametrize("n", [3, 5, 7])
def test_standard_solution_and_derived_rack(n):
    B = standard_solution(n)
    assert B.is_solution()
    assert B.is_nondegenerate()
    R = derived_rack(B)
    assert R == dihedral_rack(n)
    assert R.is_rack()


def test_flip_solution_derives_trivial_rack():
    B = flip_solution(4)
    assert B.is_solution()
    assert derived_rack(B) == trivial_rack(4)


def test_non_solution_detected():
    # g_x(y) = y + x, f_y(x) = x is bijective but fails the braid equation
    B = BraidedSet.from_map(3, lambda x, y: ((y + x) % 3, x))
    assert not B.is_solution()


def test_sF_braiding_rejects_a_non_solution_after_a_solution():
    # the braid-equation verdict is kept per braided set: a valid call on
    # the standard solution must not let a non-solution of the same size
    # through, on its first call or a later one
    n = 3
    F = w_cocycle(n, -1, 0, 0)
    assert sF_braiding(standard_solution(n), F).dim == n
    bad = BraidedSet.from_map(n, lambda x, y: ((y + x) % n, x))
    for _ in range(2):
        with pytest.raises(ValueError, match="not a set-theoretic solution"):
            sF_braiding(bad, F)
    assert sF_braiding(standard_solution(n), F).dim == n


def test_degenerate_map_rejected():
    with pytest.raises(ValueError):
        BraidedSet.from_map(3, lambda x, y: (0, x))


def test_non_bijective_rack_rejected():
    with pytest.raises(ValueError):
        Rack([[0, 1, 2], [0, 0, 0], [2, 1, 0]])


def test_non_self_distributive_table():
    # x |> y = y + 1 for x = 0 only: rows bijective but not a rack
    table = [[(y + 1) % 3 for y in range(3)],
             [y for y in range(3)],
             [y for y in range(3)]]
    assert not Rack(table).is_rack()


# -- cocycles ---------------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 5])
def test_w_cocycles_satisfy_set_theoretic_condition(n):
    B = standard_solution(n)
    for eps in (1, -1):
        for i in range(n):
            for m in range(n):
                assert check_F_cocycle(B, w_cocycle(n, eps, i, m)), (eps, i, m)


@pytest.mark.parametrize("n", [3, 5])
def test_d_cocycles_satisfy_rack_condition(n):
    R = dihedral_rack(n)
    for eps in (1, -1):
        for i in range(n):
            for m in range(n):
                assert check_rack_cocycle(R, d_cocycle(n, eps, i, m))


def test_failing_cocycle_detected():
    n = 3
    B = standard_solution(n)
    bad = CocycleTable([[cyc(n, x * y) for y in range(n)] for x in range(n)])
    assert not check_F_cocycle(B, bad)
    assert not check_rack_cocycle(dihedral_rack(n), bad)
    with pytest.raises(ValueError):
        sF_braiding(B, bad)
    with pytest.raises(ValueError):
        cq_braiding(dihedral_rack(n), bad)


def test_zero_cocycle_value_rejected():
    n = 3
    rows = [[CycNum.one(n)] * n for _ in range(n)]
    rows[1][2] = CycNum.zero(n)
    with pytest.raises(ValueError):
        CocycleTable(rows)


@pytest.mark.parametrize("n,value", [
    (3, CycNum.rational(3, 2)),
    (5, CycNum.rational(5, 2)),
    # 1 + xi = -xi^2 is a root of unity at n = 3, but not at n = 5
    (5, CycNum.one(5) + cyc(5, 1)),
])
def test_non_root_cocycle_value_rejected(n, value):
    rows = [[CycNum.one(n)] * n for _ in range(n)]
    rows[0][1] = value
    with pytest.raises(ValueError):
        CocycleTable(rows)


# -- braidings from cocycles ----------------------------------------------------------


def test_sf_braiding_matches_categorical_w_braiding_exhaustive_n3():
    n = 3
    A = KnAlgebra(n)
    B = standard_solution(n)
    for eps in (1, -1):
        for i in range(n):
            for m in range(n):
                cat = braided_space(build_simple(A, W(n, eps, i, m))).c
                sf = sF_braiding(B, w_cocycle(n, eps, i, m)).c
                assert cat == sf, (eps, i, m)


def test_produced_braidings_satisfy_braid_equation():
    n = 3
    B = standard_solution(n)
    R = dihedral_rack(n)
    for (eps, i, m) in [(1, 0, 0), (-1, 1, 1), (-1, 2, 0), (1, 2, 1)]:
        assert check_braid_equation(sF_braiding(B, w_cocycle(n, eps, i, m)))
        assert check_braid_equation(cq_braiding(R, d_cocycle(n, eps, i, m)))


def test_constant_minus_one_on_dihedral_rack_is_fk_braiding():
    # the 12-dimensional quadratic Nichols algebra over the dihedral rack
    # with constant cocycle -1
    n = 3
    q = constant_cocycle(n, -CycNum.one(n))
    Bq = cq_braiding(dihedral_rack(n), q)
    rep = graded_dims(Bq, 6, want_relations=False)
    assert rep.status == "finite"
    assert rep.dims == [1, 3, 4, 3, 1, 0]
    assert rep.total == 12


# -- t-equivalence ---------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 5])
def test_t_equivalence_cocycle_formula(n):
    # q[l][r] = F[f_r^{-1}(l)][r] = F[l-2r][r] = eps xi^{2i(m-i-2(l-r))};
    # this is the d-family member at the relabeled parameters
    # (2i, (m+3i)/2), matching the relabeling between the two cocycle
    # families
    B = standard_solution(n)
    half = (n + 1) // 2
    for eps in (1, -1):
        for i in range(n):
            for m in range(n):
                q = t_equivalence_cocycle(B, w_cocycle(n, eps, i, m))
                for l in range(n):
                    for r in range(n):
                        expected = cyc(n, 2 * i * (m - i - 2 * (l - r)))
                        if eps == -1:
                            expected = -expected
                        assert q[l, r] == expected, (eps, i, m, l, r)
                assert q == d_cocycle(n, eps, 2 * i, (m + 3 * i) * half)
                assert check_rack_cocycle(dihedral_rack(n), q)


def test_t_equivalent_braidings_have_equal_graded_dims():
    n = 3
    B = standard_solution(n)
    R = dihedral_rack(n)
    for (eps, i, m) in [(-1, 0, 0), (-1, 1, 1), (-1, 2, 2)]:
        F = w_cocycle(n, eps, i, m)
        q = t_equivalence_cocycle(B, F)
        r1 = graded_dims(sF_braiding(B, F), 5, want_relations=False)
        r2 = graded_dims(cq_braiding(R, q), 5, want_relations=False)
        assert r1.dims == r2.dims, (eps, i, m)


def test_invariance_hypothesis_failure_raises():
    n = 3
    B = standard_solution(n)
    # a valid F-cocycle need not satisfy the invariance hypothesis; this
    # exponent table (found by search) is a cocycle that breaks
    # q_{f_z(x),f_z(y)} = q_{xy}
    E = [[1, 1, 0], [1, 2, 1], [1, 1, 1]]
    F = CocycleTable([[cyc(n, E[x][y]) for y in range(n)] for x in range(n)])
    assert check_F_cocycle(B, F)
    with pytest.raises(ValueError):
        t_equivalence_cocycle(B, F)


# -- twist-equivalence ---------------------------------------------------------------


def test_twist_equivalence_paper_witness_n3():
    # phi_{i,k}(l,r) = xi^{(i-k)(l-2r)} connects the diagonal family members
    n = 3
    B = standard_solution(n)
    for i in range(n):
        for k in range(n):
            F = w_cocycle(n, -1, i, i)
            G = w_cocycle(n, -1, k, k)
            phi = CocycleTable([[cyc(n, (i - k) * (l - 2 * r))
                                 for r in range(n)] for l in range(n)])
            assert twist_equivalence_check(B, F, G, phi), (i, k)


def test_twist_equivalence_general_witness_n5():
    # for general n the comparison identity needs the exponent 4(i-k);
    # at n=3 this reduces to the displayed i-k since 4 = 1 mod 3
    n = 5
    B = standard_solution(n)
    for (i, k) in [(0, 1), (2, 4), (3, 3)]:
        F = w_cocycle(n, -1, i, i)
        G = w_cocycle(n, -1, k, k)
        phi = CocycleTable([[cyc(n, 4 * (i - k) * (l - 2 * r))
                             for r in range(n)] for l in range(n)])
        assert twist_equivalence_check(B, F, G, phi), (i, k)
        if i != k:
            wrong = CocycleTable([[cyc(n, (i - k) * (l - 2 * r))
                                   for r in range(n)] for l in range(n)])
            assert not twist_equivalence_check(B, F, G, wrong), (i, k)


def test_twist_equivalence_trivial_and_negative():
    n = 3
    B = standard_solution(n)
    F = w_cocycle(n, -1, 1, 1)
    one = constant_cocycle(n, CycNum.one(n))
    assert twist_equivalence_check(B, F, F, one)
    # G differing from F at one entry fails with phi = 1
    rows = [list(row) for row in F.values]
    rows[0][1] = rows[0][1] * cyc(n, 1)
    G = CocycleTable(rows)
    assert not twist_equivalence_check(B, F, G, one)
    # phi over another conductor
    with pytest.raises(ValueError):
        twist_equivalence_check(B, F, F, constant_cocycle(n, CycNum.one(5)))


# -- the exponent-sum checks against literal field products ---------------------------


def _pm_xi(n, j):
    """xi^j for 0 <= j < n, and -xi^(j-n) for n <= j < 2n."""
    return cyc(n, j) if j < n else -cyc(n, j - n)


@st.composite
def _tables(draw, n, members):
    """An n x n table of +-xi^k: either uniformly random, or a table drawn
    from `members` (lists of known cocycles) with at most one entry
    multiplied by a random root.  Random tables mostly fail the identities
    and the members pass them, so both verdicts occur."""
    j = st.integers(0, 2 * n - 1)
    if draw(st.booleans()):
        return CocycleTable([[_pm_xi(n, draw(j)) for _ in range(n)]
                             for _ in range(n)])
    rows = [list(row) for row in draw(st.sampled_from(members)).values]
    if draw(st.booleans()):
        x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[x][y] = rows[x][y] * _pm_xi(n, draw(j))
    return CocycleTable(rows)


def _labels(n):
    return [(eps, i, m) for eps in (1, -1)
            for i in range(n) for m in range(n)]


def _oracle_F(B, F):
    g, f, V = B.g, B.f, F.values
    r = range(B.size)
    return all(V[x][y] * V[f[y][x]][z] * V[g[x][y]][g[f[y][x]][z]]
               == V[y][z] * V[x][g[y][z]] * V[f[g[y][z]][x]][f[z][y]]
               for x in r for y in r for z in r)


def _oracle_rack(R, q):
    op, V = R.op, q.values
    r = range(R.size)
    return all(V[x][op(y, z)] * V[y][z] == V[op(x, y)][op(x, z)] * V[x][z]
               for x in r for y in r for z in r)


def _oracle_twist(B, F, G, phi):
    op, P = derived_rack(B).op, phi.values
    r = range(B.size)
    cocycle = all(
        P[x][z] * P[op(x, y)][op(x, z)] * P[op(x, op(y, z))][x]
        * P[op(y, z)][y]
        == P[y][z] * P[x][op(y, z)] * P[op(x, op(y, z))][op(x, y)]
        * P[op(x, z)][x]
        for x in r for y in r for z in r)
    f, g = B.f, B.g
    compare = all(P[f[y][x]][y] * F.values[x][y]
                  == P[f[x][g[x][y]]][x] * G.values[x][y]
                  for x in r for y in r)
    return cocycle and compare


@pytest.mark.parametrize("n", [3, 5])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cocycle_checks_agree_with_field_products(n, data):
    B, R = standard_solution(n), dihedral_rack(n)
    members = [fam(n, *lab) for fam in (w_cocycle, d_cocycle)
               for lab in _labels(n)]
    F = data.draw(_tables(n, members))
    assert check_F_cocycle(B, F) == _oracle_F(B, F)
    assert check_rack_cocycle(R, F) == _oracle_rack(R, F)


@pytest.mark.parametrize("n", [3, 5])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_t_equivalence_agrees_with_field_products(n, data):
    B = standard_solution(n)
    F = data.draw(_tables(n, [w_cocycle(n, *lab) for lab in _labels(n)]))
    r = range(n)
    rows = [[F.values[B.f_inv(y, x)][y] for y in r] for x in r]
    invariant = all(rows[B.f[z][x]][B.f[z][y]] == rows[x][y]
                    for x in r for y in r for z in r)
    if invariant:
        assert t_equivalence_cocycle(B, F).values == rows
    else:
        with pytest.raises(ValueError):
            t_equivalence_cocycle(B, F)


@pytest.mark.parametrize("n", [3, 5])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_twist_check_agrees_with_field_products(n, data):
    B = standard_solution(n)
    i, k = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    F, G = w_cocycle(n, -1, i, i), w_cocycle(n, -1, k, k)
    witness = CocycleTable([[cyc(n, 4 * (i - k) * (l - 2 * r))
                             for r in range(n)] for l in range(n)])
    phi = data.draw(_tables(n, [witness]))
    assert twist_equivalence_check(B, F, G, phi) == \
        _oracle_twist(B, F, G, phi)


# -- the aggregated battery -----------------------------------------------------------


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_run_battery(n):
    results = run_battery(n)
    assert all(v for _, v in results), [name for name, v in results if not v]
