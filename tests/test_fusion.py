"""Fusion rules: closed forms against the semisimple-decomposition oracle."""

import random
from fractions import Fraction

import pytest

from knyd import fusion
from knyd.cyclotomic import modular_prime
from knyd.hopf import KnAlgebra
from knyd.linalg import CycMatrix
from knyd.ydmod import (U, V, W, YDModule, build_simple, build_u_module,
                        check_yd, hom_dimension, is_yd_map, list_simples)
from knyd.fusion import (FusionDecomposition, closed_form_fuse, decompose,
                         fusion_table, sample_pairs, tensor_module,
                         uw0_isomorphism, zn_orbit_set)


@pytest.fixture(scope="module")
def A3():
    return KnAlgebra(3)


def _oracle(A, L1, L2):
    return decompose(tensor_module(build_simple(A, L1), build_simple(A, L2)))


# -- the decomposition container ----------------------------------------------------


def test_decomposition_container():
    n = 3
    d1 = FusionDecomposition.from_pairs([(V(n, 1, 0, 0), 1),
                                         (U(n, 1, 0, 1, 0), 2)])
    d2 = FusionDecomposition.from_pairs([(U(n, 1, 0, 1, 0), 2),
                                         (V(n, 1, 0, 0), 1)])
    assert d1 == d2          # order-insensitive canonical form
    assert d1.dim() == 1 + 2 * 2
    assert str(d1) == "2*U(0,1,2,1) + V(+1,0,0)"
    with pytest.raises(ValueError):
        FusionDecomposition.from_pairs([(V(n, 1, 0, 0), -1)])


def test_zn_orbit_set():
    for n in (3, 5, 7):
        reps = zn_orbit_set(n)
        assert len(reps) == (n * n + 1) // 2
        assert (0, 0) in reps
        seen = set()
        for (r, k) in reps:
            assert min((r, k), ((-r) % n, (-k) % n)) == (r, k)
            seen.add((r, k))
            seen.add(((-r) % n, (-k) % n))
        assert len(seen) == n * n


# -- the six closed-form rules ------------------------------------------------------


def test_rule_v_times_v(A3):
    n = 3
    L1, L2 = V(n, 1, 1, 2), V(n, -1, 2, 2)
    expected = FusionDecomposition.from_pairs([(V(n, -1, 0, 1), 1)])
    assert closed_form_fuse(L1, L2) == expected == _oracle(A3, L1, L2)


def test_rule_v_times_u_eps_independent(A3):
    n = 3
    Lu = U(n, 0, 2, 1, 0)
    i2, j2, m2, t2 = Lu.data
    for eps in (1, -1):
        Lv = V(n, eps, 1, 1)
        expected = FusionDecomposition.from_pairs(
            [(U(n, 1 + i2, 1 + j2, 1 + m2, -2 + 1 + t2), 1)])
        got = closed_form_fuse(Lv, Lu)
        assert got == expected == _oracle(A3, Lv, Lu), eps


def test_rule_u_times_u_index_reading(A3):
    # the fourth closed-form rule: second slot of the first summand is
    # t1 + t2 (adjudicated by the oracle)
    n = 3
    L1, L2 = U(n, 0, 0, 0, 1), U(n, 0, 1, 0, 0)
    (i1, j1, m1, t1) = L1.data
    (i2, j2, m2, t2) = L2.data
    assert t1 != t2  # the two readings genuinely differ on this pair
    expected = FusionDecomposition.from_pairs(
        [(U(n, i1 + i2, j1 + j2, m1 + m2, t1 + t2), 1),
         (U(n, i1 + j2, j1 + i2, m1 + 2 * i2 + t2, t1 - 2 * j2 + m2), 1)])
    assert closed_form_fuse(L1, L2) == expected == _oracle(A3, L1, L2)
    # the rejected t1 + t1 reading disagrees with the oracle
    wrong = FusionDecomposition.from_pairs(
        [(U(n, i1 + i2, j1 + j2, m1 + m2, t1 + t1), 1),
         (U(n, i1 + j2, j1 + i2, m1 + 2 * i2 + t2, t1 - 2 * j2 + m2), 1)])
    assert wrong != _oracle(A3, L1, L2)


def test_rule_u_times_w0_splits(A3):
    n = 3
    Lu = U(n, 1, 0, 1, 0)
    (i, j, m, t) = Lu.data
    half = (n + 1) // 2
    ip = ((i + j) * half) % n
    mp = ((2 * i + m + t) * half) % n
    expected = FusionDecomposition.from_pairs(
        [(W(n, 1, ip, mp), 1), (W(n, -1, ip, mp), 1)])
    got = closed_form_fuse(Lu, W(n, 1, 0, 0))
    assert got == expected == _oracle(A3, Lu, W(n, 1, 0, 0))


def test_rule_w0_times_w0(A3):
    n = 3
    L = W(n, 1, 0, 0)
    got = closed_form_fuse(L, L)
    half = (n + 1) // 2
    pairs = [(V(n, 1, 0, 0), 1)]
    for (r, k) in zn_orbit_set(n):
        if (r, k) == (0, 0):
            continue
        pairs.append((U(n, -4 * k, 4 * k, 4 * k - half * r,
                        4 * k + half * r), 1))
    expected = FusionDecomposition.from_pairs(pairs)
    assert got == expected == _oracle(A3, L, L)
    # 1 one-dimensional + (n^2 - 1)/2 two-dimensional summands, total n^2
    assert got.dim() == n * n
    assert len(got.terms) == 1 + (n * n - 1) // 2


def test_rule_w_times_w_via_reduction(A3):
    n = 3
    L1, L2 = W(n, -1, 1, 1), W(n, 1, 2, 0)
    assert closed_form_fuse(L1, L2) == _oracle(A3, L1, L2)


def test_reducible_u_symbol_splits(A3):
    # a product whose closed-form U symbol has i=j, t=m-2i must emit the
    # two one-dimensional constituents instead
    n = 3
    Lv = V(n, 1, 1, 0)
    Lu = U(n, 2, 0, 1, 2)  # i1+i2 = j1+j2 = 0 after the twist
    got = closed_form_fuse(Lv, Lu)
    assert got == _oracle(A3, Lv, Lu)
    assert got.dim() == 2


# -- sweeps and category-level invariants ------------------------------------------


def test_closed_form_matches_oracle_sample(A3):
    labels = list_simples(A3)
    rng = random.Random(2)
    for _ in range(60):
        L1, L2 = rng.choice(labels), rng.choice(labels)
        got = closed_form_fuse(L1, L2)
        assert got.dim() == L1.dim() * L2.dim(), (L1, L2)
        assert got == _oracle(A3, L1, L2), (L1, L2)


def test_commutativity_of_decompositions(A3):
    labels = list_simples(A3)
    rng = random.Random(3)
    for _ in range(15):
        L1, L2 = rng.choice(labels), rng.choice(labels)
        assert closed_form_fuse(L1, L2) == closed_form_fuse(L2, L1), (L1, L2)


def test_associativity_spot_checks(A3):
    labels = list_simples(A3)
    rng = random.Random(4)
    for _ in range(8):
        L1, L2, L3 = (rng.choice(labels) for _ in range(3))
        M1 = build_simple(A3, L1)
        M2 = build_simple(A3, L2)
        M3 = build_simple(A3, L3)
        left = decompose(tensor_module(tensor_module(M1, M2), M3))
        right = decompose(tensor_module(M1, tensor_module(M2, M3)))
        assert left == right, (L1, L2, L3)


def test_fusion_table_sampled(A3):
    rows, mismatches = fusion_table(A3, pairs=sample_pairs(A3, 20, 7))
    assert len(rows) == 20
    assert mismatches == 0
    for row in rows:
        assert row["match"]


def test_fusion_n5_sample():
    A = KnAlgebra(5)
    _, mismatches = fusion_table(A, pairs=sample_pairs(A, 10, 11))
    assert mismatches == 0


# -- the explicit U (x) W0 intertwiner ----------------------------------------------


def test_uw0_isomorphism_exhaustive_n3(A3):
    n = 3
    for L in list_simples(A3):
        if L.kind != "U":
            continue
        i, j, m, t = L.data
        source, target, phi = uw0_isomorphism(A3, i, j, m, t)
        assert is_yd_map(source, target, phi), str(L)
        # phi is invertible (a permutation-with-scalars matrix)
        assert phi.rank() == 2 * n


def test_uw0_isomorphism_spot_n5():
    A = KnAlgebra(5)
    for (i, j, m, t) in [(1, 0, 1, 0), (2, 4, 3, 1)]:
        source, target, phi = uw0_isomorphism(A, i, j, m, t)
        assert is_yd_map(source, target, phi)


def test_closed_form_matches_oracle_n9():
    # a composite conductor: ord(xi^X) takes proper-divisor values
    A = KnAlgebra(9)
    for L1, L2 in [(U(9, 1, 0, 1, 0), U(9, 0, 2, 1, 2)),
                   (U(9, 3, 6, 0, 0), U(9, 6, 3, 2, 1))]:
        assert _oracle(A, L1, L2) == closed_form_fuse(L1, L2), (L1, L2)


# -- the modular certificate and its exact fallback ------------------------------------


def _record_primes(monkeypatch):
    """Record the prime of every Hom dimension `decompose` asks for."""
    primes = []
    hom = fusion.hom_dimension

    def recording(S, M, prime=None):
        primes.append(prime)
        return hom(S, M, prime)

    monkeypatch.setattr(fusion, "hom_dimension", recording)
    return primes


def test_decompose_needs_no_fallback(A3, monkeypatch):
    primes = _record_primes(monkeypatch)
    for L1, L2 in sample_pairs(A3, 12, 5):
        assert _oracle(A3, L1, L2) == closed_form_fuse(L1, L2), (L1, L2)
    assert primes and None not in primes


def test_decompose_falls_back_when_balance_fails(A3, monkeypatch):
    # a modular rank one short, as at an unlucky prime, inflates the Hom
    # bounds past dim M; the exact pass must then give the answer
    rank = CycMatrix.rank

    def short_rank(self, prime=None):
        r = rank(self, prime)
        return r if prime is None or r == 0 else r - 1

    monkeypatch.setattr(CycMatrix, "rank", short_rank)
    primes = _record_primes(monkeypatch)
    for L1, L2 in sample_pairs(A3, 12, 6):
        del primes[:]
        assert _oracle(A3, L1, L2) == closed_form_fuse(L1, L2), (L1, L2)
        assert primes[0] is not None and None in primes, (L1, L2)


def test_decompose_falls_back_when_an_entry_does_not_reduce(A3, monkeypatch):
    # U(1,0,1,0) in the basis (p u1, u2): x^ has the entry 1/p, which has
    # no image in F_p, so only the exact pass can decompose it
    n = 3
    p = modular_prime(n)
    Um = build_u_module(A3, 1, 0, 1, 0)
    x = CycMatrix.from_rows(n, [[0, Fraction(1, p)], [p, 0]])
    scaled = YDModule(A3, 2, Um.action_p, x, Um.coaction)
    assert check_yd(scaled)["ok"]
    S = build_simple(A3, U(n, 1, 0, 1, 0))
    assert hom_dimension(S, scaled, p) is None
    assert hom_dimension(S, scaled) == 1
    primes = _record_primes(monkeypatch)
    assert decompose(scaled) == FusionDecomposition.from_pairs(
        [(U(n, 1, 0, 1, 0), 1)])
    assert primes[0] == p and None in primes
