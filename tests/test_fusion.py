"""Fusion rules: closed forms against the semisimple-decomposition oracle."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knyd import fusion
from knyd.cyclotomic import CycNum, cyc, modular_prime, root
from knyd.hopf import (F, P, KnAlgebra, KnElement, character, delta_terms,
                       product_table)
from knyd.linalg import CycMatrix
from knyd.ydmod import (U, V, W, YDModule, build_simple, build_u_module,
                        check_yd, direct_sum, hom_dimension, label_weights,
                        list_simples)
from knyd.fusion import (FusionDecomposition, closed_form_fuse, decompose,
                         fusion_table, sample_pairs, tensor_module,
                         zn_orbit_set)
from oracles import cyc_product, is_yd_map, uw0_isomorphism


@pytest.fixture(scope="module")
def A3():
    return KnAlgebra(3)


def _oracle(A, L1, L2):
    return decompose(tensor_module(build_simple(A, L1), build_simple(A, L2)))


# -- tensor products ----------------------------------------------------------------


def _comultiplied(A, M1, M2, key):
    """The basis element key of K_n acting on M1 (x) M2 through
    Delta(key) = sum h1 (x) h2, as the sum of h1 . kron h2 . over the terms
    of `delta_terms`."""
    n = A.n
    act = CycMatrix.zero(n, M1.dim * M2.dim, M1.dim * M2.dim)
    for k1, k2, v in delta_terms(A, key):
        m1, m2 = M1.action_of(k1), M2.action_of(k2)
        if m1.data and m2.data:
            act = act + m1.kron(m2.scale(root(n, v)))
    return act


@pytest.mark.parametrize("n, seed", [(3, 0), (5, 1), (9, 2)])
def test_tensor_weights_match_the_comultiplication(n, seed):
    # p_{ab} acts on M1 (x) M2 through Delta(p_{ab}); that must be the 0/1
    # diagonal of the weights tensor_module assigns.  x^, the sum of the
    # f_{ab}, acts through the Delta(f_{ab}); that must be the x^ that
    # tensor_module builds in one pass over pairs of x^ entries
    A = KnAlgebra(n)
    one = CycNum.one(n)
    rng = random.Random(seed)
    labels = list_simples(A)

    def check_xhat(M1, M2):
        xhat = CycMatrix.zero(n, M1.dim * M2.dim, M1.dim * M2.dim)
        for a in range(n):
            for b in range(n):
                xhat = xhat + _comultiplied(A, M1, M2, (F, a, b))
        assert tensor_module(M1, M2).action_x == xhat

    for _ in range(3):
        M1, M2 = (build_simple(A, rng.choice(labels)) for _ in range(2))
        M = tensor_module(M1, M2)
        for a in range(n):
            for b in range(n):
                diagonal = {r: {r: one} for r, w in enumerate(M.weights)
                            if w == (a, b)}
                assert (_comultiplied(A, M1, M2, (P, a, b))
                        == CycMatrix(n, M.dim, M.dim, diagonal)), (a, b)
        check_xhat(M1, M2)
    # a direct sum, and a space whose x^ does not swap weights, which no
    # module allows: the one-pass x^ does not lean on the module axioms
    S = direct_sum(build_simple(A, rng.choice(labels)),
                   build_simple(A, U(n, 1, 0, 1, 0)))
    X = CycMatrix.from_rows(n, [[cyc(n, 1), 2], [Fraction(1, 3), -1]])
    odd = YDModule(A, 2, [(0, 1), (2, 2)], X, [{}, {}])
    for M1, M2 in [(S, build_simple(A, rng.choice(labels))), (S, odd),
                   (odd, S), (odd, odd)]:
        check_xhat(M1, M2)


def _cell_product(g, h):
    """g h in K_n from `product_table`, each coefficient the reference
    product of `cyc_product`, zeros dropped."""
    table = product_table(g.algebra.n)
    out = {}
    for k1, v in g.coeffs.items():
        for k2, key in table[k1]:
            if k2 in h.coeffs:
                c = cyc_product(v, h.coeffs[k2])
                out[key] = out[key] + c if key in out else c
    return {k: v for k, v in out.items() if not v.is_zero()}


def _check_coaction(M1, M2):
    # cell (a d2 + b, a1 d2 + b1) of the coaction is the product of cell
    # (a, a1) of M1's and cell (b, b1) of M2's
    M = tensor_module(M1, M2)
    d2 = M2.dim
    for a, row1 in enumerate(M1.coaction):
        for b, row2 in enumerate(M2.coaction):
            expected = {}
            for a1, g in row1.items():
                for b1, h in row2.items():
                    cell = _cell_product(g, h)
                    if cell:
                        expected[a1 * d2 + b1] = cell
            assert {k: h.coeffs for k, h in M.coaction[a * d2 + b].items()
                    } == expected, (a, b)


@pytest.mark.parametrize("n, seed", [(3, 0), (5, 1), (15, 2)])
def test_tensor_coaction_cells_are_products(n, seed):
    # three seeded pairs, and one with an n-dimensional W, whose cells
    # have n terms each
    A = KnAlgebra(n)
    rng = random.Random(seed)
    labels = list_simples(A)
    pairs = [(rng.choice(labels), rng.choice(labels)) for _ in range(3)]
    pairs.append((U(n, 1, 0, 1, 0) if n == 15 else W(n, 1, 0, 2),
                  W(n, -1, 1, 0)))
    for L1, L2 in pairs:
        _check_coaction(build_simple(A, L1), build_simple(A, L2))


def test_tensor_coaction_with_non_root_coefficients():
    # cells with 1 + xi and 1/3 beside roots, so that one `multiply` runs
    # both the exponent sums and the convolution
    n = 5
    A = KnAlgebra(n)
    xi = cyc(n, 1)
    third = CycNum.rational(n, Fraction(1, 3))
    cells = [
        {0: KnElement(A, {(P, 0, 1): CycNum.one(n) + xi, (F, 1, 1): xi}),
         1: KnElement(A, {(F, 2, 0): third, (P, 1, 0): root(n, 7)})},
        {1: KnElement(A, {(F, 0, 0): root(n, 3), (F, 1, 2): xi + third,
                          (P, 2, 1): cyc(n, 4)})},
    ]
    odd = YDModule(A, 2, [(0, 1), (2, 2)], CycMatrix.zero(n, 2, 2), cells)
    W3 = build_simple(A, W(n, -1, 1, 0))
    for M1, M2 in [(odd, odd), (odd, W3), (W3, odd)]:
        _check_coaction(M1, M2)


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


@pytest.mark.parametrize("n, count, seed", [(3, 200, 0), (5, 200, 1)])
def test_sample_pairs_draws_again_on_a_repeat(n, count, seed):
    # plain draws of these seeds repeat 4 pairs and 1 pair
    A = KnAlgebra(n)
    labels = list_simples(A)
    rng = random.Random(seed)
    plain = [(rng.choice(labels), rng.choice(labels)) for _ in range(count)]
    assert len(set(plain)) < count
    pairs = sample_pairs(A, count, seed)
    assert len(pairs) == len(set(pairs)) == count
    # up to the first repeat the two draws are one
    first = next(i for i, pair in enumerate(plain) if pair in plain[:i])
    assert pairs[:first] == plain[:first]


@pytest.mark.parametrize("n, count, seed", [(3, 60, 2), (3, 20, 1),
                                            (5, 20, 1), (5, 200, 0)])
def test_sample_pairs_without_a_repeat_is_the_plain_draw(n, count, seed):
    # the samples behind the golden digests
    A = KnAlgebra(n)
    labels = list_simples(A)
    rng = random.Random(seed)
    plain = [(rng.choice(labels), rng.choice(labels)) for _ in range(count)]
    assert sample_pairs(A, count, seed) == plain


def test_sample_pairs_caps_the_count_at_every_pair(A3):
    labels = list_simples(A3)
    pairs = sample_pairs(A3, len(labels) ** 2 + 1, 3)
    assert sorted(pairs) == sorted((L1, L2) for L1 in labels for L2 in labels)


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


_LABELS = {n: list_simples(KnAlgebra(n)) for n in (5, 7)}


@st.composite
def label_pairs(draw):
    """Two simple labels over K_5 or K_7, from the full list."""
    labels = _LABELS[draw(st.sampled_from([5, 7]))]
    return draw(st.sampled_from(labels)), draw(st.sampled_from(labels))


@settings(max_examples=200, deadline=None)
@given(label_pairs())
def test_closed_form_preserves_dimension_and_commutes(pair):
    L1, L2 = pair
    fused = closed_form_fuse(L1, L2)
    assert fused.dim() == L1.dim() * L2.dim()
    assert fused == closed_form_fuse(L2, L1)


# -- the Hom route: one exact pass over Q(xi_n) ---------------------------------------


def _record_hom_calls(monkeypatch):
    """Record the simple S of every Hom dimension `fusion` asks for."""
    asked = []
    hom = fusion.hom_dimension

    def recording(S, M):
        asked.append(S.label)
        return hom(S, M)

    monkeypatch.setattr(fusion, "hom_dimension", recording)
    return asked


def test_decompose_needs_no_fallback(A3, monkeypatch):
    # the Hom route alone gives the closed form, with one Hom system per
    # label that fits in M's weight spaces
    labels = list_simples(A3)
    asked = _record_hom_calls(monkeypatch)
    for L1, L2 in sample_pairs(A3, 12, 5):
        del asked[:]
        M = tensor_module(build_simple(A3, L1), build_simple(A3, L2))
        assert fusion._hom_route(M, labels) == closed_form_fuse(L1, L2), (
            L1, L2)
        assert asked == _weight_filtered(M, labels), (L1, L2)


def test_decompose_falls_back_when_an_entry_does_not_reduce(A3, monkeypatch):
    # U(1,0,1,0) in the basis (p u1, u2): x^ has the entry 1/p, which has
    # no image in F_p; the Hom route decomposes it exactly, in one pass
    n = 3
    scaled = _rescaled_u_module(A3)
    assert check_yd(scaled)["ok"]
    S = build_simple(A3, U(n, 1, 0, 1, 0))
    assert hom_dimension(S, scaled) == 1
    labels = list_simples(A3)
    asked = _record_hom_calls(monkeypatch)
    assert fusion._hom_route(scaled, labels) == (
        FusionDecomposition.from_pairs([(U(n, 1, 0, 1, 0), 1)]))
    assert asked == _weight_filtered(scaled, labels)


def test_decompose_composite_n9_every_kind_pair(monkeypatch):
    # one seeded pair per ordered kind pair at the composite conductor 9,
    # through the Hom route alone
    A = KnAlgebra(9)
    labels = list_simples(A)
    rng = random.Random(9)
    asked = _record_hom_calls(monkeypatch)
    for k1 in "VUW":
        for k2 in "VUW":
            L1 = rng.choice([L for L in labels if L.kind == k1])
            L2 = rng.choice([L for L in labels if L.kind == k2])
            M = tensor_module(build_simple(A, L1), build_simple(A, L2))
            assert fusion._hom_route(M, labels) == closed_form_fuse(L1, L2), (
                L1, L2)
    assert asked


# -- the character route -----------------------------------------------------------------
#
# M's profile is its character over D(K_n): the traces T0 and T1 of
# `decompose`, read mod p.  The read must give every multiplicity on its own
# (no fallback) and agree with the closed form and with the Hom route.


def _weight_filtered(M, labels):
    """The labels that fit in M's dimension and weight spaces, the filter
    of the Hom route, recomputed here."""
    have = Counter(M.weights)
    return [lab for lab in labels if lab.dim() <= M.dim and all(
        have[w] >= c for w, c in Counter(label_weights(lab)).items())]


def _assert_reads(M, expected):
    """The character read of M is `expected`, without a fallback, and the
    Hom route over the labels read gives it too."""
    got = fusion._read_characters(M)
    assert got == expected
    assert fusion._hom_route(M, [lab for lab, _ in got.terms]) == expected


def test_profile_filter_keeps_every_summand_n3(A3):
    # every ordered pair: the read is the closed form, and the Hom route
    # over the labels read agrees
    labels = list_simples(A3)
    for L1, L2 in ((L1, L2) for L1 in labels for L2 in labels):
        M = tensor_module(fusion._simple(A3, L1), fusion._simple(A3, L2))
        _assert_reads(M, closed_form_fuse(L1, L2))


@pytest.mark.parametrize("n", [5, 7, 9, 15])
def test_profile_filter_keeps_every_summand_seeded(n):
    # one seeded pair per ordered kind pair, composite n included
    A = KnAlgebra(n)
    labels = list_simples(A)
    rng = random.Random(n)
    for k1 in "VUW":
        for k2 in "VUW":
            L1 = rng.choice([L for L in labels if L.kind == k1])
            L2 = rng.choice([L for L in labels if L.kind == k2])
            M = tensor_module(fusion._simple(A, L1), fusion._simple(A, L2))
            _assert_reads(M, closed_form_fuse(L1, L2))


def _rescaled_u_module(A3):
    """U(1,0,1,0) in the basis (p u1, u2), whose x^ has the entry 1/p with
    no image in F_p."""
    p = modular_prime(3)
    Um = build_u_module(A3, 1, 0, 1, 0)
    x = CycMatrix.from_rows(3, [[0, Fraction(1, p)], [p, 0]])
    return YDModule(A3, 2, Um.action_p, x, Um.coaction)


def test_profile_filter_keeps_the_summands_of_a_sum_and_a_rescaled_u(A3):
    parts = [V(3, 1, 0, 2), U(3, 0, 1, 2, 1), U(3, 1, 1, 0, 0),
             W(3, -1, 1, 0), U(3, 0, 1, 2, 1)]
    M = build_simple(A3, parts[0])
    for lab in parts[1:]:
        M = direct_sum(M, build_simple(A3, lab))
    expected = FusionDecomposition.from_pairs((lab, 1) for lab in parts)
    _assert_reads(M, expected)
    assert decompose(M) == expected
    # x^ meets no coaction cell of the rescaled U off the diagonal, so its
    # entries 1/p and p are never read
    _assert_reads(_rescaled_u_module(A3), FusionDecomposition.from_pairs(
        [(U(3, 1, 0, 1, 0), 1)]))


@pytest.mark.parametrize("n", [3, 5, 15])
def test_each_simple_reads_as_itself(n):
    # U(i,i,m,t), with two vectors of one weight, included
    A = KnAlgebra(n)
    labels = list_simples(A)
    if n == 15:
        rng = random.Random(15)
        labels = [rng.choice([L for L in labels if L.kind == kind])
                  for kind in "VUUW" for _ in range(3)]
        labels.append(U(15, 4, 4, 1, 0))
    assert any(L.kind == "U" and L.data[0] == L.data[1] for L in labels)
    for lab in labels:
        assert fusion._read_characters(build_simple(A, lab)) == (
            FusionDecomposition.from_pairs([(lab, 1)])), lab


def test_decompose_reads_without_a_hom_system(monkeypatch):
    # a tensor product of simples never takes the fallback: the character
    # read alone gives the closed form on all 5 184 ordered pairs at n = 3,
    # and once the cross-check has run at n, decompose builds no Hom system
    monkeypatch.setattr(fusion, "_CROSS_CHECKED", {3, 5})
    asked = _record_hom_calls(monkeypatch)
    A = KnAlgebra(3)
    simples = [(L, build_simple(A, L)) for L in list_simples(A)]
    for L1, S1 in simples:
        for L2, S2 in simples:
            assert (fusion._read_characters(tensor_module(S1, S2))
                    == closed_form_fuse(L1, L2)), (L1, L2)
    A = KnAlgebra(5)
    for L1, L2 in sample_pairs(A, 10, 8):
        assert _oracle(A, L1, L2) == closed_form_fuse(L1, L2), (L1, L2)
    assert asked == []


def test_profile_falls_back_when_a_diagonal_coefficient_does_not_reduce(
        A3, monkeypatch):
    labels = list_simples(A3)
    L1, L2 = U(3, 0, 1, 0, 2), U(3, 1, 2, 0, 1)
    M = tensor_module(build_simple(A3, L1), build_simple(A3, L2))
    assert fusion._read_characters(M) == closed_form_fuse(L1, L2)
    bad = next(v for key, v in M.coaction[0][0].coeffs.items() if key[0] == P)
    reduce = fusion.mod_p
    monkeypatch.setattr(fusion, "mod_p",
                        lambda a, p: None if a == bad else reduce(a, p))
    assert fusion._read_characters(M) is None
    asked = _record_hom_calls(monkeypatch)
    assert decompose(M, labels) == closed_form_fuse(L1, L2)
    assert asked == _weight_filtered(M, labels)


def test_profile_falls_back_when_a_count_exceeds_the_dimension(
        A3, monkeypatch):
    labels = list_simples(A3)
    L1, L2 = U(3, 0, 1, 0, 2), U(3, 1, 2, 0, 1)
    M = tensor_module(build_simple(A3, L1), build_simple(A3, L2))
    transform = fusion._transform
    forced = []

    def one_count_too_large(part, xi, prime):
        grid = transform(part, xi, prime)
        if not forced:
            forced.append(grid[0][0])
            grid[0][0] = M.dim + 1
        return grid

    monkeypatch.setattr(fusion, "_transform", one_count_too_large)
    asked = _record_hom_calls(monkeypatch)
    assert decompose(M, labels) == closed_form_fuse(L1, L2)
    assert forced and asked == _weight_filtered(M, labels)


def test_cross_check_raises_on_a_wrong_read(A3, monkeypatch):
    # the first module read at each n is decomposed again by Hom spaces
    L1, L2 = U(3, 0, 1, 0, 2), U(3, 1, 2, 0, 1)
    M = tensor_module(build_simple(A3, L1), build_simple(A3, L2))
    right = closed_form_fuse(L1, L2)
    (lab, mult), *rest = right.terms
    wrong = FusionDecomposition.from_pairs([(lab, mult + 1)] + rest)
    monkeypatch.setattr(fusion, "_CROSS_CHECKED", set())
    monkeypatch.setattr(fusion, "_read_characters", lambda M: wrong)
    with pytest.raises(ArithmeticError, match="Hom spaces"):
        decompose(M)
    monkeypatch.setattr(fusion, "_read_characters", lambda M: right)
    assert decompose(M) == right and fusion._CROSS_CHECKED == {3}


# -- the certificate on spaces that are not YD modules -------------------------------------


def _space(A, weights, xhat, cells):
    """A space with the given weights, x^ rows {j: {k: entry}} and
    coaction cells {(j, k): KnElement}; no axiom is checked."""
    n, dim = A.n, len(weights)
    coaction = [{} for _ in range(dim)]
    for (j, k), h in cells.items():
        coaction[j][k] = h
    data = {j: {k: CycNum.rational(n, v) for k, v in row.items()}
            for j, row in xhat.items()}
    return YDModule(A, dim, weights, CycMatrix(n, dim, dim, data), coaction)


def test_certificate_needs_even_parity(A3):
    # N = 1, X = 0 at V(+-1,0,0), and a vector counted twice at V(+1,1,0):
    # the dimensions balance, but (N +- X)/2 is no integer
    chi, chi2 = character(A3, 0, 0), character(A3, 0, 1)
    space = _space(A3, [(0, 0), (1, 1)], {1: {1: 1}},
                   {(0, 0): chi, (1, 1): chi2.scale(A3.scalar(2))})
    assert fusion._read_characters(space) is None


def test_certificate_needs_counts_in_range(A3):
    # both keys of U(0,1,0,2) read -1: consistent, but no multiplicity
    u = build_u_module(A3, 0, 1, 0, 2)
    minus = A3.scalar(-1)
    space = _space(A3, list(u.weights), {0: {1: 1}, 1: {0: 1}},
                   {(j, j): u.coaction[j][j].scale(minus) for j in (0, 1)})
    assert fusion._read_characters(space) is None


@pytest.mark.parametrize("lab, xhat", [(U(3, 0, 1, 0, 2), {}),
                                       (W(3, -1, 1, 0), {0: {0: -1}})],
                         ids=["U", "W"])
def test_certificate_needs_consistent_reads(A3, lab, xhat):
    # one vector of a simple, padded with empty vectors to its dimension:
    # the dimensions balance, but its other keys read 0
    S = build_simple(A3, lab)
    space = _space(A3, list(S.weights), xhat, {(0, 0): S.coaction[0][0]})
    assert fusion._read_characters(space) is None


def test_certificate_needs_zero_off_key_traces(A3):
    # W(-1,1,0) with part of the f_aa coefficient of one diagonal cell
    # moved to f_{a,a+1}: every A(mu) and B(mu) is unchanged
    S = build_simple(A3, W(3, -1, 1, 0))
    cell = dict(S.coaction[1][1].coeffs)
    (key, v) = next((key, v) for key, v in cell.items() if key[1] == key[2])
    cell[key] = v - A3.scalar(1)
    cell[F, key[1], (key[1] + 1) % 3] = A3.scalar(1)
    coaction = [dict(row) for row in S.coaction]
    coaction[1][1] = KnElement(A3, cell)
    space = YDModule(A3, 3, S.weights, S.action_x, coaction)
    assert fusion._read_characters(S) == FusionDecomposition.from_pairs(
        [(W(3, -1, 1, 0), 1)])
    assert fusion._read_characters(space) is None
