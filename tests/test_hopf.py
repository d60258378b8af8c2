"""Structure maps and axioms of K_n."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knyd import hopf
from knyd.cyclotomic import CycNum, cyc, root, root_exponents
from knyd.hopf import (F, KnAlgebra, KnElement, P, TensorElement, antipode,
                       character, comultiply, counit, delta_terms, multiply,
                       product_table, verify_hopf_axioms)
from oracles import (adjoint_action, closed_form_comultiply, comatrix_element,
                     solve, transpose, xhat)


@pytest.fixture(scope="module")
def A3():
    return KnAlgebra(3)


@pytest.mark.parametrize("n", [3, 9])
def test_structure_constants(n):
    A = KnAlgebra(n)
    for i in range(n):
        for j in range(n):
            p = A.basis(P, i, j)
            f = A.basis(F, i, j)
            assert multiply(p, p) == p
            assert multiply(p, f) == f
            assert multiply(f, A.basis(P, j, i)) == f
            assert multiply(f, A.basis(F, j, i)) == p
            # a zero product: p_{ij} p_{i+1,j}
            assert multiply(p, A.basis(P, i + 1, j)).is_zero()
            # f_{ij} f_{ij} = 0 unless j == i
            if i != j:
                assert multiply(f, f).is_zero()


@pytest.mark.parametrize("n", [3, 9])
def test_unit_element(n):
    A = KnAlgebra(n)
    one = A.unit()
    for key in A.basis_indices():
        x = A.basis(*key)
        assert multiply(one, x) == x
        assert multiply(x, one) == x


def test_tensor_product_is_factorwise_multiply(A3):
    # reference: multiply each tensor factor on its own, over all pairs of
    # terms of Delta(x) and Delta(y)
    nonzero = 0
    for kx in A3.basis_indices():
        dx = comultiply(A3.basis(*kx))
        for ky in A3.basis_indices():
            dy = comultiply(A3.basis(*ky))
            expected: dict = {}
            for (l1, r1), v in dx.coeffs.items():
                for (l2, r2), w in dy.coeffs.items():
                    left = multiply(A3.basis(*l1), A3.basis(*l2))
                    right = multiply(A3.basis(*r1), A3.basis(*r2))
                    for kl, a in left.coeffs.items():
                        for kr, b in right.coeffs.items():
                            c = v * w * a * b
                            s = expected.get((kl, kr))
                            expected[(kl, kr)] = c if s is None else s + c
            product = dx * dy
            assert product == TensorElement(A3, expected), (kx, ky)
            nonzero += not product.is_zero()
    assert nonzero > 0


def test_sparse_elements_check_their_algebra(A3):
    # K_n and K_n (x) K_n share one sparse arithmetic, which refuses
    # operands over another n, and so does the product of each
    A5 = KnAlgebra(5)
    for x, y in ((A3.unit(), A5.unit()),
                 (comultiply(A3.unit()), comultiply(A5.unit()))):
        for op in (lambda: x + y, lambda: x - y, lambda: x * y):
            with pytest.raises(ValueError, match="algebra mismatch"):
                op()
    d = comultiply(A3.basis(F, 1, 2))
    assert d + d - d == d and (d - d).is_zero()
    assert -d == d.scale(A3.scalar(-1))
    assert type(d + d) is TensorElement and d != A3.basis(F, 1, 2)


def test_comultiplication_coefficients(A3):
    n = 3
    # Delta(p_ij): n^2 terms, all coefficient 1
    d = comultiply(A3.basis(P, 1, 2))
    assert len(d.coeffs) == n * n
    assert all(v.is_one() for v in d.coeffs.values())
    for ((_, i1, j1), (_, i2, j2)) in d.coeffs:
        assert (i1 + i2) % n == 1 and (j1 + j2) % n == 2
    # Delta(f_ij): coefficient of f_{i1 j1} (x) f_{i2 j2} is the twist
    # xi^{i1 j2 - j1 i2}
    d = comultiply(A3.basis(F, 1, 2))
    for ((_, i1, j1), (_, i2, j2)), v in d.coeffs.items():
        assert v == cyc(n, i1 * j2 - j1 * i2)


def test_antipode_involution_and_antihomomorphism(A3):
    for key in A3.basis_indices():
        x = A3.basis(*key)
        assert antipode(antipode(x)) == x
    # S(xy) = S(y) S(x) on a spanning sample
    sample = [A3.basis(P, 1, 2), A3.basis(F, 0, 1),
              A3.basis(F, 2, 2) + A3.basis(P, 0, 0).scale(A3.scalar(3))]
    for x in sample:
        for y in sample:
            assert antipode(multiply(x, y)) == \
                multiply(antipode(y), antipode(x))


def test_counit_is_multiplicative(A3):
    sample = [A3.basis(P, 0, 0), A3.basis(F, 0, 0),
              A3.basis(P, 1, 2) + A3.basis(F, 0, 0)]
    for x in sample:
        for y in sample:
            assert counit(multiply(x, y)) == counit(x) * counit(y)


@pytest.mark.parametrize("n", [3, 9])
def test_hopf_axiom_suite_passes(n):
    report = verify_hopf_axioms(KnAlgebra(n))
    assert report["ok"]
    for name, entry in report.items():
        if isinstance(entry, dict):
            assert entry["ok"], (name, entry["counterexample"])


def _index_swapped_antipode(x):
    """S with the f-index convention swapped: S(f_ij) = f_{-i,-j} instead
    of f_{-j,-i}."""
    n = x.algebra.n
    out = {}
    for (kind, i, j), v in x.coeffs.items():
        key = (P, (-i) % n, (-j) % n) if kind == P else \
            (F, (-i) % n, (-j) % n)
        out[key] = out.get(key, x.algebra.scalar(0)) + v
    return KnElement(x.algebra, out)


def _antipode_with_a_stray_term(x):
    """S with f_10 added to S(p_02), at n = 3.  In m(S x id)Delta(p_00)
    the term S(p_02) p_01 gains f_10 p_01 = f_10; in m(id x S)Delta(p_00)
    the term p_01 S(p_02) gains p_01 f_10 = 0.  So at p_00 only the left
    side of the antipode law fails; the right side fails first at p_12."""
    out = antipode(x)
    c = x.coeffs.get((P, 0, 2))
    return out if c is None else out + KnElement(x.algebra, {(F, 1, 0): c})


def test_corrupted_antipode_detected(A3):
    report = verify_hopf_axioms(A3, antipode_fn=_index_swapped_antipode)
    assert not report["ok"]
    assert not report["antipode"]["ok"]
    assert report["antipode"]["counterexample"] is not None
    # the other axioms do not involve S and still pass
    assert report["associativity"]["ok"]
    assert report["coassociativity"]["ok"]


# -- the table audit against element-level loops ------------------------------


def _reference_audit(A, antipode_fn=None):
    """Counterexamples of the Hopf axioms found by multiplying and
    comultiplying basis elements: every triple for associativity, every
    pair for the multiplicativity axioms, every basis element for the
    rest."""
    S = antipode_fn if antipode_fn is not None else antipode
    basis = list(A.basis_indices())
    e = {k: A.basis(*k) for k in basis}
    one = A.unit()

    def delta(x):
        # term by term: a faulty Delta may hold one tensor key twice
        out = TensorElement(A, {})
        for key, v in x.coeffs.items():
            for k1, k2, w in delta_terms(A, key):
                out = out + TensorElement(A, {(k1, k2): root(A.n, w) * v})
        return out

    def total(elements):
        out = KnElement(A, {})
        for x in elements:
            out = out + x
        return out

    def triples(terms):
        out: dict = {}
        for key, c in terms:
            out[key] = out[key] + c if key in out else c
        return {k: v for k, v in out.items() if not v.is_zero()}

    def first(cases):
        return next((ce for ce, bad in cases if bad), None)

    def delta_cases():
        yield "unit", delta(one) != TensorElement(
            A, {(k1, k2): v * w for k1, v in one.coeffs.items()
                for k2, w in one.coeffs.items()})
        for x in basis:
            dx = delta(e[x])
            for y in basis:
                yield (x, y), delta(multiply(e[x], e[y])) != dx * delta(e[y])

    def coassociative(x):
        dx = delta(e[x]).coeffs.items()
        return (triples(((l1, l2, r), v * w) for (l, r), v in dx
                        for (l1, l2), w in delta(e[l]).coeffs.items())
                == triples(((l, r1, r2), v * w) for (l, r), v in dx
                           for (r1, r2), w in delta(e[r]).coeffs.items()))

    def counital(x):
        dx = delta(e[x]).coeffs.items()
        return (total(e[r].scale(counit(e[l]) * v) for (l, r), v in dx)
                == e[x]
                == total(e[l].scale(v * counit(e[r])) for (l, r), v in dx))

    def antipodal(x):
        dx = delta(e[x]).coeffs.items()
        return (total(multiply(S(e[l]), e[r]).scale(v) for (l, r), v in dx)
                == one.scale(counit(e[x]))
                == total(multiply(e[l], S(e[r])).scale(v) for (l, r), v in dx))

    return {
        "associativity": first(
            ((x, y, z), multiply(multiply(e[x], e[y]), e[z])
             != multiply(e[x], multiply(e[y], e[z])))
            for x in basis for y in basis for z in basis),
        "unit": first((x, multiply(one, e[x]) != e[x]
                       or multiply(e[x], one) != e[x]) for x in basis),
        "coassociativity": first((x, not coassociative(x)) for x in basis),
        "counit": first((x, not counital(x)) for x in basis),
        "delta_multiplicative": first(delta_cases()),
        "counit_multiplicative": first(
            ((x, y), counit(multiply(e[x], e[y])) != counit(e[x]) * counit(e[y]))
            for x in basis for y in basis),
        "antipode": first((x, not antipodal(x)) for x in basis),
    }


def _wrong_product(n, key=(P, 0, 0), slot=0, right=(P, 0, 0),
                   product=(P, 1, 1)):
    """product_table with one wrong entry: key's right partner number
    `slot` becomes `right`, with the product `product`."""
    table = dict(product_table(n))
    partners = list(table[key])
    partners[slot] = (right, product)
    table[key] = tuple(partners)
    return table


def _wrong_twist(n, term=1, key=(F, 1, 2)):
    """The Delta cache with the coefficient of term number `term` of
    Delta(key) multiplied by xi, whose exponent in Z/2n is n + 1.  Term 0
    of Delta(f_12) is f_00 (x) f_12, the one term that the counit law
    (eps x id) reads."""
    cache = dict(hopf._delta_cache(n))
    terms = list(cache[key])
    k1, k2, v = terms[term]
    terms[term] = (k1, k2, (v + n + 1) % (2 * n))
    cache[key] = terms
    return cache


def _repeated_term(n):
    """The Delta cache with term 1 of Delta(f_12) appended again under
    another exponent, that of xi times its own, so that Delta(f_12) holds
    that tensor key twice, with two different roots."""
    cache = dict(hopf._delta_cache(n))
    terms = list(cache[(F, 1, 2)])
    k1, k2, v = terms[1]
    terms.append((k1, k2, (v + n + 1) % (2 * n)))
    cache[(F, 1, 2)] = terms
    return cache


def _swapped_factors(n):
    """The Delta cache with the factors of one term of Delta(f_12)
    swapped, so that Delta(f_12) holds that tensor key twice."""
    cache = dict(hopf._delta_cache(n))
    terms = list(cache[(F, 1, 2)])
    k1, k2, v = terms[1]
    terms[1] = (k2, k1, v)
    cache[(F, 1, 2)] = terms
    return cache


FAULTS = {
    "product": {},                                   # p00 p00 = p11
    "right-unit": {"key": (F, 0, 1), "right": (P, 1, 0),
                   "product": (F, 1, 1)},            # f01 p10 = f11
    # f20 p20 = f21 in place of f20 f02 = p20: the first failure of Delta
    # multiplicativity is a pair whose product is zero
    "partner": {"key": (F, 2, 0), "slot": 1, "right": (P, 2, 0),
                "product": (F, 2, 1)},
}

DELTA_FAULTS = {
    "twist": lambda: _wrong_twist(3),
    "counit-twist": lambda: _wrong_twist(3, term=0),
    # xi on p_01 (x) p_02 in Delta(p_00), so Delta(1) != 1 (x) 1
    "p-twist": lambda: _wrong_twist(3, key=(P, 0, 0)),
    "swap": lambda: _swapped_factors(3),
    "repeat": lambda: _repeated_term(3),
}

ANTIPODE_FAULTS = {"antipode": _index_swapped_antipode,
                   "stray-antipode-term": _antipode_with_a_stray_term}


def _inject(monkeypatch, fault):
    """Install a named fault for K_3; returns the antipode both audits
    are given (None for the true one)."""
    if fault in FAULTS:
        monkeypatch.setattr(hopf, "product_table",
                            lambda n, t=_wrong_product(3, **FAULTS[fault]): t)
    elif fault in DELTA_FAULTS:
        monkeypatch.setattr(hopf, "_delta_cache",
                            lambda n, c=DELTA_FAULTS[fault](): c)
    return ANTIPODE_FAULTS.get(fault)


@pytest.mark.parametrize("fault", [None, *FAULTS, *DELTA_FAULTS,
                                   *ANTIPODE_FAULTS])
def test_table_audit_matches_element_loops(A3, monkeypatch, fault):
    antipode_fn = _inject(monkeypatch, fault)
    report = verify_hopf_axioms(A3, antipode_fn=antipode_fn)
    reference = _reference_audit(A3, antipode_fn)
    for axiom, ce in reference.items():
        assert report[axiom]["ok"] == (ce is None), axiom
        assert report[axiom]["counterexample"] == ce, axiom
    if fault is not None:
        assert any(ce is not None for ce in reference.values())


def test_every_axiom_fails_under_some_fault(A3, monkeypatch):
    failed = set()
    for fault in [*FAULTS, *DELTA_FAULTS, *ANTIPODE_FAULTS]:
        with monkeypatch.context() as patch:
            reference = _reference_audit(A3, _inject(patch, fault))
        failed |= {axiom for axiom, ce in reference.items() if ce is not None}
    assert failed == set(_reference_audit(A3))


def test_wrong_product_key_fails_associativity(A3, monkeypatch):
    monkeypatch.setattr(hopf, "product_table",
                        lambda n, t=_wrong_product(3): t)
    report = verify_hopf_axioms(A3)
    assert not report["ok"] and not report["associativity"]["ok"]
    ce = report["associativity"]["counterexample"]
    basis = set(A3.basis_indices())
    assert len(ce) == 3 and all(key in basis for key in ce)
    x, y, z = (A3.basis(*key) for key in ce)
    assert multiply(multiply(x, y), z) != multiply(x, multiply(y, z))


def test_wrong_twist_fails_delta_axioms(A3, monkeypatch):
    monkeypatch.setattr(hopf, "_delta_cache", lambda n, c=_wrong_twist(3): c)
    report = verify_hopf_axioms(A3)
    assert not report["delta_multiplicative"]["ok"]
    assert not report["coassociativity"]["ok"]
    assert report["associativity"]["ok"] and report["unit"]["ok"]


@pytest.mark.parametrize("n,samples", [(3, None), (5, None), (7, None),
                                       (9, 20)])
def test_delta_terms_is_comultiply_on_exponents(n, samples):
    A = KnAlgebra(n)
    roots = root_exponents(n)
    keys = list(A.basis_indices())
    if samples is not None:
        keys = random.Random(n).sample(keys, samples)
    for key in keys:
        assert delta_terms(A, key) == [
            (k1, k2, roots[v]) for (k1, k2), v
            in closed_form_comultiply(A.basis(*key)).coeffs.items()], key
    # comultiply reads the table, on a sum of basis keys
    x = KnElement(A, {key: cyc(n, t) for t, key in enumerate(keys)})
    assert comultiply(x) == closed_form_comultiply(x)


def test_characters_are_group_like(A3):
    n = 3
    for m in range(n):
        for t in range(n):
            chi = character(A3, m, t)
            assert counit(chi).is_one()
            d = comultiply(chi)
            expected = {}
            for k1, v1 in chi.coeffs.items():
                for k2, v2 in chi.coeffs.items():
                    expected[(k1, k2)] = v1 * v2
            assert d.coeffs == {k: v for k, v in expected.items()
                                if not v.is_zero()}
    # pointwise product of characters adds parameters
    assert multiply(character(A3, 1, 2), character(A3, 2, 2)) == \
        character(A3, 0, 1)


def test_xhat_squares_to_one_and_twisted_group_like(A3):
    n = 3
    x = xhat(A3)
    assert multiply(x, x) == A3.unit()
    d = comultiply(x)
    expected = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    expected[((F, i, j), (F, k, l))] = cyc(n, i * l - j * k)
    assert d.coeffs == expected


@pytest.mark.parametrize("n", [3, 5])
def test_comatrix_coalgebra(n):
    A = KnAlgebra(n)
    es = {(k, l): comatrix_element(A, k, l)
          for k in range(n) for l in range(n)}
    for k in range(n):
        for l in range(n):
            # counit
            eps = counit(es[(k, l)])
            assert eps.is_one() if k == l else eps.is_zero()
            # Delta(e_kl) = sum_r e_kr (x) e_rl
            lhs = comultiply(es[(k, l)])
            acc = {}
            for r in range(n):
                for k1, v1 in es[(k, r)].coeffs.items():
                    for k2, v2 in es[(r, l)].coeffs.items():
                        key = (k1, k2)
                        c = v1 * v2
                        acc[key] = acc.get(key, CycNum.zero(n)) + c
            acc = {key: v for key, v in acc.items() if not v.is_zero()}
            assert lhs.coeffs == acc


@pytest.mark.parametrize("n", [3, 5])
def test_adjoint_action_on_comatrix_row(n):
    # f_{pq} acts on e_{r,0} by e_{-r,0} exactly when (p,q) = (-2r, 2r)
    A = KnAlgebra(n)
    for r in range(n):
        e = comatrix_element(A, r, 0)
        for p in range(n):
            for q in range(n):
                result = adjoint_action(A.basis(F, p, q), e)
                if (p, q) == ((-2 * r) % n, (2 * r) % n):
                    assert result == comatrix_element(A, (-r) % n, 0)
                else:
                    assert result.is_zero()


def test_comatrix_row_span_invariant_under_adjoint(A3):
    # h -> e_{r0} stays inside span{e_{s0}} for every basis element h
    from knyd.linalg import CycMatrix
    n = 3
    keys = sorted({key for s in range(n)
                   for key in comatrix_element(A3, s, 0).coeffs})
    index = {key: pos for pos, key in enumerate(keys)}

    def coords(elt):
        vec = [CycNum.zero(n)] * len(keys)
        for key, v in elt.coeffs.items():
            if key not in index:
                return None
            vec[index[key]] = v
        return vec

    basis_cols = [coords(comatrix_element(A3, s, 0)) for s in range(n)]
    span = transpose(CycMatrix.from_rows(n, basis_cols))
    for hkey in A3.basis_indices():
        for r in range(n):
            result = adjoint_action(A3.basis(*hkey),
                                    comatrix_element(A3, r, 0))
            vec = coords(result)
            assert vec is not None, (hkey, r)
            assert solve(span, vec) is not None, (hkey, r)


# -- the comparison rule of the audits ----------------------------------------


def _value(n, t):
    """A term of a side: the root of exponent t, or t itself (a CycNum)."""
    return root(n, t) if type(t) is int else t


def _gathered(n, terms):
    """A side as the audits gather one: the exponents of the root terms,
    the count of all terms and the exact stream."""
    return ({key: t for key, t in terms if type(t) is int}, len(terms),
            lambda: ((key, _value(n, t)) for key, t in terms))


def _scattered(n, terms):
    """The same side read through `hopf._scatter`, as one case of many."""
    sides = hopf._scatter(n, lambda: (("case", key, t) for key, t in terms))
    return sides.get("case", hopf._EMPTY)


def _exactly_equal(n, lhs, rhs):
    return (hopf._collect((key, _value(n, t)) for key, t in lhs)
            == hopf._collect((key, _value(n, t)) for key, t in rhs))


def _verdicts(n, lhs, rhs):
    return {hopf._sums_equal(side(n, lhs), side(n, rhs))
            for side in (_gathered, _scattered)}


def test_sums_equal_hand_cases():
    n = 3
    two = CycNum.rational(n, 2)
    cases = [
        # the last-wins maps agree, {k: 0}, but 1 + 1 != 1, on either side
        ([("k", 0), ("k", 0)], [("k", 0)], False),
        ([("k", 0)], [("k", 0), ("k", 0)], False),
        ([("k", 0), ("k", 0)], [("k", two)], True),
        # xi + (-xi) = 0: a cancelling pair against no terms
        ([("k", 4), ("k", 4 + n)], [], True),
        ([("k", 4), ("l", 2)], [("l", 2), ("k", 4)], True),
        ([("k", 4)], [("k", 1)], False),
        ([("k", two)], [("k", two)], True),
    ]
    for lhs, rhs, equal in cases:
        assert _exactly_equal(n, lhs, rhs) is equal
        assert _verdicts(n, lhs, rhs) == {equal}, (lhs, rhs)


def _term(n):
    """A term over Q(xi_n): a root's exponent, a rational multiple of a
    root or 1 + xi^k, as a CycNum."""
    exponent = st.integers(0, 2 * n - 1)
    weighted = st.builds(
        lambda e, p, q: root(n, e) * CycNum.rational(n, Fraction(p, q)),
        exponent, st.integers(-3, 3).filter(bool), st.integers(2, 3))
    one_plus = st.builds(lambda k: cyc(n, 0) + cyc(n, k),
                         st.integers(1, n - 1))
    return st.one_of(exponent, exponent, weighted, one_plus)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sums_equal_is_the_exact_comparison(data):
    n = data.draw(st.sampled_from([3, 5]))
    keys = st.sampled_from("klm")
    lhs = data.draw(st.lists(st.tuples(keys, _term(n)), max_size=6))
    # cancelling pairs: some root terms also with the opposite root
    lhs += [(key, (t + n) % (2 * n)) for key, t in lhs
            if type(t) is int and data.draw(st.booleans())]
    way = data.draw(st.sampled_from(["shuffled", "summed", "drawn"]))
    if way == "drawn":
        rhs = data.draw(st.lists(st.tuples(keys, _term(n)), max_size=6))
    else:
        rhs = data.draw(st.permutations(lhs))
        if way == "summed":
            # each key's terms as one exact term, a root read as its
            # exponent, zeros dropped
            exponents = root_exponents(n)
            sums = hopf._collect((key, _value(n, t)) for key, t in rhs)
            rhs = [(key, exponents.get(c, c)) for key, c in sums.items()]
    if data.draw(st.booleans()) and rhs:
        # one term moved to another root
        i = data.draw(st.integers(0, len(rhs) - 1))
        key, t = rhs[i]
        rhs[i] = (key, (t + n + 1) % (2 * n) if type(t) is int
                  else t * cyc(n, 1))
    assert _verdicts(n, lhs, rhs) == {_exactly_equal(n, lhs, rhs)}
