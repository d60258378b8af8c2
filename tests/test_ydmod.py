"""Simple Yetter-Drinfeld modules: labels, axioms, braidings."""

import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knyd.cyclotomic import CycNum, cyc, modular_prime, root, root_order
from knyd.fusion import closed_form_fuse, decompose, tensor_module
from knyd.hopf import (F, P, KnAlgebra, KnElement, _collect, antipode,
                       basis_numbers, character, counit, multiply)
from knyd import ydmod
from knyd.linalg import CycMatrix
from knyd.ydmod import (U, V, W, YDModule, braided_space, braiding,
                        build_simple, build_u_module, check_yd,
                        dimension_census, direct_sum, hom_dimension,
                        label_weights, list_simples, parse_label)
from oracles import (accumulated_braiding, closed_form_comultiply,
                     comatrix_element, is_yd_map, rref)


@pytest.fixture(scope="module")
def A3():
    return KnAlgebra(3)


# -- labels -----------------------------------------------------------------------


def test_label_grammar_round_trip():
    n = 5
    for text, expect in [("V(+1,2,3)", V(n, 1, 2, 3)),
                         ("V(-1,0,0)", V(n, -1, 0, 0)),
                         ("W(-1,4,1)", W(n, -1, 4, 1)),
                         ("U(1,0,1,0)", U(n, 1, 0, 1, 0)),
                         (" W( +1 , 7 , -1 ) ", W(n, 1, 2, 4))]:
        assert parse_label(text, n) == expect
    assert str(parse_label("V(+1,2,3)", n)) == "V(+1,2,3)"


@pytest.mark.parametrize("bad", ["X(1,2,3)", "V(2,0,0)", "V(+1,0)",
                                 "U(1,2,3)", "W(-1,0,0,0)", "", "U[1,2,3,4]"])
def test_label_grammar_rejects(bad):
    with pytest.raises(ValueError):
        parse_label(bad, 3)


def test_u_canonicalization():
    n = 3
    # (i,j,m,t) and (j,i,t+2i,m-2j) name the same module
    assert U(n, 1, 0, 1, 0) == U(n, 0, 1, 2, 1)
    assert U(n, 2, 0, 1, 2) == U(n, 0, 2, (2 + 4) % 3, (1 - 0) % 3)
    # reducible parameters are rejected
    with pytest.raises(ValueError):
        U(n, 1, 1, 0, (0 - 2) % 3)
    with pytest.raises(ValueError):
        parse_label("U(0,0,2,2)", 3)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([3, 5, 7, 9, 15]).flatmap(
    lambda n: st.tuples(st.just(n), *[st.integers(-2 * n, 2 * n)] * 4)))
def test_u_canonicalization_properties(case):
    n, i, j, m, t = case
    try:
        label = U(n, i, j, m, t)
    except ValueError:
        # only the reducible parameters are rejected, in both forms
        assert (i - j) % n == 0 and (t - m + 2 * i) % n == 0
        with pytest.raises(ValueError):
            U(n, j, i, t + 2 * i, m - 2 * j)
        return
    # both partner forms give the label, which is a fixed point
    assert U(n, j, i, t + 2 * i, m - 2 * j) == label
    assert U(n, *label.data) == label
    assert parse_label(str(label), n) == label
    assert all(0 <= a < n for a in label.data)


def test_list_simples_counts_and_census(A3):
    labels = list_simples(A3)
    assert len(labels) == 72
    by_kind = {}
    for L in labels:
        by_kind[L.kind] = by_kind.get(L.kind, 0) + 1
    assert by_kind == {"V": 18, "U": 36, "W": 18}
    assert len(set(labels)) == len(labels)
    assert dimension_census(A3) == 4 * 3 ** 4 == 324


@pytest.mark.parametrize("n,expected", [(3, 324), (5, 2500), (7, 9604)])
def test_census_4n4(n, expected):
    assert dimension_census(KnAlgebra(n)) == expected


# -- axioms -----------------------------------------------------------------------


def test_yd_axioms_exhaustive_n3(A3):
    for L in list_simples(A3):
        report = check_yd(build_simple(A3, L))
        assert report["ok"], (str(L), report)


def test_yd_axioms_sampled_n5():
    A = KnAlgebra(5)
    labels = random.Random(1).sample(list_simples(A), 10)
    for L in labels:
        assert check_yd(build_simple(A, L))["ok"], str(L)


def test_yd_axioms_sampled_n9():
    # composite n: one seeded label of each kind, and a module whose action
    # and coaction are each valid but not compatible
    A = KnAlgebra(9)
    rng = random.Random(9)
    labels = list_simples(A)
    for kind in "VUW":
        L = rng.choice([lab for lab in labels if lab.kind == kind])
        assert check_yd(build_simple(A, L))["ok"], str(L)
    M = build_simple(A, V(9, 1, 0, 0))
    mixed = YDModule(A, M.dim, M.action_p, M.action_x,
                     build_simple(A, V(9, 1, 1, 0)).coaction)
    report = check_yd(mixed)
    assert not report["ok"]
    assert report["module"] is None and report["comodule"] is None
    assert report["yd"] is not None


def test_reducible_u_module_satisfies_axioms(A3):
    # the non-canonical two-dimensional module with i=j, t=m-2i is a valid
    # YD module (it is just not simple)
    M = build_u_module(A3, 1, 1, 0, 1)
    assert check_yd(M)["ok"]


def test_w_xhat_variant_resolution(A3):
    # The x^ action on W(eps,i,m) carries the weight-dependent factor
    # xi^{4ir}; the plain eps w_{-r} variant violates the YD axiom whenever
    # i != 0.  This freezes the adopted convention.
    n = 3
    eps, i, m = 1, 1, 2
    good = build_simple(A3, W(n, eps, i, m))
    assert check_yd(good)["ok"]
    plain_x = CycMatrix.zero(n, n, n)
    for r in range(n):
        plain_x.set((-r) % n, r, A3.scalar(eps))
    bad = YDModule(A3, n, good.action_p, plain_x, good.coaction)
    report = check_yd(bad)
    assert not report["ok"]
    assert report["yd"] is not None
    # for i = 0 the two conventions coincide and both pass
    good0 = build_simple(A3, W(n, eps, 0, m))
    assert check_yd(good0)["ok"]


def test_corrupted_coaction_detected(A3):
    n = 3
    good = build_simple(A3, V(n, 1, 1, 2))
    bad = YDModule(A3, 1, good.action_p, good.action_x,
                   [{0: character(A3, 2, 2)}])
    report = check_yd(bad)
    assert not report["ok"]


# -- check_yd against the element-level reference ----------------------------


@lru_cache(maxsize=None)
def _sandwiches(n, hkind, gkey):
    """Every nonzero h1 g S(h3) with h1, h3 basis keys of kind hkind, by
    `multiply` and `antipode`: a list of (h1, h3, {key: coefficient})."""
    A = KnAlgebra(n)
    keys = [k for k in A.basis_indices() if k[0] == hkind]
    out = []
    for h1 in keys:
        q = multiply(A.basis(*h1), A.basis(*gkey))
        if q.is_zero():
            continue
        for h3 in keys:
            x = multiply(q, antipode(A.basis(*h3)))
            if not x.is_zero():
                out.append((h1, h3, x.coeffs))
    return out


@lru_cache(maxsize=None)
def _delta(n, hkey):
    """Delta of a basis key from its closed form (`oracles`), as
    {(key1, key2): coefficient}."""
    return closed_form_comultiply(KnAlgebra(n).basis(*hkey)).coeffs


def _delta2(n, h, h1, h3):
    """The term h1 (x) h2 (x) h3 of Delta^2(h), for h1, h3 of h's kind, as
    (h2, coefficient): the closed-form Delta applied twice,
    h -> h12 (x) h3 and h12 -> h1 (x) h2."""
    kind, i, j = h
    h12 = (kind, (i - h3[1]) % n, (j - h3[2]) % n)
    h2 = (kind, (h12[1] - h1[1]) % n, (h12[2] - h1[2]) % n)
    return h2, _delta(n, h)[(h12, h3)] * _delta(n, h12)[(h1, h2)]


@pytest.mark.parametrize("n,samples", [(3, None), (9, 6)])
def test_yd_terms_are_delta_applied_twice(n, samples):
    # each entry of the per-n table of YD right-side terms against
    # h1 g S(h3) by `multiply` (`_sandwiches`) and Delta^2 from the closed
    # form: one (h1, h3) per kind and g, and the coefficient of
    # h1 (x) h2 (x) h3 for every h2
    basis = list(basis_numbers(n))
    keys = [(hkind, g) for hkind in (P, F) for g in range(len(basis))]
    if samples is not None:
        keys = random.Random(n).sample(keys, samples)
    terms = ydmod._yd_terms(n)
    for hkind, g in keys:
        si, sj, result, e0, ea, eb = terms[hkind * len(basis) + g]
        (h1, h3, product), = _sandwiches(n, hkind, basis[g])
        assert product == {basis[result]: CycNum.one(n)}
        for a in range(n):
            for b in range(n):
                h = (hkind, (si + a) % n, (sj + b) % n)
                assert _delta2(n, h, h1, h3) == (
                    (hkind, a, b), root(n, e0 + a * ea + b * eb)), (h, g)


def _reference_comodule(M):
    """The first failing comodule case of M, as `_reference_check_yd`
    finds it: each side of coassociativity summed in Q(xi_n), with Delta
    from its closed form."""
    n = M.algebra.n
    one = CycNum.one(n)
    for j, row in enumerate(M.coaction):
        if _collect((k, counit(h)) for k, h in row.items()) != {j: one}:
            return ("counit", j)
        left = _collect(((k1, k2, k), v * w) for k, h in row.items()
                        for hkey, v in h.coeffs.items()
                        for (k1, k2), w in _delta(n, hkey).items())
        right = _collect(((hkey, gkey, l), v * w) for k, h in row.items()
                         for l, g in M.coaction[k].items()
                         for hkey, v in h.coeffs.items()
                         for gkey, w in g.coeffs.items())
        if left != right:
            return ("coassociativity", j)
    return None


def _reference_check_yd(M):
    """check_yd with every coefficient a CycNum: Delta from its closed form
    (`_delta`), h1 g S(h3) from `multiply` (`_sandwiches`), the Delta^2
    coefficient as that Delta applied twice (`_delta2`), and each side of
    every identity summed in Q(xi_n) and compared."""
    A = M.algebra
    n = A.n
    report = {"module": None, "comodule": None, "yd": None}

    wt = M.weights
    failure = None
    if M.action_x @ M.action_x != CycMatrix.identity(n, M.dim):
        failure = ("x_squared", None)
    else:
        bad = next((wt[c] for r, row in M.action_x.data.items()
                    for c, v in row.items()
                    if wt[r] != wt[c][::-1] and not v.is_zero()), None)
        if bad is not None:
            failure = ("x_p_commutation", bad)
    report["module"] = failure

    report["comodule"] = _reference_comodule(M)

    def column(key, c):
        return [(r, row[c]) for r, row in M.action_of(key).data.items()
                if c in row and not row[c].is_zero()]

    failure = None
    for hkey in A.basis_indices():
        for j in range(M.dim):
            lhs = _collect(((gkey, l), coeff * v)
                           for k, coeff in column(hkey, j)
                           for l, g in M.coaction[k].items()
                           for gkey, v in g.coeffs.items())
            rhs = []
            for k, g in M.coaction[j].items():
                for gkey, gamma in g.coeffs.items():
                    for h1, h3, product in _sandwiches(n, hkey[0], gkey):
                        h2key, d = _delta2(n, hkey, h1, h3)
                        rhs += [((result, r), gamma * c * d * w)
                                for result, c in product.items()
                                for r, w in column(h2key, k)]
            if lhs != _collect(rhs):
                failure = ("yd", hkey, j)
                break
        if failure:
            break
    report["yd"] = failure
    report["ok"] = all(report[k] is None for k in ("module", "comodule", "yd"))
    return report


def _scaled_cell(M, part, cell, factor):
    """M with one action (x^) or coaction cell multiplied by factor."""
    x = CycMatrix(M.algebra.n, M.dim, M.dim,
                  {r: dict(row) for r, row in M.action_x.data.items()})
    coaction = [dict(row) for row in M.coaction]
    r, c = cell
    if part == "action":
        x.data[r][c] = x.data[r][c] * factor
    else:
        coaction[r][c] = coaction[r][c].scale(factor)
    return YDModule(M.algebra, M.dim, M.weights, x, coaction)


def _cells(M, part):
    if part == "action":
        return sorted((r, c) for r, row in M.action_x.data.items()
                      for c in row)
    return sorted((j, k) for j, row in enumerate(M.coaction) for k in row)


def _conjugated_v_sum(n):
    """V(+1,0,0) + V(-1,0,0) in the basis changed by [[1, 1+xi], [0, 1]]:
    both vectors have weight (0, 0) and coaction 1 (x) v, which the change
    of basis keeps, and x^ = diag(1, -1) becomes P x^ P^-1."""
    A = KnAlgebra(n)
    M = direct_sum(build_simple(A, V(n, 1, 0, 0)),
                   build_simple(A, V(n, -1, 0, 0)))
    t = cyc(n, 0) + cyc(n, 1)
    P = CycMatrix.from_rows(n, [[1, t], [0, 1]])
    P_inv = CycMatrix.from_rows(n, [[1, -t], [0, 1]])
    return YDModule(A, 2, M.weights, P @ M.action_x @ P_inv, M.coaction)


def _reference_cases():
    A3, A5, A9 = KnAlgebra(3), KnAlgebra(5), KnAlgebra(9)
    cases = [build_simple(A3, L) for L in list_simples(A3)]
    cases += [build_simple(A5, L)
              for L in random.Random(5).sample(list_simples(A5), 8)]
    rng = random.Random(9)
    labels9 = list_simples(A9)
    cases += [build_simple(A9, rng.choice([L for L in labels9
                                           if L.kind == kind]))
              for kind in "VUW"]
    # x^ on W(+1,1,2) without its factor xi^{4ir}
    good = build_simple(A3, W(3, 1, 1, 2))
    plain_x = CycMatrix.zero(3, 3, 3)
    for r in range(3):
        plain_x.set((-r) % 3, r, A3.scalar(1))
    cases.append(YDModule(A3, 3, good.weights, plain_x, good.coaction))
    # the action of V(+1,0,0) with the coaction of V(+1,1,0)
    M = build_simple(A3, V(3, 1, 0, 0))
    cases.append(YDModule(A3, 1, M.weights, M.action_x,
                          build_simple(A3, V(3, 1, 1, 0)).coaction))
    # W(-1,2,3) at n = 5 with one coaction cell negated
    M = build_simple(A5, W(5, -1, 2, 3))
    cases.append(_scaled_cell(M, "coaction", (1, 3), A5.scalar(-1)))
    # tensor products, of dimensions other than 1, 2 and n: W (x) W at
    # n = 3, U (x) W at n = 5, and W (x) W with one coaction cell negated
    WW = tensor_module(build_simple(A3, W(3, 1, 1, 2)),
                       build_simple(A3, W(3, -1, 0, 1)))
    cases.append(WW)
    cases.append(tensor_module(build_simple(A5, U(5, 1, 2, 0, 3)),
                               build_simple(A5, W(5, -1, 2, 3))))
    cases.append(_scaled_cell(WW, "coaction", _cells(WW, "coaction")[7],
                              A3.scalar(-1)))
    # U(1,0,1,0) in the basis (p u1, u2): x^ has the entries 1/p and p
    p = modular_prime(3)
    Um = build_u_module(A3, 1, 0, 1, 0)
    cases.append(YDModule(A3, 2, Um.weights, CycMatrix.from_rows(
        3, [[0, Fraction(1, p)], [p, 0]]), Um.coaction))
    # W(-1,1,2) at n = 5 in the basis (r+1) w_r: x^ and the coaction take
    # the rational factors (r+1)/(-r+1) and (j+1)/(k+1)
    M = build_simple(A5, W(5, -1, 1, 2))
    x = CycMatrix.zero(5, 5, 5)
    for r, row in M.action_x.data.items():
        for c, v in row.items():
            x.set(r, c, v * A5.scalar(Fraction(c + 1, r + 1)))
    cases.append(YDModule(A5, 5, M.weights, x, [
        {k: h.scale(A5.scalar(Fraction(j + 1, k + 1)))
         for k, h in row.items()} for j, row in enumerate(M.coaction)]))
    return cases


def test_check_yd_matches_the_reference():
    failing = 0
    for M in _reference_cases():
        report = check_yd(M)
        assert report == _reference_check_yd(M), M
        failing += not report["ok"]
    assert failing == 4


@pytest.mark.parametrize("n", [3, 5])
def test_check_yd_on_entries_that_are_not_roots(n):
    M = _conjugated_v_sum(n)
    assert not M.action_x.get(0, 1).is_zero()
    report = check_yd(M)
    assert report["ok"] and report == _reference_check_yd(M)
    bad = _scaled_cell(M, "coaction", (0, 0), cyc(n, 0) + cyc(n, 1))
    report = check_yd(bad)
    assert report == _reference_check_yd(bad)
    assert report["comodule"] == ("counit", 0)
    assert report["yd"] is not None


_SIMPLES = {n: list_simples(KnAlgebra(n)) for n in (3, 5, 7, 9)}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_check_yd_matches_the_reference_on_one_scaled_cell(data):
    n = data.draw(st.sampled_from(sorted(_SIMPLES)))
    M = build_simple(KnAlgebra(n), data.draw(st.sampled_from(_SIMPLES[n])))
    part = data.draw(st.sampled_from(["action", "coaction"]))
    cell = data.draw(st.sampled_from(_cells(M, part)))
    kind = data.draw(st.sampled_from(["root", "rational", "one_plus_root"]))
    if kind == "root":
        factor = root(n, data.draw(st.integers(0, 2 * n - 1)))
    elif kind == "rational":
        factor = CycNum.rational(n, Fraction(
            data.draw(st.integers(-6, 6).filter(bool)),
            data.draw(st.integers(1, 6))))
    else:
        factor = cyc(n, 0) + cyc(n, data.draw(st.integers(0, n - 1)))
    bad = _scaled_cell(M, part, cell, factor)
    assert check_yd(bad) == _reference_check_yd(bad)


# -- comodule coassociativity by rows --------------------------------------------


def _spy_rows(monkeypatch):
    """The rows that the check_yd calls that follow decide by rows
    (`ydmod._row_failed`), in order, and for each call which rows have a
    row layout (`ydmod._coaction_rows`)."""
    decided, layouts = [], []
    row_failed, coaction_rows = ydmod._row_failed, ydmod._coaction_rows

    def spy_layouts(*args):
        rows = coaction_rows(*args)
        layouts.append([lay is not None for lay in rows])
        return rows

    monkeypatch.setattr(ydmod, "_row_failed", lambda n, j, *args:
                        decided.append(j) or row_failed(n, j, *args))
    monkeypatch.setattr(ydmod, "_coaction_rows", spy_layouts)
    return decided, layouts


def _term_route_report(M):
    """check_yd with every row of the coaction on the term route."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ydmod, "_coaction_tables", lambda n: None)
        return check_yd(M)


def _with_terms(M, changes):
    """M with coaction terms changed: changes maps (j, k, key) to the new
    coefficient of key in cell (j, k), or None to drop it; a cell left
    empty is dropped."""
    coaction = [{k: dict(h.coeffs) for k, h in row.items()}
                for row in M.coaction]
    for (j, k, key), v in changes.items():
        cell = coaction[j].setdefault(k, {})
        if v is None:
            del cell[key]
        else:
            cell[key] = v
    return YDModule(M.algebra, M.dim, M.weights, M.action_x,
                    [{k: KnElement(M.algebra, c) for k, c in row.items() if c}
                     for row in coaction])


def _one_of_each_kind(n, seed):
    rng = random.Random(seed)
    return [rng.choice([L for L in _SIMPLES[n] if L.kind == kind])
            for kind in "VUW"]


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_simples_decide_coassociativity_by_rows(monkeypatch, n):
    # every row of every simple takes the row route, and the report is the
    # reference's: all 72 simples at n = 3, one seeded simple of each kind
    # after
    labels = _SIMPLES[3] if n == 3 else _one_of_each_kind(n, n + 1)
    decided, layouts = _spy_rows(monkeypatch)
    for L in labels:
        M = build_simple(KnAlgebra(n), L)
        del decided[:]
        report = check_yd(M)
        assert report["ok"] and report == _reference_check_yd(M), L
        assert decided == list(range(M.dim)) and all(layouts[-1]), L


def test_simples_decide_coassociativity_by_rows_at_n15(monkeypatch):
    # composite n = 15: the row route's report is the term route's on one
    # seeded simple of each kind, and the comodule case is the reference's
    # on the V and the U (the reference's YD pairs and its W comodule take
    # seconds each at this n)
    A = KnAlgebra(15)
    rng = random.Random(15)
    labels = [V(15, rng.choice((1, -1)), rng.randrange(15), rng.randrange(15)),
              U(15, 1, 3, rng.randrange(15), rng.randrange(15)),
              W(15, rng.choice((1, -1)), rng.randrange(15),
                rng.randrange(15))]
    decided, _ = _spy_rows(monkeypatch)
    for L in labels:
        M = build_simple(A, L)
        del decided[:]
        report = check_yd(M)
        assert decided == list(range(M.dim)), L
        assert report["ok"] and report == _term_route_report(M), L
        if L.kind != "W":
            assert _reference_comodule(M) is None


def _graded_rows(n, kinds):
    """A module of dimension 3 over K_n, n divisible by 3, graded by Z_3
    through the first index: cell (j + c) mod 3 of row j holds the keys
    (kinds[j][c], i, k) with i = c mod 3, each with coefficient 1.  With
    p keys on every row it is a comodule; x^ is the identity on weight
    (0, 0)."""
    A = KnAlgebra(n)
    one = CycNum.one(n)
    coaction = [{(j + c) % 3: KnElement(A, {
        (kinds[j][c], i, k): one for i in range(c, n, 3) for k in range(n)})
        for c in range(3)} for j in range(3)]
    return YDModule(A, 3, [(0, 0)] * 3, CycMatrix.identity(n, 3), coaction)


def _row_faults():
    """Coaction faults, each as (name, module, whether every row has a row
    layout, whether the first failing row is decided by rows)."""
    A3, A5 = KnAlgebra(3), KnAlgebra(5)
    n = 5
    Wm = build_simple(A5, W(n, -1, 1, 2))
    cell = Wm.coaction[1][3].coeffs
    key = next(iter(cell))
    # V(+1,0,0) + V(+1,0,0): trivial coaction, every exponent 0, so only
    # the cells tell a moved term
    VV = direct_sum(build_simple(A3, V(3, 1, 0, 0)),
                    build_simple(A3, V(3, 1, 0, 0)))
    swapped = [dict(row) for row in Wm.coaction]
    swapped[1][2], swapped[1][4] = swapped[1][4], swapped[1][2]
    return [
        ("exponent shifted by a root", _with_terms(
            Wm, {(1, 3, key): cell[key] * root(n, 3)}), True, True),
        ("term moved to another cell", _with_terms(
            VV, {(0, 0, (P, 1, 2)): None,
                 (0, 1, (P, 1, 2)): CycNum.one(3)}), True, True),
        ("two cells of a row swapped",
         YDModule(A5, n, Wm.weights, Wm.action_x, swapped), True, True),
        ("key in two cells of a row", _with_terms(
            Wm, {(1, 0, key): root(n, 1)}), False, False),
        ("p key on the grid index of an f key", _with_terms(
            Wm, {(1, 3, (P, 1, 1)): root(n, 0)}), False, False),
        # rows whose cells and exponents, read as bytes, are those of the
        # graded comodule on p keys: row 0 on p keys and f keys, and row 0
        # on p keys reaching rows 1 and 2 on f keys
        ("row mixing p and f keys",
         _graded_rows(3, ((P, F, F), (P,) * 3, (P,) * 3)), False, False),
        ("row reaching rows of the other kind",
         _graded_rows(3, ((P,) * 3, (F,) * 3, (F,) * 3)), True, False),
    ]


@pytest.mark.parametrize("fault", range(len(_row_faults())))
def test_coaction_faults_by_rows_match_the_reference(monkeypatch, fault):
    name, M, laid_out, by_rows = _row_faults()[fault]
    decided, layouts = _spy_rows(monkeypatch)
    report = check_yd(M)
    assert report == _reference_check_yd(M), name
    assert all(layouts[0]) == laid_out, name
    case, j = report["comodule"]
    assert case == "coassociativity", name
    assert (j in decided) == by_rows, name


@pytest.mark.parametrize("n", [3, 9])
def test_graded_rows_take_the_row_route(monkeypatch, n):
    # the Z_3-graded comodule on p keys: every row reaches every row.  On
    # f keys with coefficients 1 it is no comodule, since Delta twists the
    # f keys: row 0 fails on its exponents
    decided, _ = _spy_rows(monkeypatch)
    for kind, rows in ((P, [0, 1, 2]), (F, [0])):
        M = _graded_rows(n, ((kind,) * 3,) * 3)
        del decided[:]
        report = check_yd(M)["comodule"]
        assert report == _reference_comodule(M), kind
        assert (report is None) == (kind == P) and decided == rows, kind


def test_coaction_rows_without_a_root_leave_the_row_route(monkeypatch):
    # the coaction of W(-1,1,2) at n = 5 in the basis (r+1) w_r, a valid
    # comodule with rational factors, and a coefficient 1 + xi on
    # the conjugated V(+1,0,0) + V(-1,0,0): those rows, and every row that
    # reaches one, take the term route
    A5 = KnAlgebra(5)
    M = build_simple(A5, W(5, -1, 1, 2))
    scaled = YDModule(A5, 5, M.weights, M.action_x, [
        {k: h.scale(A5.scalar(Fraction(j + 1, k + 1)))
         for k, h in row.items()} for j, row in enumerate(M.coaction)])
    conjugated = _conjugated_v_sum(5)
    bad = _scaled_cell(conjugated, "coaction", (0, 0), cyc(5, 0) + cyc(5, 1))
    decided, layouts = _spy_rows(monkeypatch)
    assert check_yd(scaled)["comodule"] is None and decided == []
    assert layouts[-1] == [False] * 5
    assert check_yd(conjugated)["ok"] and decided == [0, 1]
    del decided[:]
    report = check_yd(bad)
    assert report == _reference_check_yd(bad)
    assert layouts[-1] == [False, True] and decided == []


def _trivial_sum(A, d):
    """V(+1,0,0) summed d times, from blocks of doubling dimension."""
    block, M = build_simple(A, V(A.n, 1, 0, 0)), None
    while d:
        if d & 1:
            M = block if M is None else direct_sum(M, block)
        d >>= 1
        block = direct_sum(block, block) if d else block
    return M


@pytest.mark.parametrize("d,by_rows", [(254, True), (255, False)])
def test_row_route_takes_modules_below_dimension_255(monkeypatch, d,
                                                     by_rows):
    # cells are bytes, and 255 marks no term
    M = _trivial_sum(KnAlgebra(3), d)
    assert M.dim == d
    decided, layouts = _spy_rows(monkeypatch)
    assert check_yd(M)["comodule"] is None
    assert decided == (list(range(d)) if by_rows else [])
    assert len(layouts) == by_rows


def test_w_weights(A3):
    n = 3
    for i in range(n):
        M = build_simple(A3, W(n, 1, i, 0))
        wt = M.weights
        for r in range(n):
            assert wt[r] == ((i + 2 * r) % n, (i - 2 * r) % n)


@pytest.mark.parametrize("n, count", [(3, None), (5, 8), (9, 6)])
def test_w_coaction_is_the_product_with_the_comatrix(n, count):
    # build_simple writes chi_{m,m-2i} e_{rk} from its closed form; it must
    # be the product in K_n, term by term and in the same key order
    A = KnAlgebra(n)
    labels = [L for L in list_simples(A) if L.kind == "W"]
    if count is not None:
        labels = random.Random(n).sample(labels, count)
    for L in labels:
        _, i, m = L.data
        chi = character(A, m, m - 2 * i)
        M = build_simple(A, L)
        for r in range(n):
            assert list(M.coaction[r]) == list(range(n))
            for k, h in M.coaction[r].items():
                product = multiply(chi, comatrix_element(A, r, k))
                assert list(h.coeffs.items()) == list(product.coeffs.items()), \
                    (str(L), r, k)


# -- braidings --------------------------------------------------------------------


def test_v_braiding_scalar(A3):
    # the self-braiding of V(eps,i,m) is xi^{2i(m-i)}: the coaction is the
    # character chi_{m,m-2i} alone, so eps (the x^ eigenvalue) drops out
    n = 3
    for eps in (1, -1):
        for i in range(n):
            for m in range(n):
                B = braided_space(build_simple(A3, V(n, eps, i, m)))
                q = B.c.get(0, 0)
                assert q == cyc(n, 2 * i * (m - i)), (eps, i, m)


def test_w_self_braiding_formula_exhaustive_n3(A3):
    # frozen closed form: c(w_l (x) w_r) =
    #     eps xi^{2i(m-i-2(l+r))} w_{-r} (x) w_{l+2r}
    n = 3
    for eps in (1, -1):
        for i in range(n):
            for m in range(n):
                M = build_simple(A3, W(n, eps, i, m))
                c = braiding(M, M)
                expected = CycMatrix.zero(n, n * n, n * n)
                for l in range(n):
                    for r in range(n):
                        coeff = cyc(n, 2 * i * (m - i - 2 * (l + r)))
                        if eps == -1:
                            coeff = -coeff
                        expected.set(((-r) % n) * n + (l + 2 * r) % n,
                                     l * n + r, coeff)
                assert c == expected, (eps, i, m)


def test_w_self_braiding_formula_spot_n5():
    n = 5
    A = KnAlgebra(n)
    for (eps, i, m) in [(1, 0, 1), (-1, 2, 3), (1, 4, 4)]:
        M = build_simple(A, W(n, eps, i, m))
        c = braiding(M, M)
        for (l, r) in [(0, 0), (1, 3), (4, 2)]:
            coeff = cyc(n, 2 * i * (m - i - 2 * (l + r)))
            if eps == -1:
                coeff = -coeff
            assert c.get(((-r) % n) * n + (l + 2 * r) % n,
                         l * n + r) == coeff


def test_braiding_of_every_pair_of_simples_n3(A3):
    # every ordered pair, cross pairs included, against the summed terms
    modules = [build_simple(A3, L) for L in list_simples(A3)]
    for Mv in modules:
        for Mw in modules:
            assert braiding(Mv, Mw) == accumulated_braiding(Mv, Mw), \
                (Mv.label, Mw.label)
    assert len(modules) == 72


@pytest.mark.parametrize("n, count", [(5, 300), (9, 60)])
def test_braiding_of_seeded_pairs_of_simples(n, count):
    A = KnAlgebra(n)
    labels = list_simples(A)
    rng = random.Random(n)
    for _ in range(count):
        Mv, Mw = (build_simple(A, L) for L in rng.sample(labels, 2))
        assert braiding(Mv, Mw) == accumulated_braiding(Mv, Mw), \
            (Mv.label, Mw.label)


def test_braiding_beyond_permutations(A3):
    # pairs whose braiding is no permutation matrix of roots, against the
    # summed terms: a U with one coaction coefficient doubled has a term
    # that is no root, whatever it braids past; a line whose one coaction
    # cell is p_00 - f_00 puts two terms into one cell past V(-1,0,0), on
    # which both keys act, and p_00 + f_00 puts two that cancel, since x^
    # is -1 there; with no coaction every cell is empty.  A tensor product
    # of simples is braided by a permutation matrix too
    n = 3
    one = CycNum.one(n)
    doubled = _scaled_cell(build_simple(A3, U(n, 0, 1, 0, 2)), "coaction",
                           (0, 0), CycNum.rational(n, 2))
    x = CycMatrix.from_rows(n, [[one]])
    twice, cancel = (YDModule(A3, 1, [(0, 0)], x, [{0: KnElement(
        A3, {(P, 0, 0): one, (F, 0, 0): f})}]) for f in (-one, one))
    empty = YDModule(A3, 1, [(0, 0)], x, [{}])
    simple, line = build_simple(A3, W(n, 1, 2, 0)), build_simple(
        A3, V(n, -1, 0, 0))
    T = tensor_module(build_simple(A3, W(n, -1, 0, 0)),
                      build_simple(A3, W(n, 1, 1, 2)))
    for Mv, Mw in ((doubled, doubled), (doubled, simple), (twice, line),
                   (cancel, line), (empty, line), (T, T)):
        assert braiding(Mv, Mw) == accumulated_braiding(Mv, Mw)


# -- hom spaces and isomorphism ---------------------------------------------------


@pytest.mark.parametrize("n", [3, 9])
def test_hom_dimension_schur(n):
    A = KnAlgebra(n)
    sample = [V(n, 1, 0, 0), V(n, -1, 1, 2), U(n, 1, 0, 1, 0),
              U(n, 0, 2, 1, 2), W(n, 1, 0, 0), W(n, -1, 2, 1)]
    mods = {L: build_simple(A, L) for L in sample}
    for L1 in sample:
        for L2 in sample:
            expected = 1 if L1 == L2 else 0
            assert hom_dimension(mods[L1], mods[L2]) == expected, (L1, L2)


def test_hom_dimension_multiplicity(A3):
    n = 3
    S = build_simple(A3, V(n, 1, 1, 2))
    T = build_simple(A3, W(n, -1, 0, 0))
    M = direct_sum(direct_sum(S, T), S)
    assert hom_dimension(S, M) == 2
    assert hom_dimension(T, M) == 1
    assert hom_dimension(build_simple(A3, V(n, -1, 1, 2)), M) == 0


def test_reducible_u_splits_as_two_vs(A3):
    n = 3
    i, m = 1, 0
    Mred = build_u_module(A3, i, i, m, (m - 2 * i) % n)
    plus = build_simple(A3, V(n, 1, i, m))
    minus = build_simple(A3, V(n, -1, i, m))
    assert hom_dimension(plus, Mred) == 1
    assert hom_dimension(minus, Mred) == 1
    assert decompose(Mred) == decompose(direct_sum(plus, minus))


def test_u_parameterizations_isomorphic(A3):
    # the two coordinate presentations of the same U module are isomorphic
    M1 = build_u_module(A3, 1, 0, 1, 0)
    M2 = build_u_module(A3, 0, 1, 2, 1)
    assert decompose(M1) == decompose(M2)
    assert decompose(M1) != decompose(build_u_module(A3, 1, 0, 0, 0))


def test_sums_sharing_a_summand_are_not_isomorphic(A3):
    # Hom dimensions 1 between them but 2 from each to itself: one common
    # summand does not make two sums isomorphic
    n = 3
    common = build_simple(A3, V(n, 1, 0, 0))
    M1 = direct_sum(common, build_simple(A3, V(n, 1, 0, 1)))
    M2 = direct_sum(common, build_simple(A3, V(n, 1, 0, 2)))
    assert hom_dimension(M1, M2) == 1
    assert hom_dimension(M1, M1) == hom_dimension(M2, M2) == 2
    assert decompose(M1) != decompose(M2)
    assert decompose(M1) == decompose(
        direct_sum(build_simple(A3, V(n, 1, 0, 1)), common))


def test_is_yd_map_identity_and_swap(A3):
    n = 3
    M = build_simple(A3, W(n, -1, 1, 1))
    assert is_yd_map(M, M, CycMatrix.identity(n, n))
    # an arbitrary permutation is not an intertwiner
    swap = CycMatrix.zero(n, n, n)
    swap.set(0, 1, A3.scalar(1))
    swap.set(1, 0, A3.scalar(1))
    swap.set(2, 2, A3.scalar(1))
    assert not is_yd_map(M, M, swap)


def test_is_yd_map_rejects_maps_wrong_on_one_side(A3):
    n = 3
    one = CycMatrix.identity(n, 1)
    # same action, different coaction
    assert not is_yd_map(build_simple(A3, V(n, 1, 0, 0)),
                         build_simple(A3, V(n, 1, 0, 1)), one)
    # same coaction, different x^
    assert not is_yd_map(build_simple(A3, V(n, 1, 1, 2)),
                         build_simple(A3, V(n, -1, 1, 2)), one)
    # the two presentations of one U module, related by the swap
    swap = CycMatrix.from_rows(n, [[0, 1], [1, 0]])
    assert is_yd_map(build_u_module(A3, 1, 0, 1, 0),
                     build_u_module(A3, 0, 1, 2, 1), swap)


def _p_action(n, dim, entries):
    """A p_{ab} dict of zero matrices but for entries {(a, b): [(r, c, v)]}."""
    action_p = {(a, b): CycMatrix.zero(n, dim, dim)
                for a in range(n) for b in range(n)}
    for ab, cells in entries.items():
        for r, c, v in cells:
            action_p[ab].set(r, c, CycNum.rational(n, v))
    return action_p


@pytest.mark.parametrize("entries", [
    {(1, 0): [(0, 0, 1), (0, 1, 1)], (0, 1): [(1, 1, 1)]},   # not diagonal
    {(1, 0): [(0, 0, 2)], (0, 1): [(1, 1, 1)]},              # not 0/1
    {(1, 0): [(0, 0, 1)], (0, 1): [(0, 0, 1), (1, 1, 1)]},   # two weights
    {(1, 0): [(0, 0, 1)]},                                   # no weight
], ids=["off-diagonal", "entry-2", "doubly-weighted", "unweighted"])
def test_non_weight_p_action_is_rejected(A3, entries):
    Um = build_u_module(A3, 1, 0, 1, 0)
    with pytest.raises(ValueError):
        YDModule(A3, 2, _p_action(3, 2, entries), Um.action_x, Um.coaction)


def test_x_must_map_weight_ab_to_ba(A3):
    # x^ swaps u1 and u2, so their weights must be transposes of each other
    Um = build_u_module(A3, 1, 0, 1, 0)
    bad = YDModule(A3, 2, [(1, 0), (1, 0)], Um.action_x, Um.coaction)
    assert check_yd(bad)["module"] == ("x_p_commutation", (1, 0))
    square = YDModule(A3, 2, Um.weights, Um.action_x.scale(cyc(3, 1)),
                      Um.coaction)
    assert check_yd(square)["module"] == ("x_squared", None)


@pytest.mark.parametrize("n", [3, 9])
def test_module_rebuilt_from_its_p_action(n):
    # the p_{ab} matrices of a V, a U and a W, read back as weights, give
    # the same module
    A = KnAlgebra(n)
    rng = random.Random(n)
    labels = list_simples(A)
    for kind in "VUW":
        M = build_simple(A, rng.choice([L for L in labels if L.kind == kind]))
        rebuilt = YDModule(A, M.dim, M.action_p, M.action_x, M.coaction)
        assert rebuilt.weights == M.weights
        assert check_yd(rebuilt)["ok"]
        assert hom_dimension(M, rebuilt) == 1


def test_weights_given_as_lists_are_stored_as_tuples(A3):
    # W(+1,1,2) rebuilt with each weight a list is the same module: p_ab and
    # f_ab act on it, so its braiding is that of the tuple weights
    M = build_simple(A3, W(3, +1, 1, 2))
    L = YDModule(A3, M.dim, [list(w) for w in M.weights], M.action_x,
                 M.coaction)
    assert L.weights == M.weights
    assert all(type(w) is tuple for w in L.weights)
    # a weight is read by its value: 1.0 is stored as the int 1
    F = YDModule(A3, M.dim, [(float(a), b) for a, b in M.weights],
                 M.action_x, M.coaction)
    assert [tuple(map(type, w)) for w in F.weights] == [(int, int)] * M.dim
    assert check_yd(L)["ok"]
    assert braiding(L, L) == braiding(M, M)
    assert hom_dimension(M, L) == 1


@pytest.mark.parametrize("weight", [
    (3, 0), (0, -1), (0.5, 1), ("0", 1), (1,), (1, 2, 0), 5, None, "01"])
def test_weights_that_are_not_pairs_of_residues_are_refused(A3, weight):
    M = build_simple(A3, W(3, +1, 1, 2))
    weights = [weight] + list(M.weights[1:])
    with pytest.raises(ValueError, match="weight"):
        YDModule(A3, M.dim, weights, M.action_x, M.coaction)


def test_label_weights_are_the_built_weights(A3):
    for L in list_simples(A3):
        assert build_simple(A3, L).weights == tuple(label_weights(L)), str(L)


def test_swapped_weights_are_told_apart(A3):
    # the x^ and coaction of U(1,0,1,0) with the weights of u1 and u2
    # swapped: only the weights tell it apart
    n = 3
    Um = build_u_module(A3, 1, 0, 1, 0)
    swapped = build_u_module(A3, 0, 1, 1, 0)
    fake = YDModule(A3, 2, swapped.weights, Um.action_x, Um.coaction)
    assert fake.weights == tuple(reversed(Um.weights))
    assert hom_dimension(Um, fake) == 0
    assert hom_dimension(Um, Um) == 1
    assert not is_yd_map(Um, fake, CycMatrix.identity(n, 2))
    assert not is_yd_map(Um, fake, CycMatrix.from_rows(n, [[0, 1], [1, 0]]))
    assert is_yd_map(Um, Um, CycMatrix.identity(n, 2))


# -- the generators of K_n^* --------------------------------------------------------------


def _dual_words(n, generators):
    """The basis keys h whose dual h^* is a root of unity times a product of
    the duals of the generators in the convolution algebra K_n^*, where
    (k1^* k2^*)(h) is the coefficient of k1 (x) k2 in Delta(h)
    (`_delta`)."""
    A = KnAlgebra(n)
    table: dict = {}
    for h in A.basis_indices():
        for pair, c in _delta(n, h).items():
            table.setdefault(pair, []).append((h, c))
    # a product of basis duals is a multiple of one basis dual, or zero
    reached = {g: CycNum.one(n) for g in generators}
    todo = list(reached)
    while todo:
        key = todo.pop()
        for g in generators:
            product = table.get((key, g), [])
            assert len(product) <= 1
            for h, c in product:
                if h not in reached:
                    reached[h] = reached[key] * c
                    todo.append(h)
    assert all(root_order(c) for c in reached.values())
    return set(reached)


@pytest.mark.parametrize("n", [3, 5, 9, 15])
def test_generator_duals_generate_the_dual_algebra(n):
    # the premise of `ydmod._hom_system`: commuting with the coaction at
    # the four generators is commuting with it at every key
    keys = set(KnAlgebra(n).basis_indices())
    assert _dual_words(n, ydmod._GENERATORS) == keys
    for dropped in ydmod._GENERATORS:
        rest = [g for g in ydmod._GENERATORS if g != dropped]
        assert _dual_words(n, rest) < keys, dropped


# -- the Hom system against a dense reference --------------------------------------------


def _reference_hom_dimension(S, M):
    """dim Hom(S, M) as the nullity of one dense system over all
    dim M x dim S unknowns T[k][j] (unknown k dim S + j), with no weight
    cells: rho_M(h) T = T rho_S(h) for every basis key h of K_n (the p_{ab}
    give p-equivariance, the f_{ab} x^-commutation), read from `action_of`,
    and delta_M T = (id (x) T) delta_S, read from `coaction`; ranked by the
    plain column-by-column reference elimination `rref`."""
    A = S.algebra
    n, ds, dm = A.n, S.dim, M.dim
    eqs: dict = {}

    def add(eq, c, v):
        s = eqs.setdefault(eq, {}).get(c)
        eqs[eq][c] = v if s is None else s + v

    for h in A.basis_indices():
        for k, row in M.action_of(h).data.items():
            for l, v in row.items():
                for j in range(ds):
                    add(("act", h, k, j), l * ds + j, v)
        for j1, row in S.action_of(h).data.items():
            for j, v in row.items():
                for k in range(dm):
                    add(("act", h, k, j), k * ds + j1, -v)
    # delta(T s_j) = sum_l T[l][j] sum_k coaction_M[l][k] (x) m_k against
    # (id (x) T) delta(s_j) = sum_j1 coaction_S[j][j1] (x) sum_k T[k][j1] m_k
    for l, row in enumerate(M.coaction):
        for k, g in row.items():
            for h, v in g.coeffs.items():
                for j in range(ds):
                    add(("co", h, k, j), l * ds + j, v)
    for j, row in enumerate(S.coaction):
        for j1, g in row.items():
            for h, v in g.coeffs.items():
                for k in range(dm):
                    add(("co", h, k, j), k * ds + j1, -v)
    rows = [{c: v for c, v in eq.items() if not v.is_zero()}
            for eq in eqs.values()]
    rows = [row for row in rows if row]
    system = CycMatrix(n, len(rows), dm * ds, dict(enumerate(rows)))
    return dm * ds - len(rref(system)[1])


def _shifted(L):
    """A simple label with the weights of L and another coaction."""
    n = L.n
    if L.kind == "U":
        i, j, m, t = L.data
        return U(n, i, j, m + 1, t + 1)
    eps, i, m = L.data
    return (V if L.kind == "V" else W)(n, eps, i, m + 1)


def _check_against_reference(S, M):
    expected = _reference_hom_dimension(S, M)
    assert hom_dimension(S, M) == expected
    return expected


def test_hom_dimension_of_a_simple_with_a_repeated_weight(A3):
    # U(2,2,0,1) has two basis vectors of weight (2, 2); an index that
    # keyed S's basis by weight alone gave 0 here
    n = 3
    S = build_simple(A3, U(n, 2, 2, 0, 1))
    assert len(set(S.weights)) == 1
    M = tensor_module(build_simple(A3, W(n, -1, 0, 2)),
                      build_simple(A3, W(n, 1, 2, 2)))
    assert _check_against_reference(S, M) == 1


def test_hom_dimension_matches_the_dense_reference_n3(A3):
    # every simple at n = 3, the nine U(i,i,m,t) among them, against a
    # seeded tensor product that contains it and one drawn at random
    n = 3
    labels = list_simples(A3)
    pairs = [(L1, L2) for L1 in labels for L2 in labels]
    rng = random.Random(14)
    rng.shuffle(pairs)
    repeated = [L for L in labels if L.kind == "U" and L.data[0] == L.data[1]]
    assert len(repeated) == 9
    for L in labels:
        L1, L2 = next((L1, L2) for L1, L2 in pairs
                      if L in dict(closed_form_fuse(L1, L2).terms))
        S = build_simple(A3, L)
        M = tensor_module(build_simple(A3, L1), build_simple(A3, L2))
        mult = dict(closed_form_fuse(L1, L2).terms)[L]
        assert _check_against_reference(S, M) == mult, (L, L1, L2)
        L1, L2 = rng.choice(pairs)
        M = tensor_module(build_simple(A3, L1), build_simple(A3, L2))
        assert (_check_against_reference(S, M)
                == dict(closed_form_fuse(L1, L2).terms).get(L, 0)), (L, L1, L2)


def test_hom_dimension_matches_the_dense_reference_n9():
    # seeded products of small simples at the composite conductor 9, against
    # two summands and a label with the weights of the first
    n = 9
    A = KnAlgebra(n)
    rng = random.Random(9)
    kinds = {}
    for L in list_simples(A):
        kinds.setdefault(L.kind, []).append(L)
    for k1, k2 in [("U", "U"), ("V", "U"), ("U", "V"), ("V", "W")]:
        L1, L2 = rng.choice(kinds[k1]), rng.choice(kinds[k2])
        M = tensor_module(build_simple(A, L1), build_simple(A, L2))
        fused = dict(closed_form_fuse(L1, L2).terms)
        summands = sorted(fused)[:2]
        for L in summands + [_shifted(summands[0])]:
            assert (_check_against_reference(build_simple(A, L), M)
                    == fused.get(L, 0)), (L, L1, L2)
