"""Acceptance criteria: the thirteen primary checks, one per test.

Every comparison is exact (tolerance zero).  Each test prints a single
PASS line on success; a failure raises with the counterexample payload.
Run with `pytest -v tests/test_acceptance.py` for the per-criterion
status lines.
"""

import json
import random
import subprocess
import sys
import time

from knyd.cyclotomic import CycNum, cyc, root_order
from knyd.hopf import (KnAlgebra, KnElement, comultiply, counit,
                       verify_hopf_axioms)
from knyd.linalg import CycMatrix
from knyd.ydmod import (U, V, W, braided_space, build_simple, check_yd,
                        dimension_census, list_simples, parse_label)
from knyd.fusion import fusion_table, sample_pairs
from knyd.nichols import (a2_criterion, graded_dims, infinite_precheck,
                          is_square_zero, presentation_check,
                          square_zero_monomial_space, tensor_vector)
from knyd.racks import (CocycleTable, check_F_cocycle, check_rack_cocycle,
                        d_cocycle, derived_rack, dihedral_rack, sF_braiding,
                        standard_solution, twist_equivalence_check, w_cocycle)
from oracles import comatrix_element


def _report(num, description):
    print("PASS criterion %02d: %s" % (num, description))


def test_criterion_01_hopf_axioms():
    t0 = time.time()
    for n in (3, 5, 7):
        start = time.time()
        report = verify_hopf_axioms(KnAlgebra(n))
        assert report["ok"], (n, report)
        assert time.time() - start < 60, n

    # negative control: a corrupted antipode is detected
    def bad(x):
        m = x.algebra.n
        return KnElement(x.algebra,
                         {(kind, (-i) % m, (-j) % m): v
                          for (kind, i, j), v in x.coeffs.items()})

    report = verify_hopf_axioms(KnAlgebra(3), antipode_fn=bad)
    assert not report["ok"]
    assert report["antipode"]["counterexample"] is not None
    _report(1, "Hopf axioms exact for n in {3,5,7} (%.1fs) and corrupted "
               "antipode detected" % (time.time() - t0))


def test_criterion_02_comatrix_coalgebra():
    for n in (3, 5):
        A = KnAlgebra(n)
        es = {(k, l): comatrix_element(A, k, l)
              for k in range(n) for l in range(n)}
        for k in range(n):
            for l in range(n):
                eps = counit(es[(k, l)])
                assert eps.is_one() if k == l else eps.is_zero(), (n, k, l)
                lhs = comultiply(es[(k, l)])
                acc = {}
                for r in range(n):
                    for k1, v1 in es[(k, r)].coeffs.items():
                        for k2, v2 in es[(r, l)].coeffs.items():
                            key = (k1, k2)
                            acc[key] = acc.get(key, CycNum.zero(n)) + v1 * v2
                acc = {key: v for key, v in acc.items() if not v.is_zero()}
                assert lhs.coeffs == acc, (n, k, l)
    _report(2, "comatrix comultiplication and counit exact for n in {3,5}")


def test_criterion_03_yd_sweep():
    t0 = time.time()
    A = KnAlgebra(3)
    for L in list_simples(A):
        assert check_yd(build_simple(A, L))["ok"], str(L)
    A5 = KnAlgebra(5)
    labels = random.Random(0).sample(list_simples(A5), 50)
    for L in labels:
        assert check_yd(build_simple(A5, L))["ok"], str(L)
    elapsed = time.time() - t0
    assert elapsed < 120
    _report(3, "YD axioms: 72 labels exhaustive at n=3 plus 50 seeded at "
               "n=5 (%.1fs)" % elapsed)


def test_criterion_04_census():
    for n, expected in [(3, 324), (5, 2500), (7, 9604)]:
        assert dimension_census(KnAlgebra(n)) == expected == 4 * n ** 4
    _report(4, "sum of squared dimensions equals 4n^4 for n in {3,5,7}")


def test_criterion_05_fusion_exhaustive():
    t0 = time.time()
    A = KnAlgebra(3)
    rows, mismatches = fusion_table(A, verify=True)
    assert len(rows) == 72 * 72
    assert mismatches == 0
    A5 = KnAlgebra(5)
    _, mismatches5 = fusion_table(A5, pairs=sample_pairs(A5, 200, 0))
    assert mismatches5 == 0
    elapsed = time.time() - t0
    assert elapsed < 600
    _report(5, "fusion closed form equals the decomposition oracle on all "
               "5184 ordered pairs at n=3 and 200 seeded pairs at n=5 "
               "(%.1fs)" % elapsed)


def test_criterion_06_one_dimensional_nichols():
    for n in (3, 5):
        A = KnAlgebra(n)
        for eps in (1, -1):
            for i in range(n):
                for m in range(n):
                    if (2 * i * (m - i)) % n == 0:
                        continue
                    B = braided_space(build_simple(A, V(n, eps, i, m)))
                    rep = graded_dims(B, n + 1, want_relations=False)
                    expected = root_order(cyc(n, i * (m - i)))
                    assert rep.status == "finite", (n, eps, i, m)
                    assert rep.total == expected, (n, eps, i, m)
                    assert rep.dims[:expected] == [1] * expected
                    assert rep.dims[expected] == 0
    _report(6, "one-dimensional Nichols algebras have total dimension "
               "ord(xi^{i(m-i)}) for n in {3,5}")


def test_criterion_07_twelve_dimensional_family():
    t0 = time.time()
    A = KnAlgebra(3)
    for m in range(3):
        B = braided_space(build_simple(A, W(3, -1, 0, m)))
        rep = graded_dims(B, 6, want_relations=False)
        assert rep.dims == [1, 3, 4, 3, 1, 0], m
        assert rep.total == 12 and rep.top_degree == 4, m
    for label in (W(3, -1, 1, 1), W(3, -1, 2, 2)):
        B = braided_space(build_simple(A, label))
        rep = graded_dims(B, 6, want_relations=False)
        assert rep.dims == [1, 3, 4, 3, 1, 0], str(label)
    elapsed = time.time() - t0
    assert elapsed < 300
    _report(7, "graded dims (1,3,4,3,1), total 12, for the six "
               "three-dimensional diagonal braidings (%.1fs)" % elapsed)


def _w_relations(n, k):
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


def test_criterion_08_presentations():
    n = 3
    A = KnAlgebra(n)
    attach = [("W(-1,0,0)", 0), ("W(-1,0,1)", 0), ("W(-1,0,2)", 0),
              ("W(-1,2,2)", 1), ("W(-1,1,1)", 2)]
    for text, k in attach:
        B = braided_space(build_simple(A, parse_label(text, n)))
        rels = [(2, tensor_vector(B, 2, terms)) for terms in _w_relations(n, k)]
        result = presentation_check(B, rels)
        assert result["all_in_kernel"], (text, k)
        assert result["kernel2_dim"] == 5, text
        assert result["degree2_spans"], (text, k)
    # the quadratic relations of the 12-dimensional rack algebra map into
    # ker QS_2 under x_k = w0 + xi^k w1 + xi^{2k} w2
    B = braided_space(build_simple(A, W(n, -1, 0, 0)))
    x = [[CycNum.one(n), cyc(n, k), cyc(n, 2 * k)] for k in range(3)]

    def prod_terms(u, v):
        return [(u[a] * v[b], (a, b)) for a in range(3) for b in range(3)]

    rels = [(2, tensor_vector(B, 2, prod_terms(x[k], x[k])))
            for k in range(3)]
    for (a, b, c_) in [(0, 1, 2), (0, 2, 1)]:
        terms = (prod_terms(x[a], x[b]) + prod_terms(x[b], x[c_])
                 + prod_terms(x[c_], x[a]))
        rels.append((2, tensor_vector(B, 2, terms)))
    assert presentation_check(B, rels)["all_in_kernel"]
    _report(8, "each displayed relation set spans ker QS_2 (dim 5) of its "
               "braided space; rack-presentation relations map in")


def test_criterion_09_square_zero_elimination():
    t0 = time.time()
    n = 3
    A = KnAlgebra(n)
    B1 = braided_space(build_simple(A, W(n, -1, 0, 0)))
    one = CycNum.one(n)
    witnesses = [[one, CycNum.zero(n), CycNum.zero(n)],
                 [one, cyc(n, 1), cyc(n, 2)],
                 [one, cyc(n, 2), cyc(n, 1)]]
    for v in witnesses:
        assert is_square_zero(B1, v)
    assert CycMatrix.from_rows(n, witnesses).rank() == 3
    for text in ("W(-1,1,1)", "W(-1,2,2)"):
        B = braided_space(build_simple(A, parse_label(text, n)))
        space = square_zero_monomial_space(B)
        assert (1, 1) in space.forced_zero and (2, 2) in space.forced_zero
        assert space.forces_axis() == 0, text
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(9, "three independent square-zero witnesses in the symmetric "
               "space; the scaled spaces force both off-axis coordinates "
               "to zero (%.2fs)" % elapsed)


def test_criterion_10_a2_pbw():
    t0 = time.time()
    label = U(3, 1, 0, 1, 0)
    crit = a2_criterion(label)
    assert crit["finite"] and crit["N"] == 3 and crit["kind"] == "cartan-A2"
    A = KnAlgebra(3)
    B = braided_space(build_simple(A, label))
    rep = graded_dims(B, 9, want_relations=False)
    assert rep.status == "finite"
    assert rep.total == 27 == crit["N"] ** 3
    # PBW Hilbert vector: (1 + t + t^2)^2 (1 + t^2 + t^4)
    pbw = [1, 2, 4, 4, 5, 4, 4, 2, 1]
    assert rep.hilbert() == pbw
    elapsed = time.time() - t0
    assert elapsed < 1800
    _report(10, "rank-two Cartan braiding: total 27 = N^3 with the PBW "
                "Hilbert vector, cutoff 9 (%.1fs)" % elapsed)


def test_criterion_11_infinite_precheck():
    n = 3
    A = KnAlgebra(n)
    for m in range(n):
        B = braided_space(build_simple(A, W(n, 1, 0, m)))
        assert infinite_precheck(B) is not None, m
    for i in range(n):
        B = braided_space(build_simple(A, W(n, 1, i, i)))
        assert infinite_precheck(B) is not None, i
    for i in range(n):
        for m in range(n):
            if (2 * i * (m - i)) % n == 0:
                B = braided_space(build_simple(A, V(n, 1, i, m)))
                assert infinite_precheck(B) is not None, (i, m)
    _report(11, "fixed-vector witnesses found for every stated "
                "infinite-dimensional family")


def test_criterion_12_rack_battery():
    for n in (3, 5, 7):
        B = standard_solution(n)
        assert derived_rack(B) == dihedral_rack(n), n
    n = 3
    A = KnAlgebra(n)
    Bset = standard_solution(n)
    R = dihedral_rack(n)
    for eps in (1, -1):
        for i in range(n):
            for m in range(n):
                F = w_cocycle(n, eps, i, m)
                assert check_F_cocycle(Bset, F), (eps, i, m)
                assert check_rack_cocycle(R, d_cocycle(n, eps, i, m))
                cat = braided_space(build_simple(A, W(n, eps, i, m))).c
                assert sF_braiding(Bset, F).c == cat, (eps, i, m)
    for i in range(n):
        for k in range(n):
            phi = CocycleTable([[cyc(n, (i - k) * (l - 2 * r))
                                 for r in range(n)] for l in range(n)])
            assert twist_equivalence_check(Bset, w_cocycle(n, -1, i, i),
                                           w_cocycle(n, -1, k, k), phi)
    _report(12, "rack battery: derived rack, both cocycle conditions, "
                "set-theoretic braiding = categorical braiding, "
                "twist-equivalence witnesses")


def test_criterion_13_determinism():
    cmd = [sys.executable, "-m", "knyd.cli", "paper-verify", "--n", "3",
           "--json"]
    out1 = subprocess.run(cmd, capture_output=True, check=True).stdout
    out2 = subprocess.run(cmd, capture_output=True, check=True).stdout
    assert out1 == out2
    payload = json.loads(out1.decode("utf-8"))
    assert payload["ok"]
    _report(13, "two full verification runs emit byte-identical JSON")
