"""The rack/cocycle verification battery behind `kn rack` and
`kn paper-verify`.

Each check is exact and exhaustive over the stated index ranges; the
battery returns an ordered list of (name, bool) pairs so that text and
JSON reports are deterministic.
"""

from __future__ import annotations

from .cyclotomic import cyc
from .hopf import KnAlgebra
from .ydmod import W, braided_space, build_simple
from .nichols import check_braid_equation
from .racks import (CocycleError, CocycleTable, check_rack_cocycle,
                    cq_braiding, d_cocycle, derived_rack, dihedral_rack,
                    sF_braiding, standard_solution, t_equivalence_cocycle,
                    twist_equivalence_check, w_cocycle)


def run_battery(n: int):
    """Run every rack-layer check for the given odd n; returns an ordered
    list of (check name, passed) pairs."""
    results = []
    B = standard_solution(n)

    results.append(("standard solution satisfies the braid equation",
                    B.is_solution()))
    results.append(("standard solution is non-degenerate",
                    B.is_nondegenerate()))
    results.append(("derived rack equals the dihedral rack",
                    derived_rack(B) == dihedral_rack(n)))
    results.append(("dihedral rack is self-distributive",
                    dihedral_rack(n).is_rack()))

    labels = [(eps, i, m) for eps in (1, -1)
              for i in range(n) for m in range(n)]
    w = {lab: w_cocycle(n, *lab) for lab in labels}
    d = {lab: d_cocycle(n, *lab) for lab in labels}
    R = dihedral_rack(n)

    # sF_braiding and cq_braiding check their cocycle and refuse a table
    # that fails it: each cocycle check is whether the braiding was built.
    # A check that needs a braiding that was refused fails with it.  Each
    # label's braidings and W module are dropped before the next label.
    A = KnAlgebra(n)
    cocycles = rack_cocycles = matches = braids = True
    for lab in labels:
        sf = _accepted(sF_braiding, B, w[lab])
        cq = _accepted(cq_braiding, R, d[lab])
        cocycles = cocycles and sf is not None
        rack_cocycles = rack_cocycles and cq is not None
        matches = matches and sf is not None and \
            braided_space(build_simple(A, W(n, *lab))).c == sf.c
        braids = braids and sf is not None and cq is not None and \
            check_braid_equation(sf) and check_braid_equation(cq)

    results.append(("braiding cocycles satisfy the set-theoretic "
                    "cocycle condition (all labels)", cocycles))
    results.append(("diagonal-family rack 2-cocycles hold (all labels)",
                    rack_cocycles))
    results.append(("set-theoretic braiding matches the categorical "
                    "W braiding entry-wise (all labels)", matches))
    results.append(("t-equivalence cocycles exist and are rack "
                    "2-cocycles (all labels)",
                    all(_t_cocycle_holds(B, R, w[lab]) for lab in labels)))
    results.append(("all produced braidings satisfy the braid equation",
                    braids))

    # twist-equivalence within the diagonal family W(-1,i,i) through
    # phi_{i,k}(l,r) = xi^{4(i-k)(l-2r)}; for n=3 the factor 4 reduces to 1
    results.append((
        "twist-equivalence of the diagonal family through the exponential "
        "cocycle",
        all(twist_equivalence_check(
            B, w[(-1, i, i)], w[(-1, k, k)],
            CocycleTable([[cyc(n, 4 * (i - k) * (l - 2 * r))
                           for r in range(n)] for l in range(n)]))
            for i in range(n) for k in range(n))))

    return results


def _accepted(build, space, table):
    """build(space, table), the braiding of a cocycle table, or None when
    build refuses the table for failing its cocycle condition."""
    try:
        return build(space, table)
    except CocycleError:
        return None


def _t_cocycle_holds(B, R, F) -> bool:
    """Whether the t-equivalence cocycle of s^F exists and is a rack
    2-cocycle on R."""
    try:
        q = t_equivalence_cocycle(B, F)
    except ValueError:
        return False
    return check_rack_cocycle(R, q)
