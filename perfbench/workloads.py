"""The knyd benchmark workloads.

`build(name, rng)` is the set-up of one round: it imports nothing beyond
what this module imports (`knyd` and `knyd.cli`) and generates the round's
inputs, i.e. the labels, pairs and braided spaces.  It returns the round's
answers.  An answer is one verified result a user would ask for: `run()`
computes it through the public functions of `knyd` or the `kn` command, and
`check(value)` returns None when the value is right and a message otherwise.

Every check compares against an independent or a frozen result, so a fast
path that skips work reads as a failure, not as a speed-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from typing import Callable, NamedTuple

import knyd
import knyd.cli
from knyd import fusion, hopf, nichols, ydmod


class Answer(NamedTuple):
    name: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


def kn(*args: str) -> dict:
    """Run one `kn ... --json` command in this process through the entry
    point's click group and return its JSON output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            knyd.cli.main(list(args), standalone_mode=False)
        except SystemExit as exc:
            if exc.code:
                raise RuntimeError("kn %s exited with %s"
                                   % (" ".join(args), exc.code)) from None
    return json.loads(buf.getvalue())


def _by_kind(labels):
    out: dict = {}
    for lab in labels:
        out.setdefault(lab.kind, []).append(lab)
    return out


# -- fusion-oracle -------------------------------------------------------------------

# Ordered kind pairs and how many of each one round draws.  At n = 3 the
# counts follow each kind pair's share of all 5184 ordered pairs (V and W
# are a quarter of the labels each, U half); at n = 5 each kind pair comes
# once, so the n = 5 W (x) W tail is always present.
# Fixing the mix keeps a round's cost nearly independent of the seed.
FUSION_MIX = {
    3: {"VV": 6, "VU": 12, "UV": 12, "UU": 24, "VW": 6, "WV": 6,
        "UW": 12, "WU": 12, "WW": 6},
    5: {"VV": 1, "VU": 1, "UV": 1, "UU": 1, "VW": 1, "WV": 1,
        "UW": 1, "WU": 1, "WW": 1},
}


def _fusion_answer(A, labels, left, right) -> Answer:
    def run():
        # the route of fusion_table(verify=True): cached factors, the
        # tensor-product module, and the Hom-space decomposition
        M = fusion.tensor_module(fusion._simple(A, left),
                                 fusion._simple(A, right))
        return M.dim, fusion.decompose(M, labels)

    def check(value):
        dim, oracle = value
        expected = fusion.closed_form_fuse(left, right)
        if oracle != expected:
            return "oracle %s != closed form %s" % (oracle, expected)
        if dim != left.dim() * right.dim() or oracle.dim() != dim:
            return "multiplicities account for %d of %d dimensions" % (
                oracle.dim(), dim)
        return None

    return Answer("fuse n=%d %s*%s" % (A.n, left, right), run, check)


def fusion_oracle(rng: random.Random) -> list[Answer]:
    answers = []
    for n, mix in FUSION_MIX.items():
        A = hopf.KnAlgebra(n)
        labels = ydmod.list_simples(A)
        kinds = _by_kind(labels)
        for pair, count in mix.items():
            for _ in range(count):
                answers.append(_fusion_answer(
                    A, labels, rng.choice(kinds[pair[0]]),
                    rng.choice(kinds[pair[1]])))
    return answers


# -- hopf-yd-audit -------------------------------------------------------------------

HOPF_AXIOMS = {"associativity", "unit", "coassociativity", "counit",
               "delta_multiplicative", "counit_multiplicative", "antipode"}

# check_yd samples per label kind at n = 5 and 7; n = 3 checks all 72.
# A round then has 91 answers whose latencies fall into groups of like cost:
# 73 n = 3 checks (V, then U, then W and the check_yd control), 5 n = 5 V/U
# checks, 11 at about 0.1 s (the n = 5 W checks, `kn hopf-verify --n 3` and
# the antipode control), the n = 7 check and `kn hopf-verify --n 5`.  The median falls among the n = 3
# U checks and the 90th percentile among the ~0.1 s group, each well inside
# its group, so neither jumps between unlike answers.
YD_SAMPLE = {5: {"V": 2, "U": 3, "W": 9}, 7: {"U": 1}}


def _hopf_cli_answer(n: int) -> Answer:
    def check(out):
        if out.get("n") != n or out.get("ok") is not True:
            return "kn hopf-verify --n %d did not report ok" % n
        if set(out["axioms"]) != HOPF_AXIOMS:
            return "axioms reported: %s" % sorted(out["axioms"])
        bad = [k for k, v in out["axioms"].items() if v["ok"] is not True]
        return "failed axioms: %s" % bad if bad else None

    return Answer("kn hopf-verify --n %d" % n,
                  lambda: kn("hopf-verify", "--n", str(n), "--json"), check)


def _negative_control() -> Answer:
    """The audit must catch an antipode corrupted through the public
    antipode_fn hook."""
    A = hopf.KnAlgebra(3)

    def corrupted(x):
        return -hopf.antipode(x)

    def check(report):
        if report["ok"] or report["antipode"]["ok"]:
            return "corrupted antipode passed the audit"
        others = [k for k in HOPF_AXIOMS - {"antipode"}
                  if not report[k]["ok"]]
        return "axioms not involving S failed: %s" % others if others else None

    return Answer("negative control: hopf audit n=3, corrupted antipode",
                  lambda: hopf.verify_hopf_axioms(A, antipode_fn=corrupted),
                  check)


def _yd_negative_control() -> Answer:
    """check_yd must catch a module whose action and coaction are each
    valid but do not satisfy the YD compatibility together: the action of
    V(+1,0,0) with the coaction of V(+1,1,0) at n = 3."""
    A = hopf.KnAlgebra(3)
    action, coaction = (ydmod.parse_label(text, 3)
                        for text in ("V(+1,0,0)", "V(+1,1,0)"))

    def run():
        M = ydmod.build_simple(A, action)
        mixed = ydmod.YDModule(A, M.dim, M.action_p, M.action_x,
                               ydmod.build_simple(A, coaction).coaction)
        return ydmod.check_yd(mixed)

    def check(report):
        if report["ok"] or report["yd"] is None:
            return "mismatched coaction passed check_yd"
        if report["module"] or report["comodule"]:
            return "valid action or coaction failed: %s" % report
        return None

    return Answer("negative control: check_yd n=3, V(+1,0,0) action with "
                  "V(+1,1,0) coaction", run, check)


def _yd_answer(A, label) -> Answer:
    def check(report):
        if report.get("ok") is not True:
            return "check_yd failed: %s" % report
        return None

    return Answer("check_yd n=%d %s" % (A.n, label),
                  lambda: ydmod.check_yd(ydmod.build_simple(A, label)), check)


def hopf_yd_audit(rng: random.Random) -> list[Answer]:
    answers = [_hopf_cli_answer(3), _hopf_cli_answer(5), _negative_control(),
               _yd_negative_control()]
    A3 = hopf.KnAlgebra(3)
    answers += [_yd_answer(A3, lab) for lab in ydmod.list_simples(A3)]
    for n, sample in YD_SAMPLE.items():
        A = hopf.KnAlgebra(n)
        kinds = _by_kind(ydmod.list_simples(A))
        for kind, count in sample.items():
            answers += [_yd_answer(A, lab)
                        for lab in rng.sample(kinds[kind], count)]
    return answers


# -- nichols-rack --------------------------------------------------------------------

# (n, direct summands, cutoff, graded dims, relation counts by degree) as
# knyd 0.1.0 (commit decaa80) computes them.  The first two rows are also
# the paper's values: W(-1,0,0) at n = 3 has Hilbert series [1,3,4,3,1]
# (total 12), and U(1,0,1,0) at n = 3 has total 27, a2_criterion's N^3.
NICHOLS_CASES = [
    (3, ("W(-1,0,0)",), 6, [1, 3, 4, 3, 1, 0], [5, 24, 80, 243]),
    (3, ("U(1,0,1,0)",), 9, [1, 2, 4, 4, 5, 4, 4, 2, 1, 0],
     [0, 4, 11, 28, 60, 126, 255, 512]),
    (3, ("U(0,1,0,2)", "U(0,1,2,1)"), 5, [1, 4, 12, 24, 42, 60],
     [4, 40, 214, 964]),
    (5, ("W(-1,0,0)",), 4, [1, 5, 16, 45, 113], [9, 80, 512]),
]

RACK_CHECKS = [
    "standard solution satisfies the braid equation",
    "standard solution is non-degenerate",
    "derived rack equals the dihedral rack",
    "dihedral rack is self-distributive",
    "braiding cocycles satisfy the set-theoretic cocycle condition "
    "(all labels)",
    "diagonal-family rack 2-cocycles hold (all labels)",
    "set-theoretic braiding matches the categorical W braiding entry-wise "
    "(all labels)",
    "t-equivalence cocycles exist and are rack 2-cocycles (all labels)",
    "all produced braidings satisfy the braid equation",
    "twist-equivalence of the diagonal family through the exponential "
    "cocycle",
]

# `kn rack --n 7` (about 8 s) and U(1,0,1,0) at n = 7 (about 4 s) are left
# out: each would take most of a round and leave too few rounds in a run
# for a steady median.
RACK_N = (5,)

# every finite U at n = 3 reaches its zero component by degree 9 (A2: top
# degree 8; quantum linear space: top degree 4)
U_CUTOFF = 9


def _braided_space(n, summands):
    A = hopf.KnAlgebra(n)
    M = None
    for text in summands:
        S = ydmod.build_simple(A, ydmod.parse_label(text, n))
        M = S if M is None else ydmod.direct_sum(M, S)
    return ydmod.braided_space(M)


def _nichols_answer(n, summands, cutoff, dims, relations) -> Answer:
    B = _braided_space(n, summands)
    finite = dims[-1] == 0
    expected_total = sum(dims) if finite else None
    if finite and len(summands) == 1 and summands[0].startswith("U"):
        # independent of the symmetrizer: the A2 / quantum-linear-space rule
        expected_total = nichols.a2_criterion(
            ydmod.parse_label(summands[0], n))["predicted_total"]

    def check(rep):
        got = [len(rep.relations.get(d, ())) for d in range(2, len(dims))]
        if rep.dims != dims or got != relations:
            return "dims %s relations %s, expected %s and %s" % (
                rep.dims, got, dims, relations)
        if rep.status != ("finite" if finite else "undetermined"):
            return "status %s" % rep.status
        if rep.total != expected_total:
            return "total %s, expected %s" % (rep.total, expected_total)
        return None

    return Answer("graded_dims n=%d %s cutoff %d" % (n, "+".join(summands),
                                                     cutoff),
                  lambda: nichols.graded_dims(B, cutoff, want_relations=True),
                  check)


def _finite_u_answer(A, label) -> Answer:
    """A U label whose Nichols algebra a2_criterion calls finite must reach
    a zero graded component with exactly the predicted total."""
    B = ydmod.braided_space(ydmod.build_simple(A, label))
    expected = nichols.a2_criterion(label)["predicted_total"]

    def check(rep):
        if rep.status != "finite" or rep.total != expected:
            return "status %s total %s, expected finite %d" % (
                rep.status, rep.total, expected)
        return None

    return Answer("graded_dims n=%d %s cutoff %d" % (A.n, label, U_CUTOFF),
                  lambda: nichols.graded_dims(B, U_CUTOFF, want_relations=True),
                  check)


def _rack_answer(n: int) -> Answer:
    def check(out):
        if out.get("n") != n or out.get("ok") is not True:
            return "kn rack --n %d did not report ok" % n
        if sorted(out["checks"]) != sorted(RACK_CHECKS):
            return "checks reported: %s" % sorted(out["checks"])
        bad = [k for k, v in out["checks"].items() if v is not True]
        return "failed checks: %s" % bad if bad else None

    return Answer("kn rack --n %d" % n,
                  lambda: kn("rack", "--n", str(n), "--json"), check)


def nichols_rack(rng: random.Random) -> list[Answer]:
    """Fixed inputs; the seed only orders the answers (build())."""
    answers = [_nichols_answer(*case) for case in NICHOLS_CASES]
    A = hopf.KnAlgebra(3)
    answers += [_finite_u_answer(A, lab) for lab in ydmod.list_simples(A)
                if lab.kind == "U" and nichols.a2_criterion(lab)["finite"]]
    answers += [_rack_answer(n) for n in RACK_N]
    return answers


WORKLOADS = {
    "fusion-oracle": fusion_oracle,
    "hopf-yd-audit": hopf_yd_audit,
    "nichols-rack": nichols_rack,
}


def build(name: str, rng: random.Random) -> list[Answer]:
    answers = WORKLOADS[name](rng)
    # A seeded order spreads each group of like answers over the whole
    # round, so a latency percentile does not rest on the few hundred
    # milliseconds in which one contiguous block would run.
    rng.shuffle(answers)
    return answers
