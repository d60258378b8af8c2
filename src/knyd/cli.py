"""Command-line front end.

Every verification battery in the package is reachable through one
subcommand of `kn`.  One path, `_report`, prints every command's report:
the same facts as text lines or, with --json, as one JSON object, and an
exit status of 1 exactly when a check fails.  The text of each command is
pinned by tests/test_golden.py.  All output is deterministic: JSON is
emitted with sorted keys and no timestamps, CSV uses RFC-4180 quoting, and
sampled sweeps are driven by an explicit seed.  Wall-clock timings appear
only in the human-readable text output, never in JSON or CSV.

Label grammar (indices reduced mod n on parse):

    V(e,i,m)    U(i,j,m,t)    W(e,i,m)      with e in {+1, -1}.
"""

from __future__ import annotations

import csv
import json
import os
import random
import sys
from itertools import chain

import click

from .cyclotomic import cyc, root_order
from .hopf import KnAlgebra, verify_hopf_axioms
from .ydmod import (U, V, build_simple, check_yd, dimension_census,
                    direct_sum, list_simples, parse_label, braided_space)
from .fusion import (closed_form_fuse, decompose, fusion_table, sample_pairs,
                     tensor_module)
from .nichols import (MemoryBudgetError, _check_budget, _memory_budget_bytes,
                      a2_criterion, graded_dims, infinite_precheck,
                      square_zero_monomial_space, sum_criterion)
from . import rackbattery
from . import __version__


def _odd_n(ctx, param, value):
    if value is None or value < 3 or value % 2 == 0:
        raise click.UsageError("invalid n: must be an odd integer >= 3")
    return value


def _positive_sample(ctx, param, value):
    if value is not None and value < 1:
        raise click.UsageError("invalid sample: must be an integer >= 1")
    return value


def _parse(text: str, n: int):
    try:
        return parse_label(text, n)
    except ValueError as exc:
        raise click.UsageError("invalid label grammar: %s" % exc)


def _output_path(ctx, param, value):
    """Reject an output file that cannot be written before any work starts
    ("-" is stdout, for --json only)."""
    if value is None or (value == "-" and param.name == "json_out"):
        return value
    parent = os.path.dirname(os.path.abspath(value))
    if (value == "-" or os.path.isdir(value) or not os.path.isdir(parent)
            or not os.access(parent, os.W_OK)
            or (os.path.exists(value) and not os.access(value, os.W_OK))):
        raise click.UsageError("invalid output path: cannot write %s" % value)
    return value


def _open_output(path, **kwargs):
    try:
        return open(path, "w", encoding="utf-8", **kwargs)
    except OSError as exc:
        raise click.UsageError("invalid output path: %s" % exc)


def _report(payload, lines, json_out, ok=True):
    """Print one command's report: `payload` as sorted-key JSON to stdout
    ("-") or to the path `json_out`, or, when `json_out` is None, the text
    `lines` (an iterable, read only then).  Exit 1 unless `ok`."""
    if json_out is None:
        for line in lines:
            click.echo(line)
    else:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        if json_out == "-":
            click.echo(text, nl=False)
        else:
            with _open_output(json_out) as fh:
                fh.write(text)
    if not ok:
        sys.exit(1)


def _verdict(ok):
    return "pass" if ok else "FAIL"


def _overall(ok):
    return "overall: " + _verdict(ok)


def _report_checks(title, payload, checks, json_out):
    """Report a battery of named (name, ok) checks: `payload` plus "ok" and
    "checks" as JSON, or [ok]/[FAIL] lines under `title`; exit 1 if any
    check failed."""
    ok = all(v for _, v in checks)
    _report(dict(payload, ok=ok, checks={name: bool(v) for name, v in checks}),
            [title] + ["  [%s] %s" % ("ok" if v else "FAIL", name)
                       for name, v in checks] + [_overall(ok)],
            json_out, ok)


_json_option = click.option(
    "--json", "json_out", is_flag=False, flag_value="-", default=None,
    callback=_output_path,
    help="Emit JSON (to stdout, or to the given path).")
_n_option = click.option("--n", "n", type=int, required=True,
                         callback=_odd_n, help="Odd integer n >= 3.")


class _KnGroup(click.Group):
    """Reports an exceeded memory budget from any command as an error
    message rather than a traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except MemoryBudgetError as exc:
            raise click.ClickException("memory budget exceeded: %s" % exc)


@click.group(cls=_KnGroup)
@click.version_option(version=__version__, prog_name="kn")
def main():
    """Exact verification toolkit for the Hopf algebras K_n, their
    Yetter-Drinfeld modules, fusion rules, Nichols algebras, and the
    associated rack machinery."""
    try:
        _memory_budget_bytes()
    except ValueError as exc:
        raise click.UsageError(str(exc))


# -- hopf-verify -----------------------------------------------------------------


def _hopf_audit(A):
    """`verify_hopf_axioms` on A, once the memory budget admits the audit
    of its 2n^4 coproduct terms."""
    terms = 2 * A.n ** 4
    # 750 bytes a term: the whole audit, its Delta table included, peaked
    # at 637-673 under tracemalloc at n = 5 to 15, and grew the resident
    # set by 487-706 at n = 7 to 15
    _check_budget(750 * terms, "the Hopf audit of K_%d, %d coproduct terms,"
                  % (A.n, terms))
    return verify_hopf_axioms(A)


@main.command("hopf-verify")
@_n_option
@_json_option
def hopf_verify(n, json_out):
    """Exhaustive Hopf-axiom audit of K_n."""
    report = _hopf_audit(KnAlgebra(n))
    ok = report["ok"]
    axioms = {name: {"ok": entry["ok"],
                     "counterexample": None if entry["counterexample"] is None
                     else repr(entry["counterexample"])}
              for name, entry in report.items() if isinstance(entry, dict)}
    lines = ["Hopf axiom audit for K_%d (dim %d)" % (n, 2 * n * n)]
    for name, entry in sorted(axioms.items()):
        line = "  %-22s %s" % (name, _verdict(entry["ok"]))
        if entry["counterexample"] is not None:
            line += "  counterexample: " + entry["counterexample"]
        lines.append(line)
    _report({"n": n, "ok": ok, "axioms": axioms}, lines + [_overall(ok)],
            json_out, ok)


# -- simples ----------------------------------------------------------------------


def _check_label_budget(n):
    """MemoryBudgetError unless the budget admits listing K_n's simples."""
    count = 4 * n * n + n * n * (n * n - 1) // 2   # 2n^2 V, 2n^2 W, the U
    # 720 bytes a label: at most 708 under tracemalloc, n = 5 to 21, --json
    _check_budget(720 * count, "listing the %d simples of K_%d" % (count, n))


@main.command("simples")
@_n_option
@_json_option
def simples(n, json_out):
    """List the simple Yetter-Drinfeld module labels, dimensions, and the
    sum-of-squares census (expected 4 n^4)."""
    _check_label_budget(n)
    A = KnAlgebra(n)
    labels = list_simples(A)
    census = dimension_census(A)
    expected = 4 * n ** 4
    ok = census == expected
    _report({"n": n, "labels": [[str(L), L.dim()] for L in labels],
             "count": len(labels), "census": census, "expected": expected,
             "ok": ok},
            chain(("%-16s dim %d" % (L, L.dim()) for L in labels),
                  ["%d simple modules; sum of squared dimensions = %d "
                   "(expected 4n^4 = %d): %s"
                   % (len(labels), census, expected, _verdict(ok))]),
            json_out, ok)


# -- yd-verify --------------------------------------------------------------------


@main.command("yd-verify")
@_n_option
@click.option("--sample", type=int, default=None, callback=_positive_sample,
              help="Check only this many labels, chosen with --seed.")
@click.option("--seed", type=int, default=0, show_default=True)
@_json_option
def yd_verify(n, sample, seed, json_out):
    """Verify the module, comodule, and Yetter-Drinfeld axioms for every
    simple label (or a seeded sample)."""
    _check_label_budget(n)
    A = KnAlgebra(n)
    labels = list_simples(A)
    if sample is not None:
        labels = random.Random(seed).sample(labels, min(sample, len(labels)))
    reports = [(L, check_yd(build_simple(A, L))) for L in labels]
    failures = [{"label": str(L),
                 "failures": {k: repr(v) for k, v in report.items()
                              if k != "ok" and v is not None}}
                for L, report in reports if not report["ok"]]
    ok = not failures
    _report({"n": n, "checked": len(labels), "ok": ok, "failures": failures},
            ["YD axiom sweep, n=%d: %d labels checked, %d failures"
             % (n, len(labels), len(failures))]
            + ["  FAIL %s: %s" % (f["label"], f["failures"]) for f in failures]
            + [_overall(ok)], json_out, ok)


# -- fuse -------------------------------------------------------------------------


def _check_tensor_budget(L1, L2):
    """MemoryBudgetError unless the budget admits the tensor module of two
    simples: the 2n^4 terms of the Delta table its action reads, and the
    (dim L1 dim L2)^2 cells of its coaction matrix."""
    n = L1.n
    terms, cells = 2 * n ** 4, (L1.dim() * L2.dim()) ** 2
    # 80 bytes a Delta term and 240 a cell: at n = 11 to 21, `kn fuse` grew
    # the resident set by 71-73 bytes a Delta term for V (x) V, and by
    # 209-222 bytes a cell more for W (x) W
    _check_budget(80 * terms + 240 * cells,
                  "the tensor product %s (x) %s over K_%d, %d coproduct terms "
                  "and %d coaction cells," % (L1, L2, n, terms, cells))


@main.command("fuse")
@_n_option
@click.option("--left", required=True, help='Left factor, e.g. "W(-1,0,0)".')
@click.option("--right", required=True, help="Right factor.")
@click.option("--verify/--no-verify", default=True, show_default=True,
              help="Cross-check the closed form against the semisimple "
                   "decomposition of the actual tensor module.")
@_json_option
def fuse(n, left, right, verify, json_out):
    """Print the fusion decomposition of a tensor product of simples."""
    A = KnAlgebra(n)
    L1 = _parse(left, n)
    L2 = _parse(right, n)
    closed = closed_form_fuse(L1, L2)
    if verify:
        _check_tensor_budget(L1, L2)
    agreed = (decompose(tensor_module(build_simple(A, L1),
                                      build_simple(A, L2))) == closed
              if verify else None)
    lines = ["%s (x) %s = %s" % (L1, L2, closed),
             "dimension %d = %d * %d" % (closed.dim(), L1.dim(), L2.dim())]
    if verify:
        lines.append("oracle decomposition agrees: %s"
                     % ("yes" if agreed else "NO"))
    _report({"n": n, "left": str(L1), "right": str(L2),
             "decomposition": closed.to_json(), "dimension": closed.dim(),
             "verified": agreed}, lines, json_out, not verify or agreed)


# -- fusion-table -----------------------------------------------------------------


@main.command("fusion-table")
@_n_option
@click.option("--out", "out_path", default=None, callback=_output_path,
              help="Write the table as CSV to this path.")
@click.option("--sample", type=int, default=None, callback=_positive_sample,
              help="Use this many distinct seeded random pairs, not all.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--verify/--no-verify", default=True, show_default=True)
@_json_option
def fusion_table_cmd(n, out_path, sample, seed, verify, json_out):
    """Tabulate fusion products for all (or sampled) pairs of simples and
    compare the closed form against the decomposition oracle."""
    if (out_path is not None and json_out not in (None, "-")
            and os.path.realpath(out_path) == os.path.realpath(json_out)):
        raise click.UsageError("invalid output path: --out and --json both "
                               "name %s" % out_path)
    _check_label_budget(n)
    A = KnAlgebra(n)
    pairs = sample_pairs(A, sample, seed) if sample is not None else None
    rows, mismatches = fusion_table(A, pairs=pairs, verify=verify)
    fields = ["left", "right", "closed_form"] + \
        (["oracle", "match"] if verify else [])
    if out_path is not None:
        with _open_output(out_path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(fields)
            writer.writerows([row[f] for f in fields] for row in rows)
    ok = mismatches == 0
    _report({"n": n, "pairs": len(rows), "mismatches": mismatches, "ok": ok,
             "rows": None if out_path else rows},
            chain(() if out_path else
                  ("%s (x) %s = %s" % (row["left"], row["right"],
                                       row["closed_form"]) for row in rows),
                  ["%d pairs, %d mismatches: %s"
                   % (len(rows), mismatches, _verdict(ok))]),
            json_out, ok)


# -- nichols ----------------------------------------------------------------------


def _braided_space_for(A, text):
    label = _parse(text, A.n)
    return braided_space(build_simple(A, label)), label


@main.command("nichols")
@_n_option
@click.option("--module", "module_text", required=True,
              help='Simple module label, e.g. "W(-1,0,0)".')
@click.option("--cutoff", type=int, default=6, show_default=True)
@click.option("--relations", "want_relations", is_flag=True,
              help="Include kernel bases (defining relations) per degree.")
@_json_option
def nichols_cmd(n, module_text, cutoff, want_relations, json_out):
    """Graded dimensions of the Nichols algebra of a simple module."""
    if cutoff < 2:
        raise click.UsageError("invalid cutoff: must be >= 2")
    A = KnAlgebra(n)
    B, label = _braided_space_for(A, module_text)
    report = graded_dims(B, cutoff, want_relations=want_relations)
    payload = dict(report.to_json(), n=n, module=str(label))
    if not want_relations:
        payload["relations"] = None
    lines = ["Nichols algebra of %s, n=%d (cutoff %d)" % (label, n, cutoff),
             "dims: %s" % ",".join(map(str, report.dims)),
             "status: %s" % report.status]
    if report.status == "finite":
        lines.append("total: %d   top degree: %d"
                     % (report.total, report.top_degree))
    if report.witness is not None:
        lines.append("fixed-vector witness: [%s]"
                     % ", ".join(map(str, report.witness)))
    if report.note:
        lines.append("note: %s" % report.note)
    _report(payload, lines, json_out)


@main.command("nichols-sum")
@_n_option
@click.option("--labels", "labels_text", required=True,
              help='Semicolon-separated U labels, e.g. "U(1,0,1,0);U(0,1,0,2)".')
@click.option("--cutoff", type=int, default=None,
              help="Also compute graded dims of the direct sum to this degree.")
@_json_option
def nichols_sum(n, labels_text, cutoff, json_out):
    """Finiteness criterion for a direct sum of simple U modules."""
    A = KnAlgebra(n)
    labels = [_parse(part, n) for part in labels_text.split(";") if part.strip()]
    if not labels:
        raise click.UsageError("invalid label grammar: no labels given")
    for L in labels:
        if L.kind != "U":
            raise click.UsageError(
                "invalid label grammar: nichols-sum expects U labels, got %s" % L)
    result = sum_criterion(labels)
    payload = {"n": n, "criterion": result}
    if cutoff is not None:
        if cutoff < 2:
            raise click.UsageError("invalid cutoff: must be >= 2")
        M = build_simple(A, labels[0])
        for L in labels[1:]:
            M = direct_sum(M, build_simple(A, L))
        report = graded_dims(braided_space(M), cutoff, want_relations=False)
        payload["graded"] = {"dims": list(report.dims), "total": report.total,
                             "status": report.status}
    lines = ["direct sum of %s, n=%d" % (" + ".join(map(str, labels)), n)]
    lines += ["  %-16s finite=%s kind=%s predicted_total=%s"
              % (entry["label"], entry["finite"], entry["kind"],
                 entry["predicted_total"]) for entry in result["per_label"]]
    lines += ["  pair %s disconnected=%s"
              % (" , ".join(entry["pair"]), entry["disconnected"])
              for entry in result["per_pair"]]
    lines.append("finite: %s   predicted total: %s"
                 % (result["finite"], result["predicted_total"]))
    if "graded" in payload:
        lines.append("graded dims to cutoff: %s (status %s)"
                     % (",".join(map(str, payload["graded"]["dims"])),
                        payload["graded"]["status"]))
    _report(payload, lines, json_out)


@main.command("square-zero")
@_n_option
@click.option("--module", "module_text", required=True)
@_json_option
def square_zero(n, module_text, json_out):
    """Solve x^2 = 0 in degree 2 of the Nichols algebra over the symmetric
    monomial coordinates mu_ab = lambda_a lambda_b."""
    A = KnAlgebra(n)
    B, label = _braided_space_for(A, module_text)
    try:
        space = square_zero_monomial_space(B)
    except ValueError as exc:
        raise click.ClickException("dimension bound exceeded: %s" % exc)
    axis = space.forces_axis()
    _report({"n": n, "module": str(label),
             "pairs": [list(p) for p in space.pairs],
             "solution_dim": len(space.kernel),
             "forced_zero": [list(p) for p in space.forced_zero],
             "forces_axis": axis},
            ["square-zero locus of %s, n=%d" % (label, n),
             "monomials mu_ab forced to zero: %s"
             % (", ".join("mu_%d%d" % p for p in space.forced_zero) or "none"),
             "solution space dimension: %d" % len(space.kernel),
             "no single axis is forced" if axis is None else
             "all square-zero vectors lie on the axis of basis vector %d "
             "(all other coordinates vanish)" % axis], json_out)


# -- rack -------------------------------------------------------------------------


@main.command("rack")
@_n_option
@_json_option
def rack_cmd(n, json_out):
    """Rack, cocycle, and twist-equivalence verification battery."""
    _report_checks("rack battery, n=%d" % n, {"n": n},
                   rackbattery.run_battery(n), json_out)


# -- paper-verify --------------------------------------------------------------------


def _nichols_checks(A):
    """The Nichols-algebra checks of `paper-verify`, as (name, ok) pairs."""
    n = A.n
    checks = []
    if n == 3:
        B, _ = _braided_space_for(A, "W(-1,0,0)")
        rep = graded_dims(B, 6, want_relations=False)
        checks.append(("nichols-W(-1,0,0)-dims",
                       rep.status == "finite" and rep.total == 12 and
                       rep.hilbert() == [1, 3, 4, 3, 1]))
        crit = a2_criterion(U(3, 1, 0, 1, 0))
        BU, _ = _braided_space_for(A, "U(1,0,1,0)")
        repU = graded_dims(BU, 9, want_relations=False)
        checks.append(("nichols-A2-total-N^3",
                       crit["finite"] and repU.status == "finite" and
                       repU.total == crit["predicted_total"] == 27))
        Bz, _ = _braided_space_for(A, "W(-1,1,1)")
        checks.append(("square-zero-forces-axis",
                       square_zero_monomial_space(Bz).forces_axis() == 0))
        Bw, _ = _braided_space_for(A, "W(+1,0,1)")
        checks.append(("infinite-precheck-witness",
                       infinite_precheck(Bw) is not None))
    else:
        # one-dimensional Nichols algebras are exact at any n
        reps = [(graded_dims(braided_space(build_simple(A, V(n, 1, i, m))),
                             n + 1, want_relations=False),
                 root_order(cyc(n, i * (m - i))))
                for i in range(n) for m in range(n) if 2 * i * (m - i) % n]
        checks.append(("nichols-one-dimensional",
                       all(rep.status == "finite" and rep.total == expected
                           for rep, expected in reps)))
    return checks


@main.command("paper-verify")
@_n_option
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for the sampled sweeps used when n > 3.")
@_json_option
def paper_verify(n, seed, json_out):
    """Run the full verification battery: Hopf axioms, YD sweep, census,
    fusion table, Nichols graded dimensions, square-zero elimination, and
    the rack battery.  Exhaustive at n=3; seeded samples for larger n."""
    _check_label_budget(n)
    A = KnAlgebra(n)
    # the Nichols checks run next, so that an exceeded memory budget is
    # reported before the long Hopf, YD and fusion sweeps; they are listed
    # after them
    nichols_checks = _nichols_checks(A)
    checks = [("hopf-axioms", _hopf_audit(A)["ok"])]

    labels = list_simples(A)
    yd_labels = labels if n == 3 else \
        random.Random(seed).sample(labels, min(50, len(labels)))
    yd_ok = all(check_yd(build_simple(A, L))["ok"] for L in yd_labels)
    checks.append(("yd-axioms(%s)" %
                   ("exhaustive" if n == 3 else "%d sampled" % len(yd_labels)),
                   yd_ok))

    checks.append(("census-4n^4", dimension_census(A) == 4 * n ** 4))

    pairs = None if n == 3 else sample_pairs(A, 200, seed)
    _, mismatches = fusion_table(A, pairs=pairs, verify=True)
    checks.append(("fusion(%s)" %
                   ("exhaustive" if n == 3 else "200 sampled"),
                   mismatches == 0))

    checks += nichols_checks

    checks.append(("rack-battery",
                   all(v for _, v in rackbattery.run_battery(n))))

    _report_checks("verification battery, n=%d" % n, {"n": n, "seed": seed},
                   checks, json_out)


if __name__ == "__main__":
    main()
