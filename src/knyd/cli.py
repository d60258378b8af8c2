"""Command-line front end.

Every verification battery in the package is reachable through one
subcommand of `kn`.  All output is deterministic: JSON is emitted with
sorted keys and no timestamps, CSV uses RFC-4180 quoting, and sampled
sweeps are driven by an explicit seed.  Wall-clock timings appear only in
the human-readable text output, never in JSON or CSV.

Label grammar (indices reduced mod n on parse):

    V(e,i,m)    U(i,j,m,t)    W(e,i,m)      with e in {+1, -1}.
"""

from __future__ import annotations

import csv
import io
import json
import random
import sys

import click

from .cyclotomic import cyc, root_order
from .hopf import KnAlgebra, verify_hopf_axioms
from .ydmod import (U, V, build_simple, check_yd, dimension_census,
                    direct_sum, list_simples, parse_label, braided_space)
from .fusion import (closed_form_fuse, decompose, fusion_table, sample_pairs,
                     tensor_module, uw0_isomorphism)
from .nichols import (MemoryBudgetError, _memory_budget_cells, a2_criterion,
                      graded_dims, infinite_precheck,
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


def _emit_json(payload, dest):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if dest in (None, "-"):
        click.echo(text, nl=False)
    else:
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write(text)


def _report_checks(title, payload, checks, json_out):
    """Emit a battery of named (name, ok) checks: `payload` plus "ok" and
    "checks" as JSON, or [ok]/[FAIL] lines under `title`; exit 1 if any
    check failed."""
    ok = all(v for _, v in checks)
    if json_out is not None:
        _emit_json(dict(payload, ok=ok,
                        checks={name: bool(v) for name, v in checks}),
                   json_out)
    else:
        click.echo(title)
        for name, v in checks:
            click.echo("  [%s] %s" % ("ok" if v else "FAIL", name))
        click.echo("overall: %s" % ("pass" if ok else "FAIL"))
    if not ok:
        sys.exit(1)


_json_option = click.option(
    "--json", "json_out", is_flag=False, flag_value="-", default=None,
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
        _memory_budget_cells()
    except ValueError as exc:
        raise click.UsageError(str(exc))


# -- hopf-verify -----------------------------------------------------------------


@main.command("hopf-verify")
@_n_option
@_json_option
def hopf_verify(n, json_out):
    """Exhaustive Hopf-axiom audit of K_n."""
    A = KnAlgebra(n)
    report = verify_hopf_axioms(A)
    ok = report["ok"]
    axioms = {name: entry for name, entry in report.items()
              if isinstance(entry, dict)}
    if json_out is not None:
        _emit_json({"n": n, "ok": ok,
                    "axioms": {name: {"ok": entry["ok"],
                                      "counterexample": repr(entry["counterexample"])
                                      if entry["counterexample"] is not None else None}
                               for name, entry in axioms.items()}}, json_out)
    else:
        click.echo("Hopf axiom audit for K_%d (dim %d)" % (n, 2 * n * n))
        for name in sorted(axioms):
            entry = axioms[name]
            line = "  %-22s %s" % (name, "pass" if entry["ok"] else "FAIL")
            if entry["counterexample"] is not None:
                line += "  counterexample: %r" % (entry["counterexample"],)
            click.echo(line)
        click.echo("overall: %s" % ("pass" if ok else "FAIL"))
    if not ok:
        sys.exit(1)


# -- simples ----------------------------------------------------------------------


@main.command("simples")
@_n_option
@_json_option
def simples(n, json_out):
    """List the simple Yetter-Drinfeld module labels, dimensions, and the
    sum-of-squares census (expected 4 n^4)."""
    A = KnAlgebra(n)
    labels = list_simples(A)
    census = dimension_census(A)
    expected = 4 * n ** 4
    if json_out is not None:
        _emit_json({"n": n,
                    "labels": [[str(L), L.dim()] for L in labels],
                    "count": len(labels),
                    "census": census,
                    "expected": expected,
                    "ok": census == expected}, json_out)
    else:
        for L in labels:
            click.echo("%-16s dim %d" % (str(L), L.dim()))
        click.echo("%d simple modules; sum of squared dimensions = %d "
                   "(expected 4n^4 = %d): %s"
                   % (len(labels), census, expected,
                      "pass" if census == expected else "FAIL"))
    if census != expected:
        sys.exit(1)


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
    A = KnAlgebra(n)
    labels = list_simples(A)
    if sample is not None:
        labels = random.Random(seed).sample(labels, min(sample, len(labels)))
    failures = []
    for L in labels:
        report = check_yd(build_simple(A, L))
        if not report["ok"]:
            bad = {k: repr(v) for k, v in report.items()
                   if k != "ok" and v is not None}
            failures.append({"label": str(L), "failures": bad})
    ok = not failures
    if json_out is not None:
        _emit_json({"n": n, "checked": len(labels), "ok": ok,
                    "failures": failures}, json_out)
    else:
        click.echo("YD axiom sweep, n=%d: %d labels checked, %d failures"
                   % (n, len(labels), len(failures)))
        for f in failures:
            click.echo("  FAIL %s: %s" % (f["label"], f["failures"]))
        click.echo("overall: %s" % ("pass" if ok else "FAIL"))
    if not ok:
        sys.exit(1)


# -- fuse -------------------------------------------------------------------------


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
    agreed = None
    if verify:
        M = tensor_module(build_simple(A, L1), build_simple(A, L2))
        agreed = decompose(M) == closed
    if json_out is not None:
        _emit_json({"n": n, "left": str(L1), "right": str(L2),
                    "decomposition": closed.to_json(),
                    "dimension": closed.dim(),
                    "verified": agreed}, json_out)
    else:
        click.echo("%s (x) %s = %s" % (L1, L2, closed))
        click.echo("dimension %d = %d * %d" % (closed.dim(), L1.dim(), L2.dim()))
        if verify:
            click.echo("oracle decomposition agrees: %s"
                       % ("yes" if agreed else "NO"))
    if verify and not agreed:
        sys.exit(1)


# -- fusion-table -----------------------------------------------------------------


@main.command("fusion-table")
@_n_option
@click.option("--out", "out_path", type=click.Path(dir_okay=False),
              default=None, help="Write the table as CSV to this path.")
@click.option("--sample", type=int, default=None, callback=_positive_sample,
              help="Use this many seeded random pairs instead of all pairs.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--verify/--no-verify", default=True, show_default=True)
@_json_option
def fusion_table_cmd(n, out_path, sample, seed, verify, json_out):
    """Tabulate fusion products for all (or sampled) pairs of simples and
    compare the closed form against the decomposition oracle."""
    A = KnAlgebra(n)
    pairs = sample_pairs(A, sample, seed) if sample is not None else None
    rows, mismatches = fusion_table(A, pairs=pairs, verify=verify)
    fields = ["left", "right", "closed_form"] + \
        (["oracle", "match"] if verify else [])
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(fields)
            for row in rows:
                writer.writerow([row[f] for f in fields])
    if json_out is not None:
        _emit_json({"n": n, "pairs": len(rows), "mismatches": mismatches,
                    "ok": mismatches == 0,
                    "rows": None if out_path else rows}, json_out)
    else:
        if out_path is None:
            for row in rows:
                click.echo("%s (x) %s = %s" % (row["left"], row["right"],
                                               row["closed_form"]))
        click.echo("%d pairs, %d mismatches: %s"
                   % (len(rows), mismatches,
                      "pass" if mismatches == 0 else "FAIL"))
    if mismatches:
        sys.exit(1)


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
    payload = report.to_json()
    if not want_relations:
        payload["relations"] = None
    payload["n"] = n
    payload["module"] = str(label)
    if json_out is not None:
        _emit_json(payload, json_out)
    else:
        click.echo("Nichols algebra of %s, n=%d (cutoff %d)"
                   % (label, n, cutoff))
        click.echo("dims: %s" % ",".join(str(d) for d in report.dims))
        click.echo("status: %s" % report.status)
        if report.status == "finite":
            click.echo("total: %d   top degree: %d"
                       % (report.total, report.top_degree))
        if report.witness is not None:
            click.echo("fixed-vector witness: [%s]"
                       % ", ".join(str(v) for v in report.witness))
        if report.note:
            click.echo("note: %s" % report.note)


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
        payload["graded"] = {"dims": list(report.dims),
                             "status": report.status,
                             "total": report.total}
    if json_out is not None:
        _emit_json(payload, json_out)
    else:
        click.echo("direct sum of %s, n=%d" % (" + ".join(map(str, labels)), n))
        for entry in result["per_label"]:
            click.echo("  %-16s finite=%s kind=%s predicted_total=%s"
                       % (entry["label"], entry["finite"], entry["kind"],
                          entry["predicted_total"]))
        for entry in result["per_pair"]:
            click.echo("  pair %s disconnected=%s"
                       % (" , ".join(entry["pair"]), entry["disconnected"]))
        click.echo("finite: %s   predicted total: %s"
                   % (result["finite"], result["predicted_total"]))
        if "graded" in payload:
            click.echo("graded dims to cutoff: %s (status %s)"
                       % (",".join(map(str, payload["graded"]["dims"])),
                          payload["graded"]["status"]))


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
    if json_out is not None:
        _emit_json({"n": n, "module": str(label),
                    "pairs": [list(p) for p in space.pairs],
                    "solution_dim": len(space.kernel),
                    "forced_zero": [list(p) for p in space.forced_zero],
                    "forces_axis": axis}, json_out)
    else:
        click.echo("square-zero locus of %s, n=%d" % (label, n))
        click.echo("monomials mu_ab forced to zero: %s"
                   % (", ".join("mu_%d%d" % p for p in space.forced_zero)
                      or "none"))
        click.echo("solution space dimension: %d" % len(space.kernel))
        if axis is not None:
            click.echo("all square-zero vectors lie on the axis of "
                       "basis vector %d (all other coordinates vanish)" % axis)
        else:
            click.echo("no single axis is forced")


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
        ok1 = True
        for i in range(n):
            for m in range(n):
                if (2 * i * (m - i)) % n == 0:
                    continue
                Bv = braided_space(build_simple(A, V(n, 1, i, m)))
                rep = graded_dims(Bv, n + 1, want_relations=False)
                expected = root_order(cyc(n, i * (m - i)))
                ok1 = ok1 and rep.status == "finite" and rep.total == expected
        checks.append(("nichols-one-dimensional", ok1))
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
    A = KnAlgebra(n)
    # the Nichols checks run first, so that an exceeded memory budget is
    # reported before the long Hopf, YD and fusion sweeps; they are listed
    # after them
    nichols_checks = _nichols_checks(A)
    checks = []

    report = verify_hopf_axioms(A)
    checks.append(("hopf-axioms", report["ok"]))

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

    rack_results = rackbattery.run_battery(n)
    checks.append(("rack-battery", all(v for _, v in rack_results)))

    _report_checks("verification battery, n=%d" % n, {"n": n, "seed": seed},
                   checks, json_out)


if __name__ == "__main__":
    main()
