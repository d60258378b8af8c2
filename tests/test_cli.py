"""The `kn` command-line interface."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from knyd import cli, fusion, hopf, nichols, rackbattery
from knyd.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def test_simples_text_and_json(runner):
    result = runner.invoke(main, ["simples", "--n", "3"])
    assert result.exit_code == 0
    assert "324" in result.output and "pass" in result.output
    result = runner.invoke(main, ["simples", "--n", "3", "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["census"] == payload["expected"] == 324
    assert payload["count"] == 72
    assert payload["ok"]


def test_hopf_verify(runner):
    result = runner.invoke(main, ["hopf-verify", "--n", "3", "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["ok"]
    assert all(entry["ok"] for entry in payload["axioms"].values())


def test_yd_verify_sampled(runner):
    result = runner.invoke(main, ["yd-verify", "--n", "3", "--sample", "6",
                                  "--seed", "0", "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["ok"] and payload["checked"] == 6


def test_fuse_with_oracle(runner):
    result = runner.invoke(main, ["fuse", "--n", "3", "--left", "W(-1,0,0)",
                                  "--right", "W(-1,0,0)"])
    assert result.exit_code == 0
    assert "V(+1,0,0)" in result.output
    assert "oracle decomposition agrees: yes" in result.output
    result = runner.invoke(main, ["fuse", "--n", "3", "--left", "V(+1,1,1)",
                                  "--right", "U(1,0,1,0)", "--json"])
    payload = json.loads(result.output)
    assert payload["verified"] is True
    assert payload["dimension"] == 2


def test_fuse_composite_n15(runner):
    # W (x) W at the composite conductor 15, of dimension 225, decomposed
    # by the Hom-space oracle and checked against the closed form
    result = runner.invoke(main, ["fuse", "--n", "15", "--left", "W(-1,1,0)",
                                  "--right", "W(-1,0,3)", "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["verified"] is True
    assert payload["dimension"] == 225


# every command but the Hopf audits of hopf-verify and paper-verify, at the
# composite conductor 15
SMOKE_N15 = [
    ["simples"],
    ["yd-verify", "--sample", "3"],
    ["fuse", "--left", "U(1,2,0,3)", "--right", "W(-1,0,3)"],
    ["fusion-table", "--sample", "3"],
    ["nichols", "--module", "U(1,0,1,0)"],
    ["nichols-sum", "--labels", "U(1,0,1,0)"],
    ["square-zero", "--module", "U(1,0,1,0)"],
    ["rack"],
]


@pytest.mark.parametrize("args", SMOKE_N15, ids=[a[0] for a in SMOKE_N15])
def test_every_command_at_n15(runner, args):
    result = runner.invoke(main, args + ["--n", "15", "--json"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["n"] == 15
    assert payload.get("ok", True) and payload.get("verified", True)


def test_fusion_table_csv(runner, tmp_path):
    out = tmp_path / "table.csv"
    result = runner.invoke(main, ["fusion-table", "--n", "3", "--sample", "4",
                                  "--seed", "1", "--out", str(out)])
    assert result.exit_code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "left,right,closed_form,oracle,match"
    assert len(lines) == 5


def test_nichols_report(runner):
    result = runner.invoke(main, ["nichols", "--n", "3", "--module",
                                  "W(-1,0,0)", "--cutoff", "6"])
    assert result.exit_code == 0
    assert "dims: 1,3,4,3,1,0" in result.output
    assert "total: 12" in result.output
    result = runner.invoke(main, ["nichols", "--n", "3", "--module",
                                  "W(-1,0,0)", "--cutoff", "6", "--json"])
    payload = json.loads(result.output)
    assert payload["dims"] == [1, 3, 4, 3, 1, 0]
    assert payload["total"] == 12
    assert payload["status"] == "finite"
    assert payload["relations"] is None


def test_nichols_sum(runner):
    result = runner.invoke(main, ["nichols-sum", "--n", "3", "--labels",
                                  "U(0,1,0,2);U(0,1,2,1)", "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["criterion"]["finite"]
    assert payload["criterion"]["predicted_total"] == 729


def test_square_zero(runner):
    result = runner.invoke(main, ["square-zero", "--n", "3", "--module",
                                  "W(-1,1,1)", "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["forces_axis"] == 0
    assert [1, 1] in payload["forced_zero"]


def test_rack_battery(runner):
    result = runner.invoke(main, ["rack", "--n", "3", "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["ok"] and all(payload["checks"].values())


# -- failed checks ---------------------------------------------------------------


def _drop_first_term(real, M, *rest):
    return fusion.FusionDecomposition(real(M, *rest).terms[1:])


def _fail_first_check(real, n):
    (name, _), *rest = real(n)
    return [(name, False)] + rest


# (command, the function it calls, how that function's first call fails,
#  a line of the text report, the JSON key that turns false)
FAIL_ONCE = [
    (["hopf-verify", "--n", "3"], (cli, "verify_hopf_axioms"),
     lambda real, A: real(A, antipode_fn=lambda x: -hopf.antipode(x)),
     "  antipode               FAIL  counterexample: ", "ok"),
    (["yd-verify", "--n", "3", "--sample", "4"], (cli, "check_yd"),
     lambda real, M: dict(real(M), ok=False, yd="corrupted"),
     "  FAIL ", "ok"),
    (["fuse", "--n", "3", "--left", "W(-1,0,0)", "--right", "W(-1,0,0)"],
     (cli, "decompose"), _drop_first_term,
     "oracle decomposition agrees: NO", "verified"),
    (["fusion-table", "--n", "3", "--sample", "4"], (fusion, "decompose"),
     _drop_first_term, "4 pairs, 1 mismatches: FAIL", "ok"),
    (["rack", "--n", "3"], (rackbattery, "run_battery"), _fail_first_check,
     "  [FAIL] standard solution satisfies the braid equation", "ok"),
    (["paper-verify", "--n", "5"], (rackbattery, "run_battery"),
     _fail_first_check, "  [FAIL] rack-battery", "ok"),
]


@pytest.mark.parametrize("args, target, fail, line, key", FAIL_ONCE,
                         ids=[case[0][0] for case in FAIL_ONCE])
def test_failed_check_exits_1(runner, monkeypatch, args, target, fail, line,
                              key):
    owner, name = target
    real = getattr(owner, name)

    def fail_once():
        calls = []

        def patched(*a, **kw):
            calls.append(a)
            return fail(real, *a, **kw) if len(calls) == 1 else real(*a, **kw)
        monkeypatch.setattr(owner, name, patched)
        return calls

    calls = fail_once()
    result = runner.invoke(main, args)
    assert calls and result.exit_code == 1, result.output
    assert any(text.startswith(line) for text in result.output.splitlines())
    assert "Traceback" not in result.output

    calls = fail_once()
    result = runner.invoke(main, args + ["--json"])
    assert calls and result.exit_code == 1, result.output
    assert json.loads(result.output)[key] is False


# -- error handling --------------------------------------------------------------


def test_invalid_label_grammar(runner):
    result = runner.invoke(main, ["fuse", "--n", "3", "--left", "X(1)",
                                  "--right", "V(+1,0,0)"])
    assert result.exit_code != 0
    assert "invalid label grammar" in result.output


def test_invalid_n(runner):
    for bad in ("4", "1", "-3"):
        result = runner.invoke(main, ["simples", "--n", bad])
        assert result.exit_code != 0
        assert "invalid n" in result.output


@pytest.mark.parametrize("args", [
    ["yd-verify", "--n", "3", "--sample", "-3"],
    ["yd-verify", "--n", "3", "--sample", "0"],
    ["fusion-table", "--n", "3", "--sample", "-2"],
    ["fusion-table", "--n", "3", "--sample", "0"],
], ids=["yd-verify-neg", "yd-verify-0", "fusion-table-neg", "fusion-table-0"])
def test_invalid_sample(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "invalid sample" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("args", [
    ["hopf-verify", "--n", "3", "--json", "{missing}/x.json"],
    ["hopf-verify", "--n", "3", "--json", "{tmp}"],
    ["fusion-table", "--n", "3", "--sample", "2", "--out", "{missing}/t.csv"],
    ["fusion-table", "--n", "3", "--sample", "2", "--out", "{tmp}"],
    ["fusion-table", "--n", "3", "--sample", "2", "--out", "-"],
    ["fusion-table", "--n", "3", "--sample", "2", "--out", "{tmp}/t.csv",
     "--json", "{tmp}/./t.csv"],
], ids=["json-missing-dir", "json-is-dir", "csv-missing-dir", "csv-is-dir",
        "csv-is-stdout", "csv-is-json"])
def test_unwritable_output_path(runner, monkeypatch, tmp_path, args):
    # the path is rejected before the computation starts
    built = []
    monkeypatch.setattr(cli, "KnAlgebra", lambda n: built.append(n))
    args = [a.format(missing=tmp_path / "missing", tmp=tmp_path)
            for a in args]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "invalid output path" in result.output
    assert "Traceback" not in result.output
    assert built == []


def test_json_to_a_file(runner, tmp_path):
    out = tmp_path / "audit.json"
    result = runner.invoke(main, ["hopf-verify", "--n", "3", "--json",
                                  str(out)])
    assert result.exit_code == 0 and result.output == ""
    assert json.loads(out.read_text(encoding="utf-8"))["ok"]


def test_invalid_cutoff(runner):
    result = runner.invoke(main, ["nichols", "--n", "3", "--module",
                                  "W(-1,0,0)", "--cutoff", "1"])
    assert result.exit_code != 0
    assert "invalid cutoff" in result.output


@pytest.mark.parametrize("args", [
    ["nichols", "--n", "3", "--module", "W(-1,0,0)", "--cutoff", "9"],
    ["nichols-sum", "--n", "3", "--labels", "U(0,1,0,2);U(0,1,2,1)",
     "--cutoff", "9"],
    ["paper-verify", "--n", "3"],
], ids=["nichols", "nichols-sum", "paper-verify"])
def test_memory_budget_error(runner, monkeypatch, args):
    monkeypatch.setenv("KN_MEMORY_MB", "1")
    # paper-verify must meet the budget before it starts the minutes-long
    # Hopf, YD and fusion sweeps
    audits = []
    monkeypatch.setattr(cli, "verify_hopf_axioms",
                        lambda A: audits.append(A.n))
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert "memory budget exceeded" in result.output
    assert "Traceback" not in result.output
    assert audits == []


def test_memory_budget_error_from_a_degree_estimate(runner, monkeypatch):
    # with the process itself counted as empty, degrees 2-4 of W(-1,1,0)
    # fit in 1 MB and the estimate of degree 5 does not
    monkeypatch.setenv("KN_MEMORY_MB", "1")
    monkeypatch.setattr(nichols, "_process_bytes", lambda: 0)
    result = runner.invoke(main, ["nichols", "--n", "3", "--module",
                                  "W(-1,1,0)", "--cutoff", "9"])
    assert result.exit_code == 1
    assert ("memory budget exceeded: degree 5 of the Nichols algebra of a "
            "3-dimensional space exceeds") in result.output
    assert "Traceback" not in result.output


def test_memory_budget_error_before_the_tensor_module(runner, monkeypatch):
    # with the process itself counted as empty, W (x) W at n = 15 needs
    # about 20 MB by the estimate, past a 10 MB budget, though its Delta
    # table alone would fit; no tensor module is built
    monkeypatch.setenv("KN_MEMORY_MB", "10")
    monkeypatch.setattr(nichols, "_process_bytes", lambda: 0)
    built = []
    monkeypatch.setattr(cli, "tensor_module",
                        lambda *modules: built.append(modules))
    args = ["fuse", "--n", "15", "--left", "W(-1,1,0)", "--right",
            "W(-1,0,3)"]
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert ("memory budget exceeded: the tensor product W(-1,1,0) (x) "
            "W(-1,0,3) over K_15, 101250 coproduct terms and 50625 coaction "
            "cells, exceeds") in result.output
    assert "Traceback" not in result.output
    assert built == []
    # the closed form alone needs no tensor module
    result = runner.invoke(main, args + ["--no-verify"])
    assert result.exit_code == 0 and built == []


def test_memory_budget_error_before_the_rack_battery(runner, monkeypatch):
    # with the process itself counted as empty, the battery needs 1.9 MB
    # by the estimate at n = 7 and 11.7 MB at n = 11, against 10 MB; the
    # refused one builds no cocycle table
    monkeypatch.setenv("KN_MEMORY_MB", "10")
    monkeypatch.setattr(nichols, "_process_bytes", lambda: 0)
    battery = rackbattery.run_battery
    runs = []
    monkeypatch.setattr(rackbattery, "run_battery",
                        lambda n: runs.append(n) or battery(n))
    result = runner.invoke(main, ["rack", "--n", "11"])
    assert result.exit_code == 1
    assert ("memory budget exceeded: the rack battery at n=11, 87846 table "
            "and braiding cells, exceeds") in result.output
    assert "Traceback" not in result.output and runs == []
    result = runner.invoke(main, ["rack", "--n", "7", "--json"])
    assert result.exit_code == 0 and runs == [7]
    # paper-verify checks it before its sweeps, once its 7744 labels fit
    audits = []
    monkeypatch.setattr(cli, "verify_hopf_axioms",
                        lambda A: audits.append(A.n))
    result = runner.invoke(main, ["paper-verify", "--n", "11"])
    assert result.exit_code == 1 and audits == [] and runs == [7]
    assert "memory budget exceeded: the rack battery at n=11" in result.output


def test_simples_label_count_in_closed_form():
    # the count `kn simples` checks against the budget before listing
    for n in (3, 5, 7, 9):
        labels = cli.list_simples(cli.KnAlgebra(n))
        assert len(labels) == 4 * n * n + n * n * (n * n - 1) // 2


def _run_under_2gb(*args):
    """`python -m knyd.cli args` in a child under a 2 GB address-space
    limit, so that a broken guard fails with a MemoryError instead of
    exhausting the machine; with the default memory budget."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    env.pop("KN_MEMORY_MB", None)
    return subprocess.run([sys.executable, "-m", "knyd.cli", *args],
                          capture_output=True, text=True, env=env,
                          preexec_fn=limit, timeout=120)


@pytest.mark.parametrize("args", [
    ["simples"], ["yd-verify", "--sample", "1"],
    ["fusion-table", "--sample", "1"], ["paper-verify"],
], ids=["simples", "yd-verify", "fusion-table", "paper-verify"])
def test_memory_budget_error_before_listing_simples(args):
    # at n = 101 the 52 065 904 labels would need about 37 GB; each command
    # that lists them, sampled or not, checks the count before any work
    proc = _run_under_2gb(*args, "--n", "101")
    assert proc.returncode == 1
    assert proc.stderr.startswith("Error: memory budget exceeded: listing "
                                  "the 52065904 simples of K_101 exceeds")
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_memory_budget_error_before_fusing_at_n101():
    # at n = 101 the Delta table that the tensor module reads holds
    # 208 120 802 terms; the check comes before any module is built
    proc = _run_under_2gb("fuse", "--n", "101", "--left", "W(-1,0,0)",
                          "--right", "W(-1,0,1)")
    assert proc.returncode == 1
    assert proc.stderr.startswith("Error: memory budget exceeded: the tensor "
                                  "product W(-1,0,0) (x) W(-1,0,1) over "
                                  "K_101, 208120802 coproduct terms")
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_memory_budget_error_before_the_hopf_audit():
    # at n = 101 the 2n^4 coproduct terms would need about 130 GB
    proc = _run_under_2gb("hopf-verify", "--n", "101")
    assert proc.returncode == 1
    assert proc.stderr.startswith("Error: memory budget exceeded: the Hopf "
                                  "audit of K_101, 208120802 coproduct "
                                  "terms, exceeds")
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_memory_budget_error_before_the_rack_battery_at_n101():
    # at n = 101 the 4n^2 cocycle tables and 2n^2 braidings of n^2 cells
    # would need about 83 GB; the check comes before any table is built
    proc = _run_under_2gb("rack", "--n", "101", "--json")
    assert proc.returncode == 1
    assert proc.stderr.startswith("Error: memory budget exceeded: the rack "
                                  "battery at n=101, 624362406 table and "
                                  "braiding cells, exceeds")
    assert "Traceback" not in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize("value", ["abc", "0"])
def test_invalid_memory_budget_env(runner, monkeypatch, value):
    monkeypatch.setenv("KN_MEMORY_MB", value)
    result = runner.invoke(main, ["nichols", "--n", "3", "--module",
                                  "W(-1,0,0)"])
    assert result.exit_code == 2
    assert "invalid KN_MEMORY_MB" in result.output


def test_error_messages_are_distinct(runner, monkeypatch):
    msgs = set()
    result = runner.invoke(main, ["fuse", "--n", "3", "--left", "bogus",
                                  "--right", "V(+1,0,0)"])
    msgs.add(result.output.splitlines()[-1])
    result = runner.invoke(main, ["simples", "--n", "2"])
    msgs.add(result.output.splitlines()[-1])
    monkeypatch.setenv("KN_MEMORY_MB", "1")
    result = runner.invoke(main, ["nichols", "--n", "3", "--module",
                                  "W(-1,0,0)", "--cutoff", "9"])
    msgs.add(result.output.splitlines()[-1])
    assert len(msgs) == 3


# -- determinism ------------------------------------------------------------------


def test_json_outputs_byte_identical(runner):
    args = ["nichols", "--n", "3", "--module", "W(-1,1,1)", "--cutoff", "5",
            "--relations", "--json"]
    out1 = runner.invoke(main, args).output
    out2 = runner.invoke(main, args).output
    assert out1 == out2
    args = ["rack", "--n", "3", "--json"]
    assert runner.invoke(main, args).output == runner.invoke(main, args).output


def test_sampled_outputs_reproducible_with_seed(runner):
    args = ["fusion-table", "--n", "3", "--sample", "4", "--seed", "9",
            "--json"]
    out1 = runner.invoke(main, args).output
    out2 = runner.invoke(main, args).output
    assert out1 == out2
