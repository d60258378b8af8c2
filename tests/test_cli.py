"""The `kn` command-line interface."""

import json

import pytest
from click.testing import CliRunner

from knyd import cli
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
    # paper-verify must meet the budget in its Nichols checks before it
    # starts the minutes-long Hopf, YD and fusion sweeps
    audits = []
    monkeypatch.setattr(cli, "verify_hopf_axioms",
                        lambda A: audits.append(A.n))
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert "memory budget exceeded" in result.output
    assert "Traceback" not in result.output
    assert audits == []


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
