"""Golden outputs: the stdout of fixed `kn` commands, text and JSON, byte
for byte, as sha256 digests.

The first eight (all JSON) were recorded from knyd 0.1.0 at commit 917fa73,
and the n = 5 `nichols` one, the only golden with kernels over Q(xi_5), at
33c7151.  The rest, which pin the text output of every command, its
branches (`--no-verify`, a fixed-vector witness, a symmetric line, no
forced axis) and `paper-verify` at n = 5, were recorded at 56d13be, before
every command's output went through one report path.  The exhaustive n = 3
table, all 5 184 decompositions, was recorded at d2233f7, before products of
roots of unity became exponent sums.  A change that alters
any of these bytes (a reordered key, another float format, a reworded line,
a different decomposition) fails here; a deliberate change of the output
must record new digests and say so in CHANGES.md.
"""

import hashlib

import pytest
from click.testing import CliRunner

from knyd.cli import main

GOLDEN = [
    ("fusion-table --n 3 --sample 60 --seed 2 --json",
     "6814600ee2f460bc0eb44ec8bc7c77678e0f92357448d39412160a830061ebfe"),
    ("fusion-table --n 5 --sample 20 --seed 1 --json",
     "40bb0ac94e8d119c11916e3e746ac607f49f82017a6c35223713c7438715906e"),
    ("rack --n 5 --json",
     "818561718c486ec47e599504d13eb5e91d0e744289da675b6ec3414bb505f972"),
    ("nichols --n 3 --module W(-1,1,1) --cutoff 4 --relations --json",
     "24fb7b59b6047d4736e1970f8850765ea16ec1de8e5101b488cd336ccbacfa64"),
    ("nichols --n 5 --module W(-1,1,1) --cutoff 3 --relations --json",
     "8af1eee78750cd226a9b87fb23545679ba6bc0cab26793966a7af3215af1ced4"),
    ("nichols-sum --n 3 --labels U(0,1,0,2);U(0,1,2,1) --cutoff 4 --json",
     "f6119e97879440a5fbd969d2f1177423d57c761ce7027186772a36bcfe7e8d28"),
    ("yd-verify --n 5 --sample 30 --json",
     "afc908ee7a299fc63bc53acbd5c79d54dac6ba505cc87e2c65beba01067c4349"),
    ("square-zero --n 3 --module W(-1,1,1) --json",
     "51537a0dbfebdfeeb778b0e8f0653cff0eabd485bb9f82016ace649ecf20cb93"),
    ("simples --n 3",
     "99c37302786c5883550b7edf2b69e3397a7d46a326eb3e3aa4197bc78e735637"),
    ("hopf-verify --n 3",
     "a198da2949a2e98c598ccf6656fca33360d256a80b94deae7fdc2a0eebe58129"),
    ("yd-verify --n 3 --sample 6",
     "f139ded2a51e3ebde2b09dc744c53ef47199a72b45fbf97e6a7364be36ef019b"),
    ("fuse --n 3 --left W(-1,0,0) --right W(-1,0,0)",
     "0bc9b569d53608b16eef4a54451e54d8083314184fae9b7700207609b16c5230"),
    ("fuse --n 3 --left W(-1,0,0) --right W(-1,0,0) --no-verify",
     "ae0ed6f97b1787b38ec94aa75edac43247e0f71f6d119a29a5df5f814eed0a14"),
    ("fusion-table --n 3 --sample 20 --seed 1",
     "4a9489349d30f2e58f6b79b98ab924f4ee12d84097cac5fdcf7c3f19eedef262"),
    ("nichols --n 3 --module W(-1,0,0) --cutoff 6",
     "467080525573dead8e00b6c07e1ee683c251b22d19cfab551a79c8b6cef826f7"),
    ("nichols --n 3 --module W(+1,0,1) --cutoff 4",
     "cfa4a5e9e1d7dde90996cfe1563f5109997b421ba2893728529916c9a97248d8"),
    ("nichols --n 3 --module V(+1,0,0) --cutoff 4",
     "40c456c3577e7705c6ae65e42c11a01dd9ce116cab79d236443fa595486f2326"),
    ("nichols-sum --n 3 --labels U(0,1,0,2);U(0,1,2,1) --cutoff 4",
     "32782a5ce6067570d1b5d4d204951262232198115af58dec8e9f564509ffd942"),
    ("square-zero --n 3 --module W(-1,1,1)",
     "0100023826016063489dae6e24d22988a69f99800e3a8a0fceb7d793ab6cdb72"),
    ("square-zero --n 3 --module W(-1,0,0)",
     "ecbfd7454a3fc0f3e0ac6e98354cba705106fc6e1070d0def62e372f69f83a8d"),
    ("rack --n 3",
     "d134be429ab58247aaf5f032779fcaca2bbc397cd4045b7e6c7b27bf88f7801c"),
    ("paper-verify --n 5",
     "e54c2ead348f5fa1f4f3f591cf01759f8f3ead9450070230581b5b50337f54c4"),
    ("paper-verify --n 5 --json",
     "5790bd88a3d16a805d9e587fd98ab70a492a5038c428e6392f29c8fa073e1fd8"),
    ("fusion-table --n 3 --json",
     "9e64c74034e0e70ad63a4864d33570be24d4cb42b3062d770500555fbcde8a00"),
]


@pytest.mark.parametrize("command, digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_golden_stdout(command, digest):
    result = CliRunner().invoke(main, command.split())
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest


def test_golden_fusion_table_csv(tmp_path):
    # with --out the table goes to the CSV and stdout keeps the summary
    out = tmp_path / "table.csv"
    args = "fusion-table --n 3 --sample 20 --seed 1 --out".split()
    result = CliRunner().invoke(main, args + [str(out)])
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == b"20 pairs, 0 mismatches: pass\n"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "ab2b3d4a4cdcf84f770c1e9d6825b23b6fac65d07a14714dc7e583cb241c8a5a")
