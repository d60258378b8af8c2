"""Golden outputs: the stdout of fixed `kn ... --json` commands, byte for
byte, as sha256 digests.

The digests were recorded from knyd 0.1.0 at commit 917fa73, and the n = 5
`nichols` one, the only golden with kernels over Q(xi_5), at 33c7151.  A
change that alters any of these bytes (a reordered key, another float
format, a different decomposition) fails here; a deliberate change of the
JSON schema must record new digests and say so in CHANGES.md.
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
]


@pytest.mark.parametrize("command, digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_golden_stdout(command, digest):
    result = CliRunner().invoke(main, command.split())
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest
