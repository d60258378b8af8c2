"""Self-check of the benchmark: every workload must be correct, with no
failed answer, at the default seed 0 and at a second seed, and its traced
run must show the expected zero/nonzero pattern of call counts.

    python3 perfbench/check.py

Run from the root of a knyd checkout.  Each run is one `run.py` process of
one second, one after another.  Exits 1 if any run is not correct.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = 1


def main() -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for workload in (w["name"] for w in manifest["workloads"]):
        for seed, trace in ((0, 0), (1, 0), (0, 1)):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(SECONDS),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1]) if lines else {}
            good = (proc.returncode == 0 and result.get("correct") is True
                    and result.get("failed") == 0)
            ok = ok and good
            print("%-4s %s seed %d trace %d: %s of %s answers failed"
                  % ("ok" if good else "FAIL", workload, seed, trace,
                     result.get("failed"), result.get("attempted")))
            if not good:
                print(proc.stderr[-3000:])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
