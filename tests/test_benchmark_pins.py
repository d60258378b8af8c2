"""The names of `knyd` that the benchmark under perfbench/ looks up."""

import os
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).parents[1]

# sets up one round of every workload, then wraps the traced entry points;
# either step fails on a name or signature that the benchmark pins and the
# package no longer has
_SCRIPT = """
import random
import tracer
import workloads
for name in sorted(workloads.WORKLOADS):
    assert workloads.build(name, random.Random(0)), name
tracer.install(tracer.Tracer(), [workloads])
"""


def test_benchmark_workloads_build_and_trace():
    # in a child, so that the tracer's wrappers stay out of this process
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(_ROOT / "src"), str(_ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], cwd=_ROOT,
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
