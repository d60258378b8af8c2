"""The names of `knyd` that the benchmark under perfbench/ looks up."""

import os
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).parents[1]

# sets up one round of every workload, wraps the traced entry points, then
# runs and checks the first answer of each shape (its name without labels
# and digits): any step fails on a name or signature that the benchmark
# pins and the package no longer has
_SCRIPT = """
import random
import re
import tracer
import workloads
rounds = [workloads.build(name, random.Random(0))
          for name in sorted(workloads.WORKLOADS)]
assert all(rounds)
trace = tracer.Tracer()
tracer.install(trace, [workloads])
shapes = set()
for answer in (answer for answers in rounds for answer in answers):
    shape = re.sub(r"[UVW]\\([^)]*\\)|\\d", "", answer.name)
    if shape not in shapes:
        shapes.add(shape)
        message = answer.check(answer.run())
        assert message is None, (answer.name, message)
metrics = trace.metrics()
assert metrics["cli.hopf_verify.calls"] and metrics["cli.rack_cmd.calls"]
assert metrics["ydmod.hom_dimension.calls"] and metrics["linalg.rank.calls"]
"""


def test_benchmark_workloads_build_and_trace():
    # in a child, so that the tracer's wrappers stay out of this process
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(_ROOT / "src"), str(_ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], cwd=_ROOT,
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
