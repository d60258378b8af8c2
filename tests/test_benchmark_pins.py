"""The names of `knyd` that the benchmark under perfbench/ looks up."""

import json
import os
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).parents[1]

# sets up one round of the workload named by argv[1], wraps the traced
# entry points with a fresh tracer, then runs and checks the first answer
# of each shape (its name without labels and digits), and holds the call
# counts to the workload's zero/nonzero pattern in perfbench/run.py: any
# step fails on a name or signature that the benchmark pins and the package
# no longer has, or on a traced function the workload stopped calling
_SCRIPT = """
import random
import re
import sys
import run
import tracer
import workloads
name = sys.argv[1]
answers = workloads.build(name, random.Random(0))
assert answers
trace = tracer.Tracer()
tracer.install(trace, [workloads])
shapes = set()
for answer in answers:
    shape = re.sub(r"[UVW]\\([^)]*\\)|\\d", "", answer.name)
    if shape not in shapes:
        shapes.add(shape)
        message = answer.check(answer.run())
        assert message is None, (answer.name, message)
metrics = trace.metrics()
pattern = run.TRACE_PATTERN[name]
wrong = ([key for key in pattern["nonzero"] if not metrics.get(key)]
         + [key for key in pattern["zero"] if metrics.get(key, 0)])
assert not wrong, (name, {key: metrics.get(key) for key in wrong})
"""


def test_benchmark_workloads_build_and_trace():
    # one child per workload, so that each tracer's wrappers stay out of
    # this process and of the other workloads
    manifest = json.loads((_ROOT / "BENCHMARK.json").read_text())
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(_ROOT / "src"), str(_ROOT / "perfbench")]))
    for name in (workload["name"] for workload in manifest["workloads"]):
        proc = subprocess.run([sys.executable, "-c", _SCRIPT, name],
                              cwd=_ROOT, capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
