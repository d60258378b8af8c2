"""Run one workload of the knyd benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a knyd checkout; the sources under src/ are used as
they are, nothing is installed.  A run is a sequence of rounds.  Every round
is a fresh interpreter (perfbench/child.py) that sets up the workload's
inputs from the seed and the round's index, then computes and checks every
answer, so each round pays the import and the module caches the way every
`kn` invocation does.
Rounds are started one after another, never in parallel, until S seconds
have gone by.  After each round, two set-up-only launches add samples to
setup_s.  The times printed are at the reference speed that child.py
measures alongside the work; the report also gives them as measured.

With --trace 0 the end-to-end metrics of BENCHMARK.json are printed.  With
--trace 1 untraced rounds alternate with rounds that wrap knyd's layers
(perfbench/tracer.py), and the per-layer metrics of BENCHMARK.json are
printed, among them the tracing overhead.  A readable report goes to stderr,
the full record to perfbench/results/, and the last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}.  The exit code
is 1 when any answer fails its check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

SETUP_PROBES = 2  # set-up-only launches after each round
RUN_LIMIT_S = 170  # every child is stopped by then, so a run ends within 180 s

# Call counts the traced run must find zero or nonzero.  A wrapper that
# misses a binding then shows as a wrong zero instead of silently lost time.
TRACE_PATTERN = {
    "fusion-oracle": {
        "nonzero": ["fusion.decompose.calls", "fusion.tensor_module.calls",
                    "ydmod.hom_dimension.calls", "linalg.rank.calls",
                    "hopf.multiply.calls", "cyclotomic.mul.calls"],
        "zero": ["hopf.verify_hopf_axioms.calls", "ydmod.check_yd.calls",
                 "nichols.graded_dims.calls", "racks.check_F_cocycle.calls",
                 "rackbattery.run_battery.calls"],
    },
    "hopf-yd-audit": {
        "nonzero": ["hopf.verify_hopf_axioms.calls", "hopf.multiply.calls",
                    "hopf.comultiply.calls", "ydmod.check_yd.calls",
                    "ydmod.build_simple.calls", "cli.hopf_verify.calls"],
        "zero": ["linalg.rank.calls", "linalg.kernel_basis.calls",
                 "ydmod.hom_dimension.calls", "fusion.decompose.calls",
                 "nichols.graded_dims.calls",
                 "rackbattery.run_battery.calls"],
    },
    "nichols-rack": {
        "nonzero": ["nichols.graded_dims.calls", "linalg.kernel_basis.calls",
                    "linalg.matmul.calls", "linalg.kron.calls",
                    "nichols.check_braid_equation.calls",
                    "racks.check_F_cocycle.calls",
                    "racks.check_rack_cocycle.calls",
                    "racks.sF_braiding.calls", "ydmod.braiding.calls",
                    "ydmod.build_simple.calls",
                    "rackbattery.run_battery.calls", "cli.rack_cmd.calls",
                    "cyclotomic.mul.calls"],
        "zero": ["ydmod.hom_dimension.calls", "fusion.decompose.calls",
                 "hopf.verify_hopf_axioms.calls", "ydmod.check_yd.calls"],
    },
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def launch(workload, seed, index, mode, env, deadline, spans=None) -> dict:
    """Run one child to completion and return its record, with setup_s
    measured from just before the launch."""
    argv = [sys.executable, str(HERE / "child.py"), workload, str(seed),
            str(index), mode]
    if spans is not None:
        argv.append(str(spans))
    start = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise BenchError("a %s round of %s did not finish within the run "
                         "limit of %d s" % (mode, workload, RUN_LIMIT_S))
    if proc.returncode != 0:
        raise BenchError("%s child exited with %d:\n%s"
                         % (mode, proc.returncode, proc.stderr[-3000:]))
    out = json.loads(proc.stdout.splitlines()[-1])
    out["setup_raw_s"] = out["setup_done"] - start
    out["setup_s"] = out["setup_raw_s"] * out["setup_speed"]
    if not Path(out["knyd_file"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError("knyd was imported from %s, not from this checkout"
                         % out["knyd_file"])
    return out


def git_commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def end_to_end(rounds, probes) -> dict:
    """name -> (value, unit, samples) from untraced rounds.  The times are
    at the reference speed (child.py); the same times as measured carry the
    suffix `_raw` and go to the report only."""
    rss = [r["peak_rss_kb"] / 1024 for r in rounds]
    out = {"peak_rss_mb": (statistics.median(rss), "MB", len(rss))}
    for suffix, column in (("", 1), ("_raw", 2)):
        setups = [r["setup" + suffix + "_s"] for r in probes + rounds]
        walls = [r["wall" + suffix + "_s"] for r in rounds]
        latencies = [a[column] for r in rounds for a in r["answers"]]
        out.update({
            "setup%s_s" % suffix: (statistics.median(setups), "s",
                                   len(setups)),
            "wall%s_s" % suffix: (statistics.median(walls), "s", len(walls)),
            "answer_p50%s_ms" % suffix: (statistics.median(latencies) * 1e3,
                                         "ms", len(latencies)),
            "answer_p90%s_ms" % suffix: (
                statistics.quantiles(latencies, n=10)[8] * 1e3, "ms",
                len(latencies)),
        })
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def per_layer(traced, untraced) -> dict:
    """name -> (value, unit, samples): medians over the traced rounds."""
    keys = traced[0]["layers"]
    out = {k: statistics.median(t["layers"][k] for t in traced) for k in keys}
    calls = out["fusion.decompose.hom_calls"]
    out["fusion.hom_hit_ratio"] = (out["fusion.decompose.hom_hits"] / calls
                                   if calls else 0.0)
    out["trace.spans"] = statistics.median(t["spans"] for t in traced)
    out["trace.overhead_s"] = (
        statistics.median(t["wall_s"] for t in traced)
        - statistics.median(r["wall_s"] for r in untraced))
    return {k: (v, layer_unit(k), len(traced)) for k, v in out.items()}


def pattern_problems(workload, layers) -> list[str]:
    pattern = TRACE_PATTERN[workload]
    return (["%s is 0, expected > 0" % k for k in pattern["nonzero"]
             if not layers[k][0]]
            + ["%s is %s, expected 0" % (k, layers[k][0])
               for k in pattern["zero"] if layers[k][0]])


def report(meta, measured, failures, attempted, extra, out=sys.stderr):
    print("knyd benchmark: %(workload)s, seed %(seed)d, trace %(trace)d"
          % meta, file=out)
    for key in ("nproc", "python", "commit", "KN_MEMORY_MB",
                "loadavg_1m_start", "loadavg_1m_end"):
        print("  %-16s %s" % (key, meta[key]), file=out)
    for name, (value, unit, samples) in measured.items():
        print("  %-36s %14.6g %-6s (n=%d)" % (name, value, unit, samples),
              file=out)
    print("  %-36s %14.6g %-6s (%d of %d answers)"
          % ("failed_frac", len(failures) / attempted, "ratio",
             len(failures), attempted), file=out)
    for line in extra:
        print("  " + line, file=out)
    for name, problem in failures[:10]:
        print("  FAILED %s: %s" % (name, problem), file=out)


def run(args) -> int:
    if not (ROOT / "src" / "knyd" / "__init__.py").is_file():
        raise BenchError("no knyd sources under %s; run from the root of a "
                         "knyd checkout" % (ROOT / "src"))
    manifest_path = ROOT / "BENCHMARK.json"
    if not manifest_path.is_file():
        raise BenchError("no BENCHMARK.json at %s" % ROOT)
    manifest = json.loads(manifest_path.read_text())
    if args.workload not in [w["name"] for w in manifest["workloads"]]:
        raise BenchError("unknown workload %r" % args.workload)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.pop("KN_MEMORY_MB", None)  # the default budget of 1024 MB
    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": git_commit(),
            "KN_MEMORY_MB": "unset (default 1024)", "PYTHONHASHSEED": "0",
            "loadavg_1m_start": os.getloadavg()[0]}
    RESULTS.mkdir(exist_ok=True)
    spans = RESULTS / ("spans-%s-seed%d.json" % (args.workload, args.seed))
    deadline = time.monotonic() + RUN_LIMIT_S

    def child(index, mode):
        return launch(args.workload, args.seed, index, mode, env, deadline,
                      spans if mode == "traced" else None)

    child(0, "setup")  # warm-up: writes the bytecode caches, not counted
    begin = time.monotonic()
    rounds, traced, probes = [], [], []
    while not rounds or time.monotonic() - begin < args.seconds:
        if args.trace:
            # untraced and traced rounds alternate on round 0's inputs, so
            # the overhead compares the same work at nearby moments
            rounds.append(child(0, "round"))
            traced.append(child(0, "traced"))
        else:
            rounds.append(child(len(rounds), "round"))
        probes += [child(len(probes), "setup") for _ in range(SETUP_PROBES)]
    meta["loadavg_1m_end"] = os.getloadavg()[0]

    answers = [a for r in rounds + traced for a in r["answers"]]
    failures = [(name, problem) for name, _, _, problem in answers
                if problem]
    measured = end_to_end(rounds, probes)
    controls = [a for a in answers if a[0].startswith("negative control")]
    extra = (["negative controls reported as failing: %d of %d"
              % (sum(1 for a in controls if not a[3]), len(controls))]
             if controls else [])
    problems = []
    if args.trace:
        measured.update(per_layer(traced, rounds))
        problems = pattern_problems(args.workload, measured)
        extra += ["trace pattern: " + p for p in problems]
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for spec in manifest[section]:
        value, unit, _ = measured[spec["name"]]
        if unit != spec["unit"]:
            raise BenchError("%s is measured in %s, BENCHMARK.json says %s"
                             % (spec["name"], unit, spec["unit"]))
        metrics[spec["name"]] = {"value": value, "unit": unit}
    result = {"correct": not failures and not problems,
              "attempted": len(answers), "failed": len(failures),
              "metrics": metrics}
    report(meta, measured, failures, len(answers), extra)
    record = {"meta": meta, "result": result,
              "samples": {k: v[2] for k, v in measured.items()},
              "all_metrics": {k: v[0] for k, v in measured.items()},
              "rounds": [{k: r[k] for k in ("wall_s", "wall_raw_s",
                                            "setup_s", "setup_raw_s",
                                            "peak_rss_kb")}
                         for r in rounds + traced],
              "probe_setup_s": [p["setup_s"] for p in probes],
              "probe_setup_raw_s": [p["setup_raw_s"] for p in probes],
              "failures": failures, "trace_problems": problems}
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
