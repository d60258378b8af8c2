"""One benchmark round in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED ROUND MODE [SPANS_PATH]

The inputs are drawn from SEED and the round's index ROUND.  MODE is
`setup` (set up and exit), `round` (set up, then compute and check every
answer) or `traced` (the same with the layer wrappers installed after
set-up; the spans are written to SPANS_PATH).  Prints one JSON object.
`setup_done` is read from the system-wide monotonic clock, so the parent can
subtract the moment it launched this process.

Times are reported twice: as measured (`*_raw`) and at the reference speed.
On a machine shared with other tenants the speed of this process changes by
up to 2x within seconds, while CPU time keeps pace with wall time.  A timer
signal therefore runs a fixed pure-Python reference loop every 50 ms, and an
interval's reference-speed time is its duration, less the loops run inside
it, times the mean relative speed the loops measured around it.  A change to
knyd moves both times alike; a slower or faster machine moves only the raw
one.
"""

import json
import random
import resource
import signal
import sys
import time
from array import array

SAMPLE_EVERY_S = 0.05
REFERENCE_LOOPS = 4000
# the reference loop's time on an uncontended 2.1 GHz Xeon; it only scales
# every reference-speed time by the same factor
REFERENCE_S = 0.0003


def reference():
    x = 0
    for i in range(REFERENCE_LOOPS):
        x = (x * 31 + i) & 0xFFFFF
    return x


class SpeedProbe:
    def __init__(self):
        self.at = array("d")
        self.took = array("d")
        self.sample()
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def sample(self):
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        self.at.append(t0)
        self.took.append(t1 - t0)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def scaled(self, t0, t1):
        """The reference-speed time of [t0, t1] on the perf_counter clock.
        The samples within one period of the interval give the speed, so
        even an interval shorter than the period has one."""
        inside = [d for a, d in zip(self.at, self.took) if t0 <= a < t1]
        near = [d for a, d in zip(self.at, self.took)
                if t0 - SAMPLE_EVERY_S <= a < t1 + SAMPLE_EVERY_S]
        if not near:  # the signal waited out a long call in C
            near = [min(zip(self.at, self.took),
                        key=lambda s: abs(s[0] - t0))[1]]
        speed = sum(REFERENCE_S / d for d in near) / len(near)
        return (t1 - t0 - sum(inside)) * speed


def main():
    probe = SpeedProbe()
    born = time.perf_counter()
    workload, seed, index, mode = sys.argv[1:5]
    import workloads  # imports knyd and knyd.cli
    answers = workloads.build(workload, random.Random(seed + ":" + index))
    setup_end = time.perf_counter()
    out = {"setup_done": time.monotonic(),
           "setup_speed": probe.scaled(born, setup_end) / (setup_end - born),
           "knyd_file": workloads.knyd.__file__}
    if mode == "setup":
        probe.stop()
        print(json.dumps(out))
        return
    tracer = None
    if mode == "traced":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer, [workloads])
    timed = []
    start = time.perf_counter()
    for i, answer in enumerate(answers):
        if tracer is not None:
            tracer.answer = i
        t0 = time.perf_counter()
        try:
            value = answer.run()
            t1 = time.perf_counter()
            problem = answer.check(value)
        except Exception as exc:  # a raising answer counts as failed
            t1 = time.perf_counter()
            problem = "%s: %s" % (type(exc).__name__, exc)
        timed.append((answer.name, t0, t1, problem))
    end = time.perf_counter()
    probe.stop()
    out["wall_raw_s"] = end - start
    out["wall_s"] = probe.scaled(start, end)
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # (name, reference-speed latency, raw latency, problem)
    out["answers"] = [(name, probe.scaled(t0, t1), t1 - t0, problem)
                      for name, t0, t1, problem in timed]
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["spans"] = len(tracer.spans["name"]) + tracer.spans_dropped
        tracer.write_spans(sys.argv[5])
    print(json.dumps(out))


if __name__ == "__main__":
    main()
