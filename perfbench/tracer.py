"""Layer tracing of knyd from outside the program.

`install(tracer, extra_modules)` rebinds the public entry points of each
knyd module to timing wrappers.  Several modules bind these functions with
`from .x import f`, so every binding in every loaded knyd module is replaced,
and `CycMatrix`/`CycNum` methods are patched on the class.

A wrapper records a span (name, start, end, parent span, answer id) in
memory and keeps, per name, the call count and the self time: the span's
duration minus the time covered by nested wrapped spans.  CycNum operations
take about a microsecond, so they are only counted; a timer on them would
measure the timer.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

from knyd import cli
from knyd.cyclotomic import CycNum
from knyd.linalg import CycMatrix

# (metric prefix, module, function) for module-level functions
FUNCTIONS = [
    ("hopf.verify_hopf_axioms", "knyd.hopf", "verify_hopf_axioms"),
    ("hopf.multiply", "knyd.hopf", "multiply"),
    ("hopf.comultiply", "knyd.hopf", "comultiply"),
    ("ydmod.hom_dimension", "knyd.ydmod", "hom_dimension"),
    ("ydmod.check_yd", "knyd.ydmod", "check_yd"),
    ("ydmod.build_simple", "knyd.ydmod", "build_simple"),
    ("ydmod.braiding", "knyd.ydmod", "braiding"),
    ("fusion.decompose", "knyd.fusion", "decompose"),
    ("fusion.tensor_module", "knyd.fusion", "tensor_module"),
    ("nichols.graded_dims", "knyd.nichols", "graded_dims"),
    ("nichols.check_braid_equation", "knyd.nichols", "check_braid_equation"),
    ("racks.check_F_cocycle", "knyd.racks", "check_F_cocycle"),
    ("racks.check_rack_cocycle", "knyd.racks", "check_rack_cocycle"),
    ("racks.sF_braiding", "knyd.racks", "sF_braiding"),
    ("rackbattery.run_battery", "knyd.rackbattery", "run_battery"),
]

# (metric prefix, method) on CycMatrix
METHODS = [
    ("linalg.rank", "rank"),
    ("linalg.kernel_basis", "kernel_basis"),
    ("linalg.matmul", "__matmul__"),
    ("linalg.kron", "kron"),
]

# (metric prefix, click command) in knyd.cli; the callback is wrapped
COMMANDS = [
    ("cli.hopf_verify", "hopf_verify"),
    ("cli.rack_cmd", "rack_cmd"),
]

# (counter, method) on CycNum, counted only
COUNTED = [
    ("cyclotomic.mul.calls", "__mul__"),
    ("cyclotomic.inv.calls", "inv"),
    ("cyclotomic.addsub.calls", "__add__"),
    ("cyclotomic.addsub.calls", "__sub__"),
]

# bindings made with `from .x import f`; install() checks they were patched
IMPORTED_BINDINGS = [
    ("knyd.fusion", "build_simple"), ("knyd.cli", "build_simple"),
    ("knyd.rackbattery", "build_simple"), ("knyd.fusion", "hom_dimension"),
    ("knyd.fusion", "multiply"), ("knyd.cli", "verify_hopf_axioms"),
    ("knyd.rackbattery", "check_braid_equation"),
]

MAX_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counters: dict[str, float] = {}
        self.answer = -1
        self._stack: list[list] = []      # frames [child_s, name index, span id]
        self._next_id = 0
        self.spans = {"name": array("i"), "start": array("d"),
                      "end": array("d"), "parent": array("q"),
                      "answer": array("i")}
        self.spans_dropped = 0

    def count(self, key: str, n: float = 1):
        self.counters[key] += n

    def wrap(self, name, fn, before=None, after=None):
        """A timing wrapper around fn.  before(args) runs outside the span;
        after(args, result, parent name) runs once the span has closed."""
        idx = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        stack, calls, self_s, spans = (self._stack, self.calls, self.self_s,
                                       self.spans)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            parent = stack[-1] if stack else None
            frame = [0.0, idx, self._next_id]
            self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = end - start
                calls[idx] += 1
                self_s[idx] += span - frame[0]
                if parent is not None:
                    parent[0] += span
                if len(spans["name"]) < MAX_SPANS:
                    spans["name"].append(idx)
                    spans["start"].append(start)
                    spans["end"].append(end)
                    spans["parent"].append(parent[2] if parent else -1)
                    spans["answer"].append(self.answer)
                else:
                    self.spans_dropped += 1
            if after is not None:
                after(args, result, self.names[parent[1]] if parent else None)
            return result

        return wrapper

    def counting(self, key, fn):
        counters = self.counters
        counters.setdefault(key, 0)

        @functools.wraps(fn)
        def wrapper(*args):
            counters[key] += 1
            return fn(*args)

        return wrapper

    def metrics(self) -> dict:
        out = dict(self.counters)
        for name, calls, self_s in zip(self.names, self.calls, self.self_s):
            out[name + ".calls"] = calls
            out[name + ".self_s"] = self_s
        return out

    def write_spans(self, path):
        """Write the recorded spans, column by column, as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "dropped": self.spans_dropped,
                       "spans": {k: v.tolist() for k, v in
                                 self.spans.items()}}, fh)


def _nnz(matrix: CycMatrix) -> int:
    return sum(len(row) for row in matrix.data.values())


def install(tracer: Tracer, extra_modules=()) -> None:
    """Wrap every entry point listed above in every module that binds it."""
    modules = [m for name, m in sys.modules.items()
               if name == "knyd" or name.startswith("knyd.")]
    modules += list(extra_modules)

    def before_rank(args):
        tracer.count("linalg.rank.nnz", _nnz(args[0]))
        tracer.counters["linalg.rank.max_cols"] = max(
            tracer.counters["linalg.rank.max_cols"], args[0].cols)

    def before_kernel(args):
        tracer.count("linalg.kernel_basis.nnz", _nnz(args[0]))

    def before_hom(args):
        tracer.count("ydmod.hom_dimension.cells", args[0].dim * args[1].dim)

    def after_hom(args, result, parent):
        if parent == "fusion.decompose":
            tracer.count("fusion.decompose.hom_calls")
            tracer.count("fusion.decompose.hom_hits", 1 if result else 0)

    def after_graded(args, report, parent):
        side = args[0].dim ** (len(report.dims) - 1)
        tracer.counters["nichols.graded_dims.max_side"] = max(
            tracer.counters["nichols.graded_dims.max_side"], side)

    hooks = {"linalg.rank": (before_rank, None),
             "linalg.kernel_basis": (before_kernel, None),
             "ydmod.hom_dimension": (before_hom, after_hom),
             "nichols.graded_dims": (None, after_graded)}
    for counter in ("linalg.rank.nnz", "linalg.rank.max_cols",
                    "linalg.kernel_basis.nnz", "ydmod.hom_dimension.cells",
                    "fusion.decompose.hom_calls", "fusion.decompose.hom_hits",
                    "nichols.graded_dims.max_side"):
        tracer.counters[counter] = 0

    wrapper_of = {}   # id(original function) -> its wrapper
    for prefix, module, attr in FUNCTIONS:
        fn = getattr(sys.modules[module], attr)
        wrapper_of[id(fn)] = tracer.wrap(prefix, fn,
                                         *hooks.get(prefix, (None, None)))
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if id(value) in wrapper_of:
                setattr(mod, attr, wrapper_of[id(value)])
    wrappers = {id(wrapper) for wrapper in wrapper_of.values()}
    for module, attr in IMPORTED_BINDINGS:
        if id(getattr(sys.modules[module], attr)) not in wrappers:
            raise RuntimeError("binding %s.%s was not wrapped" % (module, attr))

    for prefix, method in METHODS:
        setattr(CycMatrix, method, tracer.wrap(
            prefix, getattr(CycMatrix, method),
            *hooks.get(prefix, (None, None))))
    for prefix, command in COMMANDS:
        cmd = getattr(cli, command)
        cmd.callback = tracer.wrap(prefix, cmd.callback)
    for key, method in COUNTED:
        setattr(CycNum, method, tracer.counting(key, getattr(CycNum, method)))
