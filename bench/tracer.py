"""Span recorder for the traced benchmark run.

The tracer replaces the public entry points of each ncshift module with
wrappers, from outside the package: class attributes for methods, and every
ncshift module namespace that holds a function for module-level functions
(so calls between modules are caught too).  Each call records a span
(layer, start, end, wrapper duration, parent span, op id) in flat arrays;
self time is a span's duration minus the time covered by its direct
children and the tracer's own cost, computed when the repetition ends.
Counts that the layer names ask for (term pairs, word pairs, scalar
multiplications, distinct s_spec arguments, singular minors) are taken in
the same wrappers.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from array import array
from importlib import import_module

# import_module, not `import ncshift.ribbon as R`: the package re-exports a
# function named `ribbon`, which shadows the submodule attribute.
A = import_module("ncshift.algebra")
C = import_module("ncshift.cli")
F = import_module("ncshift.families")
H = import_module("ncshift.hopf")
P = import_module("ncshift.params")
Q = import_module("ncshift.quasidet")
R = import_module("ncshift.ribbon")
SE = import_module("ncshift.series")
SH = import_module("ncshift.shifts")
SP = import_module("ncshift.special")

#: modules whose memo tables are reported
MEMO_MODULES = ("shifts", "families", "ribbon")
#: calls per calibration trial, and trials
CALIBRATION_CALLS = 10000
CALIBRATION_TRIALS = 5


def _poly_pairs(tracer, args):
    other = args[1]
    n = len(other.terms) if isinstance(other, P.ParamPoly) else 1
    tracer.extra["params.mul.term_pairs"] += len(args[0].terms) * n


def _word_pairs(tracer, args):
    other = args[1]
    if isinstance(other, A.NCElement):
        tracer.extra["algebra.mul.word_pairs"] += len(args[0].terms) * len(other.terms)


def _scalar_mults(tracer, args):
    n = args[0].n
    tracer.extra["quasidet.matmul.scalar_mults"] += n**3 if isinstance(args[1], Q.MatValue) else n * n


def _s_spec_args(tracer, args):
    tracer.s_spec_args.add(args)


#: layer -> (owner, attribute names, hook run on each call before the span)
TARGETS = {
    "params.mul": (P.ParamPoly, ("__mul__", "__rmul__"), _poly_pairs),
    "params.add": (P.ParamPoly, ("__add__", "__radd__"), None),
    "params.substitute": (P.ParamPoly, ("substitute",), None),
    "algebra.mul": (A.NCElement, ("__mul__",), _word_pairs),
    "algebra.add": (A.NCElement, ("__add__",), None),
    "algebra.scale": (A.NCElement, ("scale",), None),
    "algebra.to_json": (A.NCElement, ("to_json",), None),
    "series.multiply": (SE.TruncatedTSeries, ("multiply",), None),
    "shifts.a_binomial": (SH, ("a_binomial",), None),
    "families.convert": (
        F,
        ("lambda_words_to_s", "s_to_lambda", "psi_words_to_s", "s_to_psi"),
        None,
    ),
    "ribbon.omega": (R, ("omega",), None),
    "ribbon.to_ribbon_basis": (R, ("to_ribbon_basis",), None),
    "hopf.coproduct": (H, ("coproduct",), None),
    "quasidet.matmul": (Q.MatValue, ("__mul__",), _scalar_mults),
    "quasidet.inverse": (Q.MatValue, ("inverse",), None),
    "quasidet.block_quasidet": (Q, ("block_quasidet",), None),
    "quasidet.hessenberg": (Q, ("hessenberg_quasidet",), None),
    "special.s_spec": (SP, ("s_spec",), _s_spec_args),
    "special.shifted_power": (SP, ("shifted_power",), None),
    "cli.main": (C, ("main",), None),
}


def memo_metrics(tables: dict[str, list]) -> dict[str, float]:
    out = {}
    for name in MEMO_MODULES:
        infos = [f.cache_info() for f in tables[name]]
        hits = sum(i.hits for i in infos)
        lookups = hits + sum(i.misses for i in infos)
        out[f"{name}.memo.hit_ratio"] = hits / lookups if lookups else 0.0
        out[f"{name}.memo.entries"] = sum(i.currsize for i in infos)
    return out


def _noop(a, b):
    return None


class Tracer:
    """Records spans in memory; one instance per traced repetition.

    A wrapper reads the clock four times: on entry, around the wrapped call
    (the span) and on exit.  A parent's self time excludes each child's
    whole wrapper, bookkeeping and hooks included, plus ``call_cost``, the
    part of a traced call outside the wrapper's clock readings; a span's
    own self time excludes ``span_cost``, what its clock readings add to an
    untraced call.  Both are measured on an empty function when the tracer
    is made, as profile.Profile calibrates its overhead.
    """

    def __init__(self):
        self.layers: list[str] = list(TARGETS)
        self.layer_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.op_id = -1
        self.extra: dict[str, int] = dict.fromkeys(
            ("params.mul.term_pairs", "algebra.mul.word_pairs", "quasidet.matmul.scalar_mults"), 0
        )
        self.s_spec_args: set = set()
        self.singular = 0
        self.call_cost, self.span_cost = self._calibrate()

    def _columns(self):
        return (self.layer_of, self.start, self.end, self.outer, self.parent, self.op)

    def _calibrate(self) -> tuple[float, float]:
        # any layer will do: the calibration spans are dropped below
        wrapped = self._wrap("cli.main", _noop, None)
        clock, calls = time.perf_counter, range(CALIBRATION_CALLS)
        call_costs, span_costs = [], []
        for _ in range(CALIBRATION_TRIALS):
            t = clock()
            for _ in calls:
                pass
            empty = clock() - t
            t = clock()
            for _ in calls:
                _noop(1, 2)
            untraced = (clock() - t - empty) / CALIBRATION_CALLS
            t = clock()
            for _ in calls:
                wrapped(1, 2)
            traced = (clock() - t - empty) / CALIBRATION_CALLS
            span = (sum(self.end) - sum(self.start)) / CALIBRATION_CALLS
            call_costs.append(traced - sum(self.outer) / CALIBRATION_CALLS)
            span_costs.append(span - untraced)
            for col in self._columns():
                del col[:]
        return statistics.median(call_costs), statistics.median(span_costs)

    def _wrap(self, layer: str, fn, hook):
        lid = self.layers.index(layer)
        layer_of, start, end, outer = self.layer_of, self.start, self.end, self.outer
        parent, op, stack = self.parent, self.op, self.stack
        clock = time.perf_counter
        tracer = self
        counts_singular = layer == "quasidet.inverse"

        def traced(*args, **kwargs):
            t_in = clock()
            idx = len(layer_of)
            layer_of.append(lid)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.op_id)
            start.append(0.0)
            end.append(0.0)
            outer.append(0.0)
            if hook is not None:
                hook(tracer, args)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Q.SingularMinor:
                if counts_singular:
                    tracer.singular += 1
                raise
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
                outer[idx] = clock() - t_in

        return traced

    def install(self):
        """Replace every target in place.  There is no uninstall: a traced
        repetition is a process of its own."""
        modules = [m for n, m in sys.modules.items() if n.startswith("ncshift") and m]
        for layer, (owner, attrs, hook) in TARGETS.items():
            for attr in attrs:
                original = getattr(owner, attr)
                wrapper = self._wrap(layer, original, hook)
                if isinstance(owner, type):
                    setattr(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, name, wrapper)

    def metrics(self) -> dict[str, float]:
        n = len(self.layer_of)
        cover = [0.0] * n
        start, end, outer, parent = self.start, self.end, self.outer, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                cover[p] += outer[i] + self.call_cost
        self_s = [0.0] * len(self.layers)
        calls = [0] * len(self.layers)
        for i in range(n):
            lid = self.layer_of[i]
            self_s[lid] += end[i] - start[i] - cover[i] - self.span_cost
            calls[lid] += 1
        out: dict[str, float] = {}
        for lid, layer in enumerate(self.layers):
            out[f"{layer}.calls"] = calls[lid]
            out[f"{layer}.self_s"] = self_s[lid]
        out.update(self.extra)
        out["special.s_spec.distinct"] = len(self.s_spec_args)
        out["special.singular.count"] = self.singular
        out["trace.spans"] = n
        return out

    def write(self, path: str):
        """Spans as a JSON header line followed by the raw column arrays."""
        header = {
            "layers": self.layers,
            "spans": len(self.layer_of),
            "columns": [
                ["layer", "i"], ["start", "d"], ["end", "d"], ["outer", "d"], ["parent", "i"],
                ["op", "i"],
            ],
            "call_cost_s": self.call_cost,
            "span_cost_s": self.span_cost,
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in self._columns():
                col.tofile(fh)
