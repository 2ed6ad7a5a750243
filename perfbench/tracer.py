"""Per-layer tracing for the traced benchmark run.

Wraps the layer entry points of abext with span recorders.  Each span keeps
its name, start, end and parent span; spans live in flat in-memory arrays
and are written once, when the run ends.  A layer's self time is the sum of
its spans' durations minus the part covered by their child spans.

``from .intlin import snf`` copies the binding into the importing module, so
patching ``abext.intlin`` alone would miss most calls: every wrapped function
is rebound in every loaded abext module that holds it, under whatever name.
The ``IntMatrix`` and ``AbMap`` constructors are wrapped on the class.

Untraced runs never import this module.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

from arith import decimal_digits, max_abs

# bucket -> [(module, function name)]; a bucket sums its functions' spans.
FUNCTIONS = {
    "intlin.snf": [("intlin", "snf")],
    "intlin.snf_diagonal": [("intlin", "snf_diagonal")],
    "intlin.hnf": [("intlin", "hnf")],
    "intlin.solve_mod": [("intlin", "solve_mod")],
    "intlin.rank_mod_p": [("intlin", "rank_mod_p"), ("intlin", "rank_gf2")],
    "abgroup.canonicalize": [("abgroup", "canonicalize")],
    "abgroup.mod_quotient": [("abgroup", "mod_quotient")],
    "abgroup.colimits": [
        ("abgroup", "pushout"),
        ("abgroup", "pullback"),
        ("abgroup", "kernel"),
        ("abgroup", "cokernel"),
        ("abgroup", "direct_sum"),
    ],
    "homext.hom_group": [("homext", "hom_group")],
    "homext.ext_group": [("homext", "ext_group")],
    "homext.realize": [("homext", "realize")],
    "homext.classify": [("homext", "classify")],
    "homext.ext_maps": [
        ("homext", "ext_covariant_map"),
        ("homext", "ext_contravariant_map"),
        ("homext", "pullback_action"),
        ("homext", "pushout_action"),
    ],
    "homext.connecting_hom": [("homext", "connecting_hom"), ("homext", "connecting_hom_dual")],
    "homext.find_equivalence": [("homext", "find_equivalence")],
    "universal.build": [
        ("universal", "build_universal_extension"),
        ("universal", "build_universal_coextension"),
    ],
    "universal.verify": [
        ("universal", "verify_extension_conditions"),
        ("universal", "verify_coextension_conditions"),
    ],
    "universal.psi_inverse_via_colim": [("universal", "psi_inverse_via_colim")],
    "universal.cyclic_generation_check": [("universal", "cyclic_generation_check")],
    "torsioncat.parse": [("torsioncat", "parse"), ("torsioncat", "parse_finite_group")],
    "torsioncat.classify": [("torsioncat", "classify")],
    "torsioncat.witness": [
        ("torsioncat", "counterexample_witness"),
        ("torsioncat", "ab4star_failure_witness"),
    ],
    "cli.main": [("cli", "main")],
}

CONSTRUCTORS = {"intlin.IntMatrix": ("intlin", "IntMatrix"), "abgroup.AbMap": ("abgroup", "AbMap")}

# The per-layer metrics reported, in order, with their units.
METRICS = {}
for _bucket in list(FUNCTIONS) + list(CONSTRUCTORS):
    METRICS[f"{_bucket}.calls"] = "count"
    METRICS[f"{_bucket}.self_s"] = "s"
METRICS.update({
    "intlin.IntMatrix.cells": "count",
    "abgroup.AbMap.cells": "count",
    "intlin.snf.max_dim": "count",
    "intlin.snf.transform_bits_max": "bits",
    "transform_digits_max": "digits",
    "trace.overhead_s": "s",
})


class Tracer:
    """Span recorder; ``install`` patches abext in place for the process."""

    def __init__(self):
        self.names = []
        self.name_of = array("i")
        self.parent_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.cells = {"intlin.IntMatrix": 0, "abgroup.AbMap": 0}
        self.snf_max_dim = 0
        self.snf_max_abs = 0

    def _span(self, bucket, fn, after=None):
        nid = len(self.names)
        self.names.append(bucket)
        name_of, parent_of, start, end, stack = self.name_of, self.parent_of, self.start, self.end, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent_of.append(stack[-1])
            stack.append(idx)
            start.append(clock())
            end.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _snf_sizes(self, args, dec):
        m, n = args[0].shape
        self.snf_max_dim = max(self.snf_max_dim, m, n)
        self.snf_max_abs = max(self.snf_max_abs, max_abs(dec.U.rows, dec.V.rows))

    def _count_cells(self, bucket):
        cells = self.cells

        def after(args, _result):
            obj = args[0]
            if bucket == "intlin.IntMatrix":
                rows = obj.rows
                cells[bucket] += len(rows) * (len(rows[0]) if rows else 0)
            else:
                cells[bucket] += obj.source.dim * obj.target.dim

        return after

    def install(self):
        mods = {name: mod for name, mod in sys.modules.items() if name == "abext" or name.startswith("abext.")}
        for bucket, funcs in FUNCTIONS.items():
            for mod_name, attr in funcs:
                original = getattr(mods["abext." + mod_name], attr)
                after = self._snf_sizes if bucket == "intlin.snf" else None
                wrapper = self._span(bucket, original, after)
                for mod in mods.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
        for bucket, (mod_name, cls_name) in CONSTRUCTORS.items():
            cls = getattr(mods["abext." + mod_name], cls_name)
            cls.__init__ = self._span(bucket, cls.__init__, self._count_cells(bucket))

    def metrics(self, overhead_s: float) -> dict:
        """Per-bucket call counts and self times, plus the size counters."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent_of[i]
            if p >= 0:
                covered[p] += dur[i]
        calls = {}
        self_s = {}
        for i in range(n):
            bucket = self.names[self.name_of[i]]
            calls[bucket] = calls.get(bucket, 0) + 1
            self_s[bucket] = self_s.get(bucket, 0.0) + dur[i] - covered[i]
        values = {}
        for bucket in list(FUNCTIONS) + list(CONSTRUCTORS):
            values[f"{bucket}.calls"] = calls.get(bucket, 0)
            values[f"{bucket}.self_s"] = self_s.get(bucket, 0.0)
        values["intlin.IntMatrix.cells"] = self.cells["intlin.IntMatrix"]
        values["abgroup.AbMap.cells"] = self.cells["abgroup.AbMap"]
        values["intlin.snf.max_dim"] = self.snf_max_dim
        values["intlin.snf.transform_bits_max"] = self.snf_max_abs.bit_length()
        values["transform_digits_max"] = decimal_digits(self.snf_max_abs) if values["intlin.snf.calls"] else 0
        values["trace.overhead_s"] = overhead_s
        return {name: {"value": values[name], "unit": unit} for name, unit in METRICS.items()}

    def write(self, path: Path):
        """All spans, column-wise: name index, parent span index, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name_of.tolist(),
                    "parent": self.parent_of.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                },
                fh,
            )
