"""Per-layer tracing from outside the package.

The traced run wraps the public functions that one ``swigert`` module calls
in another (plus a few same-module entry points the layer table names) by
replacing the module attribute, or the class attribute for methods, in every
``swigert`` module that holds a reference to the original.  Nothing under
``src/`` changes; ``remove`` restores every original.

Two kinds of probe:

* spans: one record per call (id, parent id, op id, name, start, end,
  self time), kept in memory and written out once at the end.  Self time is
  the duration minus the time covered by child spans and by outermost
  counted leaves.
* counters: hot leaf functions (10^5+ calls a run) only accumulate a call
  count and elapsed time, so tracing them does not allocate per call.

A target that does not exist in the imported package is skipped, so the
benchmark keeps running when a later version renames or removes it; its
metrics then read 0.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

# (module, qualified name, probe kind, extra accounting)
TARGETS = [
    ("cli", "main", "span", None),
    ("asymptotics", "verify", "span", None),
    ("asymptotics", "candidates_for_case", "span", None),
    ("asymptotics", "summarize_rows", "span", None),
    ("asymptotics", "admissible_candidates", "span", None),
    ("asymptotics", "compute_row", "span", None),
    ("asymptotics", "main_term", "span", None),
    ("asymptotics", "error_bound", "span", None),
    ("swpoly", "sw_theta_normalized", "span", None),
    ("swpoly", "sw_normalized", "span", None),
    ("qspecial", "ramanujan_Aq", "span", None),
    ("qspecial", "Bq", "span", None),
    ("qspecial", "theta_series", "span", None),
    ("qspecial", "theta_product", "span", None),
    ("qcore", "qpoch_infinite", "span", None),
    ("diophantine", "witness_search", "span", "witnesses"),
    ("diophantine", "witness_search_pair", "span", "witnesses"),
    ("diophantine", "lattice_of_rational", "span", None),
    ("diophantine", "joint_progression", "span", None),
    ("report", "rows_to_csv", "span", "bytes"),
    ("report", "rows_to_json", "span", "bytes"),
    ("report", "witnesses_to_csv", "span", "bytes"),
    ("report", "summary_to_json", "span", "bytes"),
    ("scaling", "Scaling.make", "span", None),
    ("qcore", "qpoch_q_n", "counter", None),
    ("qcore", "QParam.of", "counter", None),
    ("qcore", "qq_infinity", "counter", None),
    ("scaling", "Scaling.minus_tau_split", "counter", None),
    ("scaling", "Scaling.theta_frac", "counter", None),
    ("scaling", "RealParam.parse", "counter", None),
    ("diophantine", "_scan_prefilter", "counter", "scanned"),
]

LAYERS = ("cli", "asymptotics", "swpoly", "scaling", "qcore", "qspecial", "diophantine", "report")


def _extra(kind, store, args, result):
    if kind == "witnesses":
        store["diophantine.witnesses_found"] += len(result)
    elif kind == "bytes":
        store["report.bytes"] += len(result)
    elif kind == "scanned":
        store["diophantine.indices_scanned"] += int(args[3])


class Tracer:
    def __init__(self, sw):
        self.stack = [[0, 0]]        # open spans: [covered child ns, span id]; root sentinel
        self.spans: list = []        # (id, parent id, op id, name index, start ns, end ns, self ns)
        self.names: list = []
        self.counters: dict = {}     # name -> [calls, total ns, outermost ns]
        self.extra = {"diophantine.witnesses_found": 0, "report.bytes": 0, "diophantine.indices_scanned": 0}
        self.hot = False
        self.op = 0
        self.next_id = 0
        self.patches: list = []      # (owner, attribute, original, replacement)
        modules = [sw] + [getattr(sw, m) for m in LAYERS]
        for mod_name, qualname, kind, extra in TARGETS:
            self._plan(getattr(sw, mod_name), modules, f"{mod_name}.{qualname}", qualname, kind, extra)

    def _plan(self, module, modules, name, qualname, kind, extra):
        make = self._span if kind == "span" else self._counter
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name, None)
            raw = cls.__dict__.get(attr) if cls is not None else None
            if raw is None:
                return
            if isinstance(raw, classmethod):
                wrapped = classmethod(make(raw.__func__, name, extra))
            else:
                wrapped = make(raw, name, extra)
            self.patches.append((cls, attr, raw, wrapped))
            return
        original = getattr(module, qualname, None)
        if original is None:
            return
        wrapped = make(original, name, extra)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.patches.append((mod, attr, original, wrapped))

    def _span(self, fn, name, extra):
        index = len(self.names)
        self.names.append(name)
        stack, spans, pc, tracer = self.stack, self.spans, time.perf_counter_ns, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            tracer.next_id += 1
            frame = [0, tracer.next_id]
            stack.append(frame)
            t0 = pc()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = pc()
                stack.pop()
                parent[0] += t1 - t0
                spans.append((frame[1], parent[1], tracer.op, index, t0, t1, t1 - t0 - frame[0]))
            if extra:
                _extra(extra, tracer.extra, args, result)
            return result

        return wrapper

    def _counter(self, fn, name, extra):
        stat = self.counters.setdefault(name, [0, 0, 0])
        stack, pc, tracer = self.stack, time.perf_counter_ns, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.hot:
                t0 = pc()
                result = fn(*args, **kwargs)
                stat[0] += 1
                stat[1] += pc() - t0
                return result
            tracer.hot = True
            t0 = pc()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = pc() - t0
                tracer.hot = False
            stat[0] += 1
            stat[1] += dt
            stat[2] += dt
            stack[-1][0] += dt
            if extra:
                _extra(extra, tracer.extra, args, result)
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, _, wrapped in self.patches:
            setattr(owner, attr, wrapped)

    def remove(self) -> None:
        for owner, attr, original, _ in self.patches:
            setattr(owner, attr, original)

    def totals(self) -> dict:
        """name -> {calls, s, self_s}, and layer -> attributed seconds."""
        per = {}
        for name in self.names:
            per.setdefault(name, [0, 0, 0])
        for _, _, _, index, t0, t1, self_ns in self.spans:
            agg = per[self.names[index]]
            agg[0] += 1
            agg[1] += t1 - t0
            agg[2] += self_ns
        for name, (calls, total, outer) in self.counters.items():
            per[name] = [calls, total, outer]
        layers = dict.fromkeys(LAYERS, 0.0)
        for name, (_, _, self_ns) in per.items():
            layers[name.split(".")[0]] += self_ns / 1e9
        stats = {name: {"calls": c, "s": t / 1e9, "self_s": s / 1e9} for name, (c, t, s) in per.items()}
        return {"functions": stats, "layers": layers}

    def write(self, path: Path) -> None:
        payload = {
            "fields": ["id", "parent", "op", "name", "start_ns", "end_ns", "self_ns"],
            "names": self.names,
            "spans": self.spans,
            "counters": {k: {"calls": c, "ns": t, "outermost_ns": o} for k, (c, t, o) in self.counters.items()},
            "extra": self.extra,
        }
        path.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")
