#!/usr/bin/env python3
"""swigert benchmark: one command, three closed-loop workloads, checked outputs.

    python3 perfbench/run.py --workload lattice-sweep --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the package is imported from
``src/`` next to this directory (nothing is installed or built).  One
client in one process issues each op only after the previous one returned
(closed loop, ``jobs=1``).  The timed loop runs for ``--seconds``; every op
is then checked outside the timed region (see ``oracle.py``).

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
traces every other op (by deck position and pass, so traced and untraced
ops see the same mix) and prints the per-layer metrics.  Either way the
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Human-readable lines before it add what the
JSON has no room for (tail percentile and sample count, refuted share).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from workloads import WORKLOADS, run_op  # noqa: E402

SETUP_PROBES = 6


class NoProgram(Exception):
    """The checkout holds no importable swigert sources."""


def load_spec() -> dict:
    return json.loads((HERE / "spec.json").read_text(encoding="utf-8"))


def import_program():
    src = ROOT / "src"
    if not (src / "swigert" / "__init__.py").is_file():
        raise NoProgram(f"no swigert sources under {src}")
    sys.path.insert(0, str(src))
    import swigert
    import swigert.cli
    import swigert.report

    if Path(swigert.__file__).resolve().parent != (src / "swigert").resolve():
        raise NoProgram(f"imported swigert from {swigert.__file__}, not from {src}")
    return swigert


def set_up(workload: str, seed: int, size: str, work: Path):
    """Import, build the generator and run the untimed warm-up ops."""
    sw = import_program()
    work.mkdir(parents=True, exist_ok=True)
    gen = WORKLOADS[workload](seed, work, size)
    warm_failures = []
    for op in gen.warmup():
        op.write_inputs()
        res = run_op(sw, op)
        if res.status not in (0, 1):
            warm_failures.append(res.error or f"exit status {res.status}")
    return sw, gen, warm_failures


def setup_probe(args) -> int:
    t0 = time.perf_counter()
    set_up(args.workload, args.seed, args.size, WORK / "probe" / args.workload)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def probe_setups(args) -> list:
    """Set-up times of fresh processes, each run to completion in turn."""
    out = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-probe"]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def nearest_rank(sorted_values: list, pct: float) -> tuple:
    """(value, samples beyond it) at the nearest-rank percentile."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


class Checks:
    """Failures, one per failed op index; refuted sweeps are not failures.

    Sweep and witness outputs are kept and checked after the timed loop.
    Evaluation grids get their cheap checks as each op completes (outside
    its timing) and feed a seeded reservoir of points that are compared
    with mpmath afterwards, so a long run does not hold every grid.
    """

    def __init__(self, workload: str, seed: int, spec: dict):
        self.rng = random.Random(f"check/{workload}/{seed}")
        self.samples = spec["eval_oracle_samples"]
        self.rows_sampled = spec["rows_sampled_per_sweep"]
        self.failures: list = []
        self.pending: list = []      # (index, op, result)
        self.reservoir: list = []    # (index, function, args, value)
        self.seen = 0

    def add(self, i: int, op, res) -> None:
        if res.status not in (0, 1):
            self.failures.append((i, f"exit status {res.status}: {res.error}"))
        elif op.kind != "eval":
            self.pending.append((i, op, res))
        else:
            _, fn, grid = op.call
            for args, value in zip(grid, res.value):
                why = oracle.check_eval(fn, args, value, oracle=False)
                if why:
                    self.failures.append((i, why))
                    return
                self.seen += 1
                if len(self.reservoir) < self.samples:
                    self.reservoir.append((i, fn, args, value))
                else:
                    slot = self.rng.randrange(self.seen)
                    if slot < self.samples:
                        self.reservoir[slot] = (i, fn, args, value)

    def finish(self) -> list:
        for i, op, res in self.pending:
            self._guarded(i, lambda: (
                oracle.check_rows(op.meta, res.status, res.text, self.rng, self.rows_sampled)
                if op.kind == "verify" else oracle.check_witness_table(op.meta, res.text, self.rng)))
        for i, fn, args, value in self.reservoir:
            self._guarded(i, lambda: oracle.check_eval(fn, args, value, oracle=True))
        return self.failures

    def _guarded(self, i: int, check) -> None:
        try:
            why = check()
        except Exception as exc:  # malformed output is a failed op, not a crash
            why = f"unreadable output: {type(exc).__name__}: {exc}"
        if why:
            self.failures.append((i, why))


def run(args) -> int:
    spec = load_spec()
    wspec = spec["workloads"][args.workload]
    t0 = time.perf_counter()
    sw, gen, warm_failures = set_up(args.workload, args.seed, args.size, WORK / args.workload)
    setup_main = time.perf_counter() - t0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(sw)
    deck = len(gen.deck)
    rss_ops = wspec["rss_after_ops"] // (100 if args.size == "tiny" else 1)
    peak_rss = None
    checks = Checks(args.workload, args.seed, spec)
    log = []   # (op kind, exit status, output rows, latency ns, traced)
    deadline = time.perf_counter() + args.seconds
    i = 0
    while True:
        op = gen.make(i)
        op.write_inputs()
        traced = tracer is not None and (i % deck + i // deck) % 2 == 1
        if traced:
            tracer.op = i
            tracer.install()
        start = time.perf_counter_ns()
        res = run_op(sw, op)
        elapsed = time.perf_counter_ns() - start
        if traced:
            tracer.remove()
        if i == 0:
            first_op, first_res = op, res
        log.append((op.kind, res.status, res.rows, elapsed, traced))
        checks.add(i, op, res)
        i += 1
        if i == rss_ops:
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if time.perf_counter() >= deadline:
            break
    if peak_rss is None:
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"# warning: only {len(log)} ops, fewer than the {rss_ops} at which peak RSS is read")

    first_op.write_inputs()
    again = run_op(sw, first_op)
    failures = checks.finish()
    if (again.status, again.text, again.value) != (first_res.status, first_res.text, first_res.value):
        failures.append((0, "re-running the first op gave different bytes"))
    failures += [(-1, f"warm-up op failed: {w}") for w in warm_failures]
    failed_ops = {i for i, _ in failures if i >= 0}
    for i, why in failures[:10]:
        print(f"# FAILED op {i}: {why}", file=sys.stderr)

    lat_s = [entry[3] / 1e9 for entry in log]
    sweeps = [status for kind, status, *_ in log if kind == "verify" and status in (0, 1)]
    refuted = sum(status == 1 for status in sweeps) / len(sweeps) if sweeps else 0.0
    attempted = len(log)
    print(f"# workload={args.workload} seed={args.seed} ops={attempted} failed={len(failed_ops)} "
          f"ops_failed_frac={len(failed_ops) / attempted:.4g} sweeps={len(sweeps)} refuted_frac={refuted:.4g}")

    if tracer is None:
        setups = [setup_main] + probe_setups(args)
        busy = sum(lat_s)
        ordered = sorted(lat_s)
        tail_pct = wspec["tail_percentile"]
        tail, beyond = nearest_rank(ordered, tail_pct)
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": attempted / busy,
            "rows_per_s": sum(entry[2] for entry in log) / busy,
            "op_p50_ms": statistics.median(ordered) * 1e3,
            "op_tail_ms": tail * 1e3,
            "peak_rss_mb": peak_rss,
        }
        metrics = {name: (values[name], info["unit"]) for name, info in spec["end_to_end"].items()}
        print(f"# op_tail_ms is p{tail_pct} of {attempted} ops ({beyond} beyond it); "
              f"setup_s is the median of {len(setups)} set-ups; peak_rss_mb read after op {min(rss_ops, attempted)} "
              f"(at the end: {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.1f} MB)")
        print("# latency ms: " + " ".join(
            f"p{p}={nearest_rank(ordered, p)[0] * 1e3:.4g}" for p in (50, 90, 95, 99, 99.9)))
        if beyond < 10:
            print(f"# warning: only {beyond} samples beyond p{tail_pct}")
    else:
        metrics = layer_metrics(tracer, log, spec, refuted)
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"trace-{args.workload}.json")

    wanted = list(spec["per_layer"] if tracer else spec["end_to_end"])
    for name in wanted:
        print(f"# {name} = {metrics[name][0]:.6g} {metrics[name][1]}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failed_ops),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in wanted},
    }
    print(json.dumps(result))
    return 0


def layer_metrics(tracer, log, spec, refuted) -> dict:
    totals = tracer.totals()
    funcs, layers = totals["functions"], totals["layers"]
    traced_ns = [entry[3] for entry in log if entry[4]]
    plain_ns = [entry[3] for entry in log if not entry[4]]
    traced_s = sum(traced_ns) / 1e9
    metrics = {}
    per_op = 1.0 / max(1, len(traced_ns))   # totals scale with run length, so report them per traced op
    for name, info in spec["per_layer"].items():
        if name.startswith("share."):
            value = layers[name[6:]] / traced_s if traced_s else 0.0
        elif name in tracer.extra:
            value = tracer.extra[name] * per_op
        elif name == "asymptotics.refuted_frac":
            value = refuted
        elif name == "trace.overhead_frac":
            ratio = statistics.fmean(traced_ns) / statistics.fmean(plain_ns) if traced_ns and plain_ns else 1.0
            value = ratio - 1.0
        elif name == "trace.ops":
            value = len(traced_ns)
        else:
            fn, field = name.rsplit(".", 1)
            value = funcs.get(fn, {}).get(field, 0) * per_op
        metrics[name] = (float(value), info["unit"])
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        return setup_probe(args) if args.setup_probe else run(args)
    except NoProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
