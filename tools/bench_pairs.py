"""Alternating parent/change runs of the perfbench workloads, written to one BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent <rev> --out BENCH_<n>.json [--pairs 5] [--seconds 30]

Each side runs from its own clean export: the parent from ``git archive <rev>``,
the change from the working tree's tracked and untracked, not ignored, files.
For every workload of BENCHMARK.json it runs ``perfbench/run.py --trace 0`` on
seeds 1..pairs, the parent first on odd seeds, then one ``--trace 1`` run per
side on seed pairs + 1.  The report-parity digests of the BENCH_10 recipes
close the file.  Each metric is judged by the rule for a claimed gain: the
change is better in at least nine pairs of ten, and its median beats the
parent's by more than the parent's interquartile range.  Fields of an
existing output file that this script does not write (notes, probes measured
by other means) are kept.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def export(rev: str | None, dest: Path) -> Path:
    """A clean copy of rev, or of the working tree when rev is None."""
    dest.mkdir(parents=True)
    if rev is not None:
        data = subprocess.run(["git", "archive", rev], cwd=REPO, capture_output=True, check=True).stdout
        tarfile.open(fileobj=io.BytesIO(data)).extractall(dest)
        return dest
    files = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"], cwd=REPO,
                           capture_output=True, check=True).stdout.decode().split("\0")
    for name in filter(None, files):
        if (REPO / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            (dest / name).write_bytes((REPO / name).read_bytes())
    return dest


def run_bench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["failed_op_lines"] = [line for line in proc.stderr.splitlines() if line.startswith("# FAILED")]
    return out


def quartiles(values: list) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return q1, q2, q3


def compare(parent: list, change: list, better: str, bound: float | None) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    out = {"parent": parent, "change": change, "parent_median": pm, "change_median": cm,
           "parent_quartiles": [p1, p3], "change_quartiles": [c1, c3], "ratio": cm / pm if pm else None,
           "pairs_change_better": wins, "worse_by": sign * (pm - cm) / pm if pm else 0.0,
           "gain_clear": wins >= 0.9 * len(parent) and sign * (cm - pm) > p3 - p1}
    if bound is not None:
        out["bound"] = bound
        out["within_bound"] = out["worse_by"] <= bound
    return out


# ---- report parity, run inside one export ------------------------------------------------------


def parity(root: Path) -> dict:
    """sha256 over repr((exit status, row count, stdout summary + '\\f' + report, error)) of each op in order."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import swigert
    import swigert.cli  # noqa: F401
    from workloads import WORKLOADS, run_op

    work = root / ".bench_work" / "parity"
    recipes = {"240": [(w, s, size, n) for s in (1, 2) for w, size, n in
                       (("lattice-sweep", "full", 48), ("witness-sweep", "tiny", 72))],
               "144": [("witness-sweep", s, "full", 72) for s in (1, 2)]}
    out = {}
    for name, recipe in recipes.items():
        digest = hashlib.sha256()
        for workload, seed, size, count in recipe:
            where = work / f"{name}-{workload}-{seed}-{size}"
            where.mkdir(parents=True)
            gen = WORKLOADS[workload](seed, where, size)
            for i in range(count):
                op = gen.make(i)
                op.write_inputs()
                res = run_op(swigert, op)
                digest.update(repr((res.status, res.rows, res.text, res.error)).encode())
        out[name] = digest.hexdigest()
    return out


def parity_of(root: Path) -> dict:
    """parity(root) in a fresh interpreter, so each side imports its own swigert."""
    proc = subprocess.run([sys.executable, __file__, "--parity", str(root)], capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout)


# ---- paired runs ----------------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", help="the parent revision, e.g. HEAD")
    parser.add_argument("--out", type=Path, help="the BENCH_<n>.json to write")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--parity", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.parity:
        print(json.dumps(parity(args.parity)))
        return 0
    if not (args.parent and args.out):
        parser.error("--parent and --out are required")
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        result = measure(args, Path(tmp))
    if args.out.exists():
        result = {**json.loads(args.out.read_text()), **result}
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


def measure(args, tmp: Path) -> dict:
    """Every run and digest of both sides, as the output file's fields."""
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    sides = {"parent": export(args.parent, tmp / "parent"), "change": export(None, tmp / "change")}
    commit = subprocess.run(["git", "rev-parse", args.parent], cwd=REPO, capture_output=True, text=True).stdout.strip()

    workloads, failed, traced = {}, {}, {}
    for w in (item["name"] for item in bench["workloads"]):
        runs = {"parent": [], "change": []}
        for seed in range(1, args.pairs + 1):
            for side in (("parent", "change") if seed % 2 else ("change", "parent")):
                res = run_bench(sides[side], w, seed, args.seconds, 0)
                runs[side].append(res)
                print(f"{w} seed {seed} {side}: {json.dumps(res['metrics'])}", file=sys.stderr)
        workloads[w] = {name: compare([r["metrics"][name]["value"] for r in runs["parent"]],
                                      [r["metrics"][name]["value"] for r in runs["change"]],
                                      info["better"], info["bound"]) for name, info in metrics.items()}
        workloads[w]["attempted"] = {side: [r["attempted"] for r in runs[side]] for side in runs}
        workloads[w]["failed"] = {side: [r["failed"] for r in runs[side]] for side in runs}
        workloads[w]["correct"] = {side: [r["correct"] for r in runs[side]] for side in runs}
        failed[w] = {side: [line for r in runs[side] for line in r["failed_op_lines"]] for side in runs}
        traced[w] = {side: run_bench(sides[side], w, args.pairs + 1, args.seconds, 1) for side in sides}

    return {
        "commands": {"regenerate": f"python3 tools/bench_pairs.py --parent {commit} --out {args.out.name} "
                                   f"--pairs {args.pairs} --seconds {args.seconds:g}"},
        "description": f"Untraced runs of {args.pairs} alternating parent/change pairs per workload (seeds 1-"
                       f"{args.pairs}, odd seeds run the parent first), {args.seconds:g} s each; one traced run per "
                       f"workload per side on seed {args.pairs + 1}.  Parent = {commit}; change = the working tree.  "
                       "Each side ran from its own clean export with its own perfbench/.  Quartiles are the "
                       "inclusive method (statistics.quantiles).  gain_clear: the change is better in at least "
                       "nine tenths of the pairs and its median gain exceeds the parent's interquartile range.",
        "host": f"{sys.platform}, {os.cpu_count()} CPUs, Python {sys.version.split()[0]}, one benchmark process at a time",
        "workloads": workloads,
        "failed_op_lines": failed,
        "traced": {w: {side: t[side]["metrics"] for side in t} for w, t in traced.items()},
        "report_parity": {side: parity_of(sides[side]) for side in sides},
    }


if __name__ == "__main__":
    raise SystemExit(main())
