#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

1. Runs every workload at tiny size, untraced and traced, and asserts that
   the last stdout line has exactly the contract's keys, that nothing failed,
   and that the printed metric names and units are exactly those of
   BENCHMARK.json (end_to_end untraced, per_layer traced).
2. Proves the checker trips: a corrupted sweep row, a corrupted or dropped
   witness and a corrupted evaluation must each be reported.
3. Runs the benchmark in a directory holding only BENCHMARK.json and the
   benchmark's own files and asserts it exits non-zero without a result.

Exit status 0 means every assertion held.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run as bench  # noqa: E402
from workloads import WORKLOADS, EvalGrid, LatticeSweep, WitnessSweep, run_op  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]


def check_metric_names() -> None:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(w["name"] for w in manifest["workloads"]) == sorted(WORKLOADS)
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(RUN + ["--workload", workload, "--seed", "1", "--seconds", "1",
                                         "--trace", str(trace), "--size", "tiny"],
                                  cwd=ROOT, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
            want = {m["name"]: m["unit"] for m in manifest[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, section, set(got) ^ set(want))
            print(f"ok   {workload} --trace {trace}: {len(got)} metrics match BENCHMARK.json {section}")


def corrupt_rows(sw, work: Path) -> None:
    gen = LatticeSweep(3, work, "tiny")
    op = gen.make(0, (4, "shallow", "csv", 0.5))
    op.write_inputs()
    res = run_op(sw, op)
    rng = random.Random(0)
    assert oracle.check_rows(op.meta, res.status, res.text, rng) == ""
    head, body = res.text.split("\f")
    lines = body.rstrip("\n").split("\n")
    fields = lines[-1].split(",")
    # Shift lhs and main of the last (always sampled) row alike, so abs_err, the verdict
    # and the exit status stay consistent and only the mpmath comparison can tell.
    shift = 1e-9 * abs(float(fields[1]))
    lhs, main = float(fields[1]) + shift, float(fields[3]) + shift
    err = abs(complex(lhs, float(fields[2])) - complex(main, float(fields[4])))
    fields[1], fields[3], fields[5] = repr(lhs), repr(main), repr(err)
    assert (err <= float(fields[6])) == (fields[7] == "true")
    bad_lhs = head + "\f" + "\n".join(lines[:-1] + [",".join(fields)]) + "\n"
    assert "lhs off" in oracle.check_rows(op.meta, res.status, bad_lhs, rng)
    fields = lines[1].split(",")
    fields[7] = "false" if fields[7] == "true" else "true"   # flip `within`
    bad_within = head + "\f" + "\n".join([lines[0], ",".join(fields)] + lines[2:]) + "\n"
    assert "within disagrees" in oracle.check_rows(op.meta, res.status, bad_within, rng)
    print("ok   checker rejects a corrupted lhs and a flipped verdict")


def corrupt_witnesses(sw, work: Path) -> None:
    gen = WitnessSweep(3, work, "tiny")
    op = gen.make(0, ("w1", 0, 100_000))
    op.write_inputs()
    res = run_op(sw, op)
    rng = random.Random(0)
    assert oracle.check_witness_table(op.meta, res.text, rng) == ""
    head, body = res.text.split("\f")
    lines = body.rstrip("\n").split("\n")
    n, m, r = lines[-1].split(",")
    moved = head + "\f" + "\n".join(lines[:-1] + [f"{int(n) + 1},{m},{r}"]) + "\n"
    assert "fails the exact recheck" in oracle.check_witness_table(op.meta, moved, rng)
    theta = op.meta["targets"][0][0]
    convergents = set(oracle.convergent_denominators(theta % 1, op.meta["n_max"]))
    keep = [line for line in lines if line.split(",")[0] != str(max(convergents & set(
        int(line.split(",")[0]) for line in lines[1:])))]
    dropped = head + "\f" + "\n".join(keep) + "\n"
    assert "not returned" in oracle.check_witness_table(op.meta, dropped, rng)
    print("ok   checker rejects a moved witness and a dropped witness")


def corrupt_evaluation(sw, work: Path) -> None:
    gen = EvalGrid(3, work, "tiny")
    op = gen.make(0, ("qspecial", "ramanujan_Aq"))
    res = run_op(sw, op)
    args, (value, tail) = op.call[2][0], res.value[0]
    assert oracle.check_eval("ramanujan_Aq", args, (value, tail), oracle=True) == ""
    bad = (value + complex(1e-9 + 2 * tail, 0.0), tail)
    assert "ref" in oracle.check_eval("ramanujan_Aq", args, bad, oracle=True)
    print("ok   checker rejects a corrupted evaluation")


def bare_directory() -> None:
    bare = bench.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, str(bare / HERE.name / "run.py"), "--workload", "eval-grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, (proc.returncode, proc.stdout)
    print(f"ok   without the program the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    check_metric_names()
    sw = bench.import_program()
    work = bench.WORK / "smoke"
    work.mkdir(parents=True, exist_ok=True)
    corrupt_rows(sw, work)
    corrupt_witnesses(sw, work)
    corrupt_evaluation(sw, work)
    bare_directory()
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
