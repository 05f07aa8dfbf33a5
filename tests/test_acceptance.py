"""Release gate: every acceptance criterion, one test each, budgets enforced.

Each test prints one line ``ACCEPTANCE <id> <PASS|FAIL> <measurements>``
before asserting, so a failed gate still leaves its measured evidence in
the log.  Run with ``pytest -v -s tests/test_acceptance.py``.
"""

import cmath
import json
import math
import time
from fractions import Fraction

import numpy as np

from swigert.asymptotics import CaseParams, candidates_for_case, summarize_rows, verify
from swigert.cli import main as cli_main
from swigert.diophantine import _confirm, _scan_prefilter, witness_search
from swigert.qcore import poch_tail_remainders
from swigert.qspecial import Aq_derivative, Bq, ramanujan_Aq, theta_product, theta_series
from swigert.scaling import Scaling
from swigert.swpoly import (
    log_normalizer,
    log_theta_normalizer,
    sw_direct,
    sw_normalized,
    sw_theta_normalized,
    scaled_argument,
)

Q_GRID = (0.2, 0.5, 0.8)


def report(ident: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {ident} {'PASS' if ok else 'FAIL'} {detail}")


def random_annulus(rng, lo, hi):
    r = rng.uniform(lo, hi)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return r * cmath.exp(1j * phi)


def test_criterion_01_theta_identity():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    checks = 0
    for _ in range(200):
        z = random_annulus(rng, 0.25, 4.0)
        for q in Q_GRID:
            s = theta_series(z, q, 1e-12)
            p = theta_product(z, q, 1e-12)
            allowance = s.tail_bound + p.tail_bound + 1e-10 * (1.0 + abs(s.value))
            gap = abs(s.value - p.value)
            worst = max(worst, gap / allowance)
            checks += 1
            assert gap <= allowance
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and elapsed < 1.0
    report("01 theta-identity", ok, f"checks={checks} worst_gap_ratio={worst:.3g} elapsed={elapsed:.3f}s")
    assert ok


def test_criterion_02_remainder_soundness():
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    violations = 0
    for _ in range(1000):
        a = rng.uniform(1e-9, 1.0 - 1e-9)
        q = rng.choice(Q_GRID)
        n = int(rng.integers(0, 41))
        rec = poch_tail_remainders(a, q, n)
        if abs(rec.R1) > rec.R1_bound or abs(rec.R2) > rec.R2_bound:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 1.0
    report("02 remainder-bounds", ok, f"violations={violations}/1000 elapsed={elapsed:.3f}s")
    assert ok


def test_criterion_03_majorants_and_derivative():
    rng = np.random.default_rng(103)
    violations = 0
    for _ in range(500):
        z = random_annulus(rng, 1e-6, 3.0)
        q = rng.choice(Q_GRID)
        if abs(ramanujan_Aq(z, q, 1e-13).value) > Bq(abs(z), q, 1e-13).real * (1 + 1e-12) + 2e-13:
            violations += 1
        z2 = random_annulus(rng, 1e-6, 2.0)
        q2 = rng.choice([0.3, 0.5])
        cap = q2 / (1.0 - q2) * Bq(abs(z2), q2, 1e-13).real
        if abs(Aq_derivative(z2, q2, 1e-13).value) > cap * (1 + 1e-12) + 2e-13:
            violations += 1
    h = 1e-5
    fd_worst = 0.0
    for _ in range(20):
        z = random_annulus(rng, 0.2, 2.0)
        q = rng.choice([0.3, 0.5])
        fd = (ramanujan_Aq(z + h, q, 1e-15).value - ramanujan_Aq(z - h, q, 1e-15).value) / (2 * h)
        fd_worst = max(fd_worst, abs(Aq_derivative(z, q, 1e-13).value - fd))
    ok = violations == 0 and fd_worst <= 1e-6
    report("03 majorants", ok, f"violations={violations}/1000 fd_worst={fd_worst:.3g}")
    assert ok


def test_criterion_04_three_way_oracle_equivalence():
    t0 = time.perf_counter()
    worst_direct = 0.0
    worst_split = 0.0
    q_grid = (0.3, 0.5, 0.8)
    z_grid = (1.0 + 0j, 2.0 + 0j, 0.5 + 1.0j, cmath.exp(1j * math.pi / 3.0))
    tau_grid = ("-3/2", "-1/2", "0", "1/2")
    theta_grid = ("0", "1/4", "sqrt2-1")
    for q in q_grid:
        for z in z_grid:
            for tau in tau_grid:
                for theta in theta_grid:
                    sc = Scaling.make(tau, theta)
                    for n in range(1, 13):
                        direct = sw_direct(n, scaled_argument(z, n, sc, q), q) * cmath.exp(
                            -log_normalizer(n, z, sc, q)
                        )
                        norm = sw_normalized(n, z, sc, q)
                        rel = abs(direct - norm) / max(abs(direct), abs(norm))
                        worst_direct = max(worst_direct, rel)
                        assert rel <= 1e-8
                        if -2.0 < sc.tau.value < 0.0:
                            lifted = norm * cmath.exp(log_theta_normalizer(n, z, sc, q))
                            split = sw_theta_normalized(n, z, sc, q).value
                            rel2 = abs(lifted - split) / max(abs(lifted), abs(split))
                            worst_split = max(worst_split, rel2)
                            assert rel2 <= 1e-8
    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0
    report(
        "04 oracle-equivalence", ok,
        f"worst_direct_rel={worst_direct:.3g} worst_split_rel={worst_split:.3g} elapsed={elapsed:.2f}s",
    )
    assert ok


def test_criterion_05_decaying_regime_sweep():
    t0 = time.perf_counter()
    params = CaseParams(1, Scaling.make("1", "3/10"))
    rows = verify(params, 1.0, 0.5, range(5, 41))
    elapsed = time.perf_counter() - t0
    violations = [r.n for r in rows if not r.within]
    ratio = rows[-1].abs_err / rows[0].abs_err
    ok = not violations and ratio < 1e-11 and elapsed < 1.0
    report(
        "05 decaying-regime", ok,
        f"bound_violations={violations} err(5)={rows[0].abs_err:.6g} "
        f"err(40)={rows[-1].abs_err:.6g} decay_ratio={ratio:.6g} (required < 1e-11) elapsed={elapsed:.3f}s",
    )
    assert not violations, (
        "sharpened decaying-regime budget is exceeded at phase-aligned indices; "
        f"violating n = {violations}"
    )
    assert ratio < 1e-11, f"decay ratio {ratio:.3g} exceeds 1e-11"
    assert elapsed < 1.0


def test_criterion_06_boundary_rational_sweep():
    params = CaseParams(2, Scaling.make("0", "1/3"), lambda_=Fraction(1, 3))
    ns = candidates_for_case(params, 1, 61)
    rows = verify(params, 2.0, 0.5, ns)
    summary = summarize_rows(rows)
    decay = rows[0].abs_err / rows[-1].abs_err
    ok = (
        summary.all_within_after_n_min
        and summary.n_min_within <= 13
        and decay >= 1e3
    )
    report(
        "06 boundary-rational", ok,
        f"n_min={summary.n_min_within} decay={decay:.3g} rows={len(rows)}",
    )
    assert ok


def test_criterion_07_strip_rational_sweep():
    t0 = time.perf_counter()
    params = CaseParams(4, Scaling.make("-1/2", "1/4"), lambda_=Fraction(1, 2), lambda1=Fraction(1, 4))
    ns = candidates_for_case(params, 1, 201)
    rows = verify(params, 1.0 + 0.5j, 0.5, ns)
    elapsed = time.perf_counter() - t0
    deep = [r for r in rows if r.nu_n >= 2]
    violations = [r.n for r in deep if not r.within]
    decay = rows[0].abs_err / rows[-1].abs_err
    ok = not violations and decay >= 1e3 and elapsed < 5.0
    report(
        "07 strip-rational", ok,
        f"rows={len(rows)} deep_rows={len(deep)} violations={violations} decay={decay:.3g} elapsed={elapsed:.2f}s",
    )
    assert ok


def _run_strip_case(params, z, q, n_max):
    ns = candidates_for_case(params, 1, n_max)
    rows = verify(params, z, q, ns)
    decay = rows[0].abs_err / rows[-1].abs_err
    violations = [r.n for r in rows if not r.within]
    return rows, violations, decay


def test_criterion_08_witness_driven_sweeps():
    t0 = time.perf_counter()
    q = 0.5
    results = {}

    p3 = CaseParams(3, Scaling.make("0", "sqrt2-1"), beta=0.0, rho=0.9)
    rows3, v3, d3 = _run_strip_case(p3, 2.0, q, 10**5)
    results["case3"] = (len(rows3), v3, d3)

    # normalization evidence: dropping the infinite-product factor must leave
    # an O(1) error that never decays
    main3 = rows3[0].main
    nofactor_first = abs(sw_normalized(rows3[0].n, 2.0, p3.scaling, q) - main3)
    nofactor_last = abs(sw_normalized(rows3[-1].n, 2.0, p3.scaling, q) - main3)
    factor_evidence = nofactor_last > 0.25 * nofactor_first and nofactor_last > 100.0 * rows3[-1].abs_err

    p5 = CaseParams(5, Scaling.make("-1/2", "sqrt3-1"), lambda_=Fraction(1, 2), beta=0.0, rho=0.9)
    rows5, v5, d5 = _run_strip_case(p5, 1.0 + 0.5j, q, 10**5)
    results["case5"] = (len(rows5), v5, d5)

    p6 = CaseParams(6, Scaling.make("-sqrt2+1", "1/4"), lambda_=Fraction(1, 4), beta=0.0, rho=0.9)
    rows6, v6, d6 = _run_strip_case(p6, 1.0 + 0.5j, q, 10**5)
    results["case6"] = (len(rows6), v6, d6)

    p7 = CaseParams(7, Scaling.make("-sqrt2+1", "sqrt3-1"), beta1=0.0, beta2=0.0, rho=0.3)
    rows7, v7, d7 = _run_strip_case(p7, 1.0 + 0.5j, q, 10**5)
    results["case7"] = (len(rows7), v7, d7)

    elapsed = time.perf_counter() - t0
    all_within = not (v3 or v5 or v6 or v7)
    all_decay = min(d3, d5, d6, d7) >= 10.0
    ok = all_within and all_decay and factor_evidence and elapsed < 60.0
    report(
        "08 witness-driven", ok,
        f"{ {k: (r, len(v), round(d, 2)) for k, (r, v, d) in results.items()} } "
        f"factor_evidence={factor_evidence} elapsed={elapsed:.1f}s",
    )
    assert all_within, f"bound violations: {results}"
    assert all_decay, f"decay below 10x: {results}"
    assert factor_evidence
    assert elapsed < 60.0


def _sqrt2_catalog(n_max):
    """All n <= n_max with dist(n sqrt2, Z) < 1/n, decided in integers.

    For m >= 1, |n sqrt2 - m| < 1/n iff mn - 1 < n^2 sqrt2 < mn + 1, i.e.
    (mn - 1)^2 < 2 n^4 < (mn + 1)^2; only m = floor or ceil of n sqrt2 can pass.
    """
    out = set()
    for n in range(1, n_max + 1):
        lo = math.isqrt(2 * n * n)
        if any((m * n - 1) ** 2 < 2 * n**4 < (m * n + 1) ** 2 for m in (lo, lo + 1)):
            out.add(n)
    return out


def test_criterion_09_witness_catalog():
    target = _sqrt2_catalog(100)
    sqrt2 = math.sqrt(2.0)
    scan = {int(n) for n in _scan_prefilter(sqrt2, 0.0, 1.0, 100) if _confirm(int(n), sqrt2, 0.0, 1.0)}
    fast = {w.n for w in witness_search(sqrt2, 0.0, 1.0, 100)}

    n = np.arange(1, 10**4 + 1, dtype=np.float64)
    chebyshev_counts = []
    for b10 in range(10):
        resid = np.abs(np.mod(n * math.sqrt(2.0) - b10 / 10.0 + 0.5, 1.0) - 0.5)
        chebyshev_counts.append(int(np.count_nonzero(resid <= 3.0 / n)))
    chebyshev_ok = all(c >= 10 for c in chebyshev_counts)

    ok = scan == target and fast == target and chebyshev_ok
    report(
        "09 witness-catalog", ok,
        f"scan={sorted(scan)} cf={sorted(fast)} expected_exact={sorted(target)} "
        f"chebyshev_counts={chebyshev_counts}",
    )
    assert chebyshev_ok
    assert scan == target, "exhaustive scan disagrees with the exact witness catalog"
    assert fast == target, "convergent ladder disagrees with the exact witness catalog"


def test_criterion_10_report_determinism(tmp_path, capsys):
    cfg = {
        "case_id": 4,
        "q": 0.5,
        "z_re": 1.0,
        "z_im": 0.5,
        "tau": "-1/2",
        "theta": "1/4",
        "lambda": "1/2",
        "lambda1": "1/4",
        "n_min": 1,
        "n_max": 201,
        "format": "csv",
    }
    outputs = []
    for name, jobs in (("serial", 1), ("serial2", 1), ("parallel", 2)):
        item = dict(cfg, out=str(tmp_path / f"{name}.csv"), jobs=jobs)
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(item))
        assert cli_main(["verify", "--config", str(cfg_path)]) == 0
        outputs.append((tmp_path / f"{name}.csv").read_bytes())
    capsys.readouterr()
    ok = outputs[0] == outputs[1] == outputs[2]
    report("10 determinism", ok, f"bytes={len(outputs[0])} serial==repeat=={outputs[0]==outputs[1]} serial==parallel=={outputs[0]==outputs[2]}")
    assert ok
