"""Output checks: high-precision mpmath references and exact witness rechecks.

Nothing here calls the package under test.  Reference values are computed
at ``DPS`` decimal digits from the defining sums and products; witness
claims are rechecked in exact ``Fraction`` arithmetic against the doubles
the program was given.  Each comparison allows the program's certified
tail (where it reports one) plus a first-order roundoff allowance of the
form ``KAPPA * 2**-53 * (weighted sum of |terms|)``; the weights are spelled
out next to each reference and, with the constants, in ``spec.json``.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import mpmath as mp

_ALLOWANCE = json.loads(Path(__file__).with_name("spec.json").read_text(encoding="utf-8"))["allowance"]
DPS = _ALLOWANCE["dps"]
KAPPA = float(_ALLOWANCE["kappa"])
# The program evaluates every main term to this truncation tolerance.
MAIN_TOL = _ALLOWANCE["main_tol"]
EPS = 2.0**-53

mp.mp.dps = DPS
_TINY = mp.mpf(10) ** (-(DPS + 8))


def _mpf(x) -> mp.mpf:
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def _mpc(z) -> mp.mpc:
    if isinstance(z, (mp.mpf, mp.mpc)):
        return mp.mpc(z)
    z = complex(z)
    return mp.mpc(z.real, z.imag)


def _cplx(z) -> complex:
    return complex(float(z.real), float(z.imag))


class QTable:
    """(q; q)_j for one double q, extended lazily; saturates below 10^-(DPS+8)."""

    def __init__(self, q: float):
        self.q = _mpf(q)
        self.prefix = [mp.mpf(1)]
        self.qj = mp.mpf(1)
        self.done = False

    def __call__(self, j: int) -> mp.mpf:
        while len(self.prefix) <= j and not self.done:
            self.qj *= self.q
            self.prefix.append(self.prefix[-1] * (1 - self.qj))
            self.done = self.qj < _TINY
        return self.prefix[min(j, len(self.prefix) - 1)]

    def infinity(self) -> mp.mpf:
        return self(10**9)


_QTABLES: dict = {}


def qtable(q: float) -> QTable:
    if q not in _QTABLES:
        if len(_QTABLES) > 64:
            _QTABLES.clear()
        _QTABLES[q] = QTable(q)
    return _QTABLES[q]


# ---------------------------------------------------------------- series / products


def ref_entire(w, q: float):
    """sum_k q^(k^2) w^k / (q;q)_k and its roundoff weight sum_k (k + 1 + C_k) |t_k|.

    C_k = sum_{j<=k} j q^j / (1 - q^j) covers the rounding of (q;q)_k, which
    grows like 1/(1-q) as q -> 1.
    """
    tab, qm, wm = qtable(q), _mpf(q), _mpc(w)
    total, weight, cond = mp.mpc(0), mp.mpf(0), mp.mpf(0)
    k, qk = 0, mp.mpf(1)
    while True:
        t = qm ** (k * k) * wm**k / tab(k)
        total += t
        weight += (k + 1 + cond) * abs(t)
        if k > 4 and abs(t) < _TINY * (1 + abs(total)) and qm ** (2 * k + 1) * abs(wm) < 0.5:
            return total, weight
        k += 1
        qk *= qm
        cond += k * qk / (1 - qk)


def ref_theta(w, q: float):
    """sum_{n in Z} q^(n^2) w^n and its roundoff weight sum_n (|n| + 1) |t_n|."""
    qm, wm = _mpf(q), _mpc(w)
    total, weight = mp.mpc(1), mp.mpf(1)
    n = 1
    mag = max(abs(wm), 1 / abs(wm))
    while True:
        a, b = qm ** (n * n) * wm**n, qm ** (n * n) * wm ** (-n)
        total += a + b
        weight += (n + 1) * (abs(a) + abs(b))
        if n > 2 and qm ** (n * n) * mag**n < _TINY * abs(total) and qm ** (2 * n + 1) * mag < 0.5:
            return total, weight
        n += 1


def ref_qpoch(a, qb):
    """prod_k (1 - a qb^k) and its relative roundoff weight.

    The weight sums, over factors, 1 + (k + 2)|a qb^k| / |1 - a qb^k|: the
    relative error of a factor whose q-power was built by k multiplications.
    """
    qm, am = _mpf(qb), _mpc(a)
    p, rel, qk, k = mp.mpc(1), mp.mpf(0), mp.mpf(1), 0
    while abs(am) * qk > _TINY or k < 2:
        f = 1 - am * qk
        p *= f
        rel += 1 + (k + 2) * abs(am) * qk / abs(f)
        qk *= qm
        k += 1
    return p, rel


def eval_reference(fn: str, args: tuple):
    """(reference value, roundoff allowance) for one library evaluation."""
    if fn in ("ramanujan_Aq", "Bq"):
        z, q, _ = args
        w = -complex(z) if fn == "ramanujan_Aq" else complex(z)
        ref, weight = ref_entire(w, q)
        return ref, KAPPA * EPS * weight
    if fn == "theta_series":
        z, q, _ = args
        ref, weight = ref_theta(z, q)
        return ref, KAPPA * EPS * weight
    if fn == "theta_product":
        z, q, _ = args
        q2 = _mpf(q) ** 2
        zm = _mpc(z)
        rels, prod = 4, mp.mpc(1)
        for a in (q2, -_mpf(q) * zm, -_mpf(q) / zm):
            p, rel = ref_qpoch(a, q2)
            prod *= p
            rels += rel
        ref, _ = ref_theta(z, q)
        return ref, KAPPA * EPS * rels * abs(prod)
    if fn == "qpoch_infinite":
        a, q, _ = args
        p, rel = ref_qpoch(a, q)
        return p, KAPPA * EPS * (rel + 1) * abs(p)
    raise ValueError(fn)


def check_eval(fn: str, args: tuple, value, oracle: bool) -> str:
    """Empty string when the evaluation passes; otherwise the reason."""
    val, tail = value
    tol = args[-1]
    if not (math.isfinite(val.real) and math.isfinite(val.imag) and math.isfinite(tail)):
        return "non-finite value or tail"
    if tail < 0 or (fn != "theta_product" and tail > tol):
        return f"tail_bound {tail!r} outside [0, tol={tol!r}]"
    if not oracle:
        return ""
    ref, allow = eval_reference(fn, args)
    miss = abs(_mpc(val) - ref)
    if miss > tail + allow:
        return f"{fn}{args}: |value - ref| = {float(miss):.3e} > tail {tail:.3e} + roundoff {float(allow):.3e}"
    return ""


# ---------------------------------------------------------------- witnesses


def nearest(x: Fraction) -> tuple[int, Fraction]:
    m = math.floor(x + Fraction(1, 2))
    return m, x - m


def is_witness(n: int, theta: Fraction, beta: Fraction, rho: float) -> tuple[bool, int, Fraction]:
    """Exact test of dist(n theta - beta, Z) < n^(-rho) for the given doubles."""
    m, r = nearest(theta * n - beta)
    return _mpf(abs(r)) < mp.power(n, -_mpf(rho)), m, r


def convergent_denominators(x: Fraction, limit: int) -> list:
    """Continued-fraction convergent denominators of x up to limit."""
    out, (q0, q1) = [], (1, 0)
    while True:
        a = math.floor(x)
        q0, q1 = q1, a * q1 + q0
        if q1 > limit:
            return out
        out.append(q1)
        if x == a:
            return out
        x = 1 / (x - a)


def probe_indices(rng, theta: Fraction, returned: list, n_max: int, count: int = 12) -> list:
    """Indices a scan must not have dropped: random, next to hits, convergents."""
    probes = {rng.randint(1, n_max) for _ in range(count)}
    for n in rng.sample(returned, min(4, len(returned))):
        probes.update((n - 1, n + 1))
    probes.update(convergent_denominators(theta % 1, n_max))
    return sorted(p for p in probes if 1 <= p <= n_max)


def parse_witness_table(text: str) -> list:
    lines = text.split("\f", 1)[1].rstrip("\n").split("\n")
    return [line.split(",") for line in lines[1:]]


def check_witness_table(meta: dict, text: str, rng) -> str:
    """Every returned row must pass the exact recheck; sampled others must fail it."""
    targets, rho, n_max = meta["targets"], meta["rho"], meta["n_max"]
    rows = parse_witness_table(text)
    ns = [int(r[0]) for r in rows]
    if ns != sorted(set(ns)) or (ns and not 1 <= ns[0] <= ns[-1] <= n_max):
        return "witness indices not sorted, unique and within [1, n_max]"
    for r in rows:
        n = int(r[0])
        for i, (theta, beta) in enumerate(targets):
            ok, m, res = is_witness(n, theta, beta, rho)
            if not ok or int(r[1 + 2 * i]) != m or float(r[2 + 2 * i]) != float(res):
                return f"returned witness n={n} fails the exact recheck on target {i}"
    returned = set(ns)
    for n in probe_indices(rng, targets[0][0], ns, n_max):
        if n not in returned and all(is_witness(n, t, b, rho)[0] for t, b in targets):
            return f"index n={n} satisfies the witness inequality but was not returned"
    return ""


# ---------------------------------------------------------------- sweep rows

_FIELDS = ("n", "lhs_re", "lhs_im", "main_re", "main_im", "abs_err", "bound", "within", "nu_n",
           "witness_m", "witness_residual")


def parse_rows(text: str, fmt: str) -> tuple[dict, list]:
    """(summary, rows) from a verify op's captured stdout and report file."""
    summary_text, body = text.split("\f", 1)
    summary = json.loads(summary_text)
    if fmt == "json":
        return summary, json.loads(body)
    lines = body.rstrip("\n").split("\n")
    if lines[0] != ",".join(_FIELDS):
        raise ValueError("unexpected CSV header")
    rows = []
    for line in lines[1:]:
        v = dict(zip(_FIELDS, line.split(",")))
        rows.append({
            "n": int(v["n"]), "nu_n": int(v["nu_n"]), "within": {"true": True, "false": False}[v["within"]],
            **{k: float(v[k]) for k in ("lhs_re", "lhs_im", "main_re", "main_im", "abs_err", "bound")},
            "witness_m": int(v["witness_m"]) if v["witness_m"] else None,
            "witness_residual": float(v["witness_residual"]) if v["witness_residual"] else None,
        })
    return summary, rows


def _targets(meta: dict) -> tuple:
    """(u, v) of the theta main-term argument -z q^(chi(m)+u) e^(-2 pi i v), as Fractions."""
    keys = {4: ("lambda", "lambda1"), 5: ("lambda", "beta"), 6: ("beta", "lambda"), 7: ("beta1", "beta2")}
    return tuple(Fraction(meta["cfg"][key]) for key in keys[meta["case"]])


def _witness_targets(meta: dict) -> list:
    """[(theta, beta)] a witness-driven row index must hit, as exact doubles."""
    cfg, case = meta["cfg"], meta["case"]
    tau, theta = meta["tau"][0], meta["theta"][0]
    if case in (3, 5):
        return [(theta, Fraction(cfg["beta"]))]
    if case == 6:
        return [(-tau, Fraction(cfg["beta"]))]
    return [(-tau, Fraction(cfg["beta1"])), (theta, Fraction(cfg["beta2"]))]


def _admissible(meta: dict, n: int) -> bool:
    cfg, case = meta["cfg"], meta["case"]
    tau, theta = meta["tau"][0], meta["theta"][0]
    if case == 5:
        return (-tau * n) % 1 == Fraction(cfg["lambda"])
    if case == 6:
        return (theta * n) % 1 == Fraction(cfg["lambda"])
    return True


def ref_row(meta: dict, n: int, m: int):
    """(lhs, lhs allowance, main, main allowance) for one sweep row.

    Cases 1-3 use the reversed sum (q;q)_inf sum_k q^(k^2 + tau n k)
    e^(2 pi i k d) (-1/z)^k / ((q;q)_k (q;q)_{n-k}); cases 4-7 use the same
    sum renormalized about k = m//2, whose terms are
    q^(j^2 - j delta) (-e^(2 pi i d)/z)^j (q;q)_inf^2 / ((q;q)_{m//2+j} (q;q)_{n-m//2-j})
    with delta = -tau n - 2 (m//2).  d = {n theta} is exact.  The allowance
    adds, per term, the phase and exponent error of fractional parts the
    program forms in floating point (only for irrational tau or theta).
    """
    case, q, z = meta["case"], meta["q"], meta["z"]
    (tau, tau_rat), (theta, theta_rat) = meta["tau"], meta["theta"]
    tab, qm, zm = qtable(q), _mpf(q), _mpc(z)
    lnq = abs(math.log(q))
    d = (theta * n) % 1
    base = -mp.expjpi(2 * _mpf(d)) / zm
    drift = 16 * n * (lnq * abs(float(tau)) * (not tau_rat) + 2 * math.pi * abs(float(theta)) * (not theta_rat))
    total, allow = mp.mpc(0), mp.mpf(0)
    if case <= 3:
        qq = tab.infinity()
        tn = tau * n
        drift += n * abs(float(tau)) * lnq
        k = 0
        while k <= n:
            t = qq * qm ** _mpf(k * k + k * tn) * base**k / (tab(k) * tab(n - k))
            total += t
            allow += abs(t) * (KAPPA * (k + 1) + k * drift)
            if k > 2 and abs(t) < _TINY * abs(total):
                break
            k += 1
    else:
        half = m // 2
        delta = -tau * n - 2 * half
        qq2 = tab.infinity() ** 2
        start = min(max(0, -half), n - half)   # a witness m may be -1, so j = 0 can lie outside
        for sign in (1, -1):
            j = start if sign == 1 else start - 1
            while -half <= j <= n - half:
                t = qq2 * qm ** _mpf(j * j - j * delta) * base**j / (tab(half + j) * tab(n - half - j))
                total += t
                allow += abs(t) * (KAPPA * (abs(j) + 1) + abs(j) * drift)
                if abs(j) > 2 and abs(t) < _TINY * abs(total):
                    break
                j += sign
    allow *= EPS
    if case == 1:
        return total, allow, mp.mpc(1), mp.mpf(0)
    if case in (2, 3):
        target = Fraction(meta["cfg"]["lambda"]) if case == 2 else Fraction(meta["cfg"]["beta"])
        main, weight = ref_entire(_cplx(-mp.expjpi(2 * _mpf(target)) / zm), q)
    else:
        u, v = _targets(meta)
        w = -zm * qm ** (_mpf(m % 2) + _mpf(u)) * mp.expjpi(-2 * _mpf(v))
        main, weight = ref_theta(_cplx(w), q)
    return total, allow, main, MAIN_TOL + KAPPA * EPS * weight


def row_m(meta: dict, n: int):
    """Exact integer m of a strip row (floor(-tau n), or the witness integer)."""
    cfg, case = meta["cfg"], meta["case"]
    tau = meta["tau"][0]
    if case in (6, 7):
        beta = Fraction(cfg["beta"] if case == 6 else cfg["beta1"])
        return nearest(-tau * n - beta)[0]
    return math.floor(-tau * n)


def check_rows(meta: dict, status: int, text: str, rng, samples: int = 2) -> str:
    """Structural checks on every row, mpmath checks on a seeded sample."""
    cfg, case = meta["cfg"], meta["case"]
    summary, rows = parse_rows(text, cfg["format"])
    if not rows or summary.get("n_count") != len(rows):
        return "summary n_count disagrees with the report"
    ns = [r["n"] for r in rows]
    if ns != sorted(set(ns)) or ns[0] < cfg["n_min"] or ns[-1] > cfg["n_max"]:
        return "row indices not sorted, unique and within [n_min, n_max]"
    for r in rows:
        lhs, main = complex(r["lhs_re"], r["lhs_im"]), complex(r["main_re"], r["main_im"])
        if r["abs_err"] != abs(lhs - main):
            return f"n={r['n']}: abs_err is not |lhs - main|"
        if r["within"] != (r["abs_err"] <= r["bound"]):
            return f"n={r['n']}: within disagrees with abs_err <= bound"
        if not (r["bound"] >= 0.0 and math.isfinite(r["bound"])):
            return f"n={r['n']}: bound is not a finite nonnegative number"
    tail_ok = rows[-1]["within"]
    if status != (0 if tail_ok else 1) or summary["all_within_after_n_min"] != tail_ok:
        return "exit status disagrees with the verdict on the last row"
    if case in (3, 5, 6, 7):
        err = _check_witness_rows(meta, rows, rng)
        if err:
            return err
    picks = {len(rows) - 1} | {rng.randrange(len(rows)) for _ in range(samples - 1)}
    for i in sorted(picks):
        r = rows[i]
        n = r["n"]
        m = row_m(meta, n) if case >= 4 else 0
        lhs, lhs_allow, main, main_allow = ref_row(meta, n, m)
        got_lhs = _mpc(complex(r["lhs_re"], r["lhs_im"]))
        got_main = _mpc(complex(r["main_re"], r["main_im"]))
        if abs(got_lhs - lhs) > lhs_allow:
            return f"n={n}: lhs off its mpmath value by {float(abs(got_lhs - lhs)):.3e} > {float(lhs_allow):.3e}"
        if abs(got_main - main) > main_allow:
            return f"n={n}: main off its mpmath value by {float(abs(got_main - main)):.3e} > {float(main_allow):.3e}"
    return ""


def _check_witness_rows(meta: dict, rows: list, rng) -> str:
    cfg = meta["cfg"]
    targets = _witness_targets(meta)
    rho = cfg["rho"]
    for r in rows:
        n = r["n"]
        hits = [is_witness(n, t, b, rho) for t, b in targets]
        if not all(h[0] for h in hits) or not _admissible(meta, n):
            return f"row n={n} is not an admissible witness"
        m, res = hits[0][1], hits[0][2]
        scale = 8 * EPS * (n * abs(float(targets[0][0])) + 2)
        if r["witness_m"] != m or abs(r["witness_residual"] - float(res)) > scale:
            return f"row n={n}: witness (m, residual) disagrees with the exact recheck"
    ns = [r["n"] for r in rows]
    present = set(ns)
    for n in probe_indices(rng, targets[0][0], ns, cfg["n_max"]):
        if n not in present and _admissible(meta, n) and all(is_witness(n, t, b, rho)[0] for t, b in targets):
            return f"admissible witness n={n} is missing from the sweep"
    return ""
