"""Brute-force reference implementations, independent of the package code.

Most of what is here is a plain loop with no truncation logic, no
recurrences, and no certificates, so the oracles stay structurally
independent of the evaluators they validate.  Term counts are chosen so the
neglected tails sit far below double precision for the arguments used in
the tests.

``report_json`` and ``report_csv`` render a sweep report the direct way: a
dict per row through ``json.dumps``, and one text per cell.  The package
renders both from fixed per-row templates that must match them byte for
byte.

The exceptions are ``reversed_sum`` and ``split_sum``, the scalar k-loops of
the two normalized Stieltjes-Wigert sums.  They are the references the batch
kernels in ``swigert.swpoly`` must match bit for bit, so they keep the
kernels' setup, weights read from the package's ``(q;q)_j``, underflow
cut-offs and asserted term bound on purpose: the same rows stop at the same
k and fail with the same error.
"""

from __future__ import annotations

import cmath
import json
import math
import sys

from swigert.errors import BadTau, DomainTooLarge, PeakOverflow, ZeroArgument
from swigert.qcore import _valid_q, qpoch_q_n, qq_infinity
from swigert.scaling import Scaling
from swigert.swpoly import SplitSumResult

_LOG_LIMIT = 700.0
_UNDERFLOW = 1e-300


def qpoch_product(a, q: float, n: int):
    p = complex(1.0) if isinstance(a, complex) else 1.0
    for k in range(n):
        p *= 1 - a * q**k
    return p


def qpoch_inf_product(a, q: float, terms: int = 400):
    return qpoch_product(a, q, terms)


def qpoch_inf_mp(a, q: float, dps: int = 20):
    """(a; q)_inf in mpmath, as the plain product cut where |a q^k| < 1e-19, and min_k |1 - a q^k|.

    Past the cut the factors move the product by under 1e-16 relative for q <= 0.999.
    """
    import mpmath as mp

    with mp.workdps(dps):
        am, qm = mp.mpc(a), mp.mpf(q)
        p, qk, near = mp.mpc(1), mp.mpf(1), math.inf
        for _ in range(max(0, math.ceil(math.log(abs(a) * 1e19) / -math.log(q)))):
            factor = 1 - am * qk
            p *= factor
            near = min(near, abs(complex(factor)))
            qk *= qm
        return p, near


def aq_series(z, q: float, terms: int = 60) -> complex:
    return sum(q ** (k * k) * (-complex(z)) ** k / qpoch_product(q, q, k) for k in range(terms))


def bq_series(x: float, q: float, terms: int = 60) -> float:
    return sum(q ** (k * k) * x**k / qpoch_product(q, q, k) for k in range(terms))


def aq_derivative_series(z, q: float, terms: int = 60) -> complex:
    return sum(
        k * q ** (k * k) * (-1.0) ** k * complex(z) ** (k - 1) / qpoch_product(q, q, k)
        for k in range(1, terms)
    )


def theta_symmetric(z, q: float, terms: int = 60) -> complex:
    zc = complex(z)
    total = complex(1.0)
    for n in range(1, terms):
        w = q ** (n * n)
        if w == 0.0:
            break
        total += w * (zc**n + zc**-n)
    return total


def sw_sum(n: int, x, q: float) -> complex:
    return sum(
        q ** (k * k) * (-complex(x)) ** k / (qpoch_product(q, q, k) * qpoch_product(q, q, n - k))
        for k in range(n + 1)
    )


def normalized_reference(n: int, z, tau: float, theta: float, q: float) -> complex:
    """Degree-n sum at the scaled point, divided out in complex-log space."""
    lnq = math.log(q)
    d = (n * theta) % 1.0
    x = complex(z) * cmath.exp(complex(-n * (tau + 2.0) * lnq, -2.0 * math.pi * d))
    log_norm = n * cmath.log(-complex(z)) + n * n * complex((-1.0 - tau) * lnq, -2.0 * math.pi * theta)
    return sw_sum(n, x, q) * cmath.exp(-log_norm)


def reversed_sum(n: int, z, scaling: Scaling, q) -> complex:
    """The reversed sum of ``sw_normalized`` as one scalar loop over k."""
    qv = _valid_q(q)
    if z == 0:
        raise ZeroArgument("normalized evaluation requires z != 0")
    if n < 1:
        raise DomainTooLarge(f"n must be >= 1, got {n}")
    zc = complex(z)
    tau = scaling.tau.value
    lnq = math.log(qv)

    def log_term(k: float) -> float:
        return (k * k + tau * n * k) * lnq - k * math.log(abs(zc))

    k_star = (math.log(abs(zc)) / lnq - tau * n) / 2.0
    peak = max(log_term(0.0), log_term(float(n)), log_term(min(max(k_star, 0.0), float(n))))
    if peak > _LOG_LIMIT:
        raise PeakOverflow(f"term peak exp({peak:.1f}) at n={n}, tau={tau}; use the theta-centered form")
    base = -(qv ** (tau * n)) / zc * cmath.exp(complex(0.0, 2.0 * math.pi * scaling.theta_frac(n)))
    k_break = int(math.ceil(max(k_star, 0.0))) + 1
    total = complex(0.0)
    term = complex(1.0)
    qodd = qv
    for k in range(n + 1):
        total += term / (qpoch_q_n(qv, k) * qpoch_q_n(qv, n - k))
        term *= base * qodd
        qodd *= qv * qv
        if k > k_break and abs(term) < _UNDERFLOW:
            break
    return total


def term_bound(k: int, log_mag: float, log_q: float, guard_pow: float) -> float:
    """max^k q^(k (k - guard_pow)) with slack, in log space; inf past double range."""
    x = k * log_mag + k * (k - guard_pow) * log_q
    if x > math.log(sys.float_info.max):
        return math.inf
    return math.exp(x) * (1.0 + 1e-9) + 1e-280


def split_sum(n: int, z, scaling: Scaling, q, m: int | None = None) -> SplitSumResult:
    """The split sum of ``sw_theta_normalized`` as one scalar loop over k per wing."""
    qv = _valid_q(q)
    tau = scaling.tau.value
    if not (-2.0 < tau < 0.0) or (scaling.tau.is_rational and not (-2 < scaling.tau.fraction < 0)):
        raise BadTau(f"split evaluation requires -2 < tau < 0, got {tau!r}")
    if z == 0:
        raise ZeroArgument("split evaluation requires z != 0")
    if n < 1:
        raise DomainTooLarge(f"n must be >= 1, got {n}")
    zc = complex(z)
    m_floor, c = scaling.minus_tau_split(n)
    if m is None:
        m = m_floor
    else:
        c = (m_floor - m) + c
        if not (-1.0 < c < 2.0):
            raise BadTau(f"offset c = {c!r} too far from [0, 1); wrong m for this n?")
    d = scaling.theta_frac(n)
    half, chi = m // 2, m - 2 * (m // 2)
    w1 = -zc * (qv ** (chi + c)) * cmath.exp(complex(0.0, -2.0 * math.pi * d))
    log_mag, log_q = math.log(max(abs(zc), 1.0 / abs(zc))), math.log(qv)
    qq2 = qq_infinity(qv) * qq_infinity(qv)
    guard_pow = 2.0 if 0.0 <= chi + c <= 2.0 else 3.0

    def wing(ks: range, sign: int, w: complex, term: complex, qodd: float) -> complex:
        total = complex(0.0)
        for k in ks:
            j = half + sign * k
            ratio = qq2 / (qpoch_q_n(qv, j) * qpoch_q_n(qv, n - j))
            assert 0.0 < ratio <= 1.0
            contrib = term * ratio
            assert abs(contrib) <= term_bound(k, log_mag, log_q, guard_pow)
            total += contrib
            term *= w * qodd
            qodd *= qv * qv
            if k > 2 and abs(term) < _UNDERFLOW:
                break
        return total

    w2 = 1.0 / w1
    s1 = wing(range(half + 1), -1, w1, complex(1.0), qv)
    s2 = wing(range(1, n - half + 1), 1, w2, w2 * qv, qv**3)
    return SplitSumResult(value=s1 + s2, m=m, c_n=c, d_n=d, chi_m=chi, s1=s1, s2=s2)


def report_cells(row) -> dict:
    """A sweep row's report columns, in column order; a missing witness value is None."""
    w = row.witness
    return {
        "n": row.n, "lhs_re": row.lhs.real, "lhs_im": row.lhs.imag, "main_re": row.main.real,
        "main_im": row.main.imag, "abs_err": row.abs_err, "bound": row.bound, "within": row.within,
        "nu_n": row.nu_n, "witness_m": None if w is None else w.m, "witness_residual": None if w is None else w.residual,
    }


def report_json(rows) -> str:
    return json.dumps([report_cells(r) for r in rows], indent=2, sort_keys=True) + "\n"


def report_csv(rows, header: str) -> str:
    def text(v) -> str:
        if v is None:
            return ""
        if isinstance(v, bool):
            return "true" if v else "false"
        return repr(v) if isinstance(v, float) else str(v)

    return "\n".join([header] + [",".join(map(text, report_cells(r).values())) for r in rows]) + "\n"
