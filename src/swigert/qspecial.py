"""Entire q-series and the Jacobi theta function, with certified tails.

Provides the alternating entire series A_q and its positive-term majorant
B_q, the term-wise derivative of A_q, and the theta function evaluated two
independent ways: as the symmetric bilateral series (canonical form, used
by all asymptotic main terms) and as the triple product of infinite
q-shifted factorials (cross-check form).

Each evaluator picks its own truncation point from a geometric tail
certificate and reports that certificate as ``tail_bound``.
"""

from __future__ import annotations

from .errors import OutOfRange, ZeroArgument
from .qcore import CertifiedValue, QParam, qpoch_infinite, qq_infinity

_MAX_TERMS = 100_000


def _entire_series(w: complex, q: float, tol: float) -> CertifiedValue:
    """sum_k q^(k^2) w^k / (q; q)_k with a certified geometric tail."""
    if tol <= 0.0:
        raise OutOfRange(f"tol must be > 0, got {tol!r}")
    mag = abs(w)
    qq_lo = qq_infinity(q) * (1.0 - 1e-12)
    total = complex(0.0) if isinstance(w, complex) else 0.0
    term_pow = 1.0   # q^(k^2)
    wk = complex(1.0) if isinstance(w, complex) else 1.0
    poch = 1.0       # (q; q)_k
    qodd = q         # q^(2k+1)
    for k in range(_MAX_TERMS):
        total += term_pow * wk / poch
        head = term_pow * qodd * mag**(k + 1)    # q^((k+1)^2) |w|^(k+1)
        ratio = qodd * q * q * mag               # q^(2k+3) |w|
        if ratio <= 0.5:
            tail = head / ((1.0 - ratio) * qq_lo)
            if tail <= tol:
                return CertifiedValue(total, tail)
        term_pow *= qodd
        qodd *= q * q
        wk = wk * w
        poch *= 1.0 - q**(k + 1)
    raise OutOfRange(f"series did not certify within {_MAX_TERMS} terms (|w|={mag!r})")


def ramanujan_Aq(z, q, tol: float = 1e-12) -> CertifiedValue:
    """Entire alternating series sum_k q^(k^2) (-z)^k / (q; q)_k."""
    return _entire_series(-z if isinstance(z, complex) else complex(-z), QParam.of(q).q, tol)


def Bq(x: float, q, tol: float = 1e-12) -> CertifiedValue:
    """Positive-term majorant sum_k q^(k^2) x^k / (q; q)_k for x >= 0.

    Real-valued, >= 1, and nondecreasing in x; dominates |A_q| on |z| = x.
    """
    if x < 0.0:
        raise OutOfRange(f"x must be >= 0, got {x!r}")
    return _entire_series(float(x), QParam.of(q).q, tol)


def Aq_derivative(z, q, tol: float = 1e-12) -> CertifiedValue:
    """Term-wise derivative sum_{k>=1} k q^(k^2) (-1)^k z^(k-1) / (q; q)_k."""
    qv = QParam.of(q).q
    if tol <= 0.0:
        raise OutOfRange(f"tol must be > 0, got {tol!r}")
    zc = complex(z)
    mag = abs(zc)
    qq_lo = qq_infinity(qv) * (1.0 - 1e-12)
    total = complex(0.0)
    term_pow = qv       # q^(k^2) at k = 1
    zk = complex(1.0)   # z^(k-1)
    poch = 1.0 - qv     # (q; q)_k
    sign = -1.0
    qodd = qv**3        # q^(2k+1)
    for k in range(1, _MAX_TERMS):
        total += sign * k * term_pow * zk / poch
        head = (k + 1) * term_pow * qodd * mag**k   # (k+1) q^((k+1)^2) |z|^k
        ratio = 2.0 * qodd * qv * qv * mag          # covers (j+1)/j growth too
        if ratio <= 0.5:
            tail = head / ((1.0 - ratio) * qq_lo)
            if tail <= tol:
                return CertifiedValue(total, tail)
        term_pow *= qodd
        qodd *= qv * qv
        zk = zk * zc
        poch *= 1.0 - qv**(k + 1)
        sign = -sign
    raise OutOfRange(f"derivative series did not certify within {_MAX_TERMS} terms")


def theta_series(z, q, tol: float = 1e-12) -> CertifiedValue:
    """Bilateral series sum_{n in Z} q^(n^2) z^n, summed symmetrically.

    The two wings are dominated by a geometric tail once
    q^(2N+1) max(|z|, 1/|z|) drops below 1/2.
    """
    qv = QParam.of(q).q
    if z == 0:
        raise ZeroArgument("theta series requires z != 0")
    if tol <= 0.0:
        raise OutOfRange(f"tol must be > 0, got {tol!r}")
    zc = complex(z)
    mag = max(abs(zc), 1.0 / abs(zc))
    total = complex(1.0)
    zp = complex(1.0)
    zm = complex(1.0)
    term_pow = 1.0   # q^(n^2)
    qodd = qv        # q^(2n+1)
    for n in range(_MAX_TERMS):
        head = term_pow * qodd * mag**(n + 1)   # q^((n+1)^2) M^(n+1)
        ratio = qodd * qv * qv * mag
        if ratio <= 0.5:
            tail = 2.0 * head / (1.0 - ratio)
            if tail <= tol:
                return CertifiedValue(total, tail)
        term_pow *= qodd
        qodd *= qv * qv
        zp = zp * zc
        zm = zm / zc
        total += term_pow * (zp + zm)
    raise OutOfRange(f"theta series did not certify within {_MAX_TERMS} terms")


def theta_product(z, q, tol: float = 1e-12) -> CertifiedValue:
    """Theta via the triple product (q^2; q^2)_inf (-qz; q^2)_inf (-q/z; q^2)_inf.

    Kept as an independent cross-check of ``theta_series``; the three factor
    certificates are combined into one rigorous product tail.
    """
    qv = QParam.of(q).q
    if z == 0:
        raise ZeroArgument("theta product requires z != 0")
    if tol <= 0.0:
        raise OutOfRange(f"tol must be > 0, got {tol!r}")
    zc = complex(z)
    q2 = qv * qv
    args = (q2, -qv * zc, -qv / zc)

    def combine(parts):
        v1, v2, v3 = (p.value for p in parts)
        e1, e2, e3 = (p.tail_bound for p in parts)
        value = v1 * v2 * v3
        worst = (abs(v1) + e1) * (abs(v2) + e2) * (abs(v3) + e3)
        return value, worst - abs(v1) * abs(v2) * abs(v3)

    parts = [qpoch_infinite(a, q2, tol / 8.0) for a in args]
    value, err = combine(parts)
    if err > tol:
        shrink = tol / (4.0 * err)
        parts = [qpoch_infinite(a, q2, (tol / 8.0) * shrink) for a in args]
        value, err = combine(parts)
    return CertifiedValue(value, err)

