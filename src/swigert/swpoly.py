"""Stieltjes-Wigert polynomial evaluation in three cross-checking forms.

``sw_direct`` is the raw degree-n sum, safe only at small degree where the
q**(k*k)-scale dynamic range fits in doubles.  ``sw_normalized`` evaluates
the reversed, prefactor-free sum, the natural form when the scaled argument
decays (tau >= 0).  ``sw_theta_normalized`` is the theta-centered split
evaluation for -2 < tau < 0: the sum is cut at half the peak index
m = floor(-tau*n), each half is renormalized so its terms are bounded by
q**(k*k - 2k) * max(|z|, 1/|z|)**k, and the two halves converge to the two
wings of a bilateral theta series.  No giant prefactor is ever formed
outside the small-degree reference path, which assembles its normalizer in
complex-log space with principal branches.

The power convention throughout is w**n = exp(n * Log(w)) with the
principal logarithm, applied once before any scaling.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import BadTau, DomainTooLarge, PeakOverflow, ZeroArgument
from .qcore import QParam, _qq_prefix, qpoch_q_n, qq_infinity
from .scaling import RealParam, Scaling

__all__ = [
    "RealParam",
    "Scaling",
    "SplitSumResult",
    "sw_direct",
    "sw_normalized",
    "sw_theta_normalized",
    "scaled_argument",
    "log_normalizer",
    "log_theta_normalizer",
]

# Direct summation keeps the q**(n*n) dynamic range inside doubles up to
# this degree for q >= 0.2 and moderate |x|; beyond it use a normalized form.
_DIRECT_CAP = 30

# Magnitudes of log-scale exponents beyond this overflow exp() in doubles.
_LOG_LIMIT = 700.0

_UNDERFLOW = 1e-300


def sw_direct(n: int, x, q) -> complex:
    """Degree-n sum: sum_{k=0}^n q^(k^2) (-x)^k / ((q; q)_k (q; q)_{n-k})."""
    qv = QParam.of(q).q
    if n < 0:
        raise DomainTooLarge(f"degree must be >= 0, got {n}")
    if n > _DIRECT_CAP:
        raise DomainTooLarge(f"direct summation capped at degree {_DIRECT_CAP}, got {n}; use a normalized form")
    xc = complex(x)
    total = complex(0.0)
    term = complex(1.0)   # q^(k^2) (-x)^k
    qodd = qv
    for k in range(n + 1):
        total += term / (qpoch_q_n(qv, k) * qpoch_q_n(qv, n - k))
        term *= -xc * qodd
        qodd *= qv * qv
    return total


def scaled_argument(z, n: int, scaling: Scaling, q) -> complex:
    """The scaled evaluation point z * q**(-n*s), for the small-degree path.

    Raises PeakOverflow when the magnitude leaves double range; large-n
    callers must work with the normalized evaluators instead.
    """
    qv = QParam.of(q).q
    if z == 0:
        raise ZeroArgument("scaled argument requires z != 0")
    lnq = math.log(qv)
    mag_exp = math.log(abs(z)) - n * (scaling.tau.value + 2.0) * lnq
    if abs(mag_exp) > _LOG_LIMIT:
        raise PeakOverflow(f"|z q^(-n s)| = exp({mag_exp:.1f}) leaves double range at n={n}")
    d = scaling.theta_frac(n)
    return complex(z) * cmath.exp(complex(-n * (scaling.tau.value + 2.0) * lnq, -2.0 * math.pi * d))


def log_normalizer(n: int, z, scaling: Scaling, q) -> complex:
    """log of (-z)^n q^(n^2 (1 - s)), assembled with principal branches.

    This is the quantity ``sw_normalized`` implicitly divides out; only the
    small-degree reference path ever exponentiates it.
    """
    qv = QParam.of(q).q
    if z == 0:
        raise ZeroArgument("normalizer requires z != 0")
    lnq = math.log(qv)
    # (1 - s) log q = (-1 - tau) log q - 2 pi theta i
    one_minus_s_lnq = complex((-1.0 - scaling.tau.value) * lnq, -2.0 * math.pi * scaling.theta.value)
    return n * cmath.log(-complex(z)) + (n * n) * one_minus_s_lnq


def log_theta_normalizer(n: int, z, scaling: Scaling, q, m: int | None = None) -> complex:
    """log of the extra factor mapping the reversed sum onto the split form.

    Multiplying ``sw_normalized`` by exp of this value yields the same fully
    normalized quantity that ``sw_theta_normalized`` computes directly.
    """
    qv = QParam.of(q).q
    if z == 0:
        raise ZeroArgument("normalizer requires z != 0")
    if m is None:
        m, _ = scaling.minus_tau_split(n)
    half = m // 2
    lnq = math.log(qv)
    d = scaling.theta_frac(n)
    phase = cmath.exp(complex(0.0, -2.0 * math.pi * d))
    return (
        2.0 * math.log(qq_infinity(qv))
        + half * cmath.log(-complex(z) * phase)
        - half * (scaling.tau.value * n + half) * lnq
    )


def sw_normalized(n: int, z, scaling: Scaling, q) -> complex:
    """Reversed sum sum_k q^(k^2) e^(2 pi i k {n theta}) (-q^(tau n)/z)^k / ((q;q)_k (q;q)_{n-k}).

    Equals the degree-n polynomial at the scaled argument divided by
    (-z)^n q^(n^2 (1-s)).  Terms decay for tau >= 0; for tau < 0 the call is
    honored only while the interior term peak stays inside double range.
    """
    qv = QParam.of(q).q
    if z == 0:
        raise ZeroArgument("normalized evaluation requires z != 0")
    if n < 1:
        raise DomainTooLarge(f"n must be >= 1, got {n}")
    zc = complex(z)
    tau = scaling.tau.value
    lnq = math.log(qv)

    # Peak of log|q^(k^2 + tau n k) / z^k| over real k in [0, n].
    def log_term(k: float) -> float:
        return (k * k + tau * n * k) * lnq - k * math.log(abs(zc))

    k_star = (math.log(abs(zc)) / lnq - tau * n) / 2.0
    peak = max(log_term(0.0), log_term(float(n)), log_term(min(max(k_star, 0.0), float(n))))
    if peak > _LOG_LIMIT:
        raise PeakOverflow(f"term peak exp({peak:.1f}) at n={n}, tau={tau}; use the theta-centered form")

    d = scaling.theta_frac(n)
    base = -(qv ** (tau * n)) / zc * cmath.exp(complex(0.0, 2.0 * math.pi * d))
    prefix = _qq_prefix(qv)
    last = len(prefix) - 1
    total = complex(0.0)
    term = complex(1.0)
    qodd = qv
    k_break = int(math.ceil(max(k_star, 0.0))) + 1
    for k in range(n + 1):
        total += term / (prefix[min(k, last)] * prefix[min(n - k, last)])
        term *= base * qodd
        qodd *= qv * qv
        if k > k_break and abs(term) < _UNDERFLOW:
            break
    return total


@dataclass(frozen=True)
class SplitSumResult:
    """Fully normalized split evaluation and its fractional-part bookkeeping.

    ``value`` is s1 + s2; ``m`` and ``c_n`` split -tau*n into integer and
    fractional parts, ``d_n`` is {n theta}, and ``chi_m`` is the parity
    character of m.  With the default floor split, c_n lies in [0, 1); an
    explicit witness decomposition may push it slightly outside.
    """

    value: complex
    m: int
    c_n: float
    d_n: float
    chi_m: int
    s1: complex
    s2: complex


def sw_theta_normalized(n: int, z, scaling: Scaling, q, m: int | None = None) -> SplitSumResult:
    """Theta-centered split evaluation, stable for all n when -2 < tau < 0.

    Computes the reversed sum renormalized by
    (q;q)_inf^2 (-z e^(-2 pi i n theta))^(m//2) / q^((m//2)(tau n + m//2)),
    split at k = m//2.  Both halves run over the ratio weights
    (q;q)_inf^2 / ((q;q)_j (q;q)_{n-j}) in (0, 1], s1 at j = m//2 - k and s2
    at j = m//2 + k; every term is bounded by q^(k^2 - 2k) max(|z|, 1/|z|)^k,
    which is asserted during summation.

    ``m`` defaults to floor(-tau*n); an explicit value supports witness
    decompositions -tau*n = m + beta + residual whose fractional offset
    falls outside [0, 1).
    """
    qv = QParam.of(q).q
    tau = scaling.tau.value
    if not (-2.0 < tau < 0.0) or (scaling.tau.is_rational and not (-2 < scaling.tau.fraction < 0)):
        raise BadTau(f"split evaluation requires -2 < tau < 0, got {tau!r}")
    if z == 0:
        raise ZeroArgument("split evaluation requires z != 0")
    if n < 1:
        raise DomainTooLarge(f"n must be >= 1, got {n}")

    m_floor, c_floor = scaling.minus_tau_split(n)
    if m is None:
        m, c = m_floor, c_floor
    else:
        c = (m_floor - m) + c_floor
        if not (-1.0 < c < 2.0):
            raise BadTau(f"offset c = {c!r} too far from [0, 1); wrong m for this n?")
    d = scaling.theta_frac(n)
    parity = m - 2 * (m // 2)
    half = m // 2

    zc = complex(z)
    mag = max(abs(zc), 1.0 / abs(zc))
    prefix = _qq_prefix(qv)
    last = len(prefix) - 1
    qq2 = prefix[-1] ** 2
    exponent = parity + c                   # in [0, 2) on the floor path
    # Documented term bound q^(k^2 - 2k) max^k holds while the exponent stays
    # in [0, 2); witness decompositions may need the slightly wider window.
    guard_pow = 2.0 if 0.0 <= exponent <= 2.0 else 3.0
    guard_slack = 1.0 + 1e-9
    guard_floor = 1e-280

    def wing(ks: range, sign: int, w: complex, term: complex, qodd: float) -> complex:
        """Sum over ks of q^(k^2) w^k times the weight at j = m//2 + sign*k.

        ``term`` and ``qodd`` enter as q^(k^2) w^k and q^(2k+1) at the first k.
        """
        total = complex(0.0)
        for k in ks:
            j = half + sign * k
            ratio = qq2 / (prefix[min(j, last)] * prefix[min(n - j, last)])
            assert 0.0 < ratio <= 1.0
            contrib = term * ratio
            assert abs(contrib) <= mag**k * qv ** (k * (k - guard_pow)) * guard_slack + guard_floor
            total += contrib
            term *= w * qodd
            qodd *= qv * qv
            if k > 2 and abs(term) < _UNDERFLOW:
                break
        return total

    w1 = -zc * (qv**exponent) * cmath.exp(complex(0.0, -2.0 * math.pi * d))
    w2 = 1.0 / w1
    s1 = wing(range(half + 1), -1, w1, complex(1.0), qv)
    s2 = wing(range(1, n - half + 1), 1, w2, w2 * qv, qv**3)
    return SplitSumResult(value=s1 + s2, m=m, c_n=c, d_n=d, chi_m=parity, s1=s1, s2=s2)
