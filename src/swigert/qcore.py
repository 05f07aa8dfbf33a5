"""q-Pochhammer arithmetic with certified truncation.

Everything in this package lives in the regime 0 < q < 1, where infinite
q-products converge geometrically and every truncation admits an explicit
remainder bound.  This module supplies the finite products, the certified
infinite products, and the pair of tail remainders (with their rigorous
bounds) that the higher-level evaluators consume.

The partial products (q; q)_j are held as one saturating tuple per q in a
small bounded cache, ``_qq_prefix``.  That tuple is the per-q context: an
evaluator validates q once, fetches the tuple once and reads
``prefix[min(j, last)]`` in its loops.

A certified quantity is a value together with a ``tail_bound`` that
rigorously dominates the truncation error.  Floating-point roundoff is not
included in the certificate; all series handled here have terms that decay
like q**(k*k), so accumulated roundoff stays at ulp scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import HypothesisViolated, NonConvergent, OutOfRange

# Factors closer to 1 than this no longer change a double-precision product.
_SAT_EPS = 5e-18

# Hard cap on product length; hitting it signals arguments far outside the
# supported regime rather than a tolerance that merely needs more terms.
_HARD_CAP = 10**6

# Relative slack folded into every certificate to cover the coarse
# certification of the constants appearing inside the bounds themselves.
_NESTED_SLACK = 1e-14


@dataclass(frozen=True)
class QParam:
    """Base q of all series here, constrained to the open interval (0, 1)."""

    q: float

    def __post_init__(self) -> None:
        if not (0.0 < self.q < 1.0) or not math.isfinite(self.q):
            raise OutOfRange(f"q must lie strictly inside (0, 1), got {self.q!r}")

    @classmethod
    def of(cls, q) -> "QParam":
        return q if isinstance(q, QParam) else cls(float(q))


@dataclass(frozen=True)
class CertifiedValue:
    """A computed scalar plus a rigorous bound on its truncation error."""

    value: complex
    tail_bound: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.tail_bound) or self.tail_bound < 0.0:
            raise OutOfRange(f"tail_bound must be finite and >= 0, got {self.tail_bound!r}")

    @property
    def real(self) -> float:
        return complex(self.value).real


@lru_cache(maxsize=16)
def _qq_prefix(q: float) -> tuple[float, ...]:
    """Partial products (q; q)_j for j = 0, 1, ... until saturation.

    The list stops once the next factor 1 - q**j rounds to 1.0, so its last
    entry equals (q; q)_infinity to double precision.
    """
    out = [1.0]
    f = q
    while f > _SAT_EPS:
        out.append(out[-1] * (1.0 - f))
        f *= q
        if len(out) > _HARD_CAP:
            raise NonConvergent("(q;q)_n prefix did not saturate")
    return tuple(out)


def qpoch_q_n(q, n: int) -> float:
    """(q; q)_n, saturating to (q; q)_infinity once factors stop mattering."""
    qv = QParam.of(q).q
    if n < 0:
        raise OutOfRange(f"n must be >= 0, got {n}")
    prefix = _qq_prefix(qv)
    return prefix[min(n, len(prefix) - 1)]


def qq_infinity(q) -> float:
    """(q; q)_infinity to double precision."""
    return _qq_prefix(QParam.of(q).q)[-1]


@lru_cache(maxsize=64)
def _abs_aq2_constant(a_abs: float, q: float) -> float:
    """Upper bound for (-a q^2; q)_infinity with a >= 0.

    Computed to saturation and inflated by 1e-12 relative so it can serve as
    a rigorous constant inside tail certificates.
    """
    p = 1.0
    f = a_abs * q * q
    while f > _SAT_EPS:
        p *= 1.0 + f
        f *= q
    return p * (1.0 + 1e-12)


def qpoch_finite(a, q, n: int):
    """Finite product prod_{k=0}^{n-1} (1 - a q^k); the empty product is 1.

    Accepts real or complex a and preserves the input kind in the result.
    """
    qv = QParam.of(q).q
    if n < 0:
        raise OutOfRange(f"n must be >= 0, got {n}")
    p = complex(1.0) if isinstance(a, complex) else 1.0
    f = 1.0
    for _ in range(n):
        p = p * (1.0 - a * f)
        f *= qv
    return p


def qpoch_infinite(a, q, tol: float) -> CertifiedValue:
    """(a; q)_infinity as a partial product with a certified tail.

    The product is cut at the first N whose remainder bound
    ``(-|a| q^2; q)_inf * |a| q^N / (1 - q) * |(a; q)_N|`` falls below
    ``tol``; that bound (with nested-constant slack folded in) is returned
    as the tail.  Complex a is allowed: the remainder is majorized through
    |a|, in which the bound is monotone.

    Raises NonConvergent if the certificate cannot be met within the hard
    iteration cap, which signals |a| far too large for double precision.
    """
    qv = QParam.of(q).q
    if tol <= 0.0:
        raise OutOfRange(f"tol must be > 0, got {tol!r}")
    a_abs = abs(a)
    growth = _abs_aq2_constant(a_abs, qv)
    p = complex(1.0) if isinstance(a, complex) else 1.0
    qn = 1.0
    for _ in range(_HARD_CAP):
        tail = growth * a_abs * qn * abs(p) / (1.0 - qv)
        tail *= 1.0 + _NESTED_SLACK
        if tail <= tol:
            return CertifiedValue(p, tail)
        p = p * (1.0 - a * qn)
        qn *= qv
        if not math.isfinite(abs(p)):
            break
    raise NonConvergent(f"no certified truncation point for |a|={a_abs!r}, q={qv!r}, tol={tol!r}")


@dataclass(frozen=True)
class PochTailRemainders:
    """Actual tail remainders of (a q^n; q)_infinity and their bounds.

    R1 is (a q^n; q)_inf - 1 and R2 is 1/(a q^n; q)_inf - 1; each comes with
    the rigorous bound that tests assert against.
    """

    R1: float
    R1_bound: float
    R2: float
    R2_bound: float


def poch_tail_remainders(a: float, q, n: int) -> PochTailRemainders:
    """Evaluate both remainders and their certified bounds at (a, q, n).

    Requires a >= 0.  The R2 branch additionally needs a*q < 1 (and a < 1
    when n = 0) so that 1/(a q^n; q)_infinity exists; otherwise
    HypothesisViolated is raised.
    """
    qv = QParam.of(q).q
    if a < 0.0:
        raise OutOfRange(f"a must be >= 0, got {a!r}")
    if n < 0:
        raise OutOfRange(f"n must be >= 0, got {n}")
    if a * qv >= 1.0 or (n == 0 and a >= 1.0):
        raise HypothesisViolated(f"R2 needs a*q < 1 (and a < 1 at n=0): a={a!r}, q={qv!r}, n={n}")

    aqn = a * qv**n
    r1_bound = _abs_aq2_constant(a, qv) * aqn / (1.0 - qv)
    # R2 bound denominator: (a q; q)_infinity for n >= 1 (the n-free form);
    # at n = 0 that majorization flips, so fall back to (a; q)_infinity,
    # which the same expansion still dominates.  Deflate so dividing keeps
    # the bound rigorous.
    p = 1.0
    f = a * qv if n >= 1 else a
    while f > _SAT_EPS:
        p *= 1.0 - f
        f *= qv
    r2_bound = aqn / ((1.0 - qv) * p * (1.0 - 1e-12))

    # Actuals through log1p/expm1 so remainders keep full relative accuracy
    # even far below one ulp of 1, where plain products quantize.
    log_sum = 0.0
    f = aqn
    while f > 1e-20 * (1.0 + abs(log_sum)):
        log_sum += math.log1p(-f)
        f *= qv
    r1 = math.expm1(log_sum)
    r2 = math.expm1(-log_sum)
    return PochTailRemainders(R1=r1, R1_bound=r1_bound, R2=r2, R2_bound=r2_bound)
