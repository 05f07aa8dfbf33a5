"""q-Pochhammer arithmetic with certified truncation.

Everything in this package lives in the regime 0 < q < 1, where infinite
q-products converge geometrically and every truncation admits an explicit
remainder bound.  This module supplies the finite products, the certified
infinite products, and the pair of tail remainders (with their rigorous
bounds) that the higher-level evaluators consume.  The constants of those
bounds are real products (x; q)_inf taken to saturation by ``_sat_poch``;
where a bound or a remainder leaves double range near q = 1, the
remainders are refused with OutOfRange.

The partial products (q; q)_j are held as one saturating tuple per q in a
small bounded cache, ``_qq_prefix``.  That tuple is the per-q context: an
evaluator validates q once, fetches the tuple once and reads
``prefix[min(j, last)]`` in its loops.

A certified quantity is a value together with a ``tail_bound`` that
rigorously dominates the truncation error.  Floating-point roundoff is not
included in the certificate; all series handled here have terms that decay
like q**(k*k), so accumulated roundoff stays at ulp scale.

One loop, ``_certify``, certifies every value of the package: the four
q-series of ``qspecial`` and the two products here.  Each evaluator hands it
an unstarted generator of (value, tail bound) steps; the loop refuses a tol
that is not > 0 before the generator runs, and returns the first step whose
tail is within tol.  The entire series of ``qspecial`` (A_q, B_q and A_q',
one generator) and the products are handed tol and yield only such steps.

Infinite products are certified in log space.  ``_product_steps`` (for
``qpoch_infinite`` and ``qspecial.theta_product``) multiplies out the
factors (1 - a q^k) while |a q^k| > 1/8, then sums
log (b; q)_inf = -sum_m b^m / (m (1 - q^m)) for the rest, whose tail shrinks
by 8 per term whatever q is.  It yields only the steps whose truncation
error is within tol and within tol |value|, so a value near q = 1 that is
as small as 1e-250 keeps its relative accuracy.  The cost is the head,
O(log(8 |a|) / (1 - q)) factors, plus O(log(1/tol)) series terms; a value
outside the normal double range raises OutOfRange instead of being
certified as 0 or inf.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import count

from .errors import HypothesisViolated, NonConvergent, OutOfRange

# Factors closer to 1 than this no longer change a double-precision product.
_SAT_EPS = 5e-18

# Hard cap on product length; hitting it signals arguments far outside the
# supported regime rather than a tolerance that merely needs more terms.
_HARD_CAP = 10**6

# Head factors (1 - a q^k) are multiplied out until |a q^k| <= _LOG_X0; the
# log series of the rest then gains a factor 8 per term.  Against 1/4, 1/8
# made eval-grid's theta_product and qpoch_infinite calls 10-16 % cheaper on
# average over q in (0.05, 0.99) and 14 % dearer at q = 0.99.
_LOG_X0 = 0.125

# Relative slack folded into every certificate to cover the coarse
# certification of the constants appearing inside the bounds themselves.
_NESTED_SLACK = 1e-14

# Term cap of the series; one that has not certified by then is refused.
_MAX_TERMS = 100_000


def _valid_q(q) -> float:
    """q as a float; OutOfRange unless it lies strictly inside (0, 1), where every series here converges."""
    qv = float(q)
    if not 0.0 < qv < 1.0:
        raise OutOfRange(f"q must lie strictly inside (0, 1), got {qv!r}")
    return qv


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


def _certify(steps, tol: float, name: str, var: str, arg, q: float,
             overflow: str = "{name} overflows double range (|{var}|={mag!r}, q={q!r})") -> CertifiedValue:
    """The first step (value, tail bound) of ``steps`` whose bound is <= tol, as a CertifiedValue.

    The one loop that certifies a value: every evaluator hands it an
    unstarted generator, so tol is refused before any of the generator's own
    checks or work runs.  A bound is NaN, which no tol accepts, until it
    bounds the rest.  OutOfRange for a tol not > 0; for an OverflowError in a
    step, or a non-finite value in a step that certifies, with ``overflow``
    filled in from ``name``, ``var``, ``arg``, its magnitude ``mag`` and
    ``q``; and for steps that run out, as a series does after ``_MAX_TERMS``
    terms.
    """
    if not tol > 0.0:
        raise OutOfRange(f"tol must be > 0, got {tol!r}")
    try:
        for value, tail in steps:
            if tail <= tol:
                if not cmath.isfinite(value):
                    raise OverflowError("value left double range")
                return CertifiedValue(value, tail)
    except OverflowError as exc:
        raise OutOfRange(overflow.format(name=name, var=var, arg=arg, mag=abs(arg), q=q)) from exc
    raise OutOfRange(f"{name} did not certify within {_MAX_TERMS} terms")


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
    qv = _valid_q(q)
    if n < 0:
        raise OutOfRange(f"n must be >= 0, got {n}")
    prefix = _qq_prefix(qv)
    return prefix[min(n, len(prefix) - 1)]


def qq_infinity(q) -> float:
    """(q; q)_infinity to double precision."""
    return _qq_prefix(_valid_q(q))[-1]


def _sat_poch(x: float, q: float) -> float:
    """(x; q)_infinity for real x: the factors (1 - x q^k) multiplied until |x q^k| <= _SAT_EPS."""
    p = 1.0
    while abs(x) > _SAT_EPS:
        p *= 1.0 - x
        x *= q
    return p


def qpoch_finite(a, q, n: int):
    """Finite product prod_{k=0}^{n-1} (1 - a q^k); the empty product is 1.

    Accepts real or complex a and preserves the input kind in the result.
    Raises OutOfRange for a non-finite a and for a product that leaves
    double range.
    """
    qv = _valid_q(q)
    if n < 0:
        raise OutOfRange(f"n must be >= 0, got {n}")
    if not cmath.isfinite(a):
        raise OutOfRange(f"a must be finite, got {a!r}")
    p = complex(1.0) if isinstance(a, complex) else 1.0
    f = 1.0
    for _ in range(n):
        p = p * (1.0 - a * f)
        f *= qv
    if not cmath.isfinite(p):   # a non-finite factor never turns finite again
        raise OutOfRange(f"(a; q)_{n} leaves double range for a={a!r}, q={qv!r}")
    return p


def _log_poch(a, q: float):
    """(head, sums) for (a; q)_infinity in log form, for 0 <= q < 1.

    ``head`` is the product of the factors (1 - a q^k) for k < K, with
    K = ceil(log(|a| / _LOG_X0) / -log q), so |a q^K| <= _LOG_X0 up to
    rounding.  ``sums`` yields, for M = 0, 1, ..., the
    partial sum -sum_{m<=M} b^m / (m (1 - q^m)) of log (b; q)_infinity,
    b = a q^K, with the tail bound |b|^(M+1) / ((M+1) (1 - q) (1 - |b|)),
    which holds because 1 - q^m >= 1 - q.  An exact zero factor gives head 0
    and sums of 0.  Real a stays real.

    Raises NonConvergent for a non-finite |a| or more than _HARD_CAP head
    factors, OutOfRange for a head that leaves the normal double range
    without a zero factor: it never stands in for a 0, and OverflowError for
    |a| > _LOG_X0 at q = 0, a q^2 of theta_product's that underflowed.
    """
    a_abs = abs(a)
    if a_abs > _LOG_X0 and q == 0.0:
        raise OverflowError("q underflows to 0")
    steps = math.log(a_abs / _LOG_X0) / -math.log(q) if a_abs > _LOG_X0 else 0.0
    if not (math.isfinite(a_abs) and steps <= _HARD_CAP):
        raise NonConvergent(f"no certified truncation point for |a|={a_abs!r}, q={q!r}")
    big_k = math.ceil(steps)
    head = complex(1.0) if isinstance(a, complex) else 1.0
    for k in range(big_k):
        head *= 1.0 - a * q**k      # q**k, not a running product: no drift over many factors
    b = a * q**big_k
    if not sys.float_info.min <= abs(head) < math.inf:
        if all(1.0 - a * q**k != 0.0 for k in range(big_k)):
            raise OutOfRange(f"(a; q)_inf leaves double range for a={a!r}, q={q!r}")
        head = b = b - b    # an exact zero factor, 0 of a's kind
    return head, _log_sums(b, q)


def _log_sums(b, q: float):
    """Partial sums of log (b; q)_inf = -sum_m b^m / (m (1 - q^m)) with their tail bounds; see ``_log_poch``."""
    mag, omq = abs(b), 1.0 - q
    scale = mag / (omq * (1.0 - mag))    # |b|^m / ((1 - q) (1 - |b|))
    partial, bm, den = b - b, b, omq     # partial = 0 of b's kind; den = 1 - q^m, summed without cancellation
    for m in count(1):
        yield partial, scale / m           # M = m - 1 terms summed
        partial -= bm / (m * den)
        scale *= mag
        bm *= b
        den = omq + q * den


def _product_steps(factors, q: float, tol: float, floor: float = 0.0):
    """Steps of the product over a in ``factors`` of (a; q)_inf that certify to tol, for ``_certify``.

    Each factor's head and log series come from ``_log_poch``; the log series
    are summed in one pass and exponentiated once.  At a step whose log tail
    is <= tol, the value prod(heads) * exp(partial) is off by at most
    |value| expm1(tail); that bound, with _NESTED_SLACK for its own rounding,
    is yielded (raised to ``floor``) once it is <= tol and <= tol |value|, so
    the value is certified both absolutely and relatively.  A zero head is an
    exact zero factor and gives 0 with tail ``floor``.  OverflowError for a
    value outside the normal double range.
    """
    if len(factors) == 1:   # qpoch_infinite's one factor, spared the zips that pair theta_product's three
        head, sums = _log_poch(factors[0], q)
        heads = (head,)
    else:
        heads, sums = zip(*[_log_poch(a, q) for a in factors])
        sums = ((p1 + p2 + p3, t1 + t2 + t3) for (p1, t1), (p2, t2), (p3, t3) in zip(*sums))
    head = math.prod(heads)
    if 0.0 in heads:
        yield head, floor
        return
    for partial, tail in sums:
        if tail <= tol:   # expm1(tail) >= tail
            rel = math.expm1(tail) * (1.0 + _NESTED_SLACK)
            value = head * (cmath.exp(partial) if isinstance(partial, complex) else math.exp(partial))
            if rel * max(1.0, abs(value)) <= tol or not abs(value) < math.inf:
                if not sys.float_info.min <= abs(value) < math.inf:
                    raise OverflowError("product left the normal double range")
                tail = abs(value) * rel
                yield value, tail if tail > floor else floor   # max(), but cheaper on this path


def qpoch_infinite(a, q, tol: float) -> CertifiedValue:
    """(a; q)_infinity, certified to tol absolutely and relatively.

    The factors (1 - a q^k) are multiplied out while |a q^k| > _LOG_X0, and
    the rest is summed as log (b; q)_inf = -sum_m b^m / (m (1 - q^m)); the
    log tail gains a factor 1/_LOG_X0 per term, so the cost is
    O(log(|a|/_LOG_X0) / (1 - q) + log(1/tol)) at every q, and the value
    keeps its relative accuracy where it is tiny or huge.  Complex a is
    allowed; real a stays real.  An exact zero factor gives 0 with tail 0.

    Raises NonConvergent for a non-finite |a| or a head longer than the hard
    cap, and OutOfRange for a value outside the normal double range.
    """
    qv = _valid_q(q)
    return _certify(_product_steps((a,), qv, tol), tol, "(a; q)_inf", "a", a, qv,
                    "{name} leaves double range for {var}={arg!r}, q={q!r}")


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
    HypothesisViolated is raised.  Near q = 1, where a bound or R2 leaves
    double range, OutOfRange names a, q and n.
    """
    qv = _valid_q(q)
    if not a >= 0.0:
        raise OutOfRange(f"a must be >= 0, got {a!r}")
    if n < 0:
        raise OutOfRange(f"n must be >= 0, got {n}")
    if a * qv >= 1.0 or (n == 0 and a >= 1.0):
        raise HypothesisViolated(f"R2 needs a*q < 1 (and a < 1 at n=0): a={a!r}, q={qv!r}, n={n}")

    aqn = a * qv**n
    # R1 bound constant: (-a q^2; q)_infinity, inflated by 1e-12 relative to
    # stay a rigorous upper bound.  R2 bound denominator: (a q; q)_infinity for
    # n >= 1 (the n-free form); at n = 0 that majorization flips, so fall
    # back to (a; q)_infinity, which the same expansion still dominates.
    # Deflate so dividing keeps the bound rigorous.
    r1_bound = _sat_poch(-a * qv * qv, qv) * (1.0 + 1e-12) * aqn / (1.0 - qv)
    den = (1.0 - qv) * _sat_poch(a * qv if n >= 1 else a, qv) * (1.0 - 1e-12)

    # Actuals through log1p/expm1 so remainders keep full relative accuracy
    # even far below one ulp of 1, where plain products quantize.
    log_sum = 0.0
    f = aqn
    while f > 1e-20 * (1.0 + abs(log_sum)):
        log_sum += math.log1p(-f)
        f *= qv
    try:
        r2_bound = aqn / den
        r2 = math.expm1(-log_sum)
    except (ZeroDivisionError, OverflowError):   # den underflowed to 0, or R2 left double range
        raise OutOfRange(f"remainders or their bounds leave double range for a={a!r}, q={qv!r}, n={n}") from None
    if not (r1_bound < math.inf and r2_bound < math.inf):
        raise OutOfRange(f"remainders or their bounds leave double range for a={a!r}, q={qv!r}, n={n}")
    return PochTailRemainders(R1=math.expm1(log_sum), R1_bound=r1_bound, R2=r2, R2_bound=r2_bound)
