"""Entire q-series and the Jacobi theta function, with certified tails.

Provides the alternating entire series A_q and its positive-term majorant
B_q, the term-wise derivative of A_q, and the theta function evaluated two
independent ways: as the symmetric bilateral series (canonical form, used
by all asymptotic main terms) and as the triple product of infinite
q-shifted factorials (cross-check form).

One loop, ``_certify``, certifies the three series: each yields its partial
sums with geometric tail bounds, and the first finite sum whose bound is
within tol is returned with that bound as ``tail_bound``.
"""

from __future__ import annotations

import cmath
import math
from itertools import count, islice

from .errors import OutOfRange, ZeroArgument
from .qcore import CertifiedValue, QParam, _log_certify, _log_poch, _qq_prefix

_MAX_TERMS = 100_000


def _certify(sums, arg, q: float, tol: float, name: str, var: str) -> CertifiedValue:
    """The first partial sum of ``sums(arg, q)`` whose tail bound is <= tol.

    ``sums`` yields (partial sum, tail bound) per term; the bound is NaN, which
    no tol accepts, until the tail is geometric with ratio <= 1/2.  OutOfRange
    for a tol not > 0, a non-finite ``arg``, a sum or power that leaves double
    range, or no certificate within ``_MAX_TERMS`` terms; ``name`` and ``var``
    label the message.
    """
    if not tol > 0.0:
        raise OutOfRange(f"tol must be > 0, got {tol!r}")
    if not cmath.isfinite(arg):
        raise OutOfRange(f"{name} argument must be finite, got |{var}|={abs(arg)!r}")
    try:
        for total, tail in islice(sums(arg, q), _MAX_TERMS):
            if tail <= tol:
                if not cmath.isfinite(total):
                    raise OverflowError("series sum left double range")
                return CertifiedValue(total, tail)
    except OverflowError as exc:
        raise OutOfRange(f"{name} overflows double range (|{var}|={abs(arg)!r}, q={q!r})") from exc
    raise OutOfRange(f"{name} did not certify within {_MAX_TERMS} terms")


def _qq_floor(q: float) -> float:
    """(q; q)_inf deflated by 1e-12 relative, so dividing by it keeps a tail bound rigorous; q is validated."""
    qq_lo = _qq_prefix(q)[-1] * (1.0 - 1e-12)
    if qq_lo == 0.0:
        raise OutOfRange(f"q = {q!r} is too close to 1: (q;q)_inf underflows to 0")
    return qq_lo


def _entire_sums(w, q: float):
    """Partial sums of sum_k q^(k^2) w^k / (q; q)_k; real w stays real."""
    mag = abs(w)
    qq_lo = _qq_floor(q)
    total = complex(0.0) if isinstance(w, complex) else 0.0
    term_pow = 1.0   # q^(k^2)
    wk = complex(1.0) if isinstance(w, complex) else 1.0
    poch = 1.0       # (q; q)_k
    qodd = q         # q^(2k+1)
    for k in count():
        total += term_pow * wk / poch
        head = term_pow * qodd * mag**(k + 1)    # q^((k+1)^2) |w|^(k+1)
        ratio = qodd * q * q * mag               # q^(2k+3) |w|
        yield total, head / ((1.0 - ratio) * qq_lo) if ratio <= 0.5 else math.nan
        term_pow *= qodd
        qodd *= q * q
        wk = wk * w
        poch *= 1.0 - q**(k + 1)


def _derivative_sums(z: complex, q: float):
    """Partial sums of sum_{k>=1} k q^(k^2) (-1)^k z^(k-1) / (q; q)_k."""
    mag = abs(z)
    qq_lo = _qq_floor(q)
    total = complex(0.0)
    term_pow = q        # q^(k^2) at k = 1
    zk = complex(1.0)   # z^(k-1)
    poch = 1.0 - q      # (q; q)_k
    sign = -1.0
    qodd = q**3         # q^(2k+1)
    for k in count(1):
        total += sign * k * term_pow * zk / poch
        head = (k + 1) * term_pow * qodd * mag**k   # (k+1) q^((k+1)^2) |z|^k
        ratio = 2.0 * qodd * q * q * mag            # covers (j+1)/j growth too
        yield total, head / ((1.0 - ratio) * qq_lo) if ratio <= 0.5 else math.nan
        term_pow *= qodd
        qodd *= q * q
        zk = zk * z
        poch *= 1.0 - q**(k + 1)
        sign = -sign


def _theta_sums(z: complex, q: float):
    """Symmetric partial sums of sum_{n in Z} q^(n^2) z^n over |n| <= N, N = 0, 1, ...

    The wings have a geometric tail once q^(2N+1) max(|z|, 1/|z|) drops below 1/2.
    """
    mag = max(abs(z), 1.0 / abs(z))
    total = complex(1.0)
    zp = complex(1.0)
    zm = complex(1.0)
    term_pow = 1.0   # q^(n^2)
    qodd = q         # q^(2n+1)
    for n in count():
        head = term_pow * qodd * mag**(n + 1)   # q^((n+1)^2) M^(n+1)
        ratio = qodd * q * q * mag
        yield total, 2.0 * head / (1.0 - ratio) if ratio <= 0.5 else math.nan
        term_pow *= qodd
        qodd *= q * q
        zp = zp * z
        zm = zm / z
        total += term_pow * (zp + zm)


def ramanujan_Aq(z, q, tol: float = 1e-12) -> CertifiedValue:
    """Entire alternating series sum_k q^(k^2) (-z)^k / (q; q)_k."""
    w = -z if isinstance(z, complex) else complex(-z)
    return _certify(_entire_sums, w, QParam.of(q).q, tol, "series", "w")


def Bq(x: float, q, tol: float = 1e-12) -> CertifiedValue:
    """Positive-term majorant sum_k q^(k^2) x^k / (q; q)_k for x >= 0.

    Real-valued, >= 1, and nondecreasing in x; dominates |A_q| on |z| = x.
    """
    if x < 0.0:
        raise OutOfRange(f"x must be >= 0, got {x!r}")
    return _certify(_entire_sums, float(x), QParam.of(q).q, tol, "series", "w")


def Aq_derivative(z, q, tol: float = 1e-12) -> CertifiedValue:
    """Term-wise derivative sum_{k>=1} k q^(k^2) (-1)^k z^(k-1) / (q; q)_k."""
    return _certify(_derivative_sums, complex(z), QParam.of(q).q, tol, "derivative series", "z")


def theta_series(z, q, tol: float = 1e-12) -> CertifiedValue:
    """Bilateral series sum_{n in Z} q^(n^2) z^n, summed symmetrically."""
    qv = QParam.of(q).q
    if z == 0:
        raise ZeroArgument("theta series requires z != 0")
    return _certify(_theta_sums, complex(z), qv, tol, "theta series", "z")


def theta_product(z, q, tol: float = 1e-12) -> CertifiedValue:
    """Theta via the triple product (q^2; q^2)_inf (-qz; q^2)_inf (-q/z; q^2)_inf.

    Kept as an independent cross-check of ``theta_series``.  The three
    factors' log series are summed in one pass and exponentiated once, so the
    value is certified to tol absolutely and relatively, as in
    ``qpoch_infinite``.  The reported tail is never below tol * 2^-53, half
    an ulp of tol: a bilateral series, however precise, resolves theta only
    on the scale of its largest terms, so a tail far below that cannot be
    confirmed by the series form that this function cross-checks.
    """
    qv = QParam.of(q).q
    if z == 0:
        raise ZeroArgument("theta product requires z != 0")
    if not tol > 0.0:
        raise OutOfRange(f"tol must be > 0, got {tol!r}")
    zc = complex(z)
    q2 = qv * qv
    heads, sums = zip(*(_log_poch(a, q2) for a in (q2, -qv * zc, -qv / zc)))
    parts = ((p1 + p2 + p3, t1 + t2 + t3) for (p1, t1), (p2, t2), (p3, t3) in zip(*sums))
    cv = _log_certify(heads, parts, tol)
    if cv is None:
        raise OutOfRange(f"theta product leaves double range (|z|={abs(zc)!r}, q={qv!r})")
    return CertifiedValue(cv.value, max(cv.tail_bound, tol * 2.0**-53))
