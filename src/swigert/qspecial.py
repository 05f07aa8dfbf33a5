"""Entire q-series and the Jacobi theta function, with certified tails.

Provides the alternating entire series A_q and its positive-term majorant
B_q, the term-wise derivative of A_q, and the theta function evaluated two
independent ways: as the symmetric bilateral series (canonical form, used
by all asymptotic main terms) and as the triple product of infinite
q-shifted factorials (cross-check form).

Every value here is certified by ``qcore._certify``, the one loop that also
certifies the products: each series is a generator of its partial sums with
geometric tail bounds that refuses a non-finite argument when it starts, and
the loop returns the first finite sum whose bound is within tol, with that
bound as ``tail_bound``.  ``theta_product`` hands the loop the product steps
of ``qcore``.
"""

from __future__ import annotations

import cmath
import math

from .errors import OutOfRange, ZeroArgument
from .qcore import _MAX_TERMS, CertifiedValue, _certify, _product_steps, _qq_prefix, _valid_q


def _qq_floor(q: float) -> float:
    """(q; q)_inf deflated by 1e-12 relative, so dividing by it keeps a tail bound rigorous; q is validated."""
    qq_lo = _qq_prefix(q)[-1] * (1.0 - 1e-12)
    if qq_lo == 0.0:
        raise OutOfRange(f"q = {q!r} is too close to 1: (q;q)_inf underflows to 0")
    return qq_lo


def _entire_sums(w, q: float):
    """Partial sums of sum_k q^(k^2) w^k / (q; q)_k; real w stays real."""
    if not cmath.isfinite(w):
        raise OutOfRange(f"series argument must be finite, got |w|={abs(w)!r}")
    mag = abs(w)
    qq_lo = _qq_floor(q)
    total = complex(0.0) if isinstance(w, complex) else 0.0
    term_pow = 1.0   # q^(k^2)
    wk = complex(1.0) if isinstance(w, complex) else 1.0
    poch = 1.0       # (q; q)_k
    qodd = q         # q^(2k+1)
    for k in range(_MAX_TERMS):
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
    if not cmath.isfinite(z):
        raise OutOfRange(f"derivative series argument must be finite, got |z|={abs(z)!r}")
    mag = abs(z)
    qq_lo = _qq_floor(q)
    total = complex(0.0)
    term_pow = q        # q^(k^2) at k = 1
    zk = complex(1.0)   # z^(k-1)
    poch = 1.0 - q      # (q; q)_k
    sign = -1.0
    qodd = q**3         # q^(2k+1)
    for k in range(1, _MAX_TERMS + 1):
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
    if not cmath.isfinite(z):
        raise OutOfRange(f"theta series argument must be finite, got |z|={abs(z)!r}")
    mag = max(abs(z), 1.0 / abs(z))
    total = complex(1.0)
    zp = complex(1.0)
    zm = complex(1.0)
    term_pow = 1.0   # q^(n^2)
    qodd = q         # q^(2n+1)
    for n in range(_MAX_TERMS):
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
    w, qv = (-z if isinstance(z, complex) else complex(-z)), _valid_q(q)
    return _certify(_entire_sums(w, qv), tol, "series", "w", w, qv)


def Bq(x: float, q, tol: float = 1e-12) -> CertifiedValue:
    """Positive-term majorant sum_k q^(k^2) x^k / (q; q)_k for x >= 0.

    Real-valued, >= 1, and nondecreasing in x; dominates |A_q| on |z| = x.
    """
    if x < 0.0:
        raise OutOfRange(f"x must be >= 0, got {x!r}")
    w, qv = float(x), _valid_q(q)
    return _certify(_entire_sums(w, qv), tol, "series", "w", w, qv)


def Aq_derivative(z, q, tol: float = 1e-12) -> CertifiedValue:
    """Term-wise derivative sum_{k>=1} k q^(k^2) (-1)^k z^(k-1) / (q; q)_k."""
    zc, qv = complex(z), _valid_q(q)
    return _certify(_derivative_sums(zc, qv), tol, "derivative series", "z", zc, qv)


def theta_series(z, q, tol: float = 1e-12) -> CertifiedValue:
    """Bilateral series sum_{n in Z} q^(n^2) z^n, summed symmetrically."""
    qv = _valid_q(q)
    if z == 0:
        raise ZeroArgument("theta series requires z != 0")
    zc = complex(z)
    return _certify(_theta_sums(zc, qv), tol, "theta series", "z", zc, qv)


def theta_product(z, q, tol: float = 1e-12) -> CertifiedValue:
    """Theta via the triple product (q^2; q^2)_inf (-qz; q^2)_inf (-q/z; q^2)_inf.

    Kept as an independent cross-check of ``theta_series``.  The three
    factors' log series are summed in one pass and exponentiated once, so the
    value is certified to tol absolutely and relatively, as in
    ``qpoch_infinite``.  The reported tail is never below tol * 2^-53, half
    an ulp of tol, for a finite tol: a bilateral series, however precise,
    resolves theta only on the scale of its largest terms, so a tail far
    below that cannot be confirmed by the series form that this function
    cross-checks.
    """
    qv = _valid_q(q)
    if z == 0:
        raise ZeroArgument("theta product requires z != 0")
    zc, q2 = complex(z), qv * qv
    steps = _product_steps((q2, -qv * zc, -qv / zc), q2, tol, tol * 2.0**-53 if tol < math.inf else 0.0)
    return _certify(steps, tol, "theta product", "z", zc, qv, "{name} leaves double range (|{var}|={mag!r}, q={q!r})")
