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

A_q, B_q and the derivative share one generator, ``_entire_sums``: its shift
0 is the series of A_q and B_q, and its shift 1 is the derivative of that
series in w, the same series one index on, so A_q'(z) is minus its value at
w = -z.  The shift sets only the start state and a multiplier, so the loop
has no branch on it.  Given tol, the generator yields only the steps whose
tail is within it.
"""

from __future__ import annotations

import cmath
import math

from .errors import OutOfRange, ZeroArgument
from .qcore import _MAX_TERMS, CertifiedValue, _certify, _product_steps, _qq_prefix, _valid_q


def _entire_sums(w, q: float, tol: float, shift: int = 0, name: str = "series", var: str = "w"):
    """Partial sums of sum_k C(k+s, s) q^((k+s)^2) w^k / (q; q)_(k+s), shift s = 0 or 1; real w stays real.

    Shift 0 is the series of A_q and B_q; shift 1 is its derivative in w,
    the same series one index on.  The shift sets only the start state and
    the multiplier C(k+s, s), which grows by s per term.  The tail after
    term k is at most the next term over (1 - ratio) (q; q)_inf, where
    ratio = (1 + s) q^(2(k+s)+3) |w| <= 1/2 also covers the multiplier's
    growth.  Only the steps whose tail is within tol are yielded, which
    spares ``_certify`` a step per term; a non-finite w is refused under the
    ``name`` and ``var`` that ``_certify`` gets.
    """
    if not cmath.isfinite(w):
        raise OutOfRange(f"{name} argument must be finite, got |{var}|={abs(w)!r}")
    qq_lo = _qq_prefix(q)[-1] * (1.0 - 1e-12)   # deflated, so dividing by it keeps a tail bound rigorous
    if qq_lo == 0.0:
        raise OutOfRange(f"q = {q!r} is too close to 1: (q;q)_inf underflows to 0")
    # (1 + s) q is exact, 1 + s being 1 or 2: qodd * gq rounds the same real as (1 + s) * qodd * q
    mag, q2, grow = abs(w), q * q, 1.0 + shift
    gq, step = grow * q, grow - 1.0
    total = complex(0.0) if isinstance(w, complex) else 0.0
    wk = complex(1.0) if isinstance(w, complex) else 1.0
    term_pow = q**shift               # q^((k+s)^2)
    poch = 1.0 - shift * q            # (q; q)_(k+s)
    qodd = q**(2 * shift + 1)         # q^(2(k+s)+1)
    mult = 1.0                        # C(k+s, s)
    for j in range(1, _MAX_TERMS + 1):   # j = k + 1
        total += mult * term_pow * wk / poch
        mult += step
        head = mult * term_pow * qodd * mag**j   # C(k+1+s, s) q^((k+1+s)^2) |w|^(k+1)
        ratio = qodd * gq * q * mag
        if ratio <= 0.5 and (tail := head / ((1.0 - ratio) * qq_lo)) <= tol:
            yield total, tail
        term_pow *= qodd
        qodd *= q2
        wk = wk * w
        poch *= 1.0 - q**(j + shift)


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
    return _certify(_entire_sums(w, qv, tol), tol, "series", "w", w, qv)


def Bq(x: float, q, tol: float = 1e-12) -> CertifiedValue:
    """Positive-term majorant sum_k q^(k^2) x^k / (q; q)_k for x >= 0.

    Real-valued, >= 1, and nondecreasing in x; dominates |A_q| on |z| = x.
    """
    if x < 0.0:
        raise OutOfRange(f"x must be >= 0, got {x!r}")
    w, qv = float(x), _valid_q(q)
    return _certify(_entire_sums(w, qv, tol), tol, "series", "w", w, qv)


def Aq_derivative(z, q, tol: float = 1e-12) -> CertifiedValue:
    """Term-wise derivative sum_{k>=1} k q^(k^2) (-1)^k z^(k-1) / (q; q)_k.

    That is minus the shift-1 entire series at w = -z; 0.0 - value, not
    -value, keeps a zero part of the sum +0.0.
    """
    w, qv = -complex(z), _valid_q(q)
    cv = _certify(_entire_sums(w, qv, tol, 1, "derivative series", "z"), tol, "derivative series", "z", w, qv)
    return CertifiedValue(0.0 - cv.value, cv.tail_bound)


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
