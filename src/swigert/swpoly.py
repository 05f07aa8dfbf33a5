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

Each normalized sum has one implementation, a private batch kernel:
``_reversed_sums`` and ``_split_sums`` hold a sweep's rows as numpy arrays
and loop over k once, updating every live row per step.  Both kernels run
one step, ``_step``, and differ only in their row setup: the reversed sum
is a single pass over j = k, the split sum two wings around m//2 that join
into one pass.  ``sw_normalized`` and ``sw_theta_normalized`` are their
one-row calls.  The tests hold each sum once more as a scalar k-loop, the
kernels' bit-for-bit oracle.
The kernels give each row the scalar loop's bits by one rule: a complex
value is a pair of float64 arrays (real, imaginary), and each complex
product or quotient is written out with one ufunc per operation in the order
CPython's ``_Py_c_prod`` and ``_Py_c_quot`` use, a float operand entering as
complex(x, 0.0) together with its ``* 0.0`` terms; magnitudes use
``np.hypot``, as ``abs`` does.  complex128 arrays break the rule: on hosts
with AVX-512 and FMA, numpy's complex product and ``np.abs`` differ from
CPython's in the last bit for a large share of inputs.  Per-row setup (the
orbit splits, ``cmath.exp``, ``q**x``, the peak check) stays scalar Python,
because ``np.exp`` and ``np.power`` do not promise CPython's bits either; it
is O(rows), the summation O(rows * k).

A row leaves the pass as soon as no later term can change a bit of its sum,
which in double precision comes about four times sooner than the 1e-300
underflow of its term; the sum is then the one the loop to underflow gives.
Past its ``k_break``, after the step that formed term t_(k+1), a row
retires when r = |w| q^(2k+3) <= 1/2, so every later term is smaller than
t_(k+1), and when B = |t_(k+1)| (1 + 2^-40) / lo is below a quarter of
``np.spacing`` of |s_re| and of |s_im|.  lo bounds the weights from below:
1 for the split sum, whose weight ratios are asserted <= 1, and (q;q)_inf^2
less 1e-12 relative for the reversed sum's products (q;q)_j (q;q)_(n-j).
Every later weighted term c then has |c| <= B < ulp(s)/4, and the gap
between s and its neighbours is at least ulp(s)/2 (only half an ulp below
a power of two), so fl(s + c) = s term by term.  A zero sum component has
a subnormal spacing and so never passes: such a row, an exactly real one
among them, runs to underflow.  Where (q;q)_inf^2 underflows (the reversed
sum near q = 1) there is no lo, and rows retire on underflow alone.  The
spacing test runs only on steps where some row past its k_break has
r <= 1/2, so steps before that pay only for the r check.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .errors import BadTau, DomainTooLarge, OutOfRange, PeakOverflow, ZeroArgument
from .qcore import _qq_prefix, _valid_q, qpoch_q_n, qq_infinity
from .scaling import Scaling

# Direct summation keeps the q**(n*n) dynamic range inside doubles up to
# this degree for q >= 0.2 and moderate |x|; beyond it use a normalized form.
_DIRECT_CAP = 30

# Magnitudes of log-scale exponents beyond this overflow exp() in doubles;
# _LOG_MAX is the exact edge, past which exp() raises.
_LOG_LIMIT = 700.0
_LOG_MAX = math.log(sys.float_info.max)

_UNDERFLOW = 1e-300


def sw_direct(n: int, x, q) -> complex:
    """Degree-n sum: sum_{k=0}^n q^(k^2) (-x)^k / ((q; q)_k (q; q)_{n-k})."""
    qv = _valid_q(q)
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
    qv = _valid_q(q)
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
    qv = _valid_q(q)
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
    qv = _valid_q(q)
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
    return _reversed_sums((n,), z, scaling, q)[0]


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
    return _split_sums((n,), None if m is None else (m,), z, scaling, q)[0]


def _term_bound(k: int, log_mag: float, log_q: float, guard_pow: float) -> float:
    """Bound asserted on the k-th split term: max^k q^(k (k - guard_pow)), with slack.

    Formed in log space, so a huge max^k and a tiny q power cannot underflow
    the bound to its floor; it is inf where the log leaves double range.
    """
    x = k * log_mag + k * (k - guard_pow) * log_q
    if x > _LOG_MAX:
        return math.inf
    return math.exp(x) * (1.0 + 1e-9) + 1e-280


# Batch kernels: a sweep's rows run as one vector pass over k, each row with
# CPython's bits (see the module docstring for the rule).


def _mul(ar, ai, br, bi):
    """(ar + i ai) * (br + i bi) as CPython's _Py_c_prod computes it."""
    return ar * br - ai * bi, ar * bi + ai * br


def _div_real(ar, ai, d):
    """(ar + i ai) / complex(d, 0.0) as CPython's _Py_c_quot computes it, for d > 0."""
    return (ar + ai * 0.0) / d, (ai - ar * 0.0) / d


def _parts(values) -> tuple:
    """Real and imaginary parts of complex values as two float64 arrays."""
    return np.array([v.real for v in values]), np.array([v.imag for v in values])


class _Rows:
    """The live rows of a vector pass: their output positions, per-row arrays and shared scalars.

    Every row holds its ratio w (and |w|), its current term t and its sum s, each a
    real and imaginary float64 array; ``fields`` adds the pass's own
    values, a scalar where every row shares it.  ``retire`` stores the sums
    of the rows that just finished and drops those rows from every per-row
    array, so later steps touch only rows still summing.
    """

    def __init__(self, w, term, **fields):
        self.w_re, self.w_im = _parts(w)
        self.wz_re, self.wz_im = self.w_re * 0.0, self.w_im * 0.0
        self.t_re, self.t_im = _parts(term)
        self.w_abs = np.hypot(self.w_re, self.w_im)
        size = len(w)
        self.s_re, self.s_im = np.zeros(size), np.zeros(size)
        vars(self).update(fields)
        self.names = tuple(name for name, value in vars(self).items() if isinstance(value, np.ndarray))
        self.pos = np.arange(size)
        self.out_re = np.zeros(size)
        self.out_im = np.zeros(size)

    def retire(self, done) -> None:
        """Store the sums of the finished rows and drop those rows."""
        if done.any():
            self.out_re[self.pos[done]] = self.s_re[done]
            self.out_im[self.pos[done]] = self.s_im[done]
            keep = ~done
            self.pos = self.pos[keep]
            for name in self.names:
                setattr(self, name, getattr(self, name)[keep])

    def join(self, other: "_Rows") -> None:
        """Append the rows of other, whose scalars equal this pass's; its outputs follow this pass's outputs."""
        self.pos = np.concatenate([self.pos, other.pos + self.out_re.size])
        self.out_re = np.concatenate([self.out_re, other.out_re])
        self.out_im = np.concatenate([self.out_im, other.out_im])
        for name in self.names:
            setattr(self, name, np.concatenate([getattr(self, name), getattr(other, name)]))

    def sums(self, what: str, ns: Sequence[int], zc: complex, qv: float) -> list[complex]:
        """The sums in output order, output i from row i % len(ns); OutOfRange names the first row with a lost sum."""
        lost = ~(np.isfinite(self.out_re) & np.isfinite(self.out_im))
        if lost.any():
            n = ns[int((np.flatnonzero(lost) % len(ns)).min())]
            raise OutOfRange(f"{what} leaves double range at n={n} (|z| = {abs(zc)!r}, q = {qv!r})")
        return [complex(re, im) for re, im in zip(self.out_re.tolist(), self.out_im.tolist())]


def _step(rows: _Rows, k: int, weights, qv: float, qq2: float | None = None, bound=None) -> None:
    """Step k of a vector pass on every live row: the one loop body of both sums.

    A row's term k sits at j = half + sign*k and is weighted by
    1/((q;q)_j (q;q)_(n-j)).  Without qq2 the term is divided by that
    product; with qq2 it is multiplied by their ratio, which is asserted in
    (0, 1], and every finite weighted term is asserted under
    ``bound(k, rows.wide)``; a term that left double range loses its row's
    sum, and the call reports that once the pass ends.
    The division and the ratio round differently, so each sum keeps its
    own.  The term then advances by w q^(2k+1), and a row retires when
    k_end <= k, or when k_break < k and either its next term underflows or
    no later term can change its sum: the module docstring gives that rule,
    which reads ``rows.slack`` = (1 + 2^-40) / lo (None where there is no lo)
    and compares 4 B with the spacing of the sum's smaller component.
    """
    j = rows.half + rows.sign * k
    den = weights.take(j, mode="clip") * weights.take(rows.n - j, mode="clip")
    if qq2 is None:
        c_re, c_im = _div_real(rows.t_re, rows.t_im, den)
    else:
        ratio = qq2 / den
        assert 0.0 < ratio.min(initial=1.0) and ratio.max(initial=0.0) <= 1.0   # initial=: s1 may have no rows at k = 0
        c_re, c_im = _mul(rows.t_re, rows.t_im, ratio, 0.0)
        mag = np.hypot(c_re, c_im)
        # the finiteness test runs only on a step where some term is over the bound
        assert (under := mag <= bound(k, rows.wide)).all() or (under | ~np.isfinite(mag)).all()
    rows.s_re, rows.s_im = rows.s_re + c_re, rows.s_im + c_im
    # w * qodd, its two "* 0.0" products hoisted out of the loop
    wq_re, wq_im = rows.w_re * rows.qodd - rows.wz_im, rows.wz_re + rows.w_im * rows.qodd
    rows.t_re, rows.t_im = _mul(rows.t_re, rows.t_im, wq_re, wq_im)
    rows.qodd = rows.qodd * (qv * qv)
    mag = np.hypot(rows.t_re, rows.t_im)
    past = rows.k_break < k
    done = past & (mag < _UNDERFLOW)
    if rows.slack is not None:
        final = past & (rows.w_abs * rows.qodd <= 0.5)   # every later term shrinks
        if final.any():
            done |= final & (4.0 * rows.slack * mag < np.spacing(np.minimum(np.abs(rows.s_re), np.abs(rows.s_im))))
    rows.retire((rows.k_end <= k) | done)


def _reversed_sums(ns: Sequence[int], z, scaling: Scaling, q) -> list[complex]:
    """The reversed sum of ``sw_normalized`` at every n of ns, as one vector pass over k.

    This is the sum's only implementation; ``sw_normalized`` is its one-row
    call.  Row setup runs in row order, so the first row whose term peak
    leaves double range sets the PeakOverflow.  The rows run through
    ``_step`` as one wing, j = k for k up to n; a row may retire on
    underflow only past the term peak, at k_break = ceil(k*) + 1.
    """
    qv = _valid_q(q)
    if z == 0:
        raise ZeroArgument("normalized evaluation requires z != 0")
    if min(ns, default=1) < 1:
        raise DomainTooLarge(f"n must be >= 1, got {min(ns)}")
    zc = complex(z)
    tau = scaling.tau.value
    lnq = math.log(qv)
    log_z = math.log(abs(zc))
    bases, k_breaks = [], []
    for n in ns:
        # Peak of log|q^(t^2 + tau n t) / z^t| over real t in [0, n], at an end or at k_star.
        k_star = (log_z / lnq - tau * n) / 2.0
        peak = max((t * t + tau * n * t) * lnq - t * log_z for t in (0.0, float(n), min(max(k_star, 0.0), float(n))))
        if peak > _LOG_LIMIT:
            raise PeakOverflow(f"term peak exp({peak:.1f}) at n={n}, tau={tau}; use the theta-centered form")
        d = scaling.theta_frac(n)
        bases.append(-(qv ** (tau * n)) / zc * cmath.exp(complex(0.0, 2.0 * math.pi * d)))
        k_breaks.append(int(math.ceil(max(k_star, 0.0))) + 1)
    prefix = _qq_prefix(qv)
    n = np.array(ns, dtype=np.int64)
    # Each weight product is >= (q;q)_inf^2; where that underflows to 0, a product may
    # vanish or be subnormal, and the first non-finite step raises instead of warning.
    may_vanish = prefix[-1] ** 2 == 0.0
    slack = None if may_vanish else (1.0 + 2.0**-40) / (prefix[-1] ** 2 * (1.0 - 1e-12))
    rows = _Rows(bases, [complex(1.0)] * len(ns), n=n, k_end=n, k_break=np.array(k_breaks, dtype=np.int64),
                 half=0, sign=1, qodd=qv, slack=slack)
    weights = np.array(prefix)
    # Elsewhere a divided term may still leave double range; the pass runs quietly and its
    # sums are checked once at the end.
    k = 0
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise") if may_vanish else np.errstate(all="ignore"):
            while rows.pos.size:
                _step(rows, k, weights, qv)
                k += 1
    except FloatingPointError:
        raise OutOfRange(f"q = {qv!r} is too close to 1: (q;q)_k (q;q)_(n-k) underflows to 0") from None
    return rows.sums("reversed sum", ns, zc, qv)


def _split_sums(ns: Sequence[int], ms: Sequence[int] | None, z, scaling: Scaling, q) -> list[SplitSumResult]:
    """The split sum of ``sw_theta_normalized`` at every n of ns (with m = ms[i] when given).

    This is the sum's only implementation; ``sw_theta_normalized`` is its
    one-row call.  Row setup runs in row order, so the first row whose m is
    too far from the floor sets the BadTau.  Both wings of every row run
    through ``_step`` in one vector pass over k: s1 (j = m//2 - k) from
    k = 0, s2 (j = m//2 + k) joining at k = 1, so all live rows share k and
    its term bound.
    """
    qv = _valid_q(q)
    tau = scaling.tau.value
    if not (-2.0 < tau < 0.0) or (scaling.tau.is_rational and not (-2 < scaling.tau.fraction < 0)):
        raise BadTau(f"split evaluation requires -2 < tau < 0, got {tau!r}")
    if z == 0:
        raise ZeroArgument("split evaluation requires z != 0")
    if min(ns, default=1) < 1:
        raise DomainTooLarge(f"n must be >= 1, got {min(ns)}")
    prefix = _qq_prefix(qv)
    qq2 = prefix[-1] * prefix[-1]   # a product, as each weight product is: their ratio rounds to <= 1
    if qq2 == 0.0:   # else every weight product is >= qq2 > 0
        raise OutOfRange(f"q = {qv!r} is too close to 1: (q;q)_inf^2 underflows to 0")
    zc = complex(z)
    setups, w1, wide = [], [], []
    for i, n in enumerate(ns):
        # -tau*n = m + c; an explicit m moves c off [0, 1) by whole steps
        m_floor, c_floor = scaling.minus_tau_split(n)
        m = m_floor if ms is None else ms[i]
        c = (m_floor - m) + c_floor
        if not (-1.0 < c < 2.0):
            raise BadTau(f"offset c = {c!r} too far from [0, 1); wrong m for this n?")
        d = scaling.theta_frac(n)
        exponent = (m - 2 * (m // 2)) + c       # in [0, 2) on the floor path
        setups.append((m, c, d))
        w1.append(-zc * (qv**exponent) * cmath.exp(complex(0.0, -2.0 * math.pi * d)))
        # the documented bound q^(k^2 - 2k) max^k holds while the exponent stays
        # in [0, 2]; witness decompositions may need the wider q^(k^2 - 3k)
        wide.append(not 0.0 <= exponent <= 2.0)
    size = len(ns)
    n = np.array(ns, dtype=np.int64)
    half = np.array([m // 2 for m, _, _ in setups], dtype=np.int64)
    wide = np.array(wide, dtype=bool)
    w2 = [1.0 / w for w in w1]
    log_mag, log_q = math.log(max(abs(zc), 1.0 / abs(zc))), math.log(qv)
    any_wide = bool(wide.any())

    def bound(k: int, wide):
        """The term bound at k: per row where some row needs the wider one, else one scalar."""
        tight = _term_bound(k, log_mag, log_q, 2.0)
        return np.where(wide, _term_bound(k, log_mag, log_q, 3.0), tight) if any_wide else tight

    wing = partial(_Rows, n=n, half=half, wide=wide, k_break=2, slack=1.0 + 2.0**-40)
    s1 = wing(w1, [complex(1.0)] * size, k_end=half, sign=np.full(size, -1), qodd=np.full(size, qv))
    s2 = wing(w2, [w * qv for w in w2], k_end=n - half, sign=np.full(size, 1), qodd=np.full(size, qv**3))
    step = partial(_step, weights=np.array(prefix), qv=qv, qq2=qq2, bound=bound)
    s1.retire(s1.k_end < 0)               # an empty range sums to 0
    with np.errstate(all="ignore"):       # a term or sum past double range is reported once the pass ends
        step(s1, 0)
        s2.retire(s2.k_end < 1)
        s1.join(s2)
        k = 1
        while s1.pos.size:
            step(s1, k)
            k += 1
    sums = s1.sums("split sum", ns, zc, qv)
    return [
        SplitSumResult(value=a + b, m=m, c_n=c, d_n=d, chi_m=m - 2 * (m // 2), s1=a, s2=b)
        for (m, c, d), a, b in zip(setups, sums[:size], sums[size:])
    ]
