"""Lattice progressions and approximation witness searches.

On a rational orbit the indices with prescribed fractional parts form an
arithmetic progression (``lattice_progression``, a CRT over the conditions).

A witness at quality rho is a positive integer n whose orbit point n*theta
lands within n**(-rho) of beta modulo 1; the index sequences feeding the
asymptotic sweeps in the irrational regimes are exactly such witnesses
(single or paired).  ``witness_search`` takes its candidates from the exact
continued fraction of theta for a homogeneous target (beta = 0) at rho >= 1,
and from a vectorized scan of every index otherwise.  Every candidate is
reconfirmed in exact rational arithmetic, so a borderline float never slips
through.

The represented double is treated as the ground-truth theta throughout, so
scan, ladder, and the asymptotic verifier all agree on the same number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import NotRational, OutOfRange

_SCAN_CAP = 10**6


def chi(n: int) -> int:
    """Principal character mod 2: 1 on odd integers, 0 on even ones."""
    return n - 2 * (n // 2)


@dataclass(frozen=True)
class DiophantineWitness:
    """One approximation hit: n*theta = m + beta + residual at quality rho."""

    n: int
    m: int
    residual: float
    beta: float
    rho: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise OutOfRange(f"witness index must be >= 1, got {self.n}")


@dataclass(frozen=True)
class PairedWitness:
    """Simultaneous hit on two targets: residuals a_n and b_n at one n."""

    n: int
    m: int
    m1: int
    a_n: float
    b_n: float


def exact_residual(n: int, theta: float, beta: float, m: int) -> float:
    """n*theta - beta - m evaluated in exact rational arithmetic, then rounded."""
    return float(Fraction(theta) * n - Fraction(beta) - m)


def _nearest(n: int, theta: float, beta: float) -> tuple[int, int, int]:
    """(m, r, d) with m the integer nearest n*theta - beta and r/d = n*theta - beta - m exactly.

    Integer arithmetic on the doubles' ratios, whose denominators are powers
    of two; m = floor(n*theta - beta + 1/2), as the exact oracle rounds.
    """
    tn, td = float(theta).as_integer_ratio()
    bn, bd = float(beta).as_integer_ratio()
    d = max(td, bd)
    num = n * tn * (d // td) - bn * (d // bd)
    m = (2 * num + d) // (2 * d)
    return m, num - m * d, d


def _confirm(n: int, theta: float, beta: float, rho: float) -> Optional[tuple[int, float]]:
    """Exact nearest-integer recheck of the witness inequality at n."""
    m, r, d = _nearest(n, theta, beta)
    wn, wd = (float(n) ** (-rho)).as_integer_ratio()
    return (m, r / d) if abs(r) * wd < wn * d else None


def _scan_prefilter(theta: float, beta: float, rho: float, n_max: int) -> np.ndarray:
    """Vectorized candidate pass with slack; exact confirmation happens later.

    The slack is four times a bound on the rounding error of resid at every
    n <= n_max, (n_max |theta| + |beta| + 2) * 2**-52.
    """
    n = np.arange(1, n_max + 1, dtype=np.float64)
    resid = np.abs(np.mod(n * theta - beta + 0.5, 1.0) - 0.5)
    slack = (n_max * abs(theta) + abs(beta) + 2.0) * 2.0**-50
    return np.nonzero(resid < n ** (-rho) * (1.0 + 1e-9) + (1e-12 + slack))[0] + 1


def _partial_quotients(x: float):
    """Partial quotients a_0, a_1, ... of the double x, exact; ends when x is used up."""
    num, den = Fraction(x).as_integer_ratio()
    while den:
        a, rem = divmod(num, den)
        yield a
        num, den = den, rem


def _ladder(theta: float, rho: float, n_max: int) -> list[int]:
    """Candidates n <= n_max holding every n with dist(n*theta, Z) < n**(-rho), for rho >= 1.

    Let n be such a witness with nearest integer m.  If gcd(n, m) = 1, then
    |theta - m/n| < 1/n**2, so m/n is a convergent or an intermediate fraction
    (j*p_(k-1) + p_(k-2)) / (j*q_(k-1) + q_(k-2)), 1 <= j <= a_k.  If n = g*n'
    with g >= 2, then |theta - m'/n'| < 1/(2 n'**2), so m'/n' = p_k/q_k is a
    convergent (Legendre).  The rounded window does not break the first step:
    a reduced m/n off that ladder lies at least 1/(n(n-1)) from theta.  Along j
    the distance |n*theta - m| is linear, and along g it grows while the window
    shrinks, so the hits of each run sit at its ends; each run is walked inward
    while the distance, taken exactly, stays within twice the window.
    """
    num, den = Fraction(theta).as_integer_ratio()

    def near(n: int, m: int) -> bool:
        return abs(n * num - m * den) / den <= 2.0 * float(n) ** (-rho)

    out = {1}
    p_prev, q_prev, p, q = 0, 1, 1, 0
    for a in _partial_quotients(theta):
        if q:
            js = range(1, min(a, (n_max - q_prev) // q) + 1)
            for run in (js, reversed(js)):
                for j in run:
                    if not near(j * q + q_prev, j * p + p_prev):
                        break
                    out.add(j * q + q_prev)
        p_prev, q_prev, p, q = p, q, a * p + p_prev, a * q + q_prev
        if q > n_max:
            break
        for g in range(2, n_max // q + 1):
            if not near(g * q, g * p):
                break
            out.add(g * q)
    return sorted(out)


def _check_search_args(rho: float, n_max: int) -> None:
    if n_max < 1:
        raise OutOfRange(f"n_max must be >= 1, got {n_max}")
    if n_max > _SCAN_CAP:
        raise OutOfRange(f"n_max capped at {_SCAN_CAP} for exhaustive scans")
    if rho <= 0.0:
        raise OutOfRange(f"rho must be > 0, got {rho!r}")


def witness_search(theta: float, beta: float, rho: float, n_max: int) -> list[DiophantineWitness]:
    """All n <= n_max with dist(n*theta - beta, Z) < n**(-rho), sorted by n.

    Homogeneous targets at rho >= 1 take their candidates from the
    continued-fraction ladder of theta; every other input scans all indices.
    """
    _check_search_args(rho, n_max)
    theta, beta = float(theta), float(beta)
    if beta == 0.0 and rho >= 1.0:
        candidates = _ladder(theta, rho, n_max)
    else:
        candidates = _scan_prefilter(theta, beta, rho, n_max)
    out = []
    for n in candidates:
        hit = _confirm(int(n), theta, beta, rho)
        if hit is not None:
            m, residual = hit
            out.append(DiophantineWitness(n=int(n), m=m, residual=residual, beta=beta, rho=rho))
    return out


def witness_search_pair(
    theta1: float,
    theta2: float,
    beta1: float,
    beta2: float,
    rho: float,
    n_max: int,
) -> list[PairedWitness]:
    """All n <= n_max satisfying both approximation inequalities at quality rho."""
    _check_search_args(rho, n_max)
    c1 = set(_scan_prefilter(float(theta1), float(beta1), rho, n_max).tolist())
    c2 = set(_scan_prefilter(float(theta2), float(beta2), rho, n_max).tolist())
    out = []
    for n in sorted(c1 & c2):
        h1 = _confirm(int(n), float(theta1), float(beta1), rho)
        h2 = _confirm(int(n), float(theta2), float(beta2), rho)
        if h1 is not None and h2 is not None:
            out.append(PairedWitness(n=int(n), m=h1[0], m1=h2[0], a_n=h1[1], b_n=h2[1]))
    return out


def _residue_condition(frac: Fraction, target) -> Optional[tuple[int, int]]:
    """Solve {n * frac} = target as a congruence n = residue (mod modulus)."""
    b = frac.denominator
    j_frac = Fraction(target) * b
    if j_frac.denominator != 1:
        return None
    j = j_frac.numerator % b
    return (j * pow(frac.numerator % b, -1, b)) % b, b


def lattice_progression(pins) -> Optional[tuple[int, int]]:
    """Arithmetic progression of n with {n * step} = target for every (step, target) pin.

    Every step must be an exact rational (``Fraction`` or ``int``).  Returns
    (modulus, residue) with 0 <= residue < modulus, or None when a target
    is not attained on its lattice or the congruences are incompatible (CRT).
    """
    modulus, residue = 1, 0
    for step, target in pins:
        if not isinstance(step, (int, Fraction)):
            raise NotRational(f"lattice step must be an exact rational, got {step!r}")
        cond = _residue_condition(Fraction(step), target)
        if cond is None:
            return None
        r, m = cond
        g = math.gcd(modulus, m)
        if (r - residue) % g != 0:
            return None
        k = ((r - residue) // g * pow(modulus // g, -1, m // g)) % (m // g)
        residue, modulus = residue + k * modulus, modulus // g * m
    return modulus, residue
