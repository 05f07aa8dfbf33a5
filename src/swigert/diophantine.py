"""Lattice progressions, continued fractions, and approximation witness searches.

On a rational orbit the indices with prescribed fractional parts form an
arithmetic progression (``lattice_progression``, a CRT over the conditions).

A witness at quality rho is a positive integer n whose orbit point n*theta
lands within n**(-rho) of beta modulo 1; the index sequences feeding the
asymptotic sweeps in the irrational regimes are exactly such witnesses
(single or paired).  Searches scan exhaustively at desk scale with a
vectorized prefilter, and every returned witness is reconfirmed in exact
rational arithmetic so that a borderline float never slips through.  For
homogeneous targets (beta = 0) a continued-fraction fast path enumerates
convergent and semiconvergent denominators instead of scanning.

The represented double is treated as the ground-truth theta throughout, so
scan, fast path, and the asymptotic verifier all agree on the same number.
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


def cf_convergents(x: float, count: int) -> list[tuple[int, int]]:
    """First ``count`` continued-fraction convergents (p, q) of x.

    Terminates early when the remaining fractional part drops below 1e-15,
    i.e. when x is exhausted as a rational at double precision.  Each
    convergent satisfies |q*x - p| < 1/q.
    """
    if count < 1:
        raise OutOfRange(f"count must be >= 1, got {count}")
    out: list[tuple[int, int]] = []
    p_prev, q_prev = 0, 1
    p_cur, q_cur = 1, 0
    y = float(x)
    for _ in range(count):
        a = math.floor(y)
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        out.append((p_cur, q_cur))
        rem = y - a
        if rem < 1e-15:
            break
        y = 1.0 / rem
    return out


def exact_residual(n: int, theta: float, beta: float, m: int) -> float:
    """n*theta - beta - m evaluated in exact rational arithmetic, then rounded."""
    return float(Fraction(theta) * n - Fraction(beta) - m)


def _confirm(n: int, theta: float, beta: float, rho: float) -> Optional[tuple[int, float]]:
    """Exact nearest-integer recheck of the witness inequality at n."""
    exact = Fraction(theta) * n - Fraction(beta)
    m = math.floor(exact + Fraction(1, 2))
    residual = exact - m
    window = Fraction(float(n) ** (-rho))
    if abs(residual) < window:
        return m, float(residual)
    return None


def _scan_prefilter(theta: float, beta: float, rho: float, n_max: int) -> np.ndarray:
    """Vectorized candidate pass with slack; exact confirmation happens later."""
    n = np.arange(1, n_max + 1, dtype=np.float64)
    resid = np.abs(np.mod(n * theta - beta + 0.5, 1.0) - 0.5)
    window = n ** (-rho)
    return np.nonzero(resid < window * (1.0 + 1e-9) + 1e-12)[0] + 1


def _check_search_args(rho: float, n_max: int) -> None:
    if n_max < 1:
        raise OutOfRange(f"n_max must be >= 1, got {n_max}")
    if n_max > _SCAN_CAP:
        raise OutOfRange(f"n_max capped at {_SCAN_CAP} for exhaustive scans")
    if rho <= 0.0:
        raise OutOfRange(f"rho must be > 0, got {rho!r}")


def witness_search(
    theta: float,
    beta: float,
    rho: float,
    n_max: int,
    method: str = "scan",
) -> list[DiophantineWitness]:
    """All n <= n_max with dist(n*theta - beta, Z) < n**(-rho), sorted by n.

    ``method="scan"`` is the exhaustive reference path.  ``method="cf"``
    (homogeneous targets only) walks convergent and semiconvergent
    denominators of theta and keeps those passing the same exact inequality;
    the two paths agree wherever every solution denominator is a
    semiconvergent, which holds for the quadratic irrationals exercised in
    the sweeps.
    """
    _check_search_args(rho, n_max)
    if method == "scan":
        candidates = _scan_prefilter(float(theta), float(beta), rho, n_max)
    elif method == "cf":
        if beta != 0.0:
            raise OutOfRange("the continued-fraction fast path requires beta = 0")
        candidates = _semiconvergent_denominators(float(theta), n_max)
    else:
        raise OutOfRange(f"unknown method {method!r}")
    out = []
    for n in candidates:
        hit = _confirm(int(n), float(theta), float(beta), rho)
        if hit is not None:
            m, residual = hit
            out.append(DiophantineWitness(n=int(n), m=m, residual=residual, beta=float(beta), rho=rho))
    return out


def _semiconvergent_denominators(theta: float, n_max: int) -> list[int]:
    """Denominators j*q_i + q_{i-1} (1 <= j <= a_{i+1}) of theta, up to n_max."""
    denoms = {1}
    q_prev, q_cur = 0, 1
    y = theta
    a = math.floor(y)
    rem = y - a
    while q_cur <= n_max and rem >= 1e-15:
        y = 1.0 / rem
        a = math.floor(y)
        rem = y - a
        for j in range(1, a + 1):
            cand = j * q_cur + q_prev
            if cand > n_max:
                break
            denoms.add(cand)
        q_prev, q_cur = q_cur, a * q_cur + q_prev
    return sorted(denoms)


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
