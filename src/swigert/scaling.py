"""Complex scaling parameters and their exact fractional-part bookkeeping.

The scaling is stored as the pair (tau, theta); the complex exponent it
induces is s = tau + 2 + 2*pi*theta*i / log(q).  Each of tau and theta
carries an arithmetic tag: exact rational (kept as a Fraction) or
irrational (a machine double plus a textual provenance such as
``"sqrt2-1"``).  The tags, never floating comparisons, decide regime
classification; fractional-part splits work in integers on the exact value,
for an irrational the represented double.  The behavior of {n*tau} and
{n*theta} at rational/irrational boundaries is the whole point of the
asymptotic regimes, so it must not be corrupted by roundoff.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import OutOfRange

_TOKENS = {
    "sqrt2": math.sqrt(2.0),
    "sqrt3": math.sqrt(3.0),
    "phi": (1.0 + math.sqrt(5.0)) / 2.0,
    "e": math.e,
    "pi": math.pi,
}

_TOKEN_RE = re.compile(r"^(-)?(sqrt2|sqrt3|phi|e|pi)([+-]\d+)?$")


@dataclass(frozen=True)
class RealParam:
    """A real scaling component together with its arithmetic tag."""

    value: float
    fraction: Optional[Fraction] = None
    provenance: str = ""

    def __post_init__(self) -> None:
        if self.fraction is not None and float(self.fraction) != self.value:
            raise OutOfRange("value must equal float(fraction) for rational parameters")

    @property
    def is_rational(self) -> bool:
        return self.fraction is not None

    @property
    def exact(self) -> Fraction:
        """The exact value: the fraction of a rational, the represented double of an irrational."""
        return Fraction(self.value) if self.fraction is None else self.fraction

    @classmethod
    def rational(cls, numerator, denominator=1) -> "RealParam":
        frac = Fraction(numerator, denominator)
        return cls(value=float(frac), fraction=frac)

    @classmethod
    def irrational(cls, value: float, provenance: str = "") -> "RealParam":
        return cls(value=float(value), fraction=None, provenance=provenance)

    @classmethod
    def parse(cls, text) -> "RealParam":
        """Parse a CLI/config scalar into a tagged parameter.

        Strings ``"p/r"`` and decimal literals become exact rationals; the
        tokens sqrt2, sqrt3, phi, e, pi (optionally negated and/or offset by
        an integer, e.g. ``"sqrt2-1"`` or ``"-sqrt3+1"``) become irrationals
        at full double precision.  Bare numbers are read through their
        shortest decimal form, hence tagged rational.
        """
        if isinstance(text, RealParam):
            return text
        if isinstance(text, (Fraction, int)):
            frac = Fraction(text)
        else:
            s = repr(float(text)) if isinstance(text, float) else str(text).strip()
            m = _TOKEN_RE.match(s)
            if m:
                sign, token, offset = m.groups()
                v = _TOKENS[token]
                if sign:
                    v = -v
                if offset:
                    v += int(offset)
                return cls.irrational(v, provenance=s)
            try:
                frac = Fraction(s)
            except (ValueError, ZeroDivisionError) as exc:
                raise OutOfRange(f"cannot parse scaling value {text!r}") from exc
        try:
            return cls.rational(frac)
        except OverflowError:
            raise OutOfRange(f"scaling value {text!r} leaves double range") from None

    def describe(self) -> str:
        if self.is_rational:
            return str(self.fraction)
        return self.provenance or repr(self.value)


@dataclass(frozen=True)
class Scaling:
    """The pair (tau, theta) defining the complex scaling exponent."""

    tau: RealParam
    theta: RealParam

    @classmethod
    def make(cls, tau, theta) -> "Scaling":
        return cls(RealParam.parse(tau), RealParam.parse(theta))

    def minus_tau_split(self, n: int) -> tuple[int, float]:
        """(-tau * n) split as (m, c) with m = floor and c in [0, 1), exact for both tags."""
        p, r = self.tau.exact.as_integer_ratio()
        m, rem = divmod(-p * n, r)
        return m, rem / r

    def theta_frac(self, n: int) -> float:
        """{n * theta} in [0, 1), exact for both tags."""
        p, r = self.theta.exact.as_integer_ratio()
        return p * n % r / r
