"""Regime classification, main terms, explicit error bounds, and sweeps.

The normalized polynomial value has seven asymptotic regimes, selected by
the sign of tau and the arithmetic nature (rational vs irrational) of tau
and theta.  Each regime is described once, by a record in ``_REGIMES``:

* ``targets`` - the main-term parameters: none (the limit is 1), one (the
  phase of the entire series A_q at e^(2 pi i target)/z), or two, the
  offsets (u, v) of the theta value at -z q^(chi(m)+u) e^(-2 pi i v), whose
  argument carries the parity character of m = floor(-tau n);
* ``pins`` - exact lattice conditions {axis n} = param on rational axes;
* ``witnesses`` - approximation conditions dist(axis n - param, Z) < n^-rho
  on irrational axes, one searched singly or two as a pair.

An axis is ``"theta"`` or ``"-tau"``.  The required parameters, the index
source (a range, a lattice progression or a witness search), the
admissible filter, the witness carried by each row, the kind of truncation
depth nu_n and the form of the main term all follow from these three
fields; only the error budget keeps one formula per regime family.

The asymptotic statements hold from some unquantified index onward;
``summarize_rows`` therefore reports the empirical n beyond which every
sampled row stays within its bound, rather than assuming a threshold.
"""

from __future__ import annotations

import cmath
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from typing import Optional, Sequence

from .diophantine import (
    DiophantineWitness,
    _nearest,
    chi,
    lattice_progression,
    witness_search,
    witness_search_pair,
)
from .errors import EmptyCandidates, MissingParam, OutOfRange, UnsupportedScaling
from .qcore import QParam, qpoch_infinite, qq_infinity
from .qspecial import Bq, ramanujan_Aq, theta_series
from .scaling import RealParam, Scaling
from .swpoly import _reversed_sums, _split_sums

_CONST_TOL = 1e-13

# CaseParams fields a regime may require, in the order they are checked.
_PARAM_NAMES = ("lambda_", "lambda1", "beta", "beta1", "beta2", "rho")


@dataclass(frozen=True)
class _Regime:
    """One asymptotic regime: main-term parameters, lattice pins, witness conditions."""

    targets: tuple[str, ...]
    pins: tuple[tuple[str, str], ...] = ()
    witnesses: tuple[tuple[str, str], ...] = ()

    @property
    def required(self) -> tuple[str, ...]:
        used = set(self.targets) | {name for _, name in self.pins + self.witnesses}
        if self.witnesses:
            used.add("rho")
        return tuple(name for name in _PARAM_NAMES if name in used)


_REGIMES = {
    1: _Regime(()),
    2: _Regime(("lambda_",), pins=(("theta", "lambda_"),)),
    3: _Regime(("beta",), witnesses=(("theta", "beta"),)),
    4: _Regime(("lambda_", "lambda1"), pins=(("-tau", "lambda_"), ("theta", "lambda1"))),
    5: _Regime(("lambda_", "beta"), pins=(("-tau", "lambda_"),), witnesses=(("theta", "beta"),)),
    6: _Regime(("beta", "lambda_"), pins=(("theta", "lambda_"),), witnesses=(("-tau", "beta"),)),
    7: _Regime(("beta1", "beta2"), witnesses=(("-tau", "beta1"), ("theta", "beta2"))),
}


def _regime(case_id: int) -> _Regime:
    if case_id not in _REGIMES:
        raise MissingParam(f"case_id must be 1..7, got {case_id}")
    return _REGIMES[case_id]


def _axis(scaling: Scaling, axis: str) -> Fraction:
    """Exact value of the orbit step theta or -tau."""
    return scaling.theta.exact if axis == "theta" else -scaling.tau.exact


def _pins(reg: _Regime, params: CaseParams) -> list:
    """(exact step, exact target) of each lattice pin of the regime."""
    return [(_axis(params.scaling, axis), getattr(params, name)) for axis, name in reg.pins]


@dataclass(frozen=True)
class CaseParams:
    """Regime id, scaling, and the fractional targets the regime requires.

    The pin targets lambda_ and lambda1 are read like tau and theta and held as exact Fractions.
    """

    case_id: int
    scaling: Scaling
    lambda_: Optional[Fraction] = None   # exact rational in [0, 1)
    lambda1: Optional[Fraction] = None
    beta: Optional[float] = None
    beta1: Optional[float] = None
    beta2: Optional[float] = None
    rho: Optional[float] = None

    def __post_init__(self) -> None:
        for name in _regime(self.case_id).required:
            if getattr(self, name) is None:
                raise MissingParam(f"case {self.case_id} requires parameter {name.rstrip('_')}")
        for name in ("lambda_", "lambda1"):
            if getattr(self, name) is not None:
                target = RealParam.parse(getattr(self, name))
                if not target.is_rational:
                    raise MissingParam(f"{name.rstrip('_')} must be rational, got {target.describe()}")
                object.__setattr__(self, name, target.fraction)
        for name in _PARAM_NAMES[:-1]:
            v = getattr(self, name)
            if v is not None and not (0 <= float(v) < 1):
                raise MissingParam(f"{name.rstrip('_')} must lie in [0, 1), got {v!r}")
        if self.rho is not None and self.rho <= 0:
            raise MissingParam(f"rho must be > 0, got {self.rho!r}")
        expected = classify_case(self.scaling)
        if expected != self.case_id:
            raise MissingParam(
                f"scaling (tau={self.scaling.tau.describe()}, theta={self.scaling.theta.describe()}) "
                f"belongs to case {expected}, not case {self.case_id}"
            )


@dataclass(frozen=True)
class CaseVerificationRow:
    """One sweep point: exact normalized value vs main term vs bound."""

    n: int
    lhs: complex
    main: complex
    abs_err: float
    bound: float
    within: bool
    nu_n: int
    witness: Optional[DiophantineWitness] = None


@dataclass(frozen=True)
class VerificationSummary:
    """Empirical bound-soundness digest of one sweep."""

    n_min_within: Optional[int]
    all_within_after_n_min: bool
    max_err_at_tail: float
    n_first: int
    n_last: int
    err_first: float
    err_last: float


def classify_case(scaling: Scaling) -> int:
    """Regime id 1..7 from the scaling tags; floats never break rational ties."""
    tau = scaling.tau
    if tau.is_rational:
        if tau.fraction <= -2:
            raise UnsupportedScaling(f"tau = {tau.describe()} <= -2 is outside the supported regimes")
        if tau.fraction == 0:
            return 2 if scaling.theta.is_rational else 3
        if tau.fraction > 0:
            return 1
    else:
        if tau.value <= -2.0:
            raise UnsupportedScaling(f"tau = {tau.value!r} <= -2 is outside the supported regimes")
        if tau.value == 0.0:
            raise UnsupportedScaling("tau = 0 must be tagged as the exact rational 0")
        if tau.value > 0.0:
            return 1
    if tau.is_rational:
        return 4 if scaling.theta.is_rational else 5
    return 6 if scaling.theta.is_rational else 7


def nu_n(case_id: int, scaling: Scaling, n: int, q) -> int:
    """Truncation depth of the bound for the given regime at index n.

    Linear in n for the doubly rational strip regime, log^2 n for the
    regimes driven by a Diophantine witness, unused (0) otherwise.
    """
    reg = _regime(case_id)
    qv = QParam.of(q).q
    if n < 1:
        raise OutOfRange(f"n must be >= 1, got {n}")
    if reg.witnesses:
        return math.floor(qv**4 * math.log(n) ** 2 / (1.0 + math.log(1.0 / qv)))
    if len(reg.targets) == 2:
        p, r = scaling.tau.fraction.as_integer_ratio()
        return min((2 * r + p) * n // (8 * r), -p * n // (8 * r))
    return 0


@lru_cache(maxsize=128)
def _const(fn, *args):
    """fn(*args, _CONST_TOL).value: the per-(q, |z|) budget constants and main terms."""
    return fn(*args, _CONST_TOL).value


def _safe_exp(x: float) -> float:
    return math.exp(x) if x > -745.0 else 0.0


def main_term(case_id: int, params: CaseParams, z, q, m: Optional[int] = None) -> complex:
    """Predicted limit of the normalized value for the regime.

    The strip regimes (4..7) need the index-dependent integer m, since the
    parity chi(m) shifts the theta argument; the verifier supplies it per n.
    """
    qv = QParam.of(q).q
    zc = complex(z)
    targets = [float(getattr(params, name)) for name in _regime(case_id).targets]
    if not targets:
        return complex(1.0)
    if len(targets) == 1:
        return _const(ramanujan_Aq, _exp_2pii(targets[0]) / zc, qv)
    if m is None:
        raise MissingParam(f"case {case_id} main term needs the integer m for chi(m)")
    u, v = targets
    w = -zc * qv ** (chi(m) + u) * _exp_2pii(-v)
    return _const(theta_series, w, qv)


def _exp_2pii(t: float) -> complex:
    """exp(2 pi i t)."""
    return cmath.exp(complex(0.0, 2.0 * math.pi * t))


def error_bound(case_id: int, params: CaseParams, n: int, z, q) -> float:
    """Explicit error budget of the regime at index n.

    Constants are evaluated once per (q, |z|) at tolerance 1e-13.  The
    case-1 budget has two parts.  With P_j = (q^j; q)_inf and
    w = -q^(tau n) e^(2 pi i {n theta}) / z,

        lhs - 1 = (P_{n+1} - 1) + sum_{k=1..n} q^(k^2) w^k P_{n-k+1} / (q;q)_k,

    so it is the k >= 1 majorant q B_q(q^2/|z|) q^(tau n) / ((1-q)|z|), which
    keeps its q^(tau n) decay factor rather than the weaker n-free
    simplification, plus the k = 0 deficit
    1 - P_{n+1} <= sum_{j>n} q^j = q^(n+1)/(1-q).  Budgets below double range
    underflow to exactly 0, at which depth a sweep is measuring roundoff
    rather than truncation error.
    """
    qv = QParam.of(q).q
    az = abs(complex(z))
    lnq = math.log(qv)
    if case_id == 1:
        tau = params.scaling.tau.value
        majorant = qv * _const(Bq, qv * qv / az, qv).real / ((1.0 - qv) * az) * _safe_exp(tau * n * lnq)
        return majorant + _safe_exp((n + 1) * lnq) / (1.0 - qv)
    minus_q3 = _const(qpoch_infinite, -(qv**3), qv).real
    if case_id == 2:
        coeff = 2.0 * minus_q3 * _const(Bq, 1.0 / az, qv).real / qq_infinity(qv)
        return coeff * (_safe_exp(n * lnq / 2.0) + _safe_exp(n * n * lnq / 4.0 - (n // 2) * math.log(az)))
    nu = nu_n(case_id, params.scaling, n, qv)
    if case_id == 3:
        coeff = 24.0 * minus_q3 * _const(Bq, 1.0 / az, qv).real / qq_infinity(qv)
        return coeff * (math.log(n) ** 2 / n ** params.rho + _safe_exp(nu * nu * lnq - nu * math.log(az)))
    coeff = minus_q3**2 * _const(theta_series, complex(az), math.sqrt(qv)).real / (1.0 - qv) ** 2
    grow = _safe_exp(nu * nu * lnq + nu * math.log(az))
    shrink = _safe_exp(nu * nu * lnq / 2.0 - nu * math.log(az))
    if case_id == 4:
        return 6.0 * coeff * (qv**nu + grow + shrink)
    return 54.0 * coeff * (grow + shrink + math.log(n) ** 2 / n ** params.rho)


def admissible_candidates(case_id: int, params: CaseParams, ns: Sequence[int]) -> list[int]:
    """Filter a candidate list down to the indices the regime statement covers.

    Lattice pins fix {n theta} and/or {-tau n} to the declared targets;
    witness conditions accept what the searches produced.
    """
    pins = [(step.as_integer_ratio(), t) for step, t in _pins(_regime(case_id), params)]
    out = [int(n) for n in ns if n >= 1 and all(_on_pin(p, r, t, n) for (p, r), t in pins)]
    return sorted(set(out))


def _on_pin(p: int, r: int, t: Fraction, n: int) -> bool:
    """{n * p/r} == t, decided in integers as ``Scaling.minus_tau_split`` splits."""
    return (p * n % r) * t.denominator == t.numerator * r


def _rows(case_id: int, params: CaseParams, z: complex, q: float, ns: Sequence[int]) -> list[CaseVerificationRow]:
    """Verification rows at the indices ns: exact value, main term, error, bound.

    The normalized values of all rows come from one batch kernel call; a
    kernel error (BadTau, PeakOverflow) is the one the first failing row
    raises.  Rows of a witness regime carry the witness along the first
    witness axis; when that axis is -tau its integer part is the m of the
    split evaluation.
    """
    reg = _regime(case_id)
    sc = params.scaling
    witnesses = [None] * len(ns)
    ms = None
    if reg.witnesses:
        axis, name = reg.witnesses[0]
        beta, step = getattr(params, name), float(_axis(sc, axis))
        witnesses = []
        for n in ns:
            m_w, r, d = _nearest(n, step, beta)
            witnesses.append(DiophantineWitness(n=n, m=m_w, residual=r / d, beta=beta, rho=params.rho))
        if axis == "-tau":
            ms = [w.m for w in witnesses]
    if len(reg.targets) == 2:
        splits = _split_sums(ns, ms, z, sc, q)
        lhss = [split.value for split in splits]
        mains = [main_term(case_id, params, z, q, m=split.m) for split in splits]
    else:
        qq_inf = qq_infinity(q)
        lhss = [value * qq_inf for value in _reversed_sums(ns, z, sc, q)]
        mains = [main_term(case_id, params, z, q)] * len(ns)
    rows = []
    for n, lhs, main, witness in zip(ns, lhss, mains, witnesses):
        err = abs(lhs - main)
        bound = error_bound(case_id, params, n, z, q)
        rows.append(CaseVerificationRow(
            n=n,
            lhs=complex(lhs),
            main=complex(main),
            abs_err=err,
            bound=bound,
            within=err <= bound,
            nu_n=nu_n(case_id, sc, n, q),
            witness=witness,
        ))
    return rows


def verify(
    case_id: int,
    params: CaseParams,
    z,
    q,
    n_candidates: Sequence[int],
    jobs: int = 1,
) -> list[CaseVerificationRow]:
    """Verification rows over the admissible subset of the candidates.

    All rows are evaluated in one batch.  ``jobs > 1`` splits the indices
    into ``jobs`` contiguous chunks, evaluates each in a worker process and
    joins them in n-order; rows are independent, so parallel and serial runs
    produce identical output.
    """
    if params.case_id != case_id:
        raise MissingParam(f"case_id {case_id} does not match params.case_id {params.case_id}")
    zc = complex(z)
    if not (math.isfinite(zc.real) and math.isfinite(zc.imag)):
        raise OutOfRange(f"z must be finite, got {zc!r}")
    ns = admissible_candidates(case_id, params, list(n_candidates))
    if not ns:
        raise EmptyCandidates(f"no admissible indices for case {case_id}")
    qv = QParam.of(q).q
    if jobs <= 1:
        return _rows(case_id, params, zc, qv, ns)
    chunks = [ns[i * len(ns) // jobs:(i + 1) * len(ns) // jobs] for i in range(jobs)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        parts = pool.map(_rows, repeat(case_id), repeat(params), repeat(zc), repeat(qv), [c for c in chunks if c])
        return [row for part in parts for row in part]


def candidates_for_case(
    case_id: int,
    params: CaseParams,
    n_min: int,
    n_max: int,
    n_step: int = 1,
) -> list[int]:
    """Generate the index source the regime calls for, clipped to [n_min, n_max].

    Plain ranges for the decaying regime, lattice progressions for the
    rational regimes, witness searches at the declared quality for the
    irrational ones.
    """
    if n_min < 1 or n_max < n_min:
        raise EmptyCandidates(f"need 1 <= n_min <= n_max, got {n_min}..{n_max}")
    if n_step < 1:
        raise OutOfRange(f"n_step must be >= 1, got {n_step}")
    reg = _regime(case_id)
    if reg.witnesses:
        steps = [float(_axis(params.scaling, axis)) for axis, _ in reg.witnesses]
        betas = [getattr(params, name) for _, name in reg.witnesses]
        if len(steps) == 1:
            wits = witness_search(steps[0], betas[0], params.rho, n_max)
        else:
            wits = witness_search_pair(*steps, *betas, params.rho, n_max)
        ns = [w.n for w in wits if w.n >= n_min]
    elif reg.pins:
        prog = lattice_progression(_pins(reg, params))
        if prog is None:
            raise EmptyCandidates(f"the case-{case_id} targets are not attained together on this lattice")
        mod, residue = prog
        ns = [n for n in range(residue if residue >= 1 else mod, n_max + 1, mod) if n >= n_min]
    else:
        ns = list(range(n_min, n_max + 1))
    return ns[::n_step]


def summarize_rows(rows: Sequence[CaseVerificationRow]) -> VerificationSummary:
    """Empirical threshold report: from which sampled n onward the bound held."""
    if not rows:
        raise EmptyCandidates("cannot summarize an empty sweep")
    n_min: Optional[int] = None
    for row in reversed(rows):
        if row.within:
            n_min = row.n
        else:
            break
    return VerificationSummary(
        n_min_within=n_min,
        all_within_after_n_min=n_min is not None,
        max_err_at_tail=rows[-1].abs_err,
        n_first=rows[0].n,
        n_last=rows[-1].n,
        err_first=rows[0].abs_err,
        err_last=rows[-1].abs_err,
    )
