"""Seeded input generators and op runners for the three benchmark workloads.

A generator emits only what the program receives: sweep configs (JSON files
for ``swigert verify --config``), argument lists for ``swigert witness``,
or argument tuples for the library evaluators.  Each op also carries the
exact parameters the checker needs (``Fraction`` forms of the rationals and
the doubles behind the irrational tokens), derived here from the same
seeded draw, never from the program.

Op kinds cycle through a fixed deck, shuffled once per seed, so every seed
runs the same mix and only the drawn parameters differ.  Parameters are
drawn fresh for every op, so a long run never repeats an input.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Optional

# The documented scaling tokens, evaluated as the README defines them.
TOKENS = {
    "sqrt2": math.sqrt(2.0),
    "sqrt3": math.sqrt(3.0),
    "phi": (1.0 + math.sqrt(5.0)) / 2.0,
    "e": math.e,
    "pi": math.pi,
}

# Tokens of positive irrationals, used as witness targets.
POS_IRR = ["sqrt2-1", "sqrt3-1", "phi-1", "e-2", "pi-3", "sqrt2", "phi", "sqrt3"]
# Irrational tau in (-2, 0) for cases 6 and 7.
NEG_IRR = ["-sqrt2+1", "-sqrt3+1", "-phi+1", "-e+2", "-pi+3", "-sqrt2", "-phi", "-sqrt3"]

Q_SET = (0.3, 0.5, 0.7)


def token_value(tok: str) -> float:
    """Double value of a scaling token, computed as the documented grammar says."""
    neg = tok.startswith("-")
    body = tok[1:] if neg else tok
    name, off = body, 0
    for i, ch in enumerate(body):
        if i and ch in "+-":
            name, off = body[:i], int(body[i:])
            break
    v = TOKENS[name]
    if neg:
        v = -v
    if off:
        v += off
    return v


def exact(text: str) -> tuple[Fraction, bool]:
    """(exact value, is_rational) of a scaling string as the checker sees it."""
    try:
        return Fraction(text), True
    except ValueError:
        return Fraction(token_value(text)), False


@dataclass
class Op:
    """One unit of work: a CLI invocation or one library evaluation."""

    kind: str
    argv: Optional[list] = None          # CLI ops
    call: Optional[tuple] = None         # eval ops: (module, function, args)
    out: Optional[Path] = None           # report file a CLI op writes
    inputs: dict = field(default_factory=dict)   # path -> text, written before the op runs
    meta: dict = field(default_factory=dict)

    def write_inputs(self) -> None:
        for path, text in self.inputs.items():
            path.write_text(text, encoding="utf-8")


@dataclass
class Result:
    status: int
    text: str              # stdout plus the report file, as the checker reads them
    rows: int
    value: Any = None      # eval ops: [(value, tail_bound)] per grid point
    error: str = ""


def _rand_z(rng: random.Random, lo: float, hi: float) -> complex:
    r = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    t = rng.uniform(0.0, 2.0 * math.pi)
    return complex(round(r * math.cos(t), 6), round(r * math.sin(t), 6))


def _rand_frac(rng: random.Random, dens) -> Fraction:
    d = rng.choice(dens)
    return Fraction(rng.randrange(1, d), d)


def _frac_text(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _sweep_op(kind: str, cfg: dict, work: Path, index: int, meta: dict) -> Op:
    out = work / f"{kind}-{index % 2}.{cfg['format']}"
    cfg = dict(cfg, out=str(out))
    path = work / f"{kind}-{index % 2}.json"
    return Op(kind="verify", argv=["verify", "--config", str(path)], out=out,
              inputs={path: json.dumps(cfg, sort_keys=True)}, meta=dict(meta, cfg=cfg))


class LatticeSweep:
    """Rational-index sweeps: mostly case 4, plus cases 1 and 2; csv and json."""

    # (case, depth, format); every kind runs once at each q of Q_SET per deck.
    KINDS = [
        (4, "shallow", "csv"), (4, "deep", "csv"), (4, "deep", "json"), (4, "deep", "csv"),
        (4, "shallow", "json"), (1, "shallow", "csv"), (2, "shallow", "csv"), (2, "deep", "json"),
    ]
    TAUS4 = ["-1/2", "-1/3", "-2/3", "-1/4", "-3/4", "-3/2", "-4/3", "-5/4", "-5/3"]
    TAUS1 = ["1/2", "1/3", "2/3", "1", "3/2"]
    ROWS = {4: 200, 1: 300, 2: 200}

    def __init__(self, seed: int, work: Path, size: str):
        self.rng = random.Random(f"lattice-sweep/{seed}")
        self.work = work
        self.tiny = size == "tiny"
        deck = [k + (q,) for k in self.KINDS for q in Q_SET]
        self.rng.shuffle(deck)
        self.deck = deck

    def _progression(self, mod: int, n0: int, depth: str, rows: int) -> tuple:
        """(n_max, n_step) giving exactly `rows` sweep rows on the progression of n0 mod `mod`."""
        lo, hi = {"shallow": (800, 3000), "deep": (20_000, 100_000)}[depth]
        if self.tiny:
            lo, hi = lo // 20, hi // 20
        step_lo = max(1, lo // (rows * mod))
        n_step = self.rng.randint(step_lo, max(step_lo, hi // (rows * mod)))
        start = (n0 - 1) % mod + 1
        return start + (rows * n_step - 1) * mod, n_step

    def make(self, index: int, kind=None, rows=None) -> Op:
        case, depth, fmt, q = kind or self.deck[index % len(self.deck)]
        rng = self.rng
        rows = rows or self.ROWS[case] // (10 if self.tiny else 1)
        z = _rand_z(rng, 0.7, 1.4) if case == 4 else _rand_z(rng, 0.8, 2.0)
        cfg = {"case_id": case, "q": q, "z_re": z.real, "z_im": z.imag, "format": fmt, "n_min": 1}
        n0 = rng.randrange(1, 10_000)
        if case == 4:
            tau = Fraction(rng.choice(self.TAUS4))
            theta = _rand_frac(rng, (2, 3, 4, 5, 6, 7))
            n_max, n_step = self._progression(math.lcm(tau.denominator, theta.denominator), n0, depth, rows)
            cfg.update(tau=_frac_text(tau), theta=_frac_text(theta), n_max=n_max, n_step=n_step)
            cfg["lambda"], cfg["lambda1"] = _frac_text((-tau * n0) % 1), _frac_text((theta * n0) % 1)
        elif case == 1:
            tau = Fraction(rng.choice(self.TAUS1))
            theta = _rand_frac(rng, (2, 3, 5, 7, 10))
            n_min = n0 % 50 + 1
            cfg.update(tau=_frac_text(tau), theta=_frac_text(theta), n_min=n_min,
                       n_max=n_min + rows - 1, n_step=1)
        else:
            tau = Fraction(0)
            theta = _rand_frac(rng, (2, 3, 4, 5, 6, 7))
            n_max, n_step = self._progression(theta.denominator, n0, depth, rows)
            cfg.update(tau="0", theta=_frac_text(theta), n_max=n_max, n_step=n_step)
            cfg["lambda"] = _frac_text((theta * n0) % 1)
        meta = {"case": case, "q": q, "z": z, "tau": (tau, True), "theta": (theta, True)}
        return _sweep_op(f"c{case}", cfg, self.work, index, meta)

    def warmup(self) -> list:
        return [self.make(-1 - i, (case, "shallow", "csv", q), rows=20)
                for i, (case, q) in enumerate(((4, 0.3), (4, 0.5), (4, 0.7), (1, 0.5), (2, 0.5)))]


class WitnessSweep:
    """Witness-driven verify (cases 3, 5, 6, 7) mixed with witness tables."""

    KINDS = [
        ("v3", 0), ("v3", 1), ("v5", 0), ("v5", 1), ("v6", 0), ("v6", 1), ("v7", 0), ("v7", 1),
        ("w1", 0), ("w1", 1), ("w1", 1), ("w2", 1),
    ]
    N_MAX = (250_000, 500_000, 1_000_000)
    TAUS5 = ["-1/2", "-1/3", "-2/3", "-3/2", "-1/4", "-3/4"]

    def __init__(self, seed: int, work: Path, size: str):
        self.rng = random.Random(f"witness-sweep/{seed}")
        self.work = work
        self.tiny = size == "tiny"
        deck = [k + (n,) for k in self.KINDS for n in self.N_MAX]
        self.rng.shuffle(deck)
        self.deck = deck

    def _beta(self, nonzero: int) -> float:
        return round(self.rng.uniform(0.05, 0.95), 6) if nonzero else 0.0

    def make(self, index: int, kind=None) -> Op:
        name, nonzero, n_max = kind or self.deck[index % len(self.deck)]
        if self.tiny:
            n_max //= 100
        rng = self.rng
        single_rho, pair_rho = 1.0, 0.5
        if name == "w1":
            tok = rng.choice(POS_IRR)
            beta = self._beta(nonzero)
            argv = ["witness", "--theta", tok, "--beta", repr(beta), "--rho", repr(single_rho),
                    "--nmax", str(n_max)]
            meta = {"targets": [(exact(tok)[0], Fraction(beta))], "rho": single_rho, "n_max": n_max}
        elif name == "w2":
            t1, t2 = rng.sample(POS_IRR[:5], 2)
            b1, b2 = self._beta(1), self._beta(1)
            argv = ["witness", "--theta", t1, "--theta2", t2, "--beta", repr(b1), "--beta2", repr(b2),
                    "--rho", repr(pair_rho), "--nmax", str(n_max)]
            meta = {"targets": [(exact(t1)[0], Fraction(b1)), (exact(t2)[0], Fraction(b2))],
                    "rho": pair_rho, "n_max": n_max}
        if name in ("w1", "w2"):
            out = self.work / f"{name}-{index % 2}.csv"
            return Op(kind="witness", argv=argv + ["--out", str(out)], out=out, meta=meta)

        case = int(name[1])
        q = Q_SET[index % len(Q_SET)]
        z = _rand_z(rng, 0.7, 1.4) if case != 3 else _rand_z(rng, 1.2, 2.5)
        cfg = {"case_id": case, "q": q, "z_re": z.real, "z_im": z.imag, "format": "csv",
               "n_min": 1, "n_max": n_max, "n_step": 1, "rho": single_rho}
        if case == 3:
            tau, theta = "0", rng.choice(POS_IRR)
            cfg["beta"] = self._beta(nonzero)
        elif case == 5:
            tau, theta = rng.choice(self.TAUS5), rng.choice(POS_IRR)
            cfg["beta"] = self._beta(nonzero)
            cfg["lambda"] = _frac_text((-Fraction(tau) * rng.randrange(1, 100)) % 1)
        elif case == 6:
            tau = rng.choice(NEG_IRR)
            th = _rand_frac(rng, (2, 3, 4, 5))
            theta = _frac_text(th)
            cfg["beta"] = self._beta(nonzero)
            cfg["lambda"] = _frac_text((th * rng.randrange(1, 100)) % 1)
        else:
            i, j = rng.sample(range(5), 2)     # distinct orbits: NEG_IRR[i] == -POS_IRR[i]
            tau, theta = NEG_IRR[i], POS_IRR[j]
            cfg["beta1"], cfg["beta2"] = self._beta(nonzero), self._beta(nonzero)
            cfg["rho"] = pair_rho
        cfg.update(tau=tau, theta=theta)
        meta = {"case": case, "q": q, "z": z, "tau": exact(tau), "theta": exact(theta)}
        return _sweep_op(f"c{case}", cfg, self.work, index, meta)

    def warmup(self) -> list:
        n = 10_000 if self.tiny else 100_000
        return [self.make(-1, ("w1", 1, n)), self.make(-2, ("v7", 1, n)), self.make(-3, ("v5", 0, n))]


class EvalGrid:
    """Direct library evaluations: each op is a small grid at one fresh q.

    An op evaluates one function at GRID points (varied z and tol) sharing a
    fresh q in (0.05, 0.99), so every op starts with a cold (q;q)_j prefix
    and uncached infinite products.  One fresh q per call instead would grow
    the package's per-q caches by tens of MB a second.  The q of op i is
    the golden-ratio sequence frac(u + i/phi) from a seeded offset u: cost
    grows like (1 - q)^-2, so iid draws would let a few q near 0.99 set a
    run's throughput, while this sequence covers the range evenly.
    """

    FUNCS = [("qspecial", "ramanujan_Aq"), ("qspecial", "Bq"), ("qspecial", "theta_series"),
             ("qspecial", "theta_product"), ("qcore", "qpoch_infinite")]
    TOLS = (1e-8, 1e-10, 1e-12)
    GRID = 16

    def __init__(self, seed: int, work: Path, size: str):
        self.rng = random.Random(f"eval-grid/{seed}")
        self.deck = list(self.FUNCS)
        self.rng.shuffle(self.deck)
        self.q_hi = 0.9 if size == "tiny" else 0.99
        self.q_offset = self.rng.random()

    def _args(self, fn: str, q: float, i: int) -> tuple:
        rng, tol = self.rng, self.TOLS[i % len(self.TOLS)]
        if fn == "Bq":
            return (rng.uniform(0.0, 2.0), q, tol)
        if fn == "qpoch_infinite":
            a = _rand_z(rng, 0.1, 0.8)
            return (abs(a) if i % 2 else a, q, tol)
        return (_rand_z(rng, 0.5, 2.0), q, tol)

    def make(self, index: int, kind=None, q=None) -> Op:
        mod, fn = kind or self.deck[index % len(self.deck)]
        q = q or 0.05 + (self.q_hi - 0.05) * ((self.q_offset + index * 0.6180339887498949) % 1.0)
        grid = [self._args(fn, q, i) for i in range(self.GRID)]
        return Op(kind="eval", call=(mod, fn, grid))

    def warmup(self) -> list:
        return [self.make(-1, kind, q=0.5) for kind in self.FUNCS]


WORKLOADS = {"lattice-sweep": LatticeSweep, "witness-sweep": WitnessSweep, "eval-grid": EvalGrid}


def run_op(sw, op: Op) -> Result:
    """Execute one op against the imported package ``sw``; never raises."""
    if op.kind == "eval":
        mod, fn, grid = op.call
        try:
            func = getattr(getattr(sw, mod), fn)
            cvs = [func(*args) for args in grid]
        except Exception as exc:  # any raise is a failed op, recorded by the checker
            return Result(status=2, text="", rows=0, error=f"{type(exc).__name__}: {exc}")
        values = [(complex(cv.value), cv.tail_bound) for cv in cvs]
        return Result(status=0, text="", rows=len(values), value=values)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = sw.cli.main(op.argv)
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # any raise is a failed op, recorded by the checker
        return Result(status=2, text="", rows=0, error=f"{type(exc).__name__}: {exc}")
    if status not in (0, 1):
        return Result(status=status, text="", rows=0, error=err.getvalue().strip())
    body = op.out.read_text(encoding="utf-8")
    rows = body.count("\n") - 1 if body.startswith("n,") else body.count('"n":')
    return Result(status=status, text=out.getvalue() + "\f" + body, rows=rows)
