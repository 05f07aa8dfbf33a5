"""Command-line harness: one-off evaluations, witness tables, sweep reports.

Subcommands
-----------
eval     evaluate Aq / Bq / theta_series / theta_product / qpoch once and
         emit a single JSON record {value_re, value_im, tail_bound}
witness  search approximation witnesses and emit a CSV table
verify   run one regime sweep; write a CSV (or JSON) of verification rows
         plus a JSON summary; exit 0 iff the bound held from some index on
sweep    run a batch of verify configs from one JSON file

A verify config holds the same settings as the verify flags, under the
flags' names (``--case`` is ``case_id``, ``--nmin``/``--nmax``/``--nstep``
are ``n_min``/``n_max``/``n_step``).  Flags and config files alike are
defaulted and validated by ``SweepConfig.from_dict`` alone; a bad setting
exits 2 with the setting named.

Scaling values accept exact rationals ("1/3", "0.25"), symbolic tokens
(sqrt2, sqrt3, phi, e, pi, optionally negated/offset like "sqrt2-1"), or
raw decimals, which are read as their shortest-decimal rationals.  Reports
are byte-deterministic: identical configs give identical files, serial or
parallel.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from .asymptotics import CaseParams, candidates_for_case, summarize_rows, verify
from .errors import SwigertError
from .diophantine import witness_search, witness_search_pair
from .qcore import CertifiedValue, qpoch_finite, qpoch_infinite
from .qspecial import Bq, ramanujan_Aq, theta_product, theta_series
from .report import rows_to_csv, rows_to_json, summary_to_json, witnesses_to_csv
from .scaling import RealParam, Scaling


def _accepted_types(hint) -> tuple:
    """Python types a JSON value may take for a field annotation; float takes int too (read as float)."""
    types = typing.get_args(hint) or (hint,)
    return types + (int,) if float in types else types


@dataclass
class SweepConfig:
    """One verify run; each field is a config key and a verify flag dest (``lambda_`` is ``lambda``)."""

    case_id: int
    q: float
    tau: Union[str, float]
    theta: Union[str, float]
    z_re: float = 1.0
    z_im: float = 0.0
    lambda_: Union[str, float, None] = None
    lambda1: Union[str, float, None] = None
    beta: Optional[float] = None
    beta1: Optional[float] = None
    beta2: Optional[float] = None
    rho: Optional[float] = None
    n_min: int = 1
    n_max: int = 100
    n_step: int = 1
    out: str = "report.csv"
    format: str = "csv"
    jobs: int = 1

    @classmethod
    def from_dict(cls, d) -> "SweepConfig":
        """Default and validate one sweep's settings: the only reader of config keys and verify flags."""
        if not isinstance(d, dict):
            raise SwigertError(f"a sweep config must be a JSON object, got {type(d).__name__}")
        names = {f.name.rstrip("_"): f for f in dataclasses.fields(cls)}
        unknown = sorted(set(d) - set(names))
        if unknown:
            raise SwigertError(f"unknown config fields: {unknown}")
        missing = [key for key, f in names.items() if f.default is dataclasses.MISSING and key not in d]
        if missing:
            raise SwigertError(f"missing config fields: {missing}")
        values = {}
        for key, value in d.items():
            types = _accepted_types(_SWEEP_HINTS[names[key].name])
            if isinstance(value, bool) or not isinstance(value, types):
                expected = " or ".join(t.__name__ for t in types if t is not type(None))
                raise SwigertError(f"config field {key} must be {expected}, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise SwigertError(f"config field {key} must be finite, got {value!r}")
            values[names[key].name] = float(value) if float in types and isinstance(value, int) else value
        config = cls(**values)
        if config.format not in ("csv", "json"):
            raise SwigertError(f"config field format must be csv or json, got {config.format!r}")
        if config.jobs < 1:
            raise SwigertError(f"config field jobs must be >= 1, got {config.jobs}")
        return config

    def case_params(self) -> CaseParams:
        return CaseParams(
            case_id=self.case_id,
            scaling=Scaling.make(self.tau, self.theta),
            lambda_=self.lambda_,
            lambda1=self.lambda1,
            beta=self.beta, beta1=self.beta1, beta2=self.beta2, rho=self.rho,
        )


_SWEEP_HINTS = typing.get_type_hints(SweepConfig)   # evaluated once: from_dict runs per sweep


def _read_json(path: str):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _write_text(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8", newline="")


def _summary_path(out: str) -> str:
    p = Path(out)
    return str(p.with_suffix("")) + ".summary.json" if p.suffix in (".csv", ".json") else out + ".summary.json"


def _eval_qpoch(z: complex, a: complex, args) -> CertifiedValue:
    if args.n is None:
        raise SwigertError("eval qpoch requires --n (a nonnegative integer or 'inf')")
    a = a if a.imag != 0.0 else a.real
    if args.n.strip().lower() in ("inf", "infinity"):
        return qpoch_infinite(a, args.q, args.tol)
    return CertifiedValue(qpoch_finite(a, args.q, int(args.n)), 0.0)


_EVAL_FUNCTIONS = {
    "Aq": lambda z, a, args: ramanujan_Aq(z, args.q, args.tol),
    "Bq": lambda z, a, args: Bq(z.real, args.q, args.tol),
    "theta_series": lambda z, a, args: theta_series(z, args.q, args.tol),
    "theta_product": lambda z, a, args: theta_product(z, args.q, args.tol),
    "qpoch": _eval_qpoch,
}


def _cmd_eval(args) -> int:
    cv = _EVAL_FUNCTIONS[args.function](complex(args.z_re, args.z_im), complex(args.a_re, args.a_im), args)
    value = complex(cv.value)
    print(json.dumps({"value_re": value.real, "value_im": value.imag, "tail_bound": cv.tail_bound}, sort_keys=True))
    return 0


def _cmd_witness(args) -> int:
    theta = RealParam.parse(args.theta).value
    if args.theta2 is not None:
        theta2 = RealParam.parse(args.theta2).value
        wits = witness_search_pair(theta, theta2, args.beta, args.beta2 or 0.0, args.rho, args.nmax)
    else:
        wits = witness_search(theta, args.beta, args.rho, args.nmax)
    text = witnesses_to_csv(wits)
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _run_sweep(config: SweepConfig) -> int:
    params = config.case_params()
    z = complex(config.z_re, config.z_im)
    ns = candidates_for_case(config.case_id, params, config.n_min, config.n_max, config.n_step)
    rows = verify(config.case_id, params, z, config.q, ns, jobs=config.jobs)
    summary = summarize_rows(rows)
    body = rows_to_json(rows) if config.format == "json" else rows_to_csv(rows)
    _write_text(config.out, body)
    summary_text = summary_to_json(params, z, config.q, summary, n_count=len(rows))
    _write_text(_summary_path(config.out), summary_text)
    sys.stdout.write(summary_text)
    return 0 if summary.all_within_after_n_min else 1


def _cmd_verify(args) -> int:
    """The config file's settings when --config is given, else the flags that were set."""
    flags = {key: value for key, value in vars(args).items() if key not in ("command", "func")}
    path = flags.pop("config", None)
    return _run_sweep(SweepConfig.from_dict(_read_json(path) if path else flags))


def _cmd_sweep(args) -> int:
    data = _read_json(args.config)
    items = data.get("sweeps") if isinstance(data, dict) else data
    if not isinstance(items, list):
        raise SwigertError('a sweep batch must be a JSON list of configs or {"sweeps": [...]}')
    configs = [SweepConfig.from_dict(item) for item in items]
    return max((_run_sweep(config) for config in configs), default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="swigert", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one special function")
    p_eval.add_argument("function", choices=_EVAL_FUNCTIONS)
    p_eval.add_argument("--q", type=float, required=True)
    p_eval.add_argument("--tol", type=float, default=1e-12)
    p_eval.add_argument("--z", "--z-re", dest="z_re", type=float, default=0.0)
    p_eval.add_argument("--z-im", dest="z_im", type=float, default=0.0)
    p_eval.add_argument("--a", "--a-re", dest="a_re", type=float, default=0.0)
    p_eval.add_argument("--a-im", dest="a_im", type=float, default=0.0)
    p_eval.add_argument("--n", type=str, default=None, help="order for qpoch: integer or 'inf'")
    p_eval.set_defaults(func=_cmd_eval)

    p_wit = sub.add_parser("witness", help="search approximation witnesses")
    p_wit.add_argument("--theta", required=True)
    p_wit.add_argument("--beta", type=float, default=0.0)
    p_wit.add_argument("--rho", type=float, required=True)
    p_wit.add_argument("--nmax", type=int, required=True)
    p_wit.add_argument("--theta2", default=None)
    p_wit.add_argument("--beta2", type=float, default=None)
    p_wit.add_argument("--out", default=None)
    p_wit.set_defaults(func=_cmd_witness)

    # No defaults here: a flag that is not given is absent, and from_dict fills it in.
    p_ver = sub.add_parser("verify", help="run one regime sweep and report", argument_default=argparse.SUPPRESS)
    p_ver.add_argument("--config", help="JSON file of sweep settings, keyed like the flag dests; flags are then ignored")
    p_ver.add_argument("--case", dest="case_id", type=int)
    p_ver.add_argument("--q", type=float)
    p_ver.add_argument("--z-re", dest="z_re", type=float)
    p_ver.add_argument("--z-im", dest="z_im", type=float)
    p_ver.add_argument("--tau")
    p_ver.add_argument("--theta")
    p_ver.add_argument("--lambda")
    p_ver.add_argument("--lambda1")
    p_ver.add_argument("--beta", type=float)
    p_ver.add_argument("--beta1", type=float)
    p_ver.add_argument("--beta2", type=float)
    p_ver.add_argument("--rho", type=float)
    p_ver.add_argument("--nmin", dest="n_min", type=int)
    p_ver.add_argument("--nmax", dest="n_max", type=int)
    p_ver.add_argument("--nstep", dest="n_step", type=int)
    p_ver.add_argument("--out")
    p_ver.add_argument("--format")
    p_ver.add_argument("--jobs", type=int)
    p_ver.set_defaults(func=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="run a batch of verify configs")
    p_sweep.add_argument("--config", required=True)
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def _value_flags(parser: argparse.ArgumentParser) -> set:
    """Option strings of the parser and its subcommands that take one value."""
    flags = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= _value_flags(sub)
        elif action.option_strings and action.nargs is None:
            flags.update(action.option_strings)
    return flags


def _attach_signed_values(parser: argparse.ArgumentParser, argv) -> list:
    """Join a value starting with '-' to its flag ('--z -1e-3' -> '--z=-1e-3'); argparse reads it as an option."""
    flags = _value_flags(parser)
    out = []
    for arg in argv:
        if out and out[-1] in flags and arg.startswith("-") and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_signed_values(parser, sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (SwigertError, OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
