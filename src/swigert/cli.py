"""Command-line harness: one-off evaluations, witness tables, sweep reports.

Subcommands
-----------
eval     evaluate Aq / Bq / theta_series / theta_product / qpoch once and
         emit a single JSON record {value_re, value_im, tail_bound}
witness  search approximation witnesses and emit a CSV table
verify   run one regime sweep; write a CSV (or JSON) of verification rows
         plus a JSON summary; exit 0 iff the bound held from some index on
sweep    run a batch of verify configs from one JSON file

Scaling values accept exact rationals ("1/3", "0.25"), symbolic tokens
(sqrt2, sqrt3, phi, e, pi, optionally negated/offset like "sqrt2-1"), or
raw decimals, which are read as their shortest-decimal rationals.  Reports
are byte-deterministic: identical configs give identical files, serial or
parallel.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .asymptotics import (
    CaseParams,
    candidates_for_case,
    summarize_rows,
    verify,
)
from .errors import SwigertError
from .diophantine import witness_search, witness_search_pair
from .qcore import qpoch_finite, qpoch_infinite
from .qspecial import Bq, ramanujan_Aq, theta_product, theta_series
from .report import rows_to_csv, rows_to_json, summary_to_json, witnesses_to_csv
from .scaling import RealParam, Scaling

_EVAL_FUNCTIONS = ("Aq", "Bq", "theta_series", "theta_product", "qpoch")


def _parse_target(text) -> Optional[object]:
    """Fractional target from config/CLI: Fraction when exact, float otherwise."""
    if text is None:
        return None
    if isinstance(text, (int, float)):
        return float(text)
    s = str(text).strip()
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        param = RealParam.parse(s)
        return float(param.value)


@dataclass
class SweepConfig:
    """One verify run, mirroring the JSON config field names."""

    case_id: int
    q: float
    z_re: float
    z_im: float
    tau: object
    theta: object
    lambda_: Optional[object] = None
    lambda1: Optional[object] = None
    beta: Optional[float] = None
    beta1: Optional[float] = None
    beta2: Optional[float] = None
    rho: Optional[float] = None
    n_min: int = 1
    n_max: int = 100
    n_step: int = 1
    candidates: Optional[list] = None
    out: str = "report.csv"
    format: str = "csv"
    jobs: int = 1

    @classmethod
    def from_dict(cls, d: dict) -> "SweepConfig":
        known = {
            "case_id", "q", "z_re", "z_im", "tau", "theta", "lambda", "lambda1",
            "beta", "beta1", "beta2", "rho", "n_min", "n_max", "n_step",
            "candidates", "out", "format", "jobs",
        }
        unknown = set(d) - known
        if unknown:
            raise SwigertError(f"unknown config fields: {sorted(unknown)}")
        d = dict(d)
        if "lambda" in d:
            d["lambda_"] = d.pop("lambda")
        return cls(**d)

    def case_params(self) -> CaseParams:
        scaling = Scaling.make(self.tau, self.theta)
        return CaseParams(
            case_id=int(self.case_id),
            scaling=scaling,
            lambda_=_parse_target(self.lambda_),
            lambda1=_parse_target(self.lambda1),
            beta=None if self.beta is None else float(self.beta),
            beta1=None if self.beta1 is None else float(self.beta1),
            beta2=None if self.beta2 is None else float(self.beta2),
            rho=None if self.rho is None else float(self.rho),
        )


def _write_text(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8", newline="")


def _summary_path(out: str) -> str:
    p = Path(out)
    return str(p.with_suffix("")) + ".summary.json" if p.suffix in (".csv", ".json") else out + ".summary.json"


def _cmd_eval(args) -> int:
    q = args.q
    tol = args.tol
    z = complex(args.z_re if args.z_re is not None else args.z or 0.0, args.z_im or 0.0)
    a = complex(args.a_re if args.a_re is not None else args.a or 0.0, args.a_im or 0.0)
    name = args.function
    if name == "Aq":
        cv = ramanujan_Aq(z, q, tol)
    elif name == "Bq":
        cv = Bq(z.real, q, tol)
    elif name == "theta_series":
        cv = theta_series(z, q, tol)
    elif name == "theta_product":
        cv = theta_product(z, q, tol)
    else:
        if args.n is None:
            raise SwigertError("eval qpoch requires --n (a nonnegative integer or 'inf')")
        if args.n.strip().lower() in ("inf", "infinity"):
            cv = qpoch_infinite(a if a.imag != 0.0 else a.real, q, tol)
        else:
            value = qpoch_finite(a if a.imag != 0.0 else a.real, q, int(args.n))
            record = {"value_re": complex(value).real, "value_im": complex(value).imag, "tail_bound": 0.0}
            print(json.dumps(record, sort_keys=True))
            return 0
    record = {
        "value_re": complex(cv.value).real,
        "value_im": complex(cv.value).imag,
        "tail_bound": cv.tail_bound,
    }
    print(json.dumps(record, sort_keys=True))
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
    if config.candidates is not None:
        ns = [int(n) for n in config.candidates]
    else:
        ns = candidates_for_case(config.case_id, params, config.n_min, config.n_max, config.n_step)
    rows = verify(config.case_id, params, z, config.q, ns, jobs=config.jobs)
    summary = summarize_rows(rows)
    body = rows_to_json(rows) if config.format == "json" else rows_to_csv(rows)
    _write_text(config.out, body)
    summary_text = summary_to_json(params, z, config.q, summary, n_count=len(rows))
    _write_text(_summary_path(config.out), summary_text)
    sys.stdout.write(summary_text)
    return 0 if summary.all_within_after_n_min else 1


def _config_from_args(args) -> SweepConfig:
    if args.config:
        data = json.loads(Path(args.config).read_text(encoding="utf-8"))
        return SweepConfig.from_dict(data)
    missing = [k for k in ("case", "q", "tau", "theta", "nmax") if getattr(args, k, None) is None]
    if missing:
        raise SwigertError(f"verify needs --config or flags; missing: {missing}")
    return SweepConfig(
        case_id=args.case,
        q=args.q,
        z_re=args.z_re if args.z_re is not None else 1.0,
        z_im=args.z_im or 0.0,
        tau=args.tau,
        theta=args.theta,
        lambda_=args.lambda_,
        lambda1=args.lambda1,
        beta=args.beta,
        beta1=args.beta1,
        beta2=args.beta2,
        rho=args.rho,
        n_min=args.nmin,
        n_max=args.nmax,
        n_step=args.nstep,
        out=args.out,
        format=args.format,
        jobs=args.jobs,
    )


def _cmd_verify(args) -> int:
    return _run_sweep(_config_from_args(args))


def _cmd_sweep(args) -> int:
    data = json.loads(Path(args.config).read_text(encoding="utf-8"))
    items = data["sweeps"] if isinstance(data, dict) else data
    status = 0
    for item in items:
        status = max(status, _run_sweep(SweepConfig.from_dict(item)))
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="swigert", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one special function")
    p_eval.add_argument("function", choices=_EVAL_FUNCTIONS)
    p_eval.add_argument("--q", type=float, required=True)
    p_eval.add_argument("--tol", type=float, default=1e-12)
    p_eval.add_argument("--z", type=float, default=None)
    p_eval.add_argument("--z-re", dest="z_re", type=float, default=None)
    p_eval.add_argument("--z-im", dest="z_im", type=float, default=None)
    p_eval.add_argument("--a", type=float, default=None)
    p_eval.add_argument("--a-re", dest="a_re", type=float, default=None)
    p_eval.add_argument("--a-im", dest="a_im", type=float, default=None)
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

    p_ver = sub.add_parser("verify", help="run one regime sweep and report")
    p_ver.add_argument("--config", default=None, help="JSON file mirroring the sweep-config fields")
    p_ver.add_argument("--case", type=int, default=None)
    p_ver.add_argument("--q", type=float, default=None)
    p_ver.add_argument("--z-re", dest="z_re", type=float, default=None)
    p_ver.add_argument("--z-im", dest="z_im", type=float, default=None)
    p_ver.add_argument("--tau", default=None)
    p_ver.add_argument("--theta", default=None)
    p_ver.add_argument("--lambda", dest="lambda_", default=None)
    p_ver.add_argument("--lambda1", default=None)
    p_ver.add_argument("--beta", type=float, default=None)
    p_ver.add_argument("--beta1", type=float, default=None)
    p_ver.add_argument("--beta2", type=float, default=None)
    p_ver.add_argument("--rho", type=float, default=None)
    p_ver.add_argument("--nmin", type=int, default=1)
    p_ver.add_argument("--nmax", type=int, default=None)
    p_ver.add_argument("--nstep", type=int, default=1)
    p_ver.add_argument("--out", default="report.csv")
    p_ver.add_argument("--format", choices=("csv", "json"), default="csv")
    p_ver.add_argument("--jobs", type=int, default=1)
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
    except SwigertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
