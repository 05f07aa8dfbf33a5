"""Refusals that no other test reaches: each input is refused at entry, with its error type and text."""

import json
import math
from fractions import Fraction

import pytest

from swigert.asymptotics import CaseParams, candidates_for_case, summarize_rows
from swigert.cli import build_parser
from swigert.diophantine import witness_search
from swigert.errors import (
    DomainTooLarge,
    EmptyCandidates,
    MissingParam,
    NonConvergent,
    OutOfRange,
    SwigertError,
    ZeroArgument,
)
from swigert.qcore import poch_tail_remainders, qpoch_infinite, qpoch_q_n
from swigert.scaling import RealParam, Scaling
from swigert.swpoly import log_normalizer, log_theta_normalizer, scaled_argument, sw_direct

CASE4 = Scaling.make("-1/2", "1/4")


def run_sweep(tmp_path, batch):
    """``swigert sweep --config`` on a batch file holding ``batch``, without main's exit-2 handler."""
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(batch))
    args = build_parser().parse_args(["sweep", "--config", str(path)])
    return args.func(args)


@pytest.mark.parametrize("call,error,message", [
    (lambda tmp: CaseParams(8, CASE4), MissingParam, "case_id must be 1..7, got 8"),
    (lambda tmp: CaseParams(3, Scaling.make("1/2", "sqrt2-1"), beta=0.1, rho=0.0), MissingParam,
     "rho must be > 0, got 0.0"),
    (lambda tmp: candidates_for_case(CaseParams(1, Scaling.make("1", "0")), 5, 4), EmptyCandidates,
     "need 1 <= n_min <= n_max, got 5..4"),
    (lambda tmp: summarize_rows([]), EmptyCandidates, "cannot summarize an empty sweep"),
    (lambda tmp: run_sweep(tmp, {"sweeps": 3}), SwigertError,
     'a sweep batch must be a JSON list of configs or {"sweeps": [...]}'),
    (lambda tmp: witness_search(math.sqrt(2.0) - 1.0, 0.1, 1.0, 10**6 + 1), OutOfRange,
     "n_max capped at 1000000 for exhaustive scans"),
    (lambda tmp: qpoch_q_n(0.5, -1), OutOfRange, "n must be >= 0, got -1"),
    (lambda tmp: poch_tail_remainders(-0.5, 0.5, 3), OutOfRange, "a must be >= 0, got -0.5"),
    (lambda tmp: poch_tail_remainders(math.nan, 0.5, 3), OutOfRange, "a must be >= 0, got nan"),
    (lambda tmp: poch_tail_remainders(0.5, 0.5, -1), OutOfRange, "n must be >= 0, got -1"),
    (lambda tmp: sw_direct(-1, 1.0, 0.5), DomainTooLarge, "degree must be >= 0, got -1"),
    (lambda tmp: scaled_argument(0, 3, CASE4, 0.5), ZeroArgument, "scaled argument requires z != 0"),
    (lambda tmp: log_normalizer(3, 0, CASE4, 0.5), ZeroArgument, "normalizer requires z != 0"),
    (lambda tmp: log_theta_normalizer(3, 0, CASE4, 0.5), ZeroArgument, "normalizer requires z != 0"),
    (lambda tmp: RealParam(0.5, Fraction(1, 3)), OutOfRange,
     "value must equal float(fraction) for rational parameters"),
    # the head (1 - a q^k) would need about 2.5e7 factors, past the cap of 1e6
    (lambda tmp: qpoch_infinite(1e10, 1 - 1e-6, 1e-12), NonConvergent,
     "no certified truncation point for |a|=10000000000.0, q=0.999999"),
])
def test_refused(tmp_path, call, error, message):
    with pytest.raises(error) as exc:
        call(tmp_path)
    assert type(exc.value) is error and str(exc.value) == message
