"""Deterministic serialization of sweep rows, witnesses, and summaries.

Numbers are rendered as their shortest round-trip decimal (so reports are
diff-able and re-parse to the exact same doubles), complex values as paired
re/im columns, booleans as lowercase words.  All files use '\\n' line
endings and a '.' decimal separator regardless of locale.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction
from operator import attrgetter
from typing import Sequence

from .asymptotics import _PARAM_NAMES, CaseParams, CaseVerificationRow, VerificationSummary
from .diophantine import DiophantineWitness, PairedWitness

# The row schema, in column order: (column, getter); a missing value is None.
_ROW_COLUMNS = (
    ("n", attrgetter("n")),
    ("lhs_re", attrgetter("lhs.real")),
    ("lhs_im", attrgetter("lhs.imag")),
    ("main_re", attrgetter("main.real")),
    ("main_im", attrgetter("main.imag")),
    ("abs_err", attrgetter("abs_err")),
    ("bound", attrgetter("bound")),
    ("within", attrgetter("within")),
    ("nu_n", attrgetter("nu_n")),
    ("witness_m", lambda r: None if r.witness is None else r.witness.m),
    ("witness_residual", lambda r: None if r.witness is None else r.witness.residual),
)

ROW_HEADER = ",".join(column for column, _ in _ROW_COLUMNS)

WITNESS_HEADER = "n,m,residual"
PAIRED_WITNESS_HEADER = "n,m,residual,m1,residual2"


def fmt(x) -> str:
    """Shortest round-trip text for the scalar kinds appearing in reports."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def rows_to_csv(rows: Sequence[CaseVerificationRow]) -> str:
    lines = [ROW_HEADER]
    for r in rows:
        lines.append(",".join(["" if (v := get(r)) is None else fmt(v) for _, get in _ROW_COLUMNS]))
    return "\n".join(lines) + "\n"


def rows_to_json(rows: Sequence[CaseVerificationRow]) -> str:
    payload = [{column: get(r) for column, get in _ROW_COLUMNS} for r in rows]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def witnesses_to_csv(witnesses: Sequence[DiophantineWitness | PairedWitness]) -> str:
    paired = bool(witnesses) and isinstance(witnesses[0], PairedWitness)
    lines = [PAIRED_WITNESS_HEADER if paired else WITNESS_HEADER]
    for w in witnesses:
        if isinstance(w, PairedWitness):
            lines.append(",".join((fmt(w.n), fmt(w.m), fmt(w.a_n), fmt(w.m1), fmt(w.b_n))))
        else:
            lines.append(",".join((fmt(w.n), fmt(w.m), fmt(w.residual))))
    return "\n".join(lines) + "\n"


def params_payload(params: CaseParams, z: complex, q: float) -> dict:
    """q, z, the scaling and every regime parameter, keyed like the config; a pin target as its exact text."""
    sc = params.scaling
    payload = {"q": q, "z_re": complex(z).real, "z_im": complex(z).imag, "tau": sc.tau.describe(), "theta": sc.theta.describe()}
    for name in _PARAM_NAMES:
        value = getattr(params, name)
        payload[name.rstrip("_")] = str(value) if isinstance(value, Fraction) else value
    return payload


def summary_to_json(params: CaseParams, z: complex, q: float, summary: VerificationSummary) -> str:
    payload = {"case": params.case_id, "params": params_payload(params, z, q), **dataclasses.asdict(summary)}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
