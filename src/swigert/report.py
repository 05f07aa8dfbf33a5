"""Deterministic serialization of sweep rows, witnesses, and summaries.

Numbers are rendered as their shortest round-trip decimal (so reports are
diff-able and re-parse to the exact same doubles), complex values as paired
re/im columns, booleans as lowercase words.  All files use '\\n' line
endings and a '.' decimal separator regardless of locale.

Sweep rows are rendered from fixed per-row templates, because they are the
bulk of a report.  ``rows_to_json`` writes the bytes of
``json.dumps(..., indent=2, sort_keys=True)``: each scalar is a cell of json's
own compact encoding (float repr, NaN/Infinity/-Infinity, true/false/null,
int repr) placed into a template that holds the sorted keys and the
indentation.  ``rows_to_csv`` writes each row with one f-string in the order
of ``_ROW_COLUMNS``, each cell as ``fmt`` writes it.  The tests compare
both, byte for byte, with direct renderers: ``json.dumps`` of a dict per
row, and one text per cell.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction
from operator import attrgetter
from typing import Sequence

from .asymptotics import _PARAM_NAMES, CaseParams, CaseVerificationRow, VerificationSummary
from .diophantine import DiophantineWitness, PairedWitness

# The row schema, in column order: (column, getter); a missing value is None.  ROW_HEADER and
# the JSON template are built from it; rows_to_csv spells its cells out in one f-string, so a
# column added or moved here is added or moved there too (tests/test_report.py checks both).
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

# One JSON row: the columns in key order, each value a cell of json's own compact encoding.
_JSON_COLUMNS = sorted(_ROW_COLUMNS)
_JSON_ROW = "  {{\n" + ",\n".join(f'    "{column}": {{}}' for column, _ in _JSON_COLUMNS) + "\n  }}"

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
    for r in rows:   # the cells of _ROW_COLUMNS in its order, each as fmt writes it
        w = r.witness
        lines.append(f"{r.n},{r.lhs.real!r},{r.lhs.imag!r},{r.main.real!r},{r.main.imag!r},{r.abs_err!r},{r.bound!r},"
                     f"{'true' if r.within else 'false'},{r.nu_n}," + ("," if w is None else f"{w.m},{w.residual!r}"))
    return "\n".join(lines) + "\n"


def rows_to_json(rows: Sequence[CaseVerificationRow]) -> str:
    """The rows as ``json.dumps(..., indent=2, sort_keys=True)`` writes them, from a fixed per-row template."""
    if not rows:
        return "[]\n"
    cells = json.dumps([get(r) for r in rows for _, get in _JSON_COLUMNS])[1:-1].split(", ")
    width = len(_JSON_COLUMNS)
    return "[\n" + ",\n".join(_JSON_ROW.format(*cells[i:i + width]) for i in range(0, len(cells), width)) + "\n]\n"


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
