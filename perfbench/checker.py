"""Correctness checks on one CLI run: exit status, strict JSON, expected rows,
self-consistent verdicts, and bit-identical output across repeats."""

from __future__ import annotations

import json
import re

CONVERGE_FLOOR = 1e-12
# The one report field that is a measurement, not a result: it differs
# between identical runs, so output comparison masks its value.
_RUNTIME_MS = re.compile(rb'"runtime_ms": -?\d+')


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON token {token}")


def parse_report(data: bytes) -> dict:
    """Parse a report as strict JSON: NaN and Infinity tokens are errors."""
    return json.loads(data.decode("utf-8"), parse_constant=_reject_constant)


def _consistent(rows) -> list:
    """Whether each row's pass flag follows from its numbers.

    A check row passes when max_violation <= tolerance.  Converge rows are
    the exception: their "tolerance" is the worst violation of the study, a
    placeholder, and their shared verdict is the refinement rule of
    gausym.verify.convergence_study, recomputed here from the rows'
    violations: no positive violation may exceed 1.5 times the previous
    one, up to the round-off floor 1e-12.
    """
    studies = {}
    for row in rows:
        if row["name"].startswith("converge:"):
            studies.setdefault(row["name"].split("[")[0], []).append(row["max_violation"])
    verdicts = {}
    for study, violations in studies.items():
        positive = [max(v, 0.0) for v in violations]
        verdicts[study] = all(later <= max(1.5 * earlier, CONVERGE_FLOOR)
                              for earlier, later in zip(positive, positive[1:]))
    return [
        row["pass"] == verdicts[row["name"].split("[")[0]]
        if row["name"].startswith("converge:")
        else row["pass"] == (row["max_violation"] <= row["tolerance"])
        for row in rows
    ]


def comparable(output: bytes) -> bytes:
    """Output with the timing field's digits masked; all else byte-exact."""
    return _RUNTIME_MS.sub(b'"runtime_ms": 0', output)


def problems(workload, exit_code, report, output: bytes, reference) -> list:
    """Reasons this run's output is wrong; an empty list means it passed.

    ``exit_code`` is None when the run was killed or timed out.  ``report``
    is the JSON report (None if none was written) and ``output`` everything
    the run wrote, report and curve files.  ``reference`` is the output of
    the first run of the same workload and seed in this benchmark run (None
    for that first run itself): fixed inputs must give bit-identical
    output, apart from the measured ``runtime_ms`` of each row.
    """
    if exit_code is None:
        return ["killed or timed out"]
    if exit_code not in (0, 1):
        return [f"exit code {exit_code}"]
    if report is None:
        return ["no report written"]
    try:
        rows = parse_report(report)["checks"]
        names = tuple(row["name"] for row in rows)
        bad = [name for name, ok in zip(names, _consistent(rows)) if not ok]
        all_pass = all(row["pass"] is True for row in rows)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed report: {exc}"]
    found = []
    if names != workload.rows:
        found.append(f"rows {list(names)} != expected {list(workload.rows)}")
    if bad:
        found.append(f"pass flag does not follow from the row's numbers on {bad}")
    if exit_code != (0 if all_pass else 1):
        found.append(f"exit code {exit_code} does not match the verdicts")
    if reference is not None and comparable(output) != comparable(reference):
        found.append("output differs from the first run of this workload")
    return found


def pass_fraction(report: bytes) -> float:
    """Share of report rows with "pass": true."""
    rows = parse_report(report)["checks"]
    return sum(1 for row in rows if row["pass"] is True) / len(rows)
