"""Output checks shared by the driver and its workers.

Every comparison here is written so that NaN fails it: ``within(x, bound)``
is ``x <= bound`` on a finite float, and nothing is reduced with ``max()``,
which silently drops a NaN that is not its first argument.  This module
imports no curvjet code, so the driver can use it without paying the
library import.
"""

from __future__ import annotations

import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# thresholds the library itself applies to a valid jet and to an Einstein
# verdict; the benchmark re-applies them NaN-safely
JET_TOL = 1e-8
EINSTEIN_TOL = 1e-8
REFERENCE_RTOL = 1e-12


def within(value, bound: float) -> bool:
    """True iff ``value`` is a finite number no larger than ``bound``."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        return False
    return math.isfinite(x) and x <= bound


def all_within(values, bound: float) -> bool:
    values = list(values)
    return bool(values) and all(within(v, bound) for v in values)


def jet_valid(validation) -> bool:
    """NaN-safe reading of the ``(passed, residuals)`` pair of ``validate_two_jet``."""
    ok, residuals = validation
    return bool(ok) and all_within(residuals.values(), JET_TOL)


def expected_check_names() -> list[str]:
    """Record names of a default ``curvjet check``, taken at the seed commit."""
    with open(os.path.join(REFERENCE_DIR, "check_records.txt")) as fh:
        return [line.strip() for line in fh if line.strip()]


def parse_check_text(text: str) -> dict[str, tuple[str, float, float]]:
    """Map record name -> (mark, residual, threshold) from the text report.

    Lines look like ``PASS  name  residual 1.2e-15  (<= 1.0e-09)``; the
    summary line and anything unparsable are skipped.
    """
    records = {}
    for line in text.splitlines():
        parts = line.split()
        if (len(parts) != 6 or parts[0] not in ("PASS", "FAIL")
                or parts[2] != "residual" or parts[4] != "(<="):
            continue
        try:
            residual = float(parts[3])
            threshold = float(parts[5].rstrip(")"))
        except ValueError:
            continue
        records[parts[1]] = (parts[0], residual, threshold)
    return records


def check_report_failures(text: str, expected: list[str]) -> list[str]:
    """Names of expected records that are missing, marked FAIL or not finite.

    A record passes only if it is printed PASS and its residual is a finite
    number within its threshold; an empty list means the report is good.
    """
    records = parse_check_text(text)
    bad = []
    for name in expected:
        rec = records.get(name)
        if rec is None or rec[0] != "PASS" or not within(rec[1], rec[2]):
            bad.append(name)
    return bad


def einstein_verdicts_agree(verdict: bool, report: dict) -> bool:
    """The three-verdict agreement rule of the ``einstein`` check suite."""
    one_jet = within(report["ricci_proportional"], EINSTEIN_TOL) and within(
        report["ricci_derivative"], EINSTEIN_TOL
    )
    tableau = one_jet and within(report["tableau_trace_defect"], EINSTEIN_TOL)
    form = one_jet and within(report["form_trace_defect"], EINSTEIN_TOL)
    return bool(verdict) == tableau == form


def hook_content_dim(n: int, k: int) -> int:
    """Dimension of C_k at dimension n: the GL(n) irreducible of shape (k+2, 2).

    The hook-content formula gives prod(n + content) / prod(hook length).
    """
    shape = (k + 2, 2)
    num, den = 1, 1
    for row, length in enumerate(shape):
        for col in range(length):
            num *= n + col - row
            below = sum(1 for r in shape[row + 1 :] if r > col)
            den *= (length - col - 1) + below + 1
    return num // den
