"""Structured, deterministic reports for the check suites.

One record per check with its residual and threshold; the summary verdict is
the conjunction.  A record also names the loop seed that gave its worst
residual (``worst_seed``, null when the record is not a worst over seeds) and
the number of values it reduces (``samples``); ``check --seed <worst_seed>
--seeds 1`` reproduces that residual under the same BLAS thread count (the
last bits of some residuals, and so the worst seed, can depend on it).
Bodies carry no timestamps so identical configurations produce
byte-identical documents that CI can diff across commits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import __version__

__all__ = ["CheckRecord", "Report", "json_text"]


def json_text(doc: dict) -> str:
    """The text of every JSON document curvjet writes: indented, keys sorted, one final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class CheckRecord:
    """A single named check: pass iff residual <= threshold."""

    name: str
    residual: float
    threshold: float
    worst_seed: int | None = None
    samples: int = 1

    def __post_init__(self) -> None:
        # numpy scalars would make ``passed`` a numpy bool, which JSON rejects
        object.__setattr__(self, "residual", float(self.residual))
        object.__setattr__(self, "threshold", float(self.threshold))

    @property
    def passed(self) -> bool:
        return self.residual <= self.threshold

    @property
    def margin(self) -> float:
        """residual / threshold: below 1 passes, and the smaller the safer."""
        return self.residual / self.threshold

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "residual": self.residual,
            "threshold": self.threshold,
            "pass": self.passed,
            "worst_seed": self.worst_seed,
            "samples": self.samples,
        }


@dataclass(frozen=True)
class Report:
    """Record list plus the configuration that produced it."""

    records: tuple[CheckRecord, ...]
    config: dict

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_dict(self) -> dict:
        return {
            "version": __version__,
            "config": self.config,
            "checks": [r.to_dict() for r in self.records],
            "pass": self.passed,
        }

    def to_json(self) -> str:
        return json_text(self.to_dict())

    def render_text(self) -> str:
        lines = []
        for r in self.records:
            mark = "PASS" if r.passed else "FAIL"
            seed = "-" if r.worst_seed is None else r.worst_seed
            lines.append(f"{mark}  {r.name}  residual {r.residual:.3e}  (<= {r.threshold:.1e})")
            lines.append(f"      margin {r.margin:.1e}  seed {seed}  samples {r.samples}")
        lines.append(f"summary: {'PASS' if self.passed else 'FAIL'} ({len(self.records)} checks)")
        return "\n".join(lines) + "\n"
