"""Check reports: per-quantity estimate/target rows with CSV/JSON emission.

CSV schema (fixed):
    quantity,estimate_re,estimate_im,std_error,target_re,target_im,z,N,s,hbar,samples,seed
Stochastic rows carry a z-score; deterministic rows carry an error measured
against a tolerance and leave the z column empty.  The JSON document mirrors
the rows and adds the full parameter echo.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Optional

from .montecarlo import MCEstimate

CSV_HEADER = "quantity,estimate_re,estimate_im,std_error,target_re,target_im,z,N,s,hbar,samples,seed"

Z_FAIL_THRESHOLD = 4.0


@dataclass(frozen=True)
class ReportRow:
    quantity: str
    estimate: complex
    std_error: Optional[float] = None  # None marks a deterministic quantity
    target: Optional[complex] = None
    z: Optional[float] = None
    error: Optional[float] = None
    tol: Optional[float] = None

    @classmethod
    def from_estimate(cls, quantity: str, est: MCEstimate, target: complex) -> "ReportRow":
        return cls(
            quantity=quantity,
            estimate=est.mean,
            std_error=est.std_error,
            target=complex(target),
            z=est.z_score(target),
        )

    @classmethod
    def deterministic(
        cls, quantity: str, estimate: complex, target: complex, tol: float
    ) -> "ReportRow":
        return cls(
            quantity=quantity,
            estimate=complex(estimate),
            target=complex(target),
            error=abs(complex(estimate) - complex(target)),
            tol=tol,
        )

    @property
    def stochastic(self) -> bool:
        return self.std_error is not None

    @property
    def passed(self) -> bool:
        if self.stochastic:
            return self.z is None or self.z < Z_FAIL_THRESHOLD
        if self.error is None or self.tol is None:
            return True
        return self.error <= self.tol


@dataclass
class Report:
    command: str
    params: dict
    rows: list
    seed: Optional[int] = None
    elapsed_s: Optional[float] = None
    notes: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def failure_kind(self) -> Optional[str]:
        """'numerical' beats 'statistical' when both kinds of row fail."""
        kinds = {("statistical" if r.stochastic else "numerical") for r in self.rows if not r.passed}
        if "numerical" in kinds:
            return "numerical"
        if "statistical" in kinds:
            return "statistical"
        return None

    def _common_fields(self) -> list:
        return [
            self.params.get("N", ""),
            self.params.get("s", ""),
            self.params.get("hbar", ""),
            self.params.get("samples", ""),
            self.seed if self.seed is not None else "",
        ]

    def to_csv(self) -> str:
        def fmt(x) -> str:
            if x is None or x == "":
                return ""
            if isinstance(x, float):
                return repr(x)
            return str(x)

        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")  # quotes "gram[a,b]"
        writer.writerow(CSV_HEADER.split(","))
        common = self._common_fields()
        for r in self.rows:
            writer.writerow([
                r.quantity,
                repr(float(r.estimate.real)),
                repr(float(r.estimate.imag)),
                fmt(r.std_error),
                fmt(None if r.target is None else float(r.target.real)),
                fmt(None if r.target is None else float(r.target.imag)),
                fmt(r.z),
            ] + [fmt(c) for c in common])
        return out.getvalue()

    def to_json(self) -> str:
        doc = {
            "command": self.command,
            "params": self.params,
            "seed": self.seed,
            "passed": self.passed,
            "failure_kind": self.failure_kind(),
            "elapsed_s": self.elapsed_s,
            "notes": self.notes,
            "rows": [
                {
                    "quantity": r.quantity,
                    "estimate_re": float(r.estimate.real),
                    "estimate_im": float(r.estimate.imag),
                    "std_error": r.std_error,
                    "target_re": None if r.target is None else float(r.target.real),
                    "target_im": None if r.target is None else float(r.target.imag),
                    "z": r.z,
                    "error": r.error,
                    "tol": r.tol,
                    "passed": r.passed,
                }
                for r in self.rows
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=False) + "\n"
