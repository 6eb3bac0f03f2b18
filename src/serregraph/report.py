"""Structured verdicts for inequality checks.

A BoundReport records one inequality instance: which hypotheses were
checked, both sides, the oriented margin (pass iff margin >= 0), and the
constants that went into the right-hand side. If any hypothesis fails the
verdict is "not applicable", never "fail".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from .exact import frac_str


class BoundViolation(ArithmeticError):
    """An exact inequality that a published result guarantees came out false.

    Raised only from exact-arithmetic code paths; seeing this exception means
    either an implementation bug or a genuine counterexample, so it is never
    caught silently.
    """


@dataclass(frozen=True)
class Hypothesis:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class BoundReport:
    name: str
    lhs: float
    rhs: float
    margin: float
    hypotheses: tuple[Hypothesis, ...] = ()
    constants: dict[str, Any] = field(default_factory=dict)
    tolerance: float = 0.0
    notes: str = ""

    @property
    def applicable(self) -> bool:
        return all(h.ok for h in self.hypotheses)

    @property
    def verdict(self) -> str:
        if not self.applicable:
            return "not applicable"
        if self.margin >= self.tolerance:
            return "pass"
        if self.margin >= -self.tolerance:
            return "pass within tolerance"
        return "fail"

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "verdict": self.verdict,
            "tolerance": self.tolerance,
            "hypotheses": [
                {"name": h.name, "ok": h.ok, "detail": h.detail} for h in self.hypotheses
            ],
            "constants": {k: frac_str(v) if isinstance(v, Fraction) else v
                          for k, v in self.constants.items()},
            "notes": self.notes,
        }


def report(name, lhs, rhs, *, hypotheses=(), constants=None, tolerance=0.0, notes=""):
    """BoundReport with margin = lhs - rhs (orientation: pass iff lhs >= rhs)."""
    return BoundReport(
        name=name,
        lhs=float(lhs),
        rhs=float(rhs),
        margin=float(lhs) - float(rhs),
        hypotheses=tuple(hypotheses),
        constants=dict(constants or {}),
        tolerance=tolerance,
        notes=notes,
    )


def upper(name, value, bound, *, hypotheses=(), constants=None, tolerance=0.0, notes=""):
    """BoundReport for value <= bound; lhs/rhs keep the display order."""
    return BoundReport(
        name=name,
        lhs=float(value),
        rhs=float(bound),
        margin=float(bound) - float(value),
        hypotheses=tuple(hypotheses),
        constants=dict(constants or {}),
        tolerance=tolerance,
        notes=notes,
    )
