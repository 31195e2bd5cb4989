"""Shared audit-report containers, and the one rule that turns a failure mask into a check."""

from dataclasses import asdict, dataclass, field
from typing import Callable

__all__ = ["AuditCheck", "AxiomAuditReport"]


@dataclass(frozen=True)
class AuditCheck:
    """Outcome of one named check inside an audit.

    ``witness`` holds the first counterexample found (inputs and the two
    sides of the violated comparison); it is None when the check passed.
    """

    name: str
    passed: bool
    checked: int
    witness: dict | None = None
    detail: str = ""


@dataclass(frozen=True)
class AxiomAuditReport:
    """Pass/fail record of a batch of checks, with counterexample witnesses.

    ``passed`` is derived from ``checks``: true exactly when every check passed.
    """

    target: str
    passed: bool = field(init=False)
    checks: tuple[AuditCheck, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "passed", all(c.passed for c in self.checks))

    def to_dict(self) -> dict:
        return asdict(self)


def _first(mask: "np.ndarray"):
    """Index tuple of the first True entry of ``mask`` in row-major order, or None."""
    import numpy as np
    hits = np.flatnonzero(mask)
    return np.unravel_index(hits[0], mask.shape) if hits.size else None


def check(name: str, failed: "np.ndarray", witness_at: Callable, checked: int | None = None,
          detail: str = "") -> AuditCheck:
    """The check that no entry of the boolean array ``failed`` is True.

    On failure the witness is ``witness_at(*index)`` of the first True entry
    in row-major order.  ``checked`` defaults to ``failed.size``.
    """
    bad = _first(failed)
    return AuditCheck(name=name, passed=bad is None,
                      checked=failed.size if checked is None else checked,
                      witness=None if bad is None else witness_at(*bad), detail=detail)
