"""Shared audit-report containers used across the package."""

from dataclasses import asdict, dataclass, field

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
    """Pass/fail record of a batch of checks, with counterexample witnesses."""

    target: str
    passed: bool
    checks: tuple[AuditCheck, ...] = field(default_factory=tuple)

    def first_failure(self) -> AuditCheck | None:
        for check in self.checks:
            if not check.passed:
                return check
        return None

    def to_dict(self) -> dict:
        return asdict(self)
