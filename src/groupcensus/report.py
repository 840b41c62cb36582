"""Result records shared by the verifier, the catalog and the CLI."""

from __future__ import annotations

from collections import namedtuple


class CheckResult(namedtuple("CheckResult", "name passed detail",
                             defaults=("",))):
    """Outcome of one named check; detail carries the witness on failure."""

    __slots__ = ()


class ClaimResult(namedtuple("ClaimResult", "delta label order delta_computed"
                             " sigma_computed passed detail", defaults=("",))):
    """Outcome of constructing one claimed group and checking its census."""

    __slots__ = ()


class VerificationReport:
    """Aggregate of claim checks, catalog sweep checks and property checks."""

    __slots__ = ("claims", "sweep", "properties")

    def __init__(self, claims: list[ClaimResult] | None = None,
                 sweep: list[CheckResult] | None = None,
                 properties: list[CheckResult] | None = None) -> None:
        self.claims = [] if claims is None else claims
        self.sweep = [] if sweep is None else sweep
        self.properties = [] if properties is None else properties

    @property
    def passed(self) -> bool:
        return (all(c.passed for c in self.claims)
                and all(c.passed for c in self.sweep)
                and all(c.passed for c in self.properties))

    def merge(self, other: "VerificationReport") -> None:
        self.claims.extend(other.claims)
        self.sweep.extend(other.sweep)
        self.properties.extend(other.properties)

    def failures(self) -> list[str]:
        out = [f"claim {c.delta}/{c.label}: {c.detail}"
               for c in self.claims if not c.passed]
        out.extend(f"{c.name}: {c.detail}" for c in self.sweep if not c.passed)
        out.extend(f"{c.name}: {c.detail}" for c in self.properties if not c.passed)
        return out
