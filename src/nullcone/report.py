"""Structured pass/fail reports shared by the library and the CLI."""

from __future__ import annotations

from typing import NamedTuple


class Record:
    """Base of the plain record classes, which are mutated or cache values:
    _fields names the constructor's arguments in order, and _replace
    copies through the constructor, so no cached value is carried over."""

    _fields: tuple = ()

    def _replace(self, **changes):
        return type(self)(**{f: changes.pop(f, getattr(self, f)) for f in self._fields},
                          **changes)


class Check(NamedTuple):
    """One named verification with its observed and expected values."""

    name: str
    status: str  # "pass", "fail" or "info"
    observed: object
    expected: object
    tol: float | None = None
    anchor: str = ""


class Report:
    """Ordered collection of checks produced by a verification routine."""

    def __init__(self, suite: str, seed: int = 0, checks: list[Check] | None = None):
        self.suite = suite
        self.seed = seed
        self.checks = [] if checks is None else checks

    def add(self, name: str, ok: bool, observed, expected, tol=None, anchor: str = ""):
        self.checks.append(
            Check(name, "pass" if ok else "fail", observed, expected, tol, anchor)
        )

    def residual(self, name: str, value: float, tol: float, anchor: str = ""):
        """Record a residual that must not exceed tol."""
        self.add(name, float(value) <= tol, float(value), 0.0, tol, anchor)

    def equals(self, name: str, observed, expected, anchor: str = ""):
        """Record an exact (integer, string, tuple, bool) comparison."""
        if isinstance(observed, tuple):
            observed = tuple(observed)
        self.add(name, observed == expected, observed, expected, None, anchor)

    def info(self, name: str, observed, anchor: str = ""):
        """Record a diagnostic value that is reported but never asserted."""
        self.checks.append(Check(name, "info", observed, None, None, anchor))

    def absorb(self, other: "Report", prefix: str = ""):
        """Append the checks of another report, each name with the prefix."""
        self.checks.extend(c._replace(name=prefix + c.name) for c in other.checks)

    @property
    def n_pass(self) -> int:
        return sum(1 for c in self.checks if c.status == "pass")

    @property
    def n_fail(self) -> int:
        return sum(1 for c in self.checks if c.status == "fail")

    @property
    def ok(self) -> bool:
        return self.n_fail == 0

    def failures(self) -> list[Check]:
        return [c for c in self.checks if c.status == "fail"]
