"""Structured check reports.

Every verifier in the package returns a CheckReport: one CheckItem per law,
with a pass/fail flag and, on failure, the first offending basis tuple in
lexicographic order.  Reports are plain values so the CLI and the tests can
consume them programmatically; rendering to text or JSON lives here too.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import chain, repeat
from math import prod

from .errors import CheckFailure


@dataclass(frozen=True)
class CheckItem:
    law: str
    passed: bool
    witness: tuple[int, ...] | None = None
    note: str = ""

    def as_dict(self) -> dict:
        d: dict = {"law": self.law, "passed": self.passed}
        if self.witness is not None:
            d["witness"] = list(self.witness)
        if self.note:
            d["note"] = self.note
        return d


@dataclass(frozen=True)
class CheckReport:
    subject: str
    items: tuple[CheckItem, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return all(item.passed for item in self.items)

    def failures(self) -> tuple[CheckItem, ...]:
        return tuple(item for item in self.items if not item.passed)

    def item(self, law: str) -> CheckItem:
        for it in self.items:
            if it.law == law:
                return it
        raise KeyError(f"no law {law!r} in report for {self.subject}")

    def require(self, context: str = "") -> "CheckReport":
        if not self.ok:
            laws = ", ".join(item.law for item in self.failures())
            where = f" ({context})" if context else ""
            raise CheckFailure(f"{self.subject}{where}: failed {laws}", report=self)
        return self

    def prefixed(self, prefix: str) -> "CheckReport":
        return CheckReport(self.subject, tuple(
            CheckItem(f"{prefix}.{it.law}", it.passed, it.witness, it.note)
            for it in self.items))

    def as_dict(self) -> dict:
        return {"subject": self.subject, "ok": self.ok,
                "items": [item.as_dict() for item in self.items]}

    def table(self) -> str:
        width = max((len(item.law) for item in self.items), default=4)
        lines = [f"subject: {self.subject}"]
        for item in self.items:
            status = "PASS" if item.passed else "FAIL"
            line = f"  {status}  {item.law.ljust(width)}"
            if item.witness is not None:
                line += f"  witness={item.witness}"
            if item.note:
                line += f"  [{item.note}]"
            lines.append(line)
        lines.append(f"result: {'all passed' if self.ok else f'{len(self.failures())} failed'}")
        return "\n".join(lines)


def merge_reports(subject: str, **sections: CheckReport) -> CheckReport:
    """Concatenate several reports, prefixing each item's law with its section name."""
    items: list[CheckItem] = []
    for name, report in sections.items():
        items.extend(report.prefixed(name).items)
    return CheckReport(subject, tuple(items))


class LawChecker:
    """Accumulates one CheckItem per law, keeping the first failure witness."""

    def __init__(self, subject: str):
        self.subject = subject
        self._items: list[CheckItem] = []

    def add(self, law: str, passed: bool, witness: tuple[int, ...] | None = None,
            note: str = "") -> bool:
        self._items.append(CheckItem(law, passed, witness if not passed else None, note))
        return passed

    def scan(self, law: str, pairs, note: str = "") -> bool:
        """pairs: iterable of (witness_tuple, ok_bool) in deterministic order."""
        for witness, ok in pairs:
            if not ok:
                self._items.append(CheckItem(law, False, tuple(witness), note))
                return False
        self._items.append(CheckItem(law, True, None, note))
        return True

    def scan_zero(self, law: str, dims, residual, note: str = "") -> bool:
        """Scan the basis tuples over `dims` in lexicographic order; one passes when
        no key of the residual lhs − rhs starts with it.  A key is the tuple, then
        the output index, with any slots the witness leaves out (such as a module
        index) in between.  The pairs are counted, not built: the least failing tuple's
        lexicographic rank is the number that pass before it."""
        failing = {key[:len(dims)] for key in residual}
        if not failing:
            return self.scan(law, repeat(((), True), prod(dims)), note)
        witness = min(failing)
        rank = sum(i * prod(dims[p + 1:]) for p, i in enumerate(witness))
        return self.scan(law, chain(repeat(((), True), rank), [(witness, False)]), note)

    def amend_note(self, note: str) -> None:
        """Replace the note of the item added last, e.g. to say where a scan broke."""
        self._items[-1] = replace(self._items[-1], note=note)

    def report(self) -> CheckReport:
        return CheckReport(self.subject, tuple(self._items))
