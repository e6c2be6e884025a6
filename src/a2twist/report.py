"""The outcome every verification suite returns; it imports nothing of the
package, so every suite module imports it at module top."""

from __future__ import annotations

from typing import Dict, List, Optional


class Report:
    """Outcome of one verification suite; a suite that checked nothing fails."""

    def __init__(self, name: str):
        self.name = name
        self.mismatched = False
        self.checked = 0
        self.failures: List[dict] = []
        self.details: Dict[str, object] = {}

    @property
    def passed(self) -> bool:
        return self.checked > 0 and not self.mismatched

    def record(self, ok: bool, failure: Optional[dict] = None) -> None:
        self.checked += 1
        if not ok:
            self.mismatched = True
            if failure is not None and len(self.failures) < 10:
                self.failures.append(failure)

    def as_dict(self) -> dict:
        out = {"name": self.name, "pass": self.passed, "checked": self.checked}
        if self.details:
            out["details"] = self.details
        if self.failures:
            out["first_failures"] = self.failures
        return out
