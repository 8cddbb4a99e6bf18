"""Named check results aggregated per verification suite.

Status values: "pass", "fail", and "finding".  A finding records a documented
discrepancy in a source text (it never affects the overall verdict); failures
do.  Serialization is byte-stable apart from the elapsed-time field.
"""

from __future__ import annotations

STATUSES = ("pass", "fail", "finding")


# Not a dataclass: importing dataclasses costs a CLI call more than a small suite's run.
class Check:
    __slots__ = ("name", "status", "detail", "witness")

    def __init__(self, name: str, status: str, detail: str, witness: str = ""):
        if status not in STATUSES:
            raise ValueError(f"bad status {status!r}")
        self.name, self.status, self.detail, self.witness = name, status, detail, witness


class VerificationReport:
    __slots__ = ("suite", "checks", "elapsed_ms")

    def __init__(self, suite: str, checks: list = None, elapsed_ms: int = 0):
        self.suite, self.elapsed_ms = suite, elapsed_ms
        self.checks = [] if checks is None else checks

    def add(self, name: str, ok: bool, detail: str, witness: str = ""):
        self.checks.append(Check(name, "pass" if ok else "fail", detail, witness))

    def finding(self, name: str, detail: str, witness: str = ""):
        self.checks.append(Check(name, "finding", detail, witness))

    def extend(self, other: "VerificationReport", prefix: str = ""):
        for c in other.checks:
            name = f"{prefix}{c.name}" if prefix else c.name
            self.checks.append(Check(name, c.status, c.detail, c.witness))

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    @property
    def failures(self) -> list:
        return [c for c in self.checks if c.status == "fail"]

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "detail": c.detail,
                    "witness": c.witness,
                }
                for c in self.checks
            ],
            "elapsed_ms": self.elapsed_ms,
        }

    def to_text(self) -> str:
        lines = [f"suite {self.suite}"]
        for c in self.checks:
            line = f"{c.status} {c.name}: {c.detail}"
            if c.witness:
                line += f" | witness: {c.witness}"
            lines.append(line)
        lines.append(f"elapsed_ms {self.elapsed_ms}")
        return "\n".join(lines) + "\n"


def serialize(reports, fmt: str) -> str:
    """Render one report or a list of reports as text or JSON."""
    many = isinstance(reports, (list, tuple))
    if fmt == "json":
        import json  # only JSON output needs it; text runs skip the import

        payload = [r.to_json_dict() for r in reports] if many else reports.to_json_dict()
        return json.dumps(payload, indent=2, sort_keys=False) + "\n"
    if fmt == "text":
        if many:
            return "\n".join(r.to_text() for r in reports)
        return reports.to_text()
    raise ValueError(f"unknown format {fmt!r}")


def strip_elapsed(text: str) -> str:
    """Drop the elapsed-time field for byte-stability comparisons."""
    out = []
    for line in text.splitlines():
        if line.startswith("elapsed_ms ") or line.strip().startswith('"elapsed_ms"'):
            continue
        out.append(line)
    return "\n".join(out)
