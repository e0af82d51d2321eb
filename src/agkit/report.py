"""Report records with canonical JSON and markdown renderings.

Canonical means: sorted keys, two-space indent, records in the order they were
added.  Reports are deterministic across runs, so they can serve as golden
files.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import _Value

SCHEMA_VERSION = 1


class Record(_Value):
    id: str
    label: str
    verdict: Any
    expected: Any = None
    detail: dict = {}  # copied per instance, as every list or dict default

    @property
    def ok(self) -> bool:
        """An "error" verdict, from a unit that raised, is never ok."""
        return self.verdict != "error" and (self.expected is None
                                            or self.verdict == self.expected)

    def as_dict(self) -> dict:
        out = {"id": self.id, "label": self.label, "verdict": self.verdict,
               "ok": self.ok}
        if self.expected is not None:
            out["expected"] = self.expected
        if self.detail:
            out["detail"] = self.detail
        return out


class Report(_Value):
    command: list[str]
    version: str
    records: list[Record] = []  # copied per instance

    def add(self, record: Record) -> Record:
        self.records.append(record)
        return record

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records)

    def failures(self) -> list[Record]:
        return [r for r in self.records if not r.ok]

    def summary(self) -> dict:
        return {
            "checks": len(self.records),
            "failed": len(self.failures()),
            "ok": self.ok,
        }

    def as_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "tool": "agkit",
            "version": self.version,
            "command": self.command,
            "records": [r.as_dict() for r in self.records],
            "summary": self.summary(),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"


def markdown_table(headers: list[str], rows: list[list[str]]) -> str:
    lines = ["| " + " | ".join(headers) + " |",
             "| " + " | ".join("---" for _ in headers) + " |"]
    lines.extend("| " + " | ".join(row) + " |" for row in rows)
    return "\n".join(lines)
