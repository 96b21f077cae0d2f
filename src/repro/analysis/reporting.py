"""Text and JSON reporters for lint results.

The JSON schema (``--format json``) is stable and versioned; CI
uploads it as an artifact so a failing gate can be diagnosed without
re-running the analyzer::

    {
      "version": 3,
      "root": "<analysis root>",
      "files_checked": 103,
      "rules": ["cache-key-unhashable", ...],
      "findings": [
        {"rule": "...", "path": "...", "line": 1, "message": "...",
         "severity": "error"},
        ...
      ],
      "summary": {"total": 0, "suppressed": 0}
    }

Exit-code contract (tested in ``tests/test_analysis_cli.py``): 0 when
there are no findings, 1 otherwise.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from .core import Finding

#: v2 added per-finding ``severity`` (error | warning); v3 dropped the
#: baseline (``fingerprint``, ``baselined``, ``stale_baseline``).
JSON_SCHEMA_VERSION = 3


def build_report(root: str, files_checked: int,
                 rule_ids: Sequence[str],
                 findings: Sequence[Finding],
                 suppressed: int) -> Dict[str, object]:
    """The canonical result document both reporters render."""
    ordered = sorted(findings, key=Finding.sort_key)
    return {
        "version": JSON_SCHEMA_VERSION,
        "root": root,
        "files_checked": files_checked,
        "rules": list(rule_ids),
        "findings": [f.to_dict() for f in ordered],
        "summary": {
            "total": len(ordered),
            "suppressed": suppressed,
        },
    }


def render_json(report: Dict[str, object]) -> str:
    """Render the report document as stable, sorted JSON."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def render_text(report: Dict[str, object]) -> str:
    """Human-readable rendering: one ``path:line: [rule] message``
    per finding, then a summary line."""
    lines: List[str] = []
    findings = report["findings"]
    assert isinstance(findings, list)
    for entry in findings:
        lines.append(f"{entry['path']}:{entry['line']}: "
                     f"[{entry['rule']}] {entry['message']}")
    summary = report["summary"]
    assert isinstance(summary, dict)
    lines.append(
        f"{report['files_checked']} files checked: "
        f"{summary['total']} finding(s), "
        f"{summary['suppressed']} suppressed inline")
    return "\n".join(lines) + "\n"
