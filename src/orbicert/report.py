"""Deterministic certificate reports.

JSON output is the CI contract: keys sorted, the run seed echoed, and the
volatile wall-clock fields normalized to 0 so identical runs are
byte-identical; real timings go to the text format.  A SHA-256 content
hash over the normalized payload ties a report to its inputs.

The hash uses CPython's built-in SHA-256 module (``_sha2`` from 3.12,
``_sha256`` before), so no command loads OpenSSL: ``hashlib`` would load
it, about 3.5 MB resident and 4 ms, for the same digest.  A build without
the built-in module gets ``hashlib.sha256``, the one SHA-256 it has.
"""

from __future__ import annotations

import json

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from . import __version__ as TOOL_VERSION
from .certify import Certificate


def canonical_json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def status_counts(certs: list[Certificate]) -> dict[str, int]:
    """Certificates per status; the three known statuses always appear."""
    counts = {"verified": 0, "refuted": 0, "skipped": 0}
    for c in certs:
        counts[c.status] = counts.get(c.status, 0) + 1
    return counts


def report_payload(certs: list[Certificate], run_config: dict) -> dict:
    counts = status_counts(certs)
    body = {
        "tool_version": TOOL_VERSION,
        "run_config": dict(sorted(run_config.items())),
        "certificates": [c.as_dict(deterministic=True) for c in certs],
        "summary": counts,
    }
    body["content_hash"] = sha256(canonical_json(body).encode()).hexdigest()
    return body


def emit_report(certs: list[Certificate], fmt: str, run_config: dict) -> str:
    """Serialize certificates; 'json' is deterministic, 'text' is for eyes."""
    if fmt == "json":
        return json.dumps(report_payload(certs, run_config), sort_keys=True, indent=2) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    lines = []
    for c in certs:
        lines.append(f"[{c.status.upper():8s}] {c.claim}  {c.parameters}  ({c.elapsed_ms:.0f} ms)")
        for key, val in c.evidence.items():
            if isinstance(val, dict) and "status" in val:
                lines.append(f"    - {key}: {val['status']}")
            elif isinstance(val, (int, float, str, bool)):
                lines.append(f"    - {key}: {val}")
    counts = status_counts(certs)
    lines.append(
        f"summary: {counts['verified']} verified, {counts['refuted']} refuted, "
        f"{counts['skipped']} skipped"
    )
    return "\n".join(lines) + "\n"
