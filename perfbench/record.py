"""Record the reference content_hash of every workload command at seed 1729.

    python3 perfbench/record.py

Writes perfbench/reference.json, which run.py's correctness gate reads.
Re-record only in a change to the benchmark itself, after checking that
the certificates that changed are meant to change.
"""

import json
import sys
import tempfile
from pathlib import Path

import run as bench


def main() -> int:
    reference: dict[str, dict[str, str]] = {}
    with tempfile.TemporaryDirectory(prefix=".work-", dir=bench.BENCH) as tmp:
        for workload, commands in bench.WORKLOADS.items():
            reference[workload] = {}
            for command in commands:
                result = bench.run_command(command, bench.REFERENCE_SEED, Path(tmp), traced=False)
                if not result.ok:
                    print(f"error: {command!r} did not verify", file=sys.stderr)
                    return 1
                reference[workload][command] = result.content_hash
    bench.REFERENCE.write_text(json.dumps(reference, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
