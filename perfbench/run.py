"""orbicert benchmark: time to verified certificates, and where it goes.

    python3 perfbench/run.py --workload witness --seed 7 --seconds 40 --trace 0

Run from the root of a checkout that holds ``src/orbicert``; nothing needs
building or installing.  A workload is a list of ``orbicert`` command
lines.  They run as a closed loop with one client: each command starts in
a fresh ``python -m orbicert.cli ... --format json --seed N`` process once
the previous one has exited, and the list repeats until ``--seconds`` is
used up: at least twice, or once in each mode with ``--trace 1``.  A
command's time is its fastest pass.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each pass
of the list untraced and then again under ``tracer.py``, and prints the
per-module metrics.  Every command is checked: it must exit 0, every
certificate must be ``verified``, and its ``content_hash`` must equal the
reference in ``reference.json`` (at seed 1729) or, at any other seed, the
hash of its first run in this process.  A traced run must also reproduce
the untraced hash, and its spans must cover at least 95 % of its
in-process wall time.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  README.md records why the workloads are what they are.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
REFERENCE_SEED = 1729
SETUP_REPEATS = 7
MIN_COVERAGE = 0.95

WORKLOADS = {
    # GL(2,p) witness search, preserves_set and the exhaustive arc checks on
    # the two largest vertex sets: 28,561 x 4 digits and 15,625 x 6.
    "witness": (
        "verify theorem-q13",
        "verify theorem-q5 --m 3",
    ),
    # Short commands, where interpreter start-up, import, lazy tables and
    # the scalar cross-ratio path take the time.
    "desk": (
        "rank --p 13",
        "suborbits --p 7",
        "scan --max-prime 500",
        "verify cross-ratio-table --p 13",
        "verify lemma hamming-A --p 13",
        "verify lemma connectivity --p 13",
        "verify lemma table3 --p 13",
        "verify theorem-q5",
        "verify theorem-q7",
        "verify two-closed --p 5",
    ),
}

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# name -> unit; filled by layer_metrics in this order
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "cli.import.self_s": "s",
    "certify.search_linear_witness.calls": "count",
    "certify.search_linear_witness.self_s": "s",
    "certify.search_linear_witness.found_ratio": "ratio",
    "certify.setwise_stabilizer_gl2.calls": "count",
    "certify.setwise_stabilizer_gl2.self_s": "s",
    "matrices.gl2_array.self_s": "s",
    "digraphs.is_automorphism.calls": "count",
    "digraphs.is_automorphism.self_s": "s",
    "digraphs.nonadditive_witness.calls": "count",
    "digraphs.arc_checks_per_hamming_union": "ratio",
    "matrices.encode_array.calls": "count",
    "matrices.encode_array.self_s": "s",
    "digraphs.orbital_union_set.calls": "count",
    "digraphs.orbital_union_set.self_s": "s",
    "digraphs.preserves_set.calls": "count",
    "digraphs.preserves_set.self_s": "s",
    "groups.classify_all.misses": "count",
    "groups.classify_all.self_s": "s",
    "matrices.all_coords.misses": "count",
    "matrices.all_coords.self_s": "s",
    "cliques.verify_clique_axioms.self_s": "s",
    "cliques.instances_checked": "count",
    "cliques.enumerate_size_cliques.self_s": "s",
    "cliques.census_cliques": "count",
    "crossratio.verify_table1.self_s": "s",
    "crossratio.cross_ratio.calls": "count",
    "crossratio.homogeneous.calls": "count",
    "fields.fp_inv.calls": "count",
    "crossratio.quads_checked": "count",
    "digraphs.hamming_check.self_s": "s",
    "digraphs.is_connected.self_s": "s",
    "report.emit_report.self_s": "s",
    "report.bytes": "B",
    "cli.unattributed_s": "s",
    "trace.overhead_s": "s",
    "trace.min_coverage": "ratio",
}


@dataclass
class Run:
    """One finished command process."""

    command: str
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    ok: bool
    content_hash: str | None
    report: dict | None
    report_bytes: int
    trace: dict | None


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def run_command(command: str, seed: int, work: Path, traced: bool) -> Run:
    """Run one command to completion and read its rusage from wait4."""
    args = [*command.split(), "--format", "json", "--seed", str(seed)]
    trace_path = work / "trace.json"
    if traced:
        argv = [sys.executable, str(BENCH / "tracer.py"), str(trace_path), "--", *args]
    else:
        argv = [sys.executable, "-m", "orbicert.cli", *args]
    out_path = work / "stdout"
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    text = out_path.read_bytes()
    report = None
    try:
        report = json.loads(text)
    except ValueError:
        pass
    ok = (
        proc.returncode == 0
        and isinstance(report, dict)
        and bool(report.get("certificates"))
        and all(c.get("status") == "verified" for c in report["certificates"])
    )
    trace = None
    if traced and trace_path.exists():
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        trace_path.unlink()
    return Run(
        command=command,
        exit_code=proc.returncode,
        wall_s=wall_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        ok=ok,
        content_hash=report.get("content_hash") if isinstance(report, dict) else None,
        report=report,
        report_bytes=len(text),
        trace=trace,
    )


def setup_times(work: Path) -> list[float]:
    """Wall times of fresh processes that only import orbicert.cli."""
    argv = [sys.executable, "-c", "import orbicert.cli"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(argv, env=child_env(), cwd=work, check=True)
        times.append(time.perf_counter() - start)
    return times


def evidence_counts(report: dict) -> Counter:
    """Deterministic instance counts read from a report's certificates."""
    counts: Counter = Counter()
    stack = [report.get("certificates", [])]
    while stack:
        node = stack.pop()
        if isinstance(node, list):
            stack.extend(node)
            continue
        if not isinstance(node, dict):
            continue
        for key, value in node.items():
            if key == "checks" and isinstance(value, dict):
                counts["instances"] += sum(
                    v["instances_checked"]
                    for v in value.values()
                    if isinstance(v, dict) and "instances_checked" in v
                )
            elif key == "clique_census" and isinstance(value, dict):
                counts["census"] += value["maximum_cliques"]
            elif key == "quads_checked":
                counts["quads"] += value
            elif key == "witness_kinds":
                counts["hamming"] += value.get("hamming", 0)
            stack.append(value)
    return counts


def layer_metrics(runs: list[Run]) -> dict[str, float]:
    """Per-layer metrics of one traced pass over the command list."""
    spans: dict[str, list] = {}
    counts: Counter = Counter()
    misses: Counter = Counter()
    evidence: Counter = Counter()
    for run in runs:
        for name, stats in run.trace["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0])
            for i, value in enumerate(stats):
                acc[i] += value
        counts.update(run.trace["counts"])
        misses.update(run.trace["misses"])
        evidence.update(evidence_counts(run.report))

    def calls(name):
        return spans.get(name, [0, 0.0, 0])[0]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0])[1]

    def ratio(num, den):
        return num / den if den else 0.0

    searches = spans.get("certify.search_linear_witness", [0, 0.0, 0])
    out = {
        f"{layer}.self_s": sum(
            s[1] for n, s in spans.items() if n.split(".")[0] == layer and n != "cli.import"
        )
        for layer in LAYERS
    }
    out.update(
        {
            "cli.import.self_s": self_s("cli.import"),
            "certify.search_linear_witness.found_ratio": ratio(searches[2], searches[0]),
            "digraphs.arc_checks_per_hamming_union": ratio(
                calls("digraphs.is_automorphism"), evidence["hamming"]
            ),
            "groups.classify_all.misses": misses["groups.classify_all"],
            "matrices.all_coords.misses": misses["matrices.all_coords"],
            "cliques.instances_checked": evidence["instances"],
            "cliques.census_cliques": evidence["census"],
            "crossratio.quads_checked": evidence["quads"],
            "report.bytes": sum(run.report_bytes for run in runs),
            "cli.unattributed_s": sum(
                run.trace["wall_s"] - run.trace["covered_s"] for run in runs
            ),
            "trace.min_coverage": min(
                run.trace["covered_s"] / run.trace["wall_s"] for run in runs
            ),
        }
    )
    for name in PER_LAYER:
        if name in out:
            continue
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = counts[base] if base in counts else calls(base)
        elif kind == "self_s":
            out[name] = self_s(base)
    return out


def measure(workload: str, seed: int, seconds: float, traced: bool, work: Path):
    """Closed loop over the command list; returns (untraced, traced) passes."""
    commands = WORKLOADS[workload]
    plain: list[list[Run]] = []
    under_trace: list[list[Run]] = []
    min_passes = 1 if traced else 2
    start = time.perf_counter()
    longest = 0.0
    while True:
        began = time.perf_counter()
        plain.append([run_command(c, seed, work, traced=False) for c in commands])
        if traced:
            under_trace.append([run_command(c, seed, work, traced=True) for c in commands])
        longest = max(longest, time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if len(plain) >= min_passes and elapsed + longest > seconds:
            return plain, under_trace


def gate(workload: str, seed: int, passes: list[list[Run]]) -> int:
    """Mark failing runs and return how many failed."""
    reference = {}
    if seed == REFERENCE_SEED:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[workload]
    first: dict[str, str | None] = {}
    failed = 0
    for runs in passes:
        for run in runs:
            if reference:
                want = reference[run.command]
            else:
                want = first.setdefault(run.command, run.content_hash)
            run.ok = run.ok and run.content_hash == want
            failed += not run.ok
    return failed


def per_command(pick, passes: list[list[Run]], field: str) -> list[float]:
    """pick (min or max) of one field over the passes, for each command."""
    return [pick(getattr(p[i], field) for p in passes) for i in range(len(passes[0]))]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "orbicert" / "cli.py").is_file():
        print(f"error: no orbicert sources under {SRC}", file=sys.stderr)
        return 2
    # the program's RNG takes non-negative seeds; 1729 maps to itself
    seed = args.seed % 2**32
    traced = bool(args.trace)
    # on SIGTERM, unwind: the running child is killed and the work dir removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as tmp:
        work = Path(tmp)
        setup = setup_times(work)
        plain, under_trace = measure(args.workload, seed, args.seconds, traced, work)
    # every run of a command is compared with one hash, traced runs included
    failed = gate(args.workload, seed, plain + under_trace)
    runs = [run for p in plain + under_trace for run in p]

    # The machine slows down in bursts of a few seconds, so a command's
    # time is its fastest pass; README.md gives the measured spreads.
    walls = per_command(min, plain, "wall_s")
    cpus = per_command(min, plain, "cpu_s")
    rss = per_command(max, plain, "rss_mb")
    print(f"workload {args.workload}, seed {seed}, {len(plain)} untraced passes (fastest shown)")
    for i, command in enumerate(WORKLOADS[args.workload]):
        print(
            f"  {command:34s} wall {walls[i]:7.3f} s  cpu {cpus[i]:7.3f} s  "
            f"rss {rss[i]:7.1f} MB  {plain[0][i].content_hash}"
        )
    for run in runs:
        if not run.ok:
            print(f"  FAILED {run.command}: exit {run.exit_code}, hash {run.content_hash}")
    print(f"  failed_frac {failed / len(runs):.4f} ({failed} of {len(runs)} command runs)")

    correct = failed == 0
    if traced:
        per_pass = [layer_metrics(p) for p in under_trace]
        metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        traced_walls = per_command(min, under_trace, "wall_s")
        metrics["trace.overhead_s"] = sum(traced_walls) - sum(walls)
        metrics["trace.min_coverage"] = min(m["trace.min_coverage"] for m in per_pass)
        metrics = {name: metrics[name] for name in PER_LAYER}
        correct = correct and metrics["trace.min_coverage"] >= MIN_COVERAGE
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": sum(walls),
            "cpu_s": sum(cpus),
            "peak_rss_mb": max(rss),
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END
    for name, value in metrics.items():
        print(f"  {name:45s} {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(runs),
                "failed": failed,
                "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
