"""Command-line front end.

Each command is one row of ``COMMANDS``, keyed by its command line: its
certificate's build function, its claim, the flags it reads and the flags it
requires; the parser and ``dispatch`` read only that table.  Every command
accepts ``--seed``, ``--jobs``, ``--format`` and ``--out``; any other flag
it does not read exits 2, as does any bad configuration, with one
``error:`` line.  Exit code 0 iff every requested certificate verified;
the first failed claim is named on stderr.  Flags only, no environment
overrides, so a command line plus seed reproduces a report byte for byte.

Wire formats used in reports and by the library:

* vertex: the index sum(flat[k] * p^k) over the row-major flattening of
  the 2 x m coordinate grid, e1 row first;
* point of the projective line: its code 0 .. p, the slope t being t and
  infinity p; JSON writes infinity as ``"inf"`` and a slope as its code;
* suborbit label: ``"zero" | "A" | "B" | "L<k>"`` with k the canonical
  class representative (the tokens of ``groups.classify_all``);
* report: ``{tool_version, run_config, certificates, summary,
  content_hash}`` with certificates ``{claim, parameters, status,
  evidence, elapsed_ms}``; JSON output normalizes elapsed_ms to 0 so
  identical runs are byte-identical.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass

# Set before numpy loads.  The arithmetic is integer numpy, which never
# calls BLAS, so its idle thread pool would only spin.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .certify import (
    Certificate,
    certify_not_digraph_group,
    certify_q17,
    certify_two_closed,
    scan_primes,
)
from .cliques import DEFAULT_SEED, MuConfig, verify_clique_axioms
from .crossratio import check_v4_collineations, point_name, verify_table1
from .digraphs import hamming_check, is_connected, orbital_union_set
from .errors import DegenerateConfig, InvalidConfig, OrbicertError
from .fields import fp_sqrt_minus_one, prime_modulus
from .groups import classify_all, label_directions, lambda_classes, rank_of, suborbit_indices
from .matrices import num_vertices
from .report import emit_report


@dataclass
class RunConfig:
    command: str
    p: int | None = None
    m: int = 2
    z: int | None = None
    mus: tuple[int, ...] | None = None
    max_prime: int = 500
    seed: int = DEFAULT_SEED
    jobs: int = 1
    fmt: str = "text"
    out: str | None = None

    def as_dict(self) -> dict:
        echo = {k: v for k, v in vars(self).items() if k not in ("fmt", "out")}
        return {**echo, "mus": list(self.mus) if self.mus else None, "format": self.fmt}


def _wrap(claim: str, parameters: dict, payload: dict, ok: bool = True) -> Certificate:
    status = "verified" if ok else "refuted"
    return Certificate(claim=claim, parameters=parameters, status=status, evidence=payload)


def _rank(cfg: RunConfig) -> Certificate:
    rank = rank_of(cfg.m, cfg.p)  # refuses a p over the scan ceiling, before any class
    classes = {str(k): sorted(v) for k, v in lambda_classes(cfg.p).items()}
    return _wrap("rank", {"p": cfg.p, "m": cfg.m}, {"rank": rank, "lambda_classes": classes})


def _suborbit_partition(cfg: RunConfig) -> Certificate:
    p, m = cfg.p, cfg.m
    sizes = {t: int(suborbit_indices(t, m, p).size) for t in classify_all(m, p)[1][1:]}
    total, n = 1 + sum(sizes.values()), num_vertices(m, p)
    evidence = {"sizes": sizes, "total_with_zero": total, "vertices": n}
    return _wrap("lemma:suborbit-partition", {"p": p, "m": m}, evidence, total == n)


def _hamming(name: str, label: str | None, cfg: RunConfig) -> Certificate:
    p, m = cfg.p, cfg.m
    if label is None:  # the class {i, -i} of the smaller square root i of -1
        i = fp_sqrt_minus_one(p)
        if i is None:
            raise InvalidConfig(f"p={p} has no square root of -1")
        label = f"L{i}"
    s = orbital_union_set([label], m, p)  # the vertex gate, before any class
    dirs = label_directions(label, p)
    evidence = {"label": label, "directions": [point_name(k, p) for k in dirs]}
    return _wrap(f"lemma:{name}", {"p": p, "m": m}, evidence, hamming_check(s, *dirs))


def _connectivity(cfg: RunConfig) -> Certificate:
    p, m = cfg.p, cfg.m
    tokens = classify_all(m, p)[1][1:]
    results = {t: bool(is_connected(orbital_union_set([t], m, p))) for t in tokens}
    return _wrap(
        "lemma:connectivity", {"p": p, "m": m}, {"connected": results}, all(results.values())
    )


def _clique_axioms(cfg: RunConfig) -> Certificate:
    try:
        mu_cfg = MuConfig(z=len(cfg.mus), mus=cfg.mus, m=cfg.m, p=cfg.p)
    except DegenerateConfig as exc:
        raise InvalidConfig(str(exc)) from None
    parameters = {"p": cfg.p, "m": cfg.m, "mus": list(cfg.mus), "seed": cfg.seed}
    return _wrap("lemma:clique-axioms", parameters, verify_clique_axioms(mu_cfg, seed=cfg.seed))


@dataclass(frozen=True)
class Command:
    """One row of the command table; flags are space-separated."""

    build: Callable[[RunConfig], Certificate]
    claim: str
    reads: str
    requires: str


_PARTITION = Command(_suborbit_partition, "the suborbits partition the space", "--p --m", "--p")
_TABLE1 = Command(
    lambda c: _wrap("lemma:table1", {"p": c.p}, verify_table1(c.p)),
    "the cross-ratio table on every quadruple",
    "--p",
    "--p",
)
_CLIQUES = Command(_clique_axioms, "clique geometry of the slopes", "--p --m --mu --z", "--p --mu")
# A build function reaches each layer function through a global of this
# module at call time, never through a function object stored here, so a
# wrapper bound in its place (the benchmark's tracer, a test's patch) sees
# the call.
COMMANDS = {
    "rank": Command(_rank, "the rank and the lambda classes", "--p --m", "--p"),
    "suborbits": _PARTITION,
    "scan": Command(
        lambda c: scan_primes(c.max_prime), "only 7 and 13 are doubly obstructed", "--max-prime", ""
    ),
    "verify two-closed": Command(
        lambda c: certify_two_closed(c.p, c.m, seed=c.seed), "2-closure pinning", "--p --m", "--p"
    ),
    "verify theorem-q5": Command(
        lambda c: certify_not_digraph_group(5, c.m), "not a digraph group at p = 5", "--m", ""
    ),
    "verify theorem-q7": Command(
        lambda c: certify_not_digraph_group(7, c.m), "not a digraph group at p = 7", "--m", ""
    ),
    "verify theorem-q13": Command(
        lambda c: certify_not_digraph_group(13, c.m), "not a digraph group at p = 13", "--m", ""
    ),
    "verify q17": Command(
        lambda c: certify_q17(c.m, seed=c.seed), "two orbitals at p = 17 are rigid", "--m", ""
    ),
    "verify cross-ratio-table": _TABLE1,
    "verify cliques": _CLIQUES,
    "verify lemma hamming-A": Command(
        lambda c: _hamming("hamming-A", "A", c), "axis digraph is H(2, p^m)", "--p --m", "--p"
    ),
    "verify lemma hamming-1": Command(
        lambda c: _hamming("hamming-1", "L1", c), "slope-1 digraph is H(2, p^m)", "--p --m", "--p"
    ),
    "verify lemma hamming-i": Command(
        lambda c: _hamming("hamming-i", None, c), "slope-i digraph is H(2, p^m)", "--p --m", "--p"
    ),
    "verify lemma connectivity": Command(
        _connectivity, "every nontrivial orbital digraph is connected", "--p --m", "--p"
    ),
    "verify lemma table1": _TABLE1,
    "verify lemma table3": Command(
        lambda c: _wrap("lemma:table3", {"p": c.p}, check_v4_collineations(c.p)),
        "the dihedral collineations induce the double transpositions",
        "--p",
        "--p",
    ),
    "verify lemma clique-axioms": _CLIQUES,
    "verify lemma suborbit-partition": _PARTITION,
}
SHARED = "--seed --jobs --format --out"  # accepted by every command
# add_argument keywords; each dest is a RunConfig field
FLAGS = {
    "--p": {"dest": "p", "type": int, "help": "odd prime modulus"},
    "--m": {"dest": "m", "type": int, "help": "dimension of the second factor (>= 2)"},
    "--z": {"dest": "z", "type": int, "help": "number of slopes (4 or 6)"},
    "--mu": {"dest": "mus", "metavar": "MU", "help": "comma-separated slopes, e.g. 1,2,3,4"},
    "--max-prime": {"dest": "max_prime", "type": int},
    "--seed": {"dest": "seed", "type": int, "help": "reserved; echoed in run_config"},
    "--jobs": {"dest": "jobs", "type": int, "help": "validated (>= 1) and echoed; runs serially"},
    "--format": {"dest": "fmt", "choices": ("text", "json")},
    "--out": {"dest": "out"},
}


def dispatch(line: str, cfg: RunConfig) -> list[Certificate]:
    """The command line's certificate, timed: its wall time goes to the text format."""
    start = time.perf_counter()
    cert = COMMANDS[line].build(cfg)
    cert.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return [cert]


class _Parser(argparse.ArgumentParser):
    """An argument error exits 2 on one line, like every bad configuration."""

    def error(self, message):
        raise InvalidConfig(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="orbicert",
        description=(
            "Exact verification certificates for the affine tensor-space "
            "groups and their orbital digraphs."
        ),
    )
    groups = {"": parser.add_subparsers(required=True)}

    def group(words: str):
        if words not in groups:
            parent, _, name = words.rpartition(" ")
            groups[words] = group(parent).add_parser(name).add_subparsers(required=True)
        return groups[words]

    # every command parses every flag, so that an unread one can be named
    flags = argparse.ArgumentParser(add_help=False)
    for flag, spec in FLAGS.items():
        flags.add_argument(flag, **spec, default=argparse.SUPPRESS)  # set only if given
    for line, row in COMMANDS.items():
        parent, _, name = line.rpartition(" ")
        reads = f"reads {row.reads or 'no flag'}, requires {row.requires or 'none'}"
        sp = group(parent).add_parser(
            name, parents=[flags], help=row.claim, description=f"{row.claim}; {reads}"
        )
        sp.set_defaults(line=line)
    return parser


def parse_config(argv) -> tuple[str, RunConfig]:
    """The command line, as a key of COMMANDS, and its validated configuration."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # a slope list such as -1,2,3,4 starts with "-", which argparse reads as
    # a flag unless it is joined to its option
    for i in range(len(argv) - 1):
        if argv[i] == "--mu":
            argv[i : i + 2] = [f"--mu={argv[i + 1]}"]
            break
    given = vars(build_parser().parse_args(argv))
    line = given.pop("line")
    row = COMMANDS[line]
    read = (row.reads + " " + SHARED).split()
    unread = [f for f in FLAGS if FLAGS[f]["dest"] in given and f not in read]
    if unread:
        raise InvalidConfig(f"{line} does not read {', '.join(unread)}")
    missing = [f for f in row.requires.split() if FLAGS[f]["dest"] not in given]
    if missing:
        raise InvalidConfig(f"{line} requires {', '.join(missing)}")
    if "mus" in given:  # every row that reads --z requires --mu
        try:
            mus = tuple(int(v) for v in given["mus"].split(","))
        except ValueError:
            raise InvalidConfig(f"--mu: not a list of integers: {given['mus']!r}") from None
        if given.setdefault("z", len(mus)) != len(mus):
            raise InvalidConfig("--z disagrees with the number of --mu slopes")
        if len(mus) not in (4, 6):
            raise InvalidConfig("--mu needs 4 or 6 slopes")
        given["mus"] = mus
    words = line.split()
    # run_config names a verify command without the word "verify"
    cfg = RunConfig(command=words[1] if words[0] == "verify" else words[0], **given)
    if cfg.p is not None:
        try:
            prime_modulus(cfg.p)
        except ValueError as exc:
            raise InvalidConfig(f"--p: {exc}") from None
    if cfg.m < 2:
        raise InvalidConfig("m must be at least 2")
    if cfg.jobs < 1:
        raise InvalidConfig("--jobs must be at least 1")
    return line, cfg


def main(argv=None) -> int:
    try:
        line, cfg = parse_config(argv)
        certs = dispatch(line, cfg)
    except OrbicertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InvalidConfig) else 1
    text = emit_report(certs, cfg.fmt, cfg.as_dict())
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    failed = [c for c in certs if c.status != "verified"]
    if failed:
        print(f"FAILED: {failed[0].claim}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
