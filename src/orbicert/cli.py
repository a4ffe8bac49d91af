"""Command-line front end.

Subcommands: rank, suborbits, scan, and a family of verifiers.  Exit code
0 iff every requested certificate verified; the first failed claim is
named on stderr.  Flags only, no environment overrides, so a command line
plus seed reproduces a report byte for byte.

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
from .digraphs import hamming_check, orbital_union_set
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
        return {
            "command": self.command,
            "p": self.p,
            "m": self.m,
            "z": self.z,
            "mus": list(self.mus) if self.mus else None,
            "max_prime": self.max_prime,
            "seed": self.seed,
            "jobs": self.jobs,
            "format": self.fmt,
        }


def _wrap(claim: str, parameters: dict, payload: dict, ok: bool = True) -> Certificate:
    status = "verified" if ok else "refuted"
    return Certificate(claim=claim, parameters=parameters, status=status, evidence=payload)


def _lemma_registry() -> dict:
    return {
        "hamming-A": "the axis orbital digraph is the Hamming graph H(2, p^m)",
        "hamming-1": "the slope-1 orbital digraph is the Hamming graph H(2, p^m)",
        "hamming-i": "the square-root-of-minus-one orbital digraph is H(2, p^m)",
        "connectivity": "every nontrivial orbital digraph is connected",
        "table1": "the 24 permutations transform the cross-ratio by the classical six values",
        "table3": "the four dihedral collineations induce the double transpositions",
        "clique-axioms": "projection/clique geometry for the configured slopes",
        "suborbit-partition": "the suborbits partition the tensor space",
    }


def lemma(name: str, cfg: RunConfig) -> Certificate:
    """Run one named structural check."""
    p, m = cfg.p, cfg.m
    if name not in _lemma_registry():
        raise InvalidConfig(f"unknown lemma {name!r}; known: {sorted(_lemma_registry())}")
    if p is None:
        raise InvalidConfig("--p required")
    if name in ("hamming-A", "hamming-1", "hamming-i"):
        if name == "hamming-A":
            label = "A"
        elif name == "hamming-1":
            label = "L1"
        else:
            i = fp_sqrt_minus_one(p)
            if i is None:
                raise InvalidConfig(f"p={p} has no square root of -1")
            label = f"L{i}"  # the class {i, -i} of the smaller root
        s = orbital_union_set([label], m, p)  # the vertex gate, before any class
        dirs = label_directions(label, p)
        return _wrap(
            f"lemma:{name}",
            {"p": p, "m": m},
            {"label": label, "directions": [point_name(k, p) for k in dirs]},
            hamming_check(s, *dirs),
        )
    if name == "connectivity":
        from .digraphs import is_connected

        results = {}
        for token in classify_all(m, p)[1][1:]:
            results[token] = bool(is_connected(orbital_union_set([token], m, p)))
        return _wrap(
            f"lemma:{name}", {"p": p, "m": m}, {"connected": results}, all(results.values())
        )
    if name == "table1":
        return _wrap(f"lemma:{name}", {"p": p}, verify_table1(p))
    if name == "table3":
        return _wrap(f"lemma:{name}", {"p": p}, check_v4_collineations(p))
    if name == "clique-axioms":
        if cfg.mus is None:
            raise InvalidConfig("--mu required")
        try:
            mu_cfg = MuConfig(z=len(cfg.mus), mus=cfg.mus, m=m, p=p)
        except DegenerateConfig as exc:
            raise InvalidConfig(str(exc)) from None
        return _wrap(
            f"lemma:{name}",
            {"p": p, "m": m, "mus": list(cfg.mus), "seed": cfg.seed},
            verify_clique_axioms(mu_cfg, seed=cfg.seed),
        )
    # suborbit-partition
    sizes = {t: int(suborbit_indices(t, m, p).size) for t in classify_all(m, p)[1][1:]}
    total = 1 + sum(sizes.values())
    return _wrap(
        f"lemma:{name}",
        {"p": p, "m": m},
        {"sizes": sizes, "total_with_zero": total, "vertices": num_vertices(m, p)},
        total == num_vertices(m, p),
    )


def dispatch(cfg: RunConfig, lemma_name: str | None = None) -> list[Certificate]:
    """The command's certificate, timed: its wall time goes to the text format."""
    cmd = cfg.command
    if cmd in ("rank", "two-closed") and cfg.p is None:
        raise InvalidConfig("--p required")
    start = time.perf_counter()
    if cmd == "rank":
        cert = _wrap(
            "rank",
            {"p": cfg.p, "m": cfg.m},
            {
                "rank": rank_of(cfg.m, cfg.p),
                "lambda_classes": {
                    str(k): sorted(v) for k, v in lambda_classes(cfg.p).items()
                },
            },
        )
    elif cmd == "suborbits":
        cert = lemma("suborbit-partition", cfg)
    elif cmd == "scan":
        cert = scan_primes(cfg.max_prime)
    elif cmd == "two-closed":
        cert = certify_two_closed(cfg.p, cfg.m, seed=cfg.seed)
    elif cmd in ("theorem-q5", "theorem-q7", "theorem-q13"):
        cert = certify_not_digraph_group(int(cmd.split("q")[1]), cfg.m)
    elif cmd == "q17":
        cert = certify_q17(cfg.m, seed=cfg.seed)
    elif cmd == "cross-ratio-table":
        cert = lemma("table1", cfg)
    elif cmd == "cliques":
        cert = lemma("clique-axioms", cfg)
    elif cmd == "lemma":
        cert = lemma(lemma_name, cfg)
    else:
        raise InvalidConfig(f"unknown command {cmd!r}")
    cert.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return [cert]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbicert",
        description=(
            "Exact verification certificates for the affine tensor-space "
            "groups and their orbital digraphs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--p", type=int, default=None, help="odd prime modulus")
        sp.add_argument("--m", type=int, default=2, help="dimension of the second factor (>= 2)")
        sp.add_argument("--z", type=int, default=None, help="number of slopes (4 or 6)")
        sp.add_argument("--mu", type=str, default=None, help="comma-separated slopes, e.g. 1,2,3,4")
        sp.add_argument("--max-prime", type=int, default=500)
        sp.add_argument(
            "--seed",
            type=int,
            default=DEFAULT_SEED,
            help="reserved; no certificate samples (echoed in run_config)",
        )
        sp.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="validated (>= 1) and echoed in run_config; certification runs serially",
        )
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("--out", type=str, default=None)

    for name in ("rank", "suborbits", "scan"):
        common(sub.add_parser(name))

    verify = sub.add_parser("verify", help="run a verification driver")
    vsub = verify.add_subparsers(dest="verify_command", required=True)
    for name in (
        "two-closed",
        "theorem-q5",
        "theorem-q7",
        "theorem-q13",
        "q17",
        "cross-ratio-table",
        "cliques",
    ):
        common(vsub.add_parser(name))
    lemma = vsub.add_parser("lemma", help="run one named structural check")
    lemma.add_argument("name", type=str, help=f"one of {sorted(_lemma_registry())}")
    common(lemma)
    return parser


def parse_config(argv) -> tuple[RunConfig, str | None]:
    argv = list(sys.argv[1:] if argv is None else argv)
    # a slope list such as -1,2,3,4 starts with "-", which argparse reads as
    # a flag unless it is joined to its option
    for i in range(len(argv) - 1):
        if argv[i] == "--mu":
            argv[i : i + 2] = [f"--mu={argv[i + 1]}"]
            break
    args = build_parser().parse_args(argv)
    command = args.command
    lemma_name = None
    if command == "verify":
        command = args.verify_command
        if command == "lemma":
            lemma_name = args.name
    mus = None
    if getattr(args, "mu", None):
        try:
            mus = tuple(int(v) for v in args.mu.split(","))
        except ValueError:
            raise InvalidConfig(f"--mu: not a list of integers: {args.mu!r}") from None
        if args.z is not None and args.z != len(mus):
            raise InvalidConfig("--z disagrees with the number of --mu slopes")
        if len(mus) not in (4, 6):
            raise InvalidConfig("--mu needs 4 or 6 slopes")
    elif getattr(args, "z", None) is not None:
        raise InvalidConfig("--z given without --mu")
    cfg = RunConfig(
        command=command,
        p=args.p,
        m=args.m,
        z=len(mus) if mus else None,
        mus=mus,
        max_prime=args.max_prime,
        seed=args.seed,
        jobs=args.jobs,
        fmt=args.format,
        out=args.out,
    )
    if cfg.p is not None:
        try:
            prime_modulus(cfg.p)
        except ValueError as exc:
            raise InvalidConfig(f"--p: {exc}") from None
    if cfg.m < 2:
        raise InvalidConfig("m must be at least 2")
    if cfg.jobs < 1:
        raise InvalidConfig("--jobs must be at least 1")
    return cfg, lemma_name


def main(argv=None) -> int:
    try:
        cfg, lemma_name = parse_config(argv)
    except InvalidConfig as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        certs = dispatch(cfg, lemma_name)
    except InvalidConfig as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OrbicertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
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
