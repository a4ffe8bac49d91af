"""Verification drivers: stabilizer scans, digraph-group witnesses, prime scan.

The 2x2 factor lives in PGL(2,p), since (A, B) and (kA, k^-1 B) act alike:
stabilizers and witness searches read the normalized classes that
``pgl2_stabilizer`` returns, and GL(2,p) figures in the reports are class
counts times the p-1 scalars.

Witness matrices are shipped as data (a manifest keyed by prime and
suborbit union) so that a bad entry fails certification loudly instead of
silently.  The not-a-digraph-group driver keeps search and check apart.
``_candidates`` lists a union's witnesses in the published order: its
stated matrix, then, if that fails, the minimal witness that an exhaustive
search over PGL(2,p) finds, recorded next to the failed entry; the
product-group witness on B; a Hamming-side swap; for B with a stated
union, that union's matrix and replacement; the candidates of the
complement; an exhaustive search of the union itself.  One checker
certifies each candidate on the vertices of the union, exhaustively but
only where it can act, and the first that passes is the union's witness;
certification fails only when none passes.  A linear one is read off the
label table of its vertex map (``label_transitions``), built once per
matrix per run, because a union is preserved iff no member label is sent
outside it.  A Hamming-side swap gets an arc check at the vertices it
moves and a non-additivity pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .cliques import DEFAULT_SEED, MuConfig, verify_clique_axioms
from .digraphs import (
    complement_labels,
    hamming_witness,
    label_transitions,
    orbital_union_set,
)
from .errors import (
    CertificationFailed,
    InvalidConfig,
    ParameterTooLarge,
    ScanViolation,
)
from .crossratio import point_name
from .fields import MAX_PRIME, is_prime
from .groups import (
    classify_all,
    g0_contains,
    label_directions,
    lambda_classes,
    nontrivial_labels,
    v4_representatives,
)
from .matrices import (
    Matrix,
    digit_planes,
    gl2_count,
    num_vertices,
    pgl2_stabilizer,
    product_image,
)


@dataclass(frozen=True)
class DirectionSet:
    """A nonempty set of distinct points of the projective line, as codes
    0 .. p (p is infinity).  A code is not reduced mod p: p would be 0."""

    codes: tuple[int, ...]
    p: int

    def __post_init__(self):
        if not self.codes:
            raise ValueError("direction set must be nonempty")
        if not all(0 <= k <= self.p for k in self.codes):
            raise ValueError(f"point code outside 0..{self.p}: {self.codes}")
        if len(set(self.codes)) != len(self.codes):
            raise ValueError("duplicate direction")

    def describe(self) -> list:
        return [point_name(k, self.p) for k in self.codes]


@dataclass
class Certificate:
    """One machine-checked claim with structured evidence."""

    claim: str
    parameters: dict
    status: str  # verified | refuted | skipped
    evidence: dict = field(default_factory=dict)
    elapsed_ms: float = 0.0

    def as_dict(self, deterministic: bool = False) -> dict:
        return {
            "claim": self.claim,
            "parameters": self.parameters,
            "status": self.status,
            "evidence": self.evidence,
            "elapsed_ms": 0 if deterministic else round(self.elapsed_ms, 3),
        }


# ---------------------------------------------------------------------------
# setwise stabilizers in GL(2,p), computed in PGL(2,p)


def _gl_lift(classes, p: int) -> list[Matrix]:
    """The p-1 scalar multiples of each PGL(2,p) class, in lexicographic order."""
    lift = (a.scaled(k) for a in classes for k in range(1, p))
    return sorted(lift, key=lambda m: m.entries)


def stabilizer_intersection_report(sets: list[DirectionSet], p: int) -> dict:
    """Intersect setwise stabilizers and compare against the dihedral core.

    The pinning claim that certifies 2-closure is: the intersection equals
    the scalar closure of the dihedral group exactly (so every element is
    k M and acts on the tensor space as M does).  Each class stands for
    p-1 matrices, and for 2 of the 8 dihedral ones.  ``gl2_enumerated`` is
    |GL(2,p)|.
    """
    stabs = [frozenset(pgl2_stabilizer(ds.codes, p)) for ds in sets]
    inter = frozenset.intersection(*stabs)
    v4 = v4_representatives(p)
    return {
        "direction_sets": [ds.describe() for ds in sets],
        "stabilizer_orders": [len(s) * (p - 1) for s in stabs],
        "gl2_enumerated": gl2_count(p),
        "intersection_order": len(inter) * (p - 1),
        "scalar_closure_order": len(v4) * (p - 1),
        "intersection_equals_scalar_closure_of_d8": inter == v4,
        "dihedral_core_size": 2 * len(inter & v4),
        "extra_elements_sample": [
            list(map(list, m.entries)) for m in _gl_lift(inter - v4, p)[:3]
        ],
    }


def direction_set_of_labels(tokens, p: int) -> DirectionSet:
    dirs: list = []
    for t in sorted(tokens):
        dirs.extend(label_directions(t, p))
    return DirectionSet(tuple(dirs), p)


# the stabilizer pairs used by the 2-closure drivers, per prime, as point
# codes.  the p=7 first set is {0, inf}, code 7 being infinity, and the
# second is the direction pair {1, -1}: the closure of direction 1 under the
# dihedral action (a set {1, 4} would not even be dihedral-stable; see tests).
TWO_CLOSED_PAIRS: dict[int, tuple[tuple, tuple]] = {
    5: ((1, 4), (2, 3)),
    7: ((0, 7), (1, 6)),
    13: ((2, 6, 7, 11), (3, 4, 9, 10)),
}

TWO_CLOSED_MU: dict[int, tuple[tuple[int, ...], tuple[str, ...]]] = {
    5: ((1, 2, 3, 4), ("L1", "L2")),
    7: ((2, 3, 4, 5), ("L2",)),
    13: ((2, 6, 7, 11), ("L2",)),
}

Q17_MUS = (1, 2, 8, 9, 15, 16)


def delta_indices(cfg: MuConfig) -> np.ndarray:
    """The union of the z direction blocks minus 0, sorted.

    The block of mu_i, (e1 + mu_i e2) (x) W, holds the rows [w | mu_i w]:
    the images under ((1, mu_i), (0, 1)) (x) I_m of the rows [w | 0], the
    vertices 1 .. p^m - 1 for w != 0.  Blocks of distinct slopes meet only
    in 0, so these are z(p^m - 1) vertices.
    """
    p, m = cfg.p, cfg.m
    rows = digit_planes(m, p)[:, 1 : p**m]
    blocks = [product_image(rows, Matrix(((1, cfg.mu(i)), (0, 1)), p), p) for i in cfg.index_set]
    return np.sort(np.concatenate(blocks))


def certify_two_closed(p: int, m: int, seed: int = DEFAULT_SEED) -> Certificate:
    """Certify that the rank-r group at this prime equals its 2-closure.

    Stages: (a) the configured slopes realize the stated orbital union;
    (b) the clique geometry bounds every automorphism of that union by the
    affine product group; (c) stabilizer intersections pin the 2x2 part to
    the dihedral group up to scalars.  If the primary pair of stabilizer
    sets fails to pin (it provably does not pin at p = 13, where both
    quadruples are equianharmonic and share an A4-type stabilizer), the
    driver intersects over every nontrivial suborbit direction set, which
    the 2-closure argument equally licenses, and records both outcomes.
    """
    if p not in TWO_CLOSED_PAIRS:
        raise InvalidConfig(f"two-closed supports p in {sorted(TWO_CLOSED_PAIRS)}, not {p}")
    evidence: dict = {}
    mus, union_tokens = TWO_CLOSED_MU[p]
    cfg = MuConfig(z=len(mus), mus=mus, m=m, p=p)

    # (a) the slope set is exactly the stated suborbit union
    union = orbital_union_set(union_tokens, m, p)
    same = np.array_equal(delta_indices(cfg), union.members)
    evidence["delta_equals_union"] = {
        "labels": sorted(union_tokens),
        "status": "pass" if same else "fail",
    }
    if not same:
        raise CertificationFailed("two-closed", "delta-union mismatch", p)

    # (b) clique geometry
    evidence["clique_axioms"] = verify_clique_axioms(cfg, seed=seed)

    # (c) stabilizer pinning
    pair = [DirectionSet(ds, p) for ds in TWO_CLOSED_PAIRS[p]]
    primary = stabilizer_intersection_report(pair, p)
    evidence["stabilizer_pair"] = primary
    pinned = primary["intersection_equals_scalar_closure_of_d8"]
    if not pinned:
        all_sets = [
            direction_set_of_labels([t], p)
            for t in nontrivial_labels(p)
            if t != "B"
        ]
        repaired = stabilizer_intersection_report(all_sets, p)
        evidence["stabilizer_all_suborbits"] = repaired
        pinned = repaired["intersection_equals_scalar_closure_of_d8"]

    return Certificate(
        claim="two-closed",
        parameters={"p": p, "m": m, "seed": seed},
        status="verified" if pinned else "refuted",
        evidence=evidence,
    )


def certify_q17(m: int, seed: int = DEFAULT_SEED) -> Certificate:
    """Certify that at p=17 the union of the first two orbitals is rigid:
    its linear automorphisms reduce to the dihedral group up to scalars."""
    p = 17
    evidence: dict = {}
    cfg = MuConfig(z=6, mus=Q17_MUS, m=m, p=p)

    classes = lambda_classes(p)
    want = set(classes[1]) | set(classes[2])
    evidence["mu_set_is_first_two_classes"] = {
        "mus": list(Q17_MUS),
        "status": "pass" if want == set(Q17_MUS) else "fail",
    }
    if want != set(Q17_MUS):
        raise CertificationFailed("q17-rigidity", "mu set mismatch")

    evidence["clique_axioms"] = verify_clique_axioms(cfg, seed=seed)

    ds = DirectionSet(Q17_MUS, p)
    report = stabilizer_intersection_report([ds], p)
    evidence["stabilizer"] = report
    ok = report["intersection_equals_scalar_closure_of_d8"]
    return Certificate(
        claim="q17-rigidity",
        parameters={"p": p, "m": m, "seed": seed},
        status="verified" if ok else "refuted",
        evidence=evidence,
    )


# ---------------------------------------------------------------------------
# not-a-digraph-group drivers


# published witness matrices, keyed by (p, union of suborbit tokens)
STATED_WITNESSES: dict[tuple[int, frozenset[str]], tuple] = {
    (5, frozenset({"A", "L1"})): ((1, 1), (1, -1)),
    (5, frozenset({"A", "L2"})): ((1, 2), (2, 1)),
    (5, frozenset({"L1", "L2"})): ((1, 0), (0, 2)),
    (7, frozenset({"L2"})): ((1, 2), (2, 1)),
    (7, frozenset({"A", "L1"})): ((1, 1), (1, -1)),
    (7, frozenset({"A", "L2"})): ((1, 2), (2, 1)),
    (7, frozenset({"L1", "L2"})): ((1, 0), (0, 2)),
    (13, frozenset({"L1"})): ((1, 2), (2, 1)),
    (13, frozenset({"L2"})): ((1, 1), (5, -5)),
    (13, frozenset({"L3"})): ((1, 1), (5, -5)),
    (13, frozenset({"L5"})): ((1, 1), (1, -1)),
    (13, frozenset({"L1", "L2"})): ((1, 4), (4, -1)),
    (13, frozenset({"L1", "L3"})): ((1, 0), (0, 4)),
    (13, frozenset({"L1", "L5"})): ((1, 0), (0, 5)),
    (13, frozenset({"L2", "L3"})): ((1, 1), (5, -5)),
    (13, frozenset({"L2", "L5"})): ((1, 0), (0, 4)),
    (13, frozenset({"L3", "L5"})): ((1, 2), (2, 1)),
    (13, frozenset({"L1", "L2", "L3"})): ((1, 0), (0, 2)),
    (13, frozenset({"L1", "L2", "L5"})): ((1, 4), (4, -1)),
    (13, frozenset({"L1", "L3", "L5"})): ((1, 2), (2, 1)),
    (13, frozenset({"L2", "L3", "L5"})): ((1, 1), (1, -1)),
    (13, frozenset({"L1", "L2", "L3", "L5"})): ((1, 0), (0, 2)),
}

# any non-dihedral element of the product group preserves the non-simple
# locus (rank is invariant under invertible maps on both factors)
GLGL_WITNESS = ((1, 1), (0, 1))


def hamming_capable(token: str, p: int) -> tuple | None:
    """Two block directions when the suborbit is a two-direction union."""
    if token == "B":
        return None
    dirs = label_directions(token, p)
    return dirs if len(dirs) == 2 else None


def search_linear_witness(tokens, p: int) -> Matrix | None:
    """First (GL(2,p) lexicographic order) linear witness for a union.

    (A, I) fixes rank, so it preserves a union of suborbits iff A permutes
    the directions of the union's simple suborbits (all but B).  Returns
    the first class of its PGL(2,p) stabilizer that is not dihedral;
    preserving and being dihedral up to scalars are scalar-invariant, so
    this is the first such matrix of GL(2,p).  Callers check it on the
    vertices.
    """
    codes = [k for t in tokens if t != "B" for k in label_directions(t, p)]
    v4 = v4_representatives(p)
    return next((a for a in pgl2_stabilizer(codes, p) if a not in v4), None)


def _search(tokens: frozenset[str], p: int, searched: dict) -> Matrix | None:
    """``search_linear_witness``, memoised in ``searched`` for the run."""
    if tokens not in searched:
        searched[tokens] = search_linear_witness(tokens, p)
    return searched[tokens]


def _stated(tk: frozenset[str], p: int, searched: dict, reused: bool):
    """The stated matrix of ``tk``, then, if it fails, its searched
    replacement, which records the failed matrix."""
    stated = Matrix(STATED_WITNESSES[(p, tk)], p)
    rows = list(map(list, stated.entries))
    yield "linear", stated, {"note": f"reused from {sorted(tk)}"} if reused else {}
    repl = _search(tk, p, searched)
    if repl is not None:
        note = (
            f"reused replacement from {sorted(tk)}"
            if reused
            else f"stated matrix {rows} does not preserve this union; "
            "replaced by the minimal valid witness"
        )
        yield "linear", repl, {"note": note, "stated_witness_failed": rows}


def _candidates(tk: frozenset[str], tokens: frozenset[str], p: int, searched: dict):
    """Candidate witnesses for the union ``tokens``, in the published order.

    Yields (kind, witness, extra): the witness is a ``Matrix`` A, acting as
    (A, I), or the two block directions of a Hamming-side swap, and
    ``extra`` holds its note and the fields its entry carries.  ``tk`` is
    the union whose route is read: ``tokens``, or once its complement.  A
    stated matrix, the product-group witness on B and a Hamming swap end
    the list.  Every (A, I) preserves B, so the stated matrix of ``sub``
    fails on B with ``sub`` exactly when it fails on ``sub``, and the
    replacement of ``sub`` serves both.  The search of ``tokens`` comes
    last, after the complement's routes.
    """
    if (p, tk) in STATED_WITNESSES:
        yield from _stated(tk, p, searched, reused=False)
        return
    if tk == frozenset({"B"}):
        yield "glgl-on-B", Matrix(GLGL_WITNESS, p), {}
        return
    dirs = hamming_capable(next(iter(tk)), p) if len(tk) == 1 else None
    if dirs is not None:
        yield "hamming", dirs, {}
        return
    sub = tk - {"B"}
    if "B" in tk and (p, sub) in STATED_WITNESSES:
        yield from _stated(sub, p, searched, reused=True)
    if tk != tokens:
        return
    comp = complement_labels(tk, p)
    for _, witness, extra in _candidates(comp, tokens, p, searched):
        yield "complement-ref", witness, {**extra, "complement_of": sorted(comp)}
    repl = _search(tokens, p, searched)
    if repl is not None:
        yield "linear", repl, {"note": "found by exhaustive search"}


def certify_not_digraph_group(p: int, m: int) -> Certificate:
    """For every proper nonempty union of nontrivial orbitals, exhibit and
    machine-check an automorphism outside the group.

    ``_candidates`` lists the witnesses to try, and one checker certifies
    each on the union's own vertices; the first that passes is the union's
    entry.  A replacement for a failed stated matrix is searched the first
    time a union needs it, and the label table of a linear witness's vertex
    map is built the first time it is checked; both are kept for the run.
    """
    num_vertices(m, p)  # the vertex gate, before any union is listed
    labels = nontrivial_labels(p)
    unions = [frozenset(c) for r in range(1, len(labels)) for c in combinations(labels, r)]
    codes, code_tokens = classify_all(m, p)
    sizes = np.bincount(codes, minlength=len(code_tokens))
    searched: dict = {}
    tables: dict = {}

    def check(tokens, wanted, kind, witness, extra) -> dict | None:
        """The entry of a witness that preserves the union and lies outside
        the group, or None."""
        extra = dict(extra)
        if isinstance(witness, Matrix):
            if witness not in tables:
                tables[witness] = label_transitions(witness, m, p)
            if tables[witness][wanted][:, ~wanted].any() or g0_contains(witness):
                return None
            data = {"matrix": list(map(list, witness.entries))}
            checks = {"preserves_connection_set": True, "in_point_stabilizer": False}
        else:
            perm = hamming_witness(*witness, m, p)
            na = perm.nonadditive_witness()
            checks = {
                "arc_preservation": perm.is_automorphism(orbital_union_set(tokens, m, p)),
                "non_affine": na is not None,
            }
            if not all(checks.values()):
                return None
            data = {
                "block_directions": [point_name(k, p) for k in witness],
                "swapped_w_codes": [1, 2],
                "nonadditive_pair": list(na),
            }
        if "note" in extra:
            data["note"] = extra.pop("note")
        return {
            "claim": "union-has-automorphism-outside-group",
            "connection_set_labels": sorted(tokens),
            "connection_set_size": int(sizes[wanted].sum()),
            "witness_kind": kind,
            "witness_data": data,
            "checks": checks,
            "verified": True,
            **extra,
        }

    entries = []
    for tokens in unions:
        wanted = np.array([t in tokens for t in code_tokens])
        checked = (check(tokens, wanted, *c) for c in _candidates(tokens, tokens, p, searched))
        entry = next(filter(None, checked), None)
        if entry is None:
            raise CertificationFailed("not-digraph-group", "no verified witness", sorted(tokens))
        entries.append(entry)
    entries.sort(key=lambda e: (len(e["connection_set_labels"]), e["connection_set_labels"]))
    counts: dict[str, int] = {}
    for e in entries:
        counts[e["witness_kind"]] = counts.get(e["witness_kind"], 0) + 1
    failed_stated = [
        {"union": e["connection_set_labels"], "stated": e["stated_witness_failed"]}
        for e in entries
        if "stated_witness_failed" in e
    ]
    return Certificate(
        claim="not-digraph-group",
        parameters={"p": p, "m": m},
        status="verified",
        evidence={
            "unions_checked": len(entries),
            "expected_unions": 2 ** len(labels) - 2,
            "witness_kinds": counts,
            "stated_witnesses_failed": failed_stated,
            "unions": entries,
        },
    )


# ---------------------------------------------------------------------------
# the obstruction arithmetic over prime fields


def obstruction_polynomials(lam: int) -> tuple[int, int, int, int]:
    """The four integers whose vanishing mod p signals extra symmetry:
    lam^4+1, lam^4-6lam^2+1, lam^4+6lam^2+1, lam^8+14lam^4+1."""
    l2 = lam * lam
    l4 = l2 * l2
    return (l4 + 1, l4 - 6 * l2 + 1, l4 + 6 * l2 + 1, l4 * l4 + 14 * l4 + 1)


SPECIAL_PRIMES = frozenset({5, 7, 13, 17})


def scan_primes(max_p: int) -> Certificate:
    """Scan odd primes: outside the four special primes, at least one of
    the slopes 2 and 4 yields an obstruction-free direction quadruple.

    Obstruction at slope lam means p divides one of the four integers
    obstruction_polynomials(lam); the set of primes obstructed at both
    slopes must be exactly {7, 13}.  The rigidity reading of a clean slope
    (the corresponding orbital digraph has no extra automorphisms, so the
    group is a digraph automorphism group) is conditional on the clique
    geometry bound, which ``verify_clique_axioms`` certifies separately,
    one prime at a time.
    """
    if max_p < 5:
        raise InvalidConfig(f"the scan starts at p = 5, so max_p = {max_p} scans no prime")
    if max_p > MAX_PRIME:
        raise ParameterTooLarge(f"scan gated to max_p <= {MAX_PRIME}")
    set2 = obstruction_polynomials(2)
    set4 = obstruction_polynomials(4)
    both = []
    scanned = []
    for p in range(5, max_p + 1):
        if not is_prime(p):
            continue
        scanned.append(p)
        ob2 = any(v % p == 0 for v in set2)
        ob4 = any(v % p == 0 for v in set4)
        if ob2 and ob4:
            both.append(p)
        if p not in SPECIAL_PRIMES and ob2 and ob4:
            raise ScanViolation(f"prime {p} obstructed at both slopes")
    expected_both = [q for q in (7, 13) if q <= max_p]
    ok = both == expected_both
    return Certificate(
        claim="prime-scan",
        parameters={"max_prime": max_p},
        status="verified" if ok else "refuted",
        evidence={
            "primes_scanned": len(scanned),
            "integer_sets": {"2": list(set2), "4": list(set4)},
            "both_obstructed": both,
            "expected": expected_both,
            "special_primes": sorted(SPECIAL_PRIMES),
            "note": (
                "clean-slope rigidity is conditional on the clique geometry "
                "bound; no explicit digraph is constructed here"
            ),
        },
    )
