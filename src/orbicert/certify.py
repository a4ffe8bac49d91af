"""Verification drivers: stabilizer scans, digraph-group witnesses, prime scan.

The 2x2 factor lives in PGL(2,p), since (A, B) and (kA, k^-1 B) act alike:
stabilizers and witness searches read the normalized classes that
``pgl2_stabilizer`` returns, and GL(2,p) figures in the reports are class
counts times the p-1 scalars.

Witness matrices are shipped as data (a manifest keyed by prime and
suborbit union) so that a bad entry fails certification loudly instead of
silently.  Where a manifest entry fails its own check, the driver falls
back to an exhaustive minimal-witness search over PGL(2,p) and records
the replacement next to the failed entry; certification only fails when
no witness exists at all.  Every witness is checked on the vertices of its
own union, exhaustively but only where it can act.  A linear one is read
off the label table of its vertex map (``label_transitions``), built once
per matrix per run, because a union is preserved iff no member label is
sent outside it.  A Hamming-side swap gets an arc check at the vertices it
moves and a non-additivity pair.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

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


def _certify_one_union(
    tokens: frozenset[str], m: int, p: int, witness_cache: dict, label_tables: dict
) -> dict:
    """Build and machine-check a witness for one orbital union.

    Resolution order mirrors the published strategy: stated linear
    matrices, the generic product-group witness for the non-simple locus,
    Hamming-side swaps for two-direction suborbits, reuse of a linear
    witness when the non-simple locus is added to a union, and complement
    duality for the rest.  Every witness is checked once against the actual
    union; stated matrices that fail are recorded and replaced by the
    minimal linear witness found by exhaustive search, memoised in
    ``witness_cache`` under ``(p, tokens)``.  A linear witness is checked on
    its ``label_transitions`` table, memoised in ``label_tables`` under the
    matrix.
    """
    entry: dict = {
        "claim": "union-has-automorphism-outside-group",
        "connection_set_labels": sorted(tokens),
    }
    codes, code_tokens = classify_all(m, p)
    wanted = np.array([t in tokens for t in code_tokens])
    sizes = np.bincount(codes, minlength=wanted.size)
    entry["connection_set_size"] = int(sizes[wanted].sum())

    def check_linear(mat: Matrix) -> bool:
        if mat not in label_tables:
            label_tables[mat] = label_transitions(mat, m, p)
        leaves = label_tables[mat][wanted][:, ~wanted].any()
        return not leaves and not g0_contains(mat)

    def finish_linear(mat: Matrix, kind: str, note: str | None = None) -> dict:
        if not check_linear(mat):
            return {}
        entry["witness_kind"] = kind
        entry["witness_data"] = {"matrix": list(map(list, mat.entries))}
        if note:
            entry["witness_data"]["note"] = note
        entry["checks"] = {
            "preserves_connection_set": True,
            "in_point_stabilizer": False,
        }
        entry["verified"] = True
        return entry

    def replacement(tk: frozenset[str]) -> Matrix | None:
        """The searched witness for a union whose stated matrix failed."""
        key = (p, tk)
        if key not in witness_cache:
            witness_cache[key] = search_linear_witness(tk, p)
        return witness_cache[key]

    def resolve(tk: frozenset[str], allow_complement: bool) -> dict | None:
        manifest = STATED_WITNESSES.get((p, tk))
        if manifest is not None:
            mat = Matrix(manifest, p)
            out = finish_linear(mat, "linear")
            if out:
                return out
            # stated matrix failed: fail loudly, then search a replacement
            repl = replacement(tk)
            if repl is not None:
                out = finish_linear(
                    repl,
                    "linear",
                    note=(
                        f"stated matrix {list(map(list, mat.entries))} does not "
                        "preserve this union; replaced by the minimal valid witness"
                    ),
                )
                if out:
                    out["stated_witness_failed"] = list(map(list, mat.entries))
                    return out
            return None
        if tk == frozenset({"B"}):
            return finish_linear(Matrix(GLGL_WITNESS, p), "glgl-on-B")
        if len(tk) == 1:
            dirs = hamming_capable(next(iter(tk)), p)
            if dirs is not None:
                perm = hamming_witness(dirs[0], dirs[1], m, p)
                na = perm.nonadditive_witness()
                entry["witness_kind"] = "hamming"
                entry["witness_data"] = {
                    "block_directions": [point_name(k, p) for k in dirs],
                    "swapped_w_codes": [1, 2],
                    "nonadditive_pair": list(na) if na else None,
                }
                union_set = orbital_union_set(tokens, m, p)
                entry["checks"] = {
                    "arc_preservation": perm.is_automorphism(union_set),
                    "non_affine": na is not None,
                }
                entry["verified"] = all(entry["checks"].values())
                return entry if entry["verified"] else None
        if "B" in tk and len(tk) > 1:
            # every (A, I) preserves B, so sub's stated matrix fails on tk
            # exactly when it fails on sub, and sub's replacement serves tk
            sub = tk - {"B"}
            sub_manifest = STATED_WITNESSES.get((p, sub))
            if sub_manifest is not None:
                mat = Matrix(sub_manifest, p)
                out = finish_linear(mat, "linear", note=f"reused from {sorted(sub)}")
                if out:
                    return out
                repl = replacement(sub)
                if repl is not None:
                    out = finish_linear(
                        repl, "linear", note=f"reused replacement from {sorted(sub)}"
                    )
                    if out:
                        out["stated_witness_failed"] = list(map(list, mat.entries))
                        return out
        if allow_complement:
            comp = complement_labels(tk, p)
            if comp:
                got = resolve(comp, allow_complement=False)
                if got is not None:
                    got["witness_kind"] = "complement-ref"
                    got["complement_of"] = sorted(comp)
                    return got
        # last resort: exhaustive linear search on this union
        repl = search_linear_witness(tokens, p)
        if repl is not None:
            return finish_linear(repl, "linear", note="found by exhaustive search")
        return None

    got = resolve(tokens, allow_complement=True)
    if got is None:
        raise CertificationFailed(
            "not-digraph-group", "no verified witness", sorted(tokens)
        )
    return got


def certify_not_digraph_group(p: int, m: int) -> Certificate:
    """For every proper nonempty union of nontrivial orbitals, exhibit and
    machine-check an automorphism outside the group.

    Each union's witness is built once and checked once on that union's
    vertices; a replacement for a failed stated matrix is searched the
    first time a union needs it and shared through a per-run cache, and so
    is the label table of each linear witness's vertex map.
    """
    num_vertices(m, p)  # the vertex gate, before any union is listed
    labels = nontrivial_labels(p)
    unions = [
        frozenset(c)
        for r in range(1, len(labels))
        for c in itertools.combinations(labels, r)
    ]

    witness_cache: dict = {}
    label_tables: dict = {}
    entries = [
        _certify_one_union(tk, m, p, witness_cache, label_tables) for tk in unions
    ]
    entries.sort(
        key=lambda e: (len(e["connection_set_labels"]), e["connection_set_labels"])
    )
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
        status="verified" if all(e["verified"] for e in entries) else "refuted",
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
