"""The affine group on tensor space: dihedral core, membership, suborbits.

The point stabilizer is the central product of the order-8 dihedral group
(acting on the 2-dimensional factor) with the full general linear group of
the m-dimensional factor; a 2x2 matrix A belongs to the stabilizer's
2x2 part iff some nonzero scalar multiple of A is one of the 8 dihedral
matrices, because (A, B) and (kA, k^-1 B) induce the same map.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .errors import LemmaViolation, ParameterTooLarge, ZeroLambda
from .fields import MAX_PRIME, fp_inv
from .matrices import Matrix, digit_planes, mat_mul, num_vertices, scalar_normalize

def d8_generators(p: int) -> tuple[Matrix, Matrix]:
    return Matrix(((1, 0), (0, -1)), p), Matrix(((0, 1), (1, 0)), p)


@lru_cache(maxsize=64)
def d8_elements(p: int) -> tuple[Matrix, ...]:
    """Close the two generators under multiplication; always 8 matrices,
    sorted by their entries."""
    gens = d8_generators(p)
    elems = {Matrix.identity(p)}
    frontier = list(elems)
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                mg = mat_mul(m, g)
                if mg not in elems:
                    elems.add(mg)
                    nxt.append(mg)
        frontier = nxt
    if len(elems) != 8:
        raise LemmaViolation("d8-order", {"p": p, "order": len(elems)})
    return tuple(sorted(elems, key=lambda m: m.entries))


@lru_cache(maxsize=64)
def v4_representatives(p: int) -> frozenset[Matrix]:
    """The dihedral group modulo scalars: its 8 matrices normalized, 4 classes."""
    return frozenset(scalar_normalize(m)[0] for m in d8_elements(p))


def g0_contains(a: Matrix) -> bool:
    """Point-stabilizer membership of (a, B): some k != 0 scales the 2x2
    matrix a into D8.  The m x m factor B never matters: any scalar is
    absorbed into the general linear factor."""
    return scalar_normalize(a)[0] in v4_representatives(a.p)


# ---------------------------------------------------------------------------
# suborbit classification


def canonical_lambda(lam: int, p: int) -> int:
    """Minimum integer representative of {lam, -lam, lam^-1, -lam^-1}."""
    lam %= p
    if lam == 0:
        raise ZeroLambda("lambda must be nonzero")
    li = fp_inv(lam, p)
    return min(lam, p - lam, li, p - li)


@lru_cache(maxsize=64)
def lambda_classes(p: int) -> MappingProxyType[int, frozenset[int]]:
    """Partition of the nonzero residues into {+-lam, +-lam^-1} classes.

    Keys are the canonical representatives, in increasing order.  The
    mapping is cached and shared, so it is read-only.
    """
    classes: dict[int, set[int]] = {}
    for lam in range(1, p):
        classes.setdefault(canonical_lambda(lam, p), set()).add(lam)
    return MappingProxyType({k: frozenset(classes[k]) for k in sorted(classes)})


def rank_of(m: int, p: int) -> int:
    """Orbit count of the point stabilizer: zero + A + B + lambda classes.

    The classes are built in O(p) time and space, so p above ``MAX_PRIME``
    is refused before any is built.
    """
    if p > MAX_PRIME:
        raise ParameterTooLarge(f"rank at p = {p} refused (limit p <= {MAX_PRIME})")
    return 3 + len(lambda_classes(p))


def nontrivial_labels(p: int) -> tuple[str, ...]:
    """Tokens of the nontrivial suborbits, canonical order."""
    return ("A", "B") + tuple(f"L{k}" for k in lambda_classes(p))


@lru_cache(maxsize=32)
def classify_all(m: int, p: int) -> tuple[np.ndarray, tuple[str, ...]]:
    """Label codes for every vertex index.

    Returns (codes, tokens): codes[v] indexes into tokens, where tokens[0]
    is "zero" followed by nontrivial_labels(p).
    """
    n = num_vertices(m, p)  # the vertex gate, before any lambda-class is built
    tokens = ("zero",) + nontrivial_labels(p)
    code_of = {t: i for i, t in enumerate(tokens)}
    # a simple x is labelled by its slope r2[j] / r1[j] at the first nonzero
    # column j of row 1: slope 0, or row 1 = 0 (slope code 0 * p + r2[j]),
    # is a direction of A, any other slope names its lambda class
    inv = np.array([0] + [fp_inv(v, p) for v in range(1, p)], dtype=np.int64)
    slope_code = np.array(
        [code_of["A"]] + [code_of[f"L{canonical_lambda(v, p)}"] for v in range(1, p)],
        dtype=np.int8,
    )
    pair_code = slope_code[inv[:, None] * np.arange(p) % p].ravel()  # [r1 * p + r2]
    planes = digit_planes(m, p)
    r1, r2 = planes[:m], planes[m:]
    lead, pair = np.zeros(n, dtype=np.int32), np.empty(n, dtype=np.int32)
    for j in range(m - 1, -1, -1):
        np.multiply(r1[j], p, out=pair, dtype=np.int32)
        pair += r2[j]
        np.copyto(lead, pair, where=r1[j] != 0)
    codes = pair_code[lead]
    # rank 2 iff some 2 x 2 minor r1[i] r2[j] - r1[j] r2[i] is nonzero mod p
    ad, bc = np.empty(n, dtype=np.int32), np.empty(n, dtype=np.int32)
    for i in range(m):
        for j in range(i + 1, m):
            np.multiply(r1[i], r2[j], out=ad, dtype=np.int32)
            np.multiply(r1[j], r2[i], out=bc, dtype=np.int32)
            ad -= bc
            ad %= p
            codes[ad != 0] = code_of["B"]
    codes[0] = code_of["zero"]
    codes.flags.writeable = False
    return codes, tokens


def suborbit_indices(token: str, m: int, p: int) -> np.ndarray:
    """Sorted vertex indices of the suborbit with this token."""
    codes, tokens = classify_all(m, p)
    if token not in tokens:
        raise ValueError(f"unknown suborbit {token!r} for p={p}")
    return np.nonzero(codes == tokens.index(token))[0]


def label_directions(token: str, p: int) -> tuple:
    """Point codes of the simple directions in a suborbit, sorted.

    A -> (0, p), the slope 0 and infinity; Lambda(k) -> the class slopes.
    B has no direction.
    """
    if token == "A":
        return (0, p)
    if token.startswith("L"):
        return tuple(sorted(lambda_classes(p)[int(token[1:])]))
    raise ValueError(f"suborbit {token!r} has no direction set")
