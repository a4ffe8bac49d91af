"""The affine group on tensor space: dihedral core, membership, suborbits.

The point stabilizer is the central product of the order-8 dihedral group
(acting on the 2-dimensional factor) with the full general linear group of
the m-dimensional factor; a 2x2 matrix A belongs to the stabilizer's
2x2 part iff some nonzero scalar multiple of A is one of the 8 dihedral
matrices, because (A, B) and (kA, k^-1 B) induce the same map.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .errors import DimensionMismatch, ParameterTooLarge, ZeroLambda
from .fields import INFINITY, MAX_PRIME, fp_inv
from .matrices import (
    Matrix,
    Tensor,
    digit_planes,
    mat_inv,
    mat_mul,
    mat_rank,
    num_vertices,
    scalar_normalize,
    simple_factorize,
    tensor_apply,
)

SUBORBIT_ENUM_MAX = 10**6


@dataclass(frozen=True)
class D8Group:
    """The 8 dihedral matrices, closed under product and inverse."""

    elements: tuple[Matrix, ...]
    p: int

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, m):
        return m in self.elements

    def __len__(self):
        return len(self.elements)


def d8_generators(p: int) -> tuple[Matrix, Matrix]:
    return Matrix(((1, 0), (0, -1)), p), Matrix(((0, 1), (1, 0)), p)


@lru_cache(maxsize=64)
def d8_elements(p: int) -> D8Group:
    """Close the two generators under multiplication; always 8 matrices."""
    gens = d8_generators(p)
    elems = {Matrix.identity(2, p)}
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
    assert len(elems) == 8
    return D8Group(tuple(sorted(elems, key=lambda m: m.entries)), p)


def orbit_under_d8(vectors, p: int) -> frozenset:
    """Orbit of a tuple of V-vectors under the simultaneous dihedral action.

    A single vector may be passed as a 2-tuple of ints; a tuple of vectors
    is mapped componentwise.
    """
    vecs = tuple(vectors)
    single = vecs and all(isinstance(v, int) for v in vecs)
    if single:
        vecs = (vecs,)
    out = set()
    for m in d8_elements(p):
        image = tuple(
            (
                (v[0] * m[0, 0] + v[1] * m[1, 0]) % p,
                (v[0] * m[0, 1] + v[1] * m[1, 1]) % p,
            )
            for v in vecs
        )
        out.add(image[0] if single else image)
    return frozenset(out)


@dataclass(frozen=True)
class LinPart:
    """A pair (A, B) acting as the product map, up to (A,B) ~ (kA, k^-1 B)."""

    a: Matrix
    b: Matrix

    def __post_init__(self):
        if self.a.p != self.b.p:
            raise DimensionMismatch("mixed moduli")
        if self.a.rows != 2 or self.a.cols != 2:
            raise DimensionMismatch("first factor must be 2x2")
        if self.b.rows != self.b.cols:
            raise DimensionMismatch("second factor must be square")

    @property
    def p(self) -> int:
        return self.a.p

    def canonical(self) -> tuple[Matrix, Matrix]:
        """Scalar-normalized representative: first nonzero entry of A is 1."""
        a, c = scalar_normalize(self.a)
        return a, self.b.scaled(c)

    def same_map(self, other: "LinPart") -> bool:
        return self.canonical() == other.canonical()

    def apply(self, x: Tensor) -> Tensor:
        return tensor_apply(self.a, self.b, x)


@dataclass(frozen=True)
class AffineElem:
    """x |-> x^(A o B) + t, an element of the full affine group."""

    linear: LinPart
    translation: Tensor

    def apply(self, x: Tensor) -> Tensor:
        return self.linear.apply(x) + self.translation


@lru_cache(maxsize=64)
def v4_representatives(p: int) -> frozenset[Matrix]:
    """The dihedral group modulo scalars: its 8 matrices normalized, 4 classes."""
    return frozenset(scalar_normalize(m)[0] for m in d8_elements(p))


def g0_contains(lin) -> bool:
    """Point-stabilizer membership: some k != 0 scales the 2x2 part into D8.

    Accepts a LinPart or a bare 2x2 Matrix (the m x m factor never matters:
    any scalar is absorbed into the general linear factor).
    """
    a = lin.a if isinstance(lin, LinPart) else lin
    return scalar_normalize(a)[0] in v4_representatives(a.p)


# ---------------------------------------------------------------------------
# suborbit classification


@dataclass(frozen=True)
class SuborbitLabel:
    """Zero, A, B, or Lambda(canonical lam); serialized zero|A|B|L<k>."""

    tag: str
    lam: int | None = None

    def __post_init__(self):
        if self.tag not in ("Zero", "A", "B", "Lambda"):
            raise ValueError(f"bad tag {self.tag!r}")
        if (self.tag == "Lambda") != (self.lam is not None):
            raise ValueError("lambda value present iff tag is Lambda")

    @property
    def token(self) -> str:
        if self.tag == "Zero":
            return "zero"
        if self.tag == "Lambda":
            return f"L{self.lam}"
        return self.tag

    @classmethod
    def parse(cls, token: str) -> "SuborbitLabel":
        if token == "zero":
            return cls("Zero")
        if token in ("A", "B"):
            return cls(token)
        if token.startswith("L") and token[1:].isdigit():
            return cls("Lambda", int(token[1:]))
        raise ValueError(f"bad suborbit token {token!r}")

    def __repr__(self):
        return f"SuborbitLabel({self.token!r})"


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


def classify_tensor(x: Tensor) -> SuborbitLabel:
    """Suborbit of x: Zero, B (rank 2), A (axis direction), or Lambda."""
    if x.is_zero():
        return SuborbitLabel("Zero")
    vw = simple_factorize(x)
    if vw is None:
        return SuborbitLabel("B")
    (v0, v1), _ = vw
    if v0 == 0 or v1 == 0:
        return SuborbitLabel("A")
    return SuborbitLabel("Lambda", canonical_lambda(v1, x.p))


@lru_cache(maxsize=32)
def classify_all(m: int, p: int) -> tuple[np.ndarray, tuple[str, ...]]:
    """Label codes for every vertex index.

    Returns (codes, tokens): codes[v] indexes into tokens, where tokens[0]
    is "zero" followed by nontrivial_labels(p).
    """
    n = num_vertices(m, p)
    if n > SUBORBIT_ENUM_MAX:
        raise ParameterTooLarge(f"classification of {n} vertices refused")
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


def suborbit_indices(label, m: int, p: int) -> np.ndarray:
    """Sorted vertex indices of a suborbit (token, or SuborbitLabel)."""
    token = label.token if isinstance(label, SuborbitLabel) else str(label)
    codes, tokens = classify_all(m, p)
    if token not in tokens:
        raise ValueError(f"unknown suborbit {token!r} for p={p}")
    return np.nonzero(codes == tokens.index(token))[0]


def suborbit_elements(label, m: int, p: int) -> frozenset[Tensor]:
    """The full element set of a suborbit, as Tensors (desk scale only)."""
    if num_vertices(m, p) > SUBORBIT_ENUM_MAX:
        raise ParameterTooLarge("suborbit enumeration gated to p^(2m) <= 10^6")
    return frozenset(
        Tensor.from_index(int(i), m, p) for i in suborbit_indices(label, m, p)
    )


def label_directions(label, p: int) -> tuple:
    """Projective slopes of the simple directions in a suborbit.

    A -> (0, INFINITY); Lambda(k) -> the class slopes.  B has no direction.
    """
    token = label.token if isinstance(label, SuborbitLabel) else str(label)
    if token == "A":
        return (0, INFINITY)
    if token.startswith("L"):
        return tuple(sorted(lambda_classes(p)[int(token[1:])]))
    raise ValueError(f"suborbit {token!r} has no direction set")


# ---------------------------------------------------------------------------
# constructive transitivity inside one suborbit


def complete_basis(rows, m: int, p: int) -> Matrix:
    """Extend independent row vectors to an invertible m x m matrix."""
    chosen = [tuple(r) for r in rows]
    for j in range(m):
        cand = tuple(int(i == j) for i in range(m))
        trial = Matrix(tuple(chosen) + (cand,), p)
        if mat_rank(trial) == len(chosen) + 1:
            chosen.append(cand)
        if len(chosen) == m:
            break
    basis = Matrix(tuple(chosen), p)
    if not basis.is_invertible():
        raise DimensionMismatch("rows were not independent")
    return basis


def connecting_element(x: Tensor, y: Tensor) -> LinPart | None:
    """A stabilizer element mapping x to y, or None if labels differ.

    Realizes transitivity inside each suborbit constructively: a dihedral
    matrix aligns simple directions, and a basis-change matrix moves the
    m-dimensional parts (the general linear factor is transitive on
    independent tuples).  The returned element is verified before return.
    """
    if classify_tensor(x) != classify_tensor(y):
        return None
    p, m = x.p, x.m
    ident = Matrix.identity(m, p)
    if x.is_zero():
        return LinPart(Matrix.identity(2, p), ident)
    if x.rank() == 2:
        r = complete_basis([x.row1, x.row2], m, p)
        s = complete_basis([y.row1, y.row2], m, p)
        lin = LinPart(Matrix.identity(2, p), mat_mul(mat_inv(r), s))
        assert lin.apply(x) == y
        return lin
    (v0, v1), w = simple_factorize(x)
    (u0, u1), wq = simple_factorize(y)
    for d in d8_elements(p):
        img = (
            (v0 * d[0, 0] + v1 * d[1, 0]) % p,
            (v0 * d[0, 1] + v1 * d[1, 1]) % p,
        )
        # img must be proportional to (u0, u1)
        if (img[0] * u1 - img[1] * u0) % p != 0:
            continue
        c = (
            img[0] * fp_inv(u0, p) % p if u0 else img[1] * fp_inv(u1, p) % p
        )
        if c == 0:
            continue
        target = tuple(fp_inv(c, p) * t % p for t in wq)
        r = complete_basis([w], m, p)
        s = complete_basis([target], m, p)
        lin = LinPart(d, mat_mul(mat_inv(r), s))
        if lin.apply(x) == y:
            return lin
    return None
