"""Cayley digraphs on the additive tensor space, and automorphism witnesses.

Arc rule: (x, y) is an arc of Cay(T, S) iff x - y lies in S (componentwise
mod p through the vertex codec).  Every connection set used here is closed
under negation, so arcs come in opposite pairs; directed semantics are kept
anyway.  Adjacency is answered from a membership bitmap over the p^(2m)
vertices rather than materialized arc lists.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import (
    BadDecomposition,
    CertificationFailed,
    EmptyUnion,
    ParameterTooLarge,
)
from .crossratio import homogeneous
from .fields import INFINITY, fp_inv
from .matrices import (
    Matrix,
    all_coords,
    decode_array,
    encode_array,
    linear_vertex_map,
    mat_inv,
    num_vertices,
    vertex_table_size,
)
from .groups import LinPart, classify_all, nontrivial_labels

HAMMING_WITNESS_MAX_VERTICES = 10**6


class ConnectionSet:
    """A negation-closed set of nonzero vertices defining a Cayley digraph."""

    __slots__ = ("m", "p", "members", "mask", "labels")

    def __init__(self, indices, m: int, p: int, labels=None):
        n = vertex_table_size(m, p)  # refused before the n-byte mask
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            raise EmptyUnion("connection set is empty")
        # checked before the scatter: a negative index would wrap silently
        if idx.min() < 0 or idx.max() >= n:
            raise ValueError("vertex index out of range")
        mask = np.zeros(n, dtype=bool)
        mask[idx] = True
        members = np.flatnonzero(mask)
        if mask[0]:
            raise ValueError("connection set must not contain 0")
        if not mask[_negated(decode_array(members, m, p), p)].all():
            raise ValueError("connection set must be negation-closed")
        mask.flags.writeable = False
        members.flags.writeable = False
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "labels", frozenset(labels) if labels else None)

    def __setattr__(self, *a):
        raise AttributeError("ConnectionSet is immutable")

    def __len__(self):
        return int(self.members.size)

    def __contains__(self, idx):
        return bool(self.mask[int(idx)])

    def digits(self) -> np.ndarray:
        """The (|S|, 2m) row-major digit rows of the members, a fresh array."""
        return decode_array(self.members, self.m, self.p)

    def __repr__(self):
        lab = sorted(self.labels) if self.labels else "custom"
        return f"ConnectionSet(m={self.m}, p={self.p}, |S|={len(self)}, labels={lab})"


def _negated(rows: np.ndarray, p: int) -> np.ndarray:
    """Vertex indices of -x for (k, 2m) row-major digit rows x."""
    return ((p - rows) % p) @ p ** np.arange(rows.shape[1], dtype=np.int64)


# ---------------------------------------------------------------------------
# translation on the digit grid
#
# The vertex index sum(x_k p^k) is mixed radix, so a length-n array reshaped
# in C order to (p,) * 2m is a grid whose axis j carries digit 2m-1-j.  On
# that grid the array of values at x + t is one np.roll by the negated,
# reversed digits of t: a copy, with no % or matmul over the vertices.


@lru_cache(maxsize=8)
def _digit_planes(m: int, p: int) -> np.ndarray:
    """Digit k of every vertex as plane k of a (2m, p, ..., p) uint16 grid.

    ``all_coords`` refuses p^(2m) > 10^7, so p < 2^12 and every digit plus p
    fits in 16 bits.
    """
    n = num_vertices(m, p)
    planes = all_coords(m, p).reshape(n, 2 * m).T.astype(np.uint16)
    planes = planes.reshape((2 * m,) + (p,) * (2 * m))
    planes.flags.writeable = False
    return planes


def _translated(grid: np.ndarray, t: int, m: int, p: int) -> np.ndarray:
    """Values at x + t, for a grid whose trailing 2m axes are the vertex grid."""
    shift = tuple(-all_coords(m, p)[int(t)].ravel()[::-1])
    return np.roll(grid, shift, axis=tuple(range(grid.ndim - 2 * m, grid.ndim)))


def _encode_difference(u: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    """Vertex indices of u - v for uint16 digit planes of shape (2m, ...).

    Each digit difference is reduced mod p without a division: a negative
    u - v wraps to u - v + 2^16, and d + p then wraps to u - v + p, the
    smaller of the two; a non-negative d is itself the smaller.  The
    reduced planes are encoded by Horner's rule.
    """
    d = u - v
    np.minimum(d, d + p, out=d)
    idx = d[-1].astype(np.int32)
    for plane in d[-2::-1]:
        idx *= p
        idx += plane
    return idx


def difference_index(x: int, y: int, m: int, p: int) -> int:
    coords = all_coords(m, p)
    return int(encode_array((coords[int(x)] - coords[int(y)]) % p, p))


def orbital_union_set(labels, m: int, p: int) -> ConnectionSet:
    """Union of the named nontrivial suborbits as a connection set."""
    tokens = frozenset(
        lab.token if hasattr(lab, "token") else str(lab) for lab in labels
    )
    if not tokens:
        raise EmptyUnion("no suborbit labels given")
    if "zero" in tokens:
        raise ValueError("the trivial suborbit does not define arcs")
    known = set(nontrivial_labels(p))
    bad = tokens - known
    if bad:
        raise ValueError(f"unknown suborbits for p={p}: {sorted(bad)}")
    codes, code_tokens = classify_all(m, p)
    wanted = np.array([t in tokens for t in code_tokens])
    return ConnectionSet(np.flatnonzero(wanted[codes]), m, p, labels=tokens)


def complement_labels(labels, p: int) -> frozenset[str]:
    tokens = frozenset(
        lab.token if hasattr(lab, "token") else str(lab) for lab in labels
    )
    return frozenset(nontrivial_labels(p)) - tokens


def is_arc(x: int, y: int, s: ConnectionSet) -> bool:
    """Arc test: x - y in S."""
    return difference_index(x, y, s.m, s.p) in s


def is_connected(s: ConnectionSet) -> bool:
    """Cay(T, S) is connected iff the digit rows of S span T over GF(p).

    T is elementary abelian, so the vertices reachable from 0 are the
    GF(p)-span of S.  Column elimination on the |S| x 2m digit matrix: a
    row with a nonzero entry in the column is scaled to a pivot of 1 with
    ``fp_inv`` and subtracted from every row, itself included, which zeroes
    the column.  The rank is 2m iff every column finds such a row.
    """
    p = s.p
    rows = s.digits()
    for col in range(rows.shape[1]):
        nonzero = np.flatnonzero(rows[:, col])
        if nonzero.size == 0:
            return False
        pivot = rows[nonzero[0]] * fp_inv(int(rows[nonzero[0], col]), p) % p
        rows = (rows - np.outer(rows[:, col], pivot)) % p
    return True


def label_transitions(a: Matrix, b: Matrix, m: int, p: int) -> np.ndarray:
    """Which suborbit labels the product action of (a, b) sends to which.

    A k x k bool table over the ``classify_all`` codes: entry [i, j] is True
    iff some vertex of code i maps to a vertex of code j.  It is scattered
    from the image of every vertex, so the linear map preserves a union U
    of labels (every member's image is a member, hence S onto S and an
    automorphism of Cay(T, S)) iff ``table[U][:, ~U]`` has no True entry.
    One table answers every union for the same matrix.
    """
    codes, tokens = classify_all(m, p)
    table = np.zeros((len(tokens), len(tokens)), dtype=bool)
    table[codes, codes[linear_vertex_map(a, b, m, p)]] = True
    return table


class VertexPermutation:
    """A permutation of the p^(2m) vertices, stored as an index array."""

    __slots__ = ("m", "p", "mapping")

    def __init__(self, mapping, m: int, p: int):
        arr = np.asarray(mapping, dtype=np.int64)
        n = num_vertices(m, p)
        if arr.shape != (n,):
            raise ValueError("mapping has wrong length")
        if not np.array_equal(np.sort(arr), np.arange(n)):
            raise ValueError("mapping is not a permutation")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "mapping", arr)

    def __setattr__(self, *a):
        raise AttributeError("VertexPermutation is immutable")

    @classmethod
    def from_linear(cls, lin, m: int, p: int) -> "VertexPermutation":
        a, b = (lin.a, lin.b) if isinstance(lin, LinPart) else lin
        return cls(linear_vertex_map(a, b, m, p), m, p)

    def __call__(self, idx: int) -> int:
        return int(self.mapping[int(idx)])

    def fixes_zero(self) -> bool:
        return self.mapping[0] == 0

    def is_automorphism(self, s: ConnectionSet) -> bool:
        """Exhaustive arc check at the moved vertices.

        Verifies phi(x + t) - phi(x) in S for every x in the support
        M = {x : phi(x) != x} and every t in S; a bijection that injects
        the finite arc set into itself is onto it, so this settles every
        arc (x + t, x):

        * both ends outside M: the arc is fixed, its image difference is t;
        * x in M: checked directly;
        * x outside M, y = x + t in M: -t is in S (``ConnectionSet``
          enforces S = -S), so the check at y with step -t gives
          phi(x) - phi(x + t) in S, the negation of the wanted difference.
          That is why every t is checked, not one of each pair +-t.

        x + t is encoded as x - (-t) from the uint16 digit planes, so no
        vertex is re-encoded through the codec.  The support runs in blocks
        of floor(n / |S|) vertices, at most n (x, t) pairs at a time.
        """
        if (s.m, s.p) != (self.m, self.p):
            raise ValueError("permutation and connection set live on different spaces")
        m, p = s.m, s.p
        planes = _digit_planes(m, p).reshape(2 * m, -1)
        phi = self.mapping
        support = np.flatnonzero(phi != np.arange(phi.size))
        minus_t = ((p - planes[:, s.members]) % p)[:, None, :]
        block = phi.size // len(s)
        for start in range(0, support.size, block):
            x = support[start : start + block]
            ahead = _encode_difference(planes[:, x][:, :, None], minus_t, p)
            diff = _encode_difference(
                planes[:, phi[ahead]], planes[:, phi[x]][:, :, None], p
            )
            if not s.mask[diff].all():
                return False
        return True

    def nonadditive_witness(self):
        """A pair (u, v) with phi(u+v) != phi(u) + phi(v) - phi(0), or None.

        The translated map psi(x) = phi(x) - phi(0) is additive iff it is
        additive against every radix basis vector, so scanning pairs
        (x, basis) is a complete affinity test.
        """
        coords = all_coords(self.m, self.p)
        perm = self.mapping
        psi = (coords[perm] - coords[perm[0]]) % self.p
        for k in range(2 * self.m):
            basis = self.p**k
            shifted = encode_array((coords + coords[basis]) % self.p, self.p)
            bad = np.nonzero(
                (psi[shifted] != (psi + psi[basis]) % self.p).any(axis=(1, 2))
            )[0]
            if bad.size:
                return int(bad[0]), int(basis)
        return None


# ---------------------------------------------------------------------------
# the two-block decomposition isomorphic to a Hamming graph


def hamming_coordinates(d1, d2, m: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates (a, b) of every vertex in the splitting along d1, d2.

    Writing x = v1 (x) a + v2 (x) b for the direction vectors v1, v2, the
    map x -> (code(a), code(b)) is the vertex bijection onto the Hamming
    square of side p^m.
    """
    if d1 == d2 or (d1 is INFINITY and d2 is INFINITY):
        raise BadDecomposition("directions must be distinct")
    v1 = homogeneous(d1, p)
    v2 = homogeneous(d2, p)
    mat = Matrix(((v1[0], v2[0]), (v1[1], v2[1])), p)
    if not mat.is_invertible():
        raise BadDecomposition("directions do not span the 2-dimensional factor")
    inv = mat_inv(mat).array
    coords = all_coords(m, p)
    r = coords  # (n, 2, m); rows r1, r2
    a = (inv[0, 0] * r[:, 0, :] + inv[0, 1] * r[:, 1, :]) % p
    b = (inv[1, 0] * r[:, 0, :] + inv[1, 1] * r[:, 1, :]) % p
    radix = p ** np.arange(m, dtype=np.int64)
    return a @ radix, b @ radix


def hamming_check(s: ConnectionSet, d1, d2) -> bool:
    """Certify Cay(T, S) isomorphic to the Hamming graph H(2, p^m).

    Requires S to be exactly the union of the two direction blocks minus 0;
    then verifies the coordinate map is a bijection carrying arcs to
    Hamming adjacency and back, exhaustively.  Arcs (x + t, x) are checked
    by rolling the (a, b) code grids by the negated, reversed digits of t,
    the grid form of x -> x + t; Hamming pairs by the Horner encoding of
    their difference.  Both halves visit one member of each reverse pair
    only (t or -t; delta or q - delta): S = -S and Hamming adjacency is
    symmetric, so the other member's verdict is the same.
    """
    m, p = s.m, s.p
    acode, bcode = hamming_coordinates(d1, d2, m, p)
    block = ((acode != 0) & (bcode == 0)) | ((acode == 0) & (bcode != 0))
    if not np.array_equal(np.nonzero(block)[0], s.members):
        raise BadDecomposition("S is not the union of the two direction blocks")
    q = p**m
    pair = acode * q + bcode
    if np.unique(pair).size != pair.size:
        raise BadDecomposition("coordinate map is not a bijection")
    # arcs -> Hamming adjacency, one member of each pair +-t (the relation
    # "differs in exactly one coordinate" is symmetric)
    grid = (p,) * (2 * m)
    agrid, bgrid = acode.reshape(grid), bcode.reshape(grid)
    for t in s.members[s.members <= _negated(s.digits(), p)]:
        da = _translated(agrid, t, m, p) != agrid
        db = _translated(bgrid, t, m, p) != bgrid
        if not np.logical_xor(da, db).all():
            return False
    # Hamming adjacency -> arcs: same-b pairs and same-a pairs.  The pairs at
    # delta and q - delta are reverses of each other and S = -S, so
    # delta <= (q - 1) / 2 covers them all.
    lookup = np.empty(q * q, dtype=np.int64)
    lookup[pair] = np.arange(pair.size)
    planes = _digit_planes(m, p).reshape(2 * m, -1)
    for delta in range(1, (q + 1) // 2):
        # change the a-coordinate to any other value with b fixed, and dually
        other_a = lookup[((acode + delta) % q) * q + bcode]
        if not s.mask[_encode_difference(planes[:, other_a], planes, p)].all():
            return False
        other_b = lookup[acode * q + (bcode + delta) % q]
        if not s.mask[_encode_difference(planes[:, other_b], planes, p)].all():
            return False
    return True


def hamming_witness(d1, d2, m: int, p: int) -> VertexPermutation:
    """The candidate non-affine automorphism of the two-block Cayley graph.

    Acts in Hamming coordinates by transposing the W-codes 1 and 2 (the
    encodings of f_1 and 2 f_1) on the first coordinate only; any
    non-linear permutation of one side works, this one is the canonical
    choice.  It moves only the 2 p^m vertices whose first coordinate is 1
    or 2.  Only builds the permutation: the caller certifies it on its own
    connection set with ``is_automorphism``, which checks the arcs that
    leave those moved vertices, for every t in S, and
    ``nonadditive_witness``.
    """
    if num_vertices(m, p) > HAMMING_WITNESS_MAX_VERTICES:
        raise ParameterTooLarge("witness certification gated to p^(2m) <= 10^6")
    acode, bcode = hamming_coordinates(d1, d2, m, p)
    q = p**m
    pair = acode * q + bcode
    lookup = np.empty(q * q, dtype=np.int64)
    lookup[pair] = np.arange(pair.size)
    sigma = np.arange(q, dtype=np.int64)
    sigma[1], sigma[2] = 2, 1
    perm = VertexPermutation(lookup[sigma[acode] * q + bcode], m, p)
    if not perm.fixes_zero():
        raise CertificationFailed("hamming witness", "zero not fixed")
    return perm
