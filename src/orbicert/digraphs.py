"""Cayley digraphs on the additive tensor space, and automorphism witnesses.

Arc rule: (x, y) is an arc of Cay(T, S) iff x - y lies in S (digitwise mod
p on the vertex indices).  Every connection set used here is closed
under negation, so arcs come in opposite pairs; directed semantics are kept
anyway.  Adjacency is answered from a membership bitmap over the p^(2m)
vertices rather than materialized arc lists.

The Hamming lemma needs no table of the vertices: along two directions the
splitting x = v1 (x) a + v2 (x) b is a pair of 2 x 2 factors g and h,
acting as g (x) I_m and h (x) I_m, and ``hamming_check`` proves
Cay(T, S) = H(2, p^m) from three checks on them and on the members of S.
"""

from __future__ import annotations

import numpy as np

from .errors import BadDecomposition, EmptyUnion, IndexOutOfRange
from .fields import fp_inv
from .matrices import (
    Matrix,
    decode_planes,
    digit_planes,
    homogeneous,
    horner_fold,
    linear_vertex_map,
    mat_inv,
    num_vertices,
    product_image,
)
from .groups import classify_all, nontrivial_labels


class ConnectionSet:
    """A negation-closed set of nonzero vertices defining a Cayley digraph."""

    __slots__ = ("m", "p", "members", "mask", "labels")

    def __init__(self, indices, m: int, p: int, labels=None):
        n = num_vertices(m, p)  # refused before the n-byte mask
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
        digits = decode_planes(members, m, p)
        if not mask[_encode_difference(np.zeros_like(digits), digits, p)].all():
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
        return bool(self.mask[_vertex(idx, self.mask.size)])

    def digits(self) -> np.ndarray:
        """The (2m, |S|) uint16 digit planes of the members, a fresh array."""
        return decode_planes(self.members, self.m, self.p)

    def __repr__(self):
        lab = sorted(self.labels) if self.labels else "custom"
        return f"ConnectionSet(m={self.m}, p={self.p}, |S|={len(self)}, labels={lab})"


def _vertex(idx, n: int) -> int:
    """idx as an int, refused outside 0 .. n-1 (a negative index would wrap)."""
    idx = int(idx)
    if not 0 <= idx < n:
        raise IndexOutOfRange(f"vertex {idx} outside 0..{n - 1}")
    return idx


# ---------------------------------------------------------------------------
# digit planes
#
# The exhaustive arc and additivity checks read the digits of the vertices
# from the uint16 ``digit_planes`` table, one row per digit, and encode the
# difference of two vertices with ``horner_fold``: no % or matmul over the
# vertices.


def _horner_difference(pairs, p: int) -> np.ndarray:
    """int32 vertex indices of u - v from (u, v) pairs of uint16 digit planes,
    last digit first, one pair at a time.

    Each digit difference is reduced mod p without a division: a negative
    u - v wraps to u - v + 2^16, and d + p then wraps to u - v + p, the
    smaller of the two; a non-negative d is itself the smaller.
    """

    def digits():
        for u, v in pairs:
            d = np.subtract(u, v)
            np.minimum(d, d + p, out=d)
            yield d

    return horner_fold(digits(), p)


def _encode_difference(u: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    """Vertex indices of u - v for uint16 digit planes of shape (2m, ...),
    broadcast together."""
    return _horner_difference(zip(u[::-1], v[::-1]), p)


def _gathered_difference(planes: np.ndarray, i, j, p: int) -> np.ndarray:
    """Vertex indices of x - y for vertex index arrays i of x and j of y,
    broadcast together, gathered from the digit table one plane at a time:
    no gather is larger than the broadcast shape."""
    return _horner_difference(((plane[i], plane[j]) for plane in planes[::-1]), p)


def orbital_union_set(labels, m: int, p: int) -> ConnectionSet:
    """Union of the named nontrivial suborbits as a connection set.

    The tokens are checked against those of ``classify_all``, whose vertex
    gate refuses a large p^(2m) before any lambda-class is built.
    """
    tokens = frozenset(labels)
    if not tokens:
        raise EmptyUnion("no suborbit labels given")
    if "zero" in tokens:
        raise ValueError("the trivial suborbit does not define arcs")
    codes, code_tokens = classify_all(m, p)
    bad = tokens.difference(code_tokens[1:])
    if bad:
        raise ValueError(f"unknown suborbits for p={p}: {sorted(bad)}")
    wanted = np.array([t in tokens for t in code_tokens])
    return ConnectionSet(np.flatnonzero(wanted[codes]), m, p, labels=tokens)


def complement_labels(labels, p: int) -> frozenset[str]:
    return frozenset(nontrivial_labels(p)).difference(labels)


def is_connected(s: ConnectionSet) -> bool:
    """Cay(T, S) is connected iff the digit rows of S span T over GF(p).

    T is elementary abelian, so the vertices reachable from 0 are the
    GF(p)-span of S.  Column elimination on the |S| x 2m digit matrix, held
    as its 2m int32 columns (the members' digit planes): a member with a
    nonzero entry in the column is scaled to a pivot of 1 with ``fp_inv``
    and subtracted from every member, itself included, which zeroes the
    column.  The rank is 2m iff every column finds such a member.
    """
    p = s.p
    cols = s.digits().astype(np.int32)
    for col in range(cols.shape[0]):
        nonzero = np.flatnonzero(cols[col])
        if nonzero.size == 0:
            return False
        pivot = cols[:, nonzero[0]] * fp_inv(int(cols[col, nonzero[0]]), p) % p
        factor = cols[col].copy()
        for k in np.flatnonzero(pivot):
            cols[k] -= factor * pivot[k]
            cols[k] %= p
    return True


def label_transitions(a: Matrix, m: int, p: int) -> np.ndarray:
    """Which suborbit labels the product action of (a, I_m) sends to which.

    A k x k bool table over the ``classify_all`` codes: entry [i, j] is True
    iff some vertex of code i maps to a vertex of code j.  It is scattered
    from the image of every vertex, so the linear map preserves a union U
    of labels (every member's image is a member, hence S onto S and an
    automorphism of Cay(T, S)) iff ``table[U][:, ~U]`` has no True entry.
    One table answers every union for the same matrix.
    """
    codes, tokens = classify_all(m, p)
    table = np.zeros((len(tokens), len(tokens)), dtype=bool)
    table[codes, codes[linear_vertex_map(a, m, p)]] = True
    return table


class VertexPermutation:
    """A permutation of the p^(2m) vertices, stored as an int32 index array
    (the vertex gate keeps p^(2m) below 2^31)."""

    __slots__ = ("m", "p", "mapping")

    def __init__(self, mapping, m: int, p: int):
        n = num_vertices(m, p)
        arr = np.asarray(mapping)
        if arr.shape != (n,):
            raise ValueError("mapping has wrong length")
        # checked before the cast and the scatter, which would wrap silently
        if arr.min() < 0 or arr.max() >= n:
            raise ValueError("mapping is not a permutation")
        arr = arr.astype(np.int32)
        seen = np.zeros(n, dtype=bool)
        seen[arr] = True
        if not seen.all():
            raise ValueError("mapping is not a permutation")
        arr.flags.writeable = False
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "mapping", arr)

    def __setattr__(self, *a):
        raise AttributeError("VertexPermutation is immutable")

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

        As S = -S, the vertices x + t, t in S, are the x - t, encoded from
        the uint16 digit table, one fold per block, not one per member of
        S.  The support runs in blocks of floor(n / |S|) vertices, at
        most n (x, t) pairs at a time, and each difference gathers one
        digit plane at a time: no gather holds more than n digits, a 2m-th
        of the table.
        """
        if (s.m, s.p) != (self.m, self.p):
            raise ValueError("permutation and connection set live on different spaces")
        m, p = s.m, s.p
        planes = digit_planes(m, p)
        phi = self.mapping
        support = np.flatnonzero(phi != np.arange(phi.size, dtype=np.int32))
        block = phi.size // len(s)
        for start in range(0, support.size, block):
            x = support[start : start + block]
            ahead = _gathered_difference(planes, x[:, None], s.members, p)
            diff = _gathered_difference(planes, phi[ahead], phi[x][:, None], p)
            if not s.mask[diff].all():
                return False
        return True

    def nonadditive_witness(self):
        """A pair (u, v) with phi(u+v) != phi(u) + phi(v) - phi(0), or None.

        The translated map psi(x) = phi(x) - phi(0) is additive iff it is
        additive against every radix basis vector e_k = p^k, so scanning
        pairs (x, e_k), k outer and x in index order, is a complete affinity
        test.  Each pair compares phi(x + e_k) - phi(x) with
        phi(e_k) - phi(0), the value at x = 0, one digit plane of the image
        at a time.  The index of x + e_k is x + p^k, less p^(k+1) where
        digit k of x is p - 1 and wraps to 0.
        """
        p = self.p
        planes = digit_planes(self.m, p)
        n = self.mapping.size
        image = planes[:, self.mapping]
        for k in range(2 * self.m):
            ahead = np.arange(p**k, n + p**k, dtype=np.int32)
            np.subtract(ahead, p ** (k + 1), out=ahead, where=planes[k] == p - 1)
            bad = np.zeros(n, dtype=bool)
            for plane in image:
                step = plane[ahead]
                step -= plane
                np.minimum(step, step + p, out=step)
                bad |= step != step[0]
            first = np.flatnonzero(bad)
            if first.size:
                return int(first[0]), p**k
        return None


# ---------------------------------------------------------------------------
# the two-block decomposition isomorphic to a Hamming graph
#
# Along distinct directions d1, d2 with lifts v1, v2, each vertex is
# x = v1 (x) a + v2 (x) b for one pair (a, b) of W.  On row-major digit rows
# the splitting is [a | b] (g (x) I_m) = x and x (h (x) I_m) = [a | b] for
# two 2 x 2 factors g and h, and (h (x) I_m)(g (x) I_m) = hg (x) I_m, so
# neither the lemma nor the witness tabulates the vertices' coordinates.


def _splitting(d1: int, d2: int, p: int) -> tuple[Matrix, Matrix]:
    """(g, h) for the splitting along the point codes d1, d2: g = D^T for
    D = (v1 | v2), whose rows are v1 and v2, and h = inv(D)^T = inv(g)."""
    if d1 == d2:
        raise BadDecomposition("directions must be distinct")
    g = Matrix((homogeneous(d1, p), homogeneous(d2, p)), p)
    if not g.is_invertible():
        raise BadDecomposition("directions do not span the 2-dimensional factor")
    return g, mat_inv(g)


def hamming_check(s: ConnectionSet, d1, d2) -> bool:
    """Certify Cay(T, S) isomorphic to the Hamming graph H(2, p^m).

    With (g, h) the splitting along d1, d2 (``_splitting``) and
    H = h (x) I_m, three checks:

    1. h g = I_2 (mod p), so H G = I for G = g (x) I_m;
    2. every member of S has exactly one zero half in its coordinates
       x H = [h00 r1 + h10 r2 | h01 r1 + h11 r2], for x = [r1 | r2];
    3. |S| = 2(p^m - 1).

    They prove the isomorphism x -> (code(a), code(b)) for [a | b] = x H.
    By 1, H is invertible, so x -> x H is a linear bijection of T onto
    W x W.  By 2 it maps S into the two axes minus 0,
    (W - 0) x 0 u 0 x (W - 0), a set of 2(p^m - 1) points; by 3 and
    injectivity it maps S onto that set, so S is exactly the two direction
    blocks minus 0.  By linearity (x - y) H = x H - y H, so x - y is in S
    iff the coordinates of x and y differ in exactly one place: Hamming
    adjacency.

    Returns False if 1 fails; raises BadDecomposition if 2 or 3 fails, or
    if the directions do not split the tensor space.
    """
    m, p = s.m, s.p
    g, h = _splitting(d1, d2, p)
    if h * g != Matrix.identity(p):
        return False
    digits = s.digits().astype(np.int64)
    r1, r2 = digits[:m], digits[m:]
    nonzero = [((h[0, c] * r1 + h[1, c] * r2) % p).any(axis=0) for c in (0, 1)]
    if not (nonzero[0] ^ nonzero[1]).all() or len(s) != 2 * (p**m - 1):
        raise BadDecomposition("S is not the union of the two direction blocks")
    return True


def hamming_witness(d1, d2, m: int, p: int) -> VertexPermutation:
    """The candidate non-affine automorphism of the two-block Cayley graph.

    Acts in Hamming coordinates by transposing a = f_1 and a = 2 f_1 (the
    W-codes 1 and 2) for every b, and fixes every other vertex; any
    non-linear permutation of one side works, this one is the canonical
    choice.  The 2 p^m moved vertices are c v1 (x) f_1 + v2 (x) b,
    c in {1, 2}, with v1 and v2 the rows of the splitting factor g, and
    none is 0: the images under (g, I_m) of the vertices [c f_1 | b], the
    indices c + p^m b.  Only builds the permutation: the caller certifies it
    on its own connection set with ``is_automorphism``, which checks the
    arcs that leave those moved vertices, for every t in S, and
    ``nonadditive_witness``.
    """
    n = num_vertices(m, p)  # refused before the n-entry mapping
    g, _ = _splitting(d1, d2, p)
    planes = digit_planes(m, p)
    one, two = (product_image(planes[:, c :: p**m], g, p) for c in (1, 2))
    mapping = np.arange(n, dtype=np.int32)
    mapping[one], mapping[two] = two, one
    return VertexPermutation(mapping, m, p)
