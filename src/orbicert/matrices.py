"""The 2 x 2 factor over GF(p), GL(2,p) and PGL(2,p), and 2 x m tensor
coordinates.

Conventions fixed once for the whole toolkit:

* row-vector action, v^A = v * A;
* every linear map of the vertices here is (A, I_m), X -> A^T X: ``Matrix``
  is the 2 x 2 factor A, and ``product_image`` applies it to digit planes;
* a tensor x (sum of X[i][j] * e_i (x) f_j) is stored as its 2 x m grid X,
  row 0 carrying the e_1 components;
* the vertex index of x is sum(flat[k] * p^k) over the row-major flattening
  of X (e_1 row first), giving a dense numbering 0 .. p^(2m)-1; digit k of
  every vertex is row k of ``digit_planes``, and ``horner_fold`` is the one
  way from digits back to indices;
* a point of the projective line is its code 0 .. p: the slope t, the line
  through (1, t), is t, and infinity, the line through (0, 1), is p;
  ``homogeneous`` lifts a code to that pair and ``point_of`` maps a nonzero
  pair back to its code.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, ParameterTooLarge, Singular
from .fields import fp_inv

MAX_VERTICES = 10**6  # the one limit on p^(2m), and on p^m


class Matrix:
    """Immutable 2 x 2 matrix over GF(p) with canonical residue entries."""

    __slots__ = ("p", "entries")

    def __init__(self, entries, p: int):
        rows = tuple(tuple(int(v) % p for v in row) for row in entries)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise DimensionMismatch("a Matrix is 2 x 2")
        object.__setattr__(self, "p", int(p))
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, p: int) -> "Matrix":
        return cls(((1, 0), (0, 1)), p)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.p == other.p
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.p, self.entries))

    def __repr__(self):
        return f"Matrix({list(map(list, self.entries))}, p={self.p})"

    def __mul__(self, other: "Matrix") -> "Matrix":
        return mat_mul(self, other)

    def scaled(self, k: int) -> "Matrix":
        return Matrix(tuple(tuple(k * v for v in row) for row in self.entries), self.p)

    def det(self) -> int:
        (a, b), (c, d) = self.entries
        return (a * d - b * c) % self.p

    def is_invertible(self) -> bool:
        return self.det() != 0


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact product over GF(p)."""
    if a.p != b.p:
        raise DimensionMismatch("mixed moduli")
    (a0, a1), (a2, a3) = a.entries
    (b0, b1), (b2, b3) = b.entries
    return Matrix(
        ((a0 * b0 + a1 * b2, a0 * b1 + a1 * b3), (a2 * b0 + a3 * b2, a2 * b1 + a3 * b3)), a.p
    )


def mat_inv(a: Matrix) -> Matrix:
    """The adjugate over the determinant; raises Singular if det = 0."""
    det = a.det()
    if not det:
        raise Singular(f"matrix not invertible mod {a.p}")
    (x, y), (z, w) = a.entries
    return Matrix(((w, -y), (-z, x)), a.p).scaled(fp_inv(det, a.p))


def gl2_count(p: int) -> int:
    return (p * p - 1) * (p * p - p)


def homogeneous(k: int, p: int) -> tuple[int, int]:
    """The homogeneous lift of point code k: (1, k) for a slope, (0, 1) for p."""
    return (0, 1) if k == p else (1, k)


def point_of(x: int, y: int, p: int) -> int:
    """Code of the point through the nonzero pair (x, y): y/x, or p if x = 0."""
    return y * fp_inv(x, p) % p if x % p else p


def _frame(u, v, w, p: int) -> tuple[int, int, int, int]:
    """Entries of a matrix sending e1, e2 and e1 + e2 to the points u, v, w:
    rows a u and b v with a u + b v = det(u, v) w (Cramer's rule)."""
    a = (w[0] * v[1] - w[1] * v[0]) % p
    b = (u[0] * w[1] - u[1] * w[0]) % p
    return a * u[0], a * u[1], b * v[0], b * v[1]


def pgl2_stabilizer(codes, p: int) -> list[Matrix]:
    """The PGL(2,p) classes mapping a set of point codes onto itself, as
    normalized representatives (first nonzero entry 1) in lexicographic order.

    A normalized representative is its class's lexicographically first
    member, so the first class passing a scalar-invariant filter holds the
    first matrix of GL(2,p), in lexicographic order, that passes it.  PGL(2,p) is
    sharply 3-transitive on the p+1 points, and a class stabilizes a set iff
    it stabilizes the complement.  So the frame is the first three points of
    the smaller side, followed by the other side; each ordered triple of
    distinct points, each on its frame point's side, is the frame's image
    under one candidate class, kept iff it maps the smaller side into itself.
    """
    inside = set(codes)
    small = sorted(inside)
    if 2 * len(small) > p + 1:
        small = [k for k in range(p + 1) if k not in inside]
    members = set(small)
    n = min(3, len(small))
    # the larger side is listed only when the frame needs a point of it
    large = [k for k in range(p + 1) if k not in members] if n < 3 else []
    # the adjugate of the frame's matrix sends the frame to e1, e2, e1 + e2
    f0, f1, f2, f3 = _frame(*(homogeneous(k, p) for k in small[:n] + large[: 3 - n]), p)
    points = [homogeneous(k, p) for k in small]
    out = []
    for x, y, z in itertools.product(*[small] * n, *[large] * (3 - n)):
        if x == y or x == z or y == z:
            continue
        g0, g1, g2, g3 = _frame(*(homogeneous(k, p) for k in (x, y, z)), p)
        a, b = (f3 * g0 - f1 * g2) % p, (f3 * g1 - f1 * g3) % p
        c, d = (f0 * g2 - f2 * g0) % p, (f0 * g3 - f2 * g1) % p
        for u0, u1 in points:
            v0, v1 = (u0 * a + u1 * c) % p, u0 * b + u1 * d
            if point_of(v0, v1, p) not in members:
                break
        else:
            k = pow(a or b, -1, p)
            out.append(((a * k % p, b * k % p), (c * k % p, d * k % p)))
    return [Matrix(e, p) for e in sorted(out)]


def scalar_normalize(a: Matrix) -> tuple[Matrix, int]:
    """(c^-1 a, c) for the first nonzero entry c of a."""
    c = next((v for row in a.entries for v in row if v), 0)
    return a.scaled(fp_inv(c, a.p)), c


# ---------------------------------------------------------------------------
# tensor coordinates and the dense vertex numbering


def gated_power(p: int, e: int, m: int) -> int:
    """p^e for e = m or 2m, refused once the running product passes
    MAX_VERTICES.  No larger power is formed: as p >= 3, the refusal comes
    after at most 13 multiplications, whatever m is, and its message names
    p and m, never the power."""
    power = 1
    for _ in range(e):
        power *= p
        if power > MAX_VERTICES:
            quantity = "p^m" if e == m else "p^(2m)"
            raise ParameterTooLarge(f"{quantity} > {MAX_VERTICES} at p = {p}, m = {m} refused")
    return power


def num_vertices(m: int, p: int) -> int:
    """p^(2m), the number of vertices, refused above MAX_VERTICES: every
    table over the vertices reads its length here first."""
    return gated_power(p, 2 * m, m)


def decode_planes(idx, m: int, p: int) -> np.ndarray:
    """Digit k of each vertex index as row k of a (2m, ...) uint16 array.

    Indices are divided on an int32 copy: the vertex gate keeps every
    index below 10^6 < 2^31, and p at most 1000 (m = 1), so every digit
    plus p fits in 16 bits.
    """
    rest = np.array(idx, dtype=np.int32)
    planes = np.empty((2 * m,) + rest.shape, dtype=np.uint16)
    digit = np.empty_like(rest)
    for k in range(2 * m):
        np.divmod(rest, p, out=(rest, digit))
        planes[k] = digit
    return planes


@lru_cache(maxsize=8)
def digit_planes(m: int, p: int) -> np.ndarray:
    """The one digit table: digit k of every vertex as row k of a read-only
    (2m, p^(2m)) uint16 array, index order."""
    planes = decode_planes(np.arange(num_vertices(m, p), dtype=np.int32), m, p)
    planes.flags.writeable = False
    return planes


def horner_fold(digits, p: int) -> np.ndarray:
    """int32 vertex indices sum(digit_k * p^k) from the digit arrays, given
    last digit first, by Horner's rule: index = index * p + digit.

    The one place that turns digits into vertex indices.  Each digit is
    read once, before the next is drawn, so an iterator may refill one
    buffer.
    """
    digits = iter(digits)
    idx = np.array(next(digits), dtype=np.int32)
    for digit in digits:
        idx *= p
        idx += digit
    return idx


def tensor_index(u, w, p: int) -> int:
    """Vertex index of the simple tensor u (x) w, u in GF(p)^2, w in GF(p)^m:
    ``horner_fold`` on the row-major digits u_i w_j."""
    digits = [a * b % p for a in u for b in w]
    return int(horner_fold(reversed(digits), p))


def product_image(planes: np.ndarray, a: Matrix, p: int) -> np.ndarray:
    """int32 vertex indices of the images of (2m, k) digit planes under (a, I_m).

    The grid map X -> a^T X sends the rows r1, r2 of X to the rows
    a[0, c] r1 + a[1, c] r2, c = 0, 1, so image digit j of row c is
    a[0, c] plane[j] + a[1, c] plane[m + j], mod p.  Each image digit is
    summed in int32 from its two terms (2 (p - 1)^2 < 2^31) into one buffer
    that ``horner_fold`` reads, last digit first.
    """
    m = planes.shape[0] // 2
    digit = np.empty(planes.shape[1:], dtype=np.int32)
    term = np.empty_like(digit)

    def image_digits():
        for c in (1, 0):
            for j in range(m - 1, -1, -1):
                np.multiply(planes[j], a[0, c], out=digit, dtype=np.int32)
                np.multiply(planes[m + j], a[1, c], out=term, dtype=np.int32)
                np.add(digit, term, out=digit)
                yield np.remainder(digit, p, out=digit)

    return horner_fold(image_digits(), p)


def linear_vertex_map(a: Matrix, m: int, p: int) -> np.ndarray:
    """Vertex permutation array (int32) of the product action of (a, I_m)."""
    return product_image(digit_planes(m, p), a, p)
