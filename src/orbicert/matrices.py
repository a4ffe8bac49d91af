"""Matrices over GF(p), GL(2,p) and PGL(2,p), and 2 x m tensor coordinates.

Conventions fixed once for the whole toolkit:

* row-vector action, v^A = v * A;
* a tensor x (sum of X[i][j] * e_i (x) f_j) is stored as its 2 x m grid X,
  row 0 carrying the e_1 components;
* the vertex index of x is sum(flat[k] * p^k) over the row-major flattening
  of X (e_1 row first), giving a dense numbering 0 .. p^(2m)-1.
"""

from __future__ import annotations

import itertools
import json
from functools import lru_cache

import numpy as np

from .errors import (
    DimensionMismatch,
    ParameterTooLarge,
    Singular,
    ZeroTensor,
)
from .fields import INFINITY, fp_inv

GL2_ENUM_MAX_P = 200
MAX_VERTICES = 10**7


class Matrix:
    """Immutable matrix over GF(p) with canonical residue entries."""

    __slots__ = ("rows", "cols", "p", "entries")

    def __init__(self, entries, p: int):
        rows = tuple(tuple(int(v) % p for v in row) for row in entries)
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise DimensionMismatch("ragged matrix")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", len(rows[0]))
        object.__setattr__(self, "p", int(p))
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n: int, p: int) -> "Matrix":
        return cls(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), p)

    @classmethod
    def zero(cls, n_rows: int, n_cols: int, p: int) -> "Matrix":
        return cls(tuple((0,) * n_cols for _ in range(n_rows)), p)

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

    def __neg__(self):
        return self.scaled(self.p - 1)

    def scaled(self, k: int) -> "Matrix":
        return Matrix(tuple(tuple(k * v for v in row) for row in self.entries), self.p)

    def transpose(self) -> "Matrix":
        return Matrix(tuple(zip(*self.entries)), self.p)

    def det(self) -> int:
        if self.rows != self.cols:
            raise DimensionMismatch("determinant of a non-square matrix")
        if self.rows == 1:
            return self.entries[0][0]
        if self.rows == 2:
            (a, b), (c, d) = self.entries
            return (a * d - b * c) % self.p
        # Gaussian elimination, tracking row swaps.
        a = [list(r) for r in self.entries]
        p, n = self.p, self.rows
        det = 1
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col]), None)
            if piv is None:
                return 0
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                det = -det
            det = det * a[col][col] % p
            inv = fp_inv(a[col][col], p)
            for r in range(col + 1, n):
                f = a[r][col] * inv % p
                if f:
                    a[r] = [(x - f * y) % p for x, y in zip(a[r], a[col])]
        return det % p

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.det() != 0

    @property
    def array(self) -> np.ndarray:
        return np.array(self.entries, dtype=np.int64)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact product over GF(p)."""
    if a.p != b.p:
        raise DimensionMismatch("mixed moduli")
    if a.cols != b.rows:
        raise DimensionMismatch(f"{a.rows}x{a.cols} times {b.rows}x{b.cols}")
    p = a.p
    bt = tuple(zip(*b.entries))
    return Matrix(
        tuple(
            tuple(sum(x * y for x, y in zip(row, col)) % p for col in bt)
            for row in a.entries
        ),
        p,
    )


def mat_inv(a: Matrix) -> Matrix:
    """Inverse by Gauss-Jordan elimination; raises Singular if det = 0."""
    if a.rows != a.cols:
        raise DimensionMismatch("inverse of a non-square matrix")
    n, p = a.rows, a.p
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a.entries)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise Singular(f"matrix not invertible mod {p}")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = fp_inv(aug[col][col], p)
        aug[col] = [v * inv % p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[col])]
    return Matrix(tuple(tuple(row[n:]) for row in aug), p)


def mat_rank(a: Matrix) -> int:
    """Rank over GF(p) by Gaussian elimination."""
    rows = [list(r) for r in a.entries]
    p = a.p
    rank = 0
    col = 0
    while rank < len(rows) and col < a.cols:
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = fp_inv(rows[rank][col], p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def gl2_count(p: int) -> int:
    return (p * p - 1) * (p * p - p)


def gl2_enumerate(p: int):
    """Yield every element of GL(2,p) exactly once.

    First row ranges over nonzero vectors, second row over non-multiples of
    the first, so the count (p^2-1)(p^2-p) holds by construction.
    """
    if p > GL2_ENUM_MAX_P:
        raise ParameterTooLarge(f"GL(2,{p}) enumeration gated to p <= {GL2_ENUM_MAX_P}")
    for a in range(p):
        for b in range(p):
            if a == 0 and b == 0:
                continue
            multiples = {((k * a) % p, (k * b) % p) for k in range(p)}
            for c in range(p):
                for d in range(p):
                    if (c, d) in multiples:
                        continue
                    yield Matrix(((a, b), (c, d)), p)


def point_code(value, p: int) -> int:
    """Code of a point of the projective line: slope t -> t, INFINITY -> p."""
    return p if value is INFINITY else int(value) % p


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
    first matrix of ``gl2_enumerate`` order that passes it.  PGL(2,p) is
    sharply 3-transitive on the p+1 points, and a class stabilizes a set iff
    it stabilizes the complement.  So the frame is the first three points of
    the smaller side, followed by the other side; each ordered triple of
    distinct points, each on its frame point's side, is the frame's image
    under one candidate class, kept iff it maps the smaller side into itself.
    """
    def lift(k):
        return (0, 1) if k == p else (1, k)

    inside = set(codes)
    small = sorted(inside)
    if 2 * len(small) > p + 1:
        small = [k for k in range(p + 1) if k not in inside]
    members = set(small)
    n = min(3, len(small))
    # the larger side is listed only when the frame needs a point of it
    large = [k for k in range(p + 1) if k not in members] if n < 3 else []
    # the adjugate of the frame's matrix sends the frame to e1, e2, e1 + e2
    f0, f1, f2, f3 = _frame(*map(lift, small[:n] + large[: 3 - n]), p)
    points = [lift(k) for k in small]
    out = []
    for x, y, z in itertools.product(*[small] * n, *[large] * (3 - n)):
        if x == y or x == z or y == z:
            continue
        g0, g1, g2, g3 = _frame(lift(x), lift(y), lift(z), p)
        a, b = (f3 * g0 - f1 * g2) % p, (f3 * g1 - f1 * g3) % p
        c, d = (f0 * g2 - f2 * g0) % p, (f0 * g3 - f2 * g1) % p
        for u0, u1 in points:
            v0, v1 = (u0 * a + u1 * c) % p, u0 * b + u1 * d
            if (v1 * pow(v0, -1, p) % p if v0 else p) not in members:
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


def num_vertices(m: int, p: int) -> int:
    return p ** (2 * m)


def encode_coords(flat, p: int) -> int:
    """Mixed-radix vertex index of a row-major coordinate list."""
    idx = 0
    for k, v in enumerate(flat):
        idx += (v % p) * p**k
    return idx


def decode_index(idx: int, m: int, p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Recover the (e1-row, e2-row) coordinate pair of a vertex index."""
    digits = []
    for _ in range(2 * m):
        digits.append(idx % p)
        idx //= p
    return tuple(digits[:m]), tuple(digits[m:])


def vertex_table_size(m: int, p: int) -> int:
    """p^(2m), refused above MAX_VERTICES before a table that long is made."""
    n = num_vertices(m, p)
    if n > MAX_VERTICES:
        raise ParameterTooLarge(f"vertex table for p^(2m) = {n} refused")
    return n


def decode_planes(idx, m: int, p: int) -> np.ndarray:
    """Digit k of each vertex index as row k of a (2m, ...) uint16 array.

    Indices are divided on an int32 copy: the vertex gate keeps every
    index below 10^7 < 2^31, and p below 2^12, so every digit plus p fits
    in 16 bits.
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
    planes = decode_planes(np.arange(vertex_table_size(m, p), dtype=np.int32), m, p)
    planes.flags.writeable = False
    return planes


def encode_array(coords: np.ndarray, p: int) -> np.ndarray:
    """Vectorized vertex indices for an (..., 2, m) coordinate array."""
    m = coords.shape[-1]
    flat = coords.reshape(*coords.shape[:-2], 2 * m)
    radix = p ** np.arange(2 * m, dtype=np.int64)
    return (flat % p) @ radix


class Tensor:
    """An element of the 2m-dimensional tensor space, as a 2 x m grid."""

    __slots__ = ("m", "p", "coords")

    def __init__(self, coords: Matrix):
        if coords.rows != 2:
            raise DimensionMismatch("tensor coordinates need exactly 2 rows")
        if coords.cols < 2:
            raise DimensionMismatch("tensor space needs m >= 2")
        object.__setattr__(self, "m", coords.cols)
        object.__setattr__(self, "p", coords.p)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, *a):
        raise AttributeError("Tensor is immutable")

    @classmethod
    def from_rows(cls, row1, row2, p: int) -> "Tensor":
        return cls(Matrix((tuple(row1), tuple(row2)), p))

    @classmethod
    def zero(cls, m: int, p: int) -> "Tensor":
        return cls(Matrix.zero(2, m, p))

    @classmethod
    def simple(cls, v, w, p: int) -> "Tensor":
        """The simple tensor (v1 e1 + v2 e2) (x) w."""
        v0, v1 = v
        return cls.from_rows([v0 * x % p for x in w], [v1 * x % p for x in w], p)

    @classmethod
    def from_index(cls, idx: int, m: int, p: int) -> "Tensor":
        r1, r2 = decode_index(idx, m, p)
        return cls.from_rows(r1, r2, p)

    @property
    def index(self) -> int:
        return encode_coords(self.coords.entries[0] + self.coords.entries[1], self.p)

    @property
    def row1(self) -> tuple[int, ...]:
        return self.coords.entries[0]

    @property
    def row2(self) -> tuple[int, ...]:
        return self.coords.entries[1]

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.coords.entries for v in row)

    def __eq__(self, other):
        return (
            isinstance(other, Tensor)
            and self.p == other.p
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.p, self.coords.entries))

    def __repr__(self):
        return f"Tensor({list(self.row1)}, {list(self.row2)}, p={self.p})"

    def __add__(self, other: "Tensor") -> "Tensor":
        if self.p != other.p or self.m != other.m:
            raise DimensionMismatch("mixed tensor spaces")
        p = self.p
        return Tensor.from_rows(
            [(a + b) % p for a, b in zip(self.row1, other.row1)],
            [(a + b) % p for a, b in zip(self.row2, other.row2)],
            p,
        )

    def __sub__(self, other: "Tensor") -> "Tensor":
        return self + (-other)

    def __neg__(self) -> "Tensor":
        return self.scaled(self.p - 1)

    def scaled(self, k: int) -> "Tensor":
        p = self.p
        return Tensor.from_rows(
            [k * v % p for v in self.row1], [k * v % p for v in self.row2], p
        )

    def rank(self) -> int:
        return mat_rank(self.coords)

    def to_json(self) -> str:
        """Wire format: JSON array of 2m integers, row-major, e1 row first."""
        return json.dumps(list(self.row1) + list(self.row2))

    @classmethod
    def from_json(cls, text: str, p: int) -> "Tensor":
        flat = json.loads(text)
        if len(flat) % 2 != 0 or len(flat) < 4:
            raise DimensionMismatch("tensor wire format needs 2m >= 4 integers")
        m = len(flat) // 2
        return cls.from_rows(flat[:m], flat[m:], p)


def tensor_apply(a: Matrix, b: Matrix, x: Tensor) -> Tensor:
    """Image of x under the product action of (a, b); grid map X -> a^T X b.

    Composition is a right action: applying (a1,b1) then (a2,b2) equals
    applying (a1*a2, b1*b2).
    """
    if a.p != x.p or b.p != x.p:
        raise DimensionMismatch("mixed moduli")
    if a.rows != 2 or a.cols != 2 or b.rows != x.m or b.cols != x.m:
        raise DimensionMismatch("action needs a 2x2 and an m x m matrix")
    if not a.is_invertible() or not b.is_invertible():
        raise Singular("group action requires invertible matrices")
    return Tensor(mat_mul(mat_mul(a.transpose(), x.coords), b))


def simple_factorize(x: Tensor):
    """Write x = v (x) w with v normalized (first nonzero entry 1).

    Returns None when rank(x) = 2; raises ZeroTensor on x = 0.
    """
    if x.is_zero():
        raise ZeroTensor("zero tensor has no direction")
    if x.rank() > 1:
        return None
    r1, r2 = x.row1, x.row2
    p = x.p
    if any(r1):
        j = next(j for j in range(x.m) if r1[j])
        mu = r2[j] * fp_inv(r1[j], p) % p
        return (1, mu), r1
    return (0, 1), r2


def direction_matrix(v, m: int) -> np.ndarray:
    """(v0, v1) (x) I_m = [v0 I | v1 I], the m x 2m matrix whose row w is the
    row-major digit row of the simple tensor (v0 e1 + v1 e2) (x) w."""
    return np.kron([[int(v[0]), int(v[1])]], np.eye(m, dtype=np.int64))


def product_image(planes: np.ndarray, a: Matrix, b: Matrix, p: int) -> np.ndarray:
    """int32 vertex indices of the images of (2m, k) digit planes under (a, b).

    Row-major flattening turns the grid map X -> a^T X b into
    flat -> flat @ kron(a, b), so image digit j is the sum over k of
    plane k times K[k, j], mod p.  Each image digit is summed in int32, one
    plane at a time (2m (p - 1)^2 < 2^31 under the vertex gate), and folded
    into the index by Horner's rule, last digit first.
    """
    kron = np.kron(a.array, b.array) % p
    idx = np.zeros(planes.shape[1:], dtype=np.int32)
    digit = np.empty_like(idx)
    term = np.empty_like(idx)
    for j in range(kron.shape[1] - 1, -1, -1):
        digit.fill(0)
        for k in np.flatnonzero(kron[:, j]):
            np.multiply(planes[k], kron[k, j], out=term, dtype=np.int32)
            digit += term
        digit %= p
        idx *= p
        idx += digit
    return idx


def linear_vertex_map(a: Matrix, b: Matrix, m: int, p: int) -> np.ndarray:
    """Vertex permutation array (int32) of the product action of (a, b)."""
    return product_image(digit_planes(m, p), a, b, p)
