"""Reference code for the tests: scalar, one-object-at-a-time models of
what ``orbicert`` computes with numpy, and the tensor and group-element
types they work on.

No ``orbicert`` command reaches any of this, so it is kept out of the
package (``tests/test_layout.py`` checks that the package holds only what
it uses) and no command compiles it.  The property and acceptance tests
compare the package's numpy paths against it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

import orbicert.cliques as cliques
import orbicert.digraphs as digraphs
from orbicert.certify import (
    DirectionSet,
    _gl_lift,
    delta_indices,
    obstruction_polynomials,
)
from orbicert.cliques import MuConfig, pi_functional, projection_coeffs
from orbicert.crossratio import PERMUTATION_ROWS
from orbicert.digraphs import ConnectionSet, VertexPermutation, _vertex
from orbicert.errors import (
    BadDecomposition,
    DegenerateConfig,
    DimensionMismatch,
    IndexOutOfRange,
    OrbicertError,
    ParameterTooLarge,
    Singular,
)
from orbicert.fields import fp_inv, prime_modulus
from orbicert.groups import canonical_lambda, d8_elements, suborbit_indices
from orbicert.matrices import (
    Matrix,
    digit_planes,
    homogeneous,
    horner_fold,
    num_vertices,
    pgl2_stabilizer,
    scalar_normalize,
)


class ZeroTensor(OrbicertError):
    """The zero tensor cannot be factorized."""


class DegenerateQuad(OrbicertError):
    """Cross-ratio needs four pairwise-distinct projective parameters."""


class DegenerateLambda(OrbicertError):
    """The obstruction polynomials require lambda^4 outside {0, 1}."""


# ---------------------------------------------------------------------------
# GF(p) residues


def fp_normalize(n: int, p) -> int:
    """Canonical residue of a (possibly signed) integer mod p."""
    return n % p


def fp_pow(a: int, n: int, p) -> int:
    """a**n mod p by square-and-multiply; 0**0 = 1 by convention."""
    if n < 0:
        raise ValueError("exponent must be nonnegative")
    return pow(a % p, n, p)


@dataclass(frozen=True)
class FpElement:
    """A canonical residue paired with its modulus."""

    value: int
    modulus: int

    def __post_init__(self):
        if not (0 <= self.value < self.modulus):
            raise ValueError(f"non-canonical residue {self.value} mod {self.modulus}")

    @classmethod
    def of(cls, n: int, p: int) -> "FpElement":
        p = prime_modulus(int(p))
        return cls(n % p, p)

    def _lift(self, other) -> "FpElement":
        if isinstance(other, FpElement):
            if other.modulus != self.modulus:
                raise ValueError("mixed moduli")
            return other
        return FpElement.of(int(other), self.modulus)

    def __add__(self, other):
        o = self._lift(other)
        return FpElement((self.value + o.value) % self.modulus, self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return FpElement((self.value - o.value) % self.modulus, self.modulus)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        o = self._lift(other)
        return FpElement((self.value * o.value) % self.modulus, self.modulus)

    __rmul__ = __mul__

    def __neg__(self):
        return FpElement((-self.value) % self.modulus, self.modulus)

    def inv(self) -> "FpElement":
        return FpElement(fp_inv(self.value, self.modulus), self.modulus)

    def __truediv__(self, other):
        return self * self._lift(other).inv()

    def __pow__(self, n: int):
        return FpElement(fp_pow(self.value, n, self.modulus), self.modulus)

    def __int__(self):
        return self.value

    def __repr__(self):
        return f"{self.value} (mod {self.modulus})"


# ---------------------------------------------------------------------------
# matrices of any shape, GL(2,p) and the 2 x m tensors


class GridMatrix:
    """Immutable matrix over GF(p) of any shape, with canonical residue
    entries: the 2 x m grids of the tensors and the m x m factors B of the
    product action, which ``orbicert.matrices.Matrix`` (2 x 2) does not
    represent.  Its determinant and inverse go by elimination, with no
    closed form, so it is also the reference for the 2 x 2 ones."""

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
        raise AttributeError("GridMatrix is immutable")

    @classmethod
    def identity(cls, n: int, p: int) -> "GridMatrix":
        return cls(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), p)

    def __eq__(self, other):
        return (
            isinstance(other, GridMatrix)
            and self.p == other.p
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.p, self.entries))

    def __repr__(self):
        return f"GridMatrix({list(map(list, self.entries))}, p={self.p})"

    def scaled(self, k: int) -> "GridMatrix":
        return GridMatrix(tuple(tuple(k * v for v in row) for row in self.entries), self.p)

    def det(self) -> int:
        if self.rows != self.cols:
            raise DimensionMismatch("determinant of a non-square matrix")
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


def grid(a) -> GridMatrix:
    """A 2 x 2 ``Matrix`` (or a GridMatrix) as a GridMatrix."""
    return a if isinstance(a, GridMatrix) else GridMatrix(a.entries, a.p)


def grid_mul(a: GridMatrix, b: GridMatrix) -> GridMatrix:
    """Exact product over GF(p)."""
    if a.p != b.p:
        raise DimensionMismatch("mixed moduli")
    if a.cols != b.rows:
        raise DimensionMismatch(f"{a.rows}x{a.cols} times {b.rows}x{b.cols}")
    p = a.p
    bt = tuple(zip(*b.entries))
    return GridMatrix(
        tuple(
            tuple(sum(x * y for x, y in zip(row, col)) % p for col in bt)
            for row in a.entries
        ),
        p,
    )


def grid_inv(a: GridMatrix) -> GridMatrix:
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
    return GridMatrix(tuple(tuple(row[n:]) for row in aug), p)


def kron_image(planes: np.ndarray, a, b: GridMatrix, p: int) -> np.ndarray:
    """int32 vertex indices of the images of (2m, k) digit planes under (a, b),
    for any m x m factor b: the reference for ``orbicert.matrices.product_image``,
    which applies (a, I_m) two planes at a time.

    Row-major flattening turns the grid map X -> a^T X b into
    flat -> flat @ kron(a, b), so image digit j is the sum over k of
    plane k times K[k, j], mod p.  Each image digit is summed in int32, one
    plane at a time (2m (p - 1)^2 < 2^31, as p^(2m) <= 10^6), into one
    buffer that ``horner_fold`` reads, last digit first.
    """
    kron = np.kron(grid(a).array, grid(b).array) % p
    digit = np.empty(planes.shape[1:], dtype=np.int32)
    term = np.empty_like(digit)

    def image_digits():
        for j in range(kron.shape[1] - 1, -1, -1):
            digit.fill(0)
            for k in np.flatnonzero(kron[:, j]):
                np.multiply(planes[k], kron[k, j], out=term, dtype=np.int32)
                np.add(digit, term, out=digit)
            yield np.remainder(digit, p, out=digit)

    return horner_fold(image_digits(), p)


GL2_ENUM_MAX_P = 200


def mat_rank(a: GridMatrix) -> int:
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


def encode_array(coords: np.ndarray, p: int) -> np.ndarray:
    """Vectorized vertex indices for an (..., 2, m) coordinate array, in
    int64: the reference for ``orbicert.matrices.horner_fold`` on the
    uint16 digit planes."""
    m = coords.shape[-1]
    flat = coords.reshape(*coords.shape[:-2], 2 * m)
    radix = p ** np.arange(2 * m, dtype=np.int64)
    return (flat % p) @ radix


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


class Tensor:
    """An element of the 2m-dimensional tensor space, as a 2 x m grid."""

    __slots__ = ("m", "p", "coords")

    def __init__(self, coords: GridMatrix):
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
        return cls(GridMatrix((tuple(row1), tuple(row2)), p))

    @classmethod
    def zero(cls, m: int, p: int) -> "Tensor":
        return cls(GridMatrix(((0,) * m,) * 2, p))

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


def tensor_apply(a, b, x: Tensor) -> Tensor:
    """Image of x under the product action of (a, b); grid map X -> a^T X b.

    Composition is a right action: applying (a1,b1) then (a2,b2) equals
    applying (a1*a2, b1*b2).
    """
    a, b = grid(a), grid(b)
    if a.p != x.p or b.p != x.p:
        raise DimensionMismatch("mixed moduli")
    if a.rows != 2 or a.cols != 2 or b.rows != x.m or b.cols != x.m:
        raise DimensionMismatch("action needs a 2x2 and an m x m matrix")
    if not a.is_invertible() or not b.is_invertible():
        raise Singular("group action requires invertible matrices")
    return Tensor(grid_mul(grid_mul(GridMatrix(tuple(zip(*a.entries)), a.p), x.coords), b))


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


# ---------------------------------------------------------------------------
# the product group and its suborbits, one tensor at a time


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
    """A pair (A, B) acting as the product map, up to (A,B) ~ (kA, k^-1 B):
    A a 2 x 2 ``Matrix`` (or GridMatrix), B a square GridMatrix."""

    a: Matrix | GridMatrix
    b: GridMatrix

    def __post_init__(self):
        a, b = grid(self.a), grid(self.b)
        if a.p != b.p:
            raise DimensionMismatch("mixed moduli")
        if a.rows != 2 or a.cols != 2:
            raise DimensionMismatch("first factor must be 2x2")
        if b.rows != b.cols:
            raise DimensionMismatch("second factor must be square")

    @property
    def p(self) -> int:
        return self.a.p

    def canonical(self) -> tuple:
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


def suborbit_elements(label, m: int, p: int) -> frozenset[Tensor]:
    """The full element set of a suborbit, as Tensors (desk scale only)."""
    num_vertices(m, p)  # the vertex gate, before any Tensor is made
    return frozenset(
        Tensor.from_index(int(i), m, p) for i in suborbit_indices(label, m, p)
    )


def complete_basis(rows, m: int, p: int) -> GridMatrix:
    """Extend independent row vectors to an invertible m x m matrix."""
    chosen = [tuple(r) for r in rows]
    for j in range(m):
        cand = tuple(int(i == j) for i in range(m))
        trial = GridMatrix(tuple(chosen) + (cand,), p)
        if mat_rank(trial) == len(chosen) + 1:
            chosen.append(cand)
        if len(chosen) == m:
            break
    basis = GridMatrix(tuple(chosen), p)
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
    ident = GridMatrix.identity(m, p)
    if x.is_zero():
        return LinPart(Matrix.identity(p), ident)
    if x.rank() == 2:
        r = complete_basis([x.row1, x.row2], m, p)
        s = complete_basis([y.row1, y.row2], m, p)
        lin = LinPart(Matrix.identity(p), grid_mul(grid_inv(r), s))
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
        lin = LinPart(d, grid_mul(grid_inv(r), s))
        if lin.apply(x) == y:
            return lin
    return None


# ---------------------------------------------------------------------------
# projections and parallel cliques, one tensor at a time


@dataclass(frozen=True)
class CliqueId:
    """Parallel class index i plus any member vertex of the clique."""

    i: int
    rep: int


def pi_projection(x: Tensor, i: int, cfg: MuConfig) -> tuple[int, ...]:
    """The W-part of x attached to direction mu_i."""
    if (x.m, x.p) != (cfg.m, cfg.p):
        raise DegenerateConfig("tensor and configuration disagree")
    alpha, beta = pi_functional(cfg, i)
    p = cfg.p
    return tuple((alpha * a + beta * b) % p for a, b in zip(x.row1, x.row2))


def tensor_from_projections(
    i: int, j: int, w, wq, cfg: MuConfig
) -> Tensor:
    """The unique x with pi_i(x) = w and pi_j(x) = wq.

    Built through the coefficient relations back to the first pair, as in
    the uniqueness argument.
    """
    k1, k1q = projection_coeffs(i, j, 1, cfg)
    k2, k2q = projection_coeffs(i, j, 2, cfg)
    p = cfg.p
    pi1 = tuple((k1 * a + k1q * b) % p for a, b in zip(w, wq))
    pi2 = tuple((k2 * a + k2q * b) % p for a, b in zip(w, wq))
    mu1, mu2 = cfg.mu(1), cfg.mu(2)
    r1 = tuple((a + b) % p for a, b in zip(pi1, pi2))
    r2 = tuple((mu1 * a + mu2 * b) % p for a, b in zip(pi1, pi2))
    return Tensor.from_rows(r1, r2, p)


def ell_clique(clique: CliqueId, cfg: MuConfig) -> frozenset[int]:
    """All vertices sharing the i-th projection with the representative.

    That is the coset rep + ker pi_i = rep + W E_i', with i' the partner of i
    (see ``verify_clique_axioms``).
    """
    n = num_vertices(cfg.m, cfg.p)
    if not 0 <= clique.rep < n:
        raise IndexOutOfRange(f"representative {clique.rep} outside 0..{n - 1}")
    rep = Tensor.from_index(clique.rep, cfg.m, cfg.p).coords.array
    coset = rep + direction_block_coords(cfg, cfg.partner(clique.i))
    return frozenset(encode_array(coset, cfg.p).tolist())


def direction_block_coords(cfg: MuConfig, i: int) -> np.ndarray:
    """The direction block (e1 + mu_i e2) (x) W: the digit rows [w | mu_i w]
    as (p^m, 2, m) coordinates, unreduced, for w in W in index order (0
    first, then e_1)."""
    p, m = cfg.p, cfg.m
    w = np.arange(p**m)[:, None] // p ** np.arange(m) % p
    return np.stack([w, cfg.mu(i) * w], axis=1)


def delta_indices_coords(cfg: MuConfig) -> np.ndarray:
    """The reference for ``orbicert.certify.delta_indices``: every block
    built as coordinates and encoded in int64."""
    blocks = [encode_array(direction_block_coords(cfg, i)[1:], cfg.p) for i in cfg.index_set]
    return np.sort(np.concatenate(blocks))


def delta_connection_set(cfg: MuConfig) -> ConnectionSet:
    """S: the union of the z direction blocks minus 0, as a connection set."""
    return ConnectionSet(delta_indices(cfg), cfg.m, cfg.p)


# ---------------------------------------------------------------------------
# the clique and Hamming identities as 2m x 2m matrices
#
# ``verify_clique_axioms`` and ``hamming_check`` test each identity on the
# 2 x 2, 2 x 1 or 1 x 2 factor X of a Kronecker product X (x) I_m.  These
# oracles test the products themselves, in int64, reading the factors
# through the package's module attributes, so a patched factor reaches
# both.


def direction_matrix(v, m: int) -> np.ndarray:
    """(v0, v1) (x) I_m = [v0 I | v1 I], the m x 2m matrix whose row w is the
    row-major digit row of the simple tensor (v0 e1 + v1 e2) (x) w."""
    return np.kron([[int(v[0]), int(v[1])]], np.eye(m, dtype=np.int64))


def pi_matrix(cfg: MuConfig, i: int) -> np.ndarray:
    """Pi_i = (alpha, beta)^T (x) I_m for the ``pi_functional`` (alpha, beta):
    the 2m x m matrix with pi_i(x) = x Pi_i on row-major digit rows."""
    return direction_matrix(cliques.pi_functional(cfg, i), cfg.m).T


def clique_identities_2m(cfg: MuConfig) -> tuple[str, dict] | None:
    """(stage, counterexample) of the first identity of
    ``verify_clique_axioms`` that fails as a 2m-row matrix identity, in the
    verifier's order, or None.

    A bad row names the vertex whose digit row it is: p^k for row k of a
    2m x 2m identity, and row k of E_i' for the kernel E_i' Pi_i = 0.
    """
    p, m, z = cfg.p, cfg.m, cfg.z
    pis = {i: pi_matrix(cfg, i) for i in cfg.index_set}
    eye = np.eye(2 * m, dtype=np.int64)

    def failure(stage, diff, rows, **where):
        bad = (diff % p != 0).any(axis=1)
        if bad.any():
            return stage, {**where, "vertex": encode_coords(rows[bad.argmax()].tolist(), p)}
        return None

    def reconstruct(i):
        rebuilt = sum(pis[k] @ direction_matrix((1, cfg.mu(k)), m) for k in (i, i + 1))
        return failure("reconstruction", rebuilt - eye, eye, pair=(i, i + 1))

    def relations():
        for i, j in permutations(cfg.index_set, 2):
            for k in cfg.index_set:
                k1, k2 = cliques.projection_coeffs(i, j, k, cfg)
                where = {"triple": (i, j, k)}
                if k not in (i, j) and (k1 == 0 or k2 == 0):
                    return "projection-relations-nonzero", {**where, "coeffs": (k1, k2)}
                diff = pis[k] - k1 * pis[i] - k2 * pis[j]
                bad = failure("projection-relations", diff, eye, **where)
                if bad:
                    return bad
        return None

    def kernels():
        for i in cfg.index_set:
            e = direction_matrix((1, cfg.mu(cfg.partner(i))), m)
            bad = failure("adjacency-shared-projection", e @ pis[i], e, kernel=i)
            if bad:
                return bad
        return None

    others = map(reconstruct, range(3, z + 1, 2))
    return reconstruct(1) or relations() or next(filter(None, others), None) or kernels()


def hamming_check_2m(s: ConnectionSet, d1, d2) -> bool:
    """``hamming_check`` on the 2m x 2m matrices G, the direction matrices of
    the rows v1, v2 of the splitting factor g, and H = h (x) I_m; raises
    BadDecomposition where it does."""
    m, p = s.m, s.p
    g, h = digraphs._splitting(d1, d2, p)
    big_g = np.vstack([direction_matrix(v, m) for v in g.entries])
    big_h = np.kron(grid(h).array, np.eye(m, dtype=np.int64))
    if ((big_h @ big_g - np.eye(2 * m, dtype=np.int64)) % p).any():
        return False
    nonzero = (big_h.T @ s.digits() % p).reshape(2, m, len(s)).any(axis=1)
    if not (nonzero[0] ^ nonzero[1]).all() or len(s) != 2 * (p**m - 1):
        raise BadDecomposition("S is not the union of the two direction blocks")
    return True


def hamming_witness_coords(d1: int, d2: int, m: int, p: int) -> np.ndarray:
    """The reference for the mapping of ``orbicert.digraphs.hamming_witness``:
    the moved vertices c v1 (x) f_1 + v2 (x) b, c in {1, 2}, built as
    (p^m, 2, m) coordinates from the rows v1, v2 of the splitting factor and
    encoded in int64."""
    g, _ = digraphs._splitting(d1, d2, p)
    v1, v2 = np.array(g.entries)[:, :, None]
    w = np.arange(p**m)[:, None] // p ** np.arange(m) % p
    side = v2 * w[:, None]  # v2 (x) b as (p^m, 2, m) coordinates, b in index order
    f1 = v1 * (np.arange(m) == 0)  # v1 (x) f_1
    one, two = (encode_array(side + c * f1, p) for c in (1, 2))
    mapping = np.arange(num_vertices(m, p))
    mapping[one], mapping[two] = two, one
    return mapping


# ---------------------------------------------------------------------------
# cross-ratio closed forms


KLEIN_FOUR = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))


def _det(u, v, p: int) -> int:
    return (u[0] * v[1] - u[1] * v[0]) % p


def cross_ratio(quad, p: int) -> int:
    """Cross-ratio of four pairwise-distinct point codes, as a point code.

    Evaluates det(A,C) det(B,D) / (det(B,C) det(A,D)) on homogeneous lifts,
    one quadruple at a time: the reference for
    ``orbicert.crossratio.verify_table1``.
    """
    a, b, c, d = (homogeneous(k, p) for k in quad)
    pts = (a, b, c, d)
    for u, v in combinations(pts, 2):
        if _det(u, v, p) == 0:
            raise DegenerateQuad(f"parameters not pairwise distinct: {quad}")
    num = _det(a, c, p) * _det(b, d, p) % p
    den = _det(b, c, p) * _det(a, d, p) % p
    if den == 0:
        return p
    return num * fp_inv(den, p) % p


def apply_formula(row: str, r: int, p: int) -> int:
    """Evaluate one of the six classical transforms of r (r not 0, 1, inf)."""
    if r in (0, 1, p):
        raise DegenerateQuad("transform table applies to r outside {0, 1, inf}")
    if row == "r":
        return r
    if row == "r/(r-1)":
        return r * fp_inv(r - 1, p) % p
    if row == "1-r":
        return (1 - r) % p
    if row == "1/r":
        return fp_inv(r, p)
    if row == "1/(1-r)":
        return fp_inv(1 - r, p)
    if row == "(r-1)/r":
        return (r - 1) * fp_inv(r, p) % p
    raise ValueError(f"unknown formula {row!r}")


def permuted_cross_ratio(sigma, r, p: int):
    """Cross-ratio after renaming the four points by sigma (image tuple)."""
    sigma = tuple(sigma)
    if sigma not in PERMUTATION_ROWS:
        raise ValueError(f"not a permutation of 4 labels: {sigma}")
    return apply_formula(PERMUTATION_ROWS[sigma], r, p)


def klein_four_classifier(sigma) -> bool:
    """True iff sigma is the identity or a double transposition."""
    return tuple(sigma) in KLEIN_FOUR


def lambda_quad_cross_ratio(lam: int, p: int):
    """Closed form (lam^2-1)^2 / (lam^2+1)^2 for the direction quadruple."""
    lam %= p
    num = (lam * lam - 1) ** 2 % p
    den = (lam * lam + 1) ** 2 % p
    if den == 0:
        return p
    return num * fp_inv(den, p) % p


# ---------------------------------------------------------------------------
# GL(2,p) stabilizers and the obstruction residues


def realized(ds: DirectionSet) -> frozenset[tuple[int, int]]:
    """Union of the one-spaces of a direction set, minus zero."""
    p = ds.p
    out = set()
    for d in ds.codes:
        v = homogeneous(d, p)
        for k in range(1, p):
            out.add(((k * v[0]) % p, (k * v[1]) % p))
    return frozenset(out)


def setwise_stabilizer_gl2(ds: DirectionSet) -> list[Matrix]:
    """All A in GL(2,p) mapping the realized vector set onto itself.

    The realized set is a union of one-spaces, so A stabilizes it iff its
    class permutes the directions; every stabilizer therefore holds the
    p-1 scalar multiples of each of its classes.
    """
    return _gl_lift(pgl2_stabilizer(ds.codes, ds.p), ds.p)


def lambda_obstructions(lam: int, p: int) -> set[int]:
    """Residues mod p of the obstruction polynomials at lam.

    Requires lam^4 outside {0, 1} mod p (otherwise the direction quadruple
    is degenerate and the rigidity dichotomy does not apply).
    """
    if pow(lam % p, 4, p) in (0, 1):
        raise DegenerateLambda(f"lambda^4 in {{0,1}} mod {p} for lambda={lam}")
    return {v % p for v in obstruction_polynomials(lam)}


# ---------------------------------------------------------------------------
# arcs and vertex permutations, one vertex at a time


def difference_index(x: int, y: int, m: int, p: int) -> int:
    """Vertex index of x - y; raises IndexOutOfRange outside the vertices."""
    n = num_vertices(m, p)
    (u1, u2), (v1, v2) = decode_index(_vertex(x, n), m, p), decode_index(_vertex(y, n), m, p)
    return encode_coords([a - b for a, b in zip(u1 + u2, v1 + v2)], p)


def is_arc(x: int, y: int, s: ConnectionSet) -> bool:
    """Arc test: x - y in S."""
    return difference_index(x, y, s.m, s.p) in s


def permutation_from_linear(lin, m: int, p: int) -> VertexPermutation:
    """The vertex permutation of the product action of a LinPart or (a, b)."""
    a, b = (lin.a, lin.b) if isinstance(lin, LinPart) else lin
    return VertexPermutation(kron_image(digit_planes(m, p), a, b, p), m, p)
