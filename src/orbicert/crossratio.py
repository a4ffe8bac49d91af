"""Cross-ratio arithmetic on the projective line over GF(p).

A point of the line is its code 0 .. p: the slope t is t, and infinity is
p.  Rather than case-splitting the informal limit conventions, each code is
lifted to a homogeneous pair by ``matrices.homogeneous`` ((1, t) for the
slope t, (0, 1) for infinity) and the cross-ratio is a ratio of 2x2
determinants; a vanishing denominator then *is* infinity.  Reports and
error messages write infinity as ``"inf"`` (``point_name``).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidConfig, LemmaViolation, ParameterTooLarge, TableViolation
from .fields import MAX_PRIME, fp_inv
from .matrices import Matrix, homogeneous, point_of

# the six classical values as formula codes
_FORMULAS = ("r", "r/(r-1)", "1-r", "1/r", "1/(1-r)", "(r-1)/r")

# permutations of (P, Q, R, S) as image tuples, grouped by formula;
# e.g. (1, 0, 2, 3) swaps P and Q.
PERMUTATION_ROWS: dict[tuple[int, int, int, int], str] = {}
for _sigma, _row in [
    ((0, 1, 2, 3), "r"),
    ((1, 0, 3, 2), "r"),
    ((2, 3, 0, 1), "r"),
    ((3, 2, 1, 0), "r"),
    ((2, 1, 0, 3), "r/(r-1)"),
    ((0, 3, 2, 1), "r/(r-1)"),
    ((1, 2, 3, 0), "r/(r-1)"),
    ((3, 0, 1, 2), "r/(r-1)"),
    ((3, 1, 2, 0), "1-r"),
    ((0, 2, 1, 3), "1-r"),
    ((1, 3, 0, 2), "1-r"),
    ((2, 0, 3, 1), "1-r"),
    ((1, 0, 2, 3), "1/r"),
    ((0, 1, 3, 2), "1/r"),
    ((2, 3, 1, 0), "1/r"),
    ((3, 2, 0, 1), "1/r"),
    ((1, 3, 2, 0), "1/(1-r)"),
    ((2, 0, 1, 3), "1/(1-r)"),
    ((3, 1, 0, 2), "1/(1-r)"),
    ((0, 2, 3, 1), "1/(1-r)"),
    ((1, 2, 0, 3), "(r-1)/r"),
    ((2, 1, 3, 0), "(r-1)/r"),
    ((3, 0, 2, 1), "(r-1)/r"),
    ((0, 3, 1, 2), "(r-1)/r"),
]:
    PERMUTATION_ROWS[_sigma] = _row


def point_name(k: int, p: int):
    """Point code k as reports and error messages write it: the slope k, or
    ``"inf"`` for p."""
    return "inf" if k == p else int(k)


def permute_quad(sigma, quad):
    """The tuple (P^sigma, Q^sigma, R^sigma, S^sigma)."""
    return tuple(quad[sigma[i]] for i in range(4))


def fractional_action(mat: Matrix, k: int, p: int) -> int:
    """Code of the image of point code k under an invertible 2x2 matrix."""
    x = homogeneous(k, p)
    return point_of(x[0] * mat[0, 0] + x[1] * mat[1, 0], x[0] * mat[0, 1] + x[1] * mat[1, 1], p)


def verify_table1(p: int) -> dict:
    """Check the permutation table on every ordered pairwise-distinct
    quadruple of the p+1 points of the line, codes 0 .. p.

    The check runs on the p-2 frames (inf, 0, 1, x), x = 2 .. p-1 (codes
    (p, 0, 1, x)), and that covers every quadruple.  For g in GL(2, p),
    det(u g, v g) = det(g) det(u, v), and each point occurs once above and
    once below the fraction, so the cross-ratio is g-invariant; so is each
    permuted one, since renaming the points by sigma commutes with moving
    them all by g.  PGL(2, p) is sharply 3-transitive on the line, so every
    quadruple is the image of exactly one frame.  On the frames, both
    evaluation routes (direct recomputation versus the formula of the row)
    must agree for all 24 permutations.  The line and the inverse table are
    O(p); p above ``MAX_PRIME`` is refused before either is built.
    """
    if p < 5:
        raise InvalidConfig(f"the table needs at least 6 points on the line, p={p}")
    if p > MAX_PRIME:
        raise ParameterTooLarge(f"table at p = {p} refused (limit p <= {MAX_PRIME})")
    line = np.array([homogeneous(k, p) for k in range(p + 1)], dtype=np.int64)
    quads = np.array([(p, 0, 1, x) for x in range(2, p)], dtype=np.int64)
    inv = np.array([0] + [fp_inv(v, p) for v in range(1, p)], dtype=np.int64)

    def det(i, j, q):
        u, v = line[q[:, i]], line[q[:, j]]
        return (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]) % p

    def named(codes):
        return tuple(point_name(k, p) for k in codes)

    def cr(q):
        den = det(1, 2, q) * det(0, 3, q) % p
        if not den.all():  # a frame with two equal points
            raise LemmaViolation("table1-distinct-points", {"quad": named(q[den.argmin()])})
        return det(0, 2, q) * det(1, 3, q) % p * inv[den] % p

    r = cr(quads)
    degenerate = np.isin(r, [0, 1])
    if degenerate.any():
        i = degenerate.argmax()
        quad = named(quads[i])
        raise LemmaViolation("table1-cross-ratio", {"quad": quad, "cross_ratio": int(r[i])})
    formulas = {
        "r": r,
        "r/(r-1)": r * inv[(r - 1) % p] % p,
        "1-r": (1 - r) % p,
        "1/r": inv[r],
        "1/(1-r)": inv[(1 - r) % p],
        "(r-1)/r": (r - 1) % p * inv[r] % p,
    }
    for sigma, row in PERMUTATION_ROWS.items():
        direct = cr(quads[:, list(sigma)])
        bad = np.nonzero(direct != formulas[row])[0]
        if bad.size:
            i = bad[0]
            raise TableViolation(sigma, named(quads[i]), int(formulas[row][i]), int(direct[i]))
    return {
        "p": p,
        "quads_checked": (p + 1) * p * (p - 1) * (p - 2),
        "permutations": 24,
        "status": "pass",
    }


def lambda_quad(lam: int, p: int) -> tuple[int, int, int, int]:
    """The direction quadruple (lam, -lam, lam^-1, -lam^-1)."""
    lam %= p
    li = fp_inv(lam, p)
    return (lam, (-lam) % p, li, (-li) % p)


# the four double-transposition collineations: sigma -> dihedral matrix
def v4_collineations(p: int) -> dict[tuple[int, int, int, int], Matrix]:
    return {
        (0, 1, 2, 3): Matrix.identity(p),
        (1, 0, 3, 2): Matrix(((1, 0), (0, -1)), p),
        (2, 3, 0, 1): Matrix(((0, 1), (1, 0)), p),
        (3, 2, 1, 0): Matrix(((0, -1), (1, 0)), p),
    }


def check_v4_collineations(p: int) -> dict:
    """Each listed matrix induces its double transposition on every
    nondegenerate direction quadruple (lam, -lam, lam^-1, -lam^-1).

    The quadruple is degenerate iff lam^4 = 1, and every lam^4 is 1 at
    p = 3 and 5, which are refused; at p >= 7 at most 4 of the p - 1 >= 6
    slopes are degenerate.  The loop over the slopes is O(p); p above
    ``MAX_PRIME`` is refused before it starts.
    """
    from .groups import d8_elements

    if p < 7:
        raise InvalidConfig(f"every direction quadruple is degenerate at p={p}: lam^4 = 1")
    if p > MAX_PRIME:
        raise ParameterTooLarge(f"table at p = {p} refused (limit p <= {MAX_PRIME})")

    table = v4_collineations(p)
    d8 = set(d8_elements(p))
    for sigma, mat in table.items():
        if mat not in d8:
            raise LemmaViolation("table3-dihedral", {"sigma": sigma, "matrix": mat})
    checked = 0
    for lam in range(1, p):
        if pow(lam, 4, p) in (0, 1):  # degenerate quadruple
            continue
        quad = lambda_quad(lam, p)
        for sigma, mat in table.items():
            images = tuple(fractional_action(mat, t, p) for t in quad)
            if images != permute_quad(sigma, quad):
                raise TableViolation(sigma, quad, permute_quad(sigma, quad), images)
            checked += 1
    return {"p": p, "instances_checked": checked, "status": "pass"}
