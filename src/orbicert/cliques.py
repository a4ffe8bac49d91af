"""Projection coordinates, parallel cliques, and the clique census.

For distinct slopes mu_1 .. mu_z (z in {4, 6}, consumed in odd/even pairs)
each odd pair splits the tensor space as a direct sum of two direction
blocks, and every vertex x has unique W-parts pi_i(x) with

    x = (e1 + mu_i e2) (x) pi_i(x) + (e1 + mu_{i+1} e2) (x) pi_{i+1}(x).

The level sets ell_i(x) = {y : pi_i(y) = pi_i(x)} are the maximum cliques
of the Cayley graph on the union S of the z direction blocks.
``verify_clique_axioms`` checks that geometry exactly at every prime, by
linearity and translation, with no sampling.  Each check's
``instances_checked`` counts what it certifies, n = p^(2m) vertices:

    reconstruction                    n z/2        vertex, pair (i, i+1)
    projection_relations              n z(z-1) z   vertex, triple (i, j, k)
    projection_linearity              n^2 + p n    sum x + y, multiple k x
    two_projections_determine         n C(z,2)     vertex, pair i < j
    clique_intersection               p^2m C(z,2)  ell_i- and ell_j-clique
    parallel_partition                z n          vertex, class i
    adjacency_iff_shared_projection   n^2          vertex pair (x, y)
    cliques_are_cliques, clique_census  z n / p^m  ell-clique

The first three follow from additivity on generators plus the basis, the
next three from one bincount per pair, and the last three from the checks
at 0 by translation (see ``verify_clique_axioms``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from .digraphs import ConnectionSet, _translated
from .errors import DegenerateConfig, IndexOutOfRange, LemmaViolation
from .fields import fp_inv
from .matrices import Tensor, all_coords, encode_array, num_vertices

DEFAULT_SEED = 1729


@dataclass(frozen=True)
class MuConfig:
    """z distinct slopes over GF(p), consumed in pairs (1,2), (3,4), (5,6)."""

    z: int
    mus: tuple[int, ...]
    m: int
    p: int

    def __post_init__(self):
        if self.z not in (4, 6):
            raise DegenerateConfig(f"z must be 4 or 6, got {self.z}")
        if len(self.mus) != self.z:
            raise DegenerateConfig("need exactly z slopes")
        mus = tuple(v % self.p for v in self.mus)
        if len(set(mus)) != self.z:
            raise DegenerateConfig(f"slopes must be distinct mod {self.p}: {mus}")
        object.__setattr__(self, "mus", mus)

    @property
    def index_set(self) -> range:
        return range(1, self.z + 1)

    def partner(self, i: int) -> int:
        """Pair partner: 1<->2, 3<->4, 5<->6."""
        self._check_index(i)
        return i + 1 if i % 2 == 1 else i - 1

    def mu(self, i: int) -> int:
        self._check_index(i)
        return self.mus[i - 1]

    def _check_index(self, i: int):
        if i not in self.index_set:
            raise IndexOutOfRange(f"index {i} outside 1..{self.z}")


@dataclass(frozen=True)
class CliqueId:
    """Parallel class index i plus any member vertex of the clique."""

    i: int
    rep: int


def pi_functional(cfg: MuConfig, i: int) -> tuple[int, int]:
    """Row coefficients (alpha, beta) with pi_i(x) = alpha*r1 + beta*r2.

    Solving a + b = r1, mu_i a + mu_i' b = r2 inside the pair (i, i')
    gives pi_i = (mu_i' r1 - r2) / (mu_i' - mu_i).
    """
    j = cfg.partner(i)
    mi, mj = cfg.mu(i), cfg.mu(j)
    dinv = fp_inv((mj - mi) % cfg.p, cfg.p)
    return mj * dinv % cfg.p, (-dinv) % cfg.p


def pi_projection(x: Tensor, i: int, cfg: MuConfig) -> tuple[int, ...]:
    """The W-part of x attached to direction mu_i."""
    if (x.m, x.p) != (cfg.m, cfg.p):
        raise DegenerateConfig("tensor and configuration disagree")
    alpha, beta = pi_functional(cfg, i)
    p = cfg.p
    return tuple((alpha * a + beta * b) % p for a, b in zip(x.row1, x.row2))


def projection_coeffs(i: int, j: int, k: int, cfg: MuConfig) -> tuple[int, int]:
    """Coefficients with pi_k = k1 pi_i + k2 pi_j identically.

    The functionals of distinct indices are independent, so the 2x2 solve
    is always possible; when i, j, k are pairwise distinct both
    coefficients are nonzero.
    """
    if i == j:
        raise DegenerateConfig("need two distinct source indices")
    if k == i:
        return 1, 0
    if k == j:
        return 0, 1
    ai, bi = pi_functional(cfg, i)
    aj, bj = pi_functional(cfg, j)
    ak, bk = pi_functional(cfg, k)
    p = cfg.p
    det = (ai * bj - aj * bi) % p
    dinv = fp_inv(det, p)
    k1 = (ak * bj - aj * bk) * dinv % p
    k2 = (ai * bk - ak * bi) * dinv % p
    return k1, k2


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


@lru_cache(maxsize=16)
def _pi_tables(cfg: MuConfig) -> tuple[np.ndarray, np.ndarray]:
    """(vectors, codes): pi values of every vertex for every index.

    vectors has shape (n, z, m); codes has shape (n, z) with the W-part
    encoded in radix p.
    """
    coords = all_coords(cfg.m, cfg.p)
    r1, r2 = coords[:, 0, :], coords[:, 1, :]
    radix = cfg.p ** np.arange(cfg.m, dtype=np.int64)
    vecs = np.empty((coords.shape[0], cfg.z, cfg.m), dtype=np.int64)
    for i in cfg.index_set:
        alpha, beta = pi_functional(cfg, i)
        vecs[:, i - 1, :] = (alpha * r1 + beta * r2) % cfg.p
    codes = vecs @ radix
    vecs.flags.writeable = False
    codes.flags.writeable = False
    return vecs, codes


def delta_indices(cfg: MuConfig) -> np.ndarray:
    """Vertices of the union of the z direction blocks, minus 0.

    These are exactly the nonzero vertices with some vanishing projection:
    x = (e1 + mu_i e2) (x) w iff the partner projection is 0.
    """
    _, codes = _pi_tables(cfg)
    members = np.nonzero((codes == 0).any(axis=1))[0]
    return members[members != 0]


def delta_connection_set(cfg: MuConfig) -> ConnectionSet:
    return ConnectionSet(delta_indices(cfg), cfg.m, cfg.p)


def ell_clique(clique: CliqueId, cfg: MuConfig) -> frozenset[int]:
    """All vertices sharing the i-th projection with the representative.

    That is the coset rep + <e1 + mu_i' e2> (x) W, with i' the partner of i.
    """
    p, m = cfg.p, cfg.m
    w = all_coords(m, p)[: p**m, 0]  # the vertices below p^m are W x 0
    rep = all_coords(m, p)[int(clique.rep)]
    rows = [(rep[0] + w) % p, (rep[1] + cfg.mu(cfg.partner(clique.i)) * w) % p]
    return frozenset(encode_array(np.stack(rows, axis=1), p).tolist())


def cliques_through_zero(s: ConnectionSet, target: int) -> list[frozenset[int]]:
    """Every maximal clique of Cay(T, S) through 0 with >= target vertices.

    Such a clique is 0 plus a maximal clique of the graph induced on S, the
    neighbourhood of 0, so the pivoting branch-and-bound of Tomita, Tanaka
    and Takahashi (TCS 363, 2006) runs over |S|-bit adjacency bitsets and
    abandons a branch once |R| + |P| drops below the target.
    """
    members = s.members
    coords = all_coords(s.m, s.p)[members]
    adj: list[int] = []
    for lo in range(0, members.size, 128):
        diffs = encode_array((coords[None, :] - coords[lo : lo + 128, None]) % s.p, s.p)
        rows = np.packbits(s.mask[diffs], axis=1, bitorder="little")
        adj.extend(int.from_bytes(row.tobytes(), "little") for row in rows)

    found: list[frozenset[int]] = []
    need = target - 1  # vertices of S besides 0

    def expand(r: tuple[int, ...], p_bits: int, x_bits: int):
        if len(r) + p_bits.bit_count() < need:
            return
        if p_bits == 0 and x_bits == 0:
            found.append(frozenset([0, *(int(members[v]) for v in r)]))
            return
        # pivot on the candidate covering most of P
        best, best_cover = -1, -1
        probe = p_bits | x_bits
        while probe:
            u = (probe & -probe).bit_length() - 1
            cover = (p_bits & adj[u]).bit_count()
            if cover > best_cover:
                best, best_cover = u, cover
            probe &= probe - 1
        branch = p_bits & ~adj[best]
        while branch:
            v = (branch & -branch).bit_length() - 1
            yield r + (v,), p_bits & adj[v], x_bits & adj[v]
            p_bits &= ~(1 << v)
            x_bits |= 1 << v
            branch &= branch - 1
            if len(r) + p_bits.bit_count() < need:
                return

    # each call yields its subcalls to this loop, so a clique of p^m
    # vertices does not nest p^m Python frames (the limit is 1000)
    calls = [expand((), (1 << members.size) - 1, 0)]
    while calls:
        sub = next(calls[-1], None)
        if sub is None:
            calls.pop()
        else:
            calls.append(expand(*sub))
    return found


def verify_clique_axioms(cfg: MuConfig, seed: int = DEFAULT_SEED) -> dict:
    """Check the projection/clique geometry exactly; ``seed`` is only echoed.

    Additivity is checked on generators: pi(x + e_k) = pi(x) + pi(e_k) for
    every x and each of the 2m basis vectors e_k.  By induction on
    y = sum c_k e_k that gives pi(x + y) = pi(x) + pi(y) for all n^2 pairs,
    and over F_p it gives pi(kx) = k pi(x) too.  A linear identity that
    holds on the basis holds everywhere, so reconstruction and the
    projection relations are then checked on the basis only.

    Translation by -x is an automorphism of Cay(T, S) that maps
    ell-cliques to ell-cliques, so the remaining claims are checked at 0:
    adjacency iff a shared projection is the difference set S + 0 against
    the vertices with a vanishing projection; the ell-cliques through 0 are
    the kernels of the pi_i; and the census of maximal cliques of size
    >= p^m is the census through 0, which must find exactly those z
    kernels.  The module docstring lists what each ``instances_checked``
    counts.

    Returns a certificate payload; raises LemmaViolation, naming the stage
    and a vertex, pair or clique, on any failure.
    """
    p, m, z = cfg.p, cfg.m, cfg.z
    if p <= z:
        raise DegenerateConfig(f"rigidity geometry needs p > z, got p={p}, z={z}")
    n = num_vertices(m, p)
    qm = p**m
    vecs, codes = _pi_tables(cfg)
    s = delta_connection_set(cfg)
    basis = p ** np.arange(2 * m, dtype=np.int64)  # vertex index of e_k
    checks: dict[str, dict] = {}

    def record(name: str, instances: int, **extra):
        checks[name] = {
            "mode": "exhaustive",
            "instances_checked": int(instances),
            "status": "pass",
            **extra,
        }

    # --- additivity on generators, as one roll of the digit grid per e_k
    planes = vecs.reshape(n, z * m).T.reshape((z * m,) + (p,) * (2 * m))
    for t in basis:
        step = vecs[t].reshape((z * m,) + (1,) * (2 * m))
        bad = _translated(planes, t, m, p) != (planes + step) % p
        bad = bad.reshape(z * m, n).any(axis=0)
        if bad.any():
            raise LemmaViolation("projection-additive", {"x": int(bad.argmax()), "y": int(t)})
    # by induction: additive on all n^2 pairs, so pi(kx) = k pi(x) for all p n
    record("projection_linearity", n * n + p * n)

    # --- linear identities on the basis
    on_basis, basis_coords = vecs[basis], all_coords(m, p)[basis]
    for i in range(1, z + 1, 2):
        j = i + 1
        a, b = on_basis[:, i - 1], on_basis[:, j - 1]
        rebuilt = np.stack([(a + b) % p, (cfg.mu(i) * a + cfg.mu(j) * b) % p], axis=1)
        bad = (rebuilt != basis_coords).any(axis=(1, 2))
        if bad.any():
            raise LemmaViolation(
                "reconstruction", {"pair": (i, j), "vertex": int(basis[bad.argmax()])}
            )
    record("reconstruction", n * (z // 2))

    for i, j in permutations(cfg.index_set, 2):
        for k in cfg.index_set:
            k1, k2 = projection_coeffs(i, j, k, cfg)
            if k not in (i, j) and (k1 == 0 or k2 == 0):
                raise LemmaViolation(
                    "projection-relations-nonzero", {"triple": (i, j, k), "coeffs": (k1, k2)}
                )
            rhs = (k1 * on_basis[:, i - 1] + k2 * on_basis[:, j - 1]) % p
            bad = (on_basis[:, k - 1] != rhs).any(axis=1)
            if bad.any():
                raise LemmaViolation(
                    "projection-relations",
                    {"triple": (i, j, k), "vertex": int(basis[bad.argmax()])},
                )
    record("projection_relations", n * z * (z - 1) * z)

    # --- (pi_i, pi_j) is a bijection onto W x W: one bincount per pair.
    # Its fibres are the intersections of the ell_i- and ell_j-cliques, and
    # the fibres of pi_i alone then have p^m vertices each.
    for i, j in combinations(cfg.index_set, 2):
        pair_code = codes[:, i - 1] * qm + codes[:, j - 1]
        counts = np.bincount(pair_code, minlength=qm * qm)
        if (counts != 1).any():  # n = qm^2 codes, so one is shared
            x, y = np.flatnonzero(pair_code == counts.argmax())[:2]
            raise LemmaViolation(
                "two-projections-determine", {"pair": (i, j), "x": int(x), "y": int(y)}
            )
    record("two_projections_determine", n * z * (z - 1) // 2)
    record("clique_intersection", qm * qm * z * (z - 1) // 2)
    record("parallel_partition", z * n)

    # --- at 0: x - y is in S iff some pi_i(x - y) = pi_i(x) - pi_i(y) is 0
    joined = s.mask.copy()
    joined[0] = True
    bad = joined != (codes == 0).any(axis=1)
    if bad.any():
        raise LemmaViolation("adjacency-shared-projection", {"x": int(bad.argmax()), "y": 0})
    record("adjacency_iff_shared_projection", n * n)

    # the ell-cliques through 0 are the kernels of the pi_i: p^m vertices
    # each by the bijection, and inside S + 0 by the adjacency check
    kernels = [frozenset(np.flatnonzero(codes[:, i - 1] == 0).tolist()) for i in cfg.index_set]
    record("cliques_are_cliques", z * qm)

    found = cliques_through_zero(s, qm)
    not_ell = [sorted(c) for c in found if c not in kernels]
    missing = [CliqueId(i, 0) for i, k in zip(cfg.index_set, kernels) if k not in found]
    if not_ell or missing:
        raise LemmaViolation(
            "clique-census",
            {"found": len(found), "not_ell": not_ell[:1], "missing": missing[:1]},
        )
    record("clique_census", z * qm, maximum_cliques=z * qm, clique_size=qm)

    return {
        "config": {"z": z, "mus": list(cfg.mus), "m": m, "p": p},
        "mode": "exhaustive",
        "seed": int(seed),
        "vertices": int(n),
        "connection_set_size": len(s),
        "checks": checks,
    }
