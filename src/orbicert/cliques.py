"""Projection coordinates, parallel cliques, and the clique census.

For distinct slopes mu_1 .. mu_z (z in {4, 6}, consumed in odd/even pairs)
each odd pair splits the tensor space as a direct sum of two direction
blocks, and every vertex x has unique W-parts pi_i(x) with

    x = (e1 + mu_i e2) (x) pi_i(x) + (e1 + mu_{i+1} e2) (x) pi_{i+1}(x).

The level sets ell_i(x) = {y : pi_i(y) = pi_i(x)} are the maximum cliques
of the Cayley graph on the union S of the z direction blocks.  On
row-major digit rows pi_i is the 2m x m matrix Pi_i = P_i (x) I_m over
F_p, with P_i = (alpha_i, beta_i)^T from ``pi_functional``, and the block
of mu_i is the row space of E_i = (1, mu_i) (x) I_m.  As
(X (x) I_m)(Y (x) I_m) = XY (x) I_m, each identity among them holds iff
the identity of its 2 x 2, 2 x 1 or 1 x 2 factor holds, so
``verify_clique_axioms`` checks that geometry exactly at every prime on
the factors, in Python ints, with no sampling and no table of the
vertices.  Each check's ``instances_checked`` counts what it certifies,
n = p^(2m) vertices:

    reconstruction                    n z/2        vertex, pair (i, i+1)
    projection_relations              n z(z-1) z   vertex, triple (i, j, k)
    projection_linearity              n^2 + p n    sum x + y, multiple k x
    two_projections_determine         n C(z,2)     vertex, pair i < j
    clique_intersection               p^2m C(z,2)  ell_i- and ell_j-clique
    parallel_partition                z n          vertex, class i
    adjacency_iff_shared_projection   n^2          vertex pair (x, y)
    cliques_are_cliques               z n / p^m    ell-clique
    clique_census                     z n / p^m    ell-clique

The first three are matrix identities (a matrix map is linear), the next
three follow from them by a right inverse of [Pi_i | Pi_j], the next two
from the kernel identity E_i' Pi_i = 0 and translation, and the census
from Bruck's bound on the net that the ell-cliques form (see
``verify_clique_axioms``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .errors import DegenerateConfig, IndexOutOfRange, LemmaViolation
from .fields import fp_inv
from .matrices import gated_power, tensor_index

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
        if self.m < 2:
            raise DegenerateConfig(f"m must be at least 2, got {self.m}")
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


def pi_functional(cfg: MuConfig, i: int) -> tuple[int, int]:
    """Row coefficients (alpha, beta) with pi_i(x) = alpha*r1 + beta*r2.

    Solving a + b = r1, mu_i a + mu_i' b = r2 inside the pair (i, i')
    gives pi_i = (mu_i' r1 - r2) / (mu_i' - mu_i).
    """
    j = cfg.partner(i)
    mi, mj = cfg.mu(i), cfg.mu(j)
    dinv = fp_inv((mj - mi) % cfg.p, cfg.p)
    return mj * dinv % cfg.p, (-dinv) % cfg.p


def projection_coeffs(i: int, j: int, k: int, cfg: MuConfig) -> tuple[int, int]:
    """Coefficients with pi_k = k1 pi_i + k2 pi_j identically, from the slopes.

    With i' the partner of i, pi_i = (mu_i', -1) / (mu_i' - mu_i), so

        k1 = (mu_i' - mu_i)(mu_k' - mu_j') / ((mu_k' - mu_k)(mu_i' - mu_j'))
        k2 = (mu_j' - mu_j)(mu_i' - mu_k') / ((mu_k' - mu_k)(mu_i' - mu_j')).

    Not being solved from ``pi_functional``, they let the relations check
    it.  For i, j, k pairwise distinct so are i', j', k', and both
    coefficients are nonzero.
    """
    if i == j:
        raise DegenerateConfig("need two distinct source indices")
    if k == i:
        return 1, 0
    if k == j:
        return 0, 1
    p, mu = cfg.p, cfg.mu
    qi, qj, qk = (mu(cfg.partner(t)) for t in (i, j, k))  # mu_i', mu_j', mu_k'
    dinv = fp_inv((qk - mu(k)) * (qi - qj) % p, p)
    k1 = (qi - mu(i)) * (qk - qj) * dinv % p
    k2 = (qj - mu(j)) * (qi - qk) * dinv % p
    return k1, k2


def bruck_bound(z: int) -> int:
    """(z - 1)^2: in a net with z parallel classes, a clique that lies in no
    line has at most this many points (see ``verify_clique_axioms``)."""
    return (z - 1) ** 2


def verify_clique_axioms(cfg: MuConfig, seed: int = DEFAULT_SEED) -> dict:
    """Check the projection/clique geometry exactly; ``seed`` is only echoed.

    pi_i is the matrix Pi_i = P_i (x) I_m, so it is linear, and a matrix
    identity holds at every vertex.  Each identity X (x) I_m = 0 is checked
    on its factor X; row r of X stands for rows r m .. r m + m - 1, so a bad
    row r names the basis vertex p^(r m).  Checked: reconstruction
    P_i E_i + P_j E_j = I_2 for each odd pair (i, j), E_i = (1, mu_i), and
    the relations P_k = k1 P_i + k2 P_j of ``projection_coeffs``.  The pair
    (1, 2), which the argument below starts from, is checked first, and the
    other pairs after the relations.

    Right inverse: with Pi_1 = a Pi_i + b Pi_j and Pi_2 = c Pi_i + d Pi_j,
    reconstruction of (1, 2) reads [Pi_i | Pi_j] R = I, R the stack of
    a E_1 + c E_2 over b E_1 + d E_2.  So [Pi_i | Pi_j] is invertible for
    all i != j: two projections determine a vertex, an ell_i- and an
    ell_j-clique meet in one vertex, and the p^m fibres of pi_i partition
    T.  For an odd pair (i, i'), the stack of E_i over E_i' is then the
    two-sided inverse of [Pi_i | Pi_i'], so E_i' Pi_i = 0, and as both have
    rank m, ker pi_i is the p^m rows w E_i'.

    That identity is (alpha_i + mu_i' beta_i) I_m, checked as a scalar; a
    failure names the block's row (e1 + mu_i' e2) (x) e_1, vertex
    1 + mu_i' p^m.  The partner map permutes the indices, so S, the z
    blocks minus 0, is the union of the kernels minus 0, with z (p^m - 1)
    members, as blocks of distinct slopes meet only in 0.  So x - y is in S
    iff some pi_i(x - y) = pi_i(x) - pi_i(y) is 0: adjacent iff a shared
    projection.  A kernel, a subgroup inside S + 0, is a clique, and so is
    each ell-clique, a coset of one.

    No vertex array is built, and Python ints cannot overflow.  The only
    size-dependent numbers are p^m, which Bruck's check and ``clique_size``
    read, and counts that are polynomials in it, up to n^2 = (p^m)^4.  So
    p^m is taken from ``gated_power``, refused above ``MAX_VERTICES``
    before any stage runs, and n = p^m p^m: no count comes near Python's
    limit on the digits of an int it prints.

    Census of the maximal cliques of size >= p^m, by Bruck's bound (R. H.
    Bruck, "Finite nets. II. Uniqueness and imbedding", Pacific J. Math. 13,
    1963).  The ell-cliques are the lines of a net on T with z parallel
    classes: two vertices are adjacent iff they share a line (adjacency),
    each vertex is on one line of each class (parallel_partition), and
    lines of two classes meet in one vertex (clique_intersection).  Let C
    be a clique that lies in no line, and L a line.  Some y in C is off L;
    the line through y in L's class misses L, and y's other z - 1 lines
    meet L once each, so |C & L| <= z - 1.  Every other vertex of C is on
    exactly one line through a fixed x in C, so |C| - 1 <= z (z - 2) and
    |C| <= (z - 1)^2 (``bruck_bound``).  So if p^m > (z - 1)^2, a clique
    with >= p^m vertices lies in a line, and is that line.  A line has
    exactly p^m vertices, so a clique with more would lie in no line and
    break the bound: the lines are maximal.  Here p > z and m >= 2 give
    p^m >= 25 > 9 for z = 4 and p^m >= 49 > 25 for z = 6; the bound is
    checked anyway.

    Returns a certificate payload whose ``instances_checked`` the module
    docstring lists; raises LemmaViolation, naming the stage and a vertex,
    pair or clique, on any failure.
    """
    p, m, z = cfg.p, cfg.m, cfg.z
    if p <= z:
        raise DegenerateConfig(f"rigidity geometry needs p > z, got p={p}, z={z}")
    qm = gated_power(p, m, m)
    n = qm * qm
    f1 = (1,) + (0,) * (m - 1)
    pis = {i: pi_functional(cfg, i) for i in cfg.index_set}
    checks: dict[str, dict] = {}

    def record(name: str, instances: int, **extra):
        checks[name] = {
            "mode": "exhaustive",
            "instances_checked": int(instances),
            "status": "pass",
            **extra,
        }

    def require_zero(stage: str, rows, **where):
        for r, row in enumerate(rows):
            if any(v % p for v in row):
                vertex = tensor_index((r == 0, r == 1), f1, p)  # e_r (x) f_1
                raise LemmaViolation(stage, {**where, "vertex": vertex})

    def reconstruct(i: int):
        e = {k: (1, cfg.mu(k)) for k in (i, i + 1)}
        rebuilt = [
            [sum(pis[k][r] * e[k][c] for k in e) - (r == c) for c in (0, 1)] for r in (0, 1)
        ]
        require_zero("reconstruction", rebuilt, pair=(i, i + 1))

    record("projection_linearity", n * n + p * n)
    reconstruct(1)
    for i, j in permutations(cfg.index_set, 2):
        for k in cfg.index_set:
            k1, k2 = projection_coeffs(i, j, k, cfg)
            if k not in (i, j) and (k1 == 0 or k2 == 0):
                raise LemmaViolation(
                    "projection-relations-nonzero", {"triple": (i, j, k), "coeffs": (k1, k2)}
                )
            diff = [[pis[k][r] - k1 * pis[i][r] - k2 * pis[j][r]] for r in (0, 1)]
            require_zero("projection-relations", diff, triple=(i, j, k))
    for i in range(3, z + 1, 2):
        reconstruct(i)
    record("reconstruction", n * (z // 2))
    record("projection_relations", n * z * (z - 1) * z)
    # from the right inverse of [Pi_i | Pi_j]
    record("two_projections_determine", n * z * (z - 1) // 2)
    record("clique_intersection", qm * qm * z * (z - 1) // 2)
    record("parallel_partition", z * n)

    # ker pi_i is the block of the partner slope: E_i' Pi_i = 0
    for i in cfg.index_set:
        alpha, beta = pis[i]
        mu = cfg.mu(cfg.partner(i))
        if (alpha + mu * beta) % p:
            where = {"kernel": i, "vertex": tensor_index((1, mu), f1, p)}
            raise LemmaViolation("adjacency-shared-projection", where)
    record("adjacency_iff_shared_projection", n * n)
    record("cliques_are_cliques", z * qm)

    bound = bruck_bound(z)
    if qm <= bound:
        raise LemmaViolation("clique-census", {"clique_size": qm, "bruck_bound": bound})
    record("clique_census", z * qm, maximum_cliques=z * qm, clique_size=qm)

    return {
        "config": {"z": z, "mus": list(cfg.mus), "m": m, "p": p},
        "mode": "exhaustive",
        "seed": int(seed),
        "vertices": int(n),
        "connection_set_size": z * (qm - 1),
        "checks": checks,
    }
