"""Shared test oracles."""

import itertools
from functools import lru_cache

import numpy as np
import pytest

import orbicert.crossratio as crossratio
from orbicert.crossratio import permute_quad
from orbicert.errors import TableViolation
from orbicert.matrices import num_vertices

from oracles import LinPart, apply_formula, cross_ratio, encode_array, kron_image


def decode_array(idx, m: int, p: int) -> np.ndarray:
    """Row-major digit rows, shape (..., 2m), of an array of vertex indices."""
    rest = np.array(idx, dtype=np.int64)
    digits = np.empty(rest.shape + (2 * m,), dtype=np.int64)
    for k in range(2 * m):
        np.divmod(rest, p, out=(rest, digits[..., k]))
    return digits


@lru_cache(maxsize=32)
def all_coords(m: int, p: int) -> np.ndarray:
    """Coordinates of every vertex as an (n, 2, m) array, index order.

    The int64 oracle for the uint16 ``orbicert.matrices.digit_planes`` and
    the plane-wise kernels that read them.
    """
    out = decode_array(np.arange(num_vertices(m, p)), m, p).reshape(-1, 2, m)
    out.flags.writeable = False
    return out


def preserves_set(lin, s):
    """True iff the linear map sends S onto S (hence is an automorphism).

    The reference for ``orbicert.digraphs.label_transitions``: the image of
    every member of S through ``kron_image``, with no label table.
    """
    a, b = (lin.a, lin.b) if isinstance(lin, LinPart) else lin
    return bool(s.mask[kron_image(s.digits(), a, b, s.p)].all())


def nonadditive_witness(perm):
    """The first pair (x, p^k), k outer, with phi(x + p^k) != phi(x) +
    phi(p^k) - phi(0), or None.

    The reference for ``VertexPermutation.nonadditive_witness``: every
    vertex re-encoded through the codec once per basis vector, on (n, 2, m)
    coordinate arrays, with no digit planes.
    """
    m, p = perm.m, perm.p
    coords = all_coords(m, p)
    phi = perm.mapping
    psi = (coords[phi] - coords[phi[0]]) % p
    for k in range(2 * m):
        basis = p**k
        shifted = encode_array((coords + coords[basis]) % p, p)
        bad = np.nonzero((psi[shifted] != (psi + psi[basis]) % p).any(axis=(1, 2)))[0]
        if bad.size:
            return int(bad[0]), int(basis)
    return None


def enumerate_size_cliques(s, target):
    """All maximal cliques of Cay(T, S) of size >= target, over all vertices.

    The reference for ``cliques_through_zero``: the same pivoting
    branch-and-bound, but over big-int adjacency bitsets of all p^(2m)
    vertices, with no translation argument.  Desk scale only.  A branch
    that passes the |R| + |P| test is also bounded by a greedy colouring
    of P, as in Tomita's MCQ: a clique in P takes one vertex per colour.
    """
    n = num_vertices(s.m, s.p)
    coords = all_coords(s.m, s.p)
    adj = []
    for v in range(n):
        nbrs = encode_array((coords[v] + coords[s.members]) % s.p, s.p)
        bits = 0
        for u in nbrs:
            bits |= 1 << int(u)
        adj.append(bits)

    found = []

    def colours_reach(p_bits, need):
        """True iff a greedy colouring of P takes at least ``need`` colours."""
        colours = 0
        while p_bits:
            colours += 1
            if colours >= need:
                return True
            free = p_bits
            while free:
                low = free & -free
                p_bits &= ~low
                free &= ~adj[low.bit_length() - 1] & ~low
        return colours >= need

    def expand(r, p_bits, x_bits):
        if len(r) + p_bits.bit_count() < target:
            return
        if not colours_reach(p_bits, target - len(r)):
            return
        if p_bits == 0 and x_bits == 0:
            if len(r) >= target:
                found.append(frozenset(r))
            return
        pool = p_bits | x_bits
        best, best_cover = -1, -1
        probe = pool
        while probe:
            u = (probe & -probe).bit_length() - 1
            cover = (p_bits & adj[u]).bit_count()
            if cover > best_cover:
                best, best_cover = u, cover
            probe &= probe - 1
        branch = p_bits & ~adj[best]
        while branch:
            v = (branch & -branch).bit_length() - 1
            vbit = 1 << v
            r.append(v)
            expand(r, p_bits & adj[v], x_bits & adj[v])
            r.pop()
            p_bits &= ~vbit
            x_bits |= vbit
            branch &= branch - 1
            if len(r) + p_bits.bit_count() < target:
                return

    expand([], (1 << n) - 1, 0)
    return found


def cliques_through_zero(s, target, base=()):
    """Every maximal clique of Cay(T, S) with >= target vertices through 0
    and every vertex of ``base``; none unless 0 and the base form a clique.

    The reference that Bruck's bound in ``orbicert.cliques`` is checked
    against.  Such a clique is 0 plus the base plus a maximal clique of the
    graph induced on their common neighbours, the v in S with v - b in S
    for each b in the base.  The pivoting branch-and-bound of Tomita,
    Tanaka and Takahashi (TCS 363, 2006) runs over bitsets of those
    vertices and abandons a branch once |R| + |P| drops below the target.
    """
    p, radix = s.p, s.p ** np.arange(2 * s.m, dtype=np.int64)
    base = np.asarray(base, dtype=np.int64)
    rows, fixed = decode_array(s.members, s.m, p), decode_array(base, s.m, p)
    inner = s.mask[((fixed[:, None] - fixed) % p) @ radix] | np.eye(base.size, dtype=bool)
    if not (s.mask[base].all() and inner.all()):
        return []
    near = s.mask[((rows[:, None] - fixed) % p) @ radix].all(axis=1)
    members, rows = s.members[near], rows[near]
    adj = []
    for lo in range(0, members.size, 128):
        diffs = ((rows[None, :] - rows[lo : lo + 128, None]) % p) @ radix
        packed = np.packbits(s.mask[diffs], axis=1, bitorder="little")
        adj.extend(int.from_bytes(row.tobytes(), "little") for row in packed)

    found = []
    need = target - 1 - base.size  # vertices besides 0 and the base

    def expand(r, p_bits, x_bits):
        if len(r) + p_bits.bit_count() < need:
            return
        if p_bits == 0 and x_bits == 0:
            found.append(frozenset([0, *base.tolist(), *(int(members[v]) for v in r)]))
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


def table1_all_quadruples(p):
    """The reference for ``orbicert.crossratio.verify_table1``: every ordered
    pairwise-distinct quadruple of the p+1 point codes, each of the 24 rows of
    ``PERMUTATION_ROWS`` (read at call time) by the scalar cross-ratio and
    formula, with no frame argument.  Raises TableViolation on the first
    disagreement; returns the number of quadruples checked.
    """
    count = 0
    for quad in itertools.permutations(range(p + 1), 4):
        r = cross_ratio(quad, p)
        for sigma, row in crossratio.PERMUTATION_ROWS.items():
            direct = cross_ratio(permute_quad(sigma, quad), p)
            expected = apply_formula(row, r, p)
            if direct != expected:
                raise TableViolation(sigma, quad, expected, direct)
        count += 1
    return count


@pytest.fixture
def size_cliques():
    """The all-vertex clique census, as a fixture so any import mode finds it."""
    return enumerate_size_cliques


@pytest.fixture(name="cliques_through_zero")
def cliques_through_zero_fixture():
    """The census search through 0, as a fixture so any import mode finds it."""
    return cliques_through_zero


@pytest.fixture(name="table1_all_quadruples")
def table1_all_quadruples_fixture():
    """The all-quadruple Table 1 check, as a fixture so any import mode finds it."""
    return table1_all_quadruples


@pytest.fixture(name="nonadditive_witness")
def nonadditive_witness_fixture():
    """The re-encoding affinity oracle, as a fixture so any import mode finds it."""
    return nonadditive_witness


@pytest.fixture(name="preserves_set")
def preserves_set_fixture():
    """The member-image oracle, as a fixture so any import mode finds it."""
    return preserves_set


@pytest.fixture(name="all_coords")
def all_coords_fixture():
    """The int64 coordinate table, as a fixture so any import mode finds it."""
    return all_coords
