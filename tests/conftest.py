"""Shared test oracles."""

import numpy as np
import pytest

from orbicert.groups import LinPart
from orbicert.matrices import all_coords, encode_array, num_vertices, product_image


def preserves_set(lin, s):
    """True iff the linear map sends S onto S (hence is an automorphism).

    The reference for ``orbicert.digraphs.label_transitions``: the image of
    every member of S, one matmul per call, with no label table.
    """
    a, b = (lin.a, lin.b) if isinstance(lin, LinPart) else lin
    return bool(s.mask[product_image(s.digits(), a, b, s.p)].all())


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

    The reference for the census through 0 in ``orbicert.cliques``: the
    same pivoting branch-and-bound, but over big-int adjacency bitsets of
    all p^(2m) vertices, with no translation argument.  Desk scale only.
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

    def expand(r, p_bits, x_bits):
        if len(r) + p_bits.bit_count() < target:
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


@pytest.fixture
def size_cliques():
    """The all-vertex clique census, as a fixture so any import mode finds it."""
    return enumerate_size_cliques


@pytest.fixture(name="nonadditive_witness")
def nonadditive_witness_fixture():
    """The re-encoding affinity oracle, as a fixture so any import mode finds it."""
    return nonadditive_witness


@pytest.fixture(name="preserves_set")
def preserves_set_fixture():
    """The member-image oracle, as a fixture so any import mode finds it."""
    return preserves_set
