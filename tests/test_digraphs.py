"""Cayley digraphs: arcs, connectivity, set preservation, Hamming structure."""

import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import orbicert.digraphs as digraphs
from orbicert.certify import hamming_capable
from orbicert.digraphs import (
    ConnectionSet,
    VertexPermutation,
    complement_labels,
    hamming_check,
    hamming_witness,
    is_connected,
    orbital_union_set,
)
from orbicert.errors import BadDecomposition, EmptyUnion, IndexOutOfRange
from orbicert.groups import d8_elements, nontrivial_labels, suborbit_indices
from orbicert.matrices import Matrix, digit_planes, homogeneous, num_vertices

from oracles import (
    GridMatrix,
    LinPart,
    Tensor,
    encode_array,
    hamming_check_2m,
    hamming_witness_coords,
    is_arc,
    permutation_from_linear,
)


def negated(coords, idx, p):
    """Vertex indices of -x for the vertices x in ``idx``, read from the
    coordinate table ``coords``."""
    return encode_array(-coords[idx], p)


def test_connection_set_validation():
    m, p = 2, 5
    with pytest.raises(EmptyUnion):
        ConnectionSet([], m, p)
    with pytest.raises(ValueError):
        ConnectionSet([0, 1], m, p)  # contains zero
    x = Tensor.from_rows((1, 0), (0, 0), p)
    with pytest.raises(ValueError):
        ConnectionSet([x.index], m, p)  # misses the negation
    s = ConnectionSet([x.index, (-x).index], m, p)
    assert len(s) == 2 and x.index in s


def test_connection_set_refuses_indices_outside_the_vertices():
    # a negative index would otherwise wrap to the end of the mask
    m, p = 2, 5
    n = num_vertices(m, p)
    with pytest.raises(ValueError, match="out of range"):
        ConnectionSet([-1, 1], m, p)
    with pytest.raises(ValueError, match="out of range"):
        ConnectionSet([n - 1, n], m, p)


def test_connection_set_members_are_sorted_and_unique(all_coords):
    m, p = 2, 5
    neg = negated(all_coords(m, p), np.arange(num_vertices(m, p)), p)
    raw = np.array([7, 3, 7, neg[3], 12, neg[7], neg[12], 3, neg[12]])
    s = ConnectionSet(raw, m, p)
    assert np.array_equal(s.members, np.unique(raw))


def test_union_set_matches_direct_construction():
    # the axis/slope-1 union at p=5: directions (1,0), (0,1), (1,1), (1,4)
    m, p = 2, 5
    s = orbital_union_set(["A", "L1"], m, p)
    direct = set()
    for v in [(1, 0), (0, 1), (1, 1), (1, 4)]:
        for w1 in range(p):
            for w2 in range(p):
                if (w1, w2) == (0, 0):
                    continue
                direct.add(Tensor.simple(v, (w1, w2), p).index)
    assert direct == {int(i) for i in s.members}
    assert s.labels == frozenset({"A", "L1"})


@pytest.mark.parametrize("p", [5, 7])
def test_union_members_are_the_sorted_suborbits(p):
    m = 2
    labels = nontrivial_labels(p)
    for size in range(1, len(labels) + 1):
        for tokens in combinations(labels, size):
            parts = [suborbit_indices(t, m, p) for t in tokens]
            expected = np.sort(np.concatenate(parts))
            assert np.array_equal(orbital_union_set(tokens, m, p).members, expected)


def test_union_complement_partitions_nonzero():
    m, p = 2, 5
    full = orbital_union_set(["A", "B", "L1", "L2"], m, p)
    assert len(full) == num_vertices(m, p) - 1
    assert complement_labels(["A", "L1"], p) == frozenset({"B", "L2"})


def test_is_arc():
    m, p = 2, 5
    s = orbital_union_set(["A"], m, p)
    x = Tensor.from_rows((1, 2), (3, 4), p).index
    assert not is_arc(x, x, s)
    y = Tensor.from_rows((0, 2), (3, 4), p).index  # x - y = e1 (x) f1
    assert is_arc(x, y, s)
    rng = random.Random(2)
    for _ in range(50):
        a, b = rng.randrange(625), rng.randrange(625)
        assert is_arc(a, b, s) == is_arc(b, a, s)  # negation-closed


def test_vertices_outside_the_range_are_refused():
    # -1 would wrap to vertex n - 1, and n would raise a raw numpy error
    m, p = 2, 5
    n = num_vertices(m, p)
    s = orbital_union_set(["A"], m, p)
    for x, y in [(-1, 0), (n, 0), (0, -1), (0, n)]:
        with pytest.raises(IndexOutOfRange):
            is_arc(x, y, s)
    for idx in (-1, n):
        with pytest.raises(IndexOutOfRange):
            idx in s
    assert is_arc(n - 1, n - 2, s) == (1 in s)  # the last vertex is in range


def test_connectivity():
    m, p = 2, 5
    assert is_connected(orbital_union_set(["B"], m, p))
    assert is_connected(orbital_union_set(["A"], m, p))
    x = Tensor.from_rows((1, 0), (0, 0), p)
    line = ConnectionSet([x.index, (-x).index], m, p)
    assert not is_connected(line)


def _bfs_is_connected(s: ConnectionSet, coords) -> bool:
    # reachability of every vertex from 0 along S-steps, the frontier in
    # chunks of ~2 * 10^5 neighbours, stopping once every vertex is reached
    s_coords = coords[s.members]
    reached = np.zeros(num_vertices(s.m, s.p), dtype=bool)
    reached[0] = True
    frontier = np.array([0])
    chunk = max(1, 200_000 // len(s))
    while frontier.size:
        parts = []
        for lo in range(0, frontier.size, chunk):
            block = coords[frontier[lo : lo + chunk]]
            nbrs = encode_array((block[:, None] + s_coords[None]) % s.p, s.p).ravel()
            new = np.unique(nbrs[~reached[nbrs]])
            reached[new] = True
            parts.append(new)
            if reached.all():
                return True
        frontier = np.concatenate(parts)
    return False


def test_all_orbitals_connected_small(all_coords):
    # the rank test against the BFS oracle on every orbital
    for m, p in [(2, 5), (2, 7), (3, 3), (3, 5)]:
        for token in nontrivial_labels(p):
            s = orbital_union_set([token], m, p)
            assert is_connected(s) and _bfs_is_connected(s, all_coords(m, p)), (m, p, token)


def test_rank_connectivity_matches_the_bfs_on_random_sets(all_coords):
    outcomes = set()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        mp=st.sampled_from([(2, 5), (3, 3)]),
        picks=st.lists(st.integers(1, 10**6), min_size=1, max_size=6),
    )
    def check(mp, picks):
        m, p = mp
        n = num_vertices(m, p)
        neg = negated(all_coords(m, p), np.arange(n), p)
        half = [1 + v % (n - 1) for v in picks]
        s = ConnectionSet(half + [int(neg[v]) for v in half], m, p)
        got = is_connected(s)
        assert got == _bfs_is_connected(s, all_coords(m, p))
        outcomes.add(got)

    check()
    assert outcomes == {True, False}


def test_preserves_set_stated_witnesses_p5(preserves_set):
    m, p = 2, 5
    ident = GridMatrix.identity(m, p)
    cases = [
        (((1, 1), (1, -1)), ["A", "L1"]),
        (((1, 2), (2, 1)), ["A", "L2"]),
        (((1, 0), (0, 2)), ["L1", "L2"]),
    ]
    for rows, labels in cases:
        lin = LinPart(Matrix(rows, p), ident)
        assert preserves_set(lin, orbital_union_set(labels, m, p))
    assert preserves_set(LinPart(ident, ident), orbital_union_set(["B"], m, p))


def test_stabilizer_acts_as_automorphisms(preserves_set):
    rng = random.Random(17)
    m, p = 2, 5
    unions = [orbital_union_set([t], m, p) for t in nontrivial_labels(p)]
    for d in d8_elements(p):
        for _ in range(5):
            while True:
                b = GridMatrix(
                    tuple(tuple(rng.randrange(p) for _ in range(m)) for _ in range(m)),
                    p,
                )
                if b.is_invertible():
                    break
            for s in unions:
                assert preserves_set(LinPart(d, b), s)


def test_hamming_identifications():
    m = 2
    for p, dirs, label in [
        (5, (0, 5), "A"),  # code p is infinity
        (5, (1, 4), "L1"),
        (5, (2, 3), "L2"),  # 2^2 = -1 at p=5
        (7, (0, 7), "A"),
        (7, (1, 6), "L1"),
    ]:
        s = orbital_union_set([label], m, p)
        assert hamming_check(s, dirs[0], dirs[1])
        assert len(s) == 2 * (p**m - 1)  # Hamming degree


def test_hamming_check_rejects_wrong_set():
    m, p = 2, 5
    with pytest.raises(BadDecomposition):
        hamming_check(orbital_union_set(["B"], m, p), 0, p)
    with pytest.raises(BadDecomposition):
        hamming_check(orbital_union_set(["A"], m, p), 1, 1)


def test_hamming_witness_certificates():
    m, p = 2, 5
    s = orbital_union_set(["A"], m, p)
    w = hamming_witness(0, p, m, p)
    assert w.mapping[0] == 0
    assert w.is_automorphism(s)
    assert w.nonadditive_witness() is not None
    # transposing the same two codes twice is the identity
    assert np.array_equal(w.mapping[w.mapping], np.arange(num_vertices(m, p)))
    # along (0, inf), x = [a | b] on digit rows: it swaps a = f_1 and a = 2 f_1
    index = np.arange(num_vertices(m, p))
    moved = np.flatnonzero(w.mapping != index)
    assert np.array_equal(moved, np.flatnonzero(np.isin(index % p**m, [1, 2])))
    assert np.array_equal(w.mapping[moved] % p**m, 3 - moved % p**m)


@pytest.mark.parametrize("p, m", [(3, 2), (5, 2), (7, 2), (13, 2), (5, 3), (3, 4)])
def test_hamming_witness_is_the_coordinate_oracle(p, m):
    # the moved vertices as images of the digit planes under (g, I_m)
    # against the (p^m, 2, m) coordinates, for every capable pair, both
    # orders, infinity (code p) included
    capable = list(filter(None, (hamming_capable(t, p) for t in nontrivial_labels(p))))
    assert (0, p) in capable
    for d1, d2 in capable + [(d2, d1) for d1, d2 in capable]:
        got = hamming_witness(d1, d2, m, p).mapping
        assert np.array_equal(got, hamming_witness_coords(d1, d2, m, p)), (d1, d2)


def test_linear_permutations_are_affine():
    m, p = 2, 5
    lin = LinPart(Matrix(((1, 1), (1, -1)), p), GridMatrix.identity(m, p))
    perm = permutation_from_linear(lin, m, p)
    assert perm.nonadditive_witness() is None


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_nonadditive_witness_of_every_hamming_witness_is_the_oracle_pair(
    p, nonadditive_witness
):
    m = 2
    for token in nontrivial_labels(p):
        dirs = hamming_capable(token, p)
        if dirs:
            w = hamming_witness(dirs[0], dirs[1], m, p)
            got = w.nonadditive_witness()
            assert got is not None and got == nonadditive_witness(w), (token, got)


def test_nonadditive_witness_matches_the_oracle_on_random_maps(nonadditive_witness, all_coords):
    # random permutations, and affine maps with a few swapped images, whose
    # first failing pair lies deeper in the scan
    m, p = 2, 5
    n = num_vertices(m, p)
    ident = GridMatrix.identity(m, p)
    outcomes = set()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        base=st.one_of(
            st.permutations(range(n)).map(np.array),
            st.tuples(_invertible(p), st.integers(0, n - 1)),
        ),
        swaps=st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2),
    )
    @example(base=(Matrix(((1, 1), (1, -1)), p), 7), swaps=[])
    @example(base=(Matrix(((1, 1), (1, -1)), p), 7), swaps=[(600, 601)])
    def check(base, swaps):
        # an (a, c) pair stands for the affine map x -> (a, I) x + c
        if isinstance(base, tuple):
            base = _affine(base[0], ident, base[1], all_coords(m, p))
        mapping = base.copy()
        for i, j in swaps:
            mapping[[i, j]] = mapping[[j, i]]
        perm = VertexPermutation(mapping, m, p)
        got = perm.nonadditive_witness()
        assert got == nonadditive_witness(perm)
        outcomes.add(got is None)

    check()
    assert outcomes == {True, False}


def _invertible(p: int):
    entries = st.integers(0, p - 1)
    return st.tuples(
        st.tuples(entries, entries), st.tuples(entries, entries)
    ).map(lambda rows: Matrix(rows, p)).filter(lambda a: a.is_invertible())


def _affine(a, b, c, coords):
    """Mapping of x -> (a, b) x + c, for a vertex c, on the coordinate table."""
    m, p = coords.shape[-1], a.p
    image = coords[permutation_from_linear((a, b), m, p).mapping]
    return encode_array(image + coords[c], p)


def test_arc_check_agrees_with_preserves_set(preserves_set):
    # the exhaustive arc check is the one checker of Hamming witnesses;
    # on linear maps it must agree with the set-image oracle
    m, p = 2, 5
    ident = GridMatrix.identity(m, p)
    outcomes = set()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        a=_invertible(p),
        b=_invertible(p),
        tokens=st.sets(st.sampled_from(nontrivial_labels(p)), min_size=1),
    )
    @example(a=ident, b=ident, tokens={"A"})
    @example(a=Matrix(((1, 1), (0, 1)), p), b=ident, tokens={"A"})
    def check(a, b, tokens):
        s = orbital_union_set(tokens, m, p)
        got = permutation_from_linear((a, b), m, p).is_automorphism(s)
        assert got == preserves_set((a, b), s)
        outcomes.add(got)

    check()
    assert outcomes == {True, False}


@pytest.mark.parametrize("p, m", [(3, 2), (5, 2), (3, 3)])
def test_grid_translation_and_horner_match_the_codec(p, m, all_coords):
    # the digit planes and the Horner difference of the arc checks against
    # encode_array
    n = num_vertices(m, p)
    coords = all_coords(m, p)
    planes = digit_planes(m, p)
    assert np.array_equal(planes.T, coords.reshape(n, 2 * m))
    rng = np.random.default_rng(3)
    u, v = rng.integers(n, size=(2, 4 * n))
    got = digraphs._encode_difference(planes[:, u], planes[:, v], p)
    assert np.array_equal(got, encode_array((coords[u] - coords[v]) % p, p))


@pytest.mark.parametrize("p", [3, 13, 101, 1021])
def test_digit_difference_is_reduced_mod_p(p):
    # every pair of digits, through the uint16 wrap-around reduction
    u, v = np.divmod(np.arange(p * p), p)
    planes = np.stack([u, v]).astype(np.uint16)
    got = digraphs._encode_difference(planes[:1], planes[1:], p)
    assert np.array_equal(got, (u - v) % p)


def _reference_is_automorphism(perm: VertexPermutation, s: ConnectionSet, coords) -> bool:
    # the per-member re-encoding loop over all of S, no grid, no +-t halving
    pcoords = coords[perm.mapping]
    for t in s.members:
        add = encode_array((coords + coords[int(t)]) % s.p, s.p)
        diff = (pcoords[add] - pcoords) % s.p
        if not s.mask[encode_array(diff, s.p)].all():
            return False
    return True


def test_arc_check_agrees_with_the_unhalved_reference(all_coords):
    m, p = 2, 5
    n = num_vertices(m, p)
    labels = nontrivial_labels(p)
    dirs = [hamming_capable(t, p) for t in labels if hamming_capable(t, p)]
    outcomes = set()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        base=st.one_of(
            st.sampled_from(dirs).map(lambda d: hamming_witness(d[0], d[1], m, p).mapping),
            st.permutations(range(n)).map(np.array),
        ),
        swaps=st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3),
        tokens=st.sets(st.sampled_from(labels), min_size=1),
    )
    @example(base=hamming_witness(0, p, m, p).mapping, swaps=[], tokens={"A"})
    @example(base=hamming_witness(0, p, m, p).mapping, swaps=[(1, 2)], tokens={"A"})
    def check(base, swaps, tokens):
        mapping = base.copy()
        for i, j in swaps:
            mapping[[i, j]] = mapping[[j, i]]
        perm = VertexPermutation(mapping, m, p)
        s = orbital_union_set(tokens, m, p)
        got = perm.is_automorphism(s)
        assert got == _reference_is_automorphism(perm, s, all_coords(m, p))
        outcomes.add(got)

    check()
    assert outcomes == {True, False}


def test_arc_check_covers_arcs_that_enter_the_support(all_coords):
    # on this 3-cycle the failing arcs are found only from the moved
    # vertices with both t and -t: one member of each pair +-t misses them
    m, p = 2, 3
    s = orbital_union_set(["B", "L1"], m, p)
    mapping = np.arange(num_vertices(m, p))
    mapping[[26, 80, 44]] = [80, 44, 26]
    perm = VertexPermutation(mapping, m, p)
    assert not _reference_is_automorphism(perm, s, all_coords(m, p))
    assert not perm.is_automorphism(s)


def test_identity_is_an_automorphism_of_every_union():
    # the empty support leaves no arc to check
    m, p = 2, 5
    ident = VertexPermutation(np.arange(num_vertices(m, p)), m, p)
    labels = nontrivial_labels(p)
    for r in range(1, len(labels) + 1):
        for tokens in combinations(labels, r):
            assert ident.is_automorphism(orbital_union_set(tokens, m, p)), tokens


@pytest.mark.parametrize("p, m", [(5, 2), (7, 2), (5, 3)])
def test_hamming_check_on_every_capable_label(p, m):
    capable = [(t, hamming_capable(t, p)) for t in nontrivial_labels(p)]
    capable = [(t, d) for t, d in capable if d]
    assert len(capable) >= 2
    for token, (d1, d2) in capable:
        assert hamming_check(orbital_union_set([token], m, p), d1, d2), token


def _hamming_oracle(s, d1, d2, coords) -> bool:
    """Whether x = v1 (x) a + v2 (x) b is a bijection onto the pairs (a, b)
    and x - y is in S iff (a, b) of x and y differ in exactly one place,
    over every pair (x, y) of vertices."""
    m, p = s.m, s.p
    n, q = num_vertices(m, p), p**m
    v1, v2 = homogeneous(d1, p), homogeneous(d2, p)
    w = [Tensor.from_index(c, m, p).row1 for c in range(q)]
    vertex = np.array(
        [[(Tensor.simple(v1, a, p) + Tensor.simple(v2, b, p)).index for b in w] for a in w]
    )
    if np.unique(vertex).size != n:
        return False
    acode, bcode = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    acode[vertex], bcode[vertex] = np.divmod(np.arange(n).reshape(q, q), q)
    arcs = s.mask[encode_array(coords[:, None] - coords[None, :], p)]
    one_place = (acode[:, None] != acode) ^ (bcode[:, None] != bcode)
    return bool(np.array_equal(arcs, one_place))


@pytest.mark.parametrize("p", [3, 5])
def test_hamming_check_is_the_all_pairs_oracle(p, all_coords):
    # every label against every Hamming-capable direction pair, both orders
    m = 2
    capable = [hamming_capable(t, p) for t in nontrivial_labels(p)]
    capable = [d for d in capable if d]
    pairs = capable + [(d2, d1) for d1, d2 in capable]
    verdicts = set()
    for token in nontrivial_labels(p):
        s = orbital_union_set([token], m, p)
        for d1, d2 in pairs:
            expected = _hamming_oracle(s, d1, d2, all_coords(m, p))
            try:
                got = hamming_check(s, d1, d2)
            except BadDecomposition:
                got = False
            assert got == expected, (token, d1, d2)
            verdicts.add(got)
    assert verdicts == {True, False}


def test_hamming_check_refuses_a_wrong_inverse(monkeypatch):
    # h = 2 inv(D)^T leaves every zero half in place, so only the h g = I
    # check sees it
    m, p = 2, 5
    s = orbital_union_set(["A"], m, p)
    real = digraphs._splitting
    assert hamming_check(s, 0, p)
    monkeypatch.setattr(digraphs, "_splitting", lambda *a: (real(*a)[0], real(*a)[1].scaled(2)))
    assert hamming_check(s, 0, p) is False


def _hamming_verdict(check, s, d1, d2):
    try:
        return check(s, d1, d2)
    except BadDecomposition:
        return "not-two-blocks"


@pytest.mark.parametrize("doubled", [False, True], ids=["valid", "doubled-h"])
@pytest.mark.parametrize("p, m", [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (5, 4), (7, 2), (7, 3)])
def test_the_2x2_hamming_check_is_the_2m_oracle(monkeypatch, p, m, doubled):
    # every label against every Hamming-capable direction pair, both orders
    if doubled:
        real = digraphs._splitting
        monkeypatch.setattr(
            digraphs, "_splitting", lambda *a: (real(*a)[0], real(*a)[1].scaled(2))
        )
    capable = [hamming_capable(t, p) for t in nontrivial_labels(p)]
    pairs = [d for d in capable if d] + [(d2, d1) for d1, d2 in filter(None, capable)]
    verdicts = set()
    for token in nontrivial_labels(p):
        s = orbital_union_set([token], m, p)
        for d1, d2 in pairs:
            got = _hamming_verdict(hamming_check, s, d1, d2)
            assert got == _hamming_verdict(hamming_check_2m, s, d1, d2), (token, d1, d2)
            verdicts.add(got)
    assert verdicts == ({False} if doubled else {True, "not-two-blocks"})


def test_hamming_check_refuses_a_set_that_is_not_the_two_blocks(all_coords):
    # negation-closed and of the Hamming degree, but one pair +-t of the
    # blocks is traded for a pair +-u of the B suborbit; and a proper subset
    m, p = 2, 5
    s = orbital_union_set(["A"], m, p)
    t = int(s.members[0])
    u = int(orbital_union_set(["B"], m, p).members[0])
    coords = all_coords(m, p)
    drop = {t, int(negated(coords, t, p))}
    traded = ConnectionSet(
        [v for v in s.members.tolist() if v not in drop] + [u, int(negated(coords, u, p))], m, p
    )
    assert len(traded) == len(s) == 2 * (p**m - 1)
    with pytest.raises(BadDecomposition):
        hamming_check(traded, 0, p)
    subset = ConnectionSet([v for v in s.members.tolist() if v not in drop], m, p)
    with pytest.raises(BadDecomposition):
        hamming_check(subset, 0, p)


def test_arc_checks_do_not_reencode_per_member(monkeypatch):
    # the arc check folds digits into indices twice per block of moved
    # vertices, never once per member of S; the Hamming check and the
    # additivity scan fold none
    m, p = 2, 5
    s = orbital_union_set(["A"], m, p)
    comp = orbital_union_set(sorted(complement_labels(["A"], p)), m, p)
    w = hamming_witness(0, p, m, p)
    moved = np.count_nonzero(w.mapping != np.arange(w.mapping.size))
    real, calls = digraphs.horner_fold, []

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(digraphs, "horner_fold", counting)
    for union in (s, comp):
        calls.clear()
        assert w.is_automorphism(union)
        block = w.mapping.size // len(union)
        assert len(calls) == 2 * -(-moved // block) < len(union)
    calls.clear()
    assert hamming_check(s, 0, p)
    assert w.nonadditive_witness() is not None
    assert len(calls) == 0


def test_complement_duality(preserves_set):
    # an automorphism of a union digraph is one of the complement union
    m, p = 2, 5
    w = hamming_witness(0, p, m, p)
    u = orbital_union_set(["A"], m, p)
    comp = orbital_union_set(sorted(complement_labels(["A"], p)), m, p)
    assert w.is_automorphism(u)
    assert w.is_automorphism(comp)
    lin = LinPart(Matrix(((1, 2), (2, 1)), p), GridMatrix.identity(m, p))
    u2 = orbital_union_set(["A", "L2"], m, p)
    comp2 = orbital_union_set(sorted(complement_labels(["A", "L2"], p)), m, p)
    assert preserves_set(lin, u2) and preserves_set(lin, comp2)


ORACLE_SPACES = [(p, m) for p in (3, 5, 7) for m in (1, 2, 3)]


def _negation_closed_sets(coords, p, rng):
    """(sets, neg): random negation-closed sets of nonzero vertices, of 1, 2,
    3 and 6 pairs +-x (fewer where there are fewer vertices), and -x for
    every vertex x."""
    n = len(coords)
    neg = negated(coords, np.arange(n), p)
    sets = []
    for size in (1, 2, 3, 6):
        half = rng.choice(np.arange(1, n), size=min(size, n - 1), replace=False)
        sets.append(np.union1d(half, neg[half]))
    return sets, neg


@pytest.mark.parametrize("p, m", ORACLE_SPACES)
def test_negation_check_matches_the_int64_oracle(p, m, all_coords):
    sets, neg = _negation_closed_sets(all_coords(m, p), p, np.random.default_rng(10 * p + m))
    everything = np.arange(1, num_vertices(m, p))
    for members in sets + [everything]:
        s = ConnectionSet(members, m, p)
        assert np.array_equal(s.members, members)
        # -x != x for x != 0 at odd p, so dropping a member breaks the pair
        assert neg[members[0]] != members[0]
        with pytest.raises(ValueError, match="negation"):
            ConnectionSet(members[1:], m, p)


@pytest.mark.parametrize("p, m", ORACLE_SPACES)
def test_is_connected_matches_the_int64_oracle(p, m, all_coords):
    # one pair +-x spans a line; all nonzero vertices span T
    coords = all_coords(m, p)
    sets, _ = _negation_closed_sets(coords, p, np.random.default_rng(10 * p + m))
    outcomes = set()
    for members in sets + [np.arange(1, num_vertices(m, p))]:
        s = ConnectionSet(members, m, p)
        got = is_connected(s)
        assert got == _bfs_is_connected(s, coords)
        outcomes.add(got)
    assert outcomes == {True, False}


@pytest.mark.parametrize("p, m", ORACLE_SPACES)
def test_nonadditive_witness_matches_the_int64_oracle(p, m, nonadditive_witness):
    # a linear map, the same map with two images swapped, a random map
    n = num_vertices(m, p)
    rng = np.random.default_rng(10 * p + m)
    a = Matrix(((1, 1), (1, p - 1)), p)
    b = GridMatrix([[int(i == (j + 1) % m) for j in range(m)] for i in range(m)], p)
    linear = permutation_from_linear((a, b), m, p).mapping
    swapped = linear.copy()
    swapped[[n // 3, n // 2]] = swapped[[n // 2, n // 3]]
    for mapping in (linear, swapped, rng.permutation(n)):
        perm = VertexPermutation(mapping, m, p)
        assert perm.nonadditive_witness() == nonadditive_witness(perm)
    assert VertexPermutation(linear, m, p).nonadditive_witness() is None
