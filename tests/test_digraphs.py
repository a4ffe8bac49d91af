"""Cayley digraphs: arcs, connectivity, set preservation, Hamming structure."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbicert.digraphs import (
    ConnectionSet,
    VertexPermutation,
    complement_labels,
    hamming_check,
    hamming_witness,
    is_arc,
    is_connected,
    orbital_union_set,
    preserves_set,
)
from orbicert.errors import BadDecomposition, EmptyUnion
from orbicert.fields import INFINITY
from orbicert.groups import LinPart, d8_elements, nontrivial_labels
from orbicert.matrices import Matrix, Tensor, num_vertices


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


def test_connectivity():
    m, p = 2, 5
    assert is_connected(orbital_union_set(["B"], m, p))
    assert is_connected(orbital_union_set(["A"], m, p))
    x = Tensor.from_rows((1, 0), (0, 0), p)
    line = ConnectionSet([x.index, (-x).index], m, p)
    assert not is_connected(line)


def test_all_orbitals_connected_small():
    for m, p in [(2, 5), (2, 7)]:
        for token in nontrivial_labels(p):
            assert is_connected(orbital_union_set([token], m, p))


def test_preserves_set_stated_witnesses_p5():
    m, p = 2, 5
    ident = Matrix.identity(m, p)
    cases = [
        (((1, 1), (1, -1)), ["A", "L1"]),
        (((1, 2), (2, 1)), ["A", "L2"]),
        (((1, 0), (0, 2)), ["L1", "L2"]),
    ]
    for rows, labels in cases:
        lin = LinPart(Matrix(rows, p), ident)
        assert preserves_set(lin, orbital_union_set(labels, m, p))
    assert preserves_set(LinPart(ident, ident), orbital_union_set(["B"], m, p))


def test_stabilizer_acts_as_automorphisms():
    rng = random.Random(17)
    m, p = 2, 5
    unions = [orbital_union_set([t], m, p) for t in nontrivial_labels(p)]
    for d in d8_elements(p):
        for _ in range(5):
            while True:
                b = Matrix(
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
        (5, (0, INFINITY), "A"),
        (5, (1, 4), "L1"),
        (5, (2, 3), "L2"),  # 2^2 = -1 at p=5
        (7, (0, INFINITY), "A"),
        (7, (1, 6), "L1"),
    ]:
        s = orbital_union_set([label], m, p)
        assert hamming_check(s, dirs[0], dirs[1])
        assert len(s) == 2 * (p**m - 1)  # Hamming degree


def test_hamming_check_rejects_wrong_set():
    m, p = 2, 5
    with pytest.raises(BadDecomposition):
        hamming_check(orbital_union_set(["B"], m, p), 0, INFINITY)
    with pytest.raises(BadDecomposition):
        hamming_check(orbital_union_set(["A"], m, p), 1, 1)


def test_hamming_witness_certificates():
    m, p = 2, 5
    s = orbital_union_set(["A"], m, p)
    w = hamming_witness(0, INFINITY, m, p)
    assert w.fixes_zero()
    assert w.is_automorphism(s)
    assert w.nonadditive_witness() is not None
    # transposing the same two codes twice is the identity
    assert np.array_equal(w.mapping[w.mapping], np.arange(num_vertices(m, p)))


def test_linear_permutations_are_affine():
    m, p = 2, 5
    lin = LinPart(Matrix(((1, 1), (1, -1)), p), Matrix.identity(m, p))
    perm = VertexPermutation.from_linear(lin, m, p)
    assert perm.nonadditive_witness() is None


def _invertible(p: int):
    entries = st.integers(0, p - 1)
    return st.tuples(
        st.tuples(entries, entries), st.tuples(entries, entries)
    ).map(lambda rows: Matrix(rows, p)).filter(lambda a: a.is_invertible())


def test_arc_check_agrees_with_preserves_set():
    # the exhaustive arc check is the one checker of Hamming witnesses;
    # on linear maps it must agree with the set-image oracle
    m, p = 2, 5
    ident = Matrix.identity(m, p)
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
        got = VertexPermutation.from_linear((a, b), m, p).is_automorphism(s)
        assert got == preserves_set((a, b), s)
        outcomes.add(got)

    check()
    assert outcomes == {True, False}


def test_complement_duality():
    # an automorphism of a union digraph is one of the complement union
    m, p = 2, 5
    w = hamming_witness(0, INFINITY, m, p)
    u = orbital_union_set(["A"], m, p)
    comp = orbital_union_set(sorted(complement_labels(["A"], p)), m, p)
    assert w.is_automorphism(u)
    assert w.is_automorphism(comp)
    lin = LinPart(Matrix(((1, 2), (2, 1)), p), Matrix.identity(m, p))
    u2 = orbital_union_set(["A", "L2"], m, p)
    comp2 = orbital_union_set(sorted(complement_labels(["A", "L2"], p)), m, p)
    assert preserves_set(lin, u2) and preserves_set(lin, comp2)
