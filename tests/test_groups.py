"""Dihedral core, stabilizer membership, suborbit classification."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbicert.errors import ZeroLambda
from orbicert.fields import fp_inv
from orbicert.groups import (
    canonical_lambda,
    classify_all,
    d8_elements,
    g0_contains,
    lambda_classes,
    nontrivial_labels,
    rank_of,
    suborbit_indices,
)
from orbicert.matrices import Matrix, mat_inv, mat_mul, num_vertices

from oracles import (
    AffineElem,
    GridMatrix,
    LinPart,
    SuborbitLabel,
    Tensor,
    classify_tensor,
    connecting_element,
    orbit_under_d8,
    suborbit_elements,
    tensor_apply,
)


def signed_permutation_matrices(p):
    out = set()
    for s1 in (1, p - 1):
        for s2 in (1, p - 1):
            out.add(Matrix(((s1, 0), (0, s2)), p))
            out.add(Matrix(((0, s1), (s2, 0)), p))
    return out


def test_d8_is_the_signed_permutations():
    for p in (5, 7, 13, 17):
        d8 = d8_elements(p)
        assert len(d8) == 8
        assert set(d8) == signed_permutation_matrices(p)
        assert Matrix(((p - 1, 0), (0, p - 1)), p) in d8  # -I
        assert Matrix(((1, 0), (0, -1)), p) in d8
        assert Matrix(((0, 1), (1, 0)), p) in d8
        # closure under product and inverse
        for a in d8:
            assert mat_inv(a) in d8
            for b in d8:
                assert mat_mul(a, b) in d8


def test_orbit_of_basis_pair():
    p = 5
    e1, e2 = (1, 0), (0, 1)
    n1, n2 = (p - 1, 0), (0, p - 1)
    got = orbit_under_d8((e1, e2), p)
    expected = {
        (e1, e2), (e1, n2), (n1, e2), (n1, n2),
        (e2, e1), (e2, n1), (n2, e1), (n2, n1),
    }
    assert got == expected
    assert orbit_under_d8(((0, 0), (0, 0)), p) == {((0, 0), (0, 0))}
    assert orbit_under_d8(e1, p) == {e1, n1, e2, n2}


def test_g0_membership():
    p = 5
    ident = Matrix.identity(p)
    assert g0_contains(ident)
    assert g0_contains(LinPart(ident, GridMatrix(((1, 2), (3, 4)), p)).a)
    assert not g0_contains(Matrix(((1, 1), (1, -1)), p))
    assert g0_contains(Matrix(((0, 2), (2, 0)), p))  # 2 * swap
    for k in range(1, p):
        for m in d8_elements(p):
            assert g0_contains(m.scaled(k))


def test_classification_examples():
    p, m = 13, 2
    assert classify_tensor(Tensor.zero(m, p)).token == "zero"
    assert classify_tensor(Tensor.from_rows((1, 0), (0, 1), p)).token == "B"
    x = Tensor.simple((1, 6), (1, 0), p)
    assert classify_tensor(x).token == "L2"
    assert classify_tensor(Tensor.simple((1, 0), (3, 7), p)).token == "A"
    assert classify_tensor(Tensor.simple((0, 1), (3, 7), p)).token == "A"


def test_canonical_lambda():
    assert canonical_lambda(12, 13) == 1
    for p in (5, 7, 13):
        assert canonical_lambda(1, p) == 1
    assert canonical_lambda(9, 13) == 3
    with pytest.raises(ZeroLambda):
        canonical_lambda(0, 7)
    for p in (5, 7, 13, 17):
        for lam in range(1, p):
            c = canonical_lambda(lam, p)
            assert canonical_lambda(c, p) == c  # idempotent
            assert lam in lambda_classes(p)[c]


def test_lambda_classes_frozen():
    assert lambda_classes(5) == {1: frozenset({1, 4}), 2: frozenset({2, 3})}
    assert lambda_classes(7) == {1: frozenset({1, 6}), 2: frozenset({2, 3, 4, 5})}
    assert lambda_classes(13) == {
        1: frozenset({1, 12}),
        2: frozenset({2, 6, 7, 11}),
        3: frozenset({3, 4, 9, 10}),
        5: frozenset({5, 8}),
    }
    assert lambda_classes(17) == {
        1: frozenset({1, 16}),
        2: frozenset({2, 8, 9, 15}),
        3: frozenset({3, 6, 11, 14}),
        4: frozenset({4, 13}),
        5: frozenset({5, 7, 10, 12}),
    }


def test_rank():
    assert rank_of(2, 5) == 5
    assert rank_of(3, 5) == 5  # independent of m
    assert rank_of(2, 7) == 5
    assert rank_of(2, 13) == 7


def test_suborbit_sizes():
    m = 2
    for p in (5, 7, 13):
        qm = p**m
        assert suborbit_indices("A", m, p).size == 2 * (qm - 1)
        simple_total = (p + 1) * (qm - 1)
        assert suborbit_indices("B", m, p).size == p ** (2 * m) - 1 - simple_total
        for k, cls in lambda_classes(p).items():
            expect = len(cls) * (qm - 1)
            assert suborbit_indices(f"L{k}", m, p).size == expect
    assert suborbit_indices("A", 2, 5).size == 48
    assert suborbit_indices("B", 2, 5).size == 480


def test_partition_property():
    for m, p in [(2, 5), (2, 7), (2, 13)]:
        total = 1
        seen = set()
        for token in nontrivial_labels(p):
            idx = set(int(i) for i in suborbit_indices(token, m, p))
            assert not (idx & seen)
            seen |= idx
            total += len(idx)
        assert total == num_vertices(m, p)
        assert 0 not in seen


def test_lambda_suborbit_matches_direct_construction():
    # the slope-2 class at p=7 has the four directions {2, 3, 4, 5}
    m, p = 2, 7
    direct = set()
    for mu in (2, 3, 4, 5):
        for w1 in range(p):
            for w2 in range(p):
                if (w1, w2) != (0, 0):
                    direct.add(Tensor.simple((1, mu), (w1, w2), p))
    assert suborbit_elements("L2", m, p) == direct


def test_suborbits_negation_closed():
    m, p = 2, 7
    for token in nontrivial_labels(p):
        elems = suborbit_elements(token, m, p)
        assert all(-x in elems for x in elems)


def test_classification_invariant_under_stabilizer():
    # seeded random stabilizer elements at (2,5); every vertex checked
    rng = random.Random(31)
    m, p = 2, 5
    tensors = [Tensor.from_index(i, m, p) for i in range(num_vertices(m, p))]
    for _ in range(20):
        d = rng.choice(d8_elements(p))
        while True:
            b = GridMatrix(
                tuple(tuple(rng.randrange(p) for _ in range(m)) for _ in range(m)), p
            )
            if b.is_invertible():
                break
        for x in tensors:
            assert classify_tensor(tensor_apply(d, b, x)) == classify_tensor(x)


def test_classification_matches_orbit_closure_p3():
    # independent oracle: orbit partition under the full generator action
    m, p = 2, 3
    from orbicert.matrices import digit_planes
    from oracles import gl2_enumerate, kron_image

    n = num_vertices(m, p)
    maps = [
        kron_image(digit_planes(m, p), d, b, p)
        for d in d8_elements(p)
        for b in gl2_enumerate(p)
    ]
    seen = [False] * n
    orbits = []
    for start in range(n):
        if seen[start]:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for mp_ in maps:
                u = int(mp_[v])
                if u not in orbit:
                    orbit.add(u)
                    frontier.append(u)
        for v in orbit:
            seen[v] = True
        orbits.append(frozenset(orbit))
    by_label = {}
    for idx in range(n):
        by_label.setdefault(classify_tensor(Tensor.from_index(idx, m, p)).token, set()).add(idx)
    assert {frozenset(v) for v in by_label.values()} == set(orbits)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from([(2, 5), (2, 7), (3, 5), (3, 7)]), st.data())
def test_classify_all_matches_classify_tensor(mp, data):
    # the numpy fast path against the scalar classifier
    m, p = mp
    codes, tokens = classify_all(m, p)
    index = st.integers(0, num_vertices(m, p) - 1)
    for v in data.draw(st.lists(index, min_size=1, max_size=20)):
        assert tokens[codes[v]] == classify_tensor(Tensor.from_index(v, m, p)).token


def test_connecting_element_exhaustive_to_representative():
    m, p = 2, 5
    reps = {}
    for idx in range(num_vertices(m, p)):
        x = Tensor.from_index(idx, m, p)
        token = classify_tensor(x).token
        if token not in reps:
            reps[token] = x
        lin = connecting_element(reps[token], x)
        assert lin is not None
        assert lin.apply(reps[token]) == x
        assert g0_contains(lin.a)


def test_connecting_element_random_pairs_and_mismatch():
    rng = random.Random(13)
    m, p = 2, 5
    n = num_vertices(m, p)
    done = 0
    while done < 300:
        x = Tensor.from_index(rng.randrange(n), m, p)
        y = Tensor.from_index(rng.randrange(n), m, p)
        if classify_tensor(x) != classify_tensor(y):
            assert connecting_element(x, y) is None
            continue
        lin = connecting_element(x, y)
        assert lin is not None and lin.apply(x) == y
        done += 1


def test_label_serialization():
    for token in ("zero", "A", "B", "L2", "L11"):
        assert SuborbitLabel.parse(token).token == token
    with pytest.raises(ValueError):
        SuborbitLabel.parse("L")
    with pytest.raises(ValueError):
        SuborbitLabel.parse("C")


def test_linpart_scalar_equivalence_and_affine():
    p = 5
    a = Matrix(((1, 1), (1, -1)), p)
    b = GridMatrix(((1, 2), (3, 4)), p)
    lin = LinPart(a, b)
    scaled = LinPart(a.scaled(2), b.scaled(3))  # 3 = 2^-1 mod 5
    assert lin.same_map(scaled)
    assert not lin.same_map(LinPart(a.scaled(2), b))
    x = Tensor.from_rows((1, 2), (3, 4), p)
    assert lin.apply(x) == scaled.apply(x)

    t = Tensor.from_rows((1, 0), (0, 1), p)
    aff = AffineElem(lin, t)
    assert aff.apply(x) == lin.apply(x) + t


def _classify_oracle(coords, p):
    """The token of every vertex from its int64 (2, m) coordinates: zero; B
    if a 2 x 2 minor is nonzero; else A if row 1 is zero or the slope
    r2[j] / r1[j] at its first nonzero column j is 0; else L<k> for the
    class k of that slope."""
    r1, r2 = coords[:, 0], coords[:, 1]
    minors = (r1[:, :, None] * r2[:, None, :] - r1[:, None, :] * r2[:, :, None]) % p
    rank2 = minors.reshape(len(coords), -1).any(axis=1)
    lead = np.argmax(r1 != 0, axis=1)
    rows = np.arange(len(coords))
    a, b = r1[rows, lead].tolist(), r2[rows, lead].tolist()
    out = []
    for x in range(len(coords)):
        if x == 0:
            out.append("zero")
        elif rank2[x]:
            out.append("B")
        elif a[x] == 0 or b[x] == 0:
            out.append("A")
        else:
            out.append(f"L{canonical_lambda(b[x] * fp_inv(a[x], p), p)}")
    return out


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_classify_all_matches_the_int64_oracle(p, m, all_coords):
    codes, tokens = classify_all(m, p)
    assert [tokens[c] for c in codes.tolist()] == _classify_oracle(all_coords(m, p), p)
