"""PGL(2,p) stabilizers from three-point frames against scalar oracles.

Exhaustive at p in {5, 7}: the stabilizers and the witness search built on
``pgl2_stabilizer`` must agree with ``gl2_enumerate`` and the vertex-level
``preserves_set``; at p in {5, 7, 11} with every subset size against a
brute-force filter through ``fractional_action``; and at every prime below
10^4 against the obstruction polynomials of the prime scan.
"""

import itertools
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbicert.certify import (
    DirectionSet,
    direction_set_of_labels,
    obstruction_polynomials,
    search_linear_witness,
)
from orbicert.crossratio import fractional_action, lambda_quad
from orbicert.digraphs import orbital_union_set
from orbicert.fields import is_prime
from orbicert.groups import g0_contains, label_directions, nontrivial_labels, v4_representatives
from orbicert.matrices import pgl2_stabilizer, scalar_normalize

from oracles import (
    GridMatrix,
    LinPart,
    gl2_enumerate,
    grid,
    grid_mul,
    realized,
    setwise_stabilizer_gl2,
)

PRIMES = (5, 7)


def label_codes(token, p):
    if token == "B":
        return []
    return list(label_directions(token, p))


@lru_cache(maxsize=None)
def pgl2_classes(p):
    """Normalized classes of GL(2,p), sorted, each with its point permutation."""
    classes = {scalar_normalize(a)[0] for a in gl2_enumerate(p)}
    return [
        (a, tuple(fractional_action(a, k, p) for k in range(p + 1)))
        for a in sorted(classes, key=lambda m: m.entries)
    ]


@pytest.mark.parametrize("p", PRIMES)
def test_empty_set_stabilizer_is_pgl2(p):
    classes = [a for a, _ in pgl2_classes(p)]
    assert len(classes) == p * (p * p - 1)
    assert pgl2_stabilizer([], p) == classes
    assert pgl2_stabilizer(range(p + 1), p) == classes


@pytest.mark.parametrize("p", PRIMES)
def test_setwise_stabilizers_match_gl2_enumeration(p):
    sets = [direction_set_of_labels([t], p) for t in nontrivial_labels(p) if t != "B"]
    if p == 7:
        sets.append(DirectionSet((1, 4), 7))  # not dihedral-closed
    for ds in sets:
        vecs = realized(ds)
        brute = [
            a
            for a in gl2_enumerate(p)
            if {grid_mul(GridMatrix((v,), p), grid(a)).entries[0] for v in vecs} == vecs
        ]
        assert setwise_stabilizer_gl2(ds) == brute, ds.describe()


@pytest.mark.parametrize("p", PRIMES)
def test_stabilizer_verdict_matches_vertex_check(p, preserves_set):
    m = 2
    ident = GridMatrix.identity(m, p)
    for token in nontrivial_labels(p):
        union = orbital_union_set([token], m, p)
        stab = set(pgl2_stabilizer(label_codes(token, p), p))
        for a, _ in pgl2_classes(p):
            assert (a in stab) == preserves_set(LinPart(a, ident), union), (token, a)


@pytest.mark.parametrize("p", (5, 7, 11))
def test_stabilizer_matches_a_fractional_action_filter(p):
    # every prefix of a shuffled line: each subset size from 0 to p+1, so
    # both the smaller side and the complement carry the frame
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(st.permutations(range(p + 1)))
    def check(line):
        for size in range(p + 2):
            codes = set(line[:size])
            brute = [a for a, img in pgl2_classes(p) if all(img[k] in codes for k in codes)]
            assert pgl2_stabilizer(line[:size], p) == brute, (p, sorted(codes))

    check()


def first_vertex_witness(preserves_set, tokens, p, m=2):
    union = orbital_union_set(tokens, m, p)
    ident = GridMatrix.identity(m, p)
    return next(
        (
            a
            for a in gl2_enumerate(p)
            if preserves_set(LinPart(a, ident), union) and not g0_contains(a)
        ),
        None,
    )


def test_witness_search_matches_gl2_enumeration(preserves_set):
    labels = nontrivial_labels(5)
    unions = [
        c for r in range(1, len(labels)) for c in itertools.combinations(labels, r)
    ]
    assert len(unions) == 14
    for tokens in unions:
        first = first_vertex_witness(preserves_set, tokens, 5)
        assert search_linear_witness(tokens, 5) == first, tokens
    first = first_vertex_witness(preserves_set, ["L2"], 7)
    assert search_linear_witness(["L2"], 7) == first


def test_scan_obstruction_matches_the_stabilizer_below_10_4():
    # p divides an obstruction polynomial at lam iff the direction quadruple
    # of lam has more than the 4 dihedral classes; a clean one has exactly them
    sizes = Counter()
    for p in filter(is_prime, range(5, 10**4)):
        for lam in (2, 4):
            if pow(lam, 4, p) in (0, 1):
                continue
            stab = pgl2_stabilizer(lambda_quad(lam, p), p)
            obstructed = any(v % p == 0 for v in obstruction_polynomials(lam))
            assert obstructed == (len(stab) > 4), (p, lam)
            if not obstructed:
                assert stab == sorted(v4_representatives(p), key=lambda m: m.entries)
            sizes[len(stab)] += 1
    assert sizes == {4: 2440, 8: 7, 12: 4}
