"""The PGL(2,p) point table against the scalar GL(2,p) oracles.

Exhaustive at p in {5, 7}: the table's permutations, the stabilizers and
the witness search built on it must agree with ``gl2_enumerate``,
``fractional_action`` and the vertex-level ``preserves_set``.
"""

import itertools
import subprocess
import sys

import pytest

from orbicert.certify import (
    DirectionSet,
    direction_set_of_labels,
    search_linear_witness,
    setwise_stabilizer_gl2,
)
from orbicert.crossratio import fractional_action, projective_line
from orbicert.digraphs import orbital_union_set, preserves_set
from orbicert.errors import ParameterTooLarge
from orbicert.groups import LinPart, g0_contains, label_directions, nontrivial_labels
from orbicert.matrices import (
    Matrix,
    gl2_enumerate,
    mat_mul,
    pgl2_points,
    pgl2_setwise_rows,
    point_code,
)

PRIMES = (5, 7)


def label_codes(token, p):
    if token == "B":
        return []
    return [point_code(d, p) for d in label_directions(token, p)]


@pytest.mark.parametrize("p", PRIMES)
def test_rows_act_as_fractional_maps(p):
    reps, perms = pgl2_points(p)
    assert reps.shape == (p * (p * p - 1), 2, 2)
    for r in range(reps.shape[0]):
        rep = Matrix(reps[r], p)
        images = [fractional_action(rep, t, p) for t in projective_line(p)]
        assert perms[r].tolist() == [point_code(t, p) for t in images]


@pytest.mark.parametrize("p", PRIMES)
def test_setwise_stabilizers_match_gl2_enumeration(p):
    sets = [direction_set_of_labels([t], p) for t in nontrivial_labels(p) if t != "B"]
    if p == 7:
        sets.append(DirectionSet((1, 4), 7))  # not dihedral-closed
    for ds in sets:
        vecs = ds.realized
        brute = [
            a
            for a in gl2_enumerate(p)
            if {tuple(mat_mul(Matrix((v,), p), a).entries[0]) for v in vecs} == vecs
        ]
        assert setwise_stabilizer_gl2(ds) == brute, ds.describe()


@pytest.mark.parametrize("p", PRIMES)
def test_table_verdict_matches_vertex_check(p):
    m = 2
    reps, _ = pgl2_points(p)
    ident = Matrix.identity(m, p)
    for token in nontrivial_labels(p):
        union = orbital_union_set([token], m, p)
        rows = set(pgl2_setwise_rows(label_codes(token, p), p).tolist())
        for r in range(reps.shape[0]):
            lin = LinPart(Matrix(reps[r], p), ident)
            assert (r in rows) == preserves_set(lin, union), (token, r)


def first_vertex_witness(tokens, p, m=2):
    union = orbital_union_set(tokens, m, p)
    ident = Matrix.identity(m, p)
    return next(
        (
            a
            for a in gl2_enumerate(p)
            if preserves_set(LinPart(a, ident), union) and not g0_contains(a)
        ),
        None,
    )


def test_witness_search_matches_gl2_enumeration():
    labels = nontrivial_labels(5)
    unions = [
        c for r in range(1, len(labels)) for c in itertools.combinations(labels, r)
    ]
    assert len(unions) == 14
    for tokens in unions:
        assert search_linear_witness(tokens, 5) == first_vertex_witness(tokens, 5), tokens
    assert search_linear_witness(["L2"], 7) == first_vertex_witness(["L2"], 7)


def test_table_size_gate_refuses_before_building():
    with pytest.raises(ParameterTooLarge):
        pgl2_points(199)


def test_table_is_not_built_at_import():
    code = (
        "import orbicert, orbicert.cli; from orbicert.matrices import pgl2_points; "
        "print(pgl2_points.cache_info().currsize)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "0"
