"""Acceptance suite: one test per criterion, timed, one printed line each.

All arithmetic is exact, so every comparison is exact-match; the stated
wall-clock budgets are asserted as hard bounds.

Two sub-claims transcribed from the source material are provably false and
are kept as strict xfail tests with the measured counterexample, next to
green tests certifying the corrected statement:

* the published witness matrix for the union of the three lambda-orbitals
  1, 2, 3 at p = 13 does not preserve that union (slope doubling moves the
  complementary class {5, 8}); a valid replacement is machine-found;
* the setwise stabilizers of the p = 13 direction quadruples {2,6,7,11}
  and {3,4,9,10} intersect in an A4-type group of order 144, not in the
  dihedral group: both quadruples are equianharmonic (cross-ratio solves
  r^2 - r + 1 = 0), so that pair cannot pin the dihedral group; every
  other suborbit pair does, and the full-family intersection is exactly
  the scalar closure of the dihedral group.

Stabilizer assertions are stated up to scalars throughout: every setwise
stabilizer of a union of one-spaces contains all p-1 scalar matrices, so
"equals the dihedral group" can only mean (and is verified to mean) that
the intersection is exactly {k M} with M dihedral, whose 8-element
dihedral core is then recovered exactly.
"""

import time

import numpy as np
import pytest

from orbicert.certify import (
    STATED_WITNESSES,
    DirectionSet,
    certify_not_digraph_group,
    certify_q17,
    certify_two_closed,
    obstruction_polynomials,
    scan_primes,
    stabilizer_intersection_report,
)
from orbicert.cliques import MuConfig, verify_clique_axioms
from orbicert.crossratio import lambda_quad, verify_table1
from orbicert.digraphs import is_connected, orbital_union_set
from orbicert.groups import (
    g0_contains,
    lambda_classes,
    nontrivial_labels,
    rank_of,
    suborbit_indices,
)
from orbicert.matrices import Matrix, num_vertices

from oracles import (
    CliqueId,
    GridMatrix,
    LinPart,
    cross_ratio,
    delta_connection_set,
    ell_clique,
    lambda_quad_cross_ratio,
)


class Budget:
    def __init__(self, criterion, seconds):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"[criterion {self.criterion}] PASS in {elapsed:.2f}s (budget {self.seconds}s)")
            assert elapsed < self.seconds, f"criterion {self.criterion} exceeded budget"
        else:
            print(f"[criterion {self.criterion}] FAIL in {elapsed:.2f}s")
        return False


def test_criterion_01_rank():
    with Budget("1", 1.0):
        assert rank_of(2, 5) == 5
        assert rank_of(2, 7) == 5
        assert rank_of(2, 13) == 7
        assert rank_of(4, 5) == 5  # independent of m


def test_criterion_02_lambda_classes_p13():
    with Budget("2", 1.0):
        assert lambda_classes(13) == {
            1: frozenset({1, 12}),
            2: frozenset({2, 6, 7, 11}),
            3: frozenset({3, 4, 9, 10}),
            5: frozenset({5, 8}),
        }


def test_criterion_03_suborbit_partition():
    with Budget("3", 10.0):
        for m, p in [(2, 5), (2, 7), (2, 13)]:
            seen = np.zeros(num_vertices(m, p), dtype=int)
            for token in nontrivial_labels(p):
                seen[suborbit_indices(token, m, p)] += 1
            assert seen[0] == 0
            assert (seen[1:] == 1).all()  # pairwise disjoint, covering


def test_criterion_04_theorem_q5(preserves_set):
    with Budget("4", 10.0):
        ident = GridMatrix.identity(2, 5)
        stated = [
            (((1, 1), (1, -1)), ("A", "L1")),
            (((1, 2), (2, 1)), ("A", "L2")),
            (((1, 0), (0, 2)), ("L1", "L2")),
        ]
        for rows, union in stated:
            lin = LinPart(Matrix(rows, 5), ident)
            assert preserves_set(lin, orbital_union_set(union, 2, 5))
            assert not g0_contains(lin.a)
        cert = certify_not_digraph_group(5, 2)
        assert cert.status == "verified"
        assert cert.evidence["unions_checked"] == 14
        assert cert.evidence["stated_witnesses_failed"] == []


@pytest.mark.xfail(
    strict=True,
    reason=(
        "published witness table defect: the matrix [[1,0],[0,2]] listed for "
        "the union of lambda-orbitals 1, 2, 3 at p=13 does not preserve that "
        "union (doubling slopes maps the complementary class {5,8} to {10,3}); "
        "14 of the 15 rows verify, see test_criterion_05_theorem_q13"
    ),
)
def test_criterion_05_table_rows_as_stated(preserves_set):
    ident = GridMatrix.identity(2, 13)
    for (p, union), rows in STATED_WITNESSES.items():
        if p != 13:
            continue
        lin = LinPart(Matrix(rows, p), ident)
        assert preserves_set(lin, orbital_union_set(union, 2, p)), sorted(union)


def test_criterion_05_theorem_q13(preserves_set):
    with Budget("5", 120.0):
        ident = GridMatrix.identity(2, 13)
        rows_checked = 0
        failing = []
        for (p, union), rows in sorted(
            STATED_WITNESSES.items(), key=lambda kv: (sorted(kv[0][1]), kv[1])
        ):
            if p != 13:
                continue
            lin = LinPart(Matrix(rows, p), ident)
            ok = preserves_set(lin, orbital_union_set(union, 2, p))
            assert not g0_contains(lin.a)
            rows_checked += 1
            if not ok:
                failing.append(sorted(union))
        assert rows_checked == 15
        # one transcribed row is defective; everything else holds
        assert failing == [["L1", "L2", "L3"]]

        cert = certify_not_digraph_group(13, 2)
        assert cert.status == "verified"
        assert cert.evidence["unions_checked"] == 62
        assert cert.evidence["expected_unions"] == 62
        # the defective row was replaced by a machine-found witness and the
        # failure recorded loudly
        failed = {tuple(e["union"]) for e in cert.evidence["stated_witnesses_failed"]}
        assert ("L1", "L2", "L3") in failed
        for entry in cert.evidence["unions"]:
            assert entry["verified"]


def _pair_report(p):
    return stabilizer_intersection_report(
        [
            DirectionSet(ds, p)
            for ds in {
                5: ((1, 4), (2, 3)),
                7: ((0, 7), (1, 6)),  # 7 is infinity
                13: ((2, 6, 7, 11), (3, 4, 9, 10)),
            }[p]
        ],
        p,
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated stabilizer pair defect at p=13: both direction quadruples are "
        "equianharmonic (their cross-ratios solve r^2-r+1=0 mod 13, matching "
        "13 | 481 and 13 | 7696 in the obstruction arithmetic), so their "
        "stabilizers coincide in an A4-type group of order 144; the pair "
        "cannot pin the dihedral group.  The corrected full-family check is "
        "green in test_criterion_06_stabilizer_intersections"
    ),
)
def test_criterion_06_p13_pair_as_stated():
    rep = _pair_report(13)
    assert rep["intersection_equals_scalar_closure_of_d8"]


def test_criterion_06_stabilizer_intersections():
    with Budget("6", 30.0):
        expected_enum = {5: 480, 7: 2016, 13: 26208}
        for p in (5, 7):
            rep = _pair_report(p)
            assert rep["gl2_enumerated"] == expected_enum[p]
            assert rep["intersection_equals_scalar_closure_of_d8"]
            assert rep["dihedral_core_size"] == 8
            assert rep["intersection_order"] == 4 * (p - 1)

        # p = 13: the stated pair shares an order-144 stabilizer; the claim
        # is recovered with the full suborbit family
        rep = _pair_report(13)
        assert rep["gl2_enumerated"] == 26208
        assert rep["intersection_order"] == 144
        repaired = stabilizer_intersection_report(
            [
                DirectionSet((0, 13), 13),  # 13 is infinity
                DirectionSet((1, 12), 13),
                DirectionSet((2, 6, 7, 11), 13),
                DirectionSet((3, 4, 9, 10), 13),
                DirectionSet((5, 8), 13),
            ],
            13,
        )
        assert repaired["intersection_equals_scalar_closure_of_d8"]
        assert repaired["dihedral_core_size"] == 8
        assert repaired["intersection_order"] == 48

        for p in (5, 7, 13):
            cert = certify_two_closed(p, 2)
            assert cert.status == "verified"


def test_criterion_07_q17_rigidity():
    with Budget("7", 60.0):
        cert = certify_q17(2)
        assert cert.status == "verified"
        rep = cert.evidence["stabilizer"]
        assert rep["gl2_enumerated"] == 78336
        assert rep["intersection_equals_scalar_closure_of_d8"]
        assert rep["intersection_order"] == 64  # 4 (p-1): dihedral up to scalars
        assert rep["dihedral_core_size"] == 8


def test_criterion_08_clique_census(size_cliques):
    with Budget("8", 120.0):
        for p, mus, target, count in [
            (5, (1, 2, 3, 4), 25, 100),
            (7, (2, 3, 4, 5), 49, 196),
        ]:
            cfg = MuConfig(z=4, mus=mus, m=2, p=p)
            found = size_cliques(delta_connection_set(cfg), target)
            assert len(found) == count
            assert all(len(c) == target for c in found)
            for c in found:
                rep = next(iter(c))
                assert any(
                    ell_clique(CliqueId(i, rep), cfg) == c for i in cfg.index_set
                )


def test_criterion_09_clique_structural_lemmas():
    with Budget("9", 300.0):
        for p, mus, z in [(5, (1, 2, 3, 4), 4), (7, (2, 3, 4, 5), 4)]:
            out = verify_clique_axioms(MuConfig(z=z, mus=mus, m=2, p=p))
            assert out["mode"] == "exhaustive"
            assert all(c["status"] == "pass" for c in out["checks"].values())
        for p, mus, z in [(13, (2, 6, 7, 11), 4), (17, (1, 2, 8, 9, 15, 16), 6)]:
            out = verify_clique_axioms(MuConfig(z=z, mus=mus, m=2, p=p))
            assert out["mode"] == "exhaustive"
            assert all(
                c["mode"] == "exhaustive" and c["status"] == "pass"
                for c in out["checks"].values()
            )
            assert out["checks"]["clique_census"]["maximum_cliques"] == z * p**2
            n = p**4
            linearity = out["checks"]["projection_linearity"]["instances_checked"]
            assert linearity == n * n + p * n
        # the largest prime whose p^4-bit connection-set mask is admitted
        out = verify_clique_axioms(MuConfig(z=4, mus=(1, 2, 3, 4), m=2, p=53))
        assert out["checks"]["clique_census"]["maximum_cliques"] == 4 * 53**2


def test_criterion_10_cross_ratio_table():
    with Budget("10", 30.0):
        for p in (5, 7, 11, 13):
            out = verify_table1(p)
            assert out["quads_checked"] == (p + 1) * p * (p - 1) * (p - 2)
        for p in (5, 7, 13, 17):
            for lam in range(1, p):
                if pow(lam, 4, p) in (0, 1):
                    continue
                assert cross_ratio(lambda_quad(lam, p), p) == lambda_quad_cross_ratio(
                    lam, p
                )


def test_criterion_11_prime_scan():
    with Budget("11", 1.0):
        cert = scan_primes(500)
        assert cert.status == "verified"
        assert cert.evidence["both_obstructed"] == [7, 13]
        assert set(obstruction_polynomials(2)) == {17, 41, -7, 481}
        assert set(obstruction_polynomials(4)) == {257, 353, 161, 69121}


def test_criterion_12_connectivity():
    with Budget("12", 60.0):
        for m, p in [(2, 5), (2, 7), (2, 13)]:
            for token in nontrivial_labels(p):
                assert is_connected(orbital_union_set([token], m, p)), (p, token)
