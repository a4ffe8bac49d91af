"""Stabilizer scans, theorem drivers, obstruction arithmetic."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import orbicert.digraphs as digraphs
import orbicert.matrices as matrices
from orbicert.certify import (
    GLGL_WITNESS,
    STATED_WITNESSES,
    DirectionSet,
    certify_not_digraph_group,
    certify_q17,
    certify_two_closed,
    obstruction_polynomials,
    scan_primes,
    search_linear_witness,
    stabilizer_intersection_report,
)
from orbicert.digraphs import VertexPermutation, label_transitions, orbital_union_set
from orbicert.errors import CertificationFailed, ParameterTooLarge
from orbicert.groups import (
    classify_all,
    d8_elements,
    g0_contains,
    nontrivial_labels,
    v4_representatives,
)
from orbicert.matrices import Matrix, mat_inv, mat_mul, num_vertices

from oracles import (
    DegenerateLambda,
    GridMatrix,
    LinPart,
    lambda_obstructions,
    realized,
    setwise_stabilizer_gl2,
)


def test_direction_set_realized():
    ds = DirectionSet((1, 4), 5)
    assert len(realized(ds)) == 2 * 4
    assert (2, 2) in realized(ds) and (1, 4) in realized(ds)
    assert (0, 0) not in realized(ds)
    with pytest.raises(ValueError, match="duplicate"):
        DirectionSet((1, 1), 5)


def test_direction_sets_hold_point_codes_0_to_p():
    # code p is infinity, not 0: no code is reduced mod p
    ds = DirectionSet((0, 5), 5)
    assert ds.codes == (0, 5) and ds.describe() == [0, "inf"]
    assert len(realized(ds)) == 2 * 4 and (0, 1) in realized(ds)
    for bad in ((1, 6), (-1, 2), (10,)):
        with pytest.raises(ValueError, match="outside"):
            DirectionSet(bad, 5)
    with pytest.raises(ValueError, match="nonempty"):
        DirectionSet((), 5)


def test_stabilizer_of_everything_is_gl2():
    p = 5
    ds = DirectionSet(tuple(range(p + 1)), p)
    assert len(setwise_stabilizer_gl2(ds)) == 480


def test_stabilizer_is_a_subgroup():
    stab = setwise_stabilizer_gl2(DirectionSet((1, 4), 5))
    elems = set(stab)
    for a in stab:
        assert mat_inv(a) in elems
        for b in stab:
            assert mat_mul(a, b) in elems


def test_d8_inside_stabilizers_of_closed_direction_sets():
    for p, dirs in [(5, (1, 4)), (7, (0, 7)), (13, (2, 6, 7, 11)), (13, (5, 8))]:
        stab = set(setwise_stabilizer_gl2(DirectionSet(dirs, p)))
        assert set(d8_elements(p)) <= stab


def test_scalar_closure_size():
    # the dihedral group modulo scalars: 4 classes, lifting to 4 (p-1)
    # matrices that contain all 8 dihedral ones
    for p in (5, 7, 13, 17):
        v4 = v4_representatives(p)
        assert len(v4) == 4
        closure = {m.scaled(k) for m in v4 for k in range(1, p)}
        assert len(closure) == 4 * (p - 1)
        assert set(d8_elements(p)) <= closure


def test_pair_intersection_p5():
    rep = stabilizer_intersection_report(
        [DirectionSet((1, 4), 5), DirectionSet((2, 3), 5)], 5
    )
    assert rep["gl2_enumerated"] == 480
    assert rep["stabilizer_orders"] == [32, 32]
    assert rep["intersection_order"] == 16
    assert rep["intersection_equals_scalar_closure_of_d8"]
    assert rep["dihedral_core_size"] == 8


def test_pair_intersection_p7_corrected_directions():
    rep = stabilizer_intersection_report(
        [DirectionSet((0, 7), 7), DirectionSet((1, 6), 7)], 7
    )
    assert rep["gl2_enumerated"] == 2016
    assert rep["intersection_order"] == 24
    assert rep["intersection_equals_scalar_closure_of_d8"]
    assert rep["dihedral_core_size"] == 8


def test_direction_pair_not_dihedral_closed_fails_to_pin():
    # {1, 4} over GF(7) is not stable under negation of the slope, so the
    # dihedral group does not even stabilize it; the intersection with the
    # axis-pair stabilizer has order 12 and misses 6 of the 8 dihedral
    # matrices.
    rep = stabilizer_intersection_report(
        [DirectionSet((0, 7), 7), DirectionSet((1, 4), 7)], 7
    )
    assert rep["intersection_order"] == 12
    assert not rep["intersection_equals_scalar_closure_of_d8"]
    assert rep["dihedral_core_size"] == 2  # only the scalars +-1 survive


def test_equianharmonic_pair_shares_extra_symmetry_p13():
    # both quadruples have cross-ratio satisfying r^2 - r + 1 = 0 mod 13,
    # so each setwise stabilizer is an A4-type group of order 144 and they
    # coincide; the pair cannot pin the dihedral group.
    from oracles import lambda_quad_cross_ratio

    for lam in (2, 3):
        r = lambda_quad_cross_ratio(lam, 13)
        assert (r * r - r + 1) % 13 == 0
    v2 = DirectionSet((2, 6, 7, 11), 13)
    v3 = DirectionSet((3, 4, 9, 10), 13)
    s2 = frozenset(setwise_stabilizer_gl2(v2))
    s3 = frozenset(setwise_stabilizer_gl2(v3))
    assert len(s2) == len(s3) == 144
    assert s2 == s3
    witness = Matrix(((1, 1), (5, 8)), 13)
    assert witness in s2 and not g0_contains(witness)
    rep = stabilizer_intersection_report([v2, v3], 13)
    assert rep["intersection_order"] == 144
    assert not rep["intersection_equals_scalar_closure_of_d8"]


def test_other_pairs_pin_at_p13():
    v1 = DirectionSet((1, 12), 13)
    v2 = DirectionSet((2, 6, 7, 11), 13)
    rep = stabilizer_intersection_report([v1, v2], 13)
    assert rep["intersection_order"] == 48
    assert rep["intersection_equals_scalar_closure_of_d8"]
    assert rep["dihedral_core_size"] == 8


def test_two_closed_certificates():
    c5 = certify_two_closed(5, 2)
    assert c5.status == "verified"
    assert c5.evidence["stabilizer_pair"]["intersection_equals_scalar_closure_of_d8"]
    assert "stabilizer_all_suborbits" not in c5.evidence

    c13 = certify_two_closed(13, 2)
    assert c13.status == "verified"
    assert not c13.evidence["stabilizer_pair"][
        "intersection_equals_scalar_closure_of_d8"
    ]
    rep = c13.evidence["stabilizer_all_suborbits"]
    assert rep["intersection_order"] == 48
    assert rep["intersection_equals_scalar_closure_of_d8"]


def test_q17_certificate_and_corruption():
    cert = certify_q17(2)
    assert cert.status == "verified"
    rep = cert.evidence["stabilizer"]
    assert rep["gl2_enumerated"] == 78336
    assert rep["intersection_order"] == 64
    assert rep["dihedral_core_size"] == 8

    # dropping the slope 16 breaks dihedral stability: certification of the
    # corrupted direction set must fail the pinning check
    broken = stabilizer_intersection_report([DirectionSet((1, 2, 8, 9, 15), 17)], 17)
    assert not broken["intersection_equals_scalar_closure_of_d8"]
    assert broken["dihedral_core_size"] < 8
    assert broken["intersection_order"] != 64


def test_stated_witnesses_q5_all_hold(preserves_set):
    m, p = 2, 5
    ident = GridMatrix.identity(m, p)
    for (pp, union), rows in STATED_WITNESSES.items():
        if pp != p:
            continue
        lin = LinPart(Matrix(rows, p), ident)
        assert preserves_set(lin, orbital_union_set(union, m, p))
        assert not g0_contains(lin.a)


def test_stated_q7_singleton_witness_fails_and_replacement_found(preserves_set):
    m, p = 2, 7
    ident = GridMatrix.identity(m, p)
    union = orbital_union_set(["L2"], m, p)
    stated = LinPart(Matrix(STATED_WITNESSES[(7, frozenset({"L2"}))], p), ident)
    assert not preserves_set(stated, union)  # the published matrix fails
    repl = search_linear_witness(["L2"], p)
    assert repl == Matrix(((1, 1), (1, 6)), p)
    assert preserves_set(LinPart(repl, ident), union)
    assert not g0_contains(repl)


def test_stated_q13_triple_union_witness_fails_and_replacement_found(preserves_set):
    m, p = 2, 13
    ident = GridMatrix.identity(m, p)
    union = orbital_union_set(["L1", "L2", "L3"], m, p)
    stated = LinPart(
        Matrix(STATED_WITNESSES[(13, frozenset({"L1", "L2", "L3"}))], p), ident
    )
    assert not preserves_set(stated, union)
    repl = search_linear_witness(["L1", "L2", "L3"], p)
    assert repl == Matrix(((1, 5), (5, 1)), p)
    assert preserves_set(LinPart(repl, ident), union)


def test_not_digraph_group_p5():
    cert = certify_not_digraph_group(5, 2)
    assert cert.status == "verified"
    assert cert.evidence["unions_checked"] == 14
    kinds = cert.evidence["witness_kinds"]
    assert set(kinds) == {"linear", "hamming", "glgl-on-B", "complement-ref"}
    assert cert.evidence["stated_witnesses_failed"] == []
    seen = set()
    for entry in cert.evidence["unions"]:
        assert entry["verified"]
        key = tuple(entry["connection_set_labels"])
        assert key not in seen  # each union certified exactly once
        seen.add(key)
        assert entry["witness_kind"] in {
            "linear",
            "hamming",
            "glgl-on-B",
            "complement-ref",
        }
    assert len(seen) == 2**4 - 2


def test_each_hamming_witness_is_checked_once(monkeypatch):
    calls = {"is_automorphism": 0, "nonadditive_witness": 0}
    for name in calls:
        original = getattr(VertexPermutation, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(VertexPermutation, name, counted)
    cert = certify_not_digraph_group(5, 2)
    assert cert.status == "verified"
    hamming = cert.evidence["witness_kinds"]["hamming"]
    assert hamming > 0
    assert calls == {"is_automorphism": hamming, "nonadditive_witness": hamming}


def test_a_broken_hamming_witness_is_never_verified(monkeypatch):
    # swapping two vertices on one Hamming line breaks the arcs to the
    # other line through either of them
    m, p = 2, 5
    mapping = np.arange(num_vertices(m, p))
    mapping[[1, 2]] = mapping[[2, 1]]
    broken = VertexPermutation(mapping, m, p)
    assert not broken.is_automorphism(orbital_union_set(["A"], m, p))
    monkeypatch.setattr("orbicert.certify.hamming_witness", lambda *args: broken)
    with pytest.raises(CertificationFailed, match="no verified witness"):
        certify_not_digraph_group(p, m)


DIHEDRAL = ((1, 0), (0, -1))


def test_a_dihedral_product_group_witness_fails_the_union_b(monkeypatch):
    # (A, I) with A dihedral preserves B but lies in the group
    monkeypatch.setattr("orbicert.certify.GLGL_WITNESS", DIHEDRAL)
    with pytest.raises(CertificationFailed, match="no verified witness") as err:
        certify_not_digraph_group(5, 2)
    assert err.value.detail == ["B"]
    assert str(err.value).endswith("-- ['B']")


def test_a_dihedral_stated_witness_without_a_replacement_fails_its_union(monkeypatch):
    union = frozenset({"A", "L1"})
    monkeypatch.setitem(STATED_WITNESSES, (5, union), DIHEDRAL)
    monkeypatch.setattr("orbicert.certify.search_linear_witness", lambda tokens, p: None)
    with pytest.raises(CertificationFailed, match="no verified witness") as err:
        certify_not_digraph_group(5, 2)
    assert err.value.detail == ["A", "L1"]


def test_without_stated_witnesses_the_search_certifies_the_pairs(monkeypatch):
    # the complement's routes are tried first; the search of the union
    # itself comes after them and is labelled as its own witness
    monkeypatch.setattr("orbicert.certify.STATED_WITNESSES", {})
    cert = certify_not_digraph_group(5, 2)
    assert cert.status == "verified"
    assert cert.evidence["witness_kinds"] == {
        "hamming": 3,
        "glgl-on-B": 1,
        "linear": 6,
        "complement-ref": 4,
    }
    for entry in cert.evidence["unions"]:
        labels = entry["connection_set_labels"]
        if entry["witness_kind"] == "complement-ref":
            assert len(labels) == 3 and len(entry["complement_of"]) == 1
        if entry["witness_kind"] != "linear":
            continue
        assert len(labels) == 2 and "complement_of" not in entry
        assert entry["witness_data"]["note"] == "found by exhaustive search"
        found = search_linear_witness(labels, 5)
        assert entry["witness_data"]["matrix"] == list(map(list, found.entries))


def _proper_unions(p):
    labels = nontrivial_labels(p)
    return [
        frozenset(c) for r in range(1, len(labels)) for c in itertools.combinations(labels, r)
    ]


@pytest.mark.parametrize("p", (5, 7))
def test_label_table_matches_the_member_image_oracle(p, preserves_set):
    # every stated, product-group and searched witness on every union
    m = 2
    ident = GridMatrix.identity(m, p)
    unions = _proper_unions(p)
    rows = set(STATED_WITNESSES.values()) | {GLGL_WITNESS}
    mats = {Matrix(r, p) for r in rows}
    mats |= {search_linear_witness(tk, p) for tk in unions} - {None}
    _, code_tokens = classify_all(m, p)
    verdicts = set()
    for mat in mats:
        table = label_transitions(mat, m, p)
        for tk in unions:
            wanted = np.array([t in tk for t in code_tokens])
            got = not table[wanted][:, ~wanted].any()
            union = orbital_union_set(tk, m, p)
            assert got == preserves_set(LinPart(mat, ident), union), (mat, sorted(tk))
            verdicts.add(got)
    assert verdicts == {True, False}


@pytest.mark.parametrize("p", (5, 7, 13))
def test_connection_set_size_is_the_size_of_the_union(p):
    cert = certify_not_digraph_group(p, 2)
    for entry in cert.evidence["unions"]:
        union = orbital_union_set(entry["connection_set_labels"], 2, p)
        assert entry["connection_set_size"] == len(union)


def test_one_vertex_map_per_linear_witness_matrix(monkeypatch):
    # the 62 unions at p = 13 are checked with 9 distinct linear matrices;
    # the map of all vertices is counted under every module name it is
    # bound to (a Hamming witness maps only the 2 p^m vertices it moves)
    calls = []
    real = matrices.linear_vertex_map

    def counting(*args):
        calls.append(1)
        return real(*args)

    for module in (matrices, digraphs):
        if hasattr(module, "linear_vertex_map"):
            monkeypatch.setattr(module, "linear_vertex_map", counting)
    cert = certify_not_digraph_group(13, 2)
    assert cert.status == "verified"
    assert cert.evidence["unions_checked"] == 62
    assert len(calls) == 9


def test_the_theorem_q13_driver_peaks_under_80_bytes_per_vertex():
    # a fresh process, so no table is cached; the int64 coordinate table
    # alone took 32 bytes per vertex, and its matmul temporaries more
    src = str(Path(matrices.__file__).resolve().parents[1])
    code = (
        "import tracemalloc; from orbicert.certify import certify_not_digraph_group; "
        "tracemalloc.start(); cert = certify_not_digraph_group(13, 2); "
        "print(cert.status, tracemalloc.get_traced_memory()[1])"
    )
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    status, peak = run.stdout.split()
    assert status == "verified"
    assert int(peak) <= 80 * 13**4


def test_not_digraph_group_reads_the_vertex_gate(monkeypatch):
    # one constant bounds both the classification and the certificate, which
    # refuses before it lists a union
    def refuse(p):
        raise AssertionError("unions listed")

    monkeypatch.setattr(matrices, "MAX_VERTICES", 5**4 - 1)
    monkeypatch.setattr("orbicert.certify.nontrivial_labels", refuse)
    with pytest.raises(ParameterTooLarge):
        certify_not_digraph_group(5, 2)


@pytest.mark.parametrize("p, m", [(5, 2), (7, 2), (13, 2), (5, 3), (7, 3)])
def test_two_closed_checks_delta_at_every_size(p, m):
    # stage (a) runs at every size that two-closed verifies
    cert = certify_two_closed(p, m)
    assert cert.status == "verified"
    assert cert.evidence["delta_equals_union"]["status"] == "pass"


def test_two_closed_over_the_vertex_gate_is_refused_not_verified(monkeypatch):
    # over the gate it raises; it never verifies without stage (a)
    monkeypatch.setattr(matrices, "MAX_VERTICES", 5**4 - 1)
    with pytest.raises(ParameterTooLarge):
        certify_two_closed(5, 2)


def test_not_digraph_group_p7_records_failure():
    cert = certify_not_digraph_group(7, 2)
    assert cert.status == "verified"
    assert cert.evidence["unions_checked"] == 14
    failed = cert.evidence["stated_witnesses_failed"]
    assert {"union": ["L2"], "stated": [[1, 2], [2, 1]]} in failed


def test_glgl_witness_preserves_nonsimple_everywhere(preserves_set):
    for p in (5, 7, 13):
        ident = GridMatrix.identity(2, p)
        lin = LinPart(Matrix(GLGL_WITNESS, p), ident)
        assert preserves_set(lin, orbital_union_set(["B"], 2, p))
        assert not g0_contains(lin.a)


def test_obstruction_polynomials_frozen():
    assert set(obstruction_polynomials(2)) == {17, 41, -7, 481}
    assert set(obstruction_polynomials(4)) == {257, 353, 161, 69121}


def test_lambda_obstructions_mod_p():
    assert 0 in lambda_obstructions(3, 41)  # 3^4 + 1 = 82 = 2 * 41
    assert 0 in lambda_obstructions(2, 7)
    assert 0 in lambda_obstructions(2, 13)
    assert 0 not in lambda_obstructions(2, 19) and 0 not in lambda_obstructions(4, 19)
    with pytest.raises(DegenerateLambda):
        lambda_obstructions(2, 5)  # 2^4 = 1 mod 5
    with pytest.raises(DegenerateLambda):
        lambda_obstructions(4, 17)  # 4^4 = 1 mod 17


def test_scan():
    cert = scan_primes(500)
    assert cert.status == "verified"
    assert cert.evidence["both_obstructed"] == [7, 13]
    # slope-2 obstructed but slope-4 clean at 17
    assert any(v % 17 == 0 for v in obstruction_polynomials(2))
    assert not any(v % 17 == 0 for v in obstruction_polynomials(4))
    assert not any(v % 19 == 0 for v in obstruction_polynomials(2))


def test_scan_consistent_with_residue_sets():
    # where the quadruple is nondegenerate, "p divides an integer in the
    # slope set" must agree with "0 lies in the mod-p residue set"
    from orbicert.fields import is_prime

    for p in range(5, 200):
        if not is_prime(p):
            continue
        for lam in (2, 4):
            if pow(lam, 4, p) in (0, 1):
                continue
            by_int = any(v % p == 0 for v in obstruction_polynomials(lam))
            by_residue = 0 in lambda_obstructions(lam, p)
            assert by_int == by_residue
