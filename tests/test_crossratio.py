"""Cross-ratio arithmetic, the 24-permutation table, dihedral collineations."""

import itertools
import random

import pytest

import orbicert.crossratio as crossratio
from orbicert.crossratio import (
    PERMUTATION_ROWS,
    check_v4_collineations,
    fractional_action,
    lambda_quad,
    permute_quad,
    verify_table1,
)
from orbicert.errors import (
    InvalidConfig,
    LemmaViolation,
    ParameterTooLarge,
    TableViolation,
)
from orbicert.matrices import Matrix

from oracles import (
    DegenerateQuad,
    cross_ratio,
    klein_four_classifier,
    lambda_quad_cross_ratio,
    permuted_cross_ratio,
)


def test_cross_ratio_frozen_values():
    # ((2-0)(3-1)) / ((2-1)(3-0)) = 4/3 = 6 over GF(7)
    assert cross_ratio((0, 1, 2, 3), 7) == 6
    for p in (5, 7, 13):
        for t in range(2, p):
            assert cross_ratio((p, 0, 1, t), p) == t  # code p is infinity


def test_cross_ratio_of_direction_quadruple():
    for p in (5, 7, 13, 17):
        for lam in range(1, p):
            if pow(lam, 4, p) in (0, 1):
                continue
            quad = lambda_quad(lam, p)
            assert len(set(quad)) == 4
            got = cross_ratio(quad, p)
            assert got == lambda_quad_cross_ratio(lam, p)


def test_degenerate_quads_raise():
    with pytest.raises(DegenerateQuad):
        cross_ratio((0, 0, 1, 2), 7)
    with pytest.raises(DegenerateQuad):
        cross_ratio((7, 7, 1, 2), 7)


def test_cross_ratio_avoids_special_values():
    p = 11
    for quad in itertools.permutations(range(5), 4):
        r = cross_ratio(quad, p)
        assert r not in (0, 1, p)


def test_permuted_cross_ratio_rows():
    p, r = 13, 5
    assert permuted_cross_ratio((0, 1, 2, 3), r, p) == r
    # swapping the first two labels inverts
    from orbicert.fields import fp_inv

    assert permuted_cross_ratio((1, 0, 2, 3), r, p) == fp_inv(r, p)
    # the 3-cycle through labels 0, 1, 3 gives 1/(1-r)
    assert permuted_cross_ratio((1, 3, 2, 0), r, p) == fp_inv((1 - r) % p, p)


def test_the_table_rows_at_one_generic_quadruple_mod_101():
    # one rational check per permutation pins each row
    p, quad = 101, (0, 1, 3, 10)
    r = cross_ratio(quad, p)
    for sigma, row in PERMUTATION_ROWS.items():
        direct = cross_ratio(permute_quad(sigma, quad), p)
        assert direct == permuted_cross_ratio(sigma, r, p), sigma


def test_table_is_complete_and_consistent():
    assert len(PERMUTATION_ROWS) == 24
    p = 13
    quad = (0, 2, 3, 7)
    r = cross_ratio(quad, p)
    for sigma in itertools.permutations(range(4)):
        direct = cross_ratio(permute_quad(sigma, quad), p)
        assert direct == permuted_cross_ratio(sigma, r, p)


def test_verify_table1_small():
    out = verify_table1(5)
    assert out["quads_checked"] == 6 * 5 * 4 * 3
    assert out["status"] == "pass"


@pytest.mark.parametrize("p", [5, 7, 11])
def test_the_frame_verdict_is_the_all_quadruple_verdict(monkeypatch, p, table1_all_quadruples):
    count = table1_all_quadruples(p)
    assert verify_table1(p)["quads_checked"] == count == (p + 1) * p * (p - 1) * (p - 2)
    # one wrong row: 1/r in place of 1 - r for the transposition of Q and R
    rows = {**PERMUTATION_ROWS, (0, 2, 1, 3): "1/r"}
    monkeypatch.setattr(crossratio, "PERMUTATION_ROWS", rows)
    for check in (verify_table1, table1_all_quadruples):
        with pytest.raises(TableViolation) as err:
            check(p)
        assert err.value.sigma == (0, 2, 1, 3)


def test_table1_counterexamples_write_infinity_as_inf(monkeypatch):
    # the frames are (inf, 0, 1, x), codes (p, 0, 1, x); a wrong row for the
    # transposition of Q and R fails at the first of them
    rows = {**PERMUTATION_ROWS, (0, 2, 1, 3): "1/r"}
    monkeypatch.setattr(crossratio, "PERMUTATION_ROWS", rows)
    with pytest.raises(TableViolation) as err:
        verify_table1(7)
    assert err.value.quad == ("inf", 0, 1, 2)
    monkeypatch.setattr(crossratio, "PERMUTATION_ROWS", PERMUTATION_ROWS)
    # infinity lifted as the slope 0: every frame has cross-ratio 1
    real = crossratio.homogeneous
    monkeypatch.setattr(crossratio, "homogeneous", lambda k, p: real(0 if k == p else k, p))
    with pytest.raises(LemmaViolation) as err:
        verify_table1(7)
    assert err.value.lemma == "table1-cross-ratio"
    assert err.value.counterexample == {"quad": ("inf", 0, 1, 2), "cross_ratio": 1}


def test_verify_table1_refuses_a_prime_over_the_scan_ceiling(monkeypatch):
    # 10007 is the first prime above 10^4: refused before the line is built
    def no_line(k, p):
        raise AssertionError("projective line built")

    monkeypatch.setattr(crossratio, "homogeneous", no_line)
    with pytest.raises(ParameterTooLarge, match="10007"):
        verify_table1(10007)


def test_fractional_action_and_invariance():
    rng = random.Random(43)
    p = 13
    line = range(p + 1)
    for _ in range(500):
        quad = rng.sample(line, 4)
        while True:
            mat = Matrix(
                ((rng.randrange(p), rng.randrange(p)), (rng.randrange(p), rng.randrange(p))),
                p,
            )
            if mat.is_invertible():
                break
        moved = tuple(fractional_action(mat, t, p) for t in quad)
        assert cross_ratio(moved, p) == cross_ratio(tuple(quad), p)


def test_six_value_orbit():
    from orbicert.fields import fp_inv

    p = 13
    for r0 in range(2, p):
        if r0 in (0, 1):
            continue
        seen = set()
        frontier = {r0}
        while frontier:
            r = frontier.pop()
            seen.add(r)
            for nxt in (fp_inv(r, p), (1 - r) % p):
                if nxt not in seen and nxt not in (0, 1):
                    frontier.add(nxt)
        assert len(seen) <= 6


def test_klein_four_classifier():
    assert klein_four_classifier((0, 1, 2, 3))
    assert klein_four_classifier((1, 0, 3, 2))
    assert klein_four_classifier((2, 3, 0, 1))
    assert klein_four_classifier((3, 2, 1, 0))
    assert not klein_four_classifier((1, 0, 2, 3))
    count = sum(
        klein_four_classifier(s) for s in itertools.permutations(range(4))
    )
    assert count == 4


def test_v4_collineations_all_primes():
    for p in (3, 5, 7, 13, 17):
        if p < 7:
            # every fourth power is 1 mod 3 and mod 5, so no nondegenerate
            # quadruple: refused, not passed with nothing checked
            with pytest.raises(InvalidConfig, match="degenerate"):
                check_v4_collineations(p)
            continue
        out = check_v4_collineations(p)
        assert out["status"] == "pass"
        assert out["instances_checked"] > 0
