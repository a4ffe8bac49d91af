"""Projection coordinates and the parallel-clique geometry."""

import dataclasses
import inspect
import random
import sys
from itertools import permutations

import numpy as np
import pytest

import orbicert.cliques as cliques
import orbicert.digraphs as digraphs
import orbicert.matrices as matrices
from orbicert.certify import delta_indices
from orbicert.cliques import (
    MuConfig,
    bruck_bound,
    pi_functional,
    projection_coeffs,
    verify_clique_axioms,
)
from orbicert.errors import DegenerateConfig, IndexOutOfRange, LemmaViolation, ParameterTooLarge
from orbicert.fields import fp_inv
from orbicert.matrices import digit_planes, num_vertices

from oracles import (
    CliqueId,
    Tensor,
    clique_identities_2m,
    delta_connection_set,
    delta_indices_coords,
    ell_clique,
    pi_projection,
    tensor_from_projections,
)


CFG5 = MuConfig(z=4, mus=(1, 2, 3, 4), m=2, p=5)
CFG7 = MuConfig(z=4, mus=(2, 3, 4, 5), m=2, p=7)
CFG13 = MuConfig(z=4, mus=(2, 6, 7, 11), m=2, p=13)
CFG17 = MuConfig(z=6, mus=(1, 2, 8, 9, 15, 16), m=2, p=17)
CFG7Z6 = MuConfig(z=6, mus=(1, 2, 3, 4, 5, 6), m=2, p=7)


def rand_tensor(cfg, rng):
    return Tensor.from_index(rng.randrange(num_vertices(cfg.m, cfg.p)), cfg.m, cfg.p)


def reconstruct(cfg, i, x):
    """Definition route: sum of the two direction blocks of the pair of i."""
    j = cfg.partner(i)
    a = pi_projection(x, i, cfg)
    b = pi_projection(x, j, cfg)
    return Tensor.simple((1, cfg.mu(i)), a, cfg.p) + Tensor.simple((1, cfg.mu(j)), b, cfg.p)


def test_config_validation():
    with pytest.raises(DegenerateConfig):
        MuConfig(z=4, mus=(1, 2, 3, 1), m=2, p=7)
    with pytest.raises(DegenerateConfig):
        MuConfig(z=5, mus=(1, 2, 3, 4, 5), m=2, p=7)
    with pytest.raises(DegenerateConfig):
        MuConfig(z=4, mus=(1, 2, 3), m=2, p=7)
    with pytest.raises(DegenerateConfig):
        MuConfig(z=4, mus=(1, 2, 3, 8), m=2, p=7)  # 8 = 1 mod 7
    for m in (1, 0):
        with pytest.raises(DegenerateConfig, match="m must be at least 2"):
            MuConfig(z=4, mus=(1, 2, 3, 4), m=m, p=7)
    cfg = MuConfig(z=6, mus=(1, 2, 8, 9, 15, 16), m=2, p=17)
    assert cfg.partner(3) == 4 and cfg.partner(6) == 5
    with pytest.raises(IndexOutOfRange):
        cfg.partner(7)


def test_projection_basis_cases():
    for cfg in (CFG5, CFG7, CFG13):
        zero = Tensor.zero(cfg.m, cfg.p)
        for i in cfg.index_set:
            assert pi_projection(zero, i, cfg) == (0,) * cfg.m
        w = (1, 2)
        x = Tensor.simple((1, cfg.mu(1)), w, cfg.p)
        assert pi_projection(x, 1, cfg) == w
        assert pi_projection(x, 2, cfg) == (0, 0)


def test_projection_reconstruction_random():
    rng = random.Random(23)
    for cfg in (CFG5, CFG7, CFG13):
        for _ in range(300):
            x = rand_tensor(cfg, rng)
            for i in (1, 3):
                assert reconstruct(cfg, i, x) == x
    for _ in range(300):
        x = rand_tensor(CFG17, rng)
        for i in (1, 3, 5):  # all three pairs of the six-slope configuration
            assert reconstruct(CFG17, i, x) == x


def test_projection_coeffs_across_pairs_z6():
    rng = random.Random(47)
    cfg, p = CFG17, 17
    for i, j, k in [(1, 3, 5), (5, 6, 1), (2, 5, 4), (6, 1, 3)]:
        k1, k2 = projection_coeffs(i, j, k, cfg)
        assert k1 != 0 and k2 != 0
        for _ in range(50):
            x = rand_tensor(cfg, rng)
            pk = pi_projection(x, k, cfg)
            pi = pi_projection(x, i, cfg)
            pj = pi_projection(x, j, cfg)
            assert pk == tuple((k1 * a + k2 * b) % p for a, b in zip(pi, pj))


def test_projection_coeffs_frozen_formula():
    # k=1 from sources (2, 3): ((mu4-mu2)/(mu1-mu4), (mu3-mu4)/(mu1-mu4))
    for cfg in (CFG5, CFG7, CFG13):
        p = cfg.p
        m1, m2, m3, m4 = cfg.mus
        dinv = fp_inv((m1 - m4) % p, p)
        expect = ((m4 - m2) * dinv % p, (m3 - m4) * dinv % p)
        assert projection_coeffs(2, 3, 1, cfg) == expect
        assert projection_coeffs(2, 3, 2, cfg) == (1, 0)
        assert projection_coeffs(2, 3, 3, cfg) == (0, 1)


def test_projection_coeffs_identity_random():
    rng = random.Random(29)
    cfg = CFG13
    p = cfg.p
    for i in cfg.index_set:
        for j in cfg.index_set:
            if i == j:
                continue
            for k in cfg.index_set:
                k1, k2 = projection_coeffs(i, j, k, cfg)
                if k not in (i, j):
                    assert k1 != 0 and k2 != 0
                for _ in range(25):
                    x = rand_tensor(cfg, rng)
                    pk = pi_projection(x, k, cfg)
                    pi = pi_projection(x, i, cfg)
                    pj = pi_projection(x, j, cfg)
                    assert pk == tuple(
                        (k1 * a + k2 * b) % p for a, b in zip(pi, pj)
                    )


def test_tensor_from_projections():
    rng = random.Random(37)
    for cfg in (CFG5, CFG13):
        p = cfg.p
        assert tensor_from_projections(1, 2, (0,) * cfg.m, (0,) * cfg.m, cfg).is_zero()
        w = (2, 3)
        assert tensor_from_projections(1, 2, w, (0, 0), cfg) == Tensor.simple(
            (1, cfg.mu(1)), w, p
        )
        for _ in range(200):
            x = rand_tensor(cfg, rng)
            i, j = rng.sample(list(cfg.index_set), 2)
            w = pi_projection(x, i, cfg)
            wq = pi_projection(x, j, cfg)
            assert tensor_from_projections(i, j, w, wq, cfg) == x


def test_ell_cliques():
    cfg = CFG5
    p, m = cfg.p, cfg.m
    rng = random.Random(41)
    for _ in range(50):
        x = rng.randrange(num_vertices(m, p))
        i = rng.choice(list(cfg.index_set))
        cl = ell_clique(CliqueId(i, x), cfg)
        assert len(cl) == p**m
        assert x in cl
        y = rng.choice(sorted(cl))
        assert ell_clique(CliqueId(i, y), cfg) == cl
        j = rng.choice([t for t in cfg.index_set if t != i])
        other = ell_clique(CliqueId(j, rng.randrange(num_vertices(m, p))), cfg)
        assert len(cl & other) == 1


def test_census_p5_exact(size_cliques):
    cfg = CFG5
    s = delta_connection_set(cfg)
    found = size_cliques(s, 25)
    assert len(found) == 100
    assert all(len(c) == 25 for c in found)
    expected = set()
    for i in cfg.index_set:
        for x in range(num_vertices(cfg.m, cfg.p)):
            expected.add(ell_clique(CliqueId(i, x), cfg))
    assert set(found) == expected


@pytest.mark.parametrize("cfg", [CFG5, CFG7, CFG7Z6], ids=["p5", "p7", "p7z6"])
def test_census_through_zero_is_the_full_census_at_zero(cfg, size_cliques, cliques_through_zero):
    s = delta_connection_set(cfg)
    qm = cfg.p**cfg.m
    full = size_cliques(s, qm)
    through_zero = cliques_through_zero(s, qm)
    assert len(through_zero) == cfg.z
    assert set(through_zero) == {c for c in full if 0 in c}


def test_census_depth_is_not_bounded_by_the_recursion_limit(cliques_through_zero):
    # a clique of p^m vertices must not nest p^m Python frames: at p = 31
    # that is near the default limit of 1000
    s = delta_connection_set(CFG7)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 20)
    try:
        found = cliques_through_zero(s, 49)
    finally:
        sys.setrecursionlimit(old)
    assert {ell_clique(CliqueId(i, 0), CFG7) for i in CFG7.index_set} == set(found)


def test_axioms_exhaustive_p5():
    out = verify_clique_axioms(CFG5)
    assert out["mode"] == "exhaustive"
    assert out["checks"]["clique_census"]["maximum_cliques"] == 100
    assert all(c["status"] == "pass" for c in out["checks"].values())
    assert out["connection_set_size"] == 96


def test_axioms_exhaustive_p13():
    out = verify_clique_axioms(CFG13, seed=7)
    assert out["mode"] == "exhaustive"
    assert all(
        c["mode"] == "exhaustive" and c["status"] == "pass" for c in out["checks"].values()
    )
    census = out["checks"]["clique_census"]
    assert census["maximum_cliques"] == 4 * 13**2 and census["clique_size"] == 169
    # the seed is echoed and changes nothing else
    again = verify_clique_axioms(CFG13)
    assert again["seed"] == 1729 and {**out, "seed": 1729} == again


def test_census_through_zero_p13(cliques_through_zero):
    found = cliques_through_zero(delta_connection_set(CFG13), 169)
    assert set(found) == {ell_clique(CliqueId(i, 0), CFG13) for i in CFG13.index_set}


def edge_of_block(cfg, k):
    """s_k = (e1 + mu_k e2) (x) e_1, vertex 1 + mu_k p^m."""
    return 1 + cfg.mu(k) * cfg.p**cfg.m


@pytest.mark.parametrize("cfg", [CFG5, CFG7, CFG7Z6, CFG13], ids=["p5", "p7", "p7z6", "p13"])
def test_the_census_through_one_edge_is_the_oracle_census_through_it(cfg, cliques_through_zero):
    s = delta_connection_set(cfg)
    qm = cfg.p**cfg.m
    oracle = cliques_through_zero(s, qm)
    for k in cfg.index_set:
        edge = edge_of_block(cfg, k)
        through = cliques_through_zero(s, qm, base=(edge,))
        assert set(through) == {c for c in oracle if edge in c}
        assert through == [ell_clique(CliqueId(cfg.partner(k), 0), cfg)]


def test_a_base_that_is_not_a_clique_with_zero_has_no_cliques(cliques_through_zero):
    s = delta_connection_set(CFG5)
    assert cliques_through_zero(s, 2, base=(0,)) == []  # 0 is not in S
    apart = [edge_of_block(CFG5, 1), edge_of_block(CFG5, 2)]  # different blocks
    assert apart[0] in s and apart[1] in s
    assert cliques_through_zero(s, 2, base=apart) == []


@pytest.mark.parametrize(
    "cfg", [CFG13, CFG17, MuConfig(z=4, mus=(1, 2, 3, 4), m=3, p=5)], ids=["p13", "p17", "p5m3"]
)
def test_the_verifier_builds_no_vertex_table(monkeypatch, cfg):
    def refuse(m, p):
        raise AssertionError("vertex table built")

    monkeypatch.setattr(matrices, "digit_planes", refuse)
    monkeypatch.setattr(digraphs, "digit_planes", refuse)
    out = verify_clique_axioms(cfg)
    assert all(c["status"] == "pass" for c in out["checks"].values())


def test_the_vertex_limit_refuses_before_a_block_is_built(monkeypatch):
    # 7^80 vertices: the gate refuses before any stage reads a projection
    def refuse(cfg, i):
        raise AssertionError("projection read")

    monkeypatch.setattr(cliques, "pi_functional", refuse)
    with pytest.raises(ParameterTooLarge):
        verify_clique_axioms(MuConfig(z=4, mus=(1, 2, 3, 4), m=40, p=7))


def test_ell_clique_refuses_a_representative_outside_the_vertices():
    for rep in (-1, 625):
        with pytest.raises(IndexOutOfRange):
            ell_clique(CliqueId(1, rep), CFG5)
    assert 624 in ell_clique(CliqueId(1, 624), CFG5)


# --- failures name their stage and a concrete counterexample


def use_functionals(monkeypatch, edit):
    """Make the verifier read the pi_i coefficients changed by
    ``edit(i, (alpha, beta))``."""
    real = cliques.pi_functional
    monkeypatch.setattr(cliques, "pi_functional", lambda cfg, i: edit(i, real(cfg, i)))


def pin_coefficients(monkeypatch, cfg):
    """Keep the relation coefficients of the true pair partners, whatever
    ``MuConfig.partner`` returns later."""
    real = {
        (i, j, k): projection_coeffs(i, j, k, cfg)
        for i, j in permutations(cfg.index_set, 2)
        for k in cfg.index_set
    }
    monkeypatch.setattr(cliques, "projection_coeffs", lambda i, j, k, cfg: real[i, j, k])


@pytest.mark.parametrize("cfg", [CFG5, CFG13], ids=["p5", "p13"])
def test_one_wrong_entry_of_pi_3_fails_the_relations(monkeypatch, cfg):
    # beta is row 1 of the factor P_3: rows m .. 2m - 1 of Pi_3, first
    # the basis vector e_m, vertex p^m.  The coefficients come from the
    # slopes, not from the functionals under check, so the relations fail
    # before the reconstruction of the pair (3, 4)
    use_functionals(monkeypatch, lambda i, ab: (ab[0], ab[1] + 1) if i == 3 else ab)
    with pytest.raises(LemmaViolation) as err:
        verify_clique_axioms(cfg)
    assert err.value.lemma == "projection-relations"
    assert 3 in err.value.counterexample["triple"]
    assert err.value.counterexample["vertex"] == cfg.p**cfg.m


def test_reconstruction_failure_in_the_second_row_names_a_vertex(monkeypatch):
    # swapping pi_1 and pi_2 keeps every map linear and r1 = pi_1 + pi_2
    # right; only r2 = mu_1 pi_1 + mu_2 pi_2 is wrong
    use_functionals(monkeypatch, lambda i, ab: pi_functional(CFG5, {1: 2, 2: 1}.get(i, i)))
    with pytest.raises(LemmaViolation) as err:
        verify_clique_axioms(CFG5)
    assert err.value.lemma == "reconstruction"
    assert err.value.counterexample["pair"] == (1, 2)
    x = err.value.counterexample["vertex"]
    assert x in 5 ** np.arange(4)  # a basis vector e_k
    e = Tensor.from_index(x, 2, 5)
    a, b = pi_projection(e, 1, CFG5), pi_projection(e, 2, CFG5)
    r1, r2 = e.row1, e.row2
    assert all((u + v) % 5 == r for u, v, r in zip(a, b, r1))
    assert any((2 * u + v) % 5 != r for u, v, r in zip(a, b, r2))


@pytest.mark.parametrize(
    "perturb, lemma",
    [
        (lambda k1, k2: ((k1 + 1) % 5, k2), "projection-relations"),
        (lambda k1, k2: (0, k2), "projection-relations-nonzero"),
    ],
)
def test_a_wrong_relation_coefficient_fails_the_relations(monkeypatch, perturb, lemma):
    real = cliques.projection_coeffs

    def coeffs(i, j, k, cfg):
        k1, k2 = real(i, j, k, cfg)
        return perturb(k1, k2) if (i, j, k) == (2, 3, 1) else (k1, k2)

    monkeypatch.setattr(cliques, "projection_coeffs", coeffs)
    with pytest.raises(LemmaViolation) as err:
        verify_clique_axioms(CFG5)
    assert err.value.lemma == lemma
    assert err.value.counterexample["triple"] == (2, 3, 1)


def test_a_missing_pair_of_s_fails_adjacency(monkeypatch):
    # pi_1 stays right, but S's block at the slope mu_3 of a wrong partner
    # is taken as ker pi_1, so a pair of S, +-s_3, has pi_1 != 0
    s3 = edge_of_block(CFG5, 3)
    assert pi_projection(Tensor.from_index(s3, 2, 5), 1, CFG5) != (0, 0)
    pin_coefficients(monkeypatch, CFG5)
    real = {i: pi_functional(CFG5, i) for i in CFG5.index_set}
    monkeypatch.setattr(cliques, "pi_functional", lambda cfg, i: real[i])
    monkeypatch.setattr(MuConfig, "partner", lambda self, i: {1: 3, 3: 1}.get(i, i))
    with pytest.raises(LemmaViolation) as err:
        verify_clique_axioms(CFG5)
    assert err.value.lemma == "adjacency-shared-projection"
    assert err.value.counterexample == {"kernel": 1, "vertex": s3}


def swap_slopes(i, j):
    """pi_functional of the slopes with mu_i and mu_j exchanged."""

    def mutate(monkeypatch, cfg):
        mus = list(cfg.mus)
        mus[i - 1], mus[j - 1] = mus[j - 1], mus[i - 1]
        swapped = dataclasses.replace(cfg, mus=tuple(mus))
        monkeypatch.setattr(cliques, "pi_functional", lambda c, k: pi_functional(swapped, k))

    return mutate


def wrong_partner(monkeypatch, cfg):
    """Pair 1 with 3 where the kernel of pi_i is read, the functionals kept."""
    pin_coefficients(monkeypatch, cfg)
    real = {i: pi_functional(cfg, i) for i in cfg.index_set}
    monkeypatch.setattr(cliques, "pi_functional", lambda c, i: real[i])
    monkeypatch.setattr(MuConfig, "partner", lambda self, i: {1: 3, 3: 1}.get(i, i))


def changed_coefficient(monkeypatch, cfg):
    def coeffs(i, j, k, c):
        k1, k2 = projection_coeffs(i, j, k, c)
        return ((k1 + 1) % c.p, k2) if (i, j, k) == (2, 3, 1) else (k1, k2)

    monkeypatch.setattr(cliques, "projection_coeffs", coeffs)


# name -> (mutation, the stage it fails)
CLIQUE_MUTATIONS = {
    "valid": (None, None),
    "swapped-slope-1-2": (swap_slopes(1, 2), "reconstruction"),
    # pi_3 and pi_4 are exchanged; the coefficients come from the true slopes
    "swapped-slope-3-4": (swap_slopes(3, 4), "projection-relations"),
    "wrong-partner": (wrong_partner, "adjacency-shared-projection"),
    "changed-coefficient": (changed_coefficient, "projection-relations"),
}
# m in {2, 3, 4} wherever the vertex gate, p^(2m) <= 10^7, allows it
FACTOR_CONFIGS = [
    dataclasses.replace(cfg, m=m)
    for cfg, ms in [
        (CFG5, (2, 3, 4)),
        (CFG7, (2, 3, 4)),
        (CFG7Z6, (2, 3, 4)),
        (CFG13, (2, 3)),
        (CFG17, (2,)),
    ]
    for m in ms
]


def factor_verdict(cfg):
    try:
        verify_clique_axioms(cfg)
    except LemmaViolation as exc:
        return exc.lemma, exc.counterexample
    return None


@pytest.mark.parametrize("mutation", list(CLIQUE_MUTATIONS))
def test_the_factor_check_names_what_the_2m_oracle_names(monkeypatch, mutation):
    mutate, stage = CLIQUE_MUTATIONS[mutation]
    for cfg in FACTOR_CONFIGS:
        with monkeypatch.context() as mp:
            if mutate:
                mutate(mp, cfg)
            expected = clique_identities_2m(cfg)
            assert factor_verdict(cfg) == expected, cfg
        assert (expected and expected[0]) == stage, cfg


CFG13Z6 = MuConfig(z=6, mus=(1, 2, 3, 4, 5, 6), m=2, p=13)


@pytest.mark.parametrize(
    "cfg", [CFG5, CFG7, CFG7Z6, CFG13, CFG13Z6], ids=["p5", "p7", "p7z6", "p13", "p13z6"]
)
def test_the_direction_blocks_are_the_kernels_of_the_projections(cfg):
    # on the vertices: S, built from the rows [w | mu_i w], is the union of
    # the kernels of the pi_i minus 0, so x ~ 0 iff some pi_i(x) = 0
    p, m = cfg.p, cfg.m
    planes = digit_planes(m, p).astype(np.int64)
    vanish = np.zeros(planes.shape[1], dtype=bool)
    for i in cfg.index_set:
        alpha, beta = pi_functional(cfg, i)
        vanish |= ((alpha * planes[:m] + beta * planes[m:]) % p == 0).all(axis=0)
    kernels = np.flatnonzero(vanish)[1:]
    assert np.array_equal(delta_indices(cfg), kernels)
    assert kernels.size == verify_clique_axioms(cfg)["connection_set_size"]


@pytest.mark.parametrize(
    "p, m, mus",
    [
        (5, 2, (1, 2, 3, 4)),
        (5, 2, (0, 4, 2, 3)),
        (7, 2, (2, 3, 4, 5)),
        (7, 2, (0, 1, 2, 3, 4, 5)),
        (13, 2, (2, 6, 7, 11)),
        (13, 2, (1, 12, 5, 8, 3, 10)),
        (5, 3, (1, 2, 3, 4)),
        (7, 3, (6, 5, 4, 3)),
    ],
)
def test_delta_indices_is_the_coordinate_oracle(p, m, mus):
    # the blocks as images of the rows [w | 0] under ((1, mu), (0, 1)) (x)
    # I_m, against the rows [w | mu w] built as coordinates
    cfg = MuConfig(z=len(mus), mus=mus, m=m, p=p)
    assert np.array_equal(delta_indices(cfg), delta_indices_coords(cfg))


@pytest.mark.parametrize("cfg", [CFG5, CFG7Z6], ids=["p5", "p7z6"])
def test_a_bound_at_the_clique_size_fails_the_census(monkeypatch, cfg):
    qm = cfg.p**cfg.m
    monkeypatch.setattr(cliques, "bruck_bound", lambda z: qm - 1)
    assert verify_clique_axioms(cfg)["checks"]["clique_census"]["status"] == "pass"
    monkeypatch.setattr(cliques, "bruck_bound", lambda z: qm)
    with pytest.raises(LemmaViolation) as err:
        verify_clique_axioms(cfg)
    assert err.value.lemma == "clique-census"
    assert err.value.counterexample == {"clique_size": qm, "bruck_bound": qm}


def test_at_m_1_a_clique_of_line_size_need_not_be_a_line(cliques_through_zero):
    # MuConfig refuses m = 1, so the six slope lines of F_7^2 are built by
    # hand: the vertex (a, b) is a + 7 b, and its direction is b / a.  Two
    # vertices are adjacent iff they differ in both coordinates, so a
    # 7-clique through 0 is the graph of a permutation of F_7 fixing 0:
    # 6! of them, of which only the 6 lines b = mu a are lines.  Here
    # p^m = 7 <= 25 = bruck_bound(6), and the bound's hypothesis fails.
    p = 7
    lines = [frozenset(a + (mu * a % p) * p for a in range(p)) for mu in range(1, p)]
    s = digraphs.ConnectionSet(sorted(set().union(*lines) - {0}), 1, p)
    found = cliques_through_zero(s, p)
    assert len(found) == 720 and all(len(c) == p for c in found)
    assert set(lines) < set(found)
    assert p <= bruck_bound(6)
