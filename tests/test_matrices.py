"""The 2 x 2 factor, GL(2,p) enumeration, tensor coordinates and the action.

``Matrix`` is 2 x 2 with closed forms; ``oracles.GridMatrix`` is the
general matrix by elimination that checks them and carries the 2 x m grids
and m x m factors of the full product action."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbicert.errors import DimensionMismatch, ParameterTooLarge, Singular
import orbicert.matrices as matrices
from orbicert.matrices import (
    MAX_VERTICES,
    Matrix,
    digit_planes,
    gated_power,
    gl2_count,
    mat_inv,
    mat_mul,
    linear_vertex_map,
    num_vertices,
    product_image,
)

from oracles import (
    GridMatrix,
    LinPart,
    Tensor,
    ZeroTensor,
    decode_index,
    encode_array,
    encode_coords,
    gl2_enumerate,
    grid,
    grid_inv,
    grid_mul,
    kron_image,
    mat_rank,
    simple_factorize,
    tensor_apply,
)


def rand_invertible(n, p, rng):
    while True:
        m = GridMatrix(tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n)), p)
        if m.is_invertible():
            return m


def rand_gl2(p, rng):
    return Matrix(rand_invertible(2, p, rng).entries, p)


def test_mul_examples():
    p = 5
    a = Matrix(((1, 0), (0, -1)), p)
    b = Matrix(((0, 1), (1, 0)), p)
    assert mat_mul(Matrix.identity(p), a) == a
    assert mat_mul(a, b) == Matrix(((0, 1), (4, 0)), p)
    assert mat_mul(b, b) == Matrix.identity(p)


def test_mul_shape_errors():
    with pytest.raises(DimensionMismatch):
        grid_mul(GridMatrix(((1, 2),), 5), GridMatrix(((1, 2),), 5))
    with pytest.raises(DimensionMismatch):
        grid_mul(GridMatrix(((1,),), 5), GridMatrix(((1,),), 7))
    with pytest.raises(DimensionMismatch):
        mat_mul(Matrix.identity(5), Matrix.identity(7))


@pytest.mark.parametrize(
    "entries",
    [((1, 2),), ((1, 2, 3), (4, 5, 6)), ((1, 2), (3,)), ()],
    ids=["1x2", "2x3", "ragged", "empty"],
)
def test_a_matrix_is_2_by_2(entries):
    with pytest.raises(DimensionMismatch):
        Matrix(entries, 5)


def test_closed_forms_match_elimination_on_all_of_m2_f5():
    # det, inverse and product of every 2 x 2 matrix at p = 5 against the
    # oracle's elimination and general product
    p = 5
    every = [((a, b), (c, d)) for a, b, c, d in itertools.product(range(p), repeat=4)]
    right = random.Random(5).sample(every, 25)
    singular = 0
    for e in every:
        a, g = Matrix(e, p), GridMatrix(e, p)
        assert a.det() == g.det()
        assert a.is_invertible() == g.is_invertible() == (mat_rank(g) == 2)
        if g.is_invertible():
            assert mat_inv(a).entries == grid_inv(g).entries
        else:
            singular += 1
            with pytest.raises(Singular):
                mat_inv(a)
            with pytest.raises(Singular):
                grid_inv(g)
        for f in right:
            assert mat_mul(a, Matrix(f, p)).entries == grid_mul(g, GridMatrix(f, p)).entries
    assert singular == p**4 - gl2_count(p)


def test_inverse_examples():
    p = 5
    assert mat_inv(Matrix.identity(p)) == Matrix.identity(p)
    m = Matrix(((1, 1), (1, -1)), p)
    assert mat_inv(m) == Matrix(grid_inv(grid(m)).entries, p) == Matrix(((3, 3), (3, 2)), p)
    assert mat_inv(Matrix(((1, 0), (0, 2)), 7)) == Matrix(((1, 0), (0, 4)), 7)


def test_inverse_random_round_trip():
    rng = random.Random(7)
    for p, n in [(5, 2), (7, 3), (13, 4)]:
        for _ in range(25):
            m = rand_invertible(n, p, rng)
            assert grid_mul(m, grid_inv(m)) == GridMatrix.identity(n, p)
    for p in (5, 7, 13):
        for _ in range(25):
            a = rand_gl2(p, rng)
            assert a * mat_inv(a) == mat_inv(a) * a == Matrix.identity(p)


def test_singular_raises():
    with pytest.raises(Singular):
        mat_inv(Matrix(((1, 2), (2, 4)), 5))
    with pytest.raises(Singular):
        grid_inv(GridMatrix(((1, 2, 3), (2, 4, 6), (0, 0, 1)), 5))


def test_action_rejects_bad_inputs():
    p = 5
    x = Tensor.from_rows((1, 2), (3, 4), p)
    with pytest.raises(Singular):
        tensor_apply(Matrix(((1, 2), (2, 4)), p), GridMatrix.identity(2, p), x)
    with pytest.raises(DimensionMismatch):
        tensor_apply(Matrix.identity(p), GridMatrix.identity(3, p), x)
    with pytest.raises(DimensionMismatch):
        tensor_apply(Matrix.identity(7), GridMatrix.identity(2, 7), x)


def test_rank_examples():
    p = 5
    assert mat_rank(GridMatrix(((0, 0, 0), (0, 0, 0)), p)) == 0
    assert mat_rank(GridMatrix(((1, 0), (0, 0)), p)) == 1
    assert mat_rank(GridMatrix(((1, 0), (0, 1)), p)) == 2
    assert mat_rank(GridMatrix(((1, 2, 3), (2, 4, 6)), 7)) == 1


def test_gl2_enumeration_counts_and_uniqueness():
    for p in (3, 5):
        mats = list(gl2_enumerate(p))
        assert len(mats) == gl2_count(p) == (p * p - 1) * (p * p - p)
        assert len(set(mats)) == len(mats)
        for m in mats:
            mat_inv(m)  # every element invertible
    assert gl2_count(3) == 48
    assert gl2_count(5) == 480
    assert gl2_count(17) == 78336


def test_vertex_codec_round_trip():
    m, p = 2, 5
    for idx in range(num_vertices(m, p)):
        r1, r2 = decode_index(idx, m, p)
        assert encode_coords(r1 + r2, p) == idx
    # e1-row carries the low radix positions
    t = Tensor.from_rows((1, 0), (0, 0), p)
    assert t.index == 1
    t = Tensor.from_rows((0, 0), (1, 0), p)
    assert t.index == p**2


def test_tensor_apply_identity_and_frozen_example():
    p, m = 5, 3
    i2, im = Matrix.identity(p), GridMatrix.identity(m, p)
    x = Tensor.from_rows((1, 2, 3), (4, 0, 1), p)
    assert tensor_apply(i2, im, x) == x

    # (1,1) (x) w maps to (2,0) (x) w under [[1,1],[1,-1]] paired with identity
    w = (1, 3, 2)
    x = Tensor.simple((1, 1), w, p)
    a = Matrix(((1, 1), (1, -1)), p)
    assert tensor_apply(a, im, x) == Tensor.simple((2, 0), w, p)
    assert tensor_apply(a, im, x) == Tensor.simple((1, 0), tuple(2 * v % p for v in w), p)


def test_tensor_apply_inverse_round_trip():
    rng = random.Random(11)
    p, m = 5, 2
    for _ in range(100):
        a = rand_invertible(2, p, rng)
        b = rand_invertible(m, p, rng)
        x = Tensor.from_index(rng.randrange(num_vertices(m, p)), m, p)
        y = tensor_apply(a, b, x)
        assert tensor_apply(grid_inv(a), grid_inv(b), y) == x


def test_tensor_apply_is_right_action_exhaustive_p3():
    # all tensors, seeded matrix pairs; composition rule and rank invariance
    rng = random.Random(5)
    p, m = 3, 2
    pairs = [
        (rand_invertible(2, p, rng), rand_invertible(m, p, rng)) for _ in range(20)
    ]
    tensors = [Tensor.from_index(i, m, p) for i in range(num_vertices(m, p))]
    for a1, b1 in pairs[:5]:
        for a2, b2 in pairs[5:10]:
            comp_a, comp_b = grid_mul(a2, a1), grid_mul(b2, b1)
            for x in tensors:
                step = tensor_apply(a1, b1, tensor_apply(a2, b2, x))
                assert step == tensor_apply(comp_a, comp_b, x)
    for a, b in pairs:
        for x in tensors:
            assert tensor_apply(a, b, x).rank() == x.rank()


def _invertible(n: int, p: int):
    return (
        st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n)
        .map(lambda e: GridMatrix([e[i * n : (i + 1) * n] for i in range(n)], p))
        .filter(lambda a: a.is_invertible())
    )


def _gl2(p: int):
    return _invertible(2, p).map(lambda g: Matrix(g.entries, p))


@pytest.mark.parametrize("m, examples", [(2, 6), (3, 2)])
def test_kronecker_image_matches_the_scalar_action(m, examples):
    # the oracle's kron image of every vertex, against LinPart.apply on
    # Tensors, for a general (A, B): the action the package restricts to B = I
    p = 5
    planes = digit_planes(m, p)

    @settings(max_examples=examples, deadline=None, derandomize=True)
    @given(
        a=_gl2(p),
        b=_invertible(m, p).filter(lambda b: b != GridMatrix.identity(m, p)),
    )
    def check(a, b):
        lin = LinPart(a, b)
        expected = [
            lin.apply(Tensor.from_index(v, m, p)).index for v in range(planes.shape[1])
        ]
        assert np.array_equal(kron_image(planes, a, b, p), expected)

    check()


@pytest.mark.parametrize("m, p", [(2, 3), (2, 5), (3, 5), (2, 13), (4, 5)])
def test_plane_pair_image_matches_the_kron_oracle(m, p):
    # on every vertex, and on the strided plane slices hamming_witness reads
    planes, ident = digit_planes(m, p), GridMatrix.identity(m, p)

    @settings(max_examples=5, deadline=None, derandomize=True)
    @given(a=_gl2(p))
    def check(a):
        expected = kron_image(planes, a, ident, p)
        assert np.array_equal(product_image(planes, a, p), expected)
        assert np.array_equal(linear_vertex_map(a, m, p), expected)
        side = planes[:, 2 :: p**m]
        assert np.array_equal(product_image(side, a, p), kron_image(side, a, ident, p))

    check()


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_linear_vertex_map_matches_the_int64_oracle(p, m, all_coords):
    # the int32 plane-pair product against flat @ kron(a, I_m) in int64
    rng = random.Random(10 * p + m)
    flat = all_coords(m, p).reshape(-1, 2 * m)
    eye = np.eye(m, dtype=np.int64)
    for _ in range(3):
        a = rand_gl2(p, rng)
        expected = encode_array((flat @ np.kron(a.entries, eye)).reshape(-1, 2, m), p)
        assert np.array_equal(linear_vertex_map(a, m, p), expected)


def test_the_vertex_gate_stops_at_the_first_power_past_the_limit():
    # 3^12 <= 10^6 < 3^13: the refusal comes at the 13th multiplication,
    # whatever m is, and prints neither that power nor p^(2m)
    class Counted(int):
        products = 0

        def __rmul__(self, other):
            Counted.products += 1
            return int(other) * int(self)

    for m in (7, 3000, 10**9):
        Counted.products = 0
        with pytest.raises(ParameterTooLarge) as refusal:
            gated_power(Counted(3), 2 * m, m)
        assert Counted.products == 13
        message = str(refusal.value)
        assert "p^(2m)" in message and f"m = {m}" in message and str(3**13) not in message
    with pytest.raises(ParameterTooLarge, match=r"p\^m > 1000000 at p = 7, m = 40"):
        gated_power(7, 40, 40)
    # the limit itself is accepted
    assert gated_power(1000, 2, 1) == 10**6 == MAX_VERTICES
    assert [num_vertices(m, p) for m, p in [(1, 3), (2, 5), (3, 7), (6, 3)]] == [
        9,
        625,
        117649,
        531441,
    ]


def test_linear_vertex_map_at_the_largest_prime_under_the_vertex_gate():
    # m = 1, p = 997: p^2 = 994,009 vertices (1009^2 is over the gate),
    # every image digit a sum of two products of digits up to p - 1,
    # against kron(a, I_1) = a in int64
    p, m = 997, 1
    n = num_vertices(m, p)
    assert n <= MAX_VERTICES
    with pytest.raises(ParameterTooLarge):
        num_vertices(m, 1009)
    a = Matrix(((p - 1, p - 2), (p - 3, p - 1)), p)
    assert a.is_invertible()
    try:
        got = linear_vertex_map(a, m, p)
        # a bijection of the vertices
        seen = np.zeros(n, dtype=bool)
        seen[got] = True
        assert seen.all()
        # against int64 digits on every vertex; the last has all digits p - 1
        x = np.arange(n)
        digits = np.stack([x % p, x // p], axis=1)
        expected = encode_array((digits @ np.array(a.entries)).reshape(-1, 2, m), p)
        assert np.array_equal(got[x], expected)
    finally:
        matrices.digit_planes.cache_clear()  # the table is 4 MB


def test_simple_factorize_examples():
    p, m = 5, 3
    x = Tensor.simple((1, 0), (1, 0, 0), p)
    assert simple_factorize(x) == ((1, 0), (1, 0, 0))
    x = Tensor.simple((1, 2), (1, 1, 0), p)
    assert simple_factorize(x) == ((1, 2), (1, 1, 0))
    nonsimple = Tensor.from_rows((1, 0, 0), (0, 1, 0), p)
    assert simple_factorize(nonsimple) is None
    with pytest.raises(ZeroTensor):
        simple_factorize(Tensor.zero(m, p))


def test_factorize_iff_rank_at_most_one_exhaustive():
    m, p = 2, 5
    for idx in range(1, num_vertices(m, p)):
        x = Tensor.from_index(idx, m, p)
        vw = simple_factorize(x)
        if x.rank() <= 1:
            v, w = vw
            assert Tensor.simple(v, w, p) == x
            lead = v[0] if v[0] else v[1]
            assert lead == 1  # normalized direction
        else:
            assert vw is None


def test_tensor_wire_format():
    p = 13
    x = Tensor.from_rows((1, 2, 3), (4, 5, 6), p)
    assert x.to_json() == "[1, 2, 3, 4, 5, 6]"
    assert Tensor.from_json(x.to_json(), p) == x
    with pytest.raises(DimensionMismatch):
        Tensor.from_json("[1, 2]", p)


def test_tensor_arithmetic():
    p = 7
    x = Tensor.from_rows((1, 2), (3, 4), p)
    y = Tensor.from_rows((6, 6), (6, 6), p)
    assert (x + y) == Tensor.from_rows((0, 1), (2, 3), p)
    assert (x - x).is_zero()
    assert (-x) + x == Tensor.zero(2, p)
    assert x.scaled(2) == x + x
