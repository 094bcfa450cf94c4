"""Dense substrate: sigma blocks, products, Hadamard, determinant, block form."""

import operator

import numpy as np
import pytest

from polysigma import ArityError, BlockCyclicMatrix, DomainError, ValidationError
from polysigma.matrices import (
    check_factor_count,
    cyclic_fold,
    det,
    hadamard,
    hermitian,
    mat_mul,
    sigma,
    trace,
)
from polysigma.su2 import random_su2_params

from conftest import assert_close


def test_sigma_literals():
    assert_close(sigma(0), np.eye(2))
    assert_close(sigma(1), [[0, 1], [1, 0]])
    assert_close(sigma(2), [[0, -1j], [1j, 0]])
    assert_close(sigma(3), [[1, 0], [0, -1]])


def test_sigma_invalid_index():
    with pytest.raises(DomainError):
        sigma(4)
    with pytest.raises(DomainError):
        sigma(-1)


@pytest.mark.parametrize("j", [0, 1, 2, 3])
def test_sigma_squares_to_identity(j):
    assert_close(mat_mul(sigma(j), sigma(j)), np.eye(2), 0.0)


def test_sigma_product_rule():
    assert_close(mat_mul(sigma(1), sigma(2)), 1j * sigma(3), 0.0)


def test_commutation_relations_exact():
    # [s_j, s_k] = 2i eps_jkl s_l and {s_j, s_k} = 2 delta_jk I, exactly
    from polysigma import levi_civita

    for j in (1, 2, 3):
        for k in (1, 2, 3):
            comm = sigma(j) @ sigma(k) - sigma(k) @ sigma(j)
            anti = sigma(j) @ sigma(k) + sigma(k) @ sigma(j)
            expected_comm = np.zeros((2, 2), dtype=complex)
            for l in (1, 2, 3):
                expected_comm += 2j * levi_civita(j, k, l) * sigma(l)
            assert_close(comm, expected_comm, 0.0)
            assert_close(anti, (2.0 if j == k else 0.0) * np.eye(2), 0.0)


def test_mat_mul_identity_and_mismatch(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert_close(mat_mul(np.eye(4), a), a, 0.0)
    with pytest.raises(DomainError):
        mat_mul(np.eye(3), a)


def test_mat_mul_associative(rng):
    a, b, c = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(3))
    assert_close(mat_mul(mat_mul(a, b), c), mat_mul(a, mat_mul(b, c)), 1e-12)


def test_hermitian_involution_and_sigma2(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert_close(hermitian(hermitian(a)), a, 0.0)
    assert_close(hermitian(sigma(2)), sigma(2), 0.0)


def test_hermitian_unitarity_of_su2_block(rng):
    for _ in range(20):
        m = random_su2_params(rng).block()
        assert_close(mat_mul(hermitian(m), m), np.eye(2), 1e-12)
        assert_close(mat_mul(m, hermitian(m)), np.eye(2), 1e-12)


def test_hadamard_ones_and_commutativity(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert_close(hadamard(a, np.ones((4, 4))), a, 0.0)
    assert_close(hadamard(a, b), hadamard(b, a), 1e-15)
    with pytest.raises(DomainError):
        hadamard(a, np.ones((2, 2)))


def test_hadamard_parameter_pattern_reproduces_scalar_part(rng):
    # the all-ones-block parameter pattern times the identity-pattern full
    # matrix gives exactly the x0 part of the element
    from polysigma.sigma_algebra import FullSigma, ParamBlockMatrix
    from polysigma.su2 import PolyadicSU2Element

    e = PolyadicSU2Element.random(rng, 3)
    x0s = tuple(p.x0 for p in e.params)
    x0_part = BlockCyclicMatrix(3, tuple(p.x0 * np.eye(2) for p in e.params))
    got = hadamard(ParamBlockMatrix(3, 0, x0s).dense(), FullSigma(3, 0).dense())
    assert_close(got, x0_part.dense(), 0.0)


def test_det_identity_and_law(rng):
    assert det(np.eye(4)) == pytest.approx(1.0)
    for _ in range(25):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert abs(det(a @ b) - det(a) * det(b)) <= 1e-10


def test_det_of_block_cyclic_su2(rng):
    # unit-determinant blocks give determinant +1 at every arity
    for n in (3, 4, 5):
        blocks = tuple(random_su2_params(rng).block() for _ in range(n - 1))
        d = det(BlockCyclicMatrix(n, blocks).dense())
        assert abs(d - 1.0) <= 1e-10
        assert abs(d - np.linalg.det(BlockCyclicMatrix(n, blocks).dense())) <= 1e-10


def test_trace_of_block_cyclic_is_zero(rng):
    blocks = tuple(random_su2_params(rng).block() for _ in range(2))
    assert abs(trace(BlockCyclicMatrix(3, blocks).dense())) == 0.0


def test_det_singular():
    a = np.zeros((3, 3), dtype=complex)
    assert det(a) == 0


def test_block_roundtrip(rng):
    blocks = tuple(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
    m = BlockCyclicMatrix(4, blocks)
    back = BlockCyclicMatrix.from_dense(m.dense(), 4)
    for a, b in zip(m.blocks, back.blocks):
        assert_close(a, b, 0.0)


#: block s of a cyclic-shift matrix at (block row, block column), written out
PLACEMENT = {
    4: [(0, 1), (1, 2), (2, 0)],
    5: [(0, 1), (1, 2), (2, 3), (3, 0)],
}


@pytest.mark.parametrize("n", sorted(PLACEMENT))
def test_dense_places_block_s_at_s_plus_one(rng, n):
    # distinct blocks, so a transposed or reversed shift cannot pass
    blocks = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
              for _ in range(n - 1)]
    want = np.zeros((2 * (n - 1), 2 * (n - 1)), dtype=complex)
    for b, (r, c) in zip(blocks, PLACEMENT[n]):
        want[2 * r:2 * r + 2, 2 * c:2 * c + 2] = b
    m = BlockCyclicMatrix(n, tuple(blocks))
    assert m.dense().tobytes() == want.tobytes()
    back = BlockCyclicMatrix.from_dense(want, n)
    assert all(np.array_equal(a, b) for a, b in zip(back.blocks, blocks))


def test_cyclic_fold_multiplies_block_s_plus_t_of_factor_t():
    # string concatenation does not commute, so the order is pinned too
    factors = [["a0", "a1", "a2"], ["b0", "b1", "b2"], ["c0", "c1", "c2"],
               ["d0", "d1", "d2"]]
    assert cyclic_fold(factors, operator.add) == [
        "a0b1c2d0", "a1b2c0d1", "a2b0c1d2"]
    assert cyclic_fold([["x", "y"]], operator.add) == ["x", "y"]


def test_check_factor_count():
    for n, ok in ((2, range(2, 11)), (3, (3, 5, 7, 9)), (4, (4, 7, 10))):
        for count in range(1, 11):
            if count in ok:
                check_factor_count(count, n)
            else:
                with pytest.raises(ArityError, match=rf"^a {n}-ary product takes "
                                   rf"l\*{n - 1}\+1 factors, got {count}$"):
                    check_factor_count(count, n)


def test_from_dense_rejects_off_pattern():
    bad = np.ones((4, 4), dtype=complex)
    with pytest.raises(DomainError):
        BlockCyclicMatrix.from_dense(bad, 3)
    nan = BlockCyclicMatrix(3, (np.eye(2), np.eye(2))).dense()
    nan[0, 0] = np.nan  # block (0, 0) is off the pattern at n = 3
    with pytest.raises(DomainError):
        BlockCyclicMatrix.from_dense(nan, 3)


def test_block_count_validation():
    with pytest.raises(ValidationError):
        BlockCyclicMatrix(3, (np.eye(2),))
    with pytest.raises(ValidationError):
        BlockCyclicMatrix(3, (np.eye(2), np.eye(3)))


def test_blocks_are_immutable():
    m = BlockCyclicMatrix(3, (np.eye(2), np.eye(2)))
    with pytest.raises(ValueError):
        m.blocks[0][0, 0] = 5.0
