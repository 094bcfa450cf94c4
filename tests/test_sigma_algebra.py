"""Sigma-matrix constructors, expansions, and the ternary rule calculus."""

import functools
from itertools import product

import numpy as np
import pytest

from polysigma import ArityError, DomainError
from polysigma.sigma_algebra import (
    ElementarySigma,
    FullSigma,
    HetSigma,
    ParamBlockMatrix,
    elementary,
    elementary_outer,
    elementary_product,
    expand,
    expansion_dense,
    full,
    hadamard_decompose,
    hadamard_reconstruct,
    het,
    het_count_arrangements,
    het_count_enumerated,
    het_labels,
    levi_civita,
    mul_sigma_indices,
    nary_power,
    quarter_unit,
    reduce_sigma_word,
    rule_rows_elementary,
    rule_rows_full,
    ternary_anticommutator,
    ternary_commutator,
    ternary_full_product,
    ternary_triple_elementary,
)
from polysigma.su2 import PolyadicSU2Element, nary_product, identity_element
from polysigma.matrices import sigma

from conftest import assert_close, sigma_pair_dense, sigma_triple_dense


# ---------------------------------------------------------------------------
# kernel


def test_levi_civita_values():
    assert levi_civita(1, 2, 3) == 1
    assert levi_civita(2, 1, 3) == -1
    assert levi_civita(1, 1, 2) == 0


def test_kernel_exact_against_dense():
    # every sigma word up to length 4, exactly
    for length in (1, 2, 3, 4):
        for js in product(range(4), repeat=length):
            j, quarter = reduce_sigma_word(js)
            dense = np.eye(2, dtype=complex)
            for k in js:
                dense = dense @ sigma(k)
            assert_close(dense, quarter_unit(quarter) * sigma(j), 0.0)


def test_pair_rule_against_formal_sum():
    for k, l in product((1, 2, 3), repeat=2):
        j, quarter = mul_sigma_indices(k, l)
        assert_close(sigma_pair_dense(k, l), quarter_unit(quarter) * sigma(j), 0.0)


def test_kernel_rejects_bad_index():
    with pytest.raises(DomainError):
        reduce_sigma_word((1, 5))


# ---------------------------------------------------------------------------
# constructors


def test_elementary_ternary_layouts():
    s1 = elementary(3, 2, 1).dense()
    s2 = elementary(3, 2, 2).dense()
    expected1 = np.zeros((4, 4), dtype=complex)
    expected1[0:2, 2:4] = sigma(2)
    expected2 = np.zeros((4, 4), dtype=complex)
    expected2[2:4, 0:2] = sigma(2)
    assert_close(s1, expected1, 0.0)
    assert_close(s2, expected2, 0.0)


def test_elementary_position_out_of_range():
    with pytest.raises(DomainError):
        elementary(3, 1, 3)
    with pytest.raises(DomainError):
        elementary(3, 1, 0)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_elementary_nilpotent(n):
    for j in range(4):
        for k in range(1, n):
            d = elementary(n, j, k).dense()
            p = np.eye(2 * (n - 1), dtype=complex)
            for _ in range(n):
                p = p @ d
            assert np.abs(p).max() == 0.0


def test_elementary_sum_of_index0_is_identity():
    for n in (3, 4, 5):
        total = sum(elementary(n, 0, k).dense() for k in range(1, n))
        assert_close(total, identity_element(n).dense(), 0.0)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_outer_product_construction_agrees(n):
    for j in range(4):
        for k in range(1, n):
            assert elementary_outer(n, j, k).allclose(elementary(n, j, k), 0.0)


def test_full_layouts():
    f = full(3, 1).dense()
    expected = np.zeros((4, 4), dtype=complex)
    expected[0:2, 2:4] = sigma(1)
    expected[2:4, 0:2] = sigma(1)
    assert_close(f, expected, 0.0)
    f4 = full(4, 2).dense()
    expected4 = np.zeros((6, 6), dtype=complex)
    expected4[0:2, 2:4] = sigma(2)
    expected4[2:4, 4:6] = sigma(2)
    expected4[4:6, 0:2] = sigma(2)
    assert_close(f4, expected4, 0.0)


def test_full_is_sum_of_elementaries():
    for n in (3, 4):
        for j in range(4):
            total = sum(elementary(n, j, k).dense() for k in range(1, n))
            assert_close(full(n, j).dense(), total, 0.0)


def test_het_reduces_to_full_and_counts():
    assert het(3, (2, 2)).allclose(full(3, 2), 0.0)
    assert len(het_labels(3)) == het_count_enumerated(3) == 16
    assert het_count_arrangements(3) == 16
    # the two counting formulas diverge at higher arity; we report the
    # enumerated one
    assert het_count_enumerated(4) == 64
    assert het_count_arrangements(4) == 81
    assert HetSigma(4, (1, 1, 1)).is_homogeneous()


# ---------------------------------------------------------------------------
# expansion and Hadamard split


def test_expand_identity():
    from polysigma.su2 import SU2Params

    e = PolyadicSU2Element(4, (SU2Params(1.0, (0, 0, 0)),) * 3)
    terms = expand(e)
    nonzero = [(c, u) for c, u in terms if c != 0]
    assert all(u.j == 0 and c == 1.0 for c, u in nonzero)
    assert_close(expansion_dense(terms, 4), identity_element(4).dense(), 0.0)


def test_expand_reconstructs_exactly(rng):
    e = PolyadicSU2Element.random(rng, 3)
    assert_close(expansion_dense(expand(e), 3), e.matrix().dense(), 0.0)


def test_expand_locality(rng):
    from polysigma.su2 import SU2Params, random_su2_params

    e = PolyadicSU2Element.random(rng, 4)
    perturbed = list(e.params)
    perturbed[1] = random_su2_params(rng)
    e2 = PolyadicSU2Element(4, tuple(perturbed))
    t1, t2 = expand(e), expand(e2)
    for (c1, u1), (c2, u2) in zip(t1, t2):
        assert u1 == u2
        if u1.k != 2:
            assert c1 == c2


def test_hadamard_decomposition_reconstructs(rng):
    for n in (3, 4):
        e = PolyadicSU2Element.random(rng, n)
        xs, fulls = hadamard_decompose(e)
        got = hadamard_reconstruct(xs, fulls)
        assert np.abs(got - e.matrix().dense()).max() == 0.0


def test_hadamard_decomposition_scalar_only(rng):
    from polysigma.su2 import SU2Params

    e = PolyadicSU2Element(3, (SU2Params(1, (0, 0, 0)), SU2Params(-1, (0, 0, 0))))
    xs, fulls = hadamard_decompose(e)
    assert xs[0].xs == (1.0, -1.0)
    for j in (1, 2, 3):
        assert np.abs(xs[j].dense()).max() == 0.0


def test_param_block_matrix_slots(rng):
    x = ParamBlockMatrix(3, 2, (0.25, -0.5))
    d = x.dense()
    assert_close(d[0:2, 2:4], 0.25 * np.ones((2, 2)), 0.0)
    assert_close(d[2:4, 0:2], -0.5 * np.ones((2, 2)), 0.0)


# ---------------------------------------------------------------------------
# powers and ternary products


def test_nary_power_laws():
    assert nary_power(FullSigma(3, 2), 3) == FullSigma(3, 2)   # ternary idempotent
    assert nary_power(FullSigma(3, 0), 3) == FullSigma(3, 0)
    assert nary_power(FullSigma(4, 1), 4) == FullSigma(4, 0)   # quaternary reflection
    assert nary_power(FullSigma(5, 3), 5) == FullSigma(5, 3)
    assert nary_power(FullSigma(3, 1), 5) == FullSigma(3, 1)
    with pytest.raises(ArityError):
        nary_power(FullSigma(3, 1), 4)


def test_identity_absorbs_in_full_products():
    # n-1 identities and one full matrix reproduce the full matrix
    for n in (3, 4):
        e = identity_element(n)
        for j in range(4):
            got = nary_product([e] * (n - 1) + [full(n, j)], n)
            assert got.allclose(full(n, j), 0.0)


def test_ternary_triple_elementary_examples():
    r = ternary_triple_elementary(
        ElementarySigma(3, 1, 1), ElementarySigma(3, 2, 2), ElementarySigma(3, 3, 1)
    )
    assert not r.is_zero and r.element == ElementarySigma(3, 0, 1) and r.quarter == 1
    r = ternary_triple_elementary(
        ElementarySigma(3, 1, 1), ElementarySigma(3, 1, 2), ElementarySigma(3, 2, 1)
    )
    assert r.element == ElementarySigma(3, 2, 1) and r.quarter == 0
    r = ternary_triple_elementary(
        ElementarySigma(3, 1, 1), ElementarySigma(3, 2, 1), ElementarySigma(3, 3, 1)
    )
    assert r.is_zero


def test_elementary_triples_exhaustive_against_dense():
    units = [ElementarySigma(3, j, k) for j in range(4) for k in (1, 2)]
    for a, b, c in product(units, repeat=3):
        got = ternary_triple_elementary(a, b, c)
        dense = a.dense() @ b.dense() @ c.dense()
        assert_close(got.dense(arity=3), dense, 0.0)


def test_alternating_rule_formal_sums():
    # position patterns (1,2,1) and (2,1,2) against the delta/eps sum
    for pat in ((1, 2, 1), (2, 1, 2)):
        for k, l, m in product((1, 2, 3), repeat=3):
            got = ternary_triple_elementary(
                ElementarySigma(3, k, pat[0]),
                ElementarySigma(3, l, pat[1]),
                ElementarySigma(3, m, pat[2]),
            )
            block = sigma_triple_dense(k, l, m)
            dense = np.zeros((4, 4), dtype=complex)
            if pat[0] == 1:
                dense[0:2, 2:4] = block
            else:
                dense[2:4, 0:2] = block
            assert_close(got.dense(arity=3), dense, 0.0)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_elementary_product_beyond_ternary(n, rng):
    # every tuple of 1 factor; of n factors, chaining tuples from each start
    # and random tuples, which mostly do not chain.  A product of c cyclic-
    # shift matrices shifts by c blocks, so only counts l*(n-1)+1 give a
    # shift by one, as the result does; a count of 2 is refused
    m = n - 1
    units = [ElementarySigma(n, j, k) for j in range(4) for k in range(1, n)]
    with pytest.raises(ArityError):
        elementary_product(units[:2])
    for count in (1, n):
        tuples = ([[u] for u in units] if count == 1 else
                  [[ElementarySigma(n, int(j), (k + t) % m + 1) for t, j in enumerate(js)]
                   for k in range(m) for js in rng.integers(4, size=(64, count))]
                  + [[units[i] for i in rng.integers(len(units), size=count)]
                     for _ in range(256)])
        for factors in tuples:
            got = elementary_product(factors)
            want = functools.reduce(np.matmul, [f.dense() for f in factors])
            assert_close(got.dense(arity=n), want, 0.0)


def test_elementary_product_of_no_factors_is_refused():
    # there is no first factor to take the arity from, and no empty product
    with pytest.raises(ArityError, match="at least one factor, got 0"):
        elementary_product([])


def test_ternary_full_product_examples():
    r = ternary_full_product(FullSigma(3, 1), FullSigma(3, 2), FullSigma(3, 0))
    assert (r.element.j, r.quarter) == (3, 1)
    r = ternary_full_product(FullSigma(3, 0), FullSigma(3, 0), FullSigma(3, 2))
    assert (r.element.j, r.quarter) == (2, 0)
    r = ternary_full_product(FullSigma(3, 1), FullSigma(3, 2), FullSigma(3, 3))
    assert (r.element.j, r.quarter) == (0, 1)


def test_ternary_full_product_exhaustive_against_dense():
    for k, l, m in product(range(4), repeat=3):
        got = ternary_full_product(FullSigma(3, k), FullSigma(3, l), FullSigma(3, m))
        dense = full(3, k).dense() @ full(3, l).dense() @ full(3, m).dense()
        assert_close(got.dense(), dense, 0.0)


def test_ternary_full_rule_formal_sum():
    # nonzero indices: delta/eps sum lifted to full matrices
    for k, l, m in product((1, 2, 3), repeat=3):
        got = ternary_full_product(FullSigma(3, k), FullSigma(3, l), FullSigma(3, m))
        block = sigma_triple_dense(k, l, m)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0:2, 2:4] = block
        expected[2:4, 0:2] = block
        assert_close(got.dense(), expected, 0.0)


# ---------------------------------------------------------------------------
# ternary (anti)commutators


def _elem(j, k):
    return ElementarySigma(3, j, k)


def test_commutator_of_full_matrices():
    for k, l, m in product((1, 2, 3), repeat=3):
        got = ternary_commutator(FullSigma(3, k), FullSigma(3, l), FullSigma(3, m))
        expected = 6j * levi_civita(k, l, m) * full(3, 0).dense()
        assert_close(got, expected, 0.0)


def test_anticommutator_of_full_matrices():
    for k, l, m in product((1, 2, 3), repeat=3):
        got = ternary_anticommutator(FullSigma(3, k), FullSigma(3, l), FullSigma(3, m))
        expected = np.zeros((4, 4), dtype=complex)
        if k == l:
            expected += 2 * full(3, m).dense()
        if k == m:
            expected += 2 * full(3, l).dense()
        if l == m:
            expected += 2 * full(3, k).dense()
        assert_close(got, expected, 0.0)


def test_commutator_of_elementary_patterns():
    # mixed-position commutators are proportional to the index-0 unit
    for pos in ((1, 1, 2), (1, 2, 1), (2, 1, 1)):
        for k, l, m in product((1, 2, 3), repeat=3):
            got = ternary_commutator(_elem(k, pos[0]), _elem(l, pos[1]), _elem(m, pos[2]))
            expected = 2j * levi_civita(k, l, m) * elementary(3, 0, 1).dense()
            assert_close(got, expected, 0.0)
    for pos in ((2, 2, 1), (2, 1, 2), (1, 2, 2)):
        for k, l, m in product((1, 2, 3), repeat=3):
            got = ternary_commutator(_elem(k, pos[0]), _elem(l, pos[1]), _elem(m, pos[2]))
            expected = 2j * levi_civita(k, l, m) * elementary(3, 0, 2).dense()
            assert_close(got, expected, 0.0)


def test_anticommutator_of_elementary_patterns():
    # sign pattern depends on which argument sits at the other position
    cases = {
        (1, 1, 2): (-1, +1, +1), (1, 2, 1): (+1, -1, +1), (2, 1, 1): (+1, +1, -1),
        (2, 2, 1): (-1, +1, +1), (2, 1, 2): (+1, -1, +1), (1, 2, 2): (+1, +1, -1),
    }
    for pos, (skl, skm, slm) in cases.items():
        out_pos = 1 if pos.count(1) == 2 else 2
        for k, l, m in product((1, 2, 3), repeat=3):
            got = ternary_anticommutator(_elem(k, pos[0]), _elem(l, pos[1]), _elem(m, pos[2]))
            expected = np.zeros((4, 4), dtype=complex)
            if k == l:
                expected += 2 * skl * elementary(3, m, out_pos).dense()
            if k == m:
                expected += 2 * skm * elementary(3, l, out_pos).dense()
            if l == m:
                expected += 2 * slm * elementary(3, k, out_pos).dense()
            assert_close(got, expected, 0.0)


def test_commutator_antisymmetry_and_anticommutator_symmetry(rng):
    ops = [_elem(int(rng.integers(4)), int(rng.integers(1, 3))) for _ in range(3)]
    c0 = ternary_commutator(*ops)
    assert_close(ternary_commutator(ops[1], ops[0], ops[2]), -c0, 0.0)
    assert_close(ternary_commutator(ops[0], ops[2], ops[1]), -c0, 0.0)
    a0 = ternary_anticommutator(*ops)
    for perm in ((1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)):
        assert_close(ternary_anticommutator(*(ops[i] for i in perm)), a0, 0.0)


def test_homogeneous_commutators_vanish():
    # same-position commutators are zero (no chaining pattern survives)
    for k, l, m in product((1, 2, 3), repeat=3):
        got = ternary_commutator(_elem(k, 1), _elem(l, 1), _elem(m, 1))
        assert np.abs(got).max() == 0.0


# ---------------------------------------------------------------------------
# restricted (equal-block) subgroup and rule dumps


def test_restricted_subgroup_closure(rng):
    from polysigma.su2 import random_su2_params

    for n in (3, 4):
        ps = [random_su2_params(rng) for _ in range(n)]
        mats = [PolyadicSU2Element.restricted(p, n).matrix() for p in ps]
        prod = nary_product(mats, n)
        for b in prod.blocks[1:]:
            assert_close(b, prod.blocks[0], 1e-12)


def test_rule_rows():
    fr = rule_rows_full()
    assert len(fr) == 64
    assert ("1 2 3", "F0", 1) in fr
    er = rule_rows_elementary()
    assert len(er) == 512
    assert ("1.1 2.2 3.1", "E0.1", 1) in er
    zero_rows = [r for r in er if r[1] == "Z"]
    assert len(zero_rows) == 512 - 2 * 64
