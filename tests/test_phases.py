"""Phase-shifted finite structures: labels, multiplication rules, builders."""

import dataclasses
import functools
import hashlib
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

from polysigma import ArityError, DomainError, ValidationError, cli, oracle, phases
from polysigma.matrices import sigma
from polysigma.oracle import family_context
from polysigma.phases import (
    Q12,
    ElementaryLabel,
    FullLabel,
    HetLabel,
    PauliLabel,
    ZeroLabel,
    build_elementary_semigroup,
    build_full_group,
    build_het_group,
    build_pauli_group,
    check_modulus,
    elementary_labels,
    elementary_nary_mul,
    full_identity,
    full_labels,
    full_nary_mul,
    full_querelement,
    het_identity,
    het_nary_mul,
    het_order_claimed,
    het_order_enumerated,
    het_phased_labels,
    het_querelement,
    het_querelement_general,
    levi_civita_phase,
    nary_element_order,
    pauli_element_order,
    pauli_identity,
    pauli_inverse,
    pauli_labels,
    pauli_mul,
    root_of_unity,
)
from polysigma.sigma_algebra import levi_civita

from conftest import assert_close, phase, phased_sigma_word_dense, traced_peak


# ---------------------------------------------------------------------------
# moduli and phases


def test_q12_set():
    assert len(Q12) == 12
    for q in Q12:
        assert 360 % q == 0 and q % 4 == 0
    # every divisor of 360 that is a multiple of 4 is present
    divisors = [d for d in range(1, 361) if 360 % d == 0 and d % 4 == 0]
    assert tuple(divisors) == Q12


@pytest.mark.parametrize("bad", [2, 5, 16, 90, 361, 0])
def test_modulus_rejected(bad):
    with pytest.raises(DomainError):
        check_modulus(bad)


def test_family_size_refuses_a_label_count_numpy_cannot_index():
    # het (16, 4) has 16^15 = 2^60 labels, het (17, 4) 2^64: counted, never
    # enumerated
    assert phases.family_size("het", 16, 4) == (16, 2 ** 60)
    assert np.iinfo(np.intp).max < 2 ** 64
    with pytest.raises(DomainError, match=f"^{2 ** 64} labels are too many to enumerate "
                                          rf"\(at most {np.iinfo(np.intp).max}\)$"):
        phases.family_size("het", 17, 4)


@pytest.mark.parametrize("n", [9, 12])
def test_enumeration_beyond_physical_memory_is_refused(monkeypatch, n):
    # het (9, 4) has 16^8 labels and het (12, 4) 16^11; their indices and
    # codes alone take 309 GB and 1.7 PB as int64.  They are counted, and
    # on a host of 64 GiB their enumeration is refused by arithmetic alone
    order = 16 ** (n - 1)
    assert phases.family_size("het", n, 4) == (n, order)
    sysconf = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2 ** 24}
    monkeypatch.setattr(phases.os, "sysconf", sysconf.__getitem__)
    with pytest.raises(DomainError, match=f"^enumerating {order} labels takes at least "
                                          f"{8 * order * n} bytes, more than the "
                                          f"{2 ** 36} bytes of physical memory$"):
        phases._check_enumerable(order, n - 1)
    phases._check_enumerable(16 ** 4, 4)  # het (5, 4) fits


def test_root_of_unity_exact_quarters():
    assert root_of_unity(0, 4) == 1
    assert root_of_unity(1, 4) == 1j
    assert root_of_unity(2, 4) == -1
    assert root_of_unity(3, 4) == -1j
    assert root_of_unity(90, 360) == 1j
    assert abs(root_of_unity(1, 360) - np.exp(2j * np.pi / 360)) <= 1e-15


def test_levi_civita_phase():
    assert levi_civita_phase(1, 2, 3, 4) == (1, 0)
    assert levi_civita_phase(2, 1, 3, 4) == (1, 2)     # q/2
    assert levi_civita_phase(2, 1, 3, 360) == (1, 180)
    assert levi_civita_phase(1, 1, 2, 4) == (0, 0)
    with pytest.raises(DomainError):
        levi_civita_phase(0, 1, 2, 4)


@pytest.mark.parametrize("n, placement", [
    (4, [(0, 1), (1, 2), (2, 0)]),
    (5, [(0, 1), (1, 2), (2, 3), (3, 0)]),
])
def test_lower_slots_places_slot_s_at_s_plus_one(n, placement):
    # slot s at (block row, block column) written out; the slots are distinct,
    # so a transposed or reversed shift cannot pass
    q = 4
    js, rs = (1, 2, 3, 0)[:n - 1], (1, 3, 0, 2)[:n - 1]
    want = np.zeros((2 * (n - 1), 2 * (n - 1)), dtype=complex)
    for j, r, (row, col) in zip(js, rs, placement):
        want[2 * row:2 * row + 2, 2 * col:2 * col + 2] = phase(r, q) * sigma(j)
    codes = [j * q + r for j, r in zip(js, rs)]
    assert phases.lower_slots(codes, n, q).tobytes() == want.tobytes()
    assert HetLabel(q, n, js, rs).dense().tobytes() == want.tobytes()
    # a single slot fills every block
    one = phases.lower_slots([codes[0]], n, q)
    assert one.tobytes() == FullLabel(q, n, js[0], rs[0]).dense().tobytes()
    assert one.tobytes() == phases.lower_slots([codes[0]] * (n - 1), n, q).tobytes()


# ---------------------------------------------------------------------------
# binary phase-shifted sigma matrices


def test_pauli_label_validation():
    with pytest.raises(DomainError):
        PauliLabel(5, 0, 0)
    with pytest.raises(ValidationError):
        PauliLabel(4, 0, 4)


def test_pauli_mul_examples():
    assert pauli_mul(PauliLabel(4, 1, 0), PauliLabel(4, 2, 0)) == PauliLabel(4, 3, 1)
    a = PauliLabel(4, 2, 3)
    assert pauli_mul(pauli_identity(4), a) == a
    assert pauli_mul(a, pauli_identity(4)) == a
    assert pauli_mul(PauliLabel(8, 1, 3), PauliLabel(8, 1, 3)) == PauliLabel(8, 0, 6)


def test_pauli_mul_mismatched_q():
    with pytest.raises(DomainError):
        pauli_mul(PauliLabel(4, 1, 0), PauliLabel(8, 1, 0))


def test_pauli_closed_form_against_formal_rule():
    # nonzero indices: delta term, or the third index with shift
    # q/4 + (q/4)(1 - eps)
    for q in (4, 12):
        for k, l in product((1, 2, 3), repeat=2):
            for rk, rl in ((0, 0), (1, q - 1), (q // 2, 3)):
                got = pauli_mul(PauliLabel(q, k, rk % q), PauliLabel(q, l, rl % q))
                if k == l:
                    expected = PauliLabel(q, 0, (rk + rl) % q)
                else:
                    m = 6 - k - l
                    eps = levi_civita(k, l, m)
                    expected = PauliLabel(
                        q, m, (rk + rl + q // 4 + (q // 4) * (1 - eps)) % q
                    )
                assert got == expected


@pytest.mark.parametrize("q", [4, 8])
def test_pauli_mul_dense_exhaustive(q):
    labels = pauli_labels(q)
    assert len(labels) == 4 * q
    for a, b in product(labels, repeat=2):
        got = pauli_mul(a, b)
        assert_close(a.dense() @ b.dense(), got.dense(), 1e-12)


def test_pauli_inverse_and_order():
    for q in (4, 8):
        e = pauli_identity(q)
        for a in pauli_labels(q):
            assert pauli_mul(a, pauli_inverse(a)) == e
            assert pauli_mul(pauli_inverse(a), a) == e
            assert pauli_element_order(a) >= 1


def test_build_pauli_group_orders():
    assert build_pauli_group(4).order == 16
    assert build_pauli_group(8).order == 32
    r = build_pauli_group(4)
    assert r.passed and r.closure_exhaustive and r.assoc_exhaustive
    assert r.identity == "s0r0"
    assert r.order_histogram == {"1": 1, "2": 7, "4": 8}


def test_build_pauli_group_sampled_mode():
    r = build_pauli_group(12, mode="sample", closure_samples=2000, assoc_samples=2000)
    assert r.order == 48 and r.passed
    assert not r.closure_exhaustive


# ---------------------------------------------------------------------------
# elementary semigroup


def test_elementary_label_count():
    for n, q in ((3, 4), (3, 8), (4, 4)):
        labels = elementary_labels(n, q)
        assert len(labels) == 4 * q * (n - 1) + 1
        assert isinstance(labels[-1], ZeroLabel)


def test_elementary_mul_example():
    got = elementary_nary_mul(
        [ElementaryLabel(4, 3, 1, 1, 0),
         ElementaryLabel(4, 3, 2, 2, 0),
         ElementaryLabel(4, 3, 3, 1, 0)],
        3,
    )
    assert got == ElementaryLabel(4, 3, 0, 1, 1)


def test_elementary_zero_absorbs():
    z = ZeroLabel(4, 3)
    a = ElementaryLabel(4, 3, 1, 1, 0)
    b = ElementaryLabel(4, 3, 2, 2, 0)
    for factors in ([z, a, b], [a, z, b], [a, b, z], [z, z, z]):
        assert elementary_nary_mul(factors, 3) == z


def test_elementary_non_chaining_is_zero():
    a = ElementaryLabel(4, 3, 1, 1, 0)
    assert elementary_nary_mul([a, a, a], 3) == ZeroLabel(4, 3)


def test_elementary_mul_errors():
    a = ElementaryLabel(4, 3, 1, 1, 0)
    with pytest.raises(ArityError):
        elementary_nary_mul([a, a], 3)
    with pytest.raises(DomainError):
        elementary_nary_mul([a, a, ElementaryLabel(8, 3, 1, 2, 0)], 3)


def test_elementary_ternary_rule_formal_sum():
    # the alternating-position rule as a formal matrix sum: delta terms with
    # the plain phase sum, the k=m term with an extra q/2, the permutation
    # term with q/4 + (q/4)(1-eps), all on the first factor's position
    for q in (4, 8):
        for k, l, m in product((1, 2, 3), repeat=3):
            for rk, rl, rm in ((0, 0, 0), (1, 2, 3), (q - 1, q - 1, 1)):
                for pat in ((1, 2, 1), (2, 1, 2)):
                    got = elementary_nary_mul(
                        [ElementaryLabel(q, 3, k, pat[0], rk),
                         ElementaryLabel(q, 3, l, pat[1], rl),
                         ElementaryLabel(q, 3, m, pat[2], rm)],
                        3,
                    )
                    rsum = rk + rl + rm
                    expected = np.zeros((2, 2), dtype=complex)
                    if k == l:
                        expected += phase(rsum, q) * sigma(m)
                    if l == m:
                        expected += phase(rsum, q) * sigma(k)
                    if k == m:
                        expected += phase(rsum + q // 2, q) * sigma(l)
                    eps = levi_civita(k, l, m)
                    if eps:
                        expected += phase(
                            rsum + q // 4 + (q // 4) * (1 - eps), q
                        ) * sigma(0)
                    full_expected = np.zeros((4, 4), dtype=complex)
                    if pat[0] == 1:
                        full_expected[0:2, 2:4] = expected
                    else:
                        full_expected[2:4, 0:2] = expected
                    # exact at q=4 (quarter phases); one ulp of trig at q=8
                    assert_close(got.dense(), full_expected,
                                 0.0 if q == 4 else 1e-15)


def test_build_elementary_semigroup_orders():
    assert build_elementary_semigroup(3, 4).order == 33
    r8 = build_elementary_semigroup(
        3, 8, mode="sample", closure_samples=3000, assoc_samples=3000
    )
    assert r8.order == 65
    r44 = build_elementary_semigroup(
        4, 4, mode="sample", closure_samples=3000, assoc_samples=3000
    )
    assert r44.order == 49
    assert r8.passed and r44.passed


def test_elementary_semigroup_report_fields():
    r = build_elementary_semigroup(3, 4)
    assert r.querelement is None and r.identity is None
    assert r.closure_exhaustive and r.closure_checked == 33 ** 3
    assert r.order_histogram["none"] == 32 and r.order_histogram["1"] == 1


# ---------------------------------------------------------------------------
# full group


def test_full_mul_examples():
    assert full_nary_mul(
        [FullLabel(4, 3, 1, 0), FullLabel(4, 3, 2, 0), FullLabel(4, 3, 3, 0)], 3
    ) == FullLabel(4, 3, 0, 1)
    a = FullLabel(4, 3, 2, 3)
    e = full_identity(3, 4)
    assert full_nary_mul([e, e, a], 3) == a
    assert full_nary_mul(
        [FullLabel(4, 3, 1, 1)] * 3, 3
    ) == FullLabel(4, 3, 1, 3)
    with pytest.raises(ArityError):
        full_nary_mul([a, a], 3)


def test_full_five_factor_product():
    a = FullLabel(4, 3, 1, 1)
    got = full_nary_mul([a] * 5, 3)
    assert got == FullLabel(4, 3, 1, (5 * 1) % 4)


def test_full_ternary_rule_formal_sum():
    for q in (4, 12):
        for k, l, m in product(range(4), repeat=3):
            for rs in ((0, 0, 0), (1, 2, q - 1)):
                labels = [FullLabel(q, 3, j, r) for j, r in zip((k, l, m), rs)]
                got = full_nary_mul(labels, 3)
                dense = labels[0].dense() @ labels[1].dense() @ labels[2].dense()
                assert_close(got.dense(), dense, 1e-12)


def test_full_querelement_phase_law():
    # the defining relation with n-1 repeats forces phase (2-n)*r; involutive
    # at r=0 for the ternary case
    qel = full_querelement(FullLabel(4, 3, 2, 0))
    assert qel == FullLabel(4, 3, 2, 0)
    qel = full_querelement(FullLabel(4, 3, 1, 1))
    assert qel == FullLabel(4, 3, 1, 3)
    # even arity: sigma part flips to the identity index
    qel = full_querelement(FullLabel(4, 4, 2, 0))
    assert qel == FullLabel(4, 4, 0, 0)
    qel = full_querelement(FullLabel(4, 4, 1, 1))
    assert qel == FullLabel(4, 4, 0, 2)


@pytest.mark.parametrize("n,q", [(3, 4), (3, 8), (4, 4)])
def test_full_querelement_defining_relation(n, q):
    for a in full_labels(n, q):
        qa = full_querelement(a)
        for pos in range(n):
            factors = [a] * n
            factors[pos] = qa
            assert full_nary_mul(factors, n) == a


def test_full_querelement_dense_oracle():
    for a in full_labels(3, 4):
        qa = full_querelement(a)
        da, dq = a.dense(), qa.dense()
        for pos in range(3):
            mats = [da] * 3
            mats[pos] = dq
            assert_close(mats[0] @ mats[1] @ mats[2], da, 1e-12)


def test_build_full_group_orders():
    r = build_full_group(3, 4)
    assert r.order == 16 and r.passed
    assert r.closure_exhaustive and r.closure_checked == 4096
    assert r.assoc_exhaustive and r.assoc_samples == 16 ** 5
    assert r.querelement and r.querelement_checked == 48
    r12 = build_full_group(3, 12, mode="sample",
                           closure_samples=3000, assoc_samples=3000)
    assert r12.order == 48 and r12.passed


# ---------------------------------------------------------------------------
# heterogeneous group


def test_het_counts():
    assert het_order_enumerated(3, 4) == 256
    assert het_order_claimed(3, 4) == 1048576
    assert len(het_phased_labels(3, 4)) == 256


def test_het_mul_worked_example():
    # the triple [h(1,2), h(1,2), h(3,3)] lands on the identity indices with
    # phases (1, 3): top word 1,2,3 gives +i, bottom word 2,1,3 gives -i
    a = HetLabel(4, 3, (1, 2), (0, 0))
    c = HetLabel(4, 3, (3, 3), (0, 0))
    got = het_nary_mul([a, a, c], 3)
    assert got == HetLabel(4, 3, (0, 0), (1, 3))
    # with the middle factor's slots swapped the words become 1,1,3 and 2,2,3
    b = HetLabel(4, 3, (2, 1), (0, 0))
    assert het_nary_mul([a, b, c], 3) == HetLabel(4, 3, (3, 3), (0, 0))


def test_het_identity_law():
    e = het_identity(3, 4)
    assert het_nary_mul([e, e, e], 3) == e
    a = HetLabel(4, 3, (1, 3), (2, 1))
    assert het_nary_mul([e, e, a], 3) == a
    assert het_nary_mul([a, e, e], 3) == a


def test_het_blockwise_against_word_oracle():
    # each output block is the reduced phased word of the cycled factor blocks
    rng = np.random.default_rng(3)
    for _ in range(200):
        labs = [
            HetLabel(4, 3, tuple(rng.integers(0, 4, 2)), tuple(rng.integers(0, 4, 2)))
            for _ in range(3)
        ]
        got = het_nary_mul(labs, 3)
        top = phased_sigma_word_dense(
            (labs[0].js[0], labs[1].js[1], labs[2].js[0]),
            (labs[0].rs[0], labs[1].rs[1], labs[2].rs[0]), 4)
        bottom = phased_sigma_word_dense(
            (labs[0].js[1], labs[1].js[0], labs[2].js[1]),
            (labs[0].rs[1], labs[1].rs[0], labs[2].rs[1]), 4)
        assert_close(phase(got.rs[0], 4) * sigma(got.js[0]), top, 0.0)
        assert_close(phase(got.rs[1], 4) * sigma(got.js[1]), bottom, 0.0)


def _het_case_formula_block(js, rs, q):
    """Independent transcription of the ternary case formulas: a phased
    delta/eps sum for the 3-factor sigma word in one block slot."""
    k1, k2, k3 = js
    rsum = sum(rs)
    out = np.zeros((2, 2), dtype=complex)
    nz = [j for j in js if j != 0]
    if len(nz) == 3:
        if k1 == k2:
            out += phase(rsum, q) * sigma(k3)
        if k1 == k3:
            out += phase(rsum + q // 2, q) * sigma(k2)
        if k2 == k3:
            out += phase(rsum, q) * sigma(k1)
        eps = levi_civita(k1, k2, k3)
        if eps:
            out += phase(rsum + (q // 4) * (2 - eps), q) * sigma(0)
    elif len(nz) == 2:
        a, b = nz
        if a == b:
            out += phase(rsum, q) * sigma(0)
        for m in (1, 2, 3):
            eps = levi_civita(a, b, m)
            if eps:
                out += phase(rsum + (q // 4) * (2 - eps), q) * sigma(m)
    elif len(nz) == 1:
        out += phase(rsum, q) * sigma(nz[0])
    else:
        out += phase(rsum, q) * sigma(0)
    return out


def test_het_ternary_case_formulas():
    # all four index cases (no zeros / one zero per slot / two zeros):
    # exhaustive over the sigma-index choices, with fixed and seeded phases
    q = 4
    rng = np.random.default_rng(11)
    js_choices = list(product(range(4), repeat=2))
    for ja, jb, jc in product(js_choices, repeat=3):
        rs = [(0, 0), (0, 0), (0, 0)]
        if rng.integers(2):
            rs = [tuple(rng.integers(0, q, 2)) for _ in range(3)]
        labs = [HetLabel(q, 3, j, r) for j, r in zip((ja, jb, jc), rs)]
        got = het_nary_mul(labs, 3)
        top = _het_case_formula_block(
            (labs[0].js[0], labs[1].js[1], labs[2].js[0]),
            (labs[0].rs[0], labs[1].rs[1], labs[2].rs[0]), q)
        bottom = _het_case_formula_block(
            (labs[0].js[1], labs[1].js[0], labs[2].js[1]),
            (labs[0].rs[1], labs[1].rs[0], labs[2].rs[1]), q)
        assert_close(phase(got.rs[0], q) * sigma(got.js[0]), top, 0.0)
        assert_close(phase(got.rs[1], q) * sigma(got.js[1]), bottom, 0.0)


def test_het_querelement_closed_form():
    a = HetLabel(4, 3, (1, 2), (1, 2))
    qa = het_querelement(a)
    assert qa == HetLabel(4, 3, (2, 1), (2, 3))
    e = het_identity(3, 4)
    assert het_querelement(e) == e
    # double application returns the original
    for lab in het_phased_labels(3, 4):
        assert het_querelement(het_querelement(lab)) == lab
        assert het_querelement(lab) == het_querelement_general(lab)


def test_het_querelement_is_dense_inverse():
    for lab in het_phased_labels(3, 4):
        assert_close(het_querelement(lab).dense(), np.linalg.inv(lab.dense()), 1e-12)


def test_het_querelement_wrong_arity():
    with pytest.raises(DomainError):
        het_querelement(HetLabel(4, 4, (1, 2, 3), (0, 0, 0)))


def test_het_querelement_general_arity_4():
    rng = np.random.default_rng(9)
    for _ in range(50):
        a = HetLabel(4, 4, tuple(rng.integers(0, 4, 3)), tuple(rng.integers(0, 4, 3)))
        qa = het_querelement_general(a)
        for pos in range(4):
            factors = [a] * 4
            factors[pos] = qa
            assert het_nary_mul(factors, 4) == a


def test_nary_element_order_het():
    # identity-index labels with phase 0 are idempotent
    assert nary_element_order(het_identity(3, 4), het_nary_mul, 3, cap=16) == 1


def test_build_het_group_report():
    r = build_het_group(3, 4, mode="sample", closure_samples=4000,
                        assoc_samples=4000)
    assert r.order == 256
    assert r.paper_claimed_order == 1048576
    assert not r.order_matches_paper
    assert r.querelement and r.passed
    assert not r.sampled  # the whole label set was enumerated


def test_build_het_group_sampled_elements_is_pinned():
    # above element_cap the element-wise checks run on quer_samples seeded
    # labels; the subset fixes every count and the histogram below
    r = build_het_group(4, 4, mode="sample", closure_samples=2000,
                        assoc_samples=2000, element_cap=1000, quer_samples=64)
    assert r.to_dict() == {
        "assoc": True, "assoc_exhaustive": False, "assoc_samples": 2000,
        "closure": True, "closure_checked": 2000, "closure_exhaustive": False,
        "closure_max_deviation": 0.0, "family": "het", "identity": "h0.0.0r0.0.0",
        "n": 4, "order": 4096, "order_histogram": {"1": 7, "2": 24, "4": 33},
        "order_matches_paper": False, "paper_claimed_order": 5308416,
        "passed": True, "q": 4, "querelement": True, "querelement_checked": 256,
        "sampled": True, "seed": 42, "tolerance": 1e-12,
    }


def test_element_order_cap_exhaustion_is_an_error(monkeypatch):
    # an element still stepping at the cap has no order yet; it must not be
    # counted with the absorbed ones
    spec = dataclasses.replace(phases._STRUCTURES["full"], hist_cap=lambda order, q: 1)
    monkeypatch.setitem(phases._STRUCTURES, "full", spec)
    with pytest.raises(AssertionError, match="exceed the cap 1"):
        build_full_group(3, 4)


@pytest.mark.parametrize("build", [
    lambda: build_pauli_group(8), lambda: build_elementary_semigroup(3, 4),
    lambda: build_full_group(3, 8), lambda: build_het_group(3, 4),
], ids=["pauli-q8", "elementary-n3-q4", "full-n3-q8", "het-n3-q4"])
def test_element_slices_keep_the_report(monkeypatch, build):
    # 7 divides none of the 32, 33, 32 and 256 elements, so each family
    # ends on a short slice
    want = build().to_dict()
    monkeypatch.setattr(phases, "_ELEMENT_SLICE", 7)
    assert build().to_dict() == want


def test_element_slices_each_judge_their_querelements(monkeypatch):
    # a querelement formula wrong only for the last element, which sits in
    # the last of the short slices
    last = family_context("full", 3, 8).slots[:, -1:]

    def wrong_at_last(codes, n, q):
        out = phases._full_querelement(codes, n, q)
        return np.where((codes == last).all(axis=0), codes, out)

    monkeypatch.setattr(phases, "_ELEMENT_SLICE", 7)
    assert build_full_group(3, 8).querelement is True
    spec = dataclasses.replace(phases._STRUCTURES["full"],
                               inverses=lambda n: (wrong_at_last,))
    monkeypatch.setitem(phases._STRUCTURES, "full", spec)
    report = build_full_group(3, 8)
    assert report.querelement is False and not report.passed


def test_element_checks_hold_one_slice():
    # identity, querelement and order checks run over slices of 4,096
    # elements: over all 32,768 of het (4, 8) at once, each check peaked at
    # 5.2-6.3 MB traced; one slice at a time, the whole stage takes 0.8 MB
    fam = family_context("het", 4, 8)
    spec = phases._STRUCTURES["het"]
    encode = phases._slot_index("het", 8, len(fam.slots))
    e_index = int(encode(np.array(phases.het_identity(4, 8).slots())))
    elems = np.arange(fam.order)
    (ident_ok, quer_ok, hist), peak = traced_peak(
        lambda: phases._element_checks(spec, fam, encode, elems, e_index))
    assert ident_ok and quer_ok
    assert hist == {"1": 1024, "2": 7168, "4": 8192, "8": 16384}
    assert peak <= 2 ** 20


def test_querelement_formulas_run_on_widened_codes(monkeypatch):
    # full (1000, 40) holds int16 codes, and (2 - n) * r wraps in int16 for
    # r > 32: both callers of a formula must widen the codes first and match
    # the formula applied to the int64 enumeration.  The kernel is stood in
    # for and nothing is lowered, since each product takes 1,000 factors and
    # each dense form is 1998 x 1998
    n, q = 1000, 40
    fam = family_context("full", n, q)
    want = phases._full_querelement(phases.family_slots("full", n, q), n, q)
    assert fam.slots.dtype == np.int16
    assert not np.array_equal(phases._full_querelement(fam.slots, n, q), want)

    seen = []
    encode = phases._slot_index("full", q, 1)
    stand_in = SimpleNamespace(n=n, q=q, order=fam.order, slots=fam.slots,
                               index_mult=lambda rows: rows[:, 0])
    phases._element_checks(phases._STRUCTURES["full"], stand_in,
                           lambda codes: seen.append(codes) or encode(codes),
                           np.arange(fam.order), None)
    assert len(seen) == 1 and np.array_equal(seen[0], want)

    monkeypatch.setattr(phases, "lower_slots", lambda codes, n, q: codes.T)
    assert np.array_equal(oracle._lowered_querelements(fam, phases._full_querelement), want)


def test_structure_report_json_schema():
    r = build_full_group(3, 4)
    d = r.to_dict()
    for key in ("family", "n", "q", "order", "paper_claimed_order", "closure",
                "assoc_samples", "querelement", "order_histogram"):
        assert key in d
    assert d["order_histogram"] == {k: v for k, v in sorted(d["order_histogram"].items())}
    assert r.to_json() == r.to_json()


def test_failed_identity_fails_the_report_not_associativity(monkeypatch, tmp_path):
    # a doctored identity hook names a label that is no identity: the report
    # must show it as a failed identity, with associativity still true
    spec = dataclasses.replace(phases._STRUCTURES["full"],
                               identity=lambda n, q: FullLabel(q, n, 0, 1))
    monkeypatch.setitem(phases._STRUCTURES, "full", spec)
    r = build_full_group(3, 4)
    assert (r.identity, r.assoc, r.closure, r.querelement) == (None, True, True, True)
    assert not r.passed and not r.to_dict()["passed"]
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--family", "full", "--n", "3", "--q", "4",
                     "--out", str(out)]) == 1


# ---------------------------------------------------------------------------
# the structure checks, batched over label indices, against lowered dense
# products, per element


def _dense_eq(a, b):
    """Per matrix of two stacks: equal up to rounding.  Distinct labels
    lower to matrices that differ by far more."""
    return np.abs(a - b).max(axis=(-2, -1)) <= 1e-9


@pytest.mark.parametrize("family, n, q", [
    ("pauli", 2, 4), ("pauli", 2, 12), ("elementary", 3, 4), ("elementary", 4, 8),
    ("full", 3, 8), ("full", 4, 4), ("het", 3, 4), ("het", 4, 4),
    # further arities up to 6 and moduli up to 360, with n = 2 for the
    # n-ary families, where the kernel and the formulas hold as well
    ("pauli", 2, 360), ("elementary", 2, 8), ("elementary", 6, 36),
    ("full", 2, 20), ("full", 5, 360), ("full", 6, 12), ("het", 2, 36),
    ("het", 3, 12),
])
def test_structure_checks_match_scalar_products(family, n, q):
    fam = family_context(family, n, q)
    spec = phases._STRUCTURES[family]
    rng = np.random.default_rng(11)
    elems = (np.arange(fam.order) if fam.order <= 512
             else rng.choice(fam.order, size=300, replace=False))
    a = fam.dense_stack[elems]

    # an order l is the first l at which the (l(n-1)+1)-fold power of a
    # equals a; 0 if it first equals the power before it (absorbed)
    cap = spec.hist_cap(fam.order, q)
    power = np.linalg.matrix_power(a, n - 1)
    want = np.zeros(len(elems), dtype=np.int64)
    live, cur = np.ones(len(elems), dtype=bool), a
    for l in range(1, cap + 1):
        if not live.any():
            break
        nxt = cur @ power
        back = live & _dense_eq(nxt, a)
        want[back] = l
        live &= ~back & ~_dense_eq(nxt, cur)
        cur = nxt
    assert phases._element_orders(fam, elems, cap).tolist() == want.tolist()

    # the identity, and a label that is not one
    for e in (0, 1):
        ee = np.linalg.matrix_power(fam.dense_stack[e], n - 1)
        want = _dense_eq(ee @ a, a) & _dense_eq(a @ ee, a)
        assert phases._identity_holds(fam, e, elems).tolist() == want.tolist()

    # the slot-code formulas, and a wrong one that must fail somewhere
    encode = phases._slot_index(family, q, len(fam.slots))
    wrong = lambda codes, n, q: codes  # noqa: E731
    for formula in (*spec.inverses(n), wrong):
        codes = formula(fam.slots[:, elems], n, q)
        b = phases.lower_slots(np.transpose(codes), n, q)
        if spec.binary:
            target = 0  # s0r0
            want = _dense_eq(a @ b, np.eye(2)) & _dense_eq(b @ a, np.eye(2))
        else:
            target = elems
            want = np.all([_dense_eq(functools.reduce(
                np.matmul, [b if t == pos else a for t in range(n)]), a)
                for pos in range(n)], axis=0)
        got = phases._inverse_holds(fam, elems, encode(codes), target)
        assert got.tolist() == want.tolist()
        assert want.all() == (formula is not wrong)


@pytest.mark.parametrize("family, n, q, sha", [
    ("het", 4, 8, "007e2dc1bb5d214fe1512dce2220c00bfda0f960f864f099fcd4374d4db20cc5"),
    ("full", 5, 72, "39f22657e774f638e5631f9943990a15734e734873c18c24bc7cebc6d4d4b355"),
])
def test_lower_slots_output_is_pinned(family, n, q, sha):
    dense = phases.lower_slots(phases.family_slots(family, n, q).T, n, q)
    assert hashlib.sha256(dense.tobytes()).hexdigest() == sha


def test_lower_slots_holds_little_besides_its_result():
    # the row pairs are gathered straight into the result: no gathered
    # block stack and no reordering copy of the whole stack, so the het
    # (4, 8) lowering peaks near its 18.9 MB result (its row indices are
    # 0.8 MB), where a gather-then-place lowering peaks above twice it
    codes = phases.family_slots("het", 4, 8).T
    dense, peak = traced_peak(lambda: phases.lower_slots(codes, 4, 8))
    assert dense.shape == (32768, 6, 6)
    assert peak <= 1.25 * dense.nbytes


def test_family_slots_follow_the_canonical_order():
    # the orders written out: sigma indices, then the elementary position,
    # then the phase indices, first slot most significant; zero last
    for n, q in ((3, 4), (4, 4)):
        m = n - 1
        want = [[j * q + r for j, r in zip(js, rs)]
                for js in product(range(4), repeat=m)
                for rs in product(range(q), repeat=m)]
        assert phases.family_slots("het", n, q).T.tolist() == want
        assert family_context("het", n, q).slots.T.tolist() == want
    n, q, m = 4, 8, 3
    want = [[j * q + r if s == k else 4 * q for s in range(m)]
            for j, k, r in product(range(4), range(m), range(q))] + [[4 * q] * m]
    assert phases.family_slots("elementary", n, q).T.tolist() == want
    assert family_context("elementary", n, q).slots.T.tolist() == want


@pytest.mark.parametrize("family, n, q", [
    ("pauli", 2, 12), ("full", 5, 8), ("het", 3, 4), ("het", 4, 8), ("elementary", 4, 12)])
def test_family_slots_follow_the_digit_formula(family, n, q):
    # index = sum_s j_s * 4^(m-1-s) * q^m + r_s * q^(m-1-s) for a group
    # family; the elementary index runs over (j, position, r), zero last
    codes = phases.family_slots(family, n, q)
    m, order = codes.shape
    index = np.arange(order)
    if family == "elementary":
        j, k, r = np.unravel_index(np.minimum(index, order - 2), (4, m, q))
        want = np.where((np.arange(m)[:, None] == k) & (index < order - 1), j * q + r, 4 * q)
    else:
        want = np.array([(index // (4 ** (m - 1 - s) * q ** m)) % 4 * q
                         + (index // q ** (m - 1 - s)) % q for s in range(m)])
    assert codes.dtype == np.int64 and np.array_equal(codes, want)
    picked = [0, order // 3, order - 1]
    assert np.array_equal(phases.family_slots(family, n, q, picked), want[:, picked])


def test_family_slots_hold_little_besides_their_result():
    # each slot's digits are unravelled in place into its row of the result,
    # so het (4, 8) peaks near its 0.79 MB of codes, not at the 3.4 MB of an
    # unravel of every digit at once
    codes, peak = traced_peak(lambda: phases.family_slots("het", 4, 8))
    assert codes.shape == (3, 32768)
    assert peak <= 2 * codes.nbytes


def test_public_products_run_without_the_family():
    # het (6, 360) has 1440^5 labels: no public product or querelement may
    # enumerate its family, and each must equal the lowered dense product
    before = family_context.cache_info()
    rng = np.random.default_rng(3)
    n, q, m = 6, 360, 5

    def dense(labels):
        return functools.reduce(np.matmul, [lab.dense() for lab in labels])

    def quer_holds(s, qs):
        for pos in range(n):
            factors = [s] * n
            factors[pos] = qs
            assert_close(dense(factors), s.dense(), 1e-12)

    het = [HetLabel(q, n, rng.integers(0, 4, m), rng.integers(0, q, m))
           for _ in range(2 * m + 1)]
    full = [FullLabel(q, n, int(rng.integers(4)), int(rng.integers(q)))
            for _ in range(2 * m + 1)]
    for labels in (het[:n], het):
        assert_close(het_nary_mul(labels, n).dense(), dense(labels), 1e-12)
    for labels in (full[:n], full):
        assert_close(full_nary_mul(labels, n).dense(), dense(labels), 1e-12)
    k = int(rng.integers(m))
    chain = [ElementaryLabel(q, n, int(rng.integers(4)), (k + t) % m + 1,
                             int(rng.integers(q))) for t in range(n)]
    assert not isinstance(elementary_nary_mul(chain, n), ZeroLabel)
    assert isinstance(elementary_nary_mul(chain[::-1], n), ZeroLabel)
    for labels in (chain, chain[::-1]):
        assert_close(elementary_nary_mul(labels, n).dense(), dense(labels), 1e-12)
    a, b = PauliLabel(q, 1, 7), PauliLabel(q, 2, 300)
    assert_close(pauli_mul(a, b).dense(), a.dense() @ b.dense(), 1e-12)
    assert_close(a.dense() @ pauli_inverse(a).dense(), np.eye(2), 1e-12)
    quer_holds(het[0], het_querelement_general(het[0]))
    quer_holds(full[0], full_querelement(full[0]))
    assert family_context.cache_info() == before


@pytest.mark.parametrize("pick", [0, 1, 2])
def test_structure_checks_read_every_position(pick):
    # in these families a one-sided identity or a querelement at one
    # position already implies the rest, so the kernel cases above cannot
    # tell a skipped side or position; a stand-in product that returns
    # factor `pick` can
    fam = SimpleNamespace(n=3, index_mult=lambda rows: rows[:, pick])
    elems = np.arange(6)
    assert phases._identity_holds(fam, 2, elems).tolist() == (elems == 2).tolist()
    inv = np.array([0, 2, 1, 3, 5, 4])
    assert phases._inverse_holds(fam, elems, inv, elems).tolist() == (inv == elems).tolist()
