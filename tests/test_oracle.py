"""Verification harness: lowering, single cases, sweeps, budgets, emitters."""

import dataclasses
import functools
import hashlib
import sys
import threading
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysigma import BudgetExceededError, DomainError, cli, oracle, phases
from polysigma.matrices import BlockCyclicMatrix, sigma
from polysigma.oracle import (
    SweepSummary,
    VerificationCase,
    assoc_check,
    closure_check,
    exhaustive_sweep,
    family_context,
    het_querelement_inverse_check,
    lower,
    querelement_dense_check,
    sampled_sweep,
    summaries_to_junit,
    verify,
    worker_count,
)
from polysigma.phases import (
    Q12,
    ElementaryLabel,
    FullLabel,
    HetLabel,
    PauliLabel,
    ZeroLabel,
    elementary_labels,
    elementary_nary_mul,
    full_labels,
    full_nary_mul,
    het_nary_mul,
    het_phased_labels,
    pauli_labels,
    pauli_mul,
    root_of_unity,
)
from polysigma.su2 import PolyadicSU2Element, SU2Params

from conftest import assert_close, traced_peak


# ---------------------------------------------------------------------------
# lowering


def test_lower_pauli_identity():
    assert_close(lower(PauliLabel(4, 0, 0)), np.eye(2), 0.0)


def test_lower_full_matches_layout():
    d = lower(FullLabel(4, 3, 1, 0))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0:2, 2:4] = sigma(1)
    expected[2:4, 0:2] = sigma(1)
    assert_close(d, expected, 0.0)


def test_lower_het_with_phases():
    d = lower(HetLabel(4, 3, (1, 2), (1, 2)))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0:2, 2:4] = 1j * sigma(1)
    expected[2:4, 0:2] = -sigma(2)
    assert_close(d, expected, 0.0)


def test_lower_zero_and_element(rng):
    assert np.abs(lower(ZeroLabel(4, 3))).max() == 0.0
    e = PolyadicSU2Element.random(rng, 3)
    assert_close(lower(e), e.matrix().dense(), 0.0)
    with pytest.raises(DomainError):
        lower("not a label")


def _reference_dense(lab, n, q):
    """A label's dense form, built block by block without the slot codes."""
    d = 2 * (n - 1)
    if isinstance(lab, ZeroLabel):
        return np.zeros((d, d), dtype=np.complex128)
    if isinstance(lab, ElementaryLabel):
        out = np.zeros((d, d), dtype=np.complex128)
        i, c = lab.k - 1, lab.k % (n - 1)
        out[2 * i:2 * i + 2, 2 * c:2 * c + 2] = root_of_unity(lab.r, q) * sigma(lab.j)
        return out
    if isinstance(lab, HetLabel):
        blocks = [root_of_unity(r, q) * sigma(j) for j, r in zip(lab.js, lab.rs)]
    else:  # pauli (n = 2) and full: the same block everywhere
        blocks = [root_of_unity(lab.r, q) * sigma(lab.j)] * (n - 1)
    return BlockCyclicMatrix(n, tuple(blocks)).dense()


@pytest.mark.parametrize("family, n, q", [
    (family, n, q)
    for family in ("pauli", "elementary", "full", "het")
    for n in ((2,) if family == "pauli" else (2, 3, 4, 5))
    for q in (4, 12, 360)
    # het lowers (4q)^(n-1) labels; keep to sets of at most 4096
    if family != "het" or (4 * q) ** (n - 1) <= 4096
])
def test_dense_stack_is_the_blockwise_construction(family, n, q):
    fam = family_context(family, n, q)
    labels = [fam.label(i) for i in range(fam.order)]
    want = np.stack([_reference_dense(lab, fam.n, q) for lab in labels])
    assert fam.dense_stack.shape == want.shape
    assert fam.dense_stack.tobytes() == want.tobytes()
    assert all(lab.dense().tobytes() == row.tobytes()
               for lab, row in zip(labels, fam.dense_stack))


@pytest.mark.parametrize("family, n, q", [
    ("pauli", 2, 4), ("full", 5, 12), ("elementary", 4, 12), ("het", 4, 8), ("het", 3, 360),
])
def test_lower_slots_overwrites_a_used_buffer(family, n, q, rng):
    # the sampled closure lowers slice after slice into one buffer that it
    # never zeroes, so lowering must write every entry of its out, whatever
    # the buffer held: here random bits, NaNs among them.  The last slice
    # is partial, and the rows past it keep what they held
    fam = family_context(family, n, q)
    labels = np.concatenate([[0, fam.order - 1], rng.integers(0, fam.order, 150)])
    if family == "elementary":
        assert isinstance(fam.label(fam.order - 1), ZeroLabel)
    rows, d = 64, fam.d
    buf = np.frombuffer(rng.bytes(rows * d * d * 16), np.complex128).reshape(rows, d, d).copy()
    for start in range(0, len(labels), rows):
        part = labels[start:start + rows]
        held = buf[len(part):].tobytes()
        got = phases.lower_slots(fam.slots[:, part].T, fam.n, q, out=buf[:len(part)])
        assert np.shares_memory(got, buf)
        want = np.stack([_reference_dense(fam.label(int(i)), fam.n, q) for i in part])
        assert buf[:len(part)].tobytes() == want.tobytes()
        assert buf[len(part):].tobytes() == held
    assert len(labels) % rows  # the last slice was partial
    with pytest.raises(DomainError):  # a strided out would be filled through a copy
        phases.lower_slots(fam.slots[:, labels[:4]].T, fam.n, q, out=buf[:8:2])


# ---------------------------------------------------------------------------
# verify


def test_verify_passing_case():
    a, b = PauliLabel(4, 1, 0), PauliLabel(4, 2, 0)
    out = verify(VerificationCase("pauli", (a, b), pauli_mul(a, b)))
    assert out.passed and out.max_abs_deviation <= 1e-12 and out.witness is None


def test_verify_corrupted_expected_fails_with_witness():
    a, b = PauliLabel(4, 1, 0), PauliLabel(4, 2, 0)
    wrong = PauliLabel(4, 3, 2)  # correct sigma index, wrong phase
    out = verify(VerificationCase("pauli", (a, b), wrong))
    assert not out.passed and out.witness == (a, b)
    assert out.max_abs_deviation > 1.0


def test_verify_tolerance_monotone():
    a, b = FullLabel(4, 3, 1, 1), FullLabel(4, 3, 2, 3)
    expected = full_nary_mul([a, b, a], 3)
    for tol in (1e-12, 1e-8, 1e-2):
        assert verify(VerificationCase("full", (a, b, a), expected, tol)).passed


def test_verify_su2_params_family():
    i = SU2Params(0.0, (1.0, 0.0, 0.0))
    j = SU2Params(0.0, (0.0, 1.0, 0.0))
    k = SU2Params(0.0, (0.0, 0.0, 1.0))
    assert verify(VerificationCase("su2-params", (i, j), k)).passed


def test_verify_dimension_mismatch():
    with pytest.raises(DomainError):
        verify(VerificationCase("full", (FullLabel(4, 3, 1, 0), FullLabel(4, 4, 1, 0)),
                                FullLabel(4, 3, 1, 0)))


def test_verification_case_validation():
    with pytest.raises(DomainError):
        VerificationCase("pauli", (), PauliLabel(4, 0, 0))
    with pytest.raises(DomainError):
        VerificationCase("pauli", (PauliLabel(4, 0, 0),), PauliLabel(4, 0, 0), -1.0)


# ---------------------------------------------------------------------------
# sweeps


def test_exhaustive_sweep_elementary():
    s = exhaustive_sweep("elementary", 3, 4, 3)
    assert s.passed and s.exhaustive
    assert s.total == s.checked == 33 ** 3
    assert s.max_abs_deviation == 0.0


def test_exhaustive_sweep_budget_refusal():
    with pytest.raises(BudgetExceededError):
        exhaustive_sweep("het", 3, 4, 3, budget=1000)


def test_exhaustive_sweep_bad_tuple_len():
    with pytest.raises(DomainError):
        exhaustive_sweep("full", 3, 4, 4)
    with pytest.raises(DomainError):
        sampled_sweep("full", 3, 4, 4)


def test_exhaustive_sweep_deterministic():
    a = exhaustive_sweep("pauli", 2, 4, 2)
    b = exhaustive_sweep("pauli", 2, 4, 2)
    assert a.to_json() == b.to_json()
    assert a.passed and a.total == 256


def test_sampled_sweep_deterministic():
    a = sampled_sweep("full", 3, 8, 3, samples=2000, seed=7)
    b = sampled_sweep("full", 3, 8, 3, samples=2000, seed=7)
    assert a.to_json() == b.to_json()
    assert a.passed and not a.exhaustive and a.checked == 2000


@pytest.mark.parametrize("check", [closure_check, assoc_check],
                         ids=["closure", "associativity"])
def test_sampled_check_slices_match_one_chunk(monkeypatch, check):
    # a passing sample gives the same result in slices as in one piece; the
    # worst deviation is a maximum, so it is exact
    whole = check("het", 3, 12, mode="sample", samples=3000, seed=5)
    assert whole.passed and 3000 <= oracle._SAMPLE_SLICE
    monkeypatch.setattr(oracle, "_SAMPLE_SLICE", 7)
    assert check("het", 3, 12, mode="sample", samples=3000, seed=5) == whole
    if check is closure_check:
        assert whole.max_abs_deviation > 0


def test_sampled_closure_slice_holds_at_least_one_row(monkeypatch):
    # one dense stack of full n >= 130 exceeds the slice bytes; the slice
    # is one row, not an empty range step.  One d = 4 stack is 256 bytes.
    whole = closure_check("full", 3, 4, mode="sample", samples=200, seed=5)
    monkeypatch.setattr(oracle, "_SAMPLE_SLICE_BYTES", 255)
    assert closure_check("full", 3, 4, mode="sample", samples=200, seed=5) == whole
    assert whole.passed and whole.checked == 200


def test_sampled_closure_slices_hold_little_besides_the_context():
    # closure slices are bounded by the bytes of one slice's dense stack, so
    # the 100,000 seeded het (4, 8) tuples (1.6 MB) and a few 1 MB buffers
    # are all the check holds beside the held context, the slot codes and
    # the kernel; 2^14-row slices held about 32 MB
    family_context("het", 4, 8)
    res, peak = traced_peak(lambda: closure_check(
        "het", 4, 8, mode="sample", samples=100_000, seed=42))
    assert res.passed and res.checked == 100_000
    assert peak <= 8 * 2 ** 20


def test_sampled_closure_lowers_only_the_labels_it_samples(monkeypatch, tmp_path):
    # a sampled closure lowers each slice's labels from their slot codes, so
    # a fresh het (4, 8) context and its check fit in 8 MiB, where every
    # label's dense form alone is 18.9 MB; a whole verify lowers no label
    # set as large as the family and leaves the context without its stack
    family_context.cache_clear()
    res, peak = traced_peak(lambda: closure_check(
        "het", 4, 8, mode="sample", samples=100_000, seed=42))
    assert res.passed and res.checked == 100_000
    assert peak <= 8 * 2 ** 20

    lowered = []
    real = phases.lower_slots
    monkeypatch.setattr(phases, "lower_slots", lambda codes, *args, **kwargs: (
        lowered.append(np.shape(codes)[0]) or real(codes, *args, **kwargs)))
    family_context.cache_clear()
    assert cli.main(["verify", "--family", "het", "--n", "4", "--q", "8",
                     "--out", str(tmp_path / "r.json")]) == 0
    fam = family_context("het", 4, 8)
    assert lowered and max(lowered) < fam.order
    assert "dense_stack" not in vars(fam)


def _gathered_sampled_closure(family, n, q, samples, seed):
    """The sampled closure's products, expected matrices and worst
    deviation, from gathers out of every label's dense form lowered at
    once, with the whole sample multiplied in one piece."""
    fam = family_context(family, n, q)
    stack = phases.lower_slots(fam.slots.T, fam.n, q)
    idx = oracle._sampled_tuples(fam.order, fam.n, samples, seed)
    prods = functools.reduce(np.matmul, [stack[idx[:, t]] for t in range(fam.n)])
    expected = stack[fam.index_mult(idx)]
    dev = np.abs(prods - expected).max(axis=(1, 2))
    return prods, expected, float(dev.max())


@pytest.mark.parametrize("family, n, q", [
    ("pauli", 2, 360), ("full", 5, 8), ("elementary", 4, 12), ("het", 3, 4), ("het", 4, 8),
])
def test_sampled_closure_products_match_gathers_bit_for_bit(monkeypatch, family, n, q):
    # every slice lowers its factors and label results into reused buffers:
    # each product and expected matrix must have the bits of a gather from
    # the fully lowered stack, in slices of 3 and 7 rows, whose last one is
    # partial, and in the default slices
    prods, expected, worst = _gathered_sampled_closure(family, n, q, 1000, 9)
    real = oracle._deviation
    for rows in (3, 7, oracle._SAMPLE_SLICE):
        monkeypatch.setattr(oracle, "_SAMPLE_SLICE", rows)
        seen = []
        monkeypatch.setattr(oracle, "_deviation", lambda prod, want, tol, dev=None: (
            seen.append((prod.copy(), want.copy())) or real(prod, want, tol, dev)))
        res = closure_check(family, n, q, mode="sample", samples=1000, seed=9)
        assert (res.passed, res.exhaustive, res.checked) == (True, False, 1000)
        assert res.witness is None and res.max_abs_deviation == worst
        got = [np.concatenate(parts) for parts in zip(*seen)]
        assert got[0].tobytes() == prods.tobytes()
        assert got[1].tobytes() == expected.tobytes()


@pytest.mark.parametrize("family, n, q, public", [
    ("het", 3, 4, "het_querelement"), ("het", 3, 4, "het_querelement_general"),
    ("het", 4, 4, "het_querelement_general"), ("full", 4, 8, "full_querelement"),
])
def test_lowered_querelements_match_the_public_formulas(family, n, q, public):
    # one batched formula over every label's codes lowers to the same bits as
    # the public querelement of each label object
    fam = family_context(family, n, q)
    quer = getattr(phases, public)
    want = np.stack([quer(fam.label(i)).dense() for i in range(fam.order)])
    got = oracle._lowered_querelements(fam, getattr(phases, f"_{public}"))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("order, tuple_len, samples, seed, sha", [
    (4, 3, 1000, 42, "e1fde4a458f823b8661551d7e3eebf10db5011e0f557a7d7c0048239e0626334"),
    (16, 2, 7, 0, "1c246fcd48c54b6c5528db139a61505bc8b4d371ddc1eee261dc4bb072fff23f"),
    (32768, 7, 100_000, 42,
     "e7418f4a1ea1d9ad9e0ccec69ee26b3a352847f063998b720fc9441dafa05cba"),
    (70_000, 3, 5000, 7, "44baf2ffe68bca8c495ab54f864ef47a9888c381c9a8c9fa4cd07cb070223b37"),
], ids=["pauli-q4-cover", "short", "het4-assoc", "above-2^16"])
def test_sampled_tuples_are_pinned(order, tuple_len, samples, seed, sha):
    # the digests are of int64 draws; int32 draws give the same tuples, and
    # the label permutation drawn after them is the same too
    tuples = oracle._sampled_tuples(order, tuple_len, samples, seed)
    assert tuples.dtype == np.int32 and tuples.shape == (samples, tuple_len)
    assert hashlib.sha256(tuples.astype(np.int64).tobytes()).hexdigest() == sha


def test_closure_check_sample_covers_labels():
    res = closure_check("full", 3, 4, mode="sample", samples=50, seed=1)
    assert res.passed and not res.exhaustive and res.checked == 50


def test_assoc_sweep_full():
    s = exhaustive_sweep("full", 3, 4, 5)
    assert s.kind == "associativity" and s.passed and s.total == 16 ** 5


@pytest.mark.parametrize("check, refusal", [
    (closure_check, r"^256 products exceed the budget of 100; switch to sampling$"),
    (assoc_check, r"^4096 bracketing tuples exceed the budget of 100$"),
], ids=["closure", "associativity"])
def test_check_mode_and_budget_gate(check, refusal):
    with pytest.raises(DomainError, match="mode must be"):
        check("pauli", 2, 4, mode="every")
    with pytest.raises(BudgetExceededError, match=refusal):
        check("pauli", 2, 4, mode="exhaustive", budget=100)
    res = check("pauli", 2, 4, mode="auto", budget=100, samples=50, seed=3)
    assert res.passed and not res.exhaustive
    assert res.checked == res.total == 50


@pytest.mark.parametrize("check", [
    lambda: closure_check("het", 40, 4, mode="sample"),
    lambda: oracle.assoc_check("het", 40, 4, mode="sample"),
    lambda: oracle.exhaustive_sweep("het", 40, 4, 40),
    lambda: oracle.sampled_sweep("het", 40, 4, 40),
])
def test_checks_refuse_a_label_set_numpy_cannot_index(check):
    # het (40, 4) has 16^39 labels; np.arange over them raised a ValueError
    with pytest.raises(DomainError, match=f"^{16 ** 39} labels are too many to enumerate"):
        check()


@pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0, float("inf")])
def test_check_gate_refuses_a_tolerance_that_is_not_positive(tol):
    # every dev > tol is False under a NaN tolerance, so it would pass anything
    with pytest.raises(DomainError, match="^tolerance must be positive$"):
        closure_check("pauli", 2, 4, tol=tol)
    with pytest.raises(DomainError, match="^tolerance must be positive$"):
        exhaustive_sweep("pauli", 2, 4, 2, tol=tol)
    with pytest.raises(DomainError, match="^tolerance must be positive$"):
        VerificationCase("pauli", (PauliLabel(4, 0, 0),), PauliLabel(4, 0, 0), tol)


def test_worker_count_env(monkeypatch, tmp_path):
    # every check runs on the calling thread: an exported POLYSIGMA_THREADS
    # is not read, and a verify keeps its pinned outputs
    for value in ("8", "bogus"):
        monkeypatch.setenv("POLYSIGMA_THREADS", value)
        assert worker_count() == 1
    out, junit = tmp_path / "r.json", tmp_path / "j.xml"
    assert cli.main(["verify", "--family", "het", "--n", "3", "--q", "4", "--mode", "sample",
                     "--out", str(out), "--junit", str(junit)]) == 0
    assert [hashlib.sha256(p.read_bytes()).hexdigest() for p in (out, junit)] == [
        "4e8048a12fb8c77e6dbc6f56f46328e23a04987534b4a212d7f9c2c4f5d68cc4",
        "3977469830abb8795d13278cbc46ab30f4b33ff42e2497d29cd512f951757b57"]


# ---------------------------------------------------------------------------
# targeted checks and emitters


def test_querelement_dense_checks(monkeypatch):
    assert querelement_dense_check("full", 3, 4) <= 1e-12
    assert het_querelement_inverse_check(4) <= 1e-12
    # the identity map is no querelement, and both checks must see that
    monkeypatch.setattr(phases, "_full_querelement", lambda codes, n, q: codes)
    monkeypatch.setattr(phases, "_het_querelement", lambda codes, n, q: codes)
    assert querelement_dense_check("full", 3, 4) > 1
    assert het_querelement_inverse_check(4) > 1


@pytest.mark.parametrize("n, public", [(3, "het_querelement"),
                                       (4, "het_querelement_general")])
def test_het_querelement_dense_check(monkeypatch, n, public):
    assert querelement_dense_check("het", n, 4) <= 1e-12
    # the check lowers the results of the public formula's batched slot-code
    # form; the identity map is no querelement, and the check must see that
    monkeypatch.setattr(phases, f"_{public}", lambda codes, n, q: codes)
    assert querelement_dense_check("het", n, 4) > 1


def test_junit_emitter():
    ok = exhaustive_sweep("pauli", 2, 4, 2)
    bad = SweepSummary(
        family="pauli", n=2, q=4, tuple_len=2, kind="closure", total=10,
        checked=3, passed=False, max_abs_deviation=0.5,
        witness={"kind": "closure", "operands": ["s1r0", "s2r0"]},
        exhaustive=True, tolerance=1e-12,
    )
    xml = summaries_to_junit([ok, bad])
    root = ET.fromstring(xml)
    assert root.tag == "testsuite"
    assert root.get("tests") == "2" and root.get("failures") == "1"
    cases = root.findall("testcase")
    assert len(cases) == 2
    assert cases[1].find("failure") is not None
    assert "s1r0" in cases[1].find("failure").text


# ---------------------------------------------------------------------------
# vectorized index multiplication agrees with the label-level functions


def test_index_mult_matches_label_mult():
    rng = np.random.default_rng(17)

    fam = family_context("pauli", 2, 8)
    labels = pauli_labels(8)
    idx = rng.integers(0, fam.order, size=(500, 2))
    got = fam.index_mult(idx)
    for row, g in zip(idx, got):
        assert labels[g] == pauli_mul(labels[row[0]], labels[row[1]])

    fam = family_context("full", 3, 4)
    labels = full_labels(3, 4)
    idx = rng.integers(0, fam.order, size=(500, 3))
    got = fam.index_mult(idx)
    for row, g in zip(idx, got):
        assert labels[g] == full_nary_mul([labels[i] for i in row], 3)

    fam = family_context("elementary", 3, 4)
    labels = elementary_labels(3, 4)
    idx = rng.integers(0, fam.order, size=(1000, 3))
    got = fam.index_mult(idx)
    for row, g in zip(idx, got):
        assert labels[g] == elementary_nary_mul([labels[i] for i in row], 3)

    fam = family_context("het", 3, 4)
    labels = het_phased_labels(3, 4)
    idx = rng.integers(0, fam.order, size=(1000, 3))
    got = fam.index_mult(idx)
    for row, g in zip(idx, got):
        assert labels[g] == het_nary_mul([labels[i] for i in row], 3)


def _doctor(monkeypatch, family, n, q, results):
    """Make the oracle checks see the family's context with every
    index_mult result passed through ``results(rows, products)``."""
    fam = family_context(family, n, q)
    bad = dataclasses.replace(fam, index_mult=lambda idx, every_last=False, **kw: results(
        idx, fam.index_mult(idx, every_last, **kw)))
    monkeypatch.setattr(oracle, "family_context", lambda *args: bad)


def _doctor_lowering(monkeypatch, family, n, q, label, corrupt):
    """Make the one lowering, ``phases.lower_slots``, pass every dense
    stack it returns through ``corrupt(dense, hit)``, where ``hit`` marks
    the rows that are the family's label ``label``.  The oracle checks see
    an empty context cache, so the exhaustive closure's stack and the
    sampled closure's slices are both lowered through it."""
    codes = phases.family_slots(family, n, q, [label])[:, 0]
    real = phases.lower_slots

    def lower_slots(slots, *args, **kwargs):
        dense = real(slots, *args, **kwargs)
        corrupt(dense, (np.asarray(slots) == codes).all(axis=-1))
        return dense

    monkeypatch.setattr(phases, "lower_slots", lower_slots)
    monkeypatch.setattr(oracle, "family_context",
                        functools.lru_cache(maxsize=1)(family_context.__wrapped__))


def _negate(dense, hit):
    dense[hit] = -dense[hit]


def _five_to_six(rows, products):
    return np.where(products == 5, 6, products)


def test_closure_sweep_negative_control(monkeypatch):
    # corrupting one label's dense form must fail the sweep with a
    # deterministic first-failure witness
    _doctor_lowering(monkeypatch, "pauli", 2, 4, 3, _negate)
    r1 = closure_check("pauli", 2, 4, mode="exhaustive", tol=1e-12)
    r2 = closure_check("pauli", 2, 4, mode="exhaustive", tol=1e-12)
    assert not r1.passed
    assert r1.witness is not None and r1.checked < r1.total
    assert r1.witness == r2.witness and r1.checked == r2.checked


@pytest.mark.parametrize("mode", ["exhaustive", "sample"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_closure_check_fails_a_non_finite_product(monkeypatch, value, mode):
    # a NaN or inf entry in label 3's dense form (an inf meets a zero or
    # another inf in a product, so the deviation is NaN) is never within the
    # tolerance: the check must fail with a witness and report a worst
    # deviation that is not within it either
    def poison(dense, hit):
        dense[hit, 0, 0] = value

    _doctor_lowering(monkeypatch, "pauli", 2, 4, 3, poison)
    with np.errstate(invalid="ignore"):
        res = closure_check("pauli", 2, 4, mode=mode, samples=1000, tol=1e-12)
    assert not res.passed and res.witness is not None
    assert not res.max_abs_deviation <= 1e-12
    assert res.checked <= res.total
    # the witness has label 3 as an operand or as its label result
    fam = family_context("pauli", 2, 4)
    tokens = [fam.label(i).token() for i in range(fam.order)]
    row = [tokens.index(tok) for tok in res.witness["operands"]]
    assert 3 in row or fam.index_mult(np.array([row]))[0] == 3
    if mode == "exhaustive":
        # tuple 3 = (s0r0, s0r3) is the first row-major tuple with label 3
        assert res.checked == 4
        assert res.witness["operands"] == ["s0r0", "s0r3"]


def test_closure_sweep_negative_control_prefix_path(monkeypatch):
    # het(3, 4) runs the shared-prefix chunk path; label 100 first shows up as
    # the label result of tuple 352 = (0, 1, 96), so the sweep must stop
    # there with that tuple, in row-major order, as its witness
    _doctor_lowering(monkeypatch, "het", 3, 4, 100, _negate)
    res = closure_check("het", 3, 4, mode="exhaustive", tol=1e-12)
    assert not res.passed and res.exhaustive
    assert res.checked == 353 and res.total == 256 ** 3
    assert res.witness == {
        "kind": "closure",
        "operands": ["h0.0r0.0", "h0.0r0.1", "h1.2r0.0"],
        "max_abs_deviation": 2.0,
    }


def test_closure_sweep_first_failure_is_row_major_across_labels(monkeypatch):
    # inside the first chunk of het(3, 4), prefix 0 fails only with last label
    # 200 and prefix 1 with last label 5: the chunk is judged one last label
    # at a time, so label 5's failure is met first, yet tuple (0, 0, 200)
    # comes first in row-major order and must be the witness
    order = family_context("het", 3, 4).order

    def two_wrong(rows, products):
        products = products.copy()
        prefix = rows[:, 0] * order + rows[:, 1]
        products[prefix == 0, 200] += 1
        products[prefix == 1, 5] += 1
        return products

    _doctor(monkeypatch, "het", 3, 4, results=two_wrong)
    res = closure_check("het", 3, 4, mode="exhaustive")
    assert (res.passed, res.exhaustive, res.checked) == (False, True, 201)
    assert res.witness == {
        "kind": "closure",
        "operands": ["h0.0r0.0", "h0.0r0.0", "h3.0r2.0"],
        "max_abs_deviation": 2 ** 0.5,
    }


def test_closure_sample_negative_control(monkeypatch):
    # full(3, 4) products that should be label 5 reported as label 6: the
    # eighth seeded tuple is the first whose dense product disagrees, whether
    # the sample is one slice or that tuple lies inside the third slice (3),
    # ends the second (4) or starts it (7)
    _doctor(monkeypatch, "full", 3, 4, results=_five_to_six)
    for rows in (oracle._SAMPLE_SLICE, 3, 4, 7):
        monkeypatch.setattr(oracle, "_SAMPLE_SLICE", rows)
        res = closure_check("full", 3, 4, mode="sample", samples=2000, seed=7)
        assert (res.passed, res.exhaustive, res.checked, res.total) == (False, False, 8, 2000)
        assert res.witness == {
            "kind": "closure",
            "operands": ["f1r0", "f1r1", "f1r0"],
            "max_abs_deviation": 2 ** 0.5,
        }


@pytest.mark.parametrize("chunk", [1 << 17, 82, 81, 64])
def test_assoc_exhaustive_negative_control(monkeypatch, chunk):
    # the same doctored products break associativity first at tuple 82 in
    # row-major order, whether that tuple ends a chunk (82), starts the
    # second one (81), or lies inside it (64).  Small chunks stand in for a
    # failure past the first 2^17 tuples: every product row also occurs as
    # the last three factors of a tuple led by label 0, so a doctored
    # product is met long before tuple 2^17.
    _doctor(monkeypatch, "full", 3, 4, results=_five_to_six)
    monkeypatch.setattr(oracle, "_CHUNK", chunk)
    res = assoc_check("full", 3, 4, mode="exhaustive")
    assert (res.passed, res.exhaustive, res.checked, res.total) == (False, True, 82, 16 ** 5)
    assert res.max_abs_deviation == 0.0
    assert res.witness == {
        "kind": "associativity",
        "operands": ["f0r0", "f0r0", "f0r0", "f1r1", "f0r1"],
    }


def test_assoc_sample_negative_control(monkeypatch):
    _doctor(monkeypatch, "full", 3, 4, results=_five_to_six)
    res = assoc_check("full", 3, 4, mode="sample", samples=2000, seed=7)
    assert (res.passed, res.exhaustive, res.checked, res.total) == (False, False, 5, 2000)
    assert res.witness == {
        "kind": "associativity",
        "operands": ["f3r1", "f1r0", "f1r1", "f1r0", "f2r3"],
    }


def test_exhaustive_closure_worst_deviation_is_pinned():
    # the shared-prefix products must reproduce the per-tuple products bit
    # for bit; a single wide product per chunk changes this value
    res = closure_check("full", 4, 8, mode="exhaustive")
    assert res.passed and res.checked == 32 ** 4
    assert res.max_abs_deviation == 9.604815623288835e-16


def _class_keys(acc, res):
    """The class key of each prefix: its product's bytes and its label
    results' bytes."""
    return [a.tobytes() + r.tobytes() for a, r in zip(acc, res)]


def _reference_prefixes(fam, stack, start, stop):
    """Prefixes start..stop-1 in row-major order, their literal products by
    the per-tuple left fold, and their label results with every last label."""
    pref = phases._build_tuples(fam.order, fam.n - 1, start, stop)
    acc = stack[pref[:, 0]]
    for t in range(1, fam.n - 1):
        acc = acc @ stack[pref[:, t]]
    return pref, acc, fam.index_mult(pref, every_last=True)


@pytest.mark.parametrize("family, n, q", [
    ("pauli", 2, 12), ("elementary", 3, 8), ("full", 3, 8), ("full", 4, 4), ("het", 3, 4),
])
def test_exhaustive_closure_judges_each_class_bit_for_bit(monkeypatch, family, n, q):
    # the sweep judges one prefix per (product bytes, label results) class.
    # A reference sweep in the sweep's chunks builds every tuple's literal
    # product by the left fold and the tall product; each must equal, bit
    # for bit, its class representative's product times the last label, as
    # the sweep computed it, and the worst deviations must be equal
    fam = family_context(family, n, q)
    stack, order, d = fam.dense_stack, fam.order, fam.dense_stack.shape[-1]
    judged = []
    real = oracle._closure_on_range
    monkeypatch.setattr(oracle, "_closure_on_range", lambda f, at, acc, res, tol: (
        judged.append((acc, res)) or real(f, at, acc, res, tol)))
    swept = closure_check(family, n, q, mode="exhaustive")
    assert swept.passed and swept.checked == order ** fam.n

    classes, reps, worst = {}, [], 0.0
    for acc, res in judged:
        tall = acc.reshape(-1, d)
        prods = np.stack([tall @ stack[last] for last in range(order)]).reshape(order, *acc.shape)
        reps.append(prods)
        worst = max(worst, float(np.abs(prods - stack[res.T]).max(initial=0.0)))
        for key in _class_keys(acc, res):
            assert key not in classes  # no class is judged twice
            classes[key] = len(classes)
    # (order, classes, d, d) products, as their bits
    reps = np.concatenate(reps, axis=1).view(np.int64)

    # every tuple's literal product is its class representative's, so the
    # worst over the representatives is the worst over every tuple
    prefixes = order ** (fam.n - 1)
    runs = max(1, min(oracle._CHUNK // order, oracle._TALL_MNK // d ** 3))
    members = 0
    for start in range(0, prefixes, runs):
        _, acc, res = _reference_prefixes(fam, stack, start, min(start + runs, prefixes))
        cls = np.array([classes[key] for key in _class_keys(acc, res)])
        members += len(cls)
        tall, prod = acc.reshape(-1, d), np.empty_like(acc)
        for last in range(order):
            np.matmul(tall, stack[last], out=prod.reshape(tall.shape))
            assert np.array_equal(prod.view(np.int64), reps[last].take(cls, axis=0))
    assert members == prefixes
    if fam.n == 2:
        assert len(classes) == prefixes  # two factors: every prefix is judged
    assert swept.max_abs_deviation == worst


def test_failing_closure_class_across_chunks_matches_literal_reference(monkeypatch):
    # the label results, with last label 17, of every het (3, 4) prefix
    # (a, b) with a > 0 whose literal product is that of prefix (0, 10) are
    # doctored.  Those prefixes form one class; (0, 10) has the same product
    # bits but other label results, so it is not in it.  With four prefixes
    # to a chunk, the class is first met past the second chunk and has
    # members in later ones.  checked,
    # the witness and the worst deviation must be those of a literal
    # per-tuple sweep
    _failing_class_matches_literal_reference(monkeypatch)


def _constant_fingerprint(monkeypatch):
    """Give every prefix one fingerprint, so that only the first class is
    found by its fingerprint and every other one by its exact key."""
    monkeypatch.setattr(oracle, "_fingerprint",
                        lambda words, scratch: np.zeros(len(words), dtype=np.uint64))


def test_failing_closure_class_without_fingerprints_matches_literal_reference(monkeypatch):
    # the doctored class above, found through the exact path alone
    _constant_fingerprint(monkeypatch)
    _failing_class_matches_literal_reference(monkeypatch)


@pytest.mark.parametrize("fingerprints", [True, False], ids=["fingerprints", "exact"])
def test_failing_closure_class_in_one_head_blocks_matches_literal_reference(monkeypatch,
                                                                           fingerprints):
    # the doctored class above, with every prefix product taken from a
    # block of one head, so each head's 256 prefixes span 64 claim chunks
    monkeypatch.setattr(oracle, "_PREFIX_BLOCK_BYTES", 1)
    if not fingerprints:
        _constant_fingerprint(monkeypatch)
    _failing_class_matches_literal_reference(monkeypatch)


def _failing_class_matches_literal_reference(monkeypatch):
    fam = family_context("het", 3, 4)
    stack, order = fam.dense_stack, fam.order
    target = stack[0] @ stack[10]

    def one_class_wrong(rows, products):
        if products.ndim == 1:
            return products
        hit = (stack[rows[:, 0]] @ stack[rows[:, 1]] == target).all(axis=(1, 2))
        hit &= rows[:, 0] > 0
        products = products.copy()
        products[hit, 17] = (products[hit, 17] + 1) % order
        return products

    _doctor(monkeypatch, "het", 3, 4, results=one_class_wrong)
    monkeypatch.setattr(oracle, "_CHUNK", 4 * order)
    monkeypatch.setattr(oracle, "_TALL_MNK", 1 << 10)
    runs = 4
    doctored = oracle.family_context("het", 3, 4)

    # the literal sweep: each tuple's product and its doctored label result,
    # in row-major order, up to the end of the chunk of the first failure
    worst, first, start = 0.0, None, 0
    while first is None:
        pref, acc, res = _reference_prefixes(doctored, stack, start, start + runs)
        for p, row in enumerate(pref):
            prods = stack[row[0]] @ stack[row[1]] @ stack  # with every last label
            dev = np.abs(prods - stack[res[p]]).max(axis=(1, 2))
            worst = max(worst, float(dev.max()))
            if first is None and (dev > 1e-12).any():
                first = ((start + p) * order + int(np.argmax(dev > 1e-12)), [*row])
        start += runs
    checked, row = first[0] + 1, first[1] + [first[0] % order]
    assert checked > 2 * runs * order  # past the second chunk

    # the class of the failing prefix has members in chunks after its own
    _, acc, res = _reference_prefixes(doctored, stack, 0, 3 * order)
    keys = _class_keys(acc, res)
    chunks = {i // runs for i, key in enumerate(keys) if key == keys[first[0] // order]}
    assert len(chunks) > 1 and min(chunks) == first[0] // order // runs

    res = closure_check("het", 3, 4, mode="exhaustive", tol=1e-12)
    assert (res.passed, res.checked, res.max_abs_deviation) == (False, checked, worst)
    assert res.witness == {
        "kind": "closure",
        "operands": [fam.label(i).token() for i in row],
        "max_abs_deviation": worst,
    }


@pytest.mark.parametrize("family, n, q", [("het", 3, 4), ("full", 3, 8)])
def test_exhaustive_closure_without_fingerprints_judges_the_same_classes(monkeypatch,
                                                                        family, n, q):
    # every prefix colliding on one fingerprint sends all classes but the
    # first through the exact path: the same prefixes must be judged, and
    # the results must be identical
    real = oracle._closure_on_range

    def sweep():
        judged = []
        monkeypatch.setattr(oracle, "_closure_on_range", lambda f, at, acc, res, tol: (
            judged.append(len(at)) or real(f, at, acc, res, tol)))
        res = closure_check(family, n, q, mode="exhaustive", tol=1e-12)
        return res, judged

    want, judged = sweep()
    _constant_fingerprint(monkeypatch)
    got, judged_exactly = sweep()
    assert got == want and judged_exactly == judged
    assert want.passed and sum(judged) < family_context(family, n, q).order ** 2


def _judged_first_prefixes(monkeypatch):
    """Record the first prefix rows of the classes each judging call gets."""
    judged, real = [], oracle._closure_on_range
    monkeypatch.setattr(oracle, "_closure_on_range", lambda f, at, acc, res, tol: (
        judged.append(at.copy()) or real(f, at, acc, res, tol)))
    return judged


@pytest.mark.parametrize("family, n, q", [("full", 3, 8), ("het", 3, 4), ("elementary", 3, 8)])
def test_exhaustive_closure_with_two_bit_fingerprints_judges_the_same_prefixes(
        monkeypatch, family, n, q):
    # four fingerprints for the whole sweep: a chunk's prefixes mix classes
    # found by their fingerprint with classes that share one with an
    # earlier class and are found by their exact key; the same prefixes
    # must be judged, and the results must be identical
    judged = _judged_first_prefixes(monkeypatch)
    want = closure_check(family, n, q, mode="exhaustive")
    real, judged_real = oracle._fingerprint, np.concatenate(judged)
    monkeypatch.setattr(oracle, "_fingerprint",
                        lambda words, scratch: real(words, scratch) & np.uint64(3))
    judged.clear()
    got = closure_check(family, n, q, mode="exhaustive")
    assert got == want and want.passed
    assert np.array_equal(np.concatenate(judged), judged_real)


def test_exhaustive_closure_judges_classes_in_full_batches(monkeypatch):
    # full (3, 24): 18 claim chunks of 512 prefixes; their classes are
    # judged 512 at a time, the tall product's bound at d = 4, so every
    # judging call but the last gets a full batch
    judged = _judged_first_prefixes(monkeypatch)
    res = closure_check("full", 3, 24, mode="exhaustive")
    sizes, batch = [len(at) for at in judged], oracle._TALL_MNK // 4 ** 3
    assert res.passed and batch == 512
    assert len(sizes) == -(-sum(sizes) // batch) > 1
    assert sizes[:-1] == [batch] * (len(sizes) - 1)


@pytest.mark.parametrize("heads", [1, 3])
@pytest.mark.parametrize("family, n, q", [("elementary", 3, 8), ("full", 4, 4), ("het", 3, 4)])
def test_exhaustive_closure_in_small_prefix_blocks_judges_the_same_prefixes(
        monkeypatch, family, n, q, heads):
    # prefix products taken from blocks of one head or three instead of
    # the default's many: elementary (3, 8) has 65 labels, so its 512-prefix
    # chunks cut through heads and blocks; a full (4, 4) head is a pair of
    # labels, folded before its tall products.  The same prefixes must be
    # judged, and the results must be identical.  Like the bit-for-bit
    # class test, this holds only where a tall product's row bits do not
    # depend on the row's position
    fam = family_context(family, n, q)
    judged = _judged_first_prefixes(monkeypatch)
    want, judged_default = closure_check(family, n, q, mode="exhaustive"), np.concatenate(judged)
    sizes, real = [], oracle._prefix_blocks

    def prefix_blocks(fam, tuple_len):
        for block in real(fam, tuple_len):
            sizes.append(block[1])
            yield block

    monkeypatch.setattr(oracle, "_prefix_blocks", prefix_blocks)
    monkeypatch.setattr(oracle, "_PREFIX_BLOCK_BYTES", heads * fam.dense_stack.nbytes)
    judged.clear()
    got = closure_check(family, n, q, mode="exhaustive")
    assert got == want and want.passed
    assert np.array_equal(np.concatenate(judged), judged_default)
    # every block but the last holds ``heads`` heads, and the blocks cover
    # every head once
    assert max(sizes) == heads and sizes[:-1] == [heads] * (len(sizes) - 1)
    assert sum(sizes) == fam.order ** (n - 2)


@pytest.mark.parametrize("one_head", [False, True], ids=["default-blocks", "one-head-blocks"])
@pytest.mark.parametrize("family, n, q", [("het", 3, 4), ("full", 4, 4), ("elementary", 3, 8)])
def test_prefix_blocks_equal_per_label_tall_products(monkeypatch, family, n, q, one_head):
    # each block's rows for label c are the block's heads, folded left to
    # right and stacked to one tall matrix, times label c's matrix as one
    # matmul of its own, bit for bit; a wide product of the heads with
    # every label's matrix at once rounds some of them otherwise
    fam = family_context(family, n, q)
    stack, order, d = fam.dense_stack, fam.order, fam.dense_stack.shape[-1]
    if one_head:
        monkeypatch.setattr(oracle, "_PREFIX_BLOCK_BYTES", stack.nbytes)
    covered = 0
    for first, h, block in oracle._prefix_blocks(fam, n):
        assert first == covered and block.shape == (order * h, d, d)
        head = phases._build_tuples(order, n - 2, first, first + h)
        acc = stack[head[:, 0]]
        for t in range(1, n - 2):
            acc = acc @ stack[head[:, t]]
        tall = acc.reshape(h * d, d)
        for c in range(order):
            want = np.matmul(tall, stack[c]).reshape(h, d, d)
            assert np.array_equal(block[c * h:(c + 1) * h].view(np.int64), want.view(np.int64))
        covered += h
    assert covered == order ** (n - 2)


def test_exhaustive_closure_holds_one_prefix_block_besides_its_buffers():
    # het (3, 4) exhaustive, with its context and dense stack held, peaks
    # at 3.28 MB: a 1.5 MiB block of 24 heads times 256 labels, and about
    # 1.7 MB of chunk, class-table and judging buffers (the peak is 1.83 MB
    # with one-head blocks).  A block held only to the tall product's bound
    # would be 512 heads, 32 MiB
    closure_check("het", 3, 4, mode="exhaustive")  # the context, its stack and tables
    res, peak = traced_peak(lambda: closure_check("het", 3, 4, mode="exhaustive"))
    assert res.passed and oracle._PREFIX_BLOCK_BYTES == 3 << 19
    assert peak <= oracle._PREFIX_BLOCK_BYTES + 2 ** 21


@pytest.mark.parametrize("runs, y, batches", [(257, 400, [0, 1]), (258, 700, [0, 0])],
                         ids=["chunk-past-its-batch", "batch-past-its-chunk"])
def test_failing_class_near_batch_ends_matches_literal_reference(monkeypatch, runs, y, batches):
    # het (3, 4) with ``runs`` prefixes to a chunk and as many classes to a
    # batch.  Prefixes 0..255 hold the undoctored family's 256 classes, so
    # prefixes x and y, doctored, are the only classes after them: x's is
    # class 256, in chunk 1, and fails first; y's is class 257 and fails
    # with the larger deviation.  With 257, y is in chunk 1 but starts the
    # second batch, so a sweep that reported at the end of the failing
    # batch would miss it.  With 258, y shares the failing batch but is in
    # chunk 2, so a sweep that counted every class of that batch would
    # count it.  checked, the witness and the worst deviation must be those
    # of a literal per-tuple sweep up to the end of the failing chunk
    fam = family_context("het", 3, 4)
    stack, order, x = fam.dense_stack, fam.order, 300

    def two_wrong(rows, products):
        if products.ndim == 1:
            return products
        products = products.copy()
        prefix = rows[:, 0] * order + rows[:, 1]
        products[prefix == x, 17] = (products[prefix == x, 17] + 1) % order
        products[prefix == y, 30] = (products[prefix == y, 30] + 2) % order
        return products

    _doctor(monkeypatch, "het", 3, 4, results=two_wrong)
    monkeypatch.setattr(oracle, "_TALL_MNK", runs * 4 ** 3)
    doctored = oracle.family_context("het", 3, 4)

    def literal(start, stop):
        """Each prefix's worst deviation and its first bad tuple, or None."""
        pref, _, res = _reference_prefixes(doctored, stack, start, stop)
        for p, row in enumerate(pref):
            dev = np.abs(stack[row[0]] @ stack[row[1]] @ stack - stack[res[p]]).max(axis=(1, 2))
            bad = (start + p) * order + int(np.argmax(dev > 1e-12))
            yield float(dev.max()), bad if (dev > 1e-12).any() else None

    # the literal sweep, up to the end of the chunk of the first failure
    swept = [*literal(0, runs)] + [*literal(runs, 2 * runs)]
    worst, first = max(dev for dev, _ in swept), min(bad for _, bad in swept if bad)
    assert first == x * order + 17
    x_dev, y_dev = (next(literal(p, p + 1))[0] for p in (x, y))
    assert x_dev < y_dev == 2.0 and worst == (y_dev if y < 2 * runs else x_dev)

    judged = _judged_first_prefixes(monkeypatch)
    res = closure_check("het", 3, 4, mode="exhaustive", tol=1e-12)
    assert (res.passed, res.checked, res.max_abs_deviation) == (False, first + 1, worst)
    assert res.witness == {
        "kind": "closure",
        "operands": [fam.label(i).token()
                     for i in phases._build_tuples(order, 3, first, first + 1)[0]],
        "max_abs_deviation": worst,
    }
    # x's and y's classes are judged in the batches described
    assert [i for p in (x, y) for i, at in enumerate(judged) if p in at] == batches
    assert judged[0][256] == x


@pytest.mark.parametrize("family, n, q", [("het", 3, 4), ("elementary", 3, 8), ("pauli", 2, 12)])
def test_every_last_writes_into_out(family, n, q):
    # the kernel's every_last result written into a given (2, P, k) buffer,
    # here larger than needed and filled with garbage, must be the buffer's
    # first plane, and each prefix followed by each label must lower to the
    # dense product of its factors; pauli prefixes have one factor, so they
    # take the kernel's outright fold
    fam = family_context(family, n, q)
    prefixes = fam.order ** (fam.n - 1)
    pref = phases._build_tuples(fam.order, fam.n - 1, prefixes - 40, prefixes)
    dtype = fam.index_mult(pref[:1], every_last=True).dtype
    out = np.full((2, 64, fam.order), 7, dtype=dtype)
    got = fam.index_mult(pref, every_last=True, out=out[:, :len(pref)])
    assert got.dtype == dtype and got.shape == (len(pref), fam.order)
    assert got.base is out and got.ctypes.data == out.ctypes.data
    stack = fam.dense_stack
    acc = functools.reduce(np.matmul, stack[pref].swapaxes(0, 1))
    assert np.abs(acc[:, None] @ stack - stack[got]).max() <= 1e-12


# ---------------------------------------------------------------------------
# property test: the slot-table kernel against lowered dense products


@st.composite
def _kernel_cases(draw):
    family = draw(st.sampled_from(["pauli", "elementary", "full", "het"]))
    n = 2 if family == "pauli" else draw(st.integers(2, 6))
    q = draw(st.sampled_from(Q12))
    tl = draw(st.sampled_from([n, 2 * n - 1]))
    return family, n, q, tl, draw(st.booleans()), draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=60, deadline=None, database=None)
@given(_kernel_cases())
def test_index_mult_property(case):
    # the kernel runs over the slot codes of the drawn labels only, so any
    # (n, q) works without enumerating the family; each product, decoded from
    # its label index, must lower to the dense product of its factors
    family, n, q, tl, chained, seed = case
    _, order = phases.family_size(family, n, q)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, order, size=(128, tl))
    if family == "elementary" and chained:
        # nonzero products need positions k, k+1, ... (cyclic); random rows
        # almost never chain
        m = n - 1
        k0 = (rng.integers(0, m, size=(128, 1)) + np.arange(tl)) % m
        j = rng.integers(0, 4, size=(128, tl))
        idx = (j * m + k0) * q + rng.integers(0, q, size=(128, tl))
    slots = phases.family_slots(family, n, q, idx.ravel())
    index_mult = phases._slot_kernel(family, q, slots)
    rows = np.arange(idx.size).reshape(idx.shape)
    got = index_mult(rows)
    d = 2 * (n - 1)
    mats = phases.lower_slots(slots.T, n, q).reshape(*idx.shape, d, d)
    prod = functools.reduce(np.matmul, mats.swapaxes(0, 1))
    want = phases.lower_slots(phases.family_slots(family, n, q, got).T, n, q)
    assert np.abs(prod - want).max() <= 1e-12
    if family == "elementary" and chained:
        assert (got != order - 1).all()

    shared = index_mult(rows[:3, :-1], every_last=True)
    every = np.arange(idx.size)
    flat = [index_mult(np.column_stack([np.tile(p, (idx.size, 1)), every]))
            for p in rows[:3, :-1]]
    assert shared.shape == (3, idx.size)
    assert np.array_equal(shared, np.stack(flat))


@pytest.mark.parametrize("family, n, q", [
    ("pauli", 2, 4), ("full", 3, 4), ("elementary", 4, 4), ("het", 3, 4),
])
def test_every_last_tables_are_built_once_per_shift(monkeypatch, family, n, q):
    # one kernel, called at two prefix lengths (two shifts when m > 1), twice
    # each: every result must equal the row-wise products, and each shift's
    # read-only tables must be built once
    builds = []

    def counted(*args):
        builds.append(args[-1])
        return real(*args)

    real = phases._last_factor_tables
    monkeypatch.setattr(phases, "_last_factor_tables", counted)
    slots = phases.family_slots(family, n, q)
    m, order = slots.shape
    index_mult = phases._slot_kernel(family, q, slots)
    rng = np.random.default_rng(5)
    every = np.arange(order)
    for t in (n - 1, n):
        pref = rng.integers(0, order, size=(8, t))
        if family == "elementary":
            # the zero, and rows whose positions chain k, k+1, ... (cyclic)
            pref[0] = order - 1
            k0 = (rng.integers(0, m, size=(4, 1)) + np.arange(t)) % m
            j = rng.integers(0, 4, size=(4, t))
            pref[1:5] = (j * m + k0) * q + rng.integers(0, q, size=(4, t))
        for _ in range(2):
            got = index_mult(pref, every_last=True)
            want = [index_mult(np.column_stack([np.tile(p, (order, 1)), every]))
                    for p in pref]
            assert np.array_equal(got, np.stack(want))
    assert builds == list(dict.fromkeys([(n - 1) % m, n % m]))
    if family == "elementary":
        assert (got != order - 1).any() and (got == order - 1).any()
    table = real(q, slots, phases._slot_parts(family, q, m)[0], 0)[0]
    assert table.shape == (4 * q + 1, order) and not table.flags.writeable


def test_every_last_tables_are_built_once_under_threads(monkeypatch):
    # caller threads may share one cached kernel: four threads, more than
    # two cores, racing for the first every_last call must build the table once
    builds = []
    real = phases._last_factor_tables
    monkeypatch.setattr(phases, "_last_factor_tables",
                        lambda *args: builds.append(args[-1]) or real(*args))
    slots = phases.family_slots("het", 3, 4)
    index_mult = phases._slot_kernel("het", 4, slots)
    pref = phases._build_tuples(slots.shape[1], 2, 0, 64)
    want = np.stack([index_mult(np.column_stack([np.tile(p, (256, 1)), np.arange(256)]))
                     for p in pref])
    results = []
    start = threading.Barrier(4)

    def work():
        start.wait(timeout=10)
        results.append(index_mult(pref, every_last=True))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert builds == [0] and len(results) == 4
    assert all(np.array_equal(r, want) for r in results)


def test_two_factor_closures_build_no_last_factor_table(monkeypatch):
    # a two-factor closure meets each label once as a one-factor prefix, so a
    # table row would be read about once: the prefixes are folded with every
    # label outright, and no table is built
    builds = []
    monkeypatch.setattr(phases, "_last_factor_tables", lambda *args: builds.append(args))
    for family in ("pauli", "elementary", "full", "het"):
        res = closure_check(family, 2, 12, mode="exhaustive")
        assert res.passed and res.checked == family_context(family, 2, 12).order ** 2
    assert builds == []


@pytest.mark.parametrize("q", [4, 40, 60, 360])
@pytest.mark.parametrize("family, n", [("pauli", 2), ("full", 4), ("elementary", 4),
                                       ("het", 4)])
def test_kernel_matches_scalar_products_across_code_widths(family, n, q):
    # slot codes are int16 up to q = 44 and int32 from q = 48; 40 and 60 are
    # the admissible moduli on either side.  The kernel runs over the narrow
    # codes of up to 48 drawn labels, the zero among the elementary ones,
    # and must agree with the scalar products of their label objects
    dtype = phases._code_dtype(q)
    assert dtype == (np.int16 if q <= 40 else np.int32)
    assert phases._cayley_table(q).dtype == dtype
    assert family_context("pauli", 2, q).slots.dtype == dtype
    _, order = phases.family_size(family, n, q)
    rng = np.random.default_rng(q * 10 + n)
    labels = rng.choice(order, size=min(48, order), replace=False)
    if family == "elementary":
        labels[0] = order - 1
    slots = phases.family_slots(family, n, q, labels).astype(dtype)
    index_mult = phases._slot_kernel(family, q, slots)
    m = len(slots)
    for t in (n, 2 * n - 1):
        rows = rng.integers(0, len(labels), size=(40, t))
        if family == "elementary":
            # rows whose positions chain k, k+1, ... (cyclic), so that not
            # every product is the zero
            live = np.flatnonzero(labels < order - 1)
            pos = slots[:, live].argmin(axis=0)
            for row in rows[:20]:
                k = rng.integers(m)
                row[:] = [rng.choice(live[pos == (k + u) % m]) for u in range(t)]
        got = index_mult(rows)
        want = [phases._product(family, [phases.label_from_slots(family, n, q, slots[:, i])
                                         for i in row], n) for row in rows]
        assert [phases.label_from_slots(family, n, q, codes)
                for codes in phases.family_slots(family, n, q, got).T] == want
        if family == "elementary":
            assert (got != order - 1).any() and (got == order - 1).any()
        # column j of an every_last result is the row-wise product with last
        # label j
        every = index_mult(rows[:8, :-1], every_last=True)
        assert every.shape == (8, len(labels))
        for last in range(len(labels)):
            whole = np.column_stack([rows[:8, :-1], np.full(8, last)])
            assert np.array_equal(every[:, last], index_mult(whole))


def test_code_width_changes_between_q_44_and_48():
    # the fold's largest flat index (4q+1)^2 - 1 is 31,328 at q = 44 and
    # 37,248 at q = 48; neither q is an admissible modulus
    assert phases._code_dtype(44) == np.int16 and phases._code_dtype(48) == np.int32


def test_family_context_keeps_only_narrow_codes():
    # het (4, 8): 3 slots of 32,768 labels at 2 bytes each.  family_slots
    # enumerates int64 codes, and none of them outlives the context: what
    # it holds beside its narrow codes is less than one int64 per label
    family_context("het", 4, 8)  # builds the cached Cayley table first
    family_context.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fam = family_context("het", 4, 8)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert fam.slots.dtype == np.int16 and fam.slots.nbytes == 196_608
    assert held - fam.slots.nbytes < 8 * fam.order
