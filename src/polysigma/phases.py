"""Finite phase-shifted structures as exact label algebras.

Elements are labels (vectors of integer slot codes, see below) rather than
matrices.  This module holds the whole label algebra: one Cayley table per q
and one fold of slot codes, on which the family enumerations, the oracle's
index kernel, the public products and the querelement formulas run.  The
formulas run batched over arrays of slot codes; the public scalar functions
are one-row wrappers.  No floating point enters any group-theoretic
conclusion, and dense matrices appear only when labels are lowered for the
oracle.

The admissible phase moduli are the divisors of 360 that are multiples of 4;
the quarter-turn unit i is then always representable as the integer phase
shift q/4.
"""

from __future__ import annotations

import functools
import json
import math
import os
import threading
from dataclasses import asdict, dataclass
from typing import Callable, ClassVar, Iterable, Sequence

import numpy as np

from .errors import ArityError, DomainError, ValidationError
from .matrices import DEFAULT_TOL, check_factor_count, cyclic_fold, sigma

#: the twelve admissible phase moduli.
Q12 = (4, 8, 12, 20, 24, 36, 40, 60, 72, 120, 180, 360)


def check_modulus(q: int) -> int:
    if q not in Q12:
        raise DomainError(f"phase modulus must be one of {Q12}, got {q!r}")
    return q


def root_of_unity(r: int, q: int) -> complex:
    """e^(2*pi*i*r/q), exact for quarter-turn multiples (r*4 divisible by q)."""
    r %= q
    if (4 * r) % q == 0:
        return (1 + 0j, 1j, -1 + 0j, -1j)[(4 * r) // q]
    angle = 2.0 * math.pi * r / q
    return complex(math.cos(angle), math.sin(angle))


_EPS = {
    (1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
    (3, 2, 1): -1, (1, 3, 2): -1, (2, 1, 3): -1,
}


def levi_civita(k: int, l: int, m: int) -> int:
    """Three-dimensional permutation symbol on indices 1..3 (0 on repeats)."""
    return _EPS.get((k, l, m), 0)


def mul_sigma_indices(j: int, k: int) -> tuple[int, int]:
    """sigma_j * sigma_k = i**quarter * sigma_result, exactly.

    Returns (result_index, quarter) with quarter in {0..3}.  Index 0 only
    passes the other index through; equal nonzero indices square to sigma_0;
    distinct nonzero indices produce the third index with quarter 2 - eps,
    i.e. +i for an even permutation and -i for an odd one.
    """
    if j == 0:
        return k, 0
    if k == 0:
        return j, 0
    if j == k:
        return 0, 0
    m = 6 - j - k
    return m, (2 - _EPS[(j, k, m)]) % 4


def levi_civita_phase(k: int, l: int, m: int, q: int) -> tuple[int, int]:
    """Magnitude of the permutation symbol and the phase-index shift encoding
    its sign: (q/4)*(1 - eps), i.e. 0 for +1 and q/2 for -1."""
    check_modulus(q)
    for v in (k, l, m):
        if v not in (1, 2, 3):
            raise DomainError(f"indices must be 1..3, got {v!r}")
    eps = levi_civita(k, l, m)
    if eps == 0:
        return 0, 0
    return 1, (q // 4) * (1 - eps) % q


# ---------------------------------------------------------------------------
# labels
#
# A label is a vector of m slot codes over G_q + {0}, the phase-shifted sigma
# matrices e^(2*pi*i*r/q)*sigma_j coded j*q + r plus an absorbing zero coded
# 4q (Post's covering group).  Pauli and full labels have one slot,
# heterogeneous labels n-1 free slots, elementary labels one nonzero slot.


@functools.cache
def _block_table(q: int) -> np.ndarray:
    """(4q+1, 2, 2) read-only blocks: code j*q + r holds
    e^(2*pi*i*r/q) * sigma_j, the absorbing code 4q a zero block."""
    table = np.zeros((4 * q + 1, 2, 2), dtype=np.complex128)
    for j in range(4):
        for r in range(q):
            table[j * q + r] = root_of_unity(r, q) * sigma(j)
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=4)
def _row_table(n: int, q: int) -> np.ndarray:
    """((4q+1)*(n-1), 4(n-1)) read-only row pairs of the dense forms: row
    code*(n-1) + s is rows 2s and 2s+1 of a form whose block s has code
    ``code``, that block at block column s+1 mod n-1 and zeros elsewhere.
    It holds (4q+1)*(2n-2)^2 entries of 16 bytes: 19 KB at (4, 8), 5.9 MB
    at (9, 360), so only the last few are kept."""
    m = n - 1
    table = np.zeros((4 * q + 1, m, 2, m, 2), dtype=np.complex128)
    for s in range(m):
        table[:, s, :, (s + 1) % m, :] = _block_table(q)
    table = table.reshape(-1, 4 * m)
    table.flags.writeable = False
    return table


def lower_slots(codes, n: int, q: int, out: np.ndarray | None = None) -> np.ndarray:
    """Dense forms of the labels with valid slot codes ``codes`` (..., n-1):
    slot s is the label's block s.  A single slot (..., 1) fills every
    block.  Row pair s of a form holds only block s, so the result, seen as
    its row pairs, is one gather from the row table, and every entry is
    written.  The result is ``out`` when it is given, a C-contiguous stack
    of any content, so one buffer serves call after call."""
    m = n - 1
    # slot s's row pair in the table; a single slot broadcasts to every block
    rows = np.multiply(codes, m, dtype=np.intp) + np.arange(m)
    dense = np.empty(rows.shape[:-1] + (2 * m, 2 * m), np.complex128) if out is None else out
    if not dense.flags.c_contiguous:
        raise DomainError("lower_slots writes only into a C-contiguous stack")
    # clip spares the copy of the result that a raising take makes; valid
    # codes never clip
    np.take(_row_table(n, q), rows, axis=0, out=dense.reshape(rows.shape + (4 * m,)),
            mode="clip")
    return dense


class _Label:
    """A label lowers through its slot codes."""

    def dense(self) -> np.ndarray:
        return lower_slots(self.slots(), self.n, self.q)


@dataclass(frozen=True)
class PauliLabel(_Label):
    """Phase-shifted sigma matrix e^(2*pi*i*r/q) * sigma_j."""

    n: ClassVar[int] = 2  # binary: one 2x2 block
    q: int
    j: int
    r: int

    def __post_init__(self):
        check_modulus(self.q)
        sigma(self.j)
        if not 0 <= self.r < self.q:
            raise ValidationError(f"phase index must be 0..{self.q - 1}, got {self.r}")

    def slots(self) -> tuple[int, ...]:
        return (self.j * self.q + self.r,)

    def token(self) -> str:
        return f"s{self.j}r{self.r}"


@dataclass(frozen=True)
class ElementaryLabel(_Label):
    """Phase-shifted elementary Sigma matrix: one block e^(2*pi*i*r/q)*sigma_j
    at cyclic position k."""

    q: int
    n: int
    j: int
    k: int
    r: int

    def __post_init__(self):
        check_modulus(self.q)
        sigma(self.j)
        if not 1 <= self.k <= self.n - 1:
            raise ValidationError(f"position must be 1..{self.n - 1}, got {self.k}")
        if not 0 <= self.r < self.q:
            raise ValidationError(f"phase index must be 0..{self.q - 1}, got {self.r}")

    def slots(self) -> tuple[int, ...]:
        codes = [4 * self.q] * (self.n - 1)
        codes[self.k - 1] = self.j * self.q + self.r
        return tuple(codes)

    def token(self) -> str:
        return f"e{self.j}k{self.k}r{self.r}"


@dataclass(frozen=True)
class ZeroLabel(_Label):
    """The adjoined absorbing zero of the elementary semigroup."""

    q: int
    n: int

    def slots(self) -> tuple[int, ...]:
        return (4 * self.q,) * (self.n - 1)

    def token(self) -> str:
        return "Z"


@dataclass(frozen=True)
class FullLabel(_Label):
    """Phase-shifted full Sigma matrix: e^(2*pi*i*r/q)*sigma_j on every block."""

    q: int
    n: int
    j: int
    r: int

    def __post_init__(self):
        check_modulus(self.q)
        sigma(self.j)
        if not 0 <= self.r < self.q:
            raise ValidationError(f"phase index must be 0..{self.q - 1}, got {self.r}")

    def slots(self) -> tuple[int, ...]:
        return (self.j * self.q + self.r,)

    def token(self) -> str:
        return f"f{self.j}r{self.r}"


@dataclass(frozen=True)
class HetLabel(_Label):
    """Element-wise phase-shifted heterogeneous Sigma matrix: block k carries
    e^(2*pi*i*rs[k]/q) * sigma_(js[k])."""

    q: int
    n: int
    js: tuple[int, ...]
    rs: tuple[int, ...]

    def __post_init__(self):
        check_modulus(self.q)
        object.__setattr__(self, "js", tuple(int(v) for v in self.js))
        object.__setattr__(self, "rs", tuple(int(v) for v in self.rs))
        m = self.n - 1
        if len(self.js) != m or len(self.rs) != m:
            raise ValidationError(f"expected {m} indices and {m} phases")
        for j in self.js:
            sigma(j)
        for r in self.rs:
            if not 0 <= r < self.q:
                raise ValidationError(f"phase index must be 0..{self.q - 1}, got {r}")

    def slots(self) -> tuple[int, ...]:
        return tuple(j * self.q + r for j, r in zip(self.js, self.rs))

    def token(self) -> str:
        js = ".".join(str(j) for j in self.js)
        rs = ".".join(str(r) for r in self.rs)
        return f"h{js}r{rs}"


# ---------------------------------------------------------------------------
# the label algebra
#
# Result slot s of a product is the product over factors t of factor t's slot
# (s + t) mod m (``matrices.cyclic_fold``), so zero factors and non-chaining
# elementary tuples fall out of the Cayley table's zero row and column.


def _code_dtype(q: int) -> np.dtype:
    """The narrowest signed dtype of slot codes and of the Cayley table: it
    holds the fold's flat index code*(4q+1) + code, below (4q+1)^2, so
    int16 up to q = 44 and int32 from q = 48."""
    return np.dtype(np.int16 if (4 * q + 1) ** 2 <= 1 << 15 else np.int32)


@functools.cache
def _cayley_table(q: int) -> np.ndarray:
    """(4q+1, 4q+1) read-only Cayley table of G_q plus the absorbing zero 4q,
    filled one (q, q) block per pair of sigma indices, in the codes' dtype
    (``_code_dtype``)."""
    sums = np.add.outer(np.arange(q), np.arange(q))
    table = np.full((4 * q + 1, 4 * q + 1), 4 * q, dtype=_code_dtype(q))
    for a in range(4):
        for b in range(4):
            j, quarter = mul_sigma_indices(a, b)
            table[a * q:(a + 1) * q, b * q:(b + 1) * q] = (
                j * q + (sums + (q // 4) * quarter) % q)
    table.flags.writeable = False
    return table


def _slot_fold(q: int, factors: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Slot codes of the product of ``factors``, each an (m, ...) array of
    slot codes of one shape, folded left to right: one array per result
    slot.  This is the one fold of every label product: the kernel's rows
    and prefixes, and, on (m,) codes whose slots are numpy scalars, the
    public scalar products.  Each step forms acc * (4q+1), adds the code in
    place and takes acc from the flat Cayley table at that index, in the
    codes' narrow dtype (``_code_dtype``); no factor is written."""
    table, width = _cayley_table(q).ravel(), 4 * q + 1

    def step(acc: np.ndarray, code: np.ndarray) -> np.ndarray:
        acc = acc * width
        acc += code
        return table.take(acc)

    return cyclic_fold(factors, step)


def _slot_parts(name: str, q: int, m: int) -> tuple[np.ndarray, Callable]:
    """How m slot-code arrays encode to label indices in the canonical order
    of ``family_slots``: code c in slot s contributes the part parts[s, c],
    and the join folds the slots' parts into the index."""
    j, r = np.divmod(np.arange(4 * q + 1), q)
    if name == "elementary":
        # one live slot at most; the zero label has the largest index, so the
        # minimum over the slots picks the live one
        parts = np.array([(j * m + s) * q + r for s in range(m)])
        parts[:, -1] = 4 * q * m
        return parts, np.minimum
    # a group family never reaches the zero code
    return np.array([j * 4 ** (m - 1 - s) * q ** m + r * q ** (m - 1 - s)
                     for s in range(m)]), np.add


def _slot_index(name: str, q: int, m: int) -> Callable[[np.ndarray], np.ndarray]:
    """The encoder of m slot-code arrays to label indices (``_slot_parts``)."""
    parts, join = _slot_parts(name, q, m)

    def encode(codes: np.ndarray) -> np.ndarray:
        return functools.reduce(join, (parts[s][codes[s]] for s in range(m)))

    return encode


def _last_factor_tables(q: int, slots: np.ndarray, parts: np.ndarray,
                        shift: int) -> list[np.ndarray]:
    """Per result slot s, the read-only (4q+1, k) table whose row c holds
    the part, in slot s, of the product of prefix code c with slot
    (s + shift) mod m of each of the k labels with (m, k) slot codes
    ``slots``: the last factor of a product whose prefix has ``shift``
    factors, mod m, finished for every label at once, in the dtype of
    ``parts``."""
    cayley, m = _cayley_table(q), len(slots)
    # take keeps the tables C-ordered, so a gathered row is contiguous
    tables = [parts[s][cayley.take(slots[(s + shift) % m], axis=1)] for s in range(m)]
    for table in tables:
        table.flags.writeable = False
    return tables


def _slot_kernel(name: str, q: int, slots: np.ndarray) -> Callable[..., np.ndarray]:
    """index_mult over the labels with (m, k) slot codes ``slots``: (B, t)
    rows of label indices -> (B,) label indices of the products.  The codes
    are best held in their narrow dtype (``_code_dtype``, as
    ``oracle.family_context`` holds them): each factor's codes are one
    gather from ``slots`` by its column of label indices, and the products'
    codes come from the one fold of every label product (``_slot_fold``),
    which each result slot's parts then encode.

    With every_last=True, (P, t) prefixes -> (P, k), each prefix followed by
    every label: only the prefixes are folded, to one (P,) code per result
    slot, and each slot's codes pick rows of that slot's last-factor table
    (``_last_factor_tables``), which the join adds up or takes the minimum
    of.  The tables, m * (4q+1) * k entries per prefix length mod m, are
    built on the first every_last call with that shift and kept with the
    kernel; row-wise calls never build them.  One-factor prefixes build no
    table: a sweep meets each label once as a prefix, so a table row would
    be read about once, and each prefix is folded with every label
    outright.  every_last results take the smallest unsigned dtype that
    holds the label count (uint8 below 256 labels, uint16 below 65,536),
    which cuts the tables' memory and the bytes their row gathers move.

    The result is written to out[0], which is returned, and out[1] holds
    one slot's rows while the join folds them in.  ``out``, a (2, P, k)
    array of that dtype, lets an every_last caller reuse that memory; by
    default it is allocated per call."""
    m = len(slots)
    parts, join = _slot_parts(name, q, m)
    # the join of each slot's largest reachable part is the largest label
    # index (a group family never reaches the zero code); one more is the
    # label count, which arithmetic modulo it must be able to hold
    reachable = parts if name == "elementary" else parts[:, :-1]
    count = int(join.reduce(reachable.max(axis=1))) + 1
    narrow = parts.astype(np.min_scalar_type(count))
    tables: dict[int, list[np.ndarray]] = {}
    lock = threading.Lock()

    def last_tables(shift: int) -> list[np.ndarray]:
        with lock:  # caller threads may share a cached kernel; build each shift once
            if shift not in tables:
                tables[shift] = _last_factor_tables(q, slots, narrow, shift)
            return tables[shift]

    def index_mult(idx: np.ndarray, every_last: bool = False,
                   out: np.ndarray | None = None) -> np.ndarray:
        factors = [np.take(slots, idx[:, t], axis=1) for t in range(idx.shape[1])]
        rows = parts
        if every_last and len(factors) == 1:
            factors, rows = np.broadcast_arrays(factors[0][:, :, None], slots[:, None, :]), narrow
        elif every_last:
            rows = last_tables(idx.shape[1] % m)
        codes = _slot_fold(q, factors)
        if out is None:  # apart, so the result does not keep the join's rows alive
            out = [np.empty((*codes[0].shape, *rows[0].shape[1:]), rows[0].dtype)
                   for _ in range(min(m, 2))]
        # codes index their tables' rows, so "clip" never clips; unlike
        # "raise", it writes straight into out
        res = np.take(rows[0], codes[0], axis=0, out=out[0], mode="clip")
        for s in range(1, m):
            join(res, np.take(rows[s], codes[s], axis=0, out=out[1], mode="clip"), out=res)
        return res

    return index_mult


def family_size(name: str, n: int, q: int) -> tuple[int, int]:
    """The factor count of a family's product (2 for pauli, else n >= 2)
    and its label count, checked before anything is enumerated: a label
    count that numpy cannot index is refused."""
    check_modulus(q)
    if name == "pauli":
        return 2, 4 * q
    if n < 2:
        raise DomainError(f"arity must be >= 2 for family {name!r}, got {n}")
    orders = {"elementary": 4 * q * (n - 1) + 1, "full": 4 * q,
              "het": het_order_enumerated(n, q)}
    if name not in orders:
        raise DomainError(f"unknown family {name!r}; expected one of {('pauli', *orders)}")
    if orders[name] > np.iinfo(np.intp).max:
        raise DomainError(f"{orders[name]} labels are too many to enumerate "
                          f"(at most {np.iinfo(np.intp).max})")
    return n, orders[name]


def _check_enumerable(order: int, m: int) -> None:
    """Refuse to enumerate ``order`` labels of ``m`` slots when their int64
    indices and (m, order) codes alone would exceed physical memory."""
    need, have = 8 * order * (m + 1), os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise DomainError(f"enumerating {order} labels takes at least {need} bytes, "
                          f"more than the {have} bytes of physical memory")


def family_slots(name: str, n: int, q: int, index=None) -> np.ndarray:
    """(m, k) slot codes of the family's labels at the canonical indices
    ``index`` (every label by default, if memory can hold them).  The
    canonical order runs over the sigma indices, then the elementary
    position, then the phase indices, first slot most significant; the
    elementary zero comes last."""
    n, order = family_size(name, n, q)
    m = 1 if name in ("pauli", "full") else n - 1
    if index is None:
        _check_enumerable(order, m)
    index = np.arange(order) if index is None else np.asarray(index, dtype=np.int64)
    if name == "elementary":
        j, k, r = np.unravel_index(np.minimum(index, order - 2), (4, n - 1, q))
        live = (np.arange(n - 1)[:, None] == k) & (index < order - 1)
        return np.where(live, j * q + r, 4 * q)
    # index = sum_s j_s * 4^(m-1-s) * q^m + r_s * q^(m-1-s), unravelled in
    # place one slot at a time: besides the result, one row of digits is held
    codes, r = np.empty((m, len(index)), dtype=np.int64), np.empty_like(index)
    for s, row in enumerate(codes):
        np.floor_divide(index, 4 ** (m - 1 - s) * q ** m, out=row)
        row %= 4
        row *= q
        np.floor_divide(index, q ** (m - 1 - s), out=r)
        r %= q
        row += r
    return codes


def label_from_slots(name: str, n: int, q: int, codes: Sequence[int]) -> _Label:
    """The label object of the family with slot codes ``codes``."""
    js, rs = zip(*(divmod(int(c), q) for c in codes))
    if name == "pauli":
        return PauliLabel(q, js[0], rs[0])
    if name == "full":
        return FullLabel(q, n, js[0], rs[0])
    if name == "het":
        return HetLabel(q, n, js, rs)
    live = [s for s, j in enumerate(js) if j < 4]
    if not live:
        return ZeroLabel(q, n)
    return ElementaryLabel(q, n, js[live[0]], live[0] + 1, rs[live[0]])


def _build_tuples(order: int, tuple_len: int, start: int, stop: int) -> np.ndarray:
    """Tuple rows for flat indices start..stop-1 in row-major order."""
    return np.stack(np.unravel_index(np.arange(start, stop), (order,) * tuple_len), axis=1)


def _chunk_ranges(total: int, chunk: int):
    return ((start, min(start + chunk, total)) for start in range(0, total, chunk))


# ---------------------------------------------------------------------------
# enumerations, in the canonical order


def _labels(name: str, n: int, q: int) -> list:
    return [label_from_slots(name, n, q, codes) for codes in family_slots(name, n, q).T]


def pauli_labels(q: int) -> list[PauliLabel]:
    return _labels("pauli", 2, q)


def full_labels(n: int, q: int) -> list[FullLabel]:
    return _labels("full", n, q)


def elementary_labels(n: int, q: int) -> list[ElementaryLabel | ZeroLabel]:
    """All 4q(n-1) nonzero labels followed by the adjoined zero."""
    return _labels("elementary", n, q)


def het_phased_labels(n: int, q: int) -> list[HetLabel]:
    return _labels("het", n, q)


def het_order_enumerated(n: int, q: int) -> int:
    return (4 * q) ** (n - 1)


def het_order_claimed(n: int, q: int) -> int:
    """The published order (4q(n-1))^4; does not match the enumerated label
    count except by coincidence, and is reported alongside it."""
    return (4 * q * (n - 1)) ** 4


# ---------------------------------------------------------------------------
# multiplications and querelements


def _common_q(labels: Iterable) -> int:
    qs = {lab.q for lab in labels}
    if len(qs) != 1:
        raise DomainError(f"mixed phase moduli {sorted(qs)}")
    return qs.pop()


def _product(name: str, labels: Sequence, n: int):
    q = _common_q(labels)
    for lab in labels:
        if lab.n != n:
            raise DomainError(f"arity mismatch: {lab.n} != {n}")
    codes = _slot_fold(q, np.array([lab.slots() for lab in labels], _code_dtype(q)))
    return label_from_slots(name, n, q, codes)


def _one_row(formula: Callable, name: str, lab, n: int):
    return label_from_slots(name, n, lab.q, formula(np.array(lab.slots()), n, lab.q))


def pauli_mul(a: PauliLabel, b: PauliLabel) -> PauliLabel:
    """Closed binary product of phase-shifted sigma matrices."""
    return _product("pauli", (a, b), 2)


def pauli_identity(q: int) -> PauliLabel:
    return PauliLabel(q, 0, 0)


def _pauli_inverse(codes: np.ndarray, n: int, q: int) -> np.ndarray:
    """Inverses of phase-shifted sigma blocks: only the phase negates, and
    the zero code stays zero."""
    j, r = np.divmod(codes, q)
    return j * q + (-r) % q


def pauli_inverse(a: PauliLabel) -> PauliLabel:
    """sigma matrices are involutions, so only the phase negates."""
    return _one_row(_pauli_inverse, "pauli", a, 2)


def elementary_nary_mul(
    labels: Sequence[ElementaryLabel | ZeroLabel], n: int
) -> ElementaryLabel | ZeroLabel:
    """n-ary product of phase-shifted elementary labels; zero absorbs and any
    non-chaining position pattern collapses to zero."""
    if len(labels) != n:
        raise ArityError(f"expected exactly {n} factors, got {len(labels)}")
    return _product("elementary", labels, n)


def full_nary_mul(labels: Sequence[FullLabel], n: int) -> FullLabel:
    """Product of l*(n-1)+1 phase-shifted full labels: one reduced sigma word,
    phases and quarter-turn shifts added mod q."""
    check_factor_count(len(labels), n)
    return _product("full", labels, n)


def full_identity(n: int, q: int) -> FullLabel:
    return FullLabel(q, n, 0, 0)


def _full_querelement(codes: np.ndarray, n: int, q: int) -> np.ndarray:
    j, r = np.divmod(codes, q)
    return j * (n % 2) * q + ((2 - n) * r) % q


def full_querelement(s: FullLabel, n: int | None = None) -> FullLabel:
    """Querelement of a phase-shifted full label.

    The defining relation with n-1 copies of the element forces the phase
    index (2-n)*r mod q (the n-2 repeated factors must cancel), and the sigma
    part is index 0 for even arity and the element's own index for odd arity.
    Verified at every insertion position by the oracle suite.
    """
    n = s.n if n is None else n
    if n != s.n:
        raise DomainError(f"arity mismatch: {n} != {s.n}")
    return _one_row(_full_querelement, "full", s, n)


def het_nary_mul(labels: Sequence[HetLabel], n: int) -> HetLabel:
    """Product of l*(n-1)+1 heterogeneous labels, block-wise: result block s
    is the reduced word of the factors' blocks at positions s, s+1, ...
    (cyclic), with phase indices added mod q."""
    check_factor_count(len(labels), n)
    return _product("het", labels, n)


def het_identity(n: int, q: int) -> HetLabel:
    return HetLabel(q, n, (0,) * (n - 1), (0,) * (n - 1))


def _het_querelement(codes: np.ndarray, n: int, q: int) -> np.ndarray:
    return _pauli_inverse(codes[::-1], n, q)


def het_querelement(s: HetLabel) -> HetLabel:
    """Ternary querelement in closed form: swap the two (index, phase) slots
    and negate the phases; coincides with the dense matrix inverse.  Only the
    ternary case admits this form; use ``het_querelement_general`` otherwise."""
    if s.n != 3:
        raise DomainError(
            "closed-form querelement only exists at arity 3; "
            "use het_querelement_general"
        )
    return _one_row(_het_querelement, "het", s, 3)


def _het_querelement_general(codes: np.ndarray, n: int, q: int) -> np.ndarray:
    # with the slots reversed, slot u holds the inverse of block m-1-u, and
    # the fold of m-1 copies puts block k's descending product in slot -k
    m = len(codes)
    back = _pauli_inverse(codes[::-1], n, q)
    prod = _slot_fold(q, [back] * (m - 1) or [np.zeros_like(codes)])
    return np.stack([prod[-k % m] for k in range(m)])


def het_querelement_general(s: HetLabel) -> HetLabel:
    """Querelement for any arity, from the block formula: block k is the
    descending cyclic product of the inverses of blocks k-1, ..., k+1.
    Each block inverse is the same sigma with negated phase, so the result
    stays in the label set."""
    return _one_row(_het_querelement_general, "het", s, s.n)


# ---------------------------------------------------------------------------
# element orders


def pauli_element_order(a: PauliLabel) -> int:
    """Smallest m >= 1 with a^m the identity, i.e. a^(m+1) = a."""
    return nary_element_order(a, lambda f, n: pauli_mul(*f), 2, 4 * a.q)


def nary_element_order(a, mult, n: int, cap: int) -> int | None:
    """Smallest l >= 1 with the (l*(n-1)+1)-fold product of ``a`` equal to
    ``a`` again, or None if no such l <= cap exists (nilpotent elements)."""
    cur = a
    for l in range(1, cap + 1):
        nxt = mult([cur] + [a] * (n - 1), n)
        if nxt == a:
            return l
        if nxt == cur:
            return None  # absorbed by a fixed point (nilpotent via zero)
        cur = nxt
    return None


# ---------------------------------------------------------------------------
# structure reports and builders


@dataclass
class StructureReport:
    """Verification summary for one finite structure.

    ``order`` is the enumerated element count; ``paper_claimed_order`` is the
    published order formula, which the heterogeneous family does not match
    (the discrepancy is flagged, and acceptance rests on the enumerated,
    oracle-verified set).
    """

    family: str
    n: int
    q: int
    order: int
    paper_claimed_order: int
    order_matches_paper: bool
    identity: str | None
    closure: bool
    closure_exhaustive: bool
    closure_checked: int
    closure_max_deviation: float
    assoc: bool
    assoc_exhaustive: bool
    assoc_samples: int
    querelement: bool | None
    querelement_checked: int
    order_histogram: dict[str, int]
    sampled: bool
    seed: int
    tolerance: float

    @property
    def passed(self) -> bool:
        """Every check held, and a family with an identity showed it."""
        return bool(
            self.closure
            and self.assoc
            and (self.querelement is None or self.querelement)
            and (self.identity is not None or _STRUCTURES[self.family].identity is None)
        )

    def to_dict(self) -> dict:
        return dict(asdict(self), passed=self.passed)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _identity_holds(fam, e: int, elems: np.ndarray) -> np.ndarray:
    """Per element a: e...e a = a and a e...e = a, over label indices."""
    ee = np.full((len(elems), fam.n - 1), e)
    return ((fam.index_mult(np.column_stack([ee, elems])) == elems)
            & (fam.index_mult(np.column_stack([elems, ee])) == elems))


def _inverse_holds(fam, elems: np.ndarray, inv: np.ndarray, target) -> np.ndarray:
    """Per element a: the product of factors a with ``inv`` in any one
    position equals ``target``."""
    ok = np.ones(len(elems), dtype=bool)
    for pos in range(fam.n):
        rows = np.repeat(elems[:, None], fam.n, axis=1)
        rows[:, pos] = inv
        ok &= fam.index_mult(rows) == target
    return ok


def _element_orders(fam, elems: np.ndarray, cap: int) -> np.ndarray:
    """``nary_element_order`` of every element at once, with 0 for an
    absorbed element: all elements step together and each leaves the loop at
    its first l with [cur, a, ..., a] = a (order l) or = cur (absorbed).  An
    element still live after ``cap`` steps is an error, not an absorbed one."""
    orders = np.zeros(len(elems), dtype=np.int64)
    live, cur = np.arange(len(elems)), elems
    for l in range(1, cap + 1):
        if not live.size:
            break
        a = elems[live]
        nxt = fam.index_mult(np.column_stack([cur] + [a] * (fam.n - 1)))
        back = nxt == a
        orders[live[back]] = l
        keep = ~back & (nxt != cur)
        live, cur = live[keep], nxt[keep]
    if live.size:
        raise AssertionError(f"{live.size} element orders exceed the cap {cap}")
    return orders


@dataclass(frozen=True)
class _Structure:
    """One family's checks beside closure and associativity.  The hooks look
    the slot-code formulas up when called, so those formulas, which the
    public scalar functions wrap, are under test."""

    #: pauli: arity 2, and an inverse times the element is the identity;
    #: else arity >= 3, and querelements hold at every insertion position
    binary: bool
    claimed_order: Callable[[int, int], int]               # (n, q)
    identity: Callable[[int, int], object] | None          # (n, q)
    #: (n,) -> slot-code formulas (codes, n, q) -> codes that must agree
    inverses: Callable[[int], tuple]
    #: (oracle, n, q, order, sampled) -> dense deviation, None if not run
    dense_check: Callable[..., float | None] | None
    hist_cap: Callable[[int, int], int]                    # (order, q)
    assoc_sampled: bool = False          # no exhaustive associativity budget
    #: (n, q, rng, count) -> (m, count) slot codes of the seeded elements
    #: checked above element_cap
    subset: Callable[..., np.ndarray] | None = None


_STRUCTURES = {
    "pauli": _Structure(
        binary=True, claimed_order=lambda n, q: 4 * q,
        identity=lambda n, q: pauli_identity(q), inverses=lambda n: (_pauli_inverse,),
        dense_check=None, hist_cap=lambda order, q: 4 * q),
    "elementary": _Structure(
        binary=False, claimed_order=lambda n, q: 4 * q * (n - 1) + 1,
        identity=None, inverses=lambda n: (), dense_check=None,
        hist_cap=lambda order, q: 2 * order, assoc_sampled=True),
    "full": _Structure(
        binary=False, claimed_order=lambda n, q: 4 * q,
        identity=lambda n, q: full_identity(n, q), inverses=lambda n: (_full_querelement,),
        # small enough to also lower every querelement tuple to matrices
        dense_check=lambda oracle, n, q, order, sampled: (
            oracle.querelement_dense_check("full", n, q) if order <= 64 else None),
        hist_cap=lambda order, q: 2 * order),
    "het": _Structure(
        binary=False, claimed_order=lambda n, q: het_order_claimed(n, q),
        identity=lambda n, q: het_identity(n, q),
        # the closed form exists at arity 3 only, and must equal the general one
        inverses=lambda n: ((_het_querelement, _het_querelement_general) if n == 3
                            else (_het_querelement_general,)),
        dense_check=lambda oracle, n, q, order, sampled: (
            oracle.het_querelement_inverse_check(q) if n == 3 and not sampled else None),
        hist_cap=lambda order, q: 4 * q, assoc_sampled=True,
        subset=lambda n, q, rng, count: np.array(
            [rng.integers(0, 4, size=n - 1) * q + rng.integers(0, q, size=n - 1)
             for _ in range(count)], dtype=np.int64).reshape(count, n - 1).T),
}


#: elements per slice of the identity, querelement and order checks, which
#: bounds their working memory
_ELEMENT_SLICE = 1 << 12


def _element_checks(spec: _Structure, fam, encode: Callable, elems: np.ndarray,
                    e_index: int | None) -> tuple[bool, bool | None, dict]:
    """Whether the identity holds, whether the querelement (or inverse)
    formulas agree and hold (None if the family has none), and the order
    histogram, over ``elems`` one slice of at most _ELEMENT_SLICE at a time.
    Each formula is applied to the slot codes of a whole slice."""
    n, q = fam.n, fam.q
    formulas = spec.inverses(n)
    cap = spec.hist_cap(fam.order, q)
    ident_ok, quer_ok = True, (True if formulas else None)
    hist = np.zeros(cap + 1, dtype=np.int64)
    for start, stop in _chunk_ranges(len(elems), _ELEMENT_SLICE):
        part = elems[start:stop]
        if e_index is not None:
            ident_ok = ident_ok and bool(_identity_holds(fam, e_index, part).all())
        if formulas:
            # widened: a formula's arithmetic, as (2 - n) * r, overflows the
            # narrow codes
            codes = fam.slots.take(part, axis=1).astype(np.int64)
            invs = [encode(f(codes, n, q)) for f in formulas]
            target = e_index if spec.binary else part
            quer_ok = (quer_ok and all(np.array_equal(invs[0], v) for v in invs[1:])
                       and bool(_inverse_holds(fam, part, invs[0], target).all()))
        hist += np.bincount(_element_orders(fam, part, cap), minlength=cap + 1)
    return ident_ok, quer_ok, {str(o) if o else "none": c
                               for o, c in enumerate(hist.tolist()) if c}


def _build_structure(family: str, n: int, q: int, *, seed: int, tol: float,
                     mode: str, closure_budget: int, closure_samples: int,
                     assoc_samples: int, assoc_budget: int = 0,
                     element_cap: int | None = None,
                     quer_samples: int = 0) -> StructureReport:
    """Closure and associativity from the oracle; identity, inverse or
    querelement rules and element orders as batched products of label
    indices on the family's slot-table kernel (``_element_checks``)."""
    from . import oracle

    spec = _STRUCTURES[family]
    check_modulus(q)
    if spec.binary:
        n = 2
    elif n < 3:
        raise DomainError(f"arity must be >= 3, got {n}")
    closure_gate = dict(mode=mode, budget=closure_budget)
    assoc_gate = dict(mode="sample" if spec.assoc_sampled else mode,
                      budget=0 if spec.assoc_sampled else assoc_budget)
    # refuse an over-budget request, closure first, before either sweep runs
    order = family_size(family, n, q)[1]
    oracle.gate("closure", order, n, tol=tol, **closure_gate)
    oracle.gate("associativity", order, n, **assoc_gate)
    closure = oracle.closure_check(family, n, q, samples=closure_samples,
                                   seed=seed, tol=tol, **closure_gate)
    assoc = oracle.assoc_check(family, n, q, samples=assoc_samples, seed=seed,
                               **assoc_gate)

    fam = oracle.family_context(family, n, q)
    encode = _slot_index(family, q, len(fam.slots))
    sampled = spec.subset is not None and fam.order > element_cap
    elems = (encode(spec.subset(n, q, np.random.default_rng(seed), quer_samples))
             if sampled else np.arange(fam.order))

    e = None if spec.identity is None else spec.identity(n, q)
    e_index = None if e is None else int(encode(np.array(e.slots())))
    ident_ok, quer_ok, histogram = _element_checks(spec, fam, encode, elems, e_index)
    quer_checked = 0
    if quer_ok is not None:
        quer_checked = len(elems) * (1 if spec.binary else n)
        dev = (spec.dense_check(oracle, n, q, fam.order, sampled)
               if spec.dense_check else None)
        if dev is not None:
            quer_ok = quer_ok and dev <= tol

    claimed = spec.claimed_order(n, q)
    return StructureReport(
        family=family, n=n, q=q, order=fam.order, paper_claimed_order=claimed,
        order_matches_paper=fam.order == claimed,
        identity=e.token() if e is not None and ident_ok else None,
        closure=closure.passed, closure_exhaustive=closure.exhaustive,
        closure_checked=closure.checked,
        closure_max_deviation=closure.max_abs_deviation,
        assoc=assoc.passed, assoc_exhaustive=assoc.exhaustive,
        assoc_samples=assoc.checked,
        querelement=quer_ok, querelement_checked=quer_checked,
        order_histogram=histogram,
        sampled=sampled, seed=seed, tolerance=tol,
    )


def build_pauli_group(
    q: int,
    *,
    seed: int = 42,
    tol: float = DEFAULT_TOL,
    mode: str = "auto",
    closure_budget: int = 250_000,
    closure_samples: int = 10_000,
    assoc_budget: int = 262_144,
    assoc_samples: int = 20_000,
) -> StructureReport:
    """Enumerate the binary group of phase-shifted sigma matrices and verify
    closure (against the dense oracle), identity, two-sided inverses, and
    associativity; emits the element-order histogram."""
    return _build_structure(
        "pauli", 2, q, seed=seed, tol=tol, mode=mode, closure_budget=closure_budget,
        closure_samples=closure_samples, assoc_budget=assoc_budget, assoc_samples=assoc_samples)


def build_elementary_semigroup(
    n: int,
    q: int,
    *,
    seed: int = 42,
    tol: float = DEFAULT_TOL,
    mode: str = "auto",
    closure_budget: int = 30_000_000,
    closure_samples: int = 100_000,
    assoc_samples: int = 100_000,
) -> StructureReport:
    """Enumerate the n-ary semigroup with zero of phase-shifted elementary
    labels: 4q(n-1)+1 elements; closure oracle-checked, total associativity
    sampled on bracketings, no identity or querelement (zero absorbs)."""
    return _build_structure(
        "elementary", n, q, seed=seed, tol=tol, mode=mode, closure_budget=closure_budget,
        closure_samples=closure_samples, assoc_samples=assoc_samples)


def build_full_group(
    n: int,
    q: int,
    *,
    seed: int = 42,
    tol: float = DEFAULT_TOL,
    mode: str = "auto",
    closure_budget: int = 30_000_000,
    closure_samples: int = 100_000,
    assoc_budget: int = 2_000_000,
    assoc_samples: int = 100_000,
) -> StructureReport:
    """Enumerate the n-ary group of phase-shifted full labels (order 4q);
    verify closure against the dense oracle, the querelement of every element
    at every insertion position, and total associativity."""
    return _build_structure(
        "full", n, q, seed=seed, tol=tol, mode=mode, closure_budget=closure_budget,
        closure_samples=closure_samples, assoc_budget=assoc_budget, assoc_samples=assoc_samples)


def build_het_group(
    n: int,
    q: int,
    *,
    cap: int = 30_000_000,
    seed: int = 42,
    tol: float = DEFAULT_TOL,
    mode: str = "auto",
    closure_samples: int = 100_000,
    assoc_samples: int = 100_000,
    element_cap: int = 100_000,
    quer_samples: int = 2_000,
) -> StructureReport:
    """Enumerate the n-ary group of element-wise phase-shifted heterogeneous
    labels and verify it on the enumerated set of (4q)^(n-1) elements.

    The published order (4q(n-1))^4 disagrees with the enumerated count; both
    are reported and the mismatch is flagged.  When the label set exceeds
    ``element_cap`` the element-wise checks run on a seeded subset and the
    report is flagged as sampled.
    """
    return _build_structure(
        "het", n, q, seed=seed, tol=tol, mode=mode, closure_budget=cap,
        closure_samples=closure_samples, assoc_samples=assoc_samples,
        element_cap=element_cap, quer_samples=quer_samples)
