"""Brute-force verification harness.

Lowers symbolic labels and block elements to dense matrices, computes literal
n-fold matrix products, and adjudicates every closed-form rule of the label
algebra.  The algebra itself, the slot codes, their canonical order and the
slot-table kernel, lives in ``phases``; this module lowers, sweeps and
judges.  Exhaustive sweeps are budget-gated and refuse (rather than silently
sample) when the product count would exceed the budget, so an "exhaustively
verified" claim in a report is literally true.  Sweeps iterate in a fixed
row-major order; sampled sweeps draw from a seeded generator with stratified
coverage, so identical configurations give identical summaries.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from . import phases
from .errors import BudgetExceededError, DomainError
from .matrices import DEFAULT_TOL

DEFAULT_BUDGET = 30_000_000


def worker_count() -> int:
    """1: every closure and associativity check runs on the calling thread,
    so its only parallelism is BLAS's, which ``_TALL_MNK`` bounds."""
    return 1


def lower(obj) -> np.ndarray:
    """The dense form of a label, Sigma class or SU(2) value: its ``dense()``."""
    dense = getattr(obj, "dense", None)
    if not callable(dense):
        raise DomainError(f"cannot lower {type(obj).__name__} to a dense matrix")
    return dense()


# ---------------------------------------------------------------------------
# family plumbing


@dataclass(frozen=True)
class _Family:
    """One family's labels as slot codes, with the slot-table kernel; dense
    forms are lowered from the codes (``phases.lower_slots``) when read."""

    name: str
    n: int                              # arity: the basic product's factor count
    q: int
    order: int
    #: (m, order) read-only slot codes in their narrow dtype
    #: (``phases._code_dtype``: int16 up to q = 40, else int32), which the
    #: kernel, its last-factor tables and the sampled checks all read
    slots: np.ndarray
    #: (B, t) label rows -> (B,) products; with every_last=True,
    #: (P, t) prefixes -> (P, order), each prefix followed by every label,
    #: folding only the prefixes and finishing every label from the
    #: kernel's cached last-factor tables, or, for one-factor prefixes,
    #: folding each with every label (``phases._slot_kernel``)
    index_mult: Callable[..., np.ndarray]

    def label(self, i: int):
        """The label object at index ``i``, decoded from its slot codes."""
        return phases.label_from_slots(self.name, self.n, self.q, self.slots[:, i])

    @property
    def d(self) -> int:
        """The dimension of a dense form: n-1 blocks of 2."""
        return 2 * (self.n - 1)

    @functools.cached_property
    def dense_stack(self) -> np.ndarray:
        """(order, d, d) read-only dense forms of every label, lowered on
        first read: by the exhaustive closure, the querelement dense checks
        and the dense-json export."""
        dense = phases.lower_slots(self.slots.T, self.n, self.q)
        dense.flags.writeable = False
        return dense


@functools.lru_cache(maxsize=1)
def family_context(name: str, n: int, q: int) -> _Family:
    """Slot codes and the slot-table kernel of one family.  The codes are
    enumerated in int64 and narrowed once to ``phases._code_dtype``; no
    int64 copy is kept.  The last context is cached, so one run's checks
    share one enumeration, one kernel and, if one of them reads it, one
    ``dense_stack``."""
    n, order = phases.family_size(name, n, q)
    slots = phases.family_slots(name, n, q).astype(phases._code_dtype(q))
    slots.flags.writeable = False
    return _Family(name, n, q, order, slots, phases._slot_kernel(name, q, slots))


# ---------------------------------------------------------------------------
# sweep summaries


@dataclass
class SweepSummary:
    family: str
    n: int
    q: int
    tuple_len: int
    kind: str                      # "closure" | "associativity"
    total: int
    checked: int
    passed: bool
    max_abs_deviation: float
    witness: dict | None
    exhaustive: bool
    tolerance: float
    seed: int | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def name(self) -> str:
        return f"{self.family}-n{self.n}-q{self.q}-{self.kind}-{self.tuple_len}"


def summaries_to_junit(summaries: Sequence[SweepSummary]) -> str:
    """JUnit-style XML for CI consumption."""
    import xml.etree.ElementTree as ET

    suite = ET.Element(
        "testsuite",
        name="polysigma.oracle",
        tests=str(len(summaries)),
        failures=str(sum(0 if s.passed else 1 for s in summaries)),
    )
    for s in summaries:
        case = ET.SubElement(suite, "testcase", classname="polysigma.oracle", name=s.name())
        if not s.passed:
            fail = ET.SubElement(
                case, "failure",
                message=f"max deviation {s.max_abs_deviation} > {s.tolerance}",
            )
            fail.text = json.dumps(s.witness, sort_keys=True)
    return ET.tostring(suite, encoding="unicode", xml_declaration=True) + "\n"


# ---------------------------------------------------------------------------
# tuple generation


def _sampled_tuples(order: int, tuple_len: int, samples: int, seed: int) -> np.ndarray:
    """Seeded tuples with stratified coverage: a permutation of the label set
    fills the leading tuples so every label appears when capacity allows.
    int32 draws, where they hold every label, are the int64 draws at half
    the memory and leave the generator in the same state."""
    rng = np.random.default_rng(seed)
    dtype = np.int32 if order <= np.iinfo(np.int32).max else np.int64
    idx = rng.integers(0, order, size=(samples, tuple_len), dtype=dtype)
    perm = rng.permutation(order)
    slots = min(samples * tuple_len, order)
    flat = idx.reshape(-1)
    flat[:slots] = perm[:slots]
    return flat.reshape(samples, tuple_len)


@dataclass
class CheckResult:
    passed: bool
    exhaustive: bool
    checked: int
    total: int
    max_abs_deviation: float
    witness: dict | None


def _deviation(prod: np.ndarray, expected: np.ndarray, tol: float,
               dev: np.ndarray | None = None) -> tuple[float, np.ndarray | None]:
    """Worst entrywise |prod - expected| over a stack of matrices and, when it
    is not within ``tol``, the mask of matrices not within it; overwrites
    ``prod``, and ``dev`` with the entrywise deviations when it is given.  A
    NaN deviation is never within ``tol``, and makes the worst NaN."""
    np.subtract(prod, expected, out=prod)
    dev = np.abs(prod, out=dev)
    worst = float(dev.max()) if dev.size else 0.0
    return worst, (~(dev <= tol).all(axis=(-2, -1)) if not worst <= tol else None)


def _closure_on_tuples(fam: _Family, idx: np.ndarray, tol: float,
                       bufs: np.ndarray) -> tuple[float, int | None]:
    """Max deviation over tuple rows up to and including the first bad
    row, or over every row, and that row or None.  Each factor's slot
    codes, gathered once, are lowered and folded (``phases._slot_fold``)
    into the label results' codes.  ``bufs`` is three dense stacks reused
    from slice to slice (``_check``): a factor stack and two products.  The
    first factor is lowered into the product the first ``matmul`` does not
    write, every later factor into the factor stack, the label results into
    the factor stack after the last ``matmul``, and the deviations into the
    spare product's memory, so a slice lowers only its own labels and
    allocates no dense stack."""
    p, t_len = idx.shape
    factor, prods = bufs[0, :p], bufs[1:, :p]
    codes = [fam.slots.take(col, axis=1) for col in idx.T]
    lower_codes = functools.partial(phases.lower_slots, n=fam.n, q=fam.q)
    acc = lower_codes(codes[0].T, out=prods[1])
    for t in range(1, t_len):
        acc = np.matmul(acc, lower_codes(codes[t].T, out=factor), out=prods[(t + 1) % 2])
    # real deviations fill the first half of the spare product's bytes
    dev = prods[(t_len + 1) % 2].reshape(-1).view(np.float64)[:acc.size].reshape(acc.shape)
    expected = lower_codes(np.stack(phases._slot_fold(fam.q, codes), axis=-1), out=factor)
    worst, bad = _deviation(acc, expected, tol, dev)
    if bad is None:
        return worst, None
    first = int(np.argmax(bad))
    return float(dev[:first + 1].max()), first


@functools.cache
def _fingerprint_weights(width: int) -> np.ndarray:
    """``width`` odd 64-bit weights, splitmix64 outputs of 1..width: a
    weight for each word of a product, none a linear function of its
    position, so that products whose words are permutations of one another
    do not share a weighted sum."""
    z = np.arange(1, width + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31)) | np.uint64(1)


def _fingerprint(words: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """(P,) 64-bit fingerprints of the rows of ``words``, a (P, W) uint64
    array, formed ``len(scratch)`` rows at a time in ``scratch``: each
    word's sign and exponent bits are folded into its low half, and the
    folded words are summed with their weights modulo 2^64.  Unfolded,
    words that differ only in those bits, as the entries 0, +-1 and +-i do,
    would change only the top bits of the sum."""
    prints = np.empty(len(words), np.uint64)
    for at in range(0, len(words), len(scratch)):
        part, buf = words[at:at + len(scratch)], scratch[:len(words) - at]
        np.bitwise_xor(np.right_shift(part, np.uint64(31), out=buf), part, out=buf)
        np.matmul(buf, _fingerprint_weights(words.shape[1]), out=prints[at:at + len(buf)])
    return prints


class _ClassTable:
    """The exhaustive closure's sweep-wide table of prefix classes, each a
    distinct pair of (product words, folded codes), in claim order: the
    row-major order of their first prefixes.  Each class keeps its pair
    and its first prefix row in arrays that grow in place, one row per
    class.  The first class met with a fingerprint also keeps its
    fingerprint in a sorted key array beside its class number.  A block's
    prefixes are claimed in the order ``_prefix_blocks`` forms them: their
    fingerprints, read in row-major order through one permutation, find
    their classes by one ``searchsorted``, and those new to the table are
    numbered by one ``np.unique``.  A prefix is its class's member when
    both halves of the pair compare equal, compared in the block's order,
    a scratch's rows at a time.  A prefix that fails the compare is looked
    up by its pair's bytes among the classes that are not first with their
    fingerprint."""

    def __init__(self, width: int, slots: np.ndarray):
        """An empty table for products of ``width`` words and codes of the
        family's (m, order) ``slots``."""
        self.keys = np.empty(0, np.uint64)  # sorted fingerprints of the first classes
        self.ids = np.empty(0, np.intp)     # each key's class, a row of the arrays below
        self.others: set[bytes] = set()
        self.n = 0                          # classes claimed; the arrays have spare rows
        self.firsts = np.empty(0, np.intp)
        self.words = np.empty((0, width), np.uint64)
        self.codes = np.empty((0, len(slots)), slots.dtype)

    def _store(self, firsts: np.ndarray, words: np.ndarray, codes: np.ndarray):
        """Write classes with first prefix rows ``firsts``, product
        ``words`` and folded ``codes`` after the ``n`` claimed, growing the
        arrays in place, by realloc, with 1/16 to spare; refcheck would
        refuse under a profiler, and every view of them is dropped in the
        statement that makes it."""
        at, end = self.n, self.n + len(firsts)
        if end > len(self.firsts):
            for a in (self.firsts, self.words, self.codes):
                a.resize((end + end // 16, *a.shape[1:]), refcheck=False)
        self.firsts[at:end], self.words[at:end], self.codes[at:end] = firsts, words, codes

    def claim(self, start: int, block: np.ndarray, codes: np.ndarray, scratch: np.ndarray):
        """Add the classes new to the sweep among the prefixes of one block
        (``_prefix_blocks``), whose first prefix row is ``start``, in the
        row order of their first prefixes.  ``block`` holds their product
        words as (order, H, W), row c the H prefixes with last label c;
        ``codes`` holds their (order*H, m) folded codes in the same order;
        ``scratch`` holds rows of W words for the fingerprints and the
        compare."""
        order, heads, width = block.shape
        words, known = block.reshape(-1, width), self.n
        p = len(words)
        # row-major prefix i*order + c is block row c*H + i
        perm = np.arange(p).reshape(order, heads).T.ravel()
        prints = _fingerprint(words, scratch)[perm]
        at = np.searchsorted(self.keys, prints)
        if known:
            ids = self.ids.take(at, mode="clip")
            miss = np.flatnonzero(self.keys.take(at, mode="clip") != prints)
        else:
            ids, miss = np.empty(p, np.intp), np.arange(p)
        # the fingerprints new to the table, each once; their classes are
        # numbered in the order the fingerprints are first met
        keys, first = np.unique(prints[miss], return_index=True)
        inverse = np.searchsorted(keys, prints[miss])  # leaner than unique's own
        cls = np.empty(len(keys), np.intp)
        cls[np.argsort(first)] = np.arange(known, known + len(keys))
        ids[miss] = cls[inverse]
        new = miss[np.sort(first)]
        # keys is sorted, so inserting it keeps the keys sorted
        self.keys = np.insert(self.keys, at[miss[first]], keys)
        self.ids = np.insert(self.ids, at[miss[first]], cls)
        self._store(start + new, words[perm[new]], codes[perm[new]])
        # each block row's class; the gathers never clip: they hold class rows
        rows = np.empty_like(ids)
        rows[perm] = ids
        same = (self.codes.take(rows, axis=0, mode="clip") == codes).all(axis=1)
        for lo in range(0, p, len(scratch)):
            buf = scratch[:p - lo]
            np.take(self.words, rows[lo:lo + len(buf)], axis=0, out=buf, mode="clip")
            same[lo:lo + len(buf)] &= (buf == words[lo:lo + len(buf)]).all(axis=1)
        if not same.all():
            claimed = np.zeros(p, dtype=bool)
            claimed[new] = True
            for i in np.flatnonzero(~same[perm]).tolist():
                key = words[perm[i]].tobytes() + codes[perm[i]].tobytes()
                if key not in self.others:
                    self.others.add(key)
                    claimed[i] = True
            if claimed.sum() > len(new):
                # a class that shares its fingerprint with an earlier one is
                # new: the block's new classes are written again in row
                # order, and the keys of those first with their fingerprint
                # renumbered
                fresh, new = new, np.flatnonzero(claimed)
                late = self.ids >= known
                self.ids[late] = known + np.searchsorted(new, fresh)[self.ids[late] - known]
                self._store(start + new, words[perm[new]], codes[perm[new]])
        self.n = known + len(new)


def _prefix_blocks(fam: _Family, tuple_len: int):
    """The exhaustive closure's prefix products, in blocks of heads in
    row-major order.  A head is a prefix without its last factor.  Each
    head's product is folded once, by the per-matrix left fold, and the
    block's heads, stacked to (H*d, d), are multiplied by each label's
    matrix as one tall product, issued by numpy's loop from one broadcast
    matmul, so its bits are those of a matmul per label on any kernel.
    The H products with label c fill rows c*H .. c*H+H-1 of the
    (order*H, d, d) block, so block row c*H+i is prefix row
    (first head + i)*order + c.  H is held to the tall product's bound and
    to ``_PREFIX_BLOCK_BYTES``, but a block holds at least one head.  Two
    factors have empty heads and one block, the dense stack itself.
    Yields (first head, H, block); the block is valid until the next."""
    order, d, stack = fam.order, fam.d, fam.dense_stack
    if tuple_len == 2:
        yield 0, 1, stack
        return
    heads = order ** (tuple_len - 2)
    size = min(heads, max(1, min(_TALL_MNK // d ** 3, _PREFIX_BLOCK_BYTES // stack.nbytes)))
    block = np.empty((order * size, d, d), stack.dtype)
    fold = np.empty((3, size, d, d), stack.dtype)
    for first in range(0, heads, size):
        h = min(size, heads - first)
        head = phases._build_tuples(order, tuple_len - 2, first, first + h)
        # the gathers never clip: head holds label indices
        acc, spare, factor = fold[:, :h]
        np.take(stack, head[:, 0], axis=0, out=acc, mode="clip")
        for t in range(1, tuple_len - 2):
            np.take(stack, head[:, t], axis=0, out=factor, mode="clip")
            acc, spare = np.matmul(acc, factor, out=spare), acc
        np.matmul(acc.reshape(h * d, d), stack, out=block[:order * h].reshape(order, h * d, d))
        yield first, h, block[:order * h]


def _closure_on_range(fam: _Family, at: np.ndarray, acc: np.ndarray,
                      res: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Judge the P classes whose first prefixes are rows ``at`` of the
    sweep, with products ``acc`` (from the ``_ClassTable``) and (P, order)
    label results ``res``, against every last label.  This is what
    "exhaustive" means for a closure: every prefix's literal product is
    computed, and each distinct (product, folded codes) pair is judged
    against every last label once; each tuple's judged product is still its
    prefix's literal product times the last label's dense matrix, as equal
    input bits give equal product bits, and label arithmetic supplies only
    the expected matrices.  The products, stacked to (P*d, d), are
    multiplied by one last label's matrix at a time as one tall product,
    and that label's P products are judged against their label results at
    once, in buffers reused from label to label.  Each class keeps its
    worst deviation over every label; only when one fails are the same
    products formed again, for the first last label each failing class
    fails with, as equal inputs give equal bits.  Returns each class's
    worst deviation over its tuples up to its first bad one, or over every
    label, and its first bad tuple in row-major order, at*order + the
    first last label it fails with, or -1 where it fails with none."""
    order, d, stack = fam.order, fam.d, fam.dense_stack
    tall = acc.reshape(-1, d)
    # one contiguous row per last label, in the results' narrow dtype:
    # each take converts only its own row to intp
    results = np.ascontiguousarray(res.T)

    def deviations():
        """Each last label, with the entrywise deviations of its P tuples
        in a buffer reused from label to label."""
        prod, dev = np.empty_like(acc), np.empty(acc.shape)
        for last in range(order):
            np.matmul(tall, stack[last], out=prod.reshape(tall.shape))
            np.subtract(prod, stack.take(results[last], axis=0), out=prod)
            yield last, np.abs(prod, out=dev)

    worst = np.zeros(acc.shape)
    for _, dev in deviations():
        np.maximum(worst, dev, out=worst)  # a NaN stays NaN
    worst = worst.max(axis=(1, 2))
    lasts = np.full(len(at), -1)
    if not (worst <= tol).all():
        # the same products again, label by label, for the first last
        # label each failing class fails with; every earlier tuple of the
        # class is within tol, so that tuple's deviation is its worst
        for last, dev in deviations():
            hit = (lasts < 0) & ~(dev <= tol).all(axis=(1, 2))
            lasts[hit], worst[hit] = last, dev[hit].max(axis=(1, 2))
    return worst, np.where(lasts < 0, -1, at * order + lasts)


def _closure_sweep(fam: _Family, tuple_len: int, tol: float) -> tuple[float, int | None]:
    """The exhaustive closure's worst deviation and first bad tuple, or
    None.  Each block of prefix products is claimed into a ``_ClassTable``
    as ``_prefix_blocks`` yields it, one claim per block: its words are
    the block itself, viewed as (order, h, 2*d*d) uint64 with no copy, and
    its folded codes come from one ``phases._slot_fold`` of (m, order*h)
    codes in the block's order.  The table's classes are judged in claim
    order, in batches of ``batch`` and the rest at the end; a batch and the
    claims' one scratch, ``batch`` rows of words, are held to the tall
    product's bound.  Claiming asks the kernel nothing: a batch's label
    results come from ``index_mult`` on its classes' first prefixes,
    ``runs`` at a time.  Classes are claimed in row-major order of their
    first prefixes, so the first failing one holds the first bad tuple, and
    the sweep stops there.  The worst deviation then covers exactly the
    tuples up to it: those of the classes judged before the failing class
    and the failing class's own up to its first bad last label."""
    order, d = fam.order, fam.d
    batch = max(1, _TALL_MNK // d ** 3)
    runs = max(1, min(_CHUNK // order, batch))
    table, judged, worst = _ClassTable(2 * d * d, fam.slots), 0, 0.0

    def judge(size: int) -> int | None:
        """Judge the next ``size`` classes; their first bad tuple, or None."""
        nonlocal judged, worst
        # copies: the table's arrays move when they grow
        rows, words = (a[judged:judged + size].copy() for a in (table.firsts, table.words))
        judged += size
        pref = np.stack(np.unravel_index(rows, (order,) * (tuple_len - 1)), axis=-1)
        res = None  # (order, size), in the kernel's result dtype
        for at in range(0, size, runs):
            part = fam.index_mult(pref[at:at + runs], every_last=True)
            if res is None:
                res = np.empty((order, size), part.dtype)
            res[:, at:at + runs] = part.T
        worsts, bads = _closure_on_range(fam, rows, words.view(np.complex128).reshape(-1, d, d),
                                         res.T, tol)
        failed = np.flatnonzero(bads >= 0)[:1]
        upto = failed[0] + 1 if len(failed) else size
        worst = float(np.maximum(worst, worsts[:upto].max()))  # a NaN stays NaN
        return int(bads[failed[0]]) if len(failed) else None

    scratch, slots = np.empty((batch, 2 * d * d), np.uint64), fam.slots
    for head, h, block in _prefix_blocks(fam, tuple_len):
        # block row c*h + i is prefix (head + i, last label c): its codes
        # fold the heads' gathered codes, tiled to every label, with each
        # label's, repeated h times
        cols = (np.unravel_index(np.arange(head, head + h), (order,) * (tuple_len - 2))
                if tuple_len > 2 else ())
        codes = phases._slot_fold(fam.q, [*(np.tile(slots.take(col, axis=1), order)
                                            for col in cols), np.repeat(slots, h, axis=1)])
        table.claim(head * order, block.reshape(order, h, -1).view(np.uint64),
                    np.stack(codes, axis=-1), scratch)
        while table.n - judged >= batch:
            if (first := judge(batch)) is not None:
                return worst, first
    del block, codes  # the last block is freed before the rest is judged
    first = judge(table.n - judged) if table.n > judged else None
    return worst, first


def _assoc_on_tuples(fam: _Family, idx: np.ndarray) -> tuple[float, int | None]:
    """All n bracketings of each (2n-1)-factor row, in slot codes: each
    factor gathered once, each inner product folded (``phases._slot_fold``)
    into the outer fold's factor, the results compared slot by slot, which
    is as strict as comparing label indices, a function of the codes.
    Exact, so the deviation is 0.0.  Returns the first disagreeing row or
    None."""
    n, fold = fam.n, functools.partial(phases._slot_fold, fam.q)
    factors = [fam.slots.take(col, axis=1) for col in idx.T]
    results = [fold([*factors[:p], fold(factors[p:p + n]), *factors[p + n:]])
               for p in range(n)]
    agree = functools.reduce(np.logical_and, (
        a == b for res in results[1:] for a, b in zip(results[0], res)))
    return 0.0, None if agree.all() else int(np.argmax(~agree))


def _check_tolerance(tol: float) -> None:
    # under a NaN tolerance every dev > tol is False, so every check passes
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError("tolerance must be positive")


#: tuples per exhaustive chunk; bounds the chunk's working memory.
_CHUNK = 1 << 17
#: rows per slice of a seeded sample.  An associativity slice holds only
#: slot codes and is this long, since its cost is per fold step, not
#: memory; a closure slice is also held to _SAMPLE_SLICE_BYTES.
_SAMPLE_SLICE = 1 << 14
#: bound on the bytes of one dense stack of a sampled closure slice.  A
#: check holds three such stacks, one factor stack and two products, reused
#: from slice to slice, and writes its deviations into the spare product:
#: at d = 6 a slice is 1,820 rows.
_SAMPLE_SLICE_BYTES = 1 << 20
#: bound on the bytes of the exhaustive closure's block of prefix products
#: (``_prefix_blocks``), which holds at least one head: 1.5 MiB, at het
#: (3, 4) 24 heads times 256 labels.  glibc's malloc raises its mmap
#: threshold to the size of each mapped buffer it frees, so a larger block
#: leaves later arrays of a verify on the heap, resident: at 2 MiB the het
#: (3, 4) verify's peak RSS rose 0.8-1.2 MB, at 1.5 MiB 0.2-0.4 MB.
_PREFIX_BLOCK_BYTES = 3 << 19
#: bound on m*n*k of one tall product.  OpenBLAS 0.3 splits a complex GEMM
#: of about 2^16 m*n*k over two threads; on two cores that doubled CPU time
#: and saved no wall time.
_TALL_MNK = 1 << 15


def power_text(base: int, exp: int) -> str:
    """base**exp in decimal, or "base^exp" when Python will not write it."""
    try:
        return str(base ** exp)
    except ValueError:
        return f"{base}^{exp}"


def gate(kind: str, order: int, n: int, *, mode: str, budget: int, samples: int,
         tol: float = DEFAULT_TOL) -> tuple[int, int, bool]:
    """The gate of every closure and associativity check over a family of
    ``order`` labels whose product takes ``n`` factors: the tuple length,
    the tuple count and whether the check is exhaustive.  Over ``budget``
    it refuses an exhaustive request rather than sample, and an auto
    request samples; a check that samples refuses a count of ``samples``
    that is not an integer >= 1, which would pass vacuously.  It needs no
    family context and runs nothing, so a caller can put all of its checks
    through their gates before any of them lowers a label or sweeps."""
    if mode not in ("auto", "exhaustive", "sample"):
        raise DomainError(f"mode must be auto|exhaustive|sample, got {mode!r}")
    _check_tolerance(tol)
    closure = kind == "closure"
    tuple_len = n if closure else 2 * n - 1
    total = order ** tuple_len
    exhaustive = mode == "exhaustive" or (mode == "auto" and total <= budget)
    if exhaustive and total > budget:
        raise BudgetExceededError(f"{power_text(order, tuple_len)} " + (
            f"products exceed the budget of {budget}; switch to sampling" if closure
            else f"bracketing tuples exceed the budget of {budget}"))
    if not exhaustive and (isinstance(samples, bool)
                           or not isinstance(samples, (int, np.integer)) or samples < 1):
        raise DomainError(f"a sample count must be an integer >= 1, got {samples!r}")
    return tuple_len, total, exhaustive


def _check(fam: _Family, kind: str, *, mode: str, budget: int, samples: int,
           seed: int | None, tol: float = DEFAULT_TOL) -> CheckResult:
    """A closure or associativity check through its ``gate``: every tuple in
    row-major chunks (the closure by classes, ``_closure_sweep``), or the
    seeded sample in slices, up to the first failing tuple."""
    tuple_len, total, exhaustive = gate(kind, fam.order, fam.n, mode=mode,
                                        budget=budget, samples=samples, tol=tol)
    closure = kind == "closure"
    checked, worst, first, jobs = 0, 0.0, None, ()
    if exhaustive and closure:
        worst, first = _closure_sweep(fam, tuple_len, tol)
        checked = total
    elif exhaustive:
        jobs = phases._chunk_ranges(total, _CHUNK)
    else:
        sample = _sampled_tuples(fam.order, tuple_len, samples, seed)
        rows = (max(1, min(_SAMPLE_SLICE, _SAMPLE_SLICE_BYTES // (16 * fam.d ** 2)))
                if closure else _SAMPLE_SLICE)
        total, jobs = samples, phases._chunk_ranges(samples, rows)
        if closure:  # a factor stack and two products, reused from slice to slice
            bufs = np.empty((3, rows, fam.d, fam.d), np.complex128)
    for start, stop in jobs:
        idx = (phases._build_tuples(fam.order, tuple_len, start, stop) if exhaustive
               else sample[start:stop])
        dev, bad = (_closure_on_tuples(fam, idx, tol, bufs) if closure
                    else _assoc_on_tuples(fam, idx))
        worst = float(np.maximum(worst, dev))  # a NaN stays NaN
        if bad is not None:
            first = start + bad
            break
        checked = stop
    if first is None:
        return CheckResult(True, exhaustive, checked, total, worst, None)
    row = (phases._build_tuples(fam.order, tuple_len, first, first + 1)[0]
           if exhaustive else sample[first])
    witness = {"kind": kind, "operands": [fam.label(int(i)).token() for i in row]}
    if closure:
        witness["max_abs_deviation"] = worst
    return CheckResult(False, exhaustive, first + 1, total, worst, witness)


def closure_check(family: str, n: int, q: int, *, mode: str = "auto",
                  budget: int = DEFAULT_BUDGET, samples: int = 100_000,
                  seed: int = 42, tol: float = DEFAULT_TOL) -> CheckResult:
    """Oracle check of the family's product: the symbolic result of every
    enumerated (or sampled) factor tuple must equal the literal dense product
    entrywise within ``tol``."""
    return _check(family_context(family, n, q), "closure", mode=mode, budget=budget,
                  samples=samples, seed=seed, tol=tol)


def assoc_check(family: str, n: int, q: int, *, mode: str = "auto",
                budget: int = 2_000_000, samples: int = 100_000,
                seed: int = 42) -> CheckResult:
    """Total polyadic associativity: all bracketings of a (2n-1)-factor
    product agree.  Exact label arithmetic; no tolerance involved."""
    return _check(family_context(family, n, q), "associativity", mode=mode,
                  budget=budget, samples=samples, seed=seed)


def _sweep(family: str, n: int, q: int, tuple_len: int, *, tol: float,
           **gate) -> SweepSummary:
    """The closure or associativity check whose tuples have ``tuple_len``
    factors, as a summary; ``gate`` holds the mode and its settings."""
    fam = family_context(family, n, q)
    kinds = {fam.n: "closure", 2 * fam.n - 1: "associativity"}
    if tuple_len not in kinds:
        raise DomainError(
            f"tuple length must be {fam.n} (closure) or "
            f"{2 * fam.n - 1} (associativity), got {tuple_len}"
        )
    res = _check(fam, kinds[tuple_len], tol=tol, **gate)
    return SweepSummary(
        family=family, n=fam.n, q=q, tuple_len=tuple_len, kind=kinds[tuple_len],
        total=fam.order ** tuple_len, checked=res.checked, passed=res.passed,
        max_abs_deviation=res.max_abs_deviation, witness=res.witness,
        exhaustive=res.exhaustive, tolerance=tol, seed=gate["seed"],
    )


def exhaustive_sweep(family: str, n: int, q: int, tuple_len: int, *,
                     budget: int = DEFAULT_BUDGET, tol: float = DEFAULT_TOL) -> SweepSummary:
    """Exhaustive verification sweep over all label tuples of the given length.

    ``tuple_len`` equal to the family's product arity runs the closure/oracle
    sweep; 2*arity-1 runs the bracketing (associativity) sweep.  Refuses with
    BudgetExceededError when the tuple count exceeds ``budget``.
    """
    return _sweep(family, n, q, tuple_len, tol=tol, mode="exhaustive",
                  budget=budget, samples=0, seed=None)


def sampled_sweep(family: str, n: int, q: int, tuple_len: int, *,
                  samples: int = 100_000, seed: int = 42,
                  tol: float = DEFAULT_TOL) -> SweepSummary:
    """Seeded, stratified sampling variant of ``exhaustive_sweep``."""
    return _sweep(family, n, q, tuple_len, tol=tol, mode="sample", budget=0,
                  samples=samples, seed=seed)


# ---------------------------------------------------------------------------
# targeted dense checks used by the structure builders


def _lowered_querelements(fam: _Family, formula: Callable) -> np.ndarray:
    """Dense forms of the querelements of every label, from one application
    of a batched slot-code formula of ``phases`` to the family's codes,
    widened to int64: a formula's arithmetic, as (2 - n) * r, overflows the
    narrow codes."""
    codes = formula(fam.slots.astype(np.int64), fam.n, fam.q)
    return phases.lower_slots(codes.T, fam.n, fam.q)


def querelement_dense_check(family: str, n: int, q: int) -> float:
    """Max deviation of the querelement defining relation, lowered to dense
    matrices, over every element and insertion position."""
    if family not in ("full", "het"):
        raise DomainError(f"querelement check supports full|het, got {family!r}")
    fam = family_context(family, n, q)
    elems = fam.dense_stack
    # the structure's first formula: the ternary closed form for het at n = 3
    quers = _lowered_querelements(fam, phases._STRUCTURES[family].inverses(fam.n)[0])
    worst = 0.0
    for pos in range(fam.n):
        prod = functools.reduce(
            np.matmul, [quers if t == pos else elems for t in range(fam.n)])
        worst = max(worst, float(np.abs(prod - elems).max()))
    return worst


def het_querelement_inverse_check(q: int) -> float:
    """Max deviation between the ternary heterogeneous querelement and the
    dense matrix inverse, over the full enumerated label set."""
    fam = family_context("het", 3, q)
    quers = _lowered_querelements(fam, phases._het_querelement)
    return float(np.abs(quers - np.linalg.inv(fam.dense_stack)).max())


# ---------------------------------------------------------------------------
# single-case verification


@dataclass(frozen=True)
class VerificationCase:
    """One adjudication: operands, the claimed symbolic result, a tolerance.
    ``family`` names the case; every value lowers through its ``dense()``."""

    family: str
    operands: tuple
    expected: object
    tolerance: float = DEFAULT_TOL

    def __post_init__(self):
        _check_tolerance(self.tolerance)
        object.__setattr__(self, "operands", tuple(self.operands))
        if not self.operands:
            raise DomainError("at least one operand required")
        for attr in ("q", "n"):
            vals = {getattr(o, attr) for o in self.operands if hasattr(o, attr)}
            if len(vals) > 1:
                raise DomainError(f"operands disagree on {attr}: {sorted(vals)}")


@dataclass(frozen=True)
class VerificationOutcome:
    passed: bool
    max_abs_deviation: float
    witness: tuple | None


def verify(case: VerificationCase) -> VerificationOutcome:
    """Compare the lowered expected result against the literal dense product
    of the lowered operands, entrywise."""
    mats = [lower(o) for o in case.operands]
    dims = {m.shape for m in mats}
    if len(dims) != 1:
        raise DomainError(f"inconsistent operand dimensions: {sorted(dims)}")
    prod = functools.reduce(np.matmul, mats)
    expected = lower(case.expected)
    if expected.shape != prod.shape:
        raise DomainError("expected result has inconsistent dimension")
    dev = float(np.abs(prod - expected).max())
    if dev <= case.tolerance:
        return VerificationOutcome(True, dev, None)
    return VerificationOutcome(False, dev, case.operands)
