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
import xml.etree.ElementTree as ET
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from . import phases
from .errors import BudgetExceededError, DomainError
from .matrices import DEFAULT_TOL, BlockCyclicMatrix
from .su2 import PolyadicSU2Element, SU2Params, binary_su2_matrix

DEFAULT_BUDGET = 30_000_000


def worker_count() -> int:
    """1: every closure and associativity check runs on the calling thread,
    so its only parallelism is BLAS's, which ``_TALL_MNK`` bounds."""
    return 1


def lower(obj) -> np.ndarray:
    """Dense realization of a symbolic label or block element."""
    if isinstance(obj, BlockCyclicMatrix):
        return obj.dense()
    if isinstance(obj, PolyadicSU2Element):
        return obj.matrix().dense()
    if isinstance(obj, SU2Params):
        return obj.block()
    dense = getattr(obj, "dense", None)
    if callable(dense):
        return dense()
    raise DomainError(f"cannot lower {type(obj).__name__} to a dense matrix")


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
    #: kernel, its last-factor tables and ``lower`` all read
    slots: np.ndarray
    #: (B, t) label rows -> (B,) products; with every_last=True,
    #: (P, t) prefixes -> (P, order), each prefix followed by every label,
    #: folding only the prefixes and finishing every label from the
    #: kernel's cached last-factor tables, or, for one-factor prefixes,
    #: folding each with every label, into ``out`` when it is given
    #: (``phases._slot_kernel``)
    index_mult: Callable[..., np.ndarray]

    def label(self, i: int):
        """The label object at index ``i``, decoded from its slot codes."""
        return phases.label_from_slots(self.name, self.n, self.q, self.slots[:, i])

    @property
    def d(self) -> int:
        """The dimension of a dense form: n-1 blocks of 2."""
        return 2 * (self.n - 1)

    def lower(self, labels: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Dense forms of the labels at indices ``labels``, into ``out``, a
        C-contiguous stack whose content is overwritten."""
        return phases.lower_slots(self.slots.take(labels, axis=1).T, self.n, self.q, out=out)

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
    """Max deviation over tuple rows and the first bad row.  ``bufs`` is
    three dense stacks reused from slice to slice (``_check``): a factor
    stack and two products.  The first factor is lowered into the product
    the first ``matmul`` does not write, every later factor into the factor
    stack, the label results into the factor stack after the last
    ``matmul``, and the deviations into the spare product's memory, so a
    slice lowers only its own labels and allocates no dense stack."""
    p, t_len = idx.shape
    factor, prods = bufs[0, :p], bufs[1:, :p]
    acc = fam.lower(idx[:, 0], prods[1])
    for t in range(1, t_len):
        acc = np.matmul(acc, fam.lower(idx[:, t], factor), out=prods[(t + 1) % 2])
    # real deviations fill the first half of the spare product's bytes
    dev = prods[(t_len + 1) % 2].reshape(-1).view(np.float64)[:acc.size].reshape(acc.shape)
    worst, bad = _deviation(acc, fam.lower(fam.index_mult(idx), factor), tol, dev)
    return worst, None if bad is None else int(np.argmax(bad))


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
    array, through ``scratch``, one more: each word's sign and exponent bits
    are folded into its low half, and the folded words are summed with
    their weights modulo 2^64.  Unfolded, words that differ only in those
    bits, as the entries 0, +-1 and +-i do, would change only the top bits
    of the sum."""
    np.right_shift(words, np.uint64(31), out=scratch)
    np.bitwise_xor(scratch, words, out=scratch)
    return scratch @ _fingerprint_weights(words.shape[1])


class _ClassTable:
    """The exhaustive closure's sweep-wide table of prefix classes, each a
    distinct pair of (product words, label results).  The first class met
    with a fingerprint keeps its pair in two arrays that grow in place, one
    row per class, and its fingerprint in a sorted key array beside its
    class number.  A chunk's fingerprints find their classes by one
    ``searchsorted``, those new to the table are numbered by one
    ``np.unique``, and a prefix is its class's member when both halves of
    the pair compare equal, in one compare of the whole chunk.  A prefix
    that fails the compare is looked up by its pair's bytes among the
    classes that are not first with their fingerprint, which are kept only
    as such keys."""

    def __init__(self):
        self.keys = np.empty(0, np.uint64)  # sorted fingerprints of the first classes
        self.ids = np.empty(0, np.intp)     # each key's class, a row of words and rows
        self.others: set[bytes] = set()
        self.words = self.rows = self.scratch = None

    def claim(self, words: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Chunk-local indices, in order, of the prefixes whose (``words``,
        ``rows``) pair is new to the sweep, each the first of its class; the
        table then holds their classes."""
        p, known = len(words), len(self.keys)
        if self.scratch is None:  # every chunk but the last is as long as the first
            self.words = np.empty((0, words.shape[1]), np.uint64)
            self.rows = np.empty((0, rows.shape[1]), rows.dtype)
            self.scratch = (np.empty(words.shape, np.uint64), np.empty(words.shape, bool),
                            np.empty(rows.shape, rows.dtype), np.empty(rows.shape, bool))
        wbuf, wsame, rbuf, rsame = (b[:p] for b in self.scratch)
        prints = _fingerprint(words, wbuf)
        at = np.searchsorted(self.keys, prints)
        if known:
            ids = self.ids.take(at, mode="clip")
            miss = np.flatnonzero(self.keys.take(at, mode="clip") != prints)
        else:
            ids, miss = np.empty(p, np.intp), np.arange(p)
        fresh = miss[:0]
        if len(miss):
            # the fingerprints new to the table, each once; their classes are
            # numbered in the order the fingerprints are first met
            new, first, inverse = np.unique(prints[miss], return_index=True,
                                            return_inverse=True)
            cls = np.empty(len(new), np.intp)
            cls[np.argsort(first)] = np.arange(known, known + len(new))
            ids[miss] = cls[inverse]
            fresh = miss[np.sort(first)]
            # new is sorted, so inserting it keeps the keys sorted
            self.keys = np.insert(self.keys, at[miss[first]], new)
            self.ids = np.insert(self.ids, at[miss[first]], cls)
            if len(self.keys) > len(self.words):
                # in place, by realloc, with 1/16 to spare; refcheck would
                # refuse under a profiler, and no view of either array
                # outlives a statement of this method
                grown = len(self.keys) + len(self.keys) // 16
                self.words.resize((grown, words.shape[1]), refcheck=False)
                self.rows.resize((grown, rows.shape[1]), refcheck=False)
            self.words[known:len(self.keys)] = words[fresh]
            self.rows[known:len(self.keys)] = rows[fresh]
        # the gathers never clip: ids holds class rows
        np.take(self.words, ids, axis=0, out=wbuf, mode="clip")
        np.take(self.rows, ids, axis=0, out=rbuf, mode="clip")
        np.equal(wbuf, words, out=wsame)
        np.equal(rbuf, rows, out=rsame)
        if wsame.all() and rsame.all():
            return fresh
        judge = np.zeros(p, dtype=bool)
        judge[fresh] = True
        for i in np.flatnonzero(~(wsame.all(axis=1) & rsame.all(axis=1))).tolist():
            key = words[i].tobytes() + rows[i].tobytes()
            if key not in self.others:
                self.others.add(key)
                judge[i] = True
        return np.flatnonzero(judge)


def _prefix_blocks(fam: _Family, tuple_len: int):
    """The exhaustive closure's prefix products, in blocks of heads in
    row-major order.  A head is a prefix without its last factor.  Each
    head's product is folded once, by the per-matrix left fold, and the
    block's heads, stacked to (H*d, d), are multiplied by each label's
    matrix as one tall product, issued by numpy's loop from one broadcast
    matmul, so its bits are those of a matmul per label on any kernel.
    The H products with label c fill rows c*H .. c*H+H-1 of the
    (order*H, d, d) block.  H is held to the tall product's bound and to
    ``_PREFIX_BLOCK_BYTES``, but a block holds at least one head.  Two
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


def _closure_claims(fam: _Family, tuple_len: int, chunks):
    """The exhaustive closure's chunks in flat row-major order, each with the
    prefixes it claims; start and stop are multiples of the label count, so
    a chunk is whole runs that each share their leading tuple_len-1 factors.
    Every prefix's literal product is taken from its block of heads
    (``_prefix_blocks``), and its label results with every last label are
    computed by the kernel, in buffers reused from chunk to chunk.  With
    three or more factors a prefix is claimed only when its (product bits,
    label results) pair is new to the sweep: the pairs are claimed here, in
    chunk order, in a ``_ClassTable`` that finds most prefixes' classes by
    a 64-bit fingerprint of the product and confirms each by a full compare
    of the pair.  With two factors every prefix is claimed.  Yields (the
    chunk's first prefix, chunk-local indices of the claimed prefixes, every
    prefix's product, every prefix's label results); the two stacks are the
    buffers, valid until the next chunk."""
    order, stack = fam.order, fam.dense_stack
    table = _ClassTable() if tuple_len > 2 else None
    blocks = _prefix_blocks(fam, tuple_len)
    first = size = 0  # the current block's first head and head count
    prods = out = None
    for start, stop in chunks:
        start, stop = start // order, stop // order  # prefix rows
        pref = phases._build_tuples(order, tuple_len - 1, start, stop)
        p = len(pref)
        if prods is None:  # every chunk but the last is as long as the first
            prods = np.empty((p, *stack.shape[1:]), stack.dtype)
            # the kernel's result dtype, from one prefix
            out = np.empty((2, p, order), fam.index_mult(pref[:1], every_last=True).dtype)
        acc = prods[:p]
        row = start
        while row < stop:  # one take from each block the chunk meets
            if row >= (first + size) * order:
                first, size, block = next(blocks)
            end = min(stop, (first + size) * order)
            part = slice(row - start, end - start)
            # prefix (head first+i, last label c) is block row c*size + i;
            # the take never clips
            rows = pref[part, -1] * size + (np.arange(row, end) // order - first)
            np.take(block, rows, axis=0, out=acc[part], mode="clip")
            row = end
        # a wrapped kernel may ignore out, so its result is what counts
        res = fam.index_mult(pref, every_last=True, out=out[:, :p])
        if table is None:
            at = np.arange(p)
        else:
            at = table.claim(acc.reshape(p, -1).view(np.uint64), res)
        yield start, at, acc, res


def _closure_on_range(fam: _Family, at: np.ndarray, acc: np.ndarray,
                      res: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Judge the P classes whose first prefixes are rows ``at`` of the
    sweep, with products ``acc`` and label results ``res``
    (``_JudgingQueue``), against every last label.  This is what
    "exhaustive" means for a closure: every prefix's literal product is
    computed, and each distinct (product, label results) pair is judged
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
    worst deviation over every label and its first bad tuple in row-major
    order, at*order + the first last label it fails with, or -1 where it
    fails with none."""
    order, d, stack = fam.order, fam.d, fam.dense_stack
    tall = acc.reshape(-1, d)
    # take converts a column of narrow results to intp on every call, so
    # convert them once, to one contiguous row per last label
    results = np.ascontiguousarray(res.T, dtype=np.intp)

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
        # label each failing class fails with
        for last, dev in deviations():
            lasts[(lasts < 0) & ~(dev <= tol).all(axis=(1, 2))] = last
    return worst, np.where(lasts < 0, -1, at * order + lasts)


class _JudgingQueue:
    """Classes claimed by the exhaustive closure and not yet judged, at
    most ``size`` of them, in the order they were claimed: each class's
    first prefix row, its claim chunk, its product and its label results.
    A full queue is judged by one ``_closure_on_range`` call, and so is the
    rest at the end.  Each class's worst deviation and first bad tuple are
    folded into the sweep's; once a class fails, only classes claimed in
    its chunk or before count (``stop``), so a failure's worst deviation
    covers exactly the chunks up to its own."""

    def __init__(self, fam: _Family, size: int, tol: float):
        self.fam, self.size, self.tol, self.n = fam, size, tol, 0
        self.rows = self.chunks = self.acc = self.res = None
        self.worst, self.first, self.stop = 0.0, None, None

    def put(self, chunk: int, start: int, at: np.ndarray, acc: np.ndarray, res: np.ndarray):
        """Queue the classes claimed at chunk-local indices ``at`` of chunk
        ``chunk``, whose first prefix row is ``start``, judging the queue
        each time it fills."""
        while len(at):
            if not self.n:
                self.rows, self.chunks = np.empty((2, self.size), np.intp)
                self.acc = np.empty((self.size, *acc.shape[1:]), acc.dtype)
                self.res = np.empty((self.size, res.shape[1]), res.dtype)
            part, at = at[:self.size - self.n], at[self.size - self.n:]
            to = slice(self.n, self.n + len(part))
            self.rows[to], self.chunks[to] = start + part, chunk
            np.take(acc, part, axis=0, out=self.acc[to], mode="clip")
            np.take(res, part, axis=0, out=self.res[to], mode="clip")
            self.n += len(part)
            if self.n == self.size:
                self.judge()

    def judge(self):
        """Judge the queued classes and empty the queue; the judged arrays
        are handed over, and the next class queued gets new ones."""
        n, self.n = self.n, 0
        if not n:
            return
        chunks = self.chunks[:n]
        worsts, bads = _closure_on_range(self.fam, self.rows[:n], self.acc[:n],
                                         self.res[:n], self.tol)
        failed = bads >= 0
        if self.stop is None and failed.any():
            # classes are claimed in row-major order of their first
            # prefixes, so the first failing one holds the first bad tuple
            i = np.argmax(failed)
            self.first, self.stop = int(bads[i]), int(chunks[i])
        if self.stop is not None:
            worsts = worsts[chunks <= self.stop]
        self.worst = float(np.maximum(self.worst, worsts.max(initial=0.0)))  # a NaN stays NaN


def _closure_sweep(fam: _Family, tuple_len: int, total: int,
                   tol: float) -> tuple[float, int | None]:
    """The exhaustive closure's worst deviation and first bad tuple, or
    None.  Prefixes are claimed in chunks of ``runs`` prefixes and their
    classes judged in batches of up to ``batch``, both held to the tall
    product's bound; after the first failure, claiming stops past the
    failing chunk, and the classes claimed up to it are still judged."""
    batch = max(1, _TALL_MNK // fam.d ** 3)
    runs = max(1, min(_CHUNK // fam.order, batch))
    queue = _JudgingQueue(fam, batch, tol)
    claims = _closure_claims(fam, tuple_len, phases._chunk_ranges(total, runs * fam.order))
    for chunk, (start, at, acc, res) in enumerate(claims):
        if queue.stop is not None and chunk > queue.stop:
            break
        queue.put(chunk, start, at, acc, res)
    queue.judge()
    return queue.worst, queue.first


def _assoc_on_tuples(fam: _Family, idx: np.ndarray) -> tuple[float, int | None]:
    """Compare all bracketings of a (2n-1)-factor product; exact in label
    space, so the deviation is 0.0.  Returns the first disagreeing row, or
    None."""
    n = fam.n
    results = []
    for p in range(n):
        inner = fam.index_mult(idx[:, p:p + n])
        outer = np.concatenate(
            [idx[:, :p], inner[:, None], idx[:, p + n:]], axis=1
        )
        results.append(fam.index_mult(outer))
    agree = np.ones(idx.shape[0], dtype=bool)
    for p in range(1, n):
        agree &= results[0] == results[p]
    return 0.0, None if agree.all() else int(np.argmax(~agree))


def _check_tolerance(tol: float) -> None:
    # under a NaN tolerance every dev > tol is False, so every check passes
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError("tolerance must be positive")


#: tuples per exhaustive chunk; bounds the chunk's working memory.
_CHUNK = 1 << 17
#: rows per slice of a seeded sample.  An associativity slice holds only
#: label indices and is this long, since its cost is per kernel call, not
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


def gate(kind: str, order: int, n: int, *, mode: str, budget: int,
         tol: float = DEFAULT_TOL) -> tuple[int, int, bool]:
    """The gate of every closure and associativity check over a family of
    ``order`` labels whose product takes ``n`` factors: the tuple length,
    the tuple count and whether the check is exhaustive.  Over ``budget``
    it refuses an exhaustive request rather than sample, and an auto
    request samples.  It needs no family context and runs nothing, so
    a caller can put all of its checks through their gates before any of
    them lowers a label or sweeps."""
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
    return tuple_len, total, exhaustive


def _check(fam: _Family, kind: str, *, mode: str, budget: int, samples: int,
           seed: int | None, tol: float = DEFAULT_TOL) -> CheckResult:
    """A closure or associativity check through its ``gate``: every tuple in
    row-major chunks (the closure by classes, ``_closure_sweep``), or the
    seeded sample in slices, up to the first failing tuple."""
    tuple_len, total, exhaustive = gate(kind, fam.order, fam.n,
                                        mode=mode, budget=budget, tol=tol)
    closure = kind == "closure"
    checked, worst, first, jobs = 0, 0.0, None, ()
    if exhaustive and closure:
        worst, first = _closure_sweep(fam, tuple_len, total, tol)
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
    """One adjudication: operands, the claimed symbolic result, a tolerance."""

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


def _case_lower(family: str, obj) -> np.ndarray:
    if family == "su2-params" and isinstance(obj, SU2Params):
        return binary_su2_matrix(obj)
    return lower(obj)


def verify(case: VerificationCase) -> VerificationOutcome:
    """Compare the lowered expected result against the literal dense product
    of the lowered operands, entrywise."""
    mats = [_case_lower(case.family, o) for o in case.operands]
    dims = {m.shape for m in mats}
    if len(dims) != 1:
        raise DomainError(f"inconsistent operand dimensions: {sorted(dims)}")
    prod = mats[0]
    for m in mats[1:]:
        prod = prod @ m
    expected = _case_lower(case.family, case.expected)
    if expected.shape != prod.shape:
        raise DomainError("expected result has inconsistent dimension")
    dev = float(np.abs(prod - expected).max())
    if dev <= case.tolerance:
        return VerificationOutcome(True, dev, None)
    return VerificationOutcome(False, dev, case.operands)
