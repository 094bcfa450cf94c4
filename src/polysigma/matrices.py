"""Dense complex arithmetic for 2x2 sigma blocks and cyclic-shift block matrices.

This is the numeric substrate used by the verification oracle.  Everything
symbolic (phase indices, element labels) lives in other modules as exact
integers; the matrices here are plain ``numpy`` ``complex128`` arrays and are
only ever compared within explicit tolerances.

The cyclic-shift geometry lives here, for matrices and labels alike: where
block s sits (``cyclic_dense``; ``phases.lower_slots`` places label blocks
at the same positions), which factor blocks a product's block s multiplies
(``cyclic_fold``) and which factor counts close (``check_factor_count``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ArityError, DomainError, ValidationError

#: default tolerance for entrywise comparison of products of unit-magnitude
#: matrices; determinants of larger matrices use DET_TOL.
DEFAULT_TOL = 1e-12
DET_TOL = 1e-10


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.complex128)
    out.flags.writeable = False
    return out


_SIGMA = (
    _frozen([[1, 0], [0, 1]]),
    _frozen([[0, 1], [1, 0]]),
    _frozen([[0, -1j], [1j, 0]]),
    _frozen([[1, 0], [0, -1]]),
)


def sigma(j: int) -> np.ndarray:
    """The 2x2 sigma matrix with index ``j`` in {0, 1, 2, 3}; sigma(0) is I2."""
    if j not in (0, 1, 2, 3):
        raise DomainError(f"sigma index must be 0..3, got {j!r}")
    return _SIGMA[j]


def _as_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    return a


def mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ordinary matrix product with an explicit dimension check."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DomainError(f"dimension mismatch: {a.shape} x {b.shape}")
    return a @ b


def hermitian(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a, dtype=np.complex128).conj().T


def hadamard(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise (Schur) product of two same-shaped matrices."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        raise DomainError(f"shape mismatch for Hadamard product: {a.shape} vs {b.shape}")
    return a * b


def trace(a: np.ndarray) -> complex:
    return complex(np.trace(_as_square(a)))


def det(a: np.ndarray) -> complex:
    """Determinant of a square matrix."""
    return complex(np.linalg.det(_as_square(a)))


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| entrywise; the deviation measure used everywhere."""
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


def allclose(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    return max_abs_diff(a, b) <= tol


def cyclic_dense(blocks) -> np.ndarray:
    """Dense forms (..., 2m, 2m) of cyclic-shift matrices with blocks
    (..., m, 2, 2): block s sits at block position (s, s+1 mod m)."""
    blocks = np.asarray(blocks, dtype=np.complex128)
    lead, m = blocks.shape[:-3], blocks.shape[-3]
    dense = np.zeros(lead + (2 * m, 2 * m), dtype=np.complex128)
    places = dense.reshape(lead + (m, 2, m, 2))  # a view of the zeroed stack
    for s in range(m):
        places[..., s, :, (s + 1) % m, :] = blocks[..., s, :, :]
    return dense


def cyclic_fold(factors: Sequence, mul: Callable) -> list:
    """Blocks of the product of cyclic-shift factors, each given by its m
    blocks: block s is the ``mul``-product, left to right, over factors t of
    block (s + t) mod m."""
    m = len(factors[0])
    return [functools.reduce(mul, (f[(s + t) % m] for t, f in enumerate(factors)))
            for s in range(m)]


def check_factor_count(count: int, n: int) -> None:
    """A product of arity n closes only for l*(n-1)+1 factors, l >= 1."""
    if count < n or (count - 1) % (n - 1) != 0:
        raise ArityError(f"a {n}-ary product takes l*{n - 1}+1 factors, got {count}")


@dataclass(frozen=True, eq=False)
class BlockCyclicMatrix:
    """2(n-1) x 2(n-1) matrix whose only nonzero 2x2 blocks sit on the cyclic
    superdiagonal: block k at block position (k, k+1) for k = 1..n-2 and the
    corner (n-1, 1).

    ``blocks[i]`` is the 2x2 block at (1-based) position ``i + 1``.  The block
    list, not the dense array, is the primary representation; ``dense()``
    lowers explicitly.  Values are immutable after construction.
    """

    arity: int
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.arity < 2:
            raise ValidationError(f"arity must be >= 2, got {self.arity}")
        if len(self.blocks) != self.arity - 1:
            raise ValidationError(
                f"expected {self.arity - 1} blocks for arity {self.arity}, got {len(self.blocks)}"
            )
        frozen = []
        for b in self.blocks:
            b = np.asarray(b, dtype=np.complex128)
            if b.shape != (2, 2):
                raise ValidationError(f"blocks must be 2x2, got shape {b.shape}")
            if not np.all(np.isfinite(b.view(np.float64))):
                raise ValidationError("non-finite entry in block")
            frozen.append(_frozen(b))
        object.__setattr__(self, "blocks", tuple(frozen))

    @property
    def dim(self) -> int:
        return 2 * (self.arity - 1)

    def block(self, k: int) -> np.ndarray:
        """Block at 1-based cyclic position ``k`` (1 <= k <= arity-1)."""
        if not 1 <= k <= self.arity - 1:
            raise DomainError(f"block position must be 1..{self.arity - 1}, got {k}")
        return self.blocks[k - 1]

    def dense(self) -> np.ndarray:
        return cyclic_dense(self.blocks)

    @classmethod
    def from_dense(cls, a: np.ndarray, arity: int, tol: float = 0.0) -> "BlockCyclicMatrix":
        """Extract the block list from a dense array, checking the off-pattern
        entries are zero (within ``tol``)."""
        a = _as_square(a)
        m = arity - 1
        if a.shape[0] != 2 * m:
            raise DomainError(f"dense dim {a.shape[0]} does not match arity {arity}")
        # the pattern's entries, read row-major, are the blocks in order
        pattern = cyclic_dense(np.ones((m, 2, 2))) != 0
        blocks = a[pattern].reshape(m, 2, 2)
        stray = float(np.abs(a - cyclic_dense(blocks)).max(initial=0.0))
        if not stray <= tol:  # a NaN entry fails too
            raise DomainError(f"off-pattern entries up to {stray} exceed tolerance {tol}")
        return cls(arity, tuple(blocks))

    def allclose(self, other: "BlockCyclicMatrix", tol: float = DEFAULT_TOL) -> bool:
        if self.arity != other.arity:
            return False
        return all(allclose(a, b, tol) for a, b in zip(self.blocks, other.blocks))
