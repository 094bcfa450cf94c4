"""Elementary, full, and heterogeneous Sigma matrices and the ternary calculus.

A Sigma matrix is the unphased case of the phase-shifted labels of
``phases``: a q = 4 label with phase index 0, and a power i**k of the
quarter-turn unit is the phase index k at q = 4.  The products here are
one-row q = 4 wrappers over the label algebra's Cayley-table fold, so an
elementary, full or ternary product is the same fold as any other label
product.  ``reduce_sigma_word`` stays as a scalar reference for sigma-index
words.  Every closed-form ternary rule in this module is verified against
the dense matrix oracle in the test suite.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import permutations, product
from typing import Iterable, Sequence

import numpy as np

from .errors import ArityError, DomainError, ValidationError
from .matrices import BlockCyclicMatrix, check_factor_count, sigma
# levi_civita and mul_sigma_indices live in phases, and are public here too
from .phases import (ElementaryLabel, FullLabel, ZeroLabel, _product, full_nary_mul,  # noqa: F401
                     levi_civita, mul_sigma_indices, root_of_unity)
from .su2 import PolyadicSU2Element


def reduce_sigma_word(js: Iterable[int]) -> tuple[int, int]:
    """Reduce a product of sigma indices to (index, quarter)."""
    j, quarter = 0, 0
    for k in js:
        if k not in (0, 1, 2, 3):
            raise DomainError(f"sigma index must be 0..3, got {k!r}")
        j, d = mul_sigma_indices(j, k)
        quarter = (quarter + d) % 4
    return j, quarter


def quarter_unit(quarter: int) -> complex:
    """Exact complex value of i**quarter."""
    return root_of_unity(quarter, 4)


# ---------------------------------------------------------------------------
# constructors


def _check_position(n: int, k: int) -> None:
    if not 1 <= k <= n - 1:
        raise DomainError(f"block position must be 1..{n - 1}, got {k}")


@dataclass(frozen=True)
class ElementarySigma:
    """Single sigma_j block at cyclic position k; nilpotent block matrix unit."""

    arity: int
    j: int
    k: int

    def __post_init__(self):
        sigma(self.j)
        _check_position(self.arity, self.k)

    def matrix(self) -> BlockCyclicMatrix:
        zero = np.zeros((2, 2), dtype=np.complex128)
        blocks = [zero] * (self.arity - 1)
        blocks[self.k - 1] = sigma(self.j)
        return BlockCyclicMatrix(self.arity, tuple(blocks))

    def dense(self) -> np.ndarray:
        return self.matrix().dense()


@dataclass(frozen=True)
class FullSigma:
    """Sum of the elementary matrices with one sigma index over all positions;
    index 0 gives the distinguished polyadic identity E."""

    arity: int
    j: int

    def __post_init__(self):
        sigma(self.j)

    def matrix(self) -> BlockCyclicMatrix:
        return BlockCyclicMatrix(self.arity, (sigma(self.j),) * (self.arity - 1))

    def dense(self) -> np.ndarray:
        return self.matrix().dense()


@dataclass(frozen=True)
class HetSigma:
    """Cyclic-shift matrix with an independently chosen sigma index per block."""

    arity: int
    js: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "js", tuple(int(j) for j in self.js))
        if len(self.js) != self.arity - 1:
            raise ValidationError(
                f"expected {self.arity - 1} indices, got {len(self.js)}"
            )
        for j in self.js:
            sigma(j)

    def matrix(self) -> BlockCyclicMatrix:
        return BlockCyclicMatrix(self.arity, tuple(sigma(j) for j in self.js))

    def dense(self) -> np.ndarray:
        return self.matrix().dense()

    def is_homogeneous(self) -> bool:
        return len(set(self.js)) == 1


@dataclass(frozen=True)
class ParamBlockMatrix:
    """Cyclic-shift matrix of scalar parameters x_j(k), one real per block.

    ``dense()`` places each scalar on an all-ones 2x2 block so that the
    element-wise product with the matching full Sigma matrix reproduces the
    x_j(k)*sigma_j blocks exactly; a scalar-times-identity block pattern would
    annihilate the sigma_1/sigma_2 terms under the element-wise product.
    """

    arity: int
    j: int
    xs: tuple[float, ...]

    def __post_init__(self):
        sigma(self.j)
        object.__setattr__(self, "xs", tuple(float(v) for v in self.xs))
        if len(self.xs) != self.arity - 1:
            raise ValidationError(f"expected {self.arity - 1} scalars, got {len(self.xs)}")

    def matrix(self) -> BlockCyclicMatrix:
        ones = np.ones((2, 2), dtype=np.complex128)
        return BlockCyclicMatrix(self.arity, tuple(x * ones for x in self.xs))

    def dense(self) -> np.ndarray:
        return self.matrix().dense()


def elementary(n: int, j: int, k: int) -> BlockCyclicMatrix:
    """Elementary Sigma matrix: sigma_j at cyclic position k, zeros elsewhere."""
    return ElementarySigma(n, j, k).matrix()


def elementary_outer(n: int, j: int, k: int) -> BlockCyclicMatrix:
    """Elementary Sigma matrix built as a block column times a block row.

    The column carries I2 in slot k; the row carries sigma_j in slot k+1
    (cyclically).  The transpose acts on the block structure only, so the
    sigma block itself is not transposed.  Agrees exactly with ``elementary``.
    """
    sigma(j)
    _check_position(n, k)
    m = n - 1
    col = np.zeros((2 * m, 2), dtype=np.complex128)
    col[2 * (k - 1):2 * k, :] = np.eye(2)
    row = np.zeros((2, 2 * m), dtype=np.complex128)
    target = k % m  # slot k+1, cyclic, 0-based
    row[:, 2 * target:2 * target + 2] = sigma(j)
    return BlockCyclicMatrix.from_dense(col @ row, n)


def full(n: int, j: int) -> BlockCyclicMatrix:
    """Full Sigma matrix: sigma_j at every cyclic position."""
    return FullSigma(n, j).matrix()


def het(n: int, js: Sequence[int]) -> BlockCyclicMatrix:
    """Heterogeneous Sigma matrix with per-position sigma indices."""
    return HetSigma(n, tuple(js)).matrix()


def het_labels(n: int) -> list[HetSigma]:
    """All heterogeneous index choices: 4^(n-1) of them."""
    return [HetSigma(n, js) for js in product(range(4), repeat=n - 1)]


def het_count_enumerated(n: int) -> int:
    return 4 ** (n - 1)


def het_count_arrangements(n: int) -> int:
    """(n-1)^4, the published count; agrees with the enumerated count only at
    n = 3.  Callers should compare against ``het_count_enumerated``."""
    return (n - 1) ** 4


# ---------------------------------------------------------------------------
# expansions of group elements


def expand(e: PolyadicSU2Element) -> list[tuple[complex, ElementarySigma]]:
    """Expansion of a group element over elementary Sigma matrices.

    Block k contributes x0(k) on the index-0 unit and i*x_j(k) on the index-j
    units; re-summing the terms reproduces the dense element exactly.
    """
    terms: list[tuple[complex, ElementarySigma]] = []
    for k, p in enumerate(e.params, start=1):
        terms.append((complex(p.x0), ElementarySigma(e.arity, 0, k)))
        for j, xj in enumerate(p.x, start=1):
            terms.append((1j * xj, ElementarySigma(e.arity, j, k)))
    return terms


def expansion_dense(terms: Iterable[tuple[complex, ElementarySigma]], arity: int) -> np.ndarray:
    dim = 2 * (arity - 1)
    out = np.zeros((dim, dim), dtype=np.complex128)
    for coeff, unit in terms:
        out += coeff * unit.dense()
    return out


def hadamard_decompose(
    e: PolyadicSU2Element,
) -> tuple[tuple[ParamBlockMatrix, ...], tuple[FullSigma, ...]]:
    """Split an element into four parameter matrices and four full Sigma
    matrices so that X0 o S0 + i X1 o S1 + i X2 o S2 + i X3 o S3 rebuilds the
    dense element exactly (o is the element-wise product)."""
    xs = []
    for j in range(4):
        comps = tuple(p.x0 if j == 0 else p.x[j - 1] for p in e.params)
        xs.append(ParamBlockMatrix(e.arity, j, comps))
    return tuple(xs), tuple(FullSigma(e.arity, j) for j in range(4))


def hadamard_reconstruct(
    xs: Sequence[ParamBlockMatrix], fulls: Sequence[FullSigma]
) -> np.ndarray:
    out = xs[0].dense() * fulls[0].dense()
    for j in (1, 2, 3):
        out = out + 1j * (xs[j].dense() * fulls[j].dense())
    return out


# ---------------------------------------------------------------------------
# products and (anti)commutators


@dataclass(frozen=True)
class SignedElementary:
    """Product result: i**quarter times an elementary matrix, or the zero
    matrix (element=None)."""

    quarter: int
    element: ElementarySigma | None

    @property
    def is_zero(self) -> bool:
        return self.element is None

    def dense(self, arity: int | None = None) -> np.ndarray:
        if self.element is None:
            if arity is None:
                raise DomainError("zero result needs an explicit arity to lower")
            dim = 2 * (arity - 1)
            return np.zeros((dim, dim), dtype=np.complex128)
        return quarter_unit(self.quarter) * self.element.dense()


ZERO_RESULT = SignedElementary(0, None)


@dataclass(frozen=True)
class SignedFull:
    """i**quarter times a full Sigma matrix."""

    quarter: int
    element: FullSigma

    def dense(self) -> np.ndarray:
        return quarter_unit(self.quarter) * self.element.dense()


def elementary_product(factors: Sequence[ElementarySigma]) -> SignedElementary:
    """Exact product of elementary matrices of a common arity, folded as
    q = 4 elementary labels with phase 0.

    Nonzero only when the block positions chain cyclically (each factor one
    step after the previous); the result sits at the first factor's position
    with the reduced sigma word as its index.  c factors shift by c blocks,
    so a result shifts by one only for c = l*(n-1)+1: other counts but 1
    raise ArityError, and so does an empty product.
    """
    if not factors:
        raise ArityError("an elementary product takes at least one factor, got 0")
    arity = factors[0].arity
    for f in factors:
        if f.arity != arity:
            raise DomainError("mixed arities in elementary product")
    if len(factors) > 1:
        check_factor_count(len(factors), arity)
    lab = _product("elementary", [ElementaryLabel(4, arity, f.j, f.k, 0) for f in factors],
                   arity)
    if isinstance(lab, ZeroLabel):
        return ZERO_RESULT
    return SignedElementary(lab.r, ElementarySigma(arity, lab.j, lab.k))


def ternary_triple_elementary(
    a: ElementarySigma, b: ElementarySigma, c: ElementarySigma
) -> SignedElementary:
    """Ternary product of elementary matrices at arity 3; zero unless the
    positions alternate as (1,2,1) or (2,1,2)."""
    for f in (a, b, c):
        if f.arity != 3:
            raise DomainError("ternary product requires arity 3")
    return elementary_product((a, b, c))


def nary_power(s: FullSigma, count: int) -> FullSigma:
    """count-fold product of one full Sigma matrix, count = l*(n-1)+1.

    Index 0 is idempotent at any allowed count; a nonzero index squares away,
    so the result has the same index for odd counts and index 0 for even
    counts.  No phase ever arises.
    """
    lab = full_nary_mul([FullLabel(4, s.arity, s.j, 0)] * count, s.arity)
    assert lab.r == 0
    return FullSigma(s.arity, lab.j)


def ternary_full_product(a: FullSigma, b: FullSigma, c: FullSigma) -> SignedFull:
    """Ternary product of full Sigma matrices at arity 3 (always nonzero)."""
    for f in (a, b, c):
        if f.arity != 3:
            raise DomainError("ternary product requires arity 3")
    lab = full_nary_mul([FullLabel(4, 3, f.j, 0) for f in (a, b, c)], 3)
    return SignedFull(lab.r, FullSigma(3, lab.j))


def ternary_commutator(a, b, c) -> np.ndarray:
    """abc + bca + cab - acb - bac - cba on dense matrices (arity-3 operands)."""
    A, B, C = a.dense(), b.dense(), c.dense()
    return (A @ B @ C + B @ C @ A + C @ A @ B
            - A @ C @ B - B @ A @ C - C @ B @ A)


def ternary_anticommutator(a, b, c) -> np.ndarray:
    """Sum of all six orderings of a ternary product on dense matrices."""
    first, *rest = [x @ y @ z for x, y, z in permutations((a.dense(), b.dense(), c.dense()))]
    return sum(rest, first)


# ---------------------------------------------------------------------------
# rule dumps


def rule_rows_full() -> list[tuple[str, str, int]]:
    """Exhaustive ternary multiplication rules for full Sigma matrices at
    arity 3: (lhs index triple, result label, quarter exponent)."""
    rows = []
    for k, l, m in product(range(4), repeat=3):
        res = ternary_full_product(FullSigma(3, k), FullSigma(3, l), FullSigma(3, m))
        rows.append((f"{k} {l} {m}", f"F{res.element.j}", res.quarter))
    return rows


def rule_rows_elementary() -> list[tuple[str, str, int]]:
    """Exhaustive ternary multiplication rules for elementary Sigma matrices
    at arity 3 over all index and position choices; zero results are 'Z'."""
    rows = []
    units = [ElementarySigma(3, j, k) for j in range(4) for k in (1, 2)]
    for a, b, c in product(units, repeat=3):
        res = ternary_triple_elementary(a, b, c)
        lhs = f"{a.j}.{a.k} {b.j}.{b.k} {c.j}.{c.k}"
        if res.is_zero:
            rows.append((lhs, "Z", 0))
        else:
            rows.append((lhs, f"E{res.element.j}.{res.element.k}", res.quarter))
    return rows


def write_rule_csv(path, kind: str) -> int:
    """Write the ternary rule table ('full' or 'elementary') as CSV with
    header lhs_indices, rhs_label, phase_exponent.  Returns the row count."""
    tables = {"full": rule_rows_full, "elementary": rule_rows_elementary}
    if kind not in tables:
        raise DomainError(f"unknown rule table {kind!r}")
    rows = tables[kind]()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["lhs_indices", "rhs_label", "phase_exponent"])
        w.writerows(rows)
    return len(rows)
