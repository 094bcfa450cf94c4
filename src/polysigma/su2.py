"""Polyadic special unitary group built from cyclic-shift block matrices.

An element of arity n is a list of n-1 unit-norm parameter 4-vectors, one per
2x2 block.  The n-ary product is the ordinary matrix product of n factors; it
is not closed for fewer than n factors, and the allowed factor count in any
product is l*(n-1)+1.  Alongside the matrix-level operations this module
carries the closed-form parameter-space products (binary and ternary) and the
trace/determinant laws for the cyclic-shift form.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import matrices
from .errors import ArityError, DomainError, ValidationError
from .matrices import BlockCyclicMatrix

#: validation tolerance for the unit-norm constraint; looser than arithmetic
#: tolerance so values round-tripped through JSON files still validate.
NORM_TOL = 1e-9


def is_json_int(v) -> bool:
    """An integer read from JSON; a bool is an int to Python, not here."""
    return isinstance(v, int) and not isinstance(v, bool)


def is_json_real(v) -> bool:
    """A number read from JSON that is a finite float, bools excluded."""
    return (isinstance(v, float) and math.isfinite(v)
            or is_json_int(v) and abs(v) <= sys.float_info.max)


def parse_element(d) -> tuple[int, list[tuple[float, float, float, float]]]:
    """The arity and each block's (x0, x1, x2, x3) of an element read from
    JSON, {"arity": int, "blocks": [{"x0": real, "x": [real, real, real]}]}
    with finite reals; DomainError on any other shape.  Counts and norms are
    left to the caller."""
    if not (isinstance(d, dict) and isinstance(d.get("blocks"), list)):
        raise DomainError(f"an element must be an object with a list of blocks, got {d!r}")
    if not is_json_int(d.get("arity")):
        raise DomainError(f"arity must be an integer, got {d.get('arity')!r}")
    return d["arity"], [_parse_block(b) for b in d["blocks"]]


def _parse_block(b) -> tuple[float, float, float, float]:
    """(x0, x1, x2, x3) of one block of ``parse_element``."""
    if not (isinstance(b, dict) and isinstance(b.get("x"), list) and len(b["x"]) == 3
            and all(is_json_real(v) for v in (b.get("x0"), *b["x"]))):
        raise DomainError(f"a block needs a finite x0 and three finite x, got {b!r}")
    return (float(b["x0"]), *map(float, b["x"]))


@dataclass(frozen=True)
class SU2Params:
    """Real 4-vector (x0, x1, x2, x3) with x0^2 + |x|^2 = 1, parameterizing one
    2x2 special unitary block as x0*sigma0 + i*(x1*sigma1 + x2*sigma2 + x3*sigma3)."""

    x0: float
    x: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "x0", float(self.x0))
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        if len(self.x) != 3:
            raise ValidationError(f"x must have 3 components, got {len(self.x)}")
        vals = (self.x0, *self.x)
        if not all(math.isfinite(v) for v in vals):
            raise ValidationError("non-finite parameter")
        if abs(self.norm_sq() - 1.0) > NORM_TOL:
            raise ValidationError(f"parameters are not unit-norm: x0^2+|x|^2 = {self.norm_sq()}")

    def norm_sq(self) -> float:
        return self.x0 * self.x0 + sum(v * v for v in self.x)

    def vec(self) -> np.ndarray:
        return np.array(self.x, dtype=float)

    def block(self) -> np.ndarray:
        """2x2 block x0*sigma0 + i x.sigma."""
        x1, x2, x3 = self.x
        return np.array(
            [[self.x0 + 1j * x3, x2 + 1j * x1],
             [-x2 + 1j * x1, self.x0 - 1j * x3]],
            dtype=np.complex128,
        )

    def to_dict(self) -> dict:
        return {"x0": self.x0, "x": list(self.x)}

    @classmethod
    def from_dict(cls, d: dict) -> "SU2Params":
        x0, *x = _parse_block(d)
        return cls(x0, tuple(x))


def binary_su2_matrix(p: SU2Params) -> np.ndarray:
    """The 2x2 layout [[x0+i*x1, x2+i*x3], [-x2+i*x3, x0-i*x1]].

    This layout differs from ``SU2Params.block`` by the x1 <-> x3 relabeling;
    it is the one whose parameter-space product is ``binary_param_mul``.
    """
    x1, x2, x3 = p.x
    return np.array(
        [[p.x0 + 1j * x1, x2 + 1j * x3],
         [-x2 + 1j * x3, p.x0 - 1j * x1]],
        dtype=np.complex128,
    )


def random_su2_params(rng: np.random.Generator) -> SU2Params:
    """Uniform draw on the unit 3-sphere: normalized 4D standard Gaussian."""
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    return SU2Params(v[0], tuple(v[1:]))


@dataclass(frozen=True)
class PolyadicSU2Element:
    """Element of the arity-n polyadic special unitary group: n-1 unit-norm
    parameter blocks placed on the cyclic superdiagonal."""

    arity: int
    params: tuple[SU2Params, ...]

    def __post_init__(self):
        if self.arity < 2:
            raise ValidationError(f"arity must be >= 2, got {self.arity}")
        object.__setattr__(self, "params", tuple(self.params))
        if len(self.params) != self.arity - 1:
            raise ValidationError(
                f"expected {self.arity - 1} parameter blocks, got {len(self.params)}"
            )

    def matrix(self) -> BlockCyclicMatrix:
        return BlockCyclicMatrix(self.arity, tuple(p.block() for p in self.params))

    def to_dict(self) -> dict:
        return {"arity": self.arity, "blocks": [p.to_dict() for p in self.params]}

    @classmethod
    def from_dict(cls, d: dict) -> "PolyadicSU2Element":
        arity, coeffs = parse_element(d)
        return cls(arity, tuple(SU2Params(x0, tuple(x)) for x0, *x in coeffs))

    @classmethod
    def random(cls, rng: np.random.Generator, arity: int) -> "PolyadicSU2Element":
        return cls(arity, tuple(random_su2_params(rng) for _ in range(arity - 1)))

    @classmethod
    def restricted(cls, p: SU2Params, arity: int) -> "PolyadicSU2Element":
        """Equal-block element; these form a subgroup."""
        return cls(arity, (p,) * (arity - 1))


def to_matrix(e: PolyadicSU2Element) -> BlockCyclicMatrix:
    return e.matrix()


def nary_product(factors: Sequence[BlockCyclicMatrix], arity: int) -> BlockCyclicMatrix:
    """Product of l*(n-1)+1 cyclic-shift block matrices, computed block-wise.

    Block k of the result is the cycled product of the factors' blocks at
    positions k, k+1, k+2, ... (mod n-1).  Equals the ordinary dense matrix
    product of all factors.
    """
    factors = list(factors)
    matrices.check_factor_count(len(factors), arity)
    for f in factors:
        if f.arity != arity:
            raise ArityError(f"factor arity {f.arity} != {arity}")
    return BlockCyclicMatrix(
        arity, tuple(matrices.cyclic_fold([f.blocks for f in factors], np.matmul)))


def _inv2(b: np.ndarray) -> np.ndarray:
    d = b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]
    if abs(d) < 1e-14:
        raise DomainError("singular block has no inverse")
    return np.array([[b[1, 1], -b[0, 1]], [-b[1, 0], b[0, 0]]], dtype=np.complex128) / d


def querelement(mat: BlockCyclicMatrix) -> BlockCyclicMatrix:
    """The n-ary analog of the inverse: the unique element that, inserted at
    any position among n-1 copies of ``mat``, reproduces ``mat``.

    Block k of the result is the descending cyclic product of the inverses of
    blocks k-1, k-2, ..., k+1 (n-2 factors).  For arity 3 this is the matrix
    inverse of ``mat``.
    """
    m = mat.arity - 1
    blocks = []
    for k in range(m):
        acc = np.eye(2, dtype=np.complex128)
        for step in range(1, m):
            acc = acc @ _inv2(mat.blocks[(k - step) % m])
        blocks.append(acc)
    return BlockCyclicMatrix(mat.arity, tuple(blocks))


@dataclass(frozen=True)
class PolyadicIdentity:
    """Left or right polyadic identity: scalar blocks a(k)*I2 with product 1.

    The left law is mu[E_l, ..., E_l, M] = M with n-1 copies of E_l; the right
    law puts the copies last.  No generic middle identity exists: with M at an
    interior position and identities elsewhere the blocks of M come back
    cyclically shifted (equal-block elements are the exception).
    """

    arity: int
    side: str  # "left" | "right"
    coeffs: tuple[float, ...]

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ValidationError(f"side must be 'left' or 'right', got {self.side!r}")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if len(self.coeffs) != self.arity - 1:
            raise ValidationError(
                f"expected {self.arity - 1} coefficients, got {len(self.coeffs)}"
            )
        if any(c == 0.0 for c in self.coeffs):
            raise ValidationError("identity coefficients must be nonzero")
        prod = math.prod(self.coeffs)
        if abs(prod - 1.0) > NORM_TOL:
            raise ValidationError(f"coefficient product must be 1, got {prod}")

    def matrix(self) -> BlockCyclicMatrix:
        eye = np.eye(2, dtype=np.complex128)
        return BlockCyclicMatrix(self.arity, tuple(c * eye for c in self.coeffs))


def polyadic_identity(arity: int, side: str, coeffs: Iterable[float]) -> BlockCyclicMatrix:
    return PolyadicIdentity(arity, side, tuple(coeffs)).matrix()


def identity_element(arity: int) -> BlockCyclicMatrix:
    """The distinguished identity E: all blocks I2 (left and right identity)."""
    return polyadic_identity(arity, "left", (1.0,) * (arity - 1))


def ternary_idempotent(a: float) -> BlockCyclicMatrix:
    """One-parameter ternary idempotent with blocks (a*I2, I2/a)."""
    if a == 0.0:
        raise ValidationError("parameter must be nonzero")
    return polyadic_identity(3, "left", (a, 1.0 / a))


def polyadic_trace(mat: BlockCyclicMatrix) -> complex:
    """Sum of the ordinary traces of the cyclic blocks.

    Nonzero in general even though the dense matrix is traceless for n >= 3;
    coincides with the ordinary trace at arity 2.
    """
    return complex(sum(np.trace(b) for b in mat.blocks))


def binary_param_mul(p: SU2Params, q: SU2Params) -> SU2Params:
    """Closed-form product on parameter 4-vectors (quaternion-style, with a
    plus cross product); matches the dense product of ``binary_su2_matrix``."""
    a0, (a1, a2, a3) = p.x0, p.x
    b0, (b1, b2, b3) = q.x0, q.x
    x0 = a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3
    x1 = a1 * b0 + a0 * b1 + a2 * b3 - a3 * b2
    x2 = a2 * b0 + a0 * b2 + a3 * b1 - a1 * b3
    x3 = a3 * b0 + a0 * b3 + a1 * b2 - a2 * b1
    return SU2Params(x0, (x1, x2, x3))


def _triple_params(p: SU2Params, q: SU2Params, r: SU2Params) -> SU2Params:
    """Closed form for the product of three blocks x0*sigma0 + i x.sigma."""
    a0, a = p.x0, p.vec()
    b0, b = q.x0, q.vec()
    c0, c = r.x0, r.vec()
    x0 = (a0 * b0 * c0 - a0 * np.dot(b, c) - b0 * np.dot(a, c) - c0 * np.dot(a, b)
          + np.dot(a, np.cross(b, c)))
    xv = (a0 * b0 * c + a0 * c0 * b + b0 * c0 * a
          + b * np.dot(a, c) - a * np.dot(b, c) - c * np.dot(a, b)
          - a0 * np.cross(b, c) - b0 * np.cross(a, c) - c0 * np.cross(a, b))
    return SU2Params(float(x0), tuple(xv))


def ternary_param_mul(
    p: tuple[SU2Params, SU2Params],
    q: tuple[SU2Params, SU2Params],
    r: tuple[SU2Params, SU2Params],
) -> tuple[SU2Params, SU2Params]:
    """Ternary product of arity-3 elements in closed parameter form.

    Output block 1 multiplies (p1, q2, r1) and output block 2 multiplies
    (p2, q1, r2), following the cycled block recurrences.
    """
    return (_triple_params(p[0], q[1], r[0]), _triple_params(p[1], q[0], r[1]))


def invariant_i2(p: SU2Params, q: SU2Params) -> float:
    """x0'*x0'' + x'.x''; equals Re trace(hermitian(M')M'')/2 for the blocks."""
    return p.x0 * q.x0 + float(np.dot(p.vec(), q.vec()))


def det_law_check(e: PolyadicSU2Element) -> complex:
    """Determinant of the dense form; asserts the cyclic-shift factorization
    det = prod(det blocks), which is +1 for unit-determinant blocks.

    The block pattern is an (n-1)-cycle of 2x2 blocks, so its permutation
    sign enters squared and no alternating sign survives at any arity (the
    identity-block element is invertible with determinant 1, which already
    rules a sign factor out at even arity).
    """
    mat = e.matrix()
    d = matrices.det(mat.dense())
    block_dets = np.prod([matrices.det(b) for b in mat.blocks])
    if abs(d - block_dets) > matrices.DET_TOL or abs(d - 1.0) > matrices.DET_TOL:
        raise AssertionError(
            f"determinant law violated: det={d}, blocks give {block_dets}"
        )
    return d
