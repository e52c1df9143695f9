"""Zero-divisor structure of the sedenions.

Sedenions are the first Cayley-Dickson level with zero divisors.  Writing a
sedenion as p = u + v*e8 with octonion halves u, v, the nonzero left zero
divisors are exactly the p with u, v imaginary, |u| = |v| != 0 and u _|_ v
(up to scale), and (u + v*e8)(c + d*e8) = 0 holds iff u, v, c are nonzero,
|u| = |v|, d = u(vc)/(|u||v|), and the normalized {u, v, c} form a special
triple: unit octonions with (u v) c = -u (v c).

This module detects zero divisors, computes null spaces of left
multiplication, and provides the orthogonal decompositions built on them:

    S = O_p  (+)  ker p  (+)  ker p^c8        (dims 8 + 4 + 4)

where p^c8 := u - v*e8 and O_p = H_p + H_p*e8 with H_p the quaternion algebra
spanned by 1, u, v, uv, plus the slice-pair projections d_eq / d_perp /
d_neg_eq / d_pm of `pq_project`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, NamedTuple

import numpy as np
from numpy.typing import NDArray

from .algebra import (
    CDElement,
    DIM,
    MAX_LEVEL,
    _EYE,
    _frozen,
    _pow2_exponent,
    _pow2_scaled,
    cd_mul,
    left_mult_matrix,
)
from . import _tol

if TYPE_CHECKING:
    from .slices import WPoint

__all__ = [
    "Subspace",
    "OrthoDecomposition",
    "PQProjection",
    "ZeroProductCertificate",
    "kernel_of_left_mult",
    "is_zero_divisor",
    "is_special_triple",
    "zero_product_characterization",
    "c8_conjugate",
    "o_left",
    "o_right",
    "ortho_decompose",
    "pq_project",
    "principal_angles",
    "quaternion_algebra_of",
]


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of the 16-dimensional coefficient space.

    `basis` is a (dim, 16) array with orthonormal rows; `dim` may be zero.
    """

    basis: NDArray[np.float64]

    def __post_init__(self):
        b = np.array(self.basis, dtype=float, copy=None, ndmin=2)
        if b.size == 0:
            b = np.zeros((0, DIM))
        if b.shape[1] != DIM:
            raise ValueError(f"basis vectors must have length {DIM}")
        k = b.shape[0]
        if k and (k > DIM or not abs(b @ b.T - _EYE[:k, :k]).max() <= _tol.ORTHONORMAL):
            raise ValueError(f"basis is not orthonormal within {_tol.ORTHONORMAL}")
        object.__setattr__(self, "basis", _frozen(b))

    @classmethod
    def from_span(cls, vectors: Iterable) -> "Subspace":
        """Orthonormalize a spanning set (rows, CDElements, or mixtures)."""
        rows = []
        for v in vectors:
            if isinstance(v, CDElement):
                v = v.promote(MAX_LEVEL).coeffs
            rows.append(np.asarray(v, dtype=float))
        if not rows:
            return cls(np.zeros((0, DIM)))
        m = np.vstack(rows)
        u, s, vh = np.linalg.svd(m, full_matrices=False)
        rank = int(np.sum(s > _tol.SPAN_RANK_CUTOFF * s[0]))
        return cls(vh[:rank])

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def projector(self) -> NDArray[np.float64]:
        return self.basis.T @ self.basis

    def project(self, x) -> CDElement:
        v = x.promote(MAX_LEVEL).coeffs if isinstance(x, CDElement) else np.asarray(x, float)
        return CDElement(self.basis.T @ (self.basis @ v))  # zero for dim 0

    def distance(self, x) -> float:
        v = x.promote(MAX_LEVEL).coeffs if isinstance(x, CDElement) else np.asarray(x, float)
        r = v - self.basis.T @ (self.basis @ v)  # `project`, without the element
        return math.sqrt(r @ r)  # np.linalg.norm's formula

    def contains(self, x) -> bool:
        v = x.promote(MAX_LEVEL).coeffs if isinstance(x, CDElement) else np.asarray(x, float)
        return self.distance(v) <= _tol.UNIT_EQ * float(np.linalg.norm(v))

    def complement(self) -> "Subspace":
        if self.dim == 0:
            return Subspace(_EYE)
        u, s, vh = np.linalg.svd(self.basis, full_matrices=True)
        return Subspace(vh[self.dim:])

    def vectors(self) -> list[CDElement]:
        return [CDElement(row) for row in self.basis]


def principal_angles(a: Subspace, b: Subspace) -> NDArray[np.float64]:
    """Principal angles between two subspaces, in radians, ascending.

    Computed from sines (singular values of the smaller basis projected off
    the larger space), which stays accurate near zero where the cosine route
    loses half the digits.  Dimension mismatch contributes pi/2 angles.
    """
    small, large = (a, b) if a.dim <= b.dim else (b, a)
    if small.dim == 0:
        return np.zeros(0)
    resid = small.basis - (small.basis @ large.basis.T) @ large.basis
    sines = np.clip(np.linalg.svd(resid, compute_uv=False), 0.0, 1.0)
    angles = np.sort(np.arcsin(sines))
    extra = abs(a.dim - b.dim)
    if extra:
        angles = np.concatenate([angles, np.full(extra, np.pi / 2)])
    return angles


# ---------------------------------------------------------------------------
# kernels and zero divisors
# ---------------------------------------------------------------------------


def _scaled_left_mult(s: CDElement) -> NDArray[np.float64]:
    """L_s scaled by the power of two of `_pow2_scaled(s)`: the one matrix
    whose SVD decides a rank, so 2^k s gets the answer of s, bit for bit."""
    m = left_mult_matrix(s)
    shift = _pow2_exponent(s.coeffs)
    return np.ldexp(m, -shift) if shift else m


def kernel_of_left_mult(s: CDElement) -> Subspace:
    """Orthonormal basis of {x : s*x = 0}.

    Uses an SVD of `_scaled_left_mult(s)` with relative cutoff KERNEL_SV_CUTOFF
    on the singular values; s = 0 returns the full 16-dimensional space.
    """
    u, sv, vh = np.linalg.svd(_scaled_left_mult(s))
    if sv[0] == 0.0:
        return Subspace(_EYE)
    return Subspace(vh[_null_mask(sv)])


def _null_mask(sv: NDArray[np.float64]) -> NDArray[np.bool_]:
    """The rank rule: singular values (descending) at most KERNEL_SV_CUTOFF of the largest."""
    return sv <= _tol.KERNEL_SV_CUTOFF * sv[0]


def is_zero_divisor(s: CDElement) -> bool:
    """True iff s is nonzero and annihilates some nonzero element on the left."""
    if s.is_zero():
        return False
    return bool(_null_mask(np.linalg.svd(_scaled_left_mult(s), compute_uv=False)).any())


def is_special_triple(i: CDElement, j: CDElement, k: CDElement) -> bool:
    """True iff i, j, k are unit octonions with (ij)k = -i(jk) within UNIT_EQ."""
    for x in (i, j, k):
        if x.level > 3:
            raise ValueError("special triples live in the octonions (level <= 3)")
        if abs(x.norm() - 1.0) > _tol.UNIT_EQ:
            return False
    i, j, k = (x.promote(3) for x in (i, j, k))
    assoc = cd_mul(cd_mul(i, j), k) + cd_mul(i, cd_mul(j, k))
    return assoc.norm() <= _tol.UNIT_EQ


# ---------------------------------------------------------------------------
# zero-product characterization
# ---------------------------------------------------------------------------


class ZeroProductCertificate(NamedTuple):
    """Evidence trail for a (u + v*e8)(c + d*e8) = 0 query.

    `d_formula` is u(vc)/(|u||v|), the only candidate that can close a zero
    product (None when some of u, v, c vanish and the formula is undefined).
    `product_norm` is |direct product| with the d actually tested.
    """

    product_is_zero: bool
    norms_match: bool
    triple_special: bool
    d_matches_formula: bool
    d_formula: CDElement | None
    product_norm: float


def _halves(p: CDElement) -> tuple[CDElement, CDElement]:
    c = p.promote(MAX_LEVEL).coeffs
    return CDElement(c[:8]), CDElement(c[8:])


def _join(u: CDElement, v: CDElement) -> CDElement:
    return CDElement(np.concatenate([u.promote(3).coeffs, v.promote(3).coeffs]))


def zero_product_characterization(
    a: CDElement,
    b: CDElement,
    c: CDElement,
    d: CDElement | None = None,
) -> tuple[bool, ZeroProductCertificate]:
    """Decide whether (a + b*e8)(c + d*e8) = 0, with a checkable certificate.

    With d omitted, the unique candidate d = a(bc)/(|a||b|) is built from the
    characterization and tested.  The characterization verdict (norms match,
    normalized {a, b, c} special, d on formula) is always cross-checked
    against the direct product; a disagreement raises instead of picking a
    side silently.  The decision is made on the factors scaled by powers of
    two, (a, b) by one and (c, d) by another, that put their largest
    coefficient in [0.5, 1), so no norm or product under- or overflows; norms
    and products are compared within UNIT_EQ times the largest scaled norm.
    `d_formula` and `product_norm` are scaled back, and a norm past the float
    range reads as inf.

    Raises ValueError when a + b*e8 = 0 or c + d*e8 = 0 (with d as tested).
    """
    halves = [None if x is None else x.promote(3).coeffs for x in (a, b, c, d)]
    left, right = (_pow2_exponent(np.concatenate([x for x in pair if x is not None]))
                   for pair in (halves[:2], halves[2:]))
    a, b, c, d = (None if x is None else CDElement(np.ldexp(x, -shift))
                  for x, shift in zip(halves, (left, left, right, right)))
    na, nb, nc = a.norm(), b.norm(), c.norm()
    if na == 0.0 and nb == 0.0:
        raise ValueError("left factor a+b*e8 is zero")

    eps = _tol.UNIT_EQ * max(na, nb, nc, d.norm() if d is not None else 0.0)

    d_formula: CDElement | None = None
    if min(na, nb, nc) > 0.0:
        d_formula = cd_mul(a, cd_mul(b, c)) / (na * nb)

    norms_match = abs(na - nb) <= eps and min(na, nb, nc) > eps
    triple_special = False
    if norms_match:
        triple_special = is_special_triple(a / na, b / nb, c / nc)

    if d is None:
        d_test = d_formula if d_formula is not None else CDElement(np.zeros(8))
        d_matches = d_formula is not None
    else:
        d_test = d
        d_matches = d_formula is not None and (d - d_formula).norm() <= eps

    if c.norm() == 0.0 and d_test.norm() == 0.0:
        raise ValueError("right factor c+d*e8 is zero")

    product = cd_mul(_join(a, b), _join(c, d_test))
    product_is_zero = product.norm() <= eps
    with np.errstate(over="ignore"):
        product_norm = float(np.ldexp(product.norm(), left + right))
        if d_formula is not None:
            d_formula = CDElement(np.ldexp(d_formula.coeffs, right))

    predicted = norms_match and triple_special and d_matches
    if predicted != product_is_zero:
        raise ArithmeticError(
            "zero-product characterization disagrees with the direct product "
            f"(predicted {predicted}, product norm {product_norm:.3e})")

    cert = ZeroProductCertificate(
        product_is_zero=product_is_zero,
        norms_match=norms_match,
        triple_special=triple_special,
        d_matches_formula=d_matches,
        d_formula=d_formula,
        product_norm=product_norm,
    )
    return product_is_zero, cert


# ---------------------------------------------------------------------------
# conjugation fixing the octonion part, and the 8+4+4 decomposition
# ---------------------------------------------------------------------------


def o_left(p: CDElement) -> CDElement:
    """Octonion half u of p = u + v*e8."""
    return _halves(p)[0]


def o_right(p: CDElement) -> CDElement:
    """Octonion half v of p = u + v*e8."""
    return _halves(p)[1]


def c8_conjugate(p: CDElement) -> CDElement:
    """u + v*e8 -> u - v*e8 (fixes the octonion block, negates its complement)."""
    c = p.promote(MAX_LEVEL).coeffs.copy()
    c[8:] = -c[8:]
    return CDElement(c)


class OrthoDecomposition(NamedTuple):
    """x = o_part + ker_part + kerc_part, pairwise orthogonal."""

    o_part: CDElement
    ker_part: CDElement
    kerc_part: CDElement


def quaternion_algebra_of(p: CDElement) -> Subspace:
    """H_p = span(1, u, v, uv) for a zero divisor p = u + v*e8, from `_pow2_scaled(p)`."""
    u, v = _halves(CDElement(_pow2_scaled(p.coeffs)))
    return Subspace.from_span([
        CDElement(_EYE[0, :8]),
        u,
        v,
        cd_mul(u.promote(3), v.promote(3)),
    ])


def ortho_decompose(x: CDElement, p: CDElement) -> OrthoDecomposition:
    """Split x along S = O_p (+) ker p (+) ker p^c8 for a zero divisor p.

    O_p = H_p + H_p*e8 where H_p = span(1, u, v, uv).  Raises ValueError when
    p is not a nonzero zero divisor (the sum is orthogonal only then).  Each
    subspace scales p itself, so only the direction of p counts.
    """
    if not is_zero_divisor(p):
        raise ValueError("decomposition requires a nonzero zero divisor")
    h = quaternion_algebra_of(p)
    # H_p basis rows live in the first octonion block; shift copies into the
    # second block to span O_p = H_p + H_p*e8.
    o_rows = list(h.basis) + [np.concatenate([np.zeros(8), row[:8]]) for row in h.basis]
    o_space = Subspace.from_span(o_rows)
    ker = kernel_of_left_mult(p)
    kerc = kernel_of_left_mult(c8_conjugate(p))
    return OrthoDecomposition(
        o_part=o_space.project(x),
        ker_part=ker.project(x),
        kerc_part=kerc.project(x),
    )


# ---------------------------------------------------------------------------
# slice-pair projections
# ---------------------------------------------------------------------------


class PQProjection(NamedTuple):
    """Components of d relative to a pair of points p, q.

    eq_part lies in ker(I_p - I_q) (terms a power series keeps when moving
    from the p-slice to the q-slice), perp_part is its orthocomplement part,
    neg_eq_part lies in ker(I_p + I_q), and pm_part is the remainder
    d - eq_part - neg_eq_part.
    """

    eq_part: CDElement
    perp_part: CDElement
    neg_eq_part: CDElement
    pm_part: CDElement


def pq_project(d: CDElement, p: "WPoint", q: "WPoint") -> PQProjection:
    """Project d onto the kernel decomposition attached to the points p, q.

    With p or q real there is no slice mismatch: eq_part = neg_eq_part = 0
    and perp_part = pm_part = d.  Otherwise eq_part / neg_eq_part are the
    orthogonal projections onto ker(I_p - I_q) / ker(I_p + I_q).
    """
    d16 = d.promote(MAX_LEVEL)
    if p.is_real or q.is_real:
        z = CDElement(np.zeros(DIM))
        return PQProjection(eq_part=z, perp_part=d16, neg_eq_part=z, pm_part=d16)
    ip = p.axis.s
    iq = q.axis.s
    eq = kernel_of_left_mult(ip - iq).project(d16)
    neg = kernel_of_left_mult(ip + iq).project(d16)
    return PQProjection(
        eq_part=eq,
        perp_part=d16 - eq,
        neg_eq_part=neg,
        pm_part=d16 - eq - neg,
    )
