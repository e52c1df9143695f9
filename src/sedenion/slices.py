"""Slice units, polar coordinates, hyper-solutions, and kernel curves.

A slice unit is a sedenion I with L_I^2 = -id (left multiplication squares to
minus the identity); these are exactly the imaginary units a + b*e8 whose
octonion parts commute, and each spans a complex plane C_I = R + R*I inside
the sedenions.  Every slice unit has unique polar coordinates

    I = sin(alpha)cos(theta)*j + [cos(alpha) + sin(alpha)sin(theta)*j]*e8

with alpha in [0, pi], theta in [0, pi), and j a unit imaginary octonion
(convention (theta, j) = (0, e1) at I = +-e8).  The psi map builds slice
units from an orthonormal imaginary frame (i1, i2):

    psi(alpha, theta, (i1, i2)) uses j = kappa(theta) = cos(theta)i1 + sin(theta)i2,

and for fixed (alpha, frame) the image over theta in [0, pi) is a closed
curve of slice units whose pairwise differences are zero divisors sharing one
common kernel: the kernel curve.  A pair (J1, J2) of distinct slice units
with J1 - J2 a zero divisor is a hyper-solution pair; such pairs are exactly
the pairs lying on a common kernel curve.

Points of the upper half-space W are wrapped as WPoint: q = re + im*I_q with
im >= 0 and I_q a slice unit (real points carry the fixed base slice I0 = e1).
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from .algebra import (
    CDElement,
    DIM,
    MAX_LEVEL,
    _EYE,
    _mul,
    _pow2_exponent,
    _pow2_scaled,
    basis,
    cd_mul,
    left_mult_matrix,
    parse_any,
)
from . import _tol
from .zerodiv import is_zero_divisor, kernel_of_left_mult

__all__ = [
    "SliceUnit",
    "WPoint",
    "HyperSolution",
    "I0",
    "is_slice_unit",
    "polar",
    "psi",
    "from_polar",
    "iota_frame",
    "is_hyper_solution",
    "hyper_solution",
    "cker_membership",
    "cker_curve_point",
    "cker_curve_points",
    "kernel_zeta",
    "find_companion",
    "random_slice_unit",
    "random_hyper_pair",
    "wpoint",
    "wpoint_from",
    "same_unit",
    "axis_sign",
]


def _is_unit(s: CDElement, m: NDArray[np.float64]) -> bool:
    """|s| = 1 and L_s^2 = -id (m = L_s) within UNIT_EQ; a NaN fails both.  `math.hypot`
    reads |s| with no warning where |s|^2 overflows, and stops the test there."""
    return (abs(math.hypot(*s.coeffs.tolist()) - 1.0) <= _tol.UNIT_EQ
            and abs(m @ m + _EYE).max() <= _tol.UNIT_EQ)


def is_slice_unit(x: CDElement) -> bool:
    """True iff left multiplication by x squares to minus the identity."""
    x = x.promote(MAX_LEVEL)
    return _is_unit(x, left_mult_matrix(x))


class SliceUnit:
    """A slice unit with its polar coordinates and multiplication matrix.

    The cosines/sines of alpha and theta are extracted directly from the
    coefficient data (not recomputed from the rounded angles), so canonical
    inputs like e1 or e10 carry exact values such as cos_theta = 0.0; the
    frame recovery in `iota_frame` relies on this to be exact on them.
    """

    __slots__ = ("s", "alpha", "theta", "jmath",
                 "cos_alpha", "sin_alpha", "cos_theta", "sin_theta", "matrix", "_neg", "_hash")

    def __init__(self, s: CDElement | str):
        if isinstance(s, str):
            s = parse_any(s)
        s = s.promote(MAX_LEVEL)
        m = left_mult_matrix(s)
        if not _is_unit(s, m):
            raise ValueError(f"not a slice unit: {s}")
        v = s.coeffs
        u = v[1:8]
        w = v[9:16]
        nu = math.sqrt(u @ u)  # np.linalg.norm's formula
        nw = math.sqrt(w @ w)
        cos_a = float(v[8])
        sin_a = math.hypot(nu, nw)
        alpha = math.atan2(sin_a, cos_a)
        j8 = np.zeros(8)
        if sin_a < _tol.DEGENERATE:
            # +-e8: theta and jmath are conventions, not coordinates.
            j8[1] = 1.0
            cos_t, sin_t = 1.0, 0.0
        elif nw > _tol.DEGENERATE * sin_a:
            j8[1:] = w / nw
            sin_t = nw / sin_a
            cos_t = float(u @ j8[1:]) / sin_a
        else:
            j8[1:] = u / nu
            sin_t = 0.0
            cos_t = nu / sin_a
        cos_t = min(1.0, max(-1.0, cos_t))
        sin_t = min(1.0, max(0.0, sin_t))
        theta = math.atan2(sin_t, cos_t)
        for name, val in zip(self.__slots__, (s, alpha, theta, CDElement(j8),
                                              cos_a, sin_a, cos_t, sin_t, m)):
            object.__setattr__(self, name, val)
        self.matrix.flags.writeable = False

    def __setattr__(self, name, value):
        raise AttributeError("SliceUnit is immutable")

    @property
    def key(self) -> tuple[float, ...]:
        return self.s.key

    def __neg__(self) -> "SliceUnit":
        """-J, built on first use and kept by both units, so -(-J) is J."""
        if not hasattr(self, "_neg"):
            object.__setattr__(self, "_neg", SliceUnit(-self.s))
            object.__setattr__(self._neg, "_neg", self)
        return self._neg

    def __eq__(self, other):
        if not isinstance(other, SliceUnit):
            return NotImplemented
        return self.s == other.s

    def __hash__(self):
        """hash(self.s), kept after first use: a unit keys the slice memos."""
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash(self.s))
            return self._hash

    def __repr__(self):
        return (f"SliceUnit({str(self.s)!r}, alpha={self.alpha:.6g}, "
                f"theta={self.theta:.6g}, jmath={str(self.jmath)!r})")


I0 = SliceUnit(basis(1, level=MAX_LEVEL))


def same_unit(a: SliceUnit, b: SliceUnit) -> bool:
    """Equality of slice units as points of the unit sphere, within UNIT_EQ."""
    return bool(abs(a.s.coeffs - b.s.coeffs).max() <= _tol.UNIT_EQ)


def axis_sign(u: SliceUnit, v: SliceUnit) -> int:
    """+1 when u = v, -1 when u = -v, 0 otherwise (coefficients within UNIT_EQ).

    A nonzero sign means u and v span the same complex plane C_u = C_v.
    """
    if same_unit(u, v):
        return 1
    if abs(u.s.coeffs + v.s.coeffs).max() <= _tol.UNIT_EQ:
        return -1
    return 0


def polar(i: CDElement | SliceUnit) -> tuple[float, float, CDElement]:
    """Polar coordinates (alpha, theta, jmath) of a slice unit.

    Raises ValueError when the argument is not a slice unit.  At +-e8 the
    convention (alpha, 0, e1) is returned.
    """
    unit = i if isinstance(i, SliceUnit) else SliceUnit(i)
    return unit.alpha, unit.theta, unit.jmath


def _octonion_unit(x: CDElement, what: str) -> NDArray[np.float64]:
    if x.level > 3:
        raise ValueError(f"{what} must be an octonion (level <= 3)")
    v = x.promote(3).coeffs
    if not (abs(np.linalg.norm(v) - 1.0) <= _tol.UNIT_EQ and abs(v[0]) <= _tol.UNIT_EQ):
        raise ValueError(f"{what} must be a unit imaginary octonion")
    return v


def _check_frame(i1: CDElement, i2: CDElement) -> tuple[NDArray, NDArray]:
    v1 = _octonion_unit(i1, "frame element i1")
    v2 = _octonion_unit(i2, "frame element i2")
    if abs(float(np.dot(v1, v2))) > _tol.UNIT_EQ:
        raise ValueError("frame elements must be orthogonal")
    return v1, v2


def _assemble(cos_a: float, sin_a: float, cos_t: float, sin_t: float,
              j8: NDArray[np.float64]) -> SliceUnit:
    """Slice unit sin_a*cos_t*j + (cos_a + sin_a*sin_t*j)*e8 from raw parts."""
    out = np.zeros(DIM)
    out[1:8] = (sin_a * cos_t) * j8[1:]
    out[8] = cos_a
    out[9:16] = (sin_a * sin_t) * j8[1:]
    return SliceUnit(CDElement(out))


def from_polar(alpha: float, theta: float, jmath: CDElement) -> SliceUnit:
    """Rebuild the slice unit with the given polar coordinates.

    Inverse of `polar` away from +-e8 (there every (theta, jmath) collapses
    to the same point).  Angles must be canonical: alpha in [0, pi], theta
    in [0, pi).
    """
    if not 0.0 <= alpha <= math.pi + _tol.ALPHA_SLACK:
        raise ValueError(f"alpha out of [0, pi]: {alpha}")
    if not 0.0 <= theta < math.pi:
        raise ValueError(f"theta out of [0, pi): {theta}")
    j8 = _octonion_unit(jmath, "jmath")
    cos_a, sin_a = math.cos(alpha), math.sin(alpha)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    return _assemble(cos_a, sin_a, cos_t, sin_t, j8)


def psi(alpha: float, theta: float, frame: tuple[CDElement, CDElement]) -> SliceUnit:
    """The slice unit psi(alpha, theta, (i1, i2)) with j = cos(theta)i1 + sin(theta)i2.

    The frame must be a pair of orthogonal unit imaginary octonions; alpha is
    clamped to [0, pi] by contract (values outside raise).  psi(0, theta, f)
    is e8 for every theta and frame.
    """
    if not 0.0 <= alpha <= math.pi + _tol.ALPHA_SLACK:
        raise ValueError(f"alpha out of [0, pi]: {alpha}")
    v1, v2 = _check_frame(*frame)
    cos_a, sin_a = math.cos(alpha), math.sin(alpha)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    return _psi_parts(cos_a, sin_a, cos_t, sin_t, v1, v2)


def _psi_parts(cos_a: float, sin_a: float, cos_t: float, sin_t: float,
               v1: NDArray[np.float64], v2: NDArray[np.float64]) -> SliceUnit:
    kappa = cos_t * v1 + sin_t * v2
    return _assemble(cos_a, sin_a, cos_t, sin_t, kappa)


# ---------------------------------------------------------------------------
# hyper-solutions
# ---------------------------------------------------------------------------


def is_hyper_solution(j1: SliceUnit, j2: SliceUnit) -> bool:
    """True iff the distinct pair (J1, J2) has J1 - J2 a zero divisor.

    Raises ValueError when J1 = J2 (the dichotomy needs distinct units).
    """
    if same_unit(j1, j2):
        raise ValueError("hyper-solution test requires distinct slice units")
    return is_zero_divisor(j1.s - j2.s)


def iota_frame(j1: SliceUnit, j2: SliceUnit) -> tuple[CDElement, CDElement, float]:
    """Shared frame (i1, i2) and alpha of a hyper-solution pair.

    Solves the 2x2 system expressing (jmath_1, jmath_2) through the frame at
    angles (theta_1, theta_2); the solve is written out in closed form so
    exact stored cosines (for example on (e1, e10)) stay exact.  Raises for
    J1 = J2 or a slice-solution pair (difference not a zero divisor).
    """
    if not is_hyper_solution(j1, j2):
        raise ValueError("pair is a slice-solution; no shared frame exists")
    det = j1.cos_theta * j2.sin_theta - j2.cos_theta * j1.sin_theta
    if abs(det) < _tol.DEGENERATE:
        raise ValueError("theta coordinates coincide; frame is not determined")
    b1 = j1.jmath.promote(3).coeffs
    b2 = j2.jmath.promote(3).coeffs
    v1 = (j2.sin_theta * b1 - j1.sin_theta * b2) / det
    v2 = (-j2.cos_theta * b1 + j1.cos_theta * b2) / det
    alpha = 0.5 * (j1.alpha + j2.alpha)
    return CDElement(v1), CDElement(v2), alpha


class HyperSolution(NamedTuple):
    """A hyper-solution pair with its shared invariants (alpha, frame)."""

    j1: SliceUnit
    j2: SliceUnit
    alpha: float
    frame: tuple[CDElement, CDElement]


def hyper_solution(j1: SliceUnit, j2: SliceUnit) -> HyperSolution:
    """Validating constructor: pair must be a hyper-solution."""
    i1, i2, alpha = iota_frame(j1, j2)
    return HyperSolution(j1=j1, j2=j2, alpha=alpha, frame=(i1, i2))


def cker_membership(k: SliceUnit, j1: SliceUnit, j2: SliceUnit) -> bool:
    """True iff K lies on the kernel curve of the hyper-solution (J1, J2).

    Decided by annihilation: K is on the curve iff (J1 - K)c = 0 for every c
    in ker(J1 - J2), up to CURVE_ACCEPT in every entry of (J1 - K) times a
    kernel basis.  Raises when (J1, J2) is not a hyper-solution.
    """
    if same_unit(j1, j2):
        raise ValueError("hyper-solution test requires distinct slice units")
    ker = kernel_of_left_mult(j1.s - j2.s)
    if not ker.dim:
        raise ValueError("kernel curve is defined for hyper-solutions only")
    # L_J1 - L_K equals L_{J1 - K} entry for entry (signed coefficients)
    return bool(abs((j1.matrix - k.matrix) @ ker.basis.T).max() <= _tol.CURVE_ACCEPT)


def cker_curve_points(j1: SliceUnit, j2: SliceUnit,
                      thetas: Sequence[float]) -> Iterator[SliceUnit]:
    """Points psi(alpha, theta, frame) of the kernel curve through J1, J2.

    theta ranges over [0, pi); the curve closes up (theta -> pi approaches
    the theta = 0 point).  The thetas are checked and the frame is derived
    here, once; the points are built one at a time as they are read.
    """
    if bad := [t for t in thetas if not 0.0 <= t < math.pi]:
        raise ValueError(f"theta out of [0, pi): {bad[0]}")
    i1, i2, alpha = iota_frame(j1, j2)
    cos_a = 0.5 * (j1.cos_alpha + j2.cos_alpha)
    sin_a = 0.5 * (j1.sin_alpha + j2.sin_alpha)
    v1, v2 = i1.promote(3).coeffs, i2.promote(3).coeffs
    return (_psi_parts(cos_a, sin_a, math.cos(t), math.sin(t), v1, v2) for t in thetas)


def cker_curve_point(j1: SliceUnit, j2: SliceUnit, theta: float) -> SliceUnit:
    """The point of `cker_curve_points` at one theta."""
    return next(cker_curve_points(j1, j2, [theta]))


def kernel_zeta(j1: SliceUnit, j2: SliceUnit) -> list[tuple[CDElement, CDElement]]:
    """Basis pairs (-J1*c, c) of the joint annihilator of the pair map.

    c runs over an orthonormal basis of ker(J1 - J2), so the list is empty
    exactly when a distinct pair is not a hyper-solution.  (For the
    degenerate call J1 = J2 the kernel is the whole space.)
    """
    return [(-cd_mul(j1.s, c), c) for c in kernel_of_left_mult(j1.s - j2.s).vectors()]


def find_companion(i: SliceUnit, c: CDElement) -> SliceUnit | None:
    """A slice unit K != I on a common kernel curve with I and c in ker(I - K).

    Writes c = d1 + d2*e8 and rebuilds the curve data from it: kernel
    elements of (I - K) have d2 = (i1 i2) d1, which pins kappa =
    -jmath*(d2*d1^(-1)) and with it the frame and the companion K at
    theta + pi/2.  All structural checks (equal nonzero imaginary halves,
    kappa a unit orthogonal to jmath) return None on failure, as does the
    final acceptance test |(I - K)c| < CURVE_ACCEPT |c|.

    It runs on the coefficient array of c (halves d1, d2; kappa by `_mul`;
    residual (L_I - L_K) c from the units' matrices, equal to L_{I-K} c).
    Only the direction of c counts, so c is first scaled by a power of two
    (`_pow2_scaled`): a coefficient near either end of the float range gets
    the companion of c * 2**k.  Raises ValueError on c = 0 or non-finite;
    returns None for I = +-e8 (no curve there).
    """
    v = _pow2_scaled(c.promote(MAX_LEVEL).coeffs)
    nc = math.sqrt(v @ v)
    if not 0.0 < nc < math.inf:
        raise ValueError("companion search needs a finite nonzero candidate vector")
    if i.sin_alpha < _tol.DEGENERATE:
        return None
    d1, d2 = v[:8], v[8:]
    n1, n2 = math.sqrt(d1 @ d1), math.sqrt(d2 @ d2)
    if (n1 <= _tol.DEGENERATE * nc or n2 <= _tol.DEGENERATE * nc
            or abs(n1 - n2) > _tol.CURVE_ACCEPT * max(n1, n2)
            or abs(d1[0]) > _tol.CURVE_ACCEPT * n1 or abs(d2[0]) > _tol.CURVE_ACCEPT * n2):
        return None
    d1_inv = d1 / (n1 * n1)  # conj(d1) / |d1|^2: negating after dividing is exact
    d1_inv[1:] = -d1_inv[1:]
    jv = i.jmath.coeffs
    kv = -_mul(jv, _mul(d2, d1_inv))
    if (abs(math.sqrt(kv @ kv) - 1.0) > _tol.CURVE_ACCEPT or abs(kv[0]) > _tol.CURVE_ACCEPT
            or abs(float(kv @ jv)) > _tol.CURVE_ACCEPT):
        return None
    # frame with kappa(theta_I) = jmath, then rotate a quarter turn (mod pi).
    v1 = i.cos_theta * jv - i.sin_theta * kv
    v2 = i.sin_theta * jv + i.cos_theta * kv
    if i.theta + math.pi / 2 < math.pi:
        cos_k, sin_k = -i.sin_theta, i.cos_theta
    else:
        cos_k, sin_k = i.sin_theta, -i.cos_theta
    try:
        k = _psi_parts(i.cos_alpha, i.sin_alpha, cos_k, sin_k, v1, v2)
    except ValueError:
        return None
    r = (i.matrix - k.matrix) @ v
    if math.sqrt(r @ r) >= _tol.CURVE_ACCEPT * nc:
        return None
    return k


# ---------------------------------------------------------------------------
# random sampling
# ---------------------------------------------------------------------------


def _random_frame(rng: np.random.Generator) -> tuple[NDArray, NDArray]:
    while True:
        a = rng.normal(size=7)
        b = rng.normal(size=7)
        na = np.linalg.norm(a)
        if na < _tol.SAMPLE_MIN_NORM:
            continue
        a = a / na
        b = b - np.dot(a, b) * a
        nb = np.linalg.norm(b)
        if nb < _tol.SAMPLE_MIN_NORM:
            continue
        b = b / nb
        return np.concatenate([[0.0], a]), np.concatenate([[0.0], b])


def random_slice_unit(rng) -> SliceUnit:
    """Uniform-angle random slice unit: alpha in [0,pi], theta in [0,pi)."""
    rng = np.random.default_rng(rng)
    alpha = rng.uniform(0.0, math.pi)
    theta = rng.uniform(0.0, math.pi)
    v1, v2 = _random_frame(rng)
    return _psi_parts(math.cos(alpha), math.sin(alpha),
                      math.cos(theta), math.sin(theta), v1, v2)


def random_hyper_pair(rng) -> tuple[SliceUnit, SliceUnit]:
    """Random hyper-solution pair: shared (alpha, frame), distinct thetas.

    Degenerate draws (sin(alpha) or sin(theta1 - theta2) below
    SAMPLE_MIN_SIN) are resampled so the pair is numerically workable for
    frame recovery.
    """
    rng = np.random.default_rng(rng)
    while True:
        alpha = rng.uniform(0.0, math.pi)
        if math.sin(alpha) >= _tol.SAMPLE_MIN_SIN:
            break
    v1, v2 = _random_frame(rng)
    t1 = rng.uniform(0.0, math.pi)
    while True:
        t2 = rng.uniform(0.0, math.pi)
        if abs(math.sin(t1 - t2)) >= _tol.SAMPLE_MIN_SIN:
            break
    cos_a, sin_a = math.cos(alpha), math.sin(alpha)
    j1 = _psi_parts(cos_a, sin_a, math.cos(t1), math.sin(t1), v1, v2)
    j2 = _psi_parts(cos_a, sin_a, math.cos(t2), math.sin(t2), v1, v2)
    return j1, j2


# ---------------------------------------------------------------------------
# points of the upper half-space W
# ---------------------------------------------------------------------------


class WPoint:
    """A point q = re + im*axis with im >= 0; real points sit on the base slice I0.

    The constructor puts each point in that one form: a negative im flips onto
    the kept -axis, im == 0.0 (-0.0 too) is stored as 0.0 on I0, a NaN im
    stays.  `value` is built on first use unless passed in; the hash is kept.
    """

    __slots__ = ("_value", "re", "im", "axis", "_hash")

    def __init__(self, re: float, im: float, axis: SliceUnit,
                 value: CDElement | None = None):
        if im < 0.0:
            im, axis = -im, -axis
        elif im == 0.0:
            im, axis = 0.0, I0
        set_ = object.__setattr__
        if value is not None:
            set_(self, "_value", value)
        set_(self, "re", re)
        set_(self, "im", im)
        set_(self, "axis", axis)

    def __setattr__(self, name, value):
        raise AttributeError("WPoint is immutable")

    @property
    def is_real(self) -> bool:
        return self.im == 0.0

    @property
    def value(self) -> CDElement:
        try:
            return self._value
        except AttributeError:
            e0 = _EYE[0]
            v = self.re * e0 if self.is_real else self.re * e0 + self.im * self.axis.s.coeffs
            object.__setattr__(self, "_value", CDElement(v))
            return self._value

    @property
    def z(self) -> complex:
        return complex(self.re, self.im)

    @property
    def key(self) -> tuple:
        return (self.re, self.im, self.axis.key)

    def __eq__(self, other):
        if not isinstance(other, WPoint):
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash(self.key))
            return self._hash

    def __repr__(self):
        return f"WPoint({str(self.value)!r}, z={self.z})"


def wpoint(value: CDElement | str) -> WPoint:
    """Wrap a sedenion as a point of W; raises when it lies on no slice.

    The imaginary part must be a positive multiple of a slice unit (or zero,
    giving a real point on the base slice I0, within UNIT_EQ * |re|).
    Raises on coefficients holding inf or NaN, or |im| past the float range;
    |im| is read through `_pow2_scaled`, so its square never overflows.
    """
    value = parse_any(value).promote(MAX_LEVEL)
    v = value.coeffs
    re = float(v[0])
    imvec = v.copy()
    imvec[0] = 0.0
    shift = _pow2_exponent(imvec)
    unit = np.ldexp(imvec, -shift)  # `_pow2_scaled(imvec)`: its norm cannot overflow
    n = float(np.linalg.norm(unit))
    with np.errstate(over="ignore"):
        im = float(np.ldexp(n, shift))
    if not math.isfinite(re + im):
        raise ValueError("point coefficients and norm must be finite")
    if im <= _tol.UNIT_EQ * abs(re):
        return WPoint(re, 0.0, I0, value)
    return WPoint(re, im, SliceUnit(CDElement(unit / n)), value)


def wpoint_from(re: float, im: float, axis: SliceUnit) -> WPoint:
    """The point re + im*axis, in the form of `WPoint` (im >= 0, real on I0)."""
    return WPoint(re, im, axis)
