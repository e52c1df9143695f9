"""Shared random generators and reference computations for the test suite."""

import math

import numpy as np

from sedenion import CDElement, one
from sedenion._tol import CURVE_ACCEPT, DEGENERATE, PERP_THRESHOLD

SEED = 20210


def imag_octonion_unit(rng, perp_to=()):
    """Random unit imaginary octonion, Gram-Schmidt'd against given rows."""
    while True:
        v = np.zeros(8)
        v[1:8] = rng.normal(size=7)
        for row in perp_to:
            v = v - (row @ v) / (row @ row) * row
        n = np.linalg.norm(v)
        if n > 1e-6:
            return CDElement(v / n)


def orthonormal_frame(rng):
    i1 = imag_octonion_unit(rng)
    i2 = imag_octonion_unit(rng, [i1.coeffs])
    return i1, i2


def special_triple(rng):
    """Unit imaginary octonions (i1, i2, i3) with i3 outside the quaternion
    algebra spanned by the first two; such triples anti-associate."""
    i1, i2 = orthonormal_frame(rng)
    quat = [one(3).coeffs, i1.coeffs, i2.coeffs, (i1 * i2).coeffs]
    i3 = imag_octonion_unit(rng, quat)
    return i1, i2, i3


def g2_automorphism(rng):
    """16x16 matrix of a seeded automorphism of the sedenions.

    A basic triple (i, j, k) of unit imaginary octonions, k outside the
    quaternion algebra of (i, j), fixes an automorphism of the octonions:
    e1 -> i, e2 -> j, e4 -> k, e3 -> ij, e5 -> ik, e6 -> jk, e7 -> (ij)k.
    It acts the same on both octonion halves of a sedenion (Brown 1967:
    Aut(S) = Aut(O) x S3).
    """
    from sedenion import basis, cd_mul

    i, j, k = special_triple(rng)
    images = {0: one(3), 1: i, 2: j, 4: k}
    for m, (x, y) in ((3, (1, 2)), (5, (1, 4)), (6, (2, 4)), (7, (3, 4))):
        assert cd_mul(basis(x, 3), basis(y, 3)) == basis(m, 3)  # the table's convention
        images[m] = cd_mul(images[x], images[y])
    g = np.column_stack([images[m].promote(3).coeffs for m in range(8)])
    return np.kron(np.eye(2), g)


def random_element(rng, dim=16, scale=1.0):
    return CDElement(scale * rng.normal(size=dim))


def box_kite_diagonals():
    """The 84 zero divisors e_i +- e_j, 1 <= i <= 7, 9 <= j <= 15, j != i + 8.

    The diagonals of de Marrais's 42 assessors ("The 42 assessors and the
    box-kites they fly", 2000), listed from the literature, not the package.
    """
    from sedenion import basis

    return [basis(i, 4) + s * basis(j, 4) for i in range(1, 8)
            for j in range(9, 16) if j != i + 8 for s in (1.0, -1.0)]


def random_zero_divisor(rng):
    """i1 + i2 e8 for an orthonormal imaginary octonion pair."""
    i1, i2 = orthonormal_frame(rng)
    v = np.concatenate([i1.coeffs, i2.coeffs])
    return CDElement(v)


# --- reference companion search and domain report, on CDElement arithmetic ---
#
# The companion search and the radii written with element objects, one product
# per `cd_mul` and every norm by np.linalg.norm.  The package runs the same
# arithmetic on plain arrays; its outputs must match these bit for bit.

def pow2_scaled(v):
    """v times the power of two that puts max|v| in [0.5, 1)."""
    return np.ldexp(v, -math.frexp(float(np.max(np.abs(v))))[1])


def reference_companion(i, c):
    """The companion K of the unit i for the candidate c (an element), or None."""
    from sedenion import SliceUnit, cd_mul, left_mult_matrix

    v = pow2_scaled(c.promote(4).coeffs)
    nc = np.linalg.norm(v)
    if i.sin_alpha < DEGENERATE:
        return None
    d1, d2 = CDElement(v[:8]), CDElement(v[8:])
    n1, n2 = d1.norm(), d2.norm()
    if n1 <= DEGENERATE * nc or n2 <= DEGENERATE * nc:
        return None
    if abs(n1 - n2) > CURVE_ACCEPT * max(n1, n2):
        return None
    if abs(d1.real) > CURVE_ACCEPT * n1 or abs(d2.real) > CURVE_ACCEPT * n2:
        return None
    kappa = -cd_mul(i.jmath, cd_mul(d2, d1.conjugate() / (n1 * n1)))
    kv, jv = kappa.coeffs, i.jmath.coeffs
    if abs(np.linalg.norm(kv) - 1.0) > CURVE_ACCEPT or abs(kv[0]) > CURVE_ACCEPT:
        return None
    if abs(float(np.dot(kv, jv))) > CURVE_ACCEPT:
        return None
    v1 = i.cos_theta * jv - i.sin_theta * kv
    v2 = i.sin_theta * jv + i.cos_theta * kv
    if i.theta + math.pi / 2 < math.pi:
        cos_k, sin_k = -i.sin_theta, i.cos_theta
    else:
        cos_k, sin_k = i.sin_theta, -i.cos_theta
    j8 = cos_k * v1 + sin_k * v2
    out = np.zeros(16)
    out[1:8] = (i.sin_alpha * cos_k) * j8[1:]
    out[8] = i.cos_alpha
    out[9:16] = (i.sin_alpha * sin_k) * j8[1:]
    try:
        k = SliceUnit(CDElement(out))
    except ValueError:
        return None
    if np.linalg.norm(left_mult_matrix(i.s - k.s) @ v) >= CURVE_ACCEPT * nc:
        return None
    return k


def reference_groups(a):
    """(ratio, summed coefficient) of a geometric or gap series, ratios ascending."""
    from sedenion import Lacunary

    if isinstance(a, Lacunary):
        return [(a.ratio, np.asarray(a.coeff))]
    sums = {}
    for coeff, ratio in a.terms:
        sums[ratio] = sums.get(ratio, np.zeros(16)) + np.asarray(coeff)
    return [(r, c) for r, c in sorted(sums.items()) if np.any(c != 0.0)]


def reference_radius(groups, size):
    """The smallest ratio whose scaled coefficient c has size(c) > PERP_THRESHOLD |c|."""
    best = math.inf
    for ratio, coeff in groups:
        c = pow2_scaled(coeff)
        if size(c) > PERP_THRESHOLD * np.linalg.norm(c):
            best = min(best, ratio)
    return best


def reference_table_radius(values, ker=None):
    """The windowed estimate of a table, one value at a time.

    Each value v is scaled by its power of two (`pow2_scaled`); its size is
    math.sqrt(v @ v), or min(ker.distance(v), math.sqrt(v @ v)) with a kernel.
    A value counts when it is zero or its size passes PERP_THRESHOLD times its
    norm; the estimate is 1 / max |a_l|^(1/l) over the back half of the l >= 1
    that count, the root taken before the scale when |a_l| leaves the float range.
    """
    kept = []
    for ell, v in enumerate(map(np.asarray, values)):
        shift = math.frexp(float(np.max(np.abs(v))))[1]
        c = np.ldexp(v, -shift)
        n = math.sqrt(c @ c)
        s = n if ker is None else min(ker.distance(c), n)
        if s > PERP_THRESHOLD * n or not n:
            kept.append((ell, s, shift))
    radius = math.inf
    for ell, s, shift in kept[len(kept) - max(1, len(kept) // 2):]:
        if ell == 0:
            continue
        try:
            root = math.ldexp(s, shift) ** (1.0 / ell)
        except OverflowError:
            if ell == 1:
                radius = min(radius, math.ldexp(1.0 / s, -shift))
                continue
            q, r = divmod(shift, ell)
            root = math.ldexp(s ** (1.0 / ell) * 2.0 ** (r / ell), q)
        if root > 0.0:
            radius = min(radius, 1.0 / root)
    return radius


def reference_report(p, a):
    """(r_a, r_ap, witness, case value) of the domain of a around p."""
    from sedenion import axis_sign, kernel_of_left_mult

    groups = reference_groups(a)
    ra = reference_radius(groups, np.linalg.norm)
    if p.is_real:
        return ra, ra, None, "RealCenter"
    best, witness = ra, None
    k = reference_companion(p.axis, CDElement(groups[0][1]))
    if k is not None:
        if axis_sign(k, p.axis):
            val = ra
        else:
            ker = kernel_of_left_mult(p.axis.s - k.s)
            val = reference_radius(groups, lambda v: np.linalg.norm(v - ker.project(v).coeffs))
        if val > best:
            best, witness = val, k
    return ra, best, witness, "SigmaBallOnly" if witness is None else "HyperIntersection"
