"""Output checks that do not call the code they check.

Membership is checked against the two-disk rule evaluated with the radii the
benchmark constructed (as acceptance criterion 4 does); products against
norm identities and the doubling recursion `cd_mul_recursive`, the package's
reference path; kernel ranks against `numpy.linalg.matrix_rank` on
multiplication matrices rebuilt from that recursion.
"""

from __future__ import annotations

import math

import numpy as np

from sedenion import CDElement, cd_mul_recursive

# Half-width of the band around each radius where no verdict is checked.
BAND = 0.005
# Codes shared by expected and observed memberships; 0 means "not scored".
CODE = {"Interior": -1, "Exterior": 1, "Boundary": 0}


def _disk_states(d, radius):
    inside = (d == 0.0) | (d < radius - BAND)
    return np.where(inside, -1, np.where(d > radius + BAND, 1, 0))


def expected_membership(re, im, zp: complex, r_a: float, r2: float | None):
    """-1 Interior, +1 Exterior, 0 inside the band, for points re + i*im.

    `r2` is the reflected-disk radius on the slice, None on the center plane.
    """
    z = np.asarray(re) + 1j * np.asarray(im)
    s1 = _disk_states(np.abs(z - zp), r_a)
    if r2 is None:
        return s1
    s2 = _disk_states(np.abs(z - np.conj(zp)), r2)
    return np.where((s1 > 0) | (s2 > 0), 1, np.where((s1 < 0) & (s2 < 0), -1, 0))


def product(u, v) -> np.ndarray:
    """u*v by the doubling recursion."""
    return cd_mul_recursive(CDElement(u), CDElement(v)).coeffs


def reference_tensor() -> np.ndarray:
    """T[m] = matrix of left multiplication by e_m, from the recursion."""
    eye = np.eye(16)
    t = np.zeros((16, 16, 16))
    for m in range(16):
        for n in range(16):
            t[m, :, n] = product(eye[m], eye[n])
    return t


def left_rank(tensor: np.ndarray, s) -> int:
    return int(np.linalg.matrix_rank(np.tensordot(np.asarray(s), tensor, axes=1),
                                     tol=1e-9))


def check_products(a, b, prod, sample_rows) -> list[str]:
    """Norm identities on every row, the recursion on sampled rows."""
    errors = []
    scale = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
    ratio = np.linalg.norm(prod, axis=1) / scale
    if a.shape[1] <= 8:
        worst = float(np.max(np.abs(ratio - 1.0)))
        if not worst <= 1e-12:
            errors.append(f"octonion norm not multiplicative: {worst:.3g}")
    elif not float(np.max(ratio)) <= math.sqrt(2.0) * (1.0 + 1e-12):
        errors.append(f"sedenion norm ratio above sqrt(2): {np.max(ratio):.17g}")
    for i in sample_rows:
        diff = float(np.max(np.abs(prod[i] - product(a[i], b[i]))))
        if not diff <= 1e-12 * max(1.0, scale[i]):
            errors.append(f"row {i} differs from the recursion by {diff:.3g}")
    return errors
