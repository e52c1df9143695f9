import hashlib
from fractions import Fraction

import numpy as np
import pytest

from sedenion import (
    CDElement,
    Subspace,
    basis,
    c8_conjugate,
    cd_mul,
    cd_mul_recursive,
    is_special_triple,
    is_zero_divisor,
    kernel_of_left_mult,
    o_left,
    o_right,
    ortho_decompose,
    parse_element,
    pq_project,
    principal_angles,
    quaternion_algebra_of,
    random_hyper_pair,
    random_slice_unit,
    wpoint,
    wpoint_from,
    SliceUnit,
    zero_product_characterization,
)

from util import (
    SEED,
    box_kite_diagonals,
    imag_octonion_unit,
    orthonormal_frame,
    random_element,
    random_zero_divisor,
    special_triple,
)

# Reference spans for ker(e1 -+ e10), recorded independently of the code.
KER_MINUS_SPAN = ["e4+e15", "e5-e14", "e6+e13", "e7-e12"]
KER_PLUS_SPAN = ["e4-e15", "e5+e14", "e6-e13", "e7+e12"]


def span_of(texts):
    return Subspace.from_span(
        np.stack([parse_element(t).promote(4).coeffs for t in texts]))


# --- kernels -------------------------------------------------------------------


def test_flagship_zero_product_is_exact():
    prod = cd_mul(parse_element("e1-e10").promote(4),
                  parse_element("e4+e15").promote(4))
    assert prod.is_zero()


def test_kernel_of_e1_minus_e10():
    ker = kernel_of_left_mult(parse_element("e1-e10").promote(4))
    assert ker.dim == 4
    assert principal_angles(ker, span_of(KER_MINUS_SPAN)).max() < 1e-10


def test_kernel_of_e1_plus_e10():
    ker = kernel_of_left_mult(parse_element("e1+e10").promote(4))
    assert ker.dim == 4
    assert principal_angles(ker, span_of(KER_PLUS_SPAN)).max() < 1e-10


def test_kernel_members_annihilate(rng):
    for _ in range(20):
        p = random_zero_divisor(rng)
        ker = kernel_of_left_mult(p)
        assert ker.dim == 4
        mix = ker.basis.T @ rng.normal(size=ker.dim)
        assert cd_mul(p, CDElement(mix)).norm() < 1e-10


def test_kernel_of_invertible_is_trivial(rng):
    assert kernel_of_left_mult(random_element(rng, dim=8)).dim == 0
    assert kernel_of_left_mult(basis(0, 4)).dim == 0


def test_kernel_of_zero_is_everything():
    from sedenion import zero
    assert kernel_of_left_mult(zero(4)).dim == 16


def test_zero_is_not_a_zero_divisor():
    # a zero divisor is nonzero by definition, though 0 * x = 0 for every x
    from sedenion import zero
    assert not is_zero_divisor(zero(4)) and not is_zero_divisor(zero(0))


def test_is_zero_divisor_examples(rng):
    assert is_zero_divisor(parse_element("e1-e10").promote(4))
    assert is_zero_divisor(parse_element("e1+e10").promote(4))
    assert not is_zero_divisor(basis(9, 4))
    assert not is_zero_divisor(random_element(rng, dim=8))
    assert not is_zero_divisor(random_element(rng))


def test_zero_divisors_from_any_orthonormal_frame(rng):
    for _ in range(50):
        assert is_zero_divisor(random_zero_divisor(rng))


# --- special triples and the product characterization ----------------------------


def test_special_triple_examples():
    e1, e2, e4 = basis(1, 3), basis(2, 3), basis(4, 3)
    assert is_special_triple(e1, e2, e4)
    # inside a quaternion subalgebra association holds, so not special
    e3 = basis(3, 3)
    assert not is_special_triple(e1, e2, e3)


def test_special_triple_wants_units():
    e1, e2, e4 = basis(1, 3), basis(2, 3), basis(4, 3)
    assert not is_special_triple(2.0 * e1, e2, e4)


def test_special_triple_rejects_sedenions():
    with pytest.raises(ValueError):
        is_special_triple(basis(1, 4), basis(2, 4), basis(4, 4))


def test_random_triples_outside_quaternion_algebra_are_special(rng):
    for _ in range(100):
        i1, i2, i3 = special_triple(rng)
        assert is_special_triple(i1, i2, i3)


def test_flagship_characterization_certificate():
    a, b = basis(1, 3), -basis(2, 3)
    c = basis(4, 3)
    d = basis(7, 3)
    ok, cert = zero_product_characterization(a, b, c, d)
    assert ok
    assert cert.product_is_zero and cert.norms_match
    assert cert.triple_special and cert.d_matches_formula
    assert cert.d_formula == d
    assert cert.product_norm == 0.0


def test_characterization_builds_d_when_omitted(rng):
    for _ in range(100):
        i1, i2, i3 = special_triple(rng)
        s = float(rng.uniform(0.5, 2.0))
        t = float(rng.uniform(0.5, 2.0))
        ok, cert = zero_product_characterization(s * i1, s * i2, t * i3)
        assert ok
        x = CDElement(np.concatenate([(s * i1).coeffs, (s * i2).coeffs]))
        y = CDElement(np.concatenate([(t * i3).coeffs,
                                      cert.d_formula.promote(3).coeffs]))
        assert cd_mul(x, y).norm() < 1e-12


def test_characterization_spots_wrong_d(rng):
    i1, i2, i3 = special_triple(rng)
    ok, cert = zero_product_characterization(i1, i2, i3)
    bad = cert.d_formula + 0.1 * imag_octonion_unit(rng)
    ok2, cert2 = zero_product_characterization(i1, i2, i3, bad)
    assert not ok2
    assert not cert2.d_matches_formula


def test_characterization_spots_norm_mismatch(rng):
    i1, i2, i3 = special_triple(rng)
    ok, cert = zero_product_characterization(2.0 * i1, i2, i3)
    assert not ok
    assert not cert.norms_match


def test_characterization_rejects_zero_factors():
    from sedenion import zero
    with pytest.raises(ValueError):
        zero_product_characterization(zero(3), zero(3), basis(4, 3))
    with pytest.raises(ValueError):
        zero_product_characterization(basis(1, 3), basis(2, 3), zero(3))


def test_characterization_fails_on_non_special_triple():
    # i3 inside the quaternion algebra of (i1, i2): no zero product possible
    ok, cert = zero_product_characterization(basis(1, 3), basis(2, 3),
                                             basis(3, 3))
    assert not ok
    assert not cert.triple_special


# --- subspaces and principal angles ----------------------------------------------


def test_subspace_projector_is_orthogonal(rng):
    sub = span_of(KER_MINUS_SPAN)
    P = sub.projector
    assert np.allclose(P @ P, P, atol=1e-12)
    assert np.allclose(P, P.T, atol=1e-12)
    x = random_element(rng)
    assert sub.contains(sub.project(x))
    assert abs(sub.distance(x) ** 2 + sub.project(x).norm() ** 2
               - x.norm() ** 2) < 1e-9


def test_subspace_complement_dims():
    sub = span_of(KER_MINUS_SPAN)
    comp = sub.complement()
    assert comp.dim == 12
    assert np.abs(sub.basis @ comp.basis.T).max() < 1e-12


def test_subspace_rejects_a_basis_holding_nan():
    with pytest.raises(ValueError, match="not orthonormal"):
        Subspace(np.full((1, 16), np.nan))
    with pytest.raises(ValueError, match="not orthonormal"):
        Subspace(np.vstack([np.eye(16), np.eye(16)[:1]]))


def test_subspaces_compare_by_identity_and_hash():
    # A generated == would compare the basis arrays (ValueError) and a
    # generated hash would hash one (TypeError).
    a, b = (kernel_of_left_mult(parse_element("e1-e10")) for _ in range(2))
    assert a == a and a != b and not a == b
    assert {a: 1, b: 2}[b] == 2 and hash(a) == hash(a)


def test_subspace_rejects_a_basis_that_is_not_orthonormal():
    with pytest.raises(ValueError, match="orthonormal within 1e-10"):
        Subspace(np.ones((2, 16)))
    with pytest.raises(ValueError, match="length 16"):
        Subspace(np.ones((1, 8)))


def test_principal_angles_detect_known_rotation():
    for phi in (1e-7, 1e-4, 0.3, 1.2):
        a = Subspace.from_span(np.eye(16)[1:2])
        row = np.zeros(16)
        row[1], row[2] = np.cos(phi), np.sin(phi)
        b = Subspace.from_span(row[None, :])
        got = principal_angles(a, b)
        assert got.shape == (1,)
        assert abs(got[0] - phi) < 1e-9 * max(1.0, 1.0 / phi) or abs(got[0] - phi) < 1e-12


def test_empty_subspaces():
    empty = Subspace.from_span([])
    assert empty.dim == 0 and empty.basis.shape == (0, 16)
    assert np.array_equal(empty.complement().basis, np.eye(16))
    assert principal_angles(empty, span_of(KER_MINUS_SPAN)).shape == (0,)
    assert principal_angles(span_of(KER_MINUS_SPAN), empty).shape == (0,)


def test_principal_angles_pad_unequal_dimensions_with_right_angles():
    line = Subspace.from_span([basis(1, 4)])
    plane = Subspace.from_span([basis(1, 4), basis(2, 4)])
    for got in (principal_angles(line, plane), principal_angles(plane, line)):
        assert got.shape == (2,) and abs(got[0]) < 1e-12 and got[1] == np.pi / 2


def test_a_subspace_keeps_a_read_only_copy_of_a_writable_array():
    b = np.eye(16)[:2]
    sub = Subspace(b)
    b[0, 0] = 5.0  # the caller's array stays writable and its own
    assert sub.basis[0, 0] == 1.0 and not sub.basis.flags.writeable
    ker = span_of(KER_MINUS_SPAN)
    assert Subspace(ker.basis).basis is ker.basis  # a read-only array is shared


def test_principal_angles_of_identical_spans_vanish():
    sub = span_of(KER_MINUS_SPAN)
    rot = Subspace.from_span(sub.basis[::-1] @ np.eye(16))
    assert principal_angles(sub, rot).max() < 1e-12


# --- octonion split and orthogonal decomposition ----------------------------------


def test_octonion_split_reassembles(rng):
    x = random_element(rng)
    u, v = o_left(x), o_right(x)
    back = np.concatenate([u.coeffs, v.coeffs])
    assert np.array_equal(back, x.promote(4).coeffs)


def test_c8_conjugate_is_an_involution(rng):
    x = random_element(rng)
    assert c8_conjugate(c8_conjugate(x)) == x.promote(4)


def test_quaternion_algebra_of_zero_divisor(rng):
    p = random_zero_divisor(rng)
    h = quaternion_algebra_of(p)
    assert h.dim == 4
    # closed under multiplication
    for _ in range(10):
        a = CDElement(h.basis.T @ rng.normal(size=4))
        b = CDElement(h.basis.T @ rng.normal(size=4))
        assert h.distance(cd_mul(a, b)) < 1e-10


def test_ortho_decompose_parts(rng):
    p = parse_element("e1-e10").promote(4)
    for _ in range(50):
        x = random_element(rng)
        dec = ortho_decompose(x, p)
        total = dec.o_part + dec.ker_part + dec.kerc_part
        assert (total - x.promote(4)).norm() < 1e-9
        # mutually orthogonal parts
        assert abs(dec.o_part.coeffs @ dec.ker_part.coeffs) < 1e-9
        assert abs(dec.o_part.coeffs @ dec.kerc_part.coeffs) < 1e-9
        assert abs(dec.ker_part.coeffs @ dec.kerc_part.coeffs) < 1e-9
        # parts land in the advertised subspaces
        assert cd_mul(p, dec.ker_part).norm() < 1e-9
        assert cd_mul(c8_conjugate(p), dec.kerc_part).norm() < 1e-9


@pytest.mark.parametrize("k", [500, -500, 1000, -1000])
def test_ortho_decompose_depends_only_on_the_direction_of_p(k):
    # The box-kite diagonals as p, scaled by 2^k together with a seeded x:
    # the parts are 2^k times the unit-scale parts, bit for bit while they
    # stay normal.  At 2^-1000 projector dust goes subnormal, so the parts
    # agree to rounding, and they still sum to x (no part is lost).
    def parts(x, p):
        return np.array([part.coeffs for part in ortho_decompose(CDElement(x), CDElement(p))])

    x = np.random.default_rng(SEED).normal(size=16)
    top = np.abs(x).max()
    for p in box_kite_diagonals():
        unit = parts(x, p.coeffs)
        got = parts(np.ldexp(x, k), np.ldexp(p.coeffs, k))
        assert np.abs(np.ldexp(got.sum(axis=0), -k) - x).max() <= 1e-14 * top, str(p)
        if k > -1000:
            assert got.tobytes() == np.ldexp(unit, k).tobytes(), str(p)
        else:
            assert np.abs(np.ldexp(got, -k) - unit).max() <= 1e-15 * top, str(p)
            assert np.abs(got[0]).max() > 0.0, str(p)


@pytest.mark.parametrize("k", [500, -500, 1000, -1000])
def test_every_direction_only_function_scales_its_own_input(k):
    # Called directly on 2^k p, H_p and both rank decisions read the
    # direction of p: H_p keeps its unit-scale basis bit for bit, and
    # is_zero_divisor agrees with the kernel rank on the 84 box-kite
    # diagonals (zero divisors) and on seeded elements and e9 (not).
    rng = np.random.default_rng(SEED)
    others = [basis(9, 4), parse_element("1+e1").promote(4)]
    others += [CDElement(rng.normal(size=16)) for _ in range(6)]
    for p, zd in [(p, True) for p in box_kite_diagonals()] + [(p, False) for p in others]:
        pk = CDElement(np.ldexp(p.coeffs, k))
        assert is_zero_divisor(pk) == (kernel_of_left_mult(pk).dim > 0) == zd, (str(p), k)
        if zd:
            h = quaternion_algebra_of(pk)
            assert h.dim == 4, (str(p), k)
            assert h.basis.tobytes() == quaternion_algebra_of(p).basis.tobytes(), (str(p), k)


def test_ortho_decompose_keeps_its_bits_when_its_subspaces_scale_p():
    # The parts of the 84 box-kite diagonals with a seeded x, both scaled by
    # 2^k for k in {0, +-500, +-1000}, hash to the digest they had when
    # ortho_decompose scaled p itself before building its subspaces.
    x = np.random.default_rng(SEED).normal(size=16)
    h = hashlib.sha256()
    for p in box_kite_diagonals():
        for k in (0, 500, -500, 1000, -1000):
            for part in ortho_decompose(CDElement(np.ldexp(x, k)), CDElement(np.ldexp(p.coeffs, k))):
                h.update(part.coeffs.tobytes())
    assert h.hexdigest() == "dc3625e133518c94028b03b7792c82dd460e437ec6517f0aaed00be92b561cf2"


def test_ortho_decompose_dimensions_8_4_4(rng):
    p = random_zero_divisor(rng)
    ker = kernel_of_left_mult(p)
    kerc = kernel_of_left_mult(c8_conjugate(p))
    assert ker.dim == 4 and kerc.dim == 4
    # the two kernels are mutually orthogonal
    assert np.abs(ker.basis @ kerc.basis.T).max() < 1e-9


def test_ortho_decompose_rejects_non_zero_divisor():
    with pytest.raises(ValueError):
        ortho_decompose(basis(1, 4), basis(9, 4))


def test_c8_kernel_matches_conjugated_kernel(rng):
    # ker(p)^{c8} and ker(p^{c8}) coincide for doubled zero divisors
    for _ in range(50):
        p = random_zero_divisor(rng)
        ker = kernel_of_left_mult(p)
        mapped = np.stack([c8_conjugate(CDElement(row)).coeffs
                           for row in ker.basis])
        target = kernel_of_left_mult(c8_conjugate(p))
        assert principal_angles(Subspace.from_span(mapped), target).max() < 1e-9


# --- pq projections -----------------------------------------------------------------


def test_pq_project_parts_sum_and_land_in_kernels(rng):
    p = wpoint_from(0.3, 1.1, SliceUnit("e1"))
    q = wpoint_from(-0.2, 0.7, SliceUnit("e10"))
    zd_minus = p.axis.s - q.axis.s
    zd_plus = p.axis.s + q.axis.s
    for _ in range(50):
        d = random_element(rng)
        parts = pq_project(d, p, q)
        total = parts.eq_part + parts.perp_part
        assert (total - d.promote(4)).norm() < 1e-9
        assert cd_mul(zd_minus, parts.eq_part).norm() < 1e-9
        assert cd_mul(zd_plus, parts.neg_eq_part).norm() < 1e-9
        back = parts.eq_part + parts.neg_eq_part + parts.pm_part
        assert (back - d.promote(4)).norm() < 1e-9


def test_pq_project_real_center_degenerates(rng):
    p = wpoint("2.0")
    q = wpoint_from(0.0, 1.0, SliceUnit("e3"))
    d = random_element(rng)
    parts = pq_project(d, p, q)
    assert parts.eq_part.is_zero()
    assert parts.neg_eq_part.is_zero()
    assert parts.perp_part == d.promote(4)
    assert parts.pm_part == d.promote(4)


def test_pq_projections_commute_with_plane_multiplications(rng):
    # multiplication by 1, I_p, I_q commutes with the kernel projections
    p = wpoint_from(0.0, 1.0, SliceUnit("e1"))
    q = wpoint_from(0.0, 1.0, SliceUnit("e10"))
    Pm = kernel_of_left_mult(p.axis.s - q.axis.s).projector
    Pp = kernel_of_left_mult(p.axis.s + q.axis.s).projector
    for mat in (np.eye(16), p.axis.matrix, q.axis.matrix):
        assert np.abs(Pm @ mat - mat @ Pm).max() < 1e-9
        assert np.abs(Pp @ mat - mat @ Pp).max() < 1e-9


def test_zero_divisor_test_agrees_with_the_kernel_rank():
    # is_zero_divisor reads singular values only; it applies the same rank
    # rule as kernel_of_left_mult, so the two agree on J1 -+ J2 for hyper and
    # generic pairs of slice units.
    rng = np.random.default_rng(9)
    seen = {True: 0, False: 0}
    for k in range(3000):
        j1, j2 = random_hyper_pair(rng) if k % 2 else (random_slice_unit(rng),
                                                        random_slice_unit(rng))
        for s in (j1.s - j2.s, j1.s + j2.s):
            zd = is_zero_divisor(s)
            assert zd == (kernel_of_left_mult(s).dim > 0)
            seen[zd] += 1
    assert sum(seen.values()) == 6000 and min(seen.values()) > 1000


def _rank_over_q(rows):
    """Rank of a matrix of Fractions by Gaussian elimination over Q."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            if f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _exact_left_rank(s: CDElement) -> int:
    """Rank of L(s), built column by column from exact products s * e_n.

    The coefficients are the floats the SVD sees, read as rationals, and the
    products run through the doubling recursion on Fractions: no numpy.
    """
    from sedenion.algebra import _mul_list

    s = [Fraction(float(c)) for c in s.promote(4).coeffs]
    columns = [_mul_list(s, [Fraction(int(k == n)) for k in range(16)]) for n in range(16)]
    return _rank_over_q(columns)  # the rank of L(s) is that of its transpose


def test_kernel_dimension_matches_the_exact_rank():
    # The SVD cutoff of kernel_of_left_mult against an exact oracle: zero
    # divisors (a scaled one probes the relative cutoff) and non-divisors.
    divisors = [parse_element(t) for t in ("e1-e10", "e1+e10", "e3+e10", "e4+e15",
                                           "0.5e1-0.5e10")]
    divisors.append(1e-7 * parse_element("e1-e10"))
    rng = np.random.default_rng(14)
    others = [parse_element("e1+e2"), parse_element("1+e1")]
    others += [CDElement(rng.integers(-3, 4, size=16).astype(float)) for _ in range(4)]
    for s, dim in [(s, 4) for s in divisors] + [(s, 0) for s in others]:
        rank = _exact_left_rank(s)
        assert kernel_of_left_mult(s).dim == 16 - rank == dim, str(s)


# --- box-kites: integer facts of the sedenion zero divisors ---------------------


def test_box_kites_of_the_42_assessors():
    # de Marrais, "The 42 assessors and the box-kites they fly" (2000): the
    # diagonals e_i +- e_j (1 <= i <= 7, 9 <= j <= 15, j != i + 8) are zero
    # divisors with 4-dimensional annihilators (Moreno 1998); 336 ordered
    # pairs of them multiply to 0, and an assessor {i, j} zero-divides
    # exactly 4 others, which fall into 7 box-kites of 6.  The counts are
    # recorded from the literature, not from the package.
    assessors = [(i, j) for i in range(1, 8) for j in range(9, 16) if j != i + 8]
    diagonals = [(i, j, s) for i, j in assessors for s in (1.0, -1.0)]
    elements = {}
    for i, j, s in diagonals:
        x = basis(i, 4) + s * basis(j, 4)
        assert is_zero_divisor(x) and kernel_of_left_mult(x).dim == 4, (i, j, s)
        elements[i, j, s] = x
    assert len(assessors) == 42 and len(elements) == 84
    zero = [(u, v) for u in diagonals for v in diagonals
            if cd_mul_recursive(elements[u], elements[v]).is_zero()]
    assert len(zero) == 336
    for (i, j, s), (k, l, t) in zero:
        ok, cert = zero_product_characterization(
            basis(i, 3), s * basis(j - 8, 3), basis(k, 3), t * basis(l - 8, 3))
        assert ok and cert.product_norm == 0.0, (i, j, s, k, l, t)
    partners = {a: {v[:2] for u, v in zero if u[:2] == a} for a in assessors}
    assert all(len(p) == 4 and a not in p for a, p in partners.items())
    assert all(a in partners[b] for a in assessors for b in partners[a])  # undirected
    components, seen = [], set()
    for a in assessors:
        if a not in seen:
            todo, part = [a], set()
            while todo:
                b = todo.pop()
                if b not in part:
                    part.add(b)
                    todo += partners[b]
            seen |= part
            components.append(len(part))
    assert sorted(components) == [6] * 7


# --- one relative floor --------------------------------------------------------


def test_every_relative_floor_decides_alike_at_every_power_of_two_scale():
    # Each negligible-value test compares a size with the size it is measured
    # against, so scaling the input by 2^k moves no decision.  Seeded inputs
    # of sizes 10^-20 .. 10^5 put a defect at 10^-11 or 10^-7 of their size
    # (UNIT_EQ is 1e-9), and singular values at 10^-14 or 10^-10 of the
    # largest (SPAN_RANK_CUTOFF is 1e-12), so every floor sees both answers.
    from sedenion import complex_coords

    def on_plane(x, j):
        try:
            complex_coords(CDElement(x), j)
            return True
        except ValueError:
            return False

    rng = np.random.default_rng(SEED)
    ker = kernel_of_left_mult(parse_element("e1+e10"))
    seen = set()
    for case in range(40):
        j = random_slice_unit(rng)
        size = 10.0 ** rng.uniform(-20, 5)
        defect = (1e-11, 1e-7)[case % 2]
        off = rng.normal(size=16)
        off -= off[0] * np.eye(16)[0] + (off @ j.s.coeffs) * j.s.coeffs  # off the plane of j
        off /= np.linalg.norm(off)
        re, im = rng.normal(size=2)
        point = size * np.array([re] + [0.0] * 15) + size * defect * abs(re) * j.s.coeffs
        plane = size * (re * np.eye(16)[0] + im * j.s.coeffs + defect * np.hypot(re, im) * off)
        inside = rng.normal(size=ker.dim) @ ker.basis
        perp = rng.normal(size=16)
        perp -= ker.basis.T @ (ker.basis @ perp)
        kernel = size * (inside + defect * np.linalg.norm(inside) / np.linalg.norm(perp) * perp)
        rows = rng.normal(size=(3, 16))
        rows[2] = rows[:2].T @ rng.normal(size=2) + (1e-14, 1e-10)[case % 2] * rows[2]
        decide = {
            "wpoint": lambda k: wpoint(CDElement(np.ldexp(point, k))).is_real,
            "complex_coords": lambda k: on_plane(np.ldexp(plane, k), j),
            "contains": lambda k: ker.contains(np.ldexp(kernel, k)),
            "from_span": lambda k: Subspace.from_span(np.ldexp(size * rows, k)).dim,
        }
        for name, f in decide.items():
            want = f(0)
            seen.add((name, want))
            assert [f(k) for k in (30, -30, 200, -200)] == [want] * 4, (name, case)
    assert len(seen) == 8, seen  # both answers of every test
    # 1e-9 e10 has re = 0: it lies on the slice e10, however small it is.
    assert not wpoint("0.000000001e10").is_real
    # zd-check's decision on (2^k x)(2^-k y) and (2^k x)(2^k y): the 336 zero
    # products of box-kite diagonals and seeded nonzero ones.
    diagonals = box_kite_diagonals()
    pairs = [(x, y) for x in diagonals for y in diagonals]
    zero = [(x, y) for x, y in pairs if cd_mul_recursive(x, y).is_zero()]
    pairs = zero + [pairs[i] for i in rng.choice(len(pairs), size=64, replace=False)]
    for x, y in pairs:
        want = zero_product_characterization(o_left(x), o_right(x), o_left(y), o_right(y))[1][:4]
        for kx, ky in ((500, 500), (-500, -500), (1000, 1000), (-1000, -1000),
                       (500, -500), (-1000, 1000)):
            xs, ys = CDElement(np.ldexp(x.coeffs, kx)), CDElement(np.ldexp(y.coeffs, ky))
            got = zero_product_characterization(o_left(xs), o_right(xs), o_left(ys), o_right(ys))
            assert got[1][:4] == want, (str(x), str(y), kx, ky)
