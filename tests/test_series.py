"""Radii, domain membership, star polynomials, and series evaluation."""

import decimal
import math
import tracemalloc
import warnings
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from sedenion import (
    CDElement,
    Domain,
    DomainCase,
    GeometricSum,
    I0,
    Lacunary,
    Membership,
    SliceUnit,
    TableSeq,
    Verdict,
    WPoint,
    axis_sign,
    cd_mul,
    cker_curve_point,
    complex_embed,
    convergence_scan,
    demo_sequence,
    domain,
    domain_contains,
    domain_report,
    evaluate_points,
    evaluate_series,
    find_companion,
    hyper_sigma_contains,
    hyper_solution,
    is_hyper_solution,
    kernel_of_left_mult,
    parse_element,
    polar_grid,
    psi,
    radius_Ra,
    radius_RapJ,
    radius_Rap,
    random_hyper_pair,
    random_slice_unit,
    same_unit,
    seq_from_json,
    seq_to_json,
    sigma_contains,
    wpoint,
    wpoint_from,
)

from util import (
    PERP_THRESHOLD,
    Polynomial,
    eval_poly,
    g2_automorphism,
    imag_octonion_unit,
    pow2_scaled,
    reference_companion,
    reference_report,
    reference_table_radius,
    star_mul,
    star_pow_center,
)

E1 = SliceUnit("e1")
E10 = SliceUnit("e10")
C2 = parse_element("e4+e15").promote(4)


def center():
    return wpoint("e1")


# ---------------------------------------------------------------------------
# coefficient sequences
# ---------------------------------------------------------------------------


def test_geometric_terms_sum_the_ratio_parts():
    a = demo_sequence()
    for ell in (0, 1, 5):
        expect = np.zeros(16)
        expect[0] = 3.0 ** (-ell)
        expect[4] = expect[15] = 2.0 ** (-ell)
        assert np.allclose(a.term(ell), expect, atol=0)


def test_lacunary_terms_live_on_powers_of_two():
    a = Lacunary.of("e4+e15", 2.0)
    assert np.array_equal(a.term(3), np.zeros(16))
    assert np.array_equal(a.term(0), np.zeros(16))
    t4 = a.term(4)
    assert t4[4] == t4[15] == 2.0 ** -4 and np.count_nonzero(t4) == 2


def test_terms_past_the_float_range_saturate():
    # 1e-10 ** -32 = 1e320 leaves the float range: the components such a
    # power reaches are +-inf, signed by the largest power, the others stay
    # finite or 0.0, and nothing raises, warns or turns NaN.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lac = Lacunary.of("e4-e15", 1e-10).term(32)
        geo = GeometricSum.of([("e4+e15+e6", 1e-10), ("e3-e4", 1e-11),
                               ("e2", 2.0), ("-e6", 1e-10)]).term(32)
    want = np.zeros(16)
    want[4], want[15] = math.inf, -math.inf
    np.testing.assert_array_equal(lac, want)
    want = np.zeros(16)
    want[2] = 2.0 ** -32
    want[3], want[4], want[15] = math.inf, -math.inf, math.inf
    np.testing.assert_array_equal(geo, want)
    # a finite power keeps the old arithmetic bit for bit
    a = GeometricSum.of([("e4+e15", 0.3), ("-0.7e4+e3", 0.7)])
    for ell in (0, 1, 7, 580):
        old = np.zeros(16)
        for coeff, ratio in a.terms:
            old += np.asarray(coeff) * ratio ** (-ell)
        assert a.term(ell).tobytes() == old.tobytes()
    lac = Lacunary.of("-e4+e15", 0.3)
    for ell in (1, 2, 512):
        old = np.asarray(lac.coeff) * lac.ratio ** (-ell)
        assert lac.term(ell).tobytes() == old.tobytes()


def test_table_terms_vanish_beyond_the_table():
    a = TableSeq.of(["1", "2e1"])
    assert a.term(1)[1] == 2.0
    assert np.array_equal(a.term(2), np.zeros(16))


def test_nonpositive_ratios_are_rejected():
    with pytest.raises(ValueError):
        GeometricSum.of([("1", 0.0)])
    with pytest.raises(ValueError):
        GeometricSum.of([("1", -2.0)])
    with pytest.raises(ValueError):
        Lacunary.of("1", 0.0)


def test_infinite_ratios_are_rejected():
    # JSON reads 1e400 and Infinity as inf, which is positive but no ratio:
    # r^-l would be 0 for every l >= 1.
    for text in ('{"kind":"lacunary","coeff":"e1","ratio":1e400}',
                 '{"kind":"lacunary","coeff":"e1","ratio":Infinity}',
                 '{"kind":"geometric","terms":[{"coeff":"1","ratio":2},'
                 '{"coeff":"e1","ratio":1e400}]}'):
        with pytest.raises(ValueError, match="must be finite and strictly positive"):
            seq_from_json(text)
    for ratio in (math.inf, math.nan):
        with pytest.raises(ValueError):
            GeometricSum.of([("1", ratio)])
        with pytest.raises(ValueError):
            Lacunary.of("1", ratio)
    assert Lacunary.of("e1", 1.7976931348623157e308).ratio == 1.7976931348623157e308


def test_sequence_json_roundtrips():
    for a in (demo_sequence(), Lacunary.of("e4+e15", 2.0),
              TableSeq.of(["1", "2e1", "0.25e4"])):
        assert seq_from_json(seq_to_json(a)) == a
    import json
    assert seq_from_json(json.dumps(seq_to_json(demo_sequence()))) == demo_sequence()


def test_unknown_sequence_kind_is_rejected():
    with pytest.raises(ValueError):
        seq_from_json({"kind": "fourier"})


def test_only_sequence_specs_go_to_json():
    with pytest.raises(TypeError, match="not a sequence spec: dict"):
        seq_to_json({"kind": "table", "values": ["1"]})


# ---------------------------------------------------------------------------
# star polynomials
# ---------------------------------------------------------------------------


def test_star_mul_on_constants_is_the_algebra_product(rng):
    for _ in range(20):
        x = CDElement(rng.normal(size=16))
        y = CDElement(rng.normal(size=16))
        prod = star_mul(Polynomial((x,)), Polynomial((y,)))
        assert prod.degree == 0
        assert np.allclose(prod.coeffs[0].coeffs, cd_mul(x, y).coeffs)


def test_star_mul_identity_and_zero():
    one = Polynomial.of(["1"])
    p = Polynomial.of(["e1", "2+e10", "e4+e15"])
    assert star_mul(p, one) == p
    assert star_mul(one, p) == p
    assert star_mul(p, Polynomial(())).degree == -1


def test_polynomials_drop_trailing_zero_coefficients():
    # (e1 - e10)(e4 + e15) = 0, so this product of two nonzero polynomials
    # is the zero polynomial: no coefficient, degree -1, printed as 0.
    p = Polynomial.of(["0", "e1-e10"])
    assert p.degree == 1
    prod = star_mul(p, Polynomial.of(["e4+e15"]))
    assert prod.coeffs == () and prod.degree == -1 and str(prod) == "0"
    assert Polynomial.of(["1", "e1", "0", "0"]).degree == 1
    assert str(Polynomial.of(["1", "e1", "0"])) == "q^0: 1 | q^1: e1"


def test_star_mul_is_not_associative():
    # constants reproduce the algebra associator: (e1 e2) e9 = -e10 but
    # e1 (e2 e9) = +e10
    p1 = Polynomial.of(["e1"])
    p2 = Polynomial.of(["e2"])
    p3 = Polynomial.of(["e9"])
    left = star_mul(star_mul(p1, p2), p3)
    right = star_mul(p1, star_mul(p2, p3))
    assert left != right
    assert np.array_equal(left.coeffs[0].coeffs,
                          -parse_element("e10").promote(4).coeffs)
    assert np.array_equal(right.coeffs[0].coeffs,
                          parse_element("e10").promote(4).coeffs)


def test_star_square_about_a_basis_center_is_exact():
    poly = star_pow_center(wpoint("e1"), 2)
    # (q - e1)^{*2} = q^2 - 2 e1 q + e1^2 and e1^2 = -1
    assert poly.degree == 2
    assert np.array_equal(poly.coeffs[0].coeffs,
                          -parse_element("1").promote(4).coeffs)
    assert np.array_equal(poly.coeffs[1].coeffs,
                          -2.0 * parse_element("e1").promote(4).coeffs)
    assert np.array_equal(poly.coeffs[2].coeffs,
                          parse_element("1").promote(4).coeffs)


def test_star_powers_zero_and_one():
    p = wpoint("0.5+0.5e3")
    assert star_pow_center(p, 0) == Polynomial.of(["1"])
    lin = star_pow_center(p, 1)
    assert lin.degree == 1
    assert np.allclose(lin.coeffs[0].coeffs, -p.value.coeffs)
    with pytest.raises(ValueError):
        star_pow_center(p, -1)


def test_binomial_star_power_equals_iterated_multiplication(rng):
    from sedenion import random_slice_unit

    for _ in range(5):
        axis = random_slice_unit(rng)
        p = wpoint_from(rng.normal(), abs(rng.normal()) + 0.1, axis)
        linear = Polynomial((-p.value, parse_element("1")))
        acc = Polynomial.of(["1"])
        for ell in range(1, 7):
            acc = star_mul(acc, linear)
            direct = star_pow_center(p, ell)
            assert direct.degree == acc.degree == ell
            for c, d in zip(direct.coeffs, acc.coeffs):
                assert np.allclose(c.coeffs, d.coeffs, atol=1e-10)


def test_large_star_power_falls_back_consistently():
    # at ell = 70 the float binomials are rounded; coefficients must still be
    # the complex binomials through the center axis
    p = wpoint("0.6+0.8e1")
    poly = star_pow_center(p, 70)
    assert poly.degree == 70
    z = -p.z
    for j in (0, 35, 70):
        binom = math.comb(70, 70 - j)
        expect = complex_embed(binom * z ** (70 - j), p.axis.s).coeffs
        got = poly.coeffs[j].coeffs
        assert np.linalg.norm(got - expect) <= 1e-9 * max(1.0, np.linalg.norm(expect))


def test_star_power_evaluates_to_the_complex_power_on_the_center_slice(rng):
    p = center()
    for _ in range(10):
        q = wpoint_from(rng.normal(), abs(rng.normal()), E1)
        ell = int(rng.integers(0, 9))
        value = eval_poly(star_pow_center(p, ell), q)
        expect = complex_embed((q.z - p.z) ** ell, E1.s)
        assert np.linalg.norm(value.coeffs - expect.coeffs) < 1e-9


def test_kernel_vectors_equalize_star_monomials_across_the_pair(rng):
    # with c in ker(I - J) the monomial coefficients (q - p_I)^{*l} c and
    # (q - p_J)^{*l} c agree, which is what lets the reflected disk grow
    from sedenion import kernel_of_left_mult

    pairs = [(E1, E10)]
    from sedenion import random_hyper_pair
    pairs += [random_hyper_pair(rng) for _ in range(3)]
    for j1, j2 in pairs:
        ker = kernel_of_left_mult(j1.s - j2.s)
        c = ker.project(CDElement(rng.normal(size=16)))
        if np.linalg.norm(c.coeffs) < 1e-6:
            continue
        re, im = 0.3, 0.7
        pi = wpoint_from(re, im, j1)
        pj = wpoint_from(re, im, j2)
        for ell in (1, 2, 5):
            mi = star_mul(star_pow_center(pi, ell), Polynomial((c,)))
            mj = star_mul(star_pow_center(pj, ell), Polynomial((c,)))
            assert mi.degree == mj.degree
            for ci, cj in zip(mi.coeffs, mj.coeffs):
                assert np.linalg.norm(ci.coeffs - cj.coeffs) < 1e-9


def test_multiplication_operators_intertwine_across_a_slice_pair(rng):
    # with Z_K = x Id + y M_K the four exchange identities that drive the
    # two-channel evaluation; signs are part of the contract
    from sedenion import random_slice_unit

    eye = np.eye(16)
    worst = 0.0
    for _ in range(100):
        mi = random_slice_unit(rng).matrix
        mj = random_slice_unit(rng).matrix
        x, y = rng.normal(size=2)
        zi = x * eye + y * mi
        zj = x * eye + y * mj
        zjn = x * eye - y * mj
        checks = (
            ((eye - mj @ mi) @ zi, zj @ (eye - mj @ mi)),
            ((eye + mj @ mi) @ zi, zjn @ (eye + mj @ mi)),
            ((mj - mi) @ zi, zjn @ (mj - mi)),
            ((mj + mi) @ zi, zj @ (mj + mi)),
        )
        for lhs, rhs in checks:
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    assert worst < 1e-12


# ---------------------------------------------------------------------------
# radii
# ---------------------------------------------------------------------------


def test_slice_radius_is_the_smallest_ratio():
    assert radius_Ra(demo_sequence()) == 2.0
    assert radius_Ra(GeometricSum.of([("1", 3.0)])) == 3.0
    assert radius_Ra(Lacunary.of("e4+e15", 1.5)) == 1.5
    assert radius_Ra(GeometricSum(())) == math.inf


def test_cancelling_ratio_groups_do_not_shrink_the_radius():
    a = GeometricSum.of([("e4+e15", 2.0), ("-e4-e15", 2.0), ("1", 3.0)])
    assert radius_Ra(a) == 3.0
    assert radius_Rap(a, center()) == (3.0, None)


def test_directional_radius_fixtures():
    a = demo_sequence()
    p = center()
    assert radius_RapJ(a, p, E10) == 3.0
    assert radius_RapJ(a, p, -E10) == 2.0
    assert radius_RapJ(a, p, SliceUnit("e3")) == 2.0
    assert radius_RapJ(a, p, E1) == 2.0
    assert radius_RapJ(a, p, SliceUnit("-e1")) == 2.0
    assert radius_RapJ(a, wpoint("2"), E10) == 2.0


def test_directional_radius_is_infinite_inside_the_kernel():
    a = Lacunary.of("e4+e15", 2.0)
    assert radius_RapJ(a, center(), E10) == math.inf
    assert radius_RapJ(a, center(), SliceUnit("e3")) == 2.0


def test_directional_radius_is_constant_along_the_kernel_curve():
    a = demo_sequence()
    p = center()
    for theta in np.linspace(0.1, math.pi - 0.1, 50):
        k = cker_curve_point(E1, E10, float(theta))
        assert radius_RapJ(a, p, k) == 3.0


def test_directional_radius_takes_exactly_two_values(rng):
    from sedenion import random_slice_unit

    a = demo_sequence()
    p = center()
    seen = set()
    for _ in range(100):
        seen.add(radius_RapJ(a, p, random_slice_unit(rng)))
    assert seen <= {2.0, 3.0}


def test_reflected_radius_agrees_with_the_surviving_channel_images(rng):
    # Two routes to R_a^{p,J}: radius_RapJ projects each coefficient off the
    # SVD kernel of I_p - J; evaluation keeps the ratio groups whose C_minus
    # image survives the 1e-13 filter, and C_plus of J is C_minus of -J.  The
    # smallest kept ratio is the radius for kernel vectors, exact or pushed
    # off the kernel by a relative epsilon below CHANNEL_DUST or above
    # 10 * PERP_THRESHOLD.  Pushed in between, evaluation may carry what the
    # radius reads as inside the kernel, but never less than the radius with
    # its floor lowered to CHANNEL_DUST, the bound membership calls Interior
    # against.
    from sedenion import kernel_of_left_mult, random_hyper_pair, random_slice_unit
    from sedenion._tol import CHANNEL_DUST
    from sedenion.series import _channels, _geometric_blocks, _reflected_radius

    seen = Counter()
    for n in range(400):
        if n % 2:
            j1, j2 = random_slice_unit(rng), random_slice_unit(rng)
        else:
            j1, j2 = random_hyper_pair(rng)
        j2 = j2 if rng.uniform() < 0.5 else -j2  # kernel vectors ride C_minus or C_plus
        p = wpoint_from(float(rng.uniform(-1, 1)), float(rng.uniform(0.5, 1.5)), j1)
        kernels = {False: kernel_of_left_mult(j1.s - j2.s), True: kernel_of_left_mult(j1.s + j2.s)}
        pairs, banded = [], set()
        for ratio in rng.choice([1.5, 2.0, 3.0, 5.0], size=rng.integers(1, 4),
                                replace=False):
            plus = bool(rng.uniform() < 0.5)
            ker = kernels[plus]
            c = rng.normal(size=16)
            if ker.dim and rng.uniform() < 0.7:
                c = rng.normal(size=ker.dim) @ ker.basis
                zone = "exact"
                if rng.uniform() < 0.5:
                    eps = 10.0 ** rng.uniform(-14, -8)
                    push = rng.normal(size=16)
                    push -= ker.project(push).coeffs
                    c = c + eps * np.linalg.norm(c) * push / np.linalg.norm(push)
                    zone = ("dust" if eps < CHANNEL_DUST else "counted"
                            if eps > 10 * PERP_THRESHOLD else "band")
                    if zone == "band":
                        banded.add(plus)
                seen[plus, zone] += 1
            pairs.append((CDElement(c), float(ratio)))
        a = Lacunary.of(*pairs[0]) if len(pairs) == 1 else GeometricSum.of(pairs)
        q = wpoint_from(0.3, 1.0, j2)
        channels, _ = _geometric_blocks(a, *_channels(q, p))
        for plus, j in ((False, j2), (True, -j2)):
            riding = min((ratio for on_plus, ratio in channels if on_plus is plus),
                         default=math.inf)
            radius, inner = _reflected_radius(a, p.axis, j, radius_Ra(a))
            assert radius == radius_RapJ(a, p, j)
            assert inner <= riding <= radius, (n, plus)
            if plus in banded:
                seen["band", riding < radius] += 1
            else:
                assert inner == riding == radius, (n, plus)
    assert len(seen) == 10 and min(seen.values()) > 4, seen


def test_reflected_radius_is_never_below_the_slice_radius():
    # R_a^{p,J} >= R_a bit for bit, through the disks of a Domain and through
    # radius_RapJ, so a real point (as far from z_p as from conj(z_p)) is
    # never decided by the reflected disk.  Tables whose values are
    # orthogonal to the kernel have dist(a_l, ker) = |a_l| up to rounding,
    # which can put the computed distance an ulp above the norm.  A table
    # whose late values lie in the kernel counts fewer l than R_a reads, and
    # its window starts earlier: [1, 3e2, k, k] reads 1/3 there, below R_a.
    rng = np.random.default_rng(2121)
    checked = Counter()
    for n in range(30):
        j1, j2 = random_hyper_pair(rng)
        p = wpoint_from(float(rng.uniform(-1, 1)), float(rng.uniform(0.5, 1.5)), j1)
        ker = kernel_of_left_mult(j1.s - j2.s)
        kv = rng.normal(size=ker.dim) @ ker.basis
        g = rng.normal(size=16)
        perp = g - ker.basis.T @ (ker.basis @ g)
        vals = rng.normal(size=(6, 16))
        orth = vals - (vals @ ker.basis.T) @ ker.basis
        seqs = (GeometricSum.of([("1", 3.0), (CDElement(kv), 2.0)]),
                GeometricSum.of([(CDElement(perp), 2.0), (CDElement(kv), 1.5)]),
                Lacunary.of(CDElement(kv), 2.0), Lacunary.of(CDElement(g), 2.0),
                TableSeq.of([CDElement(v) for v in orth]),
                TableSeq.of([CDElement(v) for v in vals]),
                TableSeq.of(["1"] + [CDElement(kv * 0.5 ** k + perp * 1e-3) for k in range(5)]),
                TableSeq.of(["1", "3e2", CDElement(kv), CDElement(kv)]))
        slices = (j2, -j2, cker_curve_point(j1, j2, float(rng.uniform(0.2, 2.9))),
                  random_slice_unit(rng), I0, -I0)
        for a in seqs:
            dom, ra = Domain(p, a), radius_Ra(a)
            for j in slices:
                r2, r2_in = dom.disks(j)[3:]
                assert r2 >= r2_in >= dom.report.r_a == ra, (n, a, j)
                assert radius_RapJ(a, p, j) >= ra, (n, a, j)
                checked[type(a).__name__, radius_RapJ(a, p, j) > ra] += 1
    assert len(checked) == 6, checked  # every kind, at and above R_a


def test_supremum_radius_with_witness():
    a = demo_sequence()
    rap, witness = radius_Rap(a, center())
    assert rap == 3.0
    assert witness is not None
    assert np.array_equal(witness.s.coeffs, parse_element("e10").promote(4).coeffs)
    assert is_hyper_solution(E1, witness)


def test_supremum_radius_sampled_over_all_hyper_partners(rng):
    # randomized oracle: R_a^p is the max of R_a^{p,K} over units K forming
    # a hyper pair with the center axis; partners of e1 are psi(pi/2, t, (e1, kappa))
    from sedenion import basis

    a = demo_sequence()
    p = center()
    rap, witness = radius_Rap(a, p)
    e1 = basis(1, level=3)
    values = []
    for n in range(9900):
        kappa = imag_octonion_unit(rng, perp_to=(e1.coeffs,))
        theta = float(rng.uniform(0.05, math.pi - 0.05))
        k = psi(math.pi / 2, theta, (e1, kappa))
        if n % 500 == 0:
            assert is_hyper_solution(E1, k)
        values.append(radius_RapJ(a, p, k))
    e2 = basis(2, level=3)
    for theta in np.linspace(0.05, math.pi - 0.05, 100):
        k = psi(math.pi / 2, float(theta), (e1, e2))
        values.append(radius_RapJ(a, p, k))
    assert set(values) <= {2.0, 3.0}
    assert max(values) == rap == 3.0
    assert radius_RapJ(a, p, witness) == 3.0

    # The two-radius theorem over many centers: seeded hyper centers on J1,
    # each with {1 at ratio 3, c at ratio 2}, c a unit vector of ker(J1 - J2)
    # (a generic one in the first case), at three positions on the slice of
    # J1.  radius_RapJ builds its own kernel per partner and reads no memo,
    # so it checks by another route that R_a^p reads the center only
    # through its slice.
    from sedenion.slices import cker_curve_points

    rng = np.random.default_rng(2902)
    for case in range(5):
        j1, j2 = random_hyper_pair(rng)
        ker = kernel_of_left_mult(j1.s - j2.s)
        c = rng.normal(size=ker.dim) @ ker.basis if case else rng.normal(size=16)
        a = GeometricSum.of([("1", 3.0), (CDElement(c / np.linalg.norm(c)), 2.0)])
        ra = radius_Ra(a)
        partners = list(cker_curve_points(j1, j2, rng.uniform(0.0, math.pi, size=200).tolist()))
        raps = set()
        for _ in range(3):
            p = wpoint_from(float(rng.uniform(-1, 1)), float(rng.uniform(0.5, 1.5)), j1)
            rap, witness = radius_Rap(a, p)
            values = {radius_RapJ(a, p, k) for k in partners}
            assert values <= {ra, rap} and max(values) == rap, (case, values)
            assert witness is None or radius_RapJ(a, p, witness) == rap
            raps.add(rap)
        assert raps == ({3.0} if case else {ra}), case


def test_domains_and_evaluation_are_equivariant_under_g2():
    # An automorphism g of the algebra maps the series of a around p to the
    # series of g(a) around g(p), term by term: (gq - gp)^{*l} g(a_l) =
    # g((q - p)^{*l} a_l).  So radii, the disks of gJ, the channels that
    # carry each ratio group and the verdicts do not move, and each partial
    # sum moves by g.  Rotated inputs are generic: no coefficient is basis
    # aligned, so every kernel and threshold decision sees rounding.
    from sedenion.series import _channels, _geometric_blocks

    rng = np.random.default_rng(23)
    cases = [(center(), demo_sequence())]
    while len(cases) < 4:
        j1, j2 = random_hyper_pair(rng)
        ker = kernel_of_left_mult(j1.s - j2.s)
        c = CDElement(rng.normal(size=ker.dim) @ ker.basis)
        p = wpoint_from(float(rng.uniform(-1, 1)), float(rng.uniform(0.5, 1.5)), j1)
        cases.append((p, GeometricSum.of([("1", 3.0), (c, 2.0)])))
    re, im = (x.ravel().tolist() for x in polar_grid([0.5, 1.5, 2.5, 3.5], [0.4, 1.5, 2.6]))
    seen = Counter()
    for _ in range(20):
        g = g2_automorphism(rng)
        rotate = lambda j: SliceUnit(CDElement(g @ j.s.coeffs))
        for p, a in cases:
            gp = wpoint_from(p.re, p.im, rotate(p.axis))
            ga = GeometricSum.of((CDElement(g @ np.asarray(c)), r) for c, r in a.terms)
            dom, gdom = Domain(p, a), Domain(gp, ga)
            rep, grep = dom.report, gdom.report
            assert (rep.r_a, rep.r_ap, rep.case) == (grep.r_a, grep.r_ap, grep.case)
            assert rep.case is DomainCase.HYPER_INTERSECTION
            for j in (p.axis, rep.witness, -rep.witness, random_slice_unit(rng)):
                gj = rotate(j)
                assert dom.disks(j)[1::2] == gdom.disks(gj)[1::2]
                seen[dom.disks(j)[3]] += 1
                qs = [wpoint_from(x, y, j) for x, y in zip(re, im)]
                gqs = [wpoint_from(x, y, gj) for x, y in zip(re, im)]
                assert (_geometric_blocks(a, *_channels(qs[0], p))[0]
                        == _geometric_blocks(ga, *_channels(gqs[0], gp))[0])
                for rep_q, grep_q in zip(evaluate_points(qs, p, a), evaluate_points(gqs, gp, ga)):
                    assert rep_q.verdict is grep_q.verdict
                    moved = g @ rep_q.partial_sum.coeffs
                    size = max(1.0, float(np.linalg.norm(moved)))
                    assert np.linalg.norm(moved - grep_q.partial_sum.coeffs) <= 1e-12 * size
                    seen[rep_q.verdict] += 1
    assert seen[math.inf] and seen[3.0] and seen[2.0]
    assert seen[Verdict.CONVERGED] and seen[Verdict.DIVERGED]


def test_g2_automorphisms_respect_the_product(rng):
    for _ in range(40):
        g = g2_automorphism(rng)
        for _ in range(5):
            x, y = rng.normal(size=16), rng.normal(size=16)
            lhs = g @ cd_mul(CDElement(x), CDElement(y)).coeffs
            rhs = cd_mul(CDElement(g @ x), CDElement(g @ y)).coeffs
            assert np.abs(lhs - rhs).max() <= 1e-14 * max(1.0, np.abs(lhs).max())


def test_supremum_radius_without_a_companion_sticks_to_the_slice_radius():
    a = GeometricSum.of([("1", 2.0)])
    rap, witness = radius_Rap(a, center())
    assert rap == 2.0 and witness is None


def test_supremum_radius_for_a_real_center():
    rap, witness = radius_Rap(demo_sequence(), wpoint("2"))
    assert rap == 2.0 and witness is None


def test_table_radius_is_a_windowed_estimate():
    demo = demo_sequence()
    table = TableSeq.of([CDElement(demo.term(ell)) for ell in range(40)])
    ra = radius_Ra(table)
    assert 1.9 < ra <= 2.0
    rj = radius_RapJ(table, center(), E10)
    assert abs(rj - 3.0) < 0.05


def test_table_radius_edge_cases():
    assert radius_Ra(TableSeq.of(["1"])) == math.inf
    assert radius_Ra(TableSeq.of(["0", "0"])) == math.inf
    # a value inside the kernel is skipped like a ratio group, not read as dust
    table = TableSeq.of(["1", "e4+e15", "e4+e15", "e4+e15"])
    assert radius_RapJ(table, center(), E10) == radius_Rap(table, center())[0] == math.inf
    assert radius_RapJ(TableSeq.of(["e4+e15", "0"]), center(), E10) == math.inf
    # the window over l = 0, 1 reads 1/3; R_a^{p,J} >= R_a holds it at R_a
    table = TableSeq.of(["1", "3e2", "e4+e15", "e4+e15"])
    assert radius_RapJ(table, center(), E10) == radius_Ra(table) == pytest.approx(2 ** -0.25)


def _sampled(a, n):
    return TableSeq(tuple(tuple(a.term(ell).tolist()) for ell in range(n)))


def test_table_radius_reads_the_ratio_group_radii_of_a_sampled_sum(rng):
    # Oracle: a table of the first n terms of a geometric sum estimates the
    # sum's exact radii, which the ratio-group rule gives.  Seeded hyper
    # centers p on I, a companion J, the slowest group in ker(I - J) (off it
    # in one case of four) and a faster-decaying group off it.  The
    # coefficients have unit norm, since the window reads |c|^(1/l) too, and
    # the ratios stay at most 2, so every value of 1000 terms is a normal
    # float (a tail that underflows to exact zeros reads +inf).  Without the
    # floor, R_a^{p,e10} of the demo sum read 2.38 and 2.07 at lengths 200
    # and 1000; the exact value is 3.
    unit = lambda v: CDElement(v / np.linalg.norm(v))
    above = 0
    for case in range(16):
        j1, j2 = random_hyper_pair(rng)
        p = wpoint_from(float(rng.uniform(-1, 1)), float(rng.uniform(0.5, 1.5)), j1)
        ker = kernel_of_left_mult(j1.s - j2.s)
        g = rng.normal(size=(2, 16))
        kv = rng.normal(size=ker.dim) @ ker.basis
        perp = g[0] - ker.basis.T @ (ker.basis @ g[0])
        r1 = float(rng.uniform(1.1, 2.0))
        r2 = r1 * float(rng.uniform(1.2, 2.0))
        a = GeometricSum.of([(unit(kv if case % 4 else g[1]), r1), (unit(perp), r2)])
        ra, (rap, witness) = radius_Ra(a), radius_Rap(a, p)
        above += rap > ra
        for n in (60, 200, 1000):
            table = _sampled(a, n)
            assert radius_Ra(table) == pytest.approx(ra, rel=0.01), (case, n)
            got = radius_RapJ(table, p, j2 if witness is None else witness)
            assert got == pytest.approx(rap, rel=0.01), (case, n)
    assert above == 12
    demo, p = demo_sequence(), center()
    for n in (60, 200, 1000):
        assert radius_RapJ(_sampled(demo, n), p, E10) == pytest.approx(3.0, rel=0.01), n
    for n in (60, 200, 1000):  # the companion search reads the witness from the table
        assert radius_Rap(_sampled(demo, n), p)[0] == pytest.approx(3.0, rel=0.01), n
    # The known limit: in a short table every value mixes both groups, no
    # value lies in a kernel, the search finds no companion and R_a^p reads R_a.
    for n in (8, 20):
        table = _sampled(demo, n)
        assert radius_Rap(table, p) == (radius_Ra(table), None), n


def test_table_radii_match_the_per_value_oracle_bit_for_bit(rng):
    # Oracle: the windowed estimate read one value at a time, each size from
    # Subspace.distance and math.sqrt(v @ v) (`reference_table_radius`).  The
    # package takes every norm and distance of a table in one stacked pass, so
    # both must agree by float.hex.  The seeded tables mix zero rows, rows in
    # ker(I_p - J) of a tested slice J and magnitudes 10^+-200 and 10^+-300.
    centers = [center(), wpoint("0.5+2e1"), wpoint("0.1+0.6e2+0.8e10"), wpoint("0.3+e10")]
    kinds = Counter()
    for case in range(40):
        j1, j2 = random_hyper_pair(rng)
        p = centers[case % 4] if case % 5 else wpoint_from(0.3, 1.2, j1)
        slices = [E10, SliceUnit("e3"), SliceUnit("e5"), j2]
        n = int(rng.integers(1, 41))
        rows = rng.normal(size=(n, 16))
        for ell in np.flatnonzero(rng.random(n) < 0.4):
            ker = kernel_of_left_mult(p.axis.s - slices[ell % 4].s)
            if ker.dim:
                rows[ell] = rng.normal(size=ker.dim) @ ker.basis
        rows[rng.random(n) < 0.15] = 0.0
        rows *= 10.0 ** rng.choice([0, 200, -200, 300, -300], size=(n, 1))
        table = TableSeq.of(rows.tolist())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ra, got = radius_Ra(table), [radius_RapJ(table, p, j) for j in slices]
        want_ra = reference_table_radius(table.values)
        assert ra.hex() == want_ra.hex(), case
        for j, rj in zip(slices, got):
            want = want_ra if axis_sign(j, p.axis) else max(
                reference_table_radius(table.values, kernel_of_left_mult(p.axis.s - j.s)), want_ra)
            assert rj.hex() == want.hex(), (case, j)
            kinds["inf" if rj == math.inf else "above" if rj > ra else "R_a"] += 1
    assert set(kinds) == {"inf", "above", "R_a"}, kinds


def test_the_row_exponent_of_the_radii_is_the_scalar_pow2_exponent(rng):
    # `_radius` reads the power of two of every row at once, by np.frexp over
    # the row maxima; the kernels read it row by row through `_pow2_exponent`
    # (math.frexp, cheaper on one row).  Both forms must agree on every
    # magnitude, subnormals and zero rows included, and scale rows alike.
    from sedenion.algebra import _pow2_exponent, _pow2_scaled

    rows = np.copysign(10.0 ** rng.uniform(-320, 308, size=(1000, 16)), rng.normal(size=(1000, 16)))
    rows[rng.random((1000, 16)) < 0.3] = 0.0
    rows[::97] = 0.0
    edges = [5e-324, -5e-324, 2.0 ** -1022, np.nextafter(2.0 ** -1022, 0.0), 0.5,
             np.nextafter(1.0, 0.0), 1.0, 1.7976931348623157e308]
    edges += (2.0 ** np.arange(-1074, 1024, 7)).tolist()
    single = np.zeros((len(edges), 16))
    single[:, 5] = edges
    rows = np.vstack([rows, single, np.zeros((1, 16))])
    shifts = np.frexp(np.abs(rows).max(axis=1))[1]  # the form of `_radius`
    assert shifts.tolist() == [_pow2_exponent(v) for v in rows]
    scaled = np.ldexp(rows, -shifts[:, None])
    assert scaled.tobytes() == np.array([_pow2_scaled(v) for v in rows]).tobytes()


@pytest.mark.parametrize("scale, n", [
    pytest.param(s, 4, id=str(s)) for s in (1e-300, 1e-200, 1e-160, 1e160, 1e200, 1e300, 1.5e308)
] + [pytest.param(1.5e308, 2, id="1.5e+308-two-values")])
def test_table_radius_near_either_end_of_the_float_range(scale, n):
    # Oracle: 1/max_l |a_l|^(1/l) over the window l = 2, 3 of a four-value
    # table (l = 1 of a two-value one), with |a_l| from math.hypot, which
    # neither overflows nor underflows below 1.5e308; v @ v of the raw value
    # would do one or the other.  At 1.5e308 the norm itself is past the float
    # range, but its roots l >= 2 and its reciprocal are not: the oracle there
    # is 30-digit decimal arithmetic.  abs=0, because every radius from 1e160
    # up is below pytest's default absolute tolerance.
    v = [0.0] * 16
    v[4] = v[15] = scale
    table = TableSeq.of([v] * n)
    window = (2, 3) if n == 4 else (1,)
    if scale == 1.5e308:
        with decimal.localcontext(prec=30):
            norm = (Decimal(scale) ** 2 * 2).sqrt()
            want = float(1 / max(norm ** (Decimal(1) / ell) for ell in window))
    else:
        want = 1.0 / max(math.hypot(*v) ** (1.0 / ell) for ell in window)
    p = center()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = Domain(p, table).report
    assert rep.r_a == pytest.approx(want, rel=1e-14, abs=0.0)
    unit = Domain(p, TableSeq.of(["e4+e15"] * n)).report
    assert rep.case is unit.case is DomainCase.HYPER_INTERSECTION
    assert same_unit(rep.witness, E10) and unit.witness == E10


@pytest.mark.parametrize("scale", [2.0 ** -600, 2.0 ** 600], ids=["2^-600", "2^600"])
def test_domain_is_unchanged_when_a_coefficient_is_scaled_by_a_power_of_two(rng, scale):
    # Radii, companions and disks depend only on the direction of each ratio
    # group's coefficient; 2**-600 squared underflows and 2**600 squared
    # overflows, so no norm or dot product of the raw coefficient may decide.
    for n in range(10):
        j1, j2 = random_hyper_pair(rng)
        ker = kernel_of_left_mult(j1.s - j2.s)
        c = rng.normal(size=ker.dim) @ ker.basis
        p = wpoint_from(float(rng.uniform(-1, 1)), float(rng.uniform(0.5, 1.5)), j1)
        base = Domain(p, GeometricSum.of([("1", 3.0), (CDElement(c), 2.0)]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = Domain(p, GeometricSum.of([("1", 3.0), (CDElement(c * scale), 2.0)]))
            for j in (j2, -j2, base.report.witness, random_slice_unit(rng)):
                assert scaled.disks(j) == base.disks(j), n
        want, got = base.report, scaled.report
        assert (got.r_a, got.r_ap, got.case) == (want.r_a, want.r_ap, want.case), n
        assert want.case is DomainCase.HYPER_INTERSECTION
        assert np.array_equal(got.witness.s.coeffs, want.witness.s.coeffs)


def _scaled_sequence(a, k: int):
    """The geometric sum or gap series a with every coefficient times 2**k."""
    scale = lambda c: tuple(np.ldexp(np.asarray(c), k).tolist())
    if isinstance(a, Lacunary):
        return Lacunary(scale(a.coeff), a.ratio)
    return GeometricSum(tuple((scale(c), r) for c, r in a.terms))


@pytest.mark.parametrize("a", [demo_sequence(), Lacunary.of("e4+e15", 2.0)],
                         ids=["geometric", "gap"])
def test_evaluation_commutes_with_a_power_of_two_scaling(a):
    # Which channel images are dust depends only on the direction of each
    # coefficient, so 2**-700 a (whose squared norms underflow) sums to
    # 2**-700 times the value of a, bit for bit, and 2**700 a blows up at its
    # first nonzero term instead of losing every channel.  tol = 0 keeps
    # every point running to max_terms.
    first = 0 if isinstance(a, GeometricSum) else 1
    for text in ("0.5+0.5e1", "0.3+1.2e10", "-0.4+0.7e3"):
        q = wpoint(text)
        base = evaluate_series(q, center(), a, tol=0.0)
        tiny = evaluate_series(q, center(), _scaled_sequence(a, -700), tol=0.0)
        huge = evaluate_series(q, center(), _scaled_sequence(a, 700), tol=0.0)
        assert base.terms_used == tiny.terms_used == 200, text
        assert np.ldexp(base.partial_sum.coeffs, -700).tobytes() == \
            tiny.partial_sum.coeffs.tobytes(), text
        assert np.any(tiny.partial_sum.coeffs != 0.0), text
        assert (huge.verdict, huge.terms_used) == (Verdict.DIVERGED, first + 1), text


def _pin_sequences(c):
    """A two-ratio sum and a gap series on the coefficient c."""
    return (GeometricSum.of([("1", 3.0), (CDElement(c), 2.0)]),
            Lacunary.of(CDElement(c), 2.0))


def test_companions_and_domain_reports_match_the_element_formula_bit_for_bit():
    # Seeded hyper pairs with kernel vectors, generic vectors, the poles +-e8
    # and 2**+-600 scalings, against the search and radii written on CDElement
    # arithmetic in util.py.
    rng = np.random.default_rng(1606)
    e8 = SliceUnit("e8")
    reports = Counter()
    for n in range(40):
        j1, j2 = random_hyper_pair(rng)
        ker = kernel_of_left_mult(j1.s - j2.s)
        kv = rng.normal(size=ker.dim) @ ker.basis
        for c in (kv, rng.normal(size=16), kv * 2.0 ** 600, kv * 2.0 ** -600, -kv):
            for i in (j1, j2, e8, -e8):
                got, want = find_companion(i, CDElement(c)), reference_companion(i, CDElement(c))
                assert (got is None) == (want is None), n
                if got is not None:
                    assert got.s.coeffs.tobytes() == want.s.coeffs.tobytes(), n
            p = wpoint_from(float(rng.uniform(-1, 1)), float(rng.uniform(0.5, 1.5)), j1)
            for a in _pin_sequences(c):
                rep = Domain(p, a).report
                ra, rap, witness, case = reference_report(p, a)
                assert (rep.r_a, rep.r_ap, rep.case.value) == (ra, rap, case), n
                assert (rep.witness is None) == (witness is None), n
                if witness is not None:
                    assert rep.witness.s.coeffs.tobytes() == witness.s.coeffs.tobytes(), n
                reports[case] += 1
    assert reports["HyperIntersection"] and reports["SigmaBallOnly"]


def test_a_domain_build_computes_r_a_once(monkeypatch, rng):
    import sedenion.series as series

    calls = []
    original = series.radius_Ra
    monkeypatch.setattr(series, "radius_Ra", lambda a: calls.append(a) or original(a))
    j1, j2 = random_hyper_pair(rng)
    ker = kernel_of_left_mult(j1.s - j2.s)
    kv = ker.basis[0]
    cases = [(wpoint_from(0.3, 0.8, j1), kv, DomainCase.HYPER_INTERSECTION),
             (wpoint_from(0.3, 0.8, j1), rng.normal(size=16), DomainCase.SIGMA_BALL_ONLY),
             (wpoint("2"), kv, DomainCase.REAL_CENTER)]
    for p, c, case in cases:
        for a in _pin_sequences(c):
            calls.clear()
            assert Domain(p, a).report.case is case
            assert len(calls) == 1, (case, type(a).__name__)


# ---------------------------------------------------------------------------
# domain reports and membership
# ---------------------------------------------------------------------------


def test_domain_report_cases_and_caching():
    a = demo_sequence()
    rep = domain_report(center(), a)
    assert rep.case is DomainCase.HYPER_INTERSECTION
    assert (rep.r_a, rep.r_ap) == (2.0, 3.0)
    assert rep.witness is not None and not rep.approximate
    assert domain_report(center(), a) is rep

    real = domain_report(wpoint("2"), a)
    assert real.case is DomainCase.REAL_CENTER
    assert real.witness is None and real.r_ap == real.r_a == 2.0

    plain = domain_report(center(), GeometricSum.of([("1", 2.0)]))
    assert plain.case is DomainCase.SIGMA_BALL_ONLY
    assert plain.witness is None and plain.r_ap == plain.r_a == 2.0

    table = TableSeq.of(["1", "0.5", "0.25"])
    assert domain_report(center(), table).approximate


def test_domain_cache_stays_bounded():
    # The sequence keeps the Domain of the last center asked about: a repeat
    # (or an equal point built apart) gets that object, and a stream of
    # fresh centers leaves one Domain on the sequence and memory flat.
    a = GeometricSum.of([("1", 2.0)])
    p = wpoint_from(1.0, 1.0, E1)
    dom = domain(p, a)
    assert domain(p, a) is dom and domain(wpoint_from(1.0, 1.0, E1), a) is dom
    assert list(vars(a)["_domains"].values()) == [dom]
    rng = np.random.default_rng(30)

    def stream(count):
        for _ in range(count):
            q = wpoint_from(float(rng.uniform(-1, 1)), float(rng.uniform(0.5, 1.5)), E1)
            assert domain(q, a) is domain(q, a)
            assert len(vars(a)["_domains"]) == 1

    stream(1000)
    tracemalloc.start()
    try:
        stream(1000)
        before = tracemalloc.get_traced_memory()[0]
        stream(1000)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # a kept Domain costs about 1 kB; a memo of every center would keep 1 MB more
    assert after - before < 64 * 1024
    assert domain(p, a) is not dom and domain(p, a).report == dom.report


def test_companion_memo_gives_a_cold_build_at_every_center_of_a_slice(monkeypatch):
    # The sequence keeps (R_a^p, witness) per center slice unit, so every
    # center after the first on a slice runs no companion search.  Each
    # report must still equal, bit for bit, a cold Domain built on an equal
    # sequence constructed apart (with its own, empty memo): 4 centers on J
    # and 4 on -J, reached through a negative im.
    import sedenion.series as series

    rng = np.random.default_rng(2901)
    builds = []  # (J, a builder)
    for n in range(5):
        if n < 3:  # hyper pairs with a kernel vector, then generic slices
            j, j2 = random_hyper_pair(rng)
            ker = kernel_of_left_mult(j.s - j2.s)
            c = rng.normal(size=ker.dim) @ ker.basis
        else:
            j, c = random_slice_unit(rng), rng.normal(size=16)
        builds.append((j, lambda c=c: GeometricSum.of([("1", 3.0), (CDElement(c), 2.0)])))
    builds += [(E1, lambda: Lacunary.of("e4+e15", 2.0)),
               (E1, lambda: TableSeq.of(["1", "e4+e15", "e4+e15", "e4+e15"]))]
    counts = Counter()
    monkeypatch.setattr(series, "find_companion",
                        _counting(counts, "search", series.find_companion))
    bits = lambda w: None if w is None else w.s.coeffs.tobytes()
    cases = Counter()
    for j, build in builds:
        a = build()
        for k in range(8):
            side = j if k < 4 else -j
            y = float(rng.uniform(0.5, 1.5))
            p = wpoint_from(float(rng.uniform(-1, 1)), y if k < 4 else -y, j)
            assert p.axis is side
            before = counts["search"]
            got = domain_report(p, a)
            assert (counts["search"] == before) is (k % 4 > 0), (j, k)  # a memo hit
            cold = Domain(p, build()).report
            assert float.hex(got.r_a) == float.hex(cold.r_a)
            assert float.hex(got.r_ap) == float.hex(cold.r_ap)
            assert bits(got.witness) == bits(cold.witness)
            assert (got.case, got.approximate) == (cold.case, cold.approximate)
            cases[got.case] += 1
        assert set(vars(a)["_companions"]) == {j, -j}
    assert set(cases) == {DomainCase.SIGMA_BALL_ONLY, DomainCase.HYPER_INTERSECTION}, cases

    a = demo_sequence()
    for _ in range(3 * series._SLICE_MEMO):
        domain_report(wpoint_from(0.3, 1.2, random_slice_unit(rng)), a)
        assert len(vars(a)["_companions"]) <= series._SLICE_MEMO


def test_slice_memo_stays_bounded_on_a_stream_of_fresh_axes():
    import sedenion.series as series

    dom = Domain(center(), demo_sequence())
    rng = np.random.default_rng(5)

    def stream(count):
        for _ in range(count):
            dom.contains(wpoint_from(0.3, 1.2, random_slice_unit(rng)))
            assert len(dom._slices) <= series._SLICE_MEMO

    stream(8000)
    tracemalloc.start()
    try:
        stream(1000)
        before = tracemalloc.get_traced_memory()[0]
        stream(1000)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # one kept axis costs about 700 bytes; an unbounded memo would keep 700 kB more
    assert after - before < 64 * 1024


def _counting(counts, name, fn):
    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return counted


def test_membership_work_runs_once_per_slice_not_per_point(monkeypatch, tmp_path):
    # The axis test, the reflected radius and its kernel depend only on the
    # (center, sequence) and the slice, so a warm slice of 10,000 points and
    # a 100 x 100 figure each run them at most once per slice and per
    # domain.  The centers are used by no other test, so their domains are
    # built here.  The grid's real ray theta = 0 lies on the slice I0, so the
    # warm-up visits E10 and, through one real point, I0.
    import sedenion.series as series
    from sedenion.cli import main

    names = ("_reflected_radius", "axis_sign", "kernel_of_left_mult")
    counts = Counter()
    for name in names:
        monkeypatch.setattr(series, name, _counting(counts, name, getattr(series, name)))
    p, a = wpoint_from(0.25, 0.75, E1), demo_sequence()
    assert domain_contains(wpoint_from(0.1, 0.2, E10), p, a) is Membership.INTERIOR
    assert domain_contains(wpoint("0.5"), p, a) is Membership.INTERIOR
    warm = dict(counts)
    assert all(warm[name] <= 3 for name in names)  # one domain, two slices
    got = Counter(domain_contains(wpoint_from(4.0 * k / 100 * math.cos(t),
                                              4.0 * k / 100 * math.sin(t), E10), p, a)
                  for t in np.linspace(0.0, math.pi, 100) for k in range(1, 101))
    assert sum(got.values()) == 10_000 and len(got) >= 2
    assert dict(counts) == warm

    counts.clear()
    argv = ["figure", "--center", "0.3+0.6e1", "--n", "100", "--format", "svg",
            "--out", str(tmp_path)]
    assert main(argv) == 0
    slices = len(list(tmp_path.glob("figure_*.csv")))
    assert slices == 4 and (tmp_path / "figure.svg").exists()
    # the last ray of a figure, at pi * (n - 1) / (n - 1), ends a hair past pi,
    # so its points lie on -J: at most two axes per slice
    assert all(0 < counts[name] <= 2 * slices + 1 for name in names), counts

    # The figure grid is one Domain.classify call per slice: no point object
    # besides the center, no scalar membership, and the disks of J and -J.
    from sedenion import slices as slices_module
    counts.clear()
    for cls, name in ((slices_module.WPoint, "__init__"), (Domain, "contains"),
                      (Domain, "disks")):
        monkeypatch.setattr(cls, name, _counting(counts, name, getattr(cls, name)))
    assert main(["figure", "--center", "0.2+0.7e1", "--n", "100",
                 "--out", str(tmp_path / "csv")]) == 0
    assert len(list((tmp_path / "csv").glob("figure_*.csv"))) == slices
    assert counts["__init__"] == 1 and counts["contains"] == 0, counts
    assert 0 < counts["disks"] <= 2 * slices, counts


def _figure_slice(axis: SliceUnit, n: int = 100) -> list:
    """n x n points at the angles pi * i / (n - 1) of `figure`, i = 1..n.

    The real ray i = 0 is left out; the last two rays end past pi, so their
    points lie on -axis.
    """
    return [wpoint_from(4.0 * k / n * math.cos(t), 4.0 * k / n * math.sin(t), axis)
            for t in (math.pi * i / (n - 1) for i in range(1, n + 1))
            for k in range(1, n + 1)]


def _reference_membership(q, p, r_a, r2, band):
    """The two-disk rule written out with complex numbers.

    r2 is the reflected radius on the slice of q, or None on the center
    plane of p (q or p real, or I_q = +-I_p), where one disk counts: around
    z_p on the slice of I_p, around conj(z_p) on the slice of -I_p.
    """
    def state(d, r):
        return -1 if d == 0.0 or d < r - band else (1 if d > r + band else 0)
    w, z = q.z, p.z
    if r2 is None:
        flip = not (q.is_real or p.is_real) and axis_sign(q.axis, p.axis) < 0
        states = (state(abs(w - (z.conjugate() if flip else z)), r_a),)
    else:
        states = (state(abs(w - z), r_a), state(abs(w - z.conjugate()), r2))
    if max(states) > 0:
        return Membership.EXTERIOR
    return Membership.INTERIOR if max(states) < 0 else Membership.BOUNDARY


def test_warm_off_plane_membership_builds_no_elements_or_units(monkeypatch):
    # The two-disk rule reads only re, im and the axis, so a warm slice
    # builds no CDElement: off the center plane (e10), on it (e1, the axis
    # of p) and on the real ray theta = 0.  -J is built once per unit, so
    # the rays past pi (flipped onto -J) add at most one SliceUnit per
    # slice.  The center is used by no other test.
    from sedenion import algebra, slices

    p, a = wpoint_from(0.35, 0.65, E1), demo_sequence()
    j, c = SliceUnit("e10"), SliceUnit("e1")

    def inputs():
        return (_figure_slice(j) + _figure_slice(c)
                + [wpoint_from(4.0 * k / 100, 0.0, j) for k in range(1, 101)])

    assert domain_contains(wpoint_from(0.1, 0.2, j), p, a) is Membership.INTERIOR
    counts = Counter()
    for cls, name in ((algebra.CDElement, "CDElement"), (slices.SliceUnit, "SliceUnit")):
        monkeypatch.setattr(cls, "__init__", _counting(counts, name, cls.__init__))
    first = [domain_contains(q, p, a) for q in inputs()]
    assert counts["SliceUnit"] <= 2, counts
    counts.clear()
    qs = inputs()
    again = [domain_contains(q, p, a) for q in qs]
    assert len(again) == 20_100 and again == first
    assert not counts, counts
    assert sum(q.is_real for q in qs) == 100
    assert any(q.axis is -j for q in qs) and any(q.axis is -c for q in qs)
    monkeypatch.undo()
    # the same calls as the rule written out, also on the circles of both disks
    qs += [wpoint_from(p.re + 2.0 * math.cos(t), p.im + 2.0 * math.sin(t), j)
           for t in np.linspace(0.1, 3.0, 30)]
    qs += [wpoint_from(p.re + 3.0 * math.cos(t), 3.0 * math.sin(t) - p.im, j)
           for t in np.linspace(0.5, 2.5, 30)]
    qs += [wpoint_from(p.re + 2.0 * math.cos(t), p.im + 2.0 * math.sin(t), c)
           for t in np.linspace(0.1, 6.2, 60)]

    def r2(q):
        if q.is_real or axis_sign(q.axis, c):
            return None
        return {1: 3.0, -1: 2.0}[axis_sign(q.axis, j)]

    got = [domain_contains(q, p, a) for q in qs]
    assert got == [_reference_membership(q, p, 2.0, r2(q), 1e-9) for q in qs]
    assert set(got) == set(Membership)


def test_warm_scalar_membership_hashes_no_coefficient_tuple(monkeypatch):
    # Slice units keep their hash and key the slice memo, so after one call
    # per unit, membership on J, on its kept -J and on a unit built apart
    # from J's coefficients neither builds nor hashes an element's key.  The
    # center is used by no other test.
    p, a = wpoint_from(-0.3, 0.85, E1), demo_sequence()
    j = SliceUnit("e10")
    twin = SliceUnit(CDElement(j.s.coeffs))
    units = (j, -j, twin)
    for u in units:
        domain_contains(wpoint_from(0.1, 0.2, u), p, a)
    counts = Counter()
    monkeypatch.setattr(CDElement, "key", property(_counting(counts, "key", CDElement.key.fget)))
    monkeypatch.setattr(CDElement, "__hash__", _counting(counts, "hash", CDElement.__hash__))
    rng = np.random.default_rng(24)
    got = Counter(domain_contains(wpoint_from(*rng.uniform((-4.0, 0.0), 4.0), units[k % 3]), p, a)
                  for k in range(1000))
    monkeypatch.undo()
    assert not counts, counts
    assert sum(got.values()) == 1000 and len(got) >= 2
    assert twin is not j and set(domain(p, a)._slices) == {j, -j}


def test_equal_units_share_one_memo_entry_and_one_evaluation_group(monkeypatch):
    # Units built twice, or with -0.0 for a 0.0 coefficient, are one slice:
    # one entry of the slice memo and one group of evaluate_points.
    import sedenion.series as series

    zero = E10.s.coeffs.copy()
    zero[5] = -0.0
    units = (E10, SliceUnit("e10"), SliceUnit(CDElement(zero)))
    assert all(u == E10 and hash(u) == hash(E10) for u in units)
    assert len({id(u) for u in units}) == 3
    dom = Domain(center(), demo_sequence())
    assert all(dom.disks(u) is dom.disks(E10) for u in units)
    assert list(dom._slices) == [E10]
    qs = [wpoint_from(0.2, 0.3 + 0.1 * k, u) for k, u in enumerate(units)]
    alone = [evaluate_series(q, center(), demo_sequence()) for q in qs]
    counts = Counter()
    monkeypatch.setattr(series, "_channels", _counting(counts, "_channels", series._channels))
    assert evaluate_points(qs, center(), demo_sequence()) == alone
    assert counts["_channels"] == 1


def test_equal_sequences_hash_alike_and_get_equal_domains():
    # The hash of a sequence is the dataclass hash of its field tuple.  Each
    # sequence object keeps its own Domain memo, so equal sequences built
    # apart get separate Domains, whose reports agree bit for bit.
    p = wpoint_from(-0.45, 0.55, E10)
    makers = (
        (lambda: GeometricSum.of([("1", 3.0), ("e4+e15", 2.0)]), lambda s: (s.terms,)),
        (lambda: Lacunary.of("e4+e15", 2.0), lambda s: (s.coeff, s.ratio)),
        (lambda: TableSeq.of(["1", "e4+e15", "0.5e1"]), lambda s: (s.values,)),
    )
    bits = lambda w: None if w is None else w.s.coeffs.tobytes()
    for make, field_tuple in makers:
        a, b = make(), make()
        assert a is not b and a == b
        assert hash(a) == hash(b) == hash(field_tuple(a))
        d, e = domain(p, a), domain(p, b)
        assert d is not e and domain(p, a) is d and domain(p, b) is e
        assert hash(a) == hash(field_tuple(a))  # the memo leaves the hash alone
        got, want = e.report, d.report
        assert float.hex(got.r_a) == float.hex(want.r_a)
        assert float.hex(got.r_ap) == float.hex(want.r_ap)
        assert bits(got.witness) == bits(want.witness)
        assert (got.case, got.approximate) == (want.case, want.approximate)


def test_one_sedenion_is_one_point_to_the_memo_and_the_rule():
    # A real point lies on every slice; built on e10 it is still the point
    # wpoint("3") on I0, so it is the center hit and keys the same domain.
    a = Lacunary.of("e4+e15", 2)
    p, q = wpoint("3"), WPoint(3.0, 0.0, E10)
    assert domain(q, a) is domain(p, a)
    rep = evaluate_series(q, p, a)
    assert (rep.terms_used, rep.verdict) == (1, Verdict.CONVERGED)
    # 0.5 - 1.5 e10 is 0.5 + 1.5 (-e10): the disks of -e10 decide, whichever
    # constructor built it.  c in ker(e1 + e10) lifts R_a^{p,-e10} from 2 to 3,
    # and the reflected distance |0.5 + 2.5i| lies between them.
    c = kernel_of_left_mult(E1.s + E10.s).vectors()[0]
    a = GeometricSum.of([("1", 3.0), (c, 2.0)])
    for q in (WPoint(0.5, -1.5, E10), wpoint_from(0.5, -1.5, E10)):
        assert domain_contains(q, center(), a) is Membership.INTERIOR


def _tilted(i: int, j: int, t: float) -> SliceUnit:
    """cos(t) e_i + sin(t) e_j: the slice unit e_i turned by t toward e_j."""
    s = np.zeros(16)
    s[i], s[j] = math.cos(t), math.sin(t)
    return SliceUnit(CDElement(s))


def test_memoised_membership_equals_the_unmemoised_rule():
    rng = np.random.default_rng(8)
    j1, j2 = random_hyper_pair(rng)
    c = kernel_of_left_mult(j1.s - j2.s).basis[0]
    kernel_seqs = (GeometricSum.of([("1", 3.0), (CDElement(c), 2.0)]),
                   Lacunary.of(CDElement(c), 2.0),
                   TableSeq.of(["1", CDElement(c), CDElement(c / 4), CDElement(c / 8)]))
    demo_seqs = (demo_sequence(), Lacunary.of("e4+e15", 2.0),
                 TableSeq.of(["1", "e4+e15", "0.25e4+0.25e15", "0.125e4+0.125e15"]))
    generic = [random_slice_unit(rng) for _ in range(2)]
    cases = [  # center, sequences, extra axes (tilts straddle UNIT_EQ), a hyper pair
        (center(), demo_seqs, [_tilted(1, 2, 5e-10), _tilted(1, 2, 2e-9)], (E1, E10)),
        (wpoint_from(0.3, 0.8, E10), demo_seqs,
         [_tilted(10, 11, 5e-10), _tilted(10, 11, 2e-9)], (E10, E1)),
        (wpoint_from(-0.2, 0.9, j1), kernel_seqs, [j2, -j2], (j1, j2)),
        (wpoint("0.5"), demo_seqs, [E1, E10], (j1, j2)),
    ]
    seen, real = Counter(), Counter()
    for p, seqs, extra, pair in cases:
        sol = hyper_solution(*pair)
        for a in seqs:
            dom = domain(p, a)
            axes = [p.axis, -p.axis, *extra, *generic]
            if dom.report.witness is not None:
                k = dom.report.witness
                axes += [k, -k] + [cker_curve_point(p.axis, k, t) for t in (0.4, 2.1)]
            r_a = radius_Ra(a)

            def r2(q):
                if p.is_real or q.is_real or axis_sign(q.axis, p.axis):
                    return None
                return radius_RapJ(a, p, q.axis)

            qs = [p, wpoint_from(0.7, 0.0, E1), wpoint_from(p.re + r_a, 0.0, E1)]
            grids = []  # (axis, points re + im*axis) with im of either sign
            for axis in axes:
                xy = rng.uniform([-4.0, -4.0], [4.0, 4.0], size=(12, 2)).tolist()
                # on the direct circle |z - z_p| = R_a of J and of -J, the
                # center hit (on J or -J), the real line and 1e-16 off it
                xy += [(p.re + r_a * math.cos(t), s * (p.im + r_a * math.sin(t)))
                       for t in (0.3, 1.9) for s in (1.0, -1.0)]
                xy += [(p.re, p.im), (p.re, -p.im), (0.7, 0.0), (0.7, -0.0),
                       (0.7, 1e-16), (0.7, -1e-16)]
                grids.append((axis, xy))
                qs += [wpoint_from(x, y, axis) for x, y in xy]
            order = rng.permutation(len(qs))  # interleave the slices
            for band in (0.0, 1e-9, 0.05):
                for i in order:
                    got = dom.contains(qs[i], band)
                    assert got is _reference_membership(qs[i], p, r_a, r2(qs[i]), band)
                    seen[got] += 1
                for axis, xy in grids:
                    codes = dom.classify(*np.array(xy).T, axis, band)
                    assert codes.dtype == np.int8
                    assert [Membership.of(c) for c in codes.tolist()] == \
                        [dom.contains(wpoint_from(x, y, axis), band) for x, y in xy]
            # A real point lies on every slice; it is stored on I0, which is
            # off the center plane of the centers on e10 and j1.  On each
            # slice its code is the one-disk rule |x - z_p| vs R_a, from the
            # scalar and the array path alike, and so are both ball memberships.
            reals = [0.7, p.re, p.re + 2.5, p.re - 4.0]
            if p.im < r_a < math.inf:  # on the circle |x - z_p| = R_a
                h = math.sqrt(r_a * r_a - p.im * p.im)
                reals += [p.re + h, p.re - h]
            for band in (0.0, 1e-9, 0.05):
                want = [_reference_membership(wpoint_from(x, 0.0, E1), p, r_a, None, band)
                        for x in reals]
                real.update(want)
                for axis in axes + [I0, -I0]:
                    for zero in (0.0, -0.0):
                        codes = dom.classify(reals, [zero] * len(reals), axis, band)
                        assert [Membership.of(c) for c in codes.tolist()] == want
                        assert [dom.contains(wpoint_from(x, zero, axis), band)
                                for x in reals] == want
            for x in reals:
                q = wpoint_from(x, -0.0, E10)
                ok = _reference_membership(q, p, r_a, None, 0.0) is Membership.INTERIOR
                assert sigma_contains(q, p, r_a) is ok
                assert hyper_sigma_contains(q, p, r_a, sol) is ok
            z = p.z
            assert dom.disks(p.axis) == (z, r_a, z, math.inf, math.inf)
            assert dom.disks(-p.axis) == (z.conjugate(), r_a, z.conjugate(), math.inf, math.inf)
    assert dom.disks(E10) == (0.5, r_a, 0.5, math.inf, math.inf)  # a real center has one plane
    d = domain(center(), demo_sequence())
    assert d.disks(_tilted(1, 2, 5e-10)) == (1j, 2.0, 1j, math.inf, math.inf)
    assert d.disks(_tilted(1, 2, 2e-9)) == (1j, 2.0, -1j, 2.0, 2.0)
    assert d.disks(E10) == (1j, 2.0, -1j, 3.0, 3.0) and d.disks(-E10) == (1j, 2.0, -1j, 2.0, 2.0)
    assert all(seen[m] > 50 for m in Membership), seen
    assert all(real[m] > 10 for m in Membership), real


def test_classify_equals_contains_at_the_last_bit(rng):
    # Seeded points whose distance to a disk center rounds within 4 ulps of
    # r - band or r + band, for every finite radius of the disks and each of
    # the three bands in use.  contains takes abs(complex) and classify
    # np.hypot, which round alike; np.abs of a complex array differs from
    # np.hypot in the last bit on about a third of pairs and fails here.
    band_seq = GeometricSum.of([("1", 3.0), ("0.00000000001e2+e4+e15", 2.0)])
    flips = 0
    for a in (demo_sequence(), band_seq):
        dom = Domain(center(), a)
        for j in (E10, -E10):
            c1, r1, c2, r2, r2_in = dom.disks(j)
            for band in (0.0, 1e-9, 0.05):
                x, y = [], []
                for c in (c1, c2):
                    for t in {r1 - band, r1 + band, r2 - band, r2 + band, r2_in - band,
                              r2_in + band}:
                        theta = rng.uniform(0.0, 2.0 * math.pi, 500)
                        for z, step in ((c.real + t * np.cos(theta), x),
                                        (c.imag + t * np.sin(theta), y)):
                            step.append(z + rng.integers(-4, 5, z.size) * np.spacing(z))
                x, y = np.concatenate(x), np.concatenate(y)
                codes = dom.classify(x, y, j, band).tolist()
                assert [Membership.of(c) for c in codes] == \
                    [dom.contains(wpoint_from(re, im, j), band)
                     for re, im in zip(x.tolist(), y.tolist())]
                flips += len(set(codes)) > 1
    assert flips == 12  # every case straddles a threshold


def test_sigma_ball_membership_fixtures():
    p = center()
    q_in = wpoint_from(0.0, 1.8, E10)       # dists 0.8 and 2.8
    assert sigma_contains(q_in, p, 3.0)
    assert not sigma_contains(q_in, p, 2.0)
    # center slice: one disk only
    assert sigma_contains(wpoint("1.5e1"), p, 1.0)
    assert not sigma_contains(wpoint("2.5e1"), p, 1.0)
    # the center itself belongs for every radius
    assert sigma_contains(p, p, 0.0)


def test_hyper_sigma_ball_waives_the_reflected_disk_on_the_curve():
    p = center()
    sol = hyper_solution(E1, E10)
    q = wpoint_from(0.0, 1.8, E10)           # reflected dist 2.8
    assert not sigma_contains(q, p, 2.0)
    assert hyper_sigma_contains(q, p, 2.0, sol)
    k = cker_curve_point(E1, E10, 0.7)
    assert hyper_sigma_contains(wpoint_from(0.0, 1.8, k), p, 2.0, sol)
    # a generic slice gets no waiver
    q3 = wpoint_from(0.0, 1.8, SliceUnit("e3"))
    assert not hyper_sigma_contains(q3, p, 2.0, sol)
    assert hyper_sigma_contains(q3, p, 2.9, sol) == sigma_contains(q3, p, 2.9)


def test_hyper_sigma_ball_checks_the_center_slice():
    sol = hyper_solution(E1, E10)
    with pytest.raises(ValueError):
        hyper_sigma_contains(wpoint("e1"), wpoint("1+e3"), 1.0, sol)
    # A real center lies on the slice of every J1, though it is stored on I0.
    rng = np.random.default_rng(3)
    sol = hyper_solution(*random_hyper_pair(rng))
    for p, r in ((wpoint("0.5"), 1.0), (wpoint("-2"), 0.25)):
        for q in (wpoint("0.7"), wpoint("-1.4"), wpoint_from(p.re, 0.2, sol.j2),
                  wpoint_from(p.re + 0.3, 0.3, random_slice_unit(rng))):
            assert hyper_sigma_contains(q, p, r, sol) == sigma_contains(q, p, r)
    assert hyper_sigma_contains(wpoint("0.7"), wpoint("0.5"), 1.0, sol)
    assert not hyper_sigma_contains(wpoint("1.6"), wpoint("0.5"), 1.0, sol)


def test_domain_membership_fixtures():
    a = demo_sequence()
    p = center()
    assert domain_contains(p, p, a) is Membership.INTERIOR
    # exactly on the R_a circle of the center slice
    assert domain_contains(wpoint("3e1"), p, a) is Membership.BOUNDARY
    # center hit on a different slice: inside both disks
    assert domain_contains(wpoint_from(0.0, 1.0, E10), p, a) is Membership.INTERIOR
    # lower half of the center plane is still the center plane
    assert domain_contains(wpoint("0.5-0.5e1"), p, a) is Membership.INTERIOR
    assert domain_contains(wpoint("-2e1"), p, a) is Membership.EXTERIOR


def test_domain_membership_for_a_real_center_is_one_euclidean_ball():
    a = demo_sequence()
    p = wpoint("2")
    assert domain_contains(wpoint("2+1.9e7"), p, a) is Membership.INTERIOR
    assert domain_contains(wpoint("2+2.1e7"), p, a) is Membership.EXTERIOR
    assert domain_contains(wpoint("0.5"), p, a) is Membership.INTERIOR
    assert domain_contains(wpoint("4.1"), p, a) is Membership.EXTERIOR


def test_domain_membership_matches_the_two_disk_rule_at_random_points(rng):
    a = demo_sequence()
    p = center()
    zp = complex(0.0, 1.0)
    cases = [
        (E1, None),                       # center plane, one disk
        (SliceUnit("-e1"), None),
        (E10, 3.0),
        (-E10, 2.0),
        (SliceUnit("e3"), 2.0),
        (cker_curve_point(E1, E10, 0.7), 3.0),
    ]
    mism = 0
    for axis, r2 in cases:
        for _ in range(500):
            re = float(rng.uniform(-4, 4))
            im = float(rng.uniform(0, 4))
            q = wpoint_from(re, im, axis)
            got = domain_contains(q, p, a)
            if got is Membership.BOUNDARY:
                continue
            z = complex(re, im)
            if r2 is None:
                inside = abs(np.linalg.norm(q.value.coeffs - p.value.coeffs)) < 2.0
            else:
                inside = abs(z - zp) < 2.0 and abs(z - zp.conjugate()) < r2
            want = Membership.INTERIOR if inside else Membership.EXTERIOR
            mism += got is not want
    assert mism == 0


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def geometric_closed_form(a: GeometricSum, u: complex, axis: CDElement) -> CDElement:
    total = np.zeros(16)
    for coeff, ratio in a.terms:
        s = 1.0 / (1.0 - u / ratio)
        total += cd_mul(complex_embed(s, axis), CDElement(np.asarray(coeff))).coeffs
    return CDElement(total)


def test_evaluation_matches_the_complex_oracle_on_the_center_slice(rng):
    a = demo_sequence()
    p = center()
    worst = 0.0
    for _ in range(30):
        re = float(rng.uniform(-1.5, 1.5))
        im = float(rng.uniform(0.0, 2.4))
        if abs(complex(re, im) - p.z) > 1.8:
            continue
        q = wpoint_from(re, im, E1)
        rep = evaluate_series(q, p, a, max_terms=2000, tol=1e-12)
        assert rep.verdict is Verdict.CONVERGED
        expect = geometric_closed_form(a, q.z - p.z, E1.s)
        worst = max(worst, float(np.linalg.norm(rep.partial_sum.coeffs - expect.coeffs)))
    assert worst < 1e-9


def test_evaluation_on_the_lower_center_half_uses_the_reflected_variable():
    a = demo_sequence()
    p = center()
    q = wpoint("0.4-0.8e1")
    rep = evaluate_series(q, p, a, max_terms=2000, tol=1e-12)
    assert rep.verdict is Verdict.CONVERGED
    expect = geometric_closed_form(a, q.z.conjugate() - p.z, E1.s)
    assert np.linalg.norm(rep.partial_sum.coeffs - expect.coeffs) < 1e-9


def test_evaluation_with_real_endpoint_or_center():
    a = demo_sequence()
    p = center()
    q = wpoint("0.5")
    rep = evaluate_series(q, p, a, max_terms=2000, tol=1e-12)
    expect = geometric_closed_form(a, q.z - p.z, E1.s)
    assert np.linalg.norm(rep.partial_sum.coeffs - expect.coeffs) < 1e-9

    p2 = wpoint("1")
    q2 = wpoint("1+1.5e3")
    rep2 = evaluate_series(q2, p2, a, max_terms=2000, tol=1e-12)
    expect2 = geometric_closed_form(a, q2.z - p2.z, parse_element("e3").promote(4))
    assert np.linalg.norm(rep2.partial_sum.coeffs - expect2.coeffs) < 1e-9


def test_evaluation_at_the_center_returns_the_first_coefficient():
    a = demo_sequence()
    p = center()
    rep = evaluate_series(p, p, a)
    assert rep.verdict is Verdict.CONVERGED
    assert rep.terms_used == 1 and rep.tail_norm == 0.0
    assert np.array_equal(rep.partial_sum.coeffs, a.term(0))


def test_evaluation_matches_the_two_channel_closed_form_off_center(rng):
    a = demo_sequence()
    p = center()
    eye = np.eye(16)
    mp = p.axis.matrix
    for axis, im in ((E10, 1.8), (cker_curve_point(E1, E10, 0.7), 1.8),
                     (SliceUnit("e3"), 0.7)):
        q = wpoint_from(0.3, im, axis)
        assert domain_contains(q, p, a) is Membership.INTERIOR
        rep = evaluate_series(q, p, a, max_terms=800, tol=1e-12)
        assert rep.verdict is Verdict.CONVERGED
        mq = axis.matrix
        ops = ((eye - mq @ mp) / 2.0, (eye + mq @ mp) / 2.0)
        us = (q.z - p.z, q.z.conjugate() - p.z)
        expect = np.zeros(16)
        for coeff, ratio in a.terms:
            c = np.asarray(coeff)
            for op, u in zip(ops, us):
                s = 1.0 / (1.0 - u / ratio)
                chan = s.real * c + s.imag * (mp @ c)
                image = op @ chan
                if np.linalg.norm(image) > 1e-10 * np.linalg.norm(chan):
                    expect += image
        assert np.linalg.norm(rep.partial_sum.coeffs - expect) < 1e-7


def _definition_sums(q, p, a, terms, powers):
    """Partial sums of sum_l (q - p)^{*l} a_l by the definition: (q - p)^{*l}
    expanded in powers of q (`star_pow_center`, kept in `powers`), each
    coefficient c_m times a_l on the right, the polynomial evaluated at q."""
    total = CDElement(np.zeros(16))
    for ell in range(terms):
        poly = powers.setdefault(ell, star_pow_center(p, ell))
        a_l = CDElement(a.term(ell))
        total = total + eval_poly(Polynomial(tuple(cd_mul(c, a_l) for c in poly.coeffs)), q)
    return total


def test_block_evaluation_matches_the_definition_route(rng):
    # The evaluator runs two channels on complex steps; the definition route
    # shares none of that code.  The error is measured against the size of the
    # expansion, sum_l (|q| + |p|)^l |a_l|, whose terms cancel.
    c = kernel_of_left_mult(E1.s - E10.s).vectors()[0]
    seqs = [demo_sequence(), Lacunary.of("e4+e15", 2),
            GeometricSum.of([("e5", 1.5), (c, 4.0)]),
            GeometricSum.of([("0.00000000001e2+e4+e15", 2.0)])]  # 1e-11 off a kernel
    centers = [center(), wpoint("0.5"),
               wpoint_from(float(rng.uniform(-1, 1)), float(rng.uniform(0.3, 1)),
                           random_slice_unit(rng))]
    axes = [E1, E10, -E10, SliceUnit("e3"), random_slice_unit(rng)]
    worst = 0.0
    for p in centers:
        powers = {}
        for a in seqs:
            for axis in axes:
                qs = [wpoint_from(float(x), float(y), axis)
                      for x, y in rng.uniform(-2.0, 2.0, size=(4, 2))]
                for q, rep in zip(qs, evaluate_points(qs, p, a, max_terms=30, tol=0.0)):
                    want = _definition_sums(q, p, a, rep.terms_used, powers)
                    scale = sum((abs(q.z) + abs(p.z)) ** ell * np.linalg.norm(a.term(ell))
                                for ell in range(rep.terms_used))
                    err = np.linalg.norm(rep.partial_sum.coeffs - want.coeffs) / scale
                    worst = max(worst, err)
    assert worst < 1e-13


def test_evaluation_converges_in_the_waived_region_of_curve_slices():
    # reflected distance 2.8 sits outside the plain radius 2 but inside the
    # curve radius 3; the formally-dead channel must not poison the sum
    a = demo_sequence()
    p = center()
    for theta in (0.4, 0.7, 2.3):
        k = cker_curve_point(E1, E10, theta)
        q = wpoint_from(0.0, 1.8, k)
        assert domain_contains(q, p, a) is Membership.INTERIOR
        rep = evaluate_series(q, p, a, max_terms=400)
        assert rep.verdict is Verdict.CONVERGED
        out = wpoint_from(0.0, 2.3, k)
        assert domain_contains(out, p, a) is Membership.EXTERIOR
        assert evaluate_series(out, p, a, max_terms=400).verdict is Verdict.DIVERGED


def test_evaluation_diverges_cleanly_outside():
    a = demo_sequence()
    p = center()
    rep = evaluate_series(wpoint("4e1"), p, a)
    assert rep.verdict is Verdict.DIVERGED
    near = evaluate_series(wpoint_from(0.0, 3.05, E1), p, a, max_terms=400)
    assert near.verdict is Verdict.DIVERGED
    assert near.terms_used == 400
    on_circle = evaluate_series(wpoint("3e1"), p, a, max_terms=400)
    assert on_circle.verdict in (Verdict.DIVERGED, Verdict.UNDETERMINED)


def test_evaluation_handles_gap_sequences():
    lac = Lacunary.of("1", 1.0)
    p = center()
    inside = evaluate_series(wpoint("1.5e1"), p, lac, max_terms=200)
    assert inside.verdict is Verdict.CONVERGED
    outside = evaluate_series(wpoint("2.5e1"), p, lac, max_terms=200)
    assert outside.verdict is Verdict.DIVERGED


def test_a_gap_series_builds_only_blocks_that_hold_a_support_term(monkeypatch):
    # Of the 15,625 blocks of 64 terms in 10^6 terms, 15 hold a power of two.
    import sedenion.series as series

    built = []
    blocks = series._geometric_blocks

    def counting(*args):
        channels, block = blocks(*args)
        return channels, lambda start, zetas: built.append(start) or block(start, zetas)

    monkeypatch.setattr(series, "_geometric_blocks", counting)
    a = Lacunary.of("e4+e15", 2.0)
    rep = evaluate_series(wpoint("0.3+0.2e1"), center(), a, max_terms=10**6)
    support = [1 << k for k in range(20)]  # l < 10^6
    assert built == sorted({ell // 64 * 64 for ell in support})
    assert rep.terms_used == 10**6


def test_the_zero_gap_series_answers_as_the_zero_geometric_sum():
    p, q = center(), wpoint("0.5e1")
    gap = evaluate_series(q, p, Lacunary.of("0", 2.0))
    zero = evaluate_series(q, p, GeometricSum.of([("0", 2.0)]))
    assert gap == zero and gap.verdict is Verdict.CONVERGED
    res = convergence_scan(p, Lacunary.of("0", 2.0), E1, [1.0, 2.0], [0.5, 2.0])
    assert res.agreement == 1.0


def test_evaluation_validates_max_terms():
    with pytest.raises(ValueError):
        evaluate_series(wpoint("0.5e1"), center(), demo_sequence(), max_terms=0)


def test_tail_is_uniform_on_compacts_inside_the_domain(rng):
    # margin 0.5 from every active circle gives ratio at most 5/6, so the
    # convergence step count has a slice-independent bound
    from sedenion import basis

    a = demo_sequence()
    p = center()
    tol = 1e-8
    bound = math.ceil(math.log(tol / (2 * math.sqrt(2))) / math.log(5.0 / 6.0)) + 50
    generic = psi(1.1, 0.9, (basis(3, level=3), basis(5, level=3)))
    slices = [(E1, None), (E10, 3.0), (SliceUnit("e3"), 2.0),
              (cker_curve_point(E1, E10, 0.7), 3.0), (generic, None)]
    for axis, r2 in slices:
        if r2 is None and axis is not E1:
            r2 = radius_RapJ(a, p, axis)
            assert r2 == 2.0
        done = 0
        while done < 6:
            re = float(rng.uniform(-2, 2))
            im = float(rng.uniform(-2, 3)) if axis is E1 else float(rng.uniform(0, 3))
            q = wpoint_from(re, im, axis)
            if axis is E1:
                if np.linalg.norm(q.value.coeffs - p.value.coeffs) > 1.5:
                    continue
            else:
                z = complex(re, im)
                if abs(z - p.z) > 1.5 or abs(z - p.z.conjugate()) > r2 - 0.5:
                    continue
            done += 1
            rep = evaluate_series(q, p, a, max_terms=400, tol=tol)
            assert rep.verdict is Verdict.CONVERGED
            assert rep.terms_used <= bound
            assert rep.tail_norm < tol


# ---------------------------------------------------------------------------
# block evaluation against the one-term-at-a-time loop
# ---------------------------------------------------------------------------


def _reference_channel_images(op, v0, v1):
    out = []
    for v in (v0, v1):
        if op is None:
            out.append(None)
        elif isinstance(op, str):
            out.append(v if np.any(v) else None)
        else:
            image = op @ v
            small = np.linalg.norm(image) <= 1e-13 * np.linalg.norm(v)
            out.append(None if small else image)
    return out


def _reference_geometric_terms(groups, mp, c_plus, c_minus, step_p, step_m,
                               gaps=False):
    """Terms of a geometric sum; with `gaps`, zero rows off l = 1, 2, 4, ..."""
    comps = []
    for ratio, coeff in groups:
        v0 = np.asarray(coeff, dtype=float)
        v1 = mp @ v0
        images = (_reference_channel_images(c_plus, v0, v1)
                  + _reference_channel_images(c_minus, v0, v1))
        comps.append((step_p / ratio, step_m / ratio, images))
    zetas = [[1.0 + 0.0j, 1.0 + 0.0j] for _ in comps]
    ell = 0
    while True:
        term = np.zeros(16)
        for (sp, sm, images), zs in zip(comps, zetas):
            for zeta, re_img, im_img in ((zs[0], images[0], images[1]),
                                         (zs[1], images[2], images[3])):
                if re_img is not None:
                    term += zeta.real * re_img
                if im_img is not None:
                    term += zeta.imag * im_img
            zs[0] *= sp
            zs[1] *= sm
        on_support = ell >= 1 and ell & (ell - 1) == 0
        yield term if on_support or not gaps else np.zeros(16)
        ell += 1


def _reference_generic_terms(a, mp, c_plus, c_minus, step_p, step_m):
    zeta_p = 1.0 + 0.0j
    zeta_m = 1.0 + 0.0j
    ell = 0
    while True:
        avec = a.term(ell)
        term = np.zeros(16)
        for op, zeta in ((c_plus, zeta_p), (c_minus, zeta_m)):
            if op is None:
                continue
            chan = zeta.real * avec + zeta.imag * (mp @ avec)
            term += chan if isinstance(op, str) else op @ chan
        zeta_p *= step_p
        zeta_m *= step_m
        ell += 1
        yield term


def reference_evaluate(q, p, a, max_terms, tol=1e-8):
    """evaluate_series as one numpy step per term, kept as the bitwise oracle."""
    from sedenion.series import EvalReport
    from sedenion.slices import axis_sign

    a0 = a.term(0)
    if q.key == p.key:
        return EvalReport(partial_sum=CDElement(a0), terms_used=1,
                          verdict=Verdict.CONVERGED, tail_norm=0.0)
    mp = (q.axis if p.is_real else p.axis).matrix
    sign = 1 if q.is_real or p.is_real else axis_sign(q.axis, p.axis)
    if sign > 0:
        c_plus, c_minus = "id", None
    elif sign < 0:
        c_plus, c_minus = None, "id"
    else:
        prod = q.axis.matrix @ mp
        c_plus = (np.eye(16) - prod) / 2.0
        c_minus = (np.eye(16) + prod) / 2.0
    w, z = q.z, p.z
    step_p = w - z
    step_m = w.conjugate() - z
    if isinstance(a, (GeometricSum, Lacunary)):
        terms_iter = _reference_geometric_terms(zip(a.ratios, a.rows), mp, c_plus,
                                                c_minus, step_p, step_m,
                                                gaps=isinstance(a, Lacunary))
    else:
        terms_iter = _reference_generic_terms(a, mp, c_plus, c_minus, step_p, step_m)
    total = np.zeros(16)
    window = []
    verdict = Verdict.UNDETERMINED
    terms = 0
    quiet = 0
    for ell in range(max_terms):
        term = next(terms_iter)
        total += term
        terms = ell + 1
        tn = float(np.linalg.norm(term))
        window.append(tn)
        if len(window) > 50:
            window.pop(0)
        if not math.isfinite(tn) or tn > 1e6:
            verdict = Verdict.DIVERGED
            break
        if tn >= tol:
            quiet = 0
        elif tn > 0.0:
            quiet += 1
        if quiet >= 50:
            verdict = Verdict.CONVERGED
            break
    else:
        if window and max(window) < tol and (quiet or not isinstance(a, Lacunary)):
            verdict = Verdict.CONVERGED
        elif len(window) == 50 and min(window) > 1.0 and window[-1] >= window[0]:
            verdict = Verdict.DIVERGED
    return EvalReport(partial_sum=CDElement(total), terms_used=terms,
                      verdict=verdict,
                      tail_norm=max((math.inf if math.isnan(x) else x for x in window),
                                    default=0.0))


def _exact_support_sum(x, y, ratio, terms):
    """sum of ((x + iy) / ratio)^l over l = 1, 2, 4, ... below terms.

    The powers come from repeated squaring in exact rationals, and the sum
    is rounded once.  Returns the sum and the sum of the powers' moduli.
    """
    re, im = Fraction(x) / Fraction(ratio), Fraction(y) / Fraction(ratio)
    total_re = total_im = Fraction(0)
    size = 0.0
    ell = 1
    while ell < terms:
        total_re, total_im = total_re + re, total_im + im
        size += math.hypot(float(re), float(im))
        re, im = re * re - im * im, 2 * re * im
        ell *= 2
    return complex(float(total_re), float(total_im)), size


def lacunary_oracle(q, p, a, terms):
    """sum over the support l < terms of (q - p)^{*l} a_l for a gap series.

    The two-channel formula C_plus (w - z)^l a_l + C_minus (conj(w) - z)^l a_l
    with C_pm = (id -+ M_q M_p)/2, for q and p off the real axis.  The power
    sums of each channel are exact; a channel image below 1e-10 of the
    coefficient is rounding dust and is dropped.  Returns the sum and a
    scale for its rounding error.
    """
    assert not (q.is_real or p.is_real)
    mp = p.axis.matrix
    prod = q.axis.matrix @ mp
    c = np.asarray(a.coeff)
    w, z = q.z, p.z
    total, scale = np.zeros(16), 0.0
    for op, y in (((np.eye(16) - prod) / 2, w.imag), ((np.eye(16) + prod) / 2, -w.imag)):
        images = [op @ v for v in (c, mp @ c)]
        images = [img if np.linalg.norm(img) > 1e-10 * np.linalg.norm(c) else 0.0 * img
                  for img in images]
        if not np.any(images):
            continue  # a dead channel adds nothing, however large its powers
        power_sum, size = _exact_support_sum(Fraction(w.real) - Fraction(z.real),
                                             Fraction(y) - Fraction(z.imag),
                                             a.ratio, terms)
        total += power_sum.real * images[0] + power_sum.imag * images[1]
        scale += size * np.linalg.norm(c)
    return total, scale


def _oracle_table():
    rng = np.random.default_rng(11)
    values = [rng.normal(size=16) * 0.8 ** k for k in range(90)]
    for k in range(3, 90, 4):
        values[k] = np.zeros(16)
    return TableSeq.of(CDElement(v) for v in values)


ORACLE_SEQUENCES = {
    "geometric": [
        demo_sequence(),
        GeometricSum.of([("1", 3.0), ("-1", 3.0), ("e4+e15", 2.0), ("e1", 0.7)]),
        GeometricSum.of([("1", 1e-300), ("e4", 2.0)]),  # term 1 overflows to inf
    ],
    "lacunary": [
        Lacunary.of("e4+e15", 2.0),
        Lacunary.of("1+e3", 0.5),
        Lacunary.of("e4+e15", 1e-10),
        Lacunary.of("e4+e15", 0.001),  # r^-128 alone leaves the float range
    ],
    "table": [
        _oracle_table(),
        TableSeq.of(["0", "1", "e4+e15", "0.5e10", "0", "0.25", "e3"]),
        TableSeq.of(CDElement(1e300 * np.eye(16)[k]) for k in range(3)),
    ],
}


def _oracle_points():
    """(center, query) pairs: aligned, anti-aligned, generic and real centers."""
    from sedenion import basis

    curve = cker_curve_point(E1, E10, 0.7)
    generic = psi(1.1, 0.9, (basis(3, level=3), basis(5, level=3)))
    e1 = wpoint("e1")
    out = []
    for p, axes in ((e1, (E1, -E1, E10, -E10, curve, SliceUnit("e3"))),
                    (wpoint("0.5"), (E10, generic)),
                    (wpoint_from(0.2, 0.9, curve), (curve, -curve, E10, generic))):
        for axis in axes:
            for re, im in ((0.3, 1.2), (-0.4, 2.9), (0.0, 1.9), (1.1, 3.6),
                           (0.0001, 1.0), (0.0, 1e9)):
                out.append((p, wpoint_from(p.re + re, im, axis)))
    out.append((e1, wpoint("0.5+e1")))
    out.append((e1, wpoint("0.0001+e1")))
    out.append((e1, e1))
    return out


ORACLE_POINTS = _oracle_points()


def _outcome(rep):
    """Every bit of an evaluation report."""
    return (rep.partial_sum.coeffs.tobytes(), rep.terms_used, rep.verdict,
            np.float64(rep.tail_norm).tobytes())


@pytest.mark.parametrize("max_terms", [1, 63, 64, 65, 128, 129, 400])
@pytest.mark.parametrize("kind", sorted(ORACLE_SEQUENCES))
def test_block_evaluation_matches_the_term_loop_bitwise(kind, max_terms):
    for a in ORACLE_SEQUENCES[kind]:
        for p, q in ORACLE_POINTS:
            with np.errstate(all="ignore"):
                expect = _outcome(reference_evaluate(q, p, a, max_terms))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _outcome(evaluate_series(q, p, a, max_terms))
            assert got == expect, (a, p, q)


def test_block_oracle_cases_reach_every_outcome():
    seen = set()
    for seqs in ORACLE_SEQUENCES.values():
        for a in seqs:
            for p, q in ORACLE_POINTS:
                with np.errstate(all="ignore"):
                    rep = reference_evaluate(q, p, a, 400)
                seen.add(rep.verdict)
                if not np.all(np.isfinite(rep.partial_sum.coeffs)):
                    seen.add("non-finite sum")
    assert seen == {Verdict.CONVERGED, Verdict.DIVERGED, Verdict.UNDETERMINED,
                    "non-finite sum"}


def test_gap_series_match_the_exact_two_channel_sum():
    # The oracle shares no code with the evaluation: exact power sums over
    # the support instead of running float powers with a mask.  Only the
    # partial sum up to the reported term count is checked, not the verdict.
    sequences = ORACLE_SEQUENCES["lacunary"] + [
        Lacunary.of("0.5e4+0.5e15+0.5e5-0.5e14", 2.0)]
    checked = 0
    for a in sequences:
        for p, q in ORACLE_POINTS:
            if p.is_real or q.is_real or q.key == p.key:
                continue
            rep = evaluate_series(q, p, a, max_terms=400)
            if not np.all(np.isfinite(rep.partial_sum.coeffs)):
                continue
            expect, scale = lacunary_oracle(q, p, a, rep.terms_used)
            err = np.linalg.norm(rep.partial_sum.coeffs - expect)
            assert err <= 1e-12 * max(1.0, scale), (a, p, q)
            checked += 1
    assert checked > 150


def test_gap_series_with_kernel_coefficients_never_diverge_inside(rng):
    # Seeded hyper pairs (I, J) with a kernel vector of I - J as the gap
    # coefficient: C_minus of it is rounding dust, which must not grow.
    from sedenion import kernel_of_left_mult, random_hyper_pair

    inside = 0
    for _ in range(8):
        j1, j2 = random_hyper_pair(rng)
        ker = kernel_of_left_mult(j1.s - j2.s)
        c = rng.normal(size=ker.dim) @ ker.basis
        a = Lacunary.of(CDElement(c / np.linalg.norm(c)), 2.0)
        p = wpoint_from(float(rng.uniform(-1, 1)), float(rng.uniform(0.5, 1.5)), j1)
        thetas = [float(t) for t in rng.uniform(0.1, math.pi - 0.1, size=3)]
        res = convergence_scan(p, a, j2, [0.25 * k for k in range(1, 16)], thetas)
        for row in res.rows:
            if row.predicted is Membership.INTERIOR:
                inside += 1
                assert row.empirical is not Verdict.DIVERGED, row
    assert inside > 100


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_block_evaluation_memory_does_not_grow_with_max_terms():
    p = center()
    rep, peak = _peak_bytes(lambda: evaluate_series(
        wpoint("1.5e1"), p, demo_sequence(), max_terms=10**12))
    assert rep.verdict is Verdict.CONVERGED
    assert peak < 256 * 1024
    # a table is a finite sum that reports the full budget as its terms
    short = TableSeq.of(["1", "e4+e15"])
    for max_terms in (200, 50_000):
        rep, peak = _peak_bytes(lambda: evaluate_series(
            wpoint("0.5+e1"), p, short, max_terms=max_terms))
        assert rep.terms_used == max_terms
        assert peak < 256 * 1024


def test_block_evaluation_stops_before_an_unreachable_overflow():
    # the terms grow like (0.5 / 1e-10)^l; the sum diverges at term 1
    rep = evaluate_series(wpoint("0.5+e1"), center(), Lacunary.of("e4+e15", 1e-10))
    assert rep.verdict is Verdict.DIVERGED
    assert rep.terms_used == 2


# ---------------------------------------------------------------------------
# point batches against the one-point term loop
# ---------------------------------------------------------------------------


def _mixed_batches():
    """Per center, one shuffled list: the oracle points (slices, their
    negatives, kernel-curve slices), real points and the center itself."""
    by_center = {}
    for p, q in ORACLE_POINTS:
        by_center.setdefault(p, []).append(q)
    rng = np.random.default_rng(5)
    out = []
    for p, qs in by_center.items():
        qs = qs + [wpoint_from(p.re + dx, 0.0, E1) for dx in (-0.7, 0.3, 2.5)] + [p]
        out.append((p, [qs[i] for i in rng.permutation(len(qs))]))
    return out


MIXED_BATCHES = _mixed_batches()


def _batch_outcome(qs, p, a, max_terms):
    """Every bit of each report of one batch."""
    return [_outcome(rep) for rep in evaluate_points(qs, p, a, max_terms=max_terms)]


def _expected_batch(qs, p, a, max_terms):
    """The reference outcome of each point."""
    with np.errstate(all="ignore"):
        return [_outcome(reference_evaluate(q, p, a, max_terms)) for q in qs]


@pytest.mark.parametrize("max_terms", [1, 63, 64, 65, 400])
@pytest.mark.parametrize("kind", sorted(ORACLE_SEQUENCES))
def test_point_batches_match_the_term_loop_bitwise(kind, max_terms):
    for a in ORACLE_SEQUENCES[kind]:
        for p, qs in MIXED_BATCHES:
            expect = _expected_batch(qs, p, a, max_terms)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _batch_outcome(qs, p, a, max_terms)
            assert got == expect, (a, p)


def _slice_points(count):
    """count points around e1 on e10 and -e10, inside and outside the domain."""
    rng = np.random.default_rng(count)
    return [wpoint_from(float(x), float(y), E10)
            for x, y in rng.uniform([-1.5, -3.5], [1.5, 3.5], size=(count, 2))]


def test_point_batches_split_into_chunks_bitwise(monkeypatch):
    import sedenion.series as series

    p = center()
    for a in (demo_sequence(), _oracle_table()):
        for count in (series._CHUNK - 1, series._CHUNK, series._CHUNK + 1):
            qs = _slice_points(count)
            assert _batch_outcome(qs, p, a, 65) == _expected_batch(qs, p, a, 65)
        monkeypatch.setattr(series, "_CHUNK", 4)
        for count in (3, 4, 5, 9):
            qs = _slice_points(count)
            assert _batch_outcome(qs, p, a, 130) == _expected_batch(qs, p, a, 130)
        monkeypatch.undo()


def test_point_batch_memory_does_not_grow_with_the_point_count():
    # 10,000 points in one block each: unchunked, one (64, points, 16) block
    # alone would take 82 MB.  What the call keeps is its reports.
    # |zeta| = 0.95 on the center slice: no point stops within 64 terms
    qs = [wpoint_from(1.9 * math.cos(t), 1.0 + 1.9 * math.sin(t), E1)
          for t in np.linspace(0.1, math.pi - 0.1, 10_000)]
    tracemalloc.start()
    try:
        reports = evaluate_points(qs, center(), demo_sequence(), max_terms=64)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(reports) == 10_000
    assert all(rep.terms_used == 64 for rep in reports)
    assert peak - kept < 16 * 1024 * 1024


def test_point_batch_past_the_old_overflow_returns_reports():
    # a_32 = c * 1e320 leaves the float range and saturates.  Points at
    # distance 1 from the center diverge at term 1; at 1e-10 each support
    # term has norm about sqrt(2), so the sum runs through a_128.
    a = Lacunary.of("e4+e15", 1e-10)
    p = center()
    qs = [wpoint("0.5+e1"), wpoint_from(0.0, 2.0, E10), wpoint("1"),
          wpoint_from(0.0, 1.0 + 1e-10, E1)]
    saturated = np.zeros(16)
    saturated[[4, 15]] = math.inf
    np.testing.assert_array_equal(a.term(32), saturated)
    assert _batch_outcome(qs, p, a, 200) == _expected_batch(qs, p, a, 200)
    *far, near = evaluate_points(qs, p, a)
    assert all(rep.verdict is Verdict.DIVERGED for rep in far)
    assert near.terms_used == 200
    expect, scale = lacunary_oracle(qs[-1], p, a, 200)
    assert np.linalg.norm(near.partial_sum.coeffs - expect) <= 1e-12 * scale


def test_point_batches_keep_the_input_order_and_validate():
    p = center()
    qs = [wpoint("1.5e1"), p, wpoint("2"), wpoint("0.5+e10"), wpoint("1.5e1")]
    reports = evaluate_points(qs, p, demo_sequence())
    assert [rep.terms_used for rep in reports] == \
        [evaluate_series(q, p, demo_sequence()).terms_used for q in qs]
    assert reports[1].terms_used == 1 and reports[1].tail_norm == 0.0
    assert evaluate_points([], p, demo_sequence()) == []
    with pytest.raises(ValueError):
        evaluate_points(qs, p, demo_sequence(), max_terms=0)


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def test_scan_agrees_on_the_reference_slices():
    a = demo_sequence()
    p = center()
    radial = [0.2 * k for k in range(1, 21)]
    angular = [math.pi / 2]
    boundary_at = {"e1": 3.0, "e10": 2.0, "-e10": 1.0, "e3": 1.0}
    for name, r_bnd in boundary_at.items():
        res = convergence_scan(p, a, SliceUnit(name), radial, angular)
        assert len(res.rows) == 20
        assert (res.scored, res.agreed) == (19, 19)
        assert res.agreement == 1.0
        excluded = [r for r in res.rows if r.predicted is Membership.BOUNDARY]
        assert len(excluded) == 1
        assert math.hypot(excluded[0].re, excluded[0].im) == pytest.approx(r_bnd)


def _exactly_in_the_kernel(p, j, c):
    """(I_p - J)c == 0 in exact rational arithmetic."""
    from sedenion.algebra import _mul_list

    diff = [Fraction(x) - Fraction(y) for x, y in zip(p.axis.key, j.key)]
    return not any(_mul_list(diff, [Fraction(x) for x in c]))


MODULUS_SEQUENCES = {
    "demo": demo_sequence(),
    "lacunary": Lacunary.of("e4+e15", 2.0),
    # a dyadic mix of the four basis-aligned kernel vectors of e1 - e10
    "lacunary-mix": Lacunary.of("0.75e4-0.5e5+0.375e6+0.25e7-0.25e12+0.375e13+0.5e14+0.75e15",
                                2.0),
}


@pytest.mark.parametrize("seq", sorted(MODULUS_SEQUENCES))
def test_scan_verdicts_respect_the_channel_moduli(seq):
    # Each ratio group (r, c) adds (w - z_p)^l / r^l through the direct channel
    # and (conj(w) - z_p)^l / r^l through the reflected one, which is dead
    # exactly when (I_p - J)c = 0.  Above the real axis |w - z_p| <= |conj(w) - z_p|,
    # so the reflected modulus is the largest live one unless that channel is
    # dead.  A row whose largest live modulus exceeds 1 has terms that never
    # shrink, so it is never Converged; below 1 they all shrink geometrically,
    # so it is never Diverged.  The moduli come from plain complex numbers and
    # the kernel test from exact rationals, not from the channel images the
    # evaluation uses.
    a = MODULUS_SEQUENCES[seq]
    p = center()
    rng = np.random.default_rng(31)
    thetas = [0.7, 1.5] + rng.uniform(0.0, math.pi, size=6).tolist()
    radial = [0.2 * k for k in range(1, 21)]
    checked = Counter()
    for name in ("e1", "e10", "-e10", "e3"):
        j = SliceUnit(name)
        groups = [(r, _exactly_in_the_kernel(p, j, c)) for r, c in zip(a.ratios, a.rows)]
        for row in convergence_scan(p, a, j, radial, thetas).rows:
            w = complex(row.re, row.im)
            zeta = max(abs((w if dead else w.conjugate()) - p.z) / r for r, dead in groups)
            if zeta > 1.0:
                assert row.empirical is not Verdict.CONVERGED, (name, row)
                checked["outside"] += 1
            elif zeta < 1.0:
                assert row.empirical is not Verdict.DIVERGED, (name, row)
                checked["inside"] += 1
    assert min(checked.values()) > 100


@pytest.mark.parametrize("eps", ["0.000000001", "0.0000000001", "0.00000000003",
                                 "0.00000000001", "0.000000000001", "0.0000000000001",
                                 "0.00000000000001"])
def test_scan_never_contradicts_itself_near_the_kernel_threshold(eps):
    # {1 at ratio 3, eps*e2 + e4+e15 at ratio 2}: e2 is orthogonal to
    # ker(e1 - e10), so on the slice of e10 the series has R_a^{p,J} = 2 for
    # every eps > 0, and evaluation carries eps*e2 unless it is rounding
    # dust.  radius_RapJ reads eps below PERP_THRESHOLD of the coefficient
    # as inside the kernel (3).  Between CHANNEL_DUST and PERP_THRESHOLD the
    # scan scores no point whose membership depends on that reading, and
    # there evaluation diverges where the radius alone would say Interior.
    # The scan's predicted column is Domain.classify, code for code.
    from sedenion._tol import CHANNEL_DUST, SCAN_BAND

    a = GeometricSum.of([("1", 3.0), (f"{eps}e2+e4+e15", 2.0)])
    radial, thetas = [0.25 * k for k in range(1, 14)], [math.pi / 2, 1.2, 2.0]
    res = convergence_scan(center(), a, E10, radial, thetas)
    codes = Domain(center(), a).classify(*polar_grid(radial, thetas), E10, SCAN_BAND)
    assert [r.predicted for r in res.rows] == [Membership.of(c) for c in codes.ravel().tolist()]
    pairs = Counter((r.predicted, r.empirical) for r in res.rows)
    assert pairs[Membership.INTERIOR, Verdict.DIVERGED] == 0, pairs
    assert pairs[Membership.EXTERIOR, Verdict.CONVERGED] == 0, pairs
    assert res.scored > 20
    band = CHANNEL_DUST < float(eps) / math.sqrt(2.0) <= PERP_THRESHOLD
    assert (pairs[Membership.BOUNDARY, Verdict.DIVERGED] > 0) == band, pairs


@pytest.mark.parametrize("eps", ["0.000000001", "0.00000000001", "0.00000000000001"])
def test_membership_is_boundary_in_the_threshold_band_and_plain_outside_it(eps):
    # The sequence above, with eps counted at both floors, in the band, and
    # dust at both.  On e10 the reflected radius reads 3 when eps*e2 counts
    # as inside ker(e1 - e10) and 2 when it does not; on -e10 it is 2 either
    # way.  Where both floors give one radius, contains and classify follow
    # the plain two-disk rule at it; in the band they call Boundary exactly
    # the points whose plain calls at 2 and at 3 differ.
    from sedenion._tol import CHANNEL_DUST, MEMBERSHIP_BAND

    p, a = center(), GeometricSum.of([("1", 3.0), (f"{eps}e2+e4+e15", 2.0)])
    rel = float(eps) / math.sqrt(2.0)
    readings = {3.0 if rel <= PERP_THRESHOLD else 2.0, 3.0 if rel <= CHANNEL_DUST else 2.0}
    dom = Domain(p, a)
    assert set(dom.disks(E10)[3:]) == readings and dom.disks(-E10)[3:] == (2.0, 2.0)
    re, im = polar_grid([0.1 * k for k in range(1, 45)],
                        [2.0 * math.pi * (k + 0.5) / 24 for k in range(24)])
    codes = dom.classify(re, im, E10).ravel().tolist()
    seen = Counter()
    for x, y, code in zip(re.ravel().tolist(), im.ravel().tolist(), codes):
        q = wpoint_from(x, y, E10)
        calls = {_reference_membership(q, p, 2.0, r2, MEMBERSHIP_BAND)
                 for r2 in (readings if y >= 0.0 else {2.0})}
        want = calls.pop() if len(calls) == 1 else Membership.BOUNDARY
        assert Membership.of(code) is want is domain_contains(q, p, a), (x, y)
        seen[want, "banded" if calls else "plain"] += 1
    assert seen[Membership.INTERIOR, "plain"] > 20 and seen[Membership.EXTERIOR, "plain"] > 20
    assert (seen[Membership.BOUNDARY, "banded"] > 20) == (len(readings) == 2), seen


def test_scan_rejects_empty_grids():
    with pytest.raises(ValueError):
        convergence_scan(center(), demo_sequence(), E10, [], [1.0])
    with pytest.raises(ValueError):
        convergence_scan(center(), demo_sequence(), E10, [1.0], [])
