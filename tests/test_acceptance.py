"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS line with its measured numbers (visible with
pytest -s); the assertions hold the stated tolerances and time budgets.
"""

import math
import time

import numpy as np

from sedenion import (
    CDElement,
    Membership,
    SliceUnit,
    Subspace,
    cd_mul,
    cker_membership,
    complex_embed,
    convergence_scan,
    demo_sequence,
    domain_contains,
    evaluate_series,
    from_polar,
    iota_frame,
    is_hyper_solution,
    kernel_of_left_mult,
    kernel_zeta,
    left_mult_matrix,
    mul_batch,
    parse_element,
    principal_angles,
    psi,
    radius_Ra,
    radius_Rap,
    random_hyper_pair,
    random_slice_unit,
    verify_table,
    wpoint,
    wpoint_from,
)

from util import SEED, Polynomial, star_mul, star_pow_center

E1 = SliceUnit("e1")
E10 = SliceUnit("e10")


def test_criterion_1_multiplication_table_is_exact_and_fast():
    start = time.perf_counter()
    matches, total = verify_table()
    elapsed = time.perf_counter() - start
    assert (matches, total) == (256, 256)
    assert elapsed < 0.1
    print(f"PASS criterion 1: multiplication table {matches}/{total} exact "
          f"in {elapsed * 1000:.1f} ms")


def test_criterion_2_flagship_zero_divisor_and_kernel():
    prod = cd_mul(parse_element("e1-e10"), parse_element("e4+e15"))
    assert np.array_equal(prod.coeffs, np.zeros(16))
    ker = kernel_of_left_mult(parse_element("e1-e10"))
    assert ker.dim == 4
    reference = Subspace.from_span(np.stack([
        parse_element(t).promote(4).coeffs
        for t in ("e4+e15", "e5-e14", "e6+e13", "e7-e12")]))
    angle = float(principal_angles(ker, reference).max())
    assert angle < 1e-10
    print(f"PASS criterion 2: (e1-e10)(e4+e15) = 0 exactly, kernel dim 4, "
          f"principal angle {angle:.2e} < 1e-10")


def test_criterion_3_demo_radii_are_exact_with_a_live_witness():
    a = demo_sequence()
    p = wpoint("e1")
    ra = radius_Ra(a)
    rap, witness = radius_Rap(a, p)
    assert ra == 2.0
    assert rap == 3.0
    assert witness is not None
    assert cker_membership(witness, E1, E10)
    print(f"PASS criterion 3: R_a = {ra}, R_a^p = {rap} exact, witness on "
          f"the kernel curve")


def test_criterion_4_four_case_cross_sections_on_a_dense_grid():
    a = demo_sequence()
    p = wpoint("e1")
    band = 0.005
    cases = [
        (E1, None),          # center plane: one disk
        (E10, 3.0),          # witness slice: reflected disk radius 3
        (-E10, 2.0),
        (SliceUnit("e3"), 2.0),
    ]
    zp = complex(0.0, 1.0)

    def state(dist, radius):
        if dist == 0.0 or dist < radius - band:
            return -1
        if dist > radius + band:
            return 1
        return 0

    start = time.perf_counter()
    checked = skipped = wrong = 0
    for axis, r2 in cases:
        for i in range(100):
            theta = math.pi * i / 99
            for k in range(1, 101):
                r = 4.0 * k / 100
                z = complex(r * math.cos(theta), r * math.sin(theta))
                q = wpoint_from(z.real, z.imag, axis)
                got = domain_contains(q, p, a, band=band)
                if r2 is None:
                    states = [state(abs(z - zp), 2.0)]
                else:
                    states = [state(abs(z - zp), 2.0),
                              state(abs(z - zp.conjugate()), r2)]
                if any(s > 0 for s in states):
                    want = Membership.EXTERIOR
                elif all(s < 0 for s in states):
                    want = Membership.INTERIOR
                else:
                    skipped += 1
                    continue
                checked += 1
                wrong += got is not want
    elapsed = time.perf_counter() - start
    assert wrong == 0
    assert elapsed < 5.0
    print(f"PASS criterion 4: four-case grid 4x100x100, {checked} points "
          f"classified, 0 wrong ({skipped} in the 0.01 band), "
          f"{elapsed:.2f} s < 5 s")


def test_criterion_5_scan_agreement_on_representative_slices():
    a = demo_sequence()
    p = wpoint("e1")
    radial = [round(0.2 * k, 12) for k in range(1, 21)]
    start = time.perf_counter()
    total_scored = total_agreed = 0
    for name in ("e1", "e10", "-e10", "e3"):
        res = convergence_scan(p, a, SliceUnit(name), radial, [math.pi / 2],
                               max_terms=400, tol=1e-8, band=0.05)
        assert res.agreement == 1.0
        total_scored += res.scored
        total_agreed += res.agreed
    elapsed = time.perf_counter() - start
    assert total_agreed == total_scored == 76
    assert elapsed < 10.0
    print(f"PASS criterion 5: scan {total_agreed}/{total_scored} agreement "
          f"on 4 slices, {elapsed:.2f} s < 10 s")


def test_criterion_6_hyper_detection_matches_rank_and_kernel():
    rng = np.random.default_rng(SEED)
    disagreements = 0
    for n in range(2000):
        if n < 1000:
            j1, j2 = random_hyper_pair(rng)
        else:
            j1, j2 = random_slice_unit(rng), random_slice_unit(rng)
        hyper = is_hyper_solution(j1, j2)
        # absolute tol: near-coincident pairs shrink the whole matrix, which
        # would pull a relative threshold below the eps-scale noise floor
        rank = int(np.linalg.matrix_rank(left_mult_matrix(j1.s - j2.s),
                                         tol=1e-9))
        zeta = kernel_zeta(j1, j2)
        if not (hyper == (rank < 16) == (len(zeta) > 0)):
            disagreements += 1
    assert disagreements == 0
    print("PASS criterion 6: hyper test == rank deficiency == zeta kernel on "
          "1000 hyper + 1000 generic pairs, 0 disagreements")


def test_criterion_7_polar_forms_reconstruct_and_frames_match():
    rng = np.random.default_rng(SEED)
    worst_unit = 0.0
    for _ in range(1000):
        s = random_slice_unit(rng)
        back = from_polar(s.alpha, s.theta, s.jmath)
        worst_unit = max(worst_unit,
                         float(np.abs(back.s.coeffs - s.s.coeffs).max()))
    assert worst_unit < 1e-9

    worst_alpha = worst_frame = 0.0
    for _ in range(1000):
        j1, j2 = random_hyper_pair(rng)
        worst_alpha = max(worst_alpha, abs(j1.alpha - j2.alpha))
        i1, i2, alpha = iota_frame(j1, j2)
        r1 = psi(alpha, j1.theta, (i1, i2))
        r2 = psi(alpha, j2.theta, (i1, i2))
        worst_frame = max(worst_frame,
                          float(np.abs(r1.s.coeffs - j1.s.coeffs).max()),
                          float(np.abs(r2.s.coeffs - j2.s.coeffs).max()))
    assert worst_alpha < 1e-9
    assert worst_frame < 1e-9

    i1, i2, alpha = iota_frame(E1, E10)
    assert i1 == parse_element("e1").promote(3)
    assert i2 == parse_element("e2").promote(3)
    assert alpha == math.pi / 2
    print(f"PASS criterion 7: 1000 polar roundtrips (max {worst_unit:.2e}), "
          f"1000 hyper frames (max {worst_frame:.2e}), flagship frame exact")


def test_criterion_8_norm_bounds_projections_and_kernel_monomials():
    rng = np.random.default_rng(SEED)

    a8 = rng.normal(size=(100_000, 8))
    b8 = rng.normal(size=(100_000, 8))
    prod = mul_batch(a8, b8)
    lhs = np.linalg.norm(prod, axis=1)
    rhs = np.linalg.norm(a8, axis=1) * np.linalg.norm(b8, axis=1)
    oct_resid = float(np.max(np.abs(lhs - rhs) / rhs))
    assert oct_resid < 1e-12

    a16 = rng.normal(size=(100_000, 16))
    b16 = rng.normal(size=(100_000, 16))
    prod16 = mul_batch(a16, b16)
    ratio = np.linalg.norm(prod16, axis=1) / (
        np.linalg.norm(a16, axis=1) * np.linalg.norm(b16, axis=1))
    sed_max = float(ratio.max())
    assert sed_max <= math.sqrt(2) + 1e-12

    comm = 0.0
    for _ in range(1000):
        j1, j2 = random_hyper_pair(rng)
        pm = kernel_of_left_mult(j1.s - j2.s).projector
        pp = kernel_of_left_mult(j1.s + j2.s).projector
        for mat in (np.eye(16), j1.matrix, j2.matrix):
            comm = max(comm, float(np.abs(pm @ mat - mat @ pm).max()),
                       float(np.abs(pp @ mat - mat @ pp).max()))
    assert comm < 1e-9

    mono = 0.0
    for _ in range(1000):
        j1, j2 = random_hyper_pair(rng)
        ker = kernel_of_left_mult(j1.s - j2.s)
        c = ker.project(rng.normal(size=16))
        scale = float(np.linalg.norm(c.coeffs))
        if scale < 1e-9:
            continue
        re, im = rng.normal(), abs(rng.normal()) + 0.1
        ell = int(rng.integers(1, 5))
        mi = star_mul(star_pow_center(wpoint_from(re, im, j1), ell),
                      Polynomial((c,)))
        mj = star_mul(star_pow_center(wpoint_from(re, im, j2), ell),
                      Polynomial((c,)))
        for ci, cj in zip(mi.coeffs, mj.coeffs):
            mono = max(mono, float(np.abs(ci.coeffs - cj.coeffs).max()) / scale)
    assert mono < 1e-9
    print(f"PASS criterion 8: octonion multiplicativity {oct_resid:.2e} "
          f"(1e5 pairs), sedenion ratio max {sed_max:.6f} <= sqrt(2), "
          f"projection commutators {comm:.2e}, kernel monomials {mono:.2e}")


def test_criterion_9_evaluation_agrees_with_the_complex_oracle():
    rng = np.random.default_rng(SEED)
    a = demo_sequence()
    p = wpoint("e1")
    worst = 0.0
    done = 0
    while done < 100:
        re = float(rng.uniform(-2.0, 2.0))
        im = float(rng.uniform(-1.0, 3.0))
        w = complex(re, im)
        if abs(w - p.z) > 0.9 * 2.0:
            continue
        done += 1
        q = wpoint_from(re, im, E1)
        rep = evaluate_series(q, p, a, max_terms=2000, tol=1e-13)
        expect = np.zeros(16)
        for coeff, ratio in a.terms:
            s = 1.0 / (1.0 - (w - p.z) / ratio)
            expect += cd_mul(complex_embed(s, E1.s),
                             CDElement(np.asarray(coeff))).coeffs
        worst = max(worst, float(np.linalg.norm(rep.partial_sum.coeffs - expect)))
    assert worst < 1e-9
    print(f"PASS criterion 9: 100 center-slice evaluations within "
          f"{worst:.2e} of the closed form")
