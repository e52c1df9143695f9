import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sedenion import (
    CDElement,
    basis,
    cd_mul,
    cd_mul_recursive,
    complex_coords,
    complex_embed,
    conjugate,
    element_from_json,
    element_to_json,
    format_element,
    format_real,
    inner,
    left_mult_matrix,
    mul_batch,
    multiplication_table,
    norm,
    one,
    parse_element,
    right_mult_matrix,
    verify_table,
    zero,
)

from sedenion.algebra import _BLOCK
from util import random_element

int16 = st.lists(st.integers(-9, 9), min_size=16, max_size=16)


def elem(ints):
    return CDElement(np.asarray(ints, dtype=float))


# --- table and basis structure ---------------------------------------------


def test_generated_table_matches_recorded_fixture():
    assert verify_table() == (256, 256)


def test_sign_rule_matches_the_recursion_on_every_basis_pair():
    from sedenion.algebra import _mul_list

    table = multiplication_table()
    for m in range(16):
        for n in range(16):
            a, b = [0] * 16, [0] * 16
            a[m] = b[n] = 1
            sign, k = table[m][n]
            expect = [0] * 16
            expect[k] = sign
            assert _mul_list(a, b) == expect, (m, n)


def test_quaternion_subtable():
    table = multiplication_table(2)
    # i*j = k and the rest of the classical relations
    assert table[1][2] == (1, 3)
    assert table[2][1] == (-1, 3)
    assert table[3][1] == (1, 2)
    assert table[1][1] == (-1, 0)


def test_imaginary_basis_squares_to_minus_one():
    for k in range(1, 16):
        assert cd_mul(basis(k, 4), basis(k, 4)) == -one(4)


def test_distinct_imaginary_basis_anticommute():
    for i in range(1, 16):
        for j in range(i + 1, 16):
            ij = cd_mul(basis(i, 4), basis(j, 4))
            ji = cd_mul(basis(j, 4), basis(i, 4))
            assert ij == -ji


def test_doubling_index_identity():
    # e_{m + 2^n} = e_m * e_{2^n} whenever m < 2^n
    for n in range(4):
        step = 2 ** n
        for m in range(step):
            got = cd_mul(basis(m, 4), basis(step, 4))
            assert got == basis(m + step, 4)


def test_one_is_identity():
    a = parse_element("2+e3-0.5e11")
    assert cd_mul(one(4), a.promote(4)) == a.promote(4)
    assert cd_mul(a.promote(4), one(4)) == a.promote(4)


# --- ring axioms and the recursion ------------------------------------------


@settings(max_examples=60, deadline=None)
@given(int16, int16, int16)
def test_product_is_bilinear(xs, ys, zs):
    a, b, c = elem(xs), elem(ys), elem(zs)
    assert cd_mul(a + b, c) == cd_mul(a, c) + cd_mul(b, c)
    assert cd_mul(a, b + c) == cd_mul(a, b) + cd_mul(a, c)


@settings(max_examples=60, deadline=None)
@given(int16, int16)
def test_tensor_product_matches_doubling_recursion(xs, ys):
    a, b = elem(xs), elem(ys)
    assert cd_mul(a, b) == cd_mul_recursive(a, b)


@settings(max_examples=60, deadline=None)
@given(int16, int16)
def test_conjugation_is_antiautomorphism(xs, ys):
    a, b = elem(xs), elem(ys)
    assert conjugate(cd_mul(a, b)) == cd_mul(conjugate(b), conjugate(a))


@settings(max_examples=60, deadline=None)
@given(int16, int16)
def test_integer_products_stay_integer(xs, ys):
    prod = cd_mul(elem(xs), elem(ys))
    assert np.array_equal(prod.coeffs, np.round(prod.coeffs))


def test_conjugate_recovers_norm_square(rng):
    for _ in range(50):
        a = random_element(rng)
        aa = cd_mul(a, conjugate(a))
        assert abs(aa.coeffs[0] - norm(a) ** 2) < 1e-10
        assert np.linalg.norm(aa.coeffs[1:]) < 1e-10


# --- where associativity stops ----------------------------------------------


def test_octonions_are_alternative(rng):
    worst = 0.0
    for _ in range(200):
        a = random_element(rng, dim=8)
        b = random_element(rng, dim=8)
        left = cd_mul(cd_mul(a, a), b)
        right = cd_mul(a, cd_mul(a, b))
        worst = max(worst, (left - right).norm())
    assert worst < 1e-12


def test_sedenions_are_not_alternative():
    a = parse_element("e1+e10").promote(4)
    b = basis(4, 4)
    left = cd_mul(cd_mul(a, a), b)
    right = cd_mul(a, cd_mul(a, b))
    assert left == elem([0] * 4 + [-2] + [0] * 11)
    assert right == elem([0] * 4 + [-2] + [0] * 10 + [-2])


def test_associativity_failure_regression():
    e1, e2, e9 = basis(1, 4), basis(2, 4), basis(9, 4)
    assert cd_mul(cd_mul(e1, e2), e9) == -basis(10, 4)
    assert cd_mul(e1, cd_mul(e2, e9)) == basis(10, 4)


def test_octonion_norms_multiply(rng):
    worst = 0.0
    for _ in range(200):
        a = random_element(rng, dim=8)
        b = random_element(rng, dim=8)
        worst = max(worst, abs(norm(cd_mul(a, b)) - norm(a) * norm(b)))
    assert worst < 1e-12


def test_sedenion_norms_do_not_multiply():
    a = parse_element("e1-e10").promote(4)
    b = parse_element("e4+e15").promote(4)
    assert cd_mul(a, b).is_zero()
    assert norm(a) * norm(b) == pytest.approx(2.0)


# --- operator matrices --------------------------------------------------------


def test_mult_matrices_realize_products(rng):
    for _ in range(30):
        s = random_element(rng)
        x = random_element(rng)
        assert np.allclose(left_mult_matrix(s) @ x.coeffs,
                           cd_mul(s, x).coeffs, atol=1e-12)
        assert np.allclose(right_mult_matrix(s) @ x.coeffs,
                           cd_mul(x, s).coeffs, atol=1e-12)


def test_mult_matrices_match_recursion_column_by_column(rng):
    for _ in range(20):
        s = CDElement(rng.integers(-9, 10, size=16).astype(float))
        cols = [basis(n, level=4) for n in range(16)]
        left = np.column_stack([cd_mul_recursive(s, e).coeffs for e in cols])
        right = np.column_stack([cd_mul_recursive(e, s).coeffs for e in cols])
        assert np.array_equal(left_mult_matrix(s), left)
        assert np.array_equal(right_mult_matrix(s), right)


@pytest.mark.parametrize("rows", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1])
@pytest.mark.parametrize("level", range(5))
def test_mul_batch_matches_scalar_products(rng, level, rows):
    A = rng.normal(size=(rows, 1 << level))
    B = rng.normal(size=(rows, 1 << level))
    got = mul_batch(A, B)
    assert got.shape == A.shape
    for i in range(rows):
        want = cd_mul(CDElement(A[i]), CDElement(B[i]))
        assert got[i].tobytes() == want.coeffs.tobytes()


def test_inner_is_euclidean(rng):
    a, b = random_element(rng), random_element(rng)
    assert abs(inner(a, b) - float(a.coeffs @ b.coeffs)) < 1e-14


# --- text and json ------------------------------------------------------------


def test_parse_examples():
    assert parse_element("e1-e10").promote(4) == elem(
        [0, 1] + [0] * 8 + [-1] + [0] * 5)
    assert parse_element("0.5+2e4") == CDElement(
        np.array([0.5, 0, 0, 0, 2.0, 0, 0, 0]))
    assert parse_element("-3") == CDElement(np.array([-3.0]))
    # e-digits is always a basis token, never scientific notation
    assert parse_element("1e1") == basis(1)
    assert parse_element("2e1") == CDElement(np.array([0.0, 2.0]))


def test_parse_minimal_level():
    assert parse_element("e1").level == 1
    assert parse_element("e3").level == 2
    assert parse_element("e7").level == 3
    assert parse_element("e8").level == 4
    assert parse_element("1").level == 0


@pytest.mark.parametrize("bad", ["", "e16", "e1e2", "1.5.5", "++2", "2 3", "q"])
def test_parse_rejects_malformed_text(bad):
    with pytest.raises(ValueError):
        parse_element(bad)


@pytest.mark.parametrize("text, token", [
    ("9" * 400, "9" * 400),
    ("e1-" + "9" * 400 + "e2", "-" + "9" * 400 + "e2"),
    ("1" + "0" * 308 + "+1" + "0" * 308, "+1" + "0" * 308),
], ids=["numeral", "basis-coefficient", "sum-of-two-numerals"])
def test_parse_rejects_numbers_beyond_the_float_range(text, token):
    with pytest.raises(ValueError, match="out of the float range") as exc:
        parse_element(text)
    assert repr(token) in str(exc.value)


def test_format_examples():
    assert format_element(zero(4)) == "0"
    assert format_element(parse_element("e1-e10")) == "e1-e10"
    assert format_element(parse_element("-1+0.5e4")) == "-1+0.5e4"
    assert format_element(one(4)) == "1"


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(-2048, 2048), min_size=16, max_size=16))
def test_text_roundtrip_on_dyadics(ints):
    a = CDElement(np.asarray(ints, dtype=float) / 256.0)
    assert parse_element(format_element(a)).promote(4) == a


def test_format_avoids_scientific_notation():
    v = np.zeros(16)
    v[4] = 1e-13
    text = format_element(CDElement(v))
    a = parse_element(text)
    assert a.promote(4).coeffs[4] == 1e-13
    assert format_real(float("inf")) == "inf"


def test_json_roundtrip_is_exact(rng):
    a = random_element(rng)
    assert element_from_json(element_to_json(a)) == a


# --- complex embedding ---------------------------------------------------------


def test_complex_embed_and_coords_roundtrip(rng):
    for _ in range(20):
        z = complex(rng.normal(), rng.normal())
        x = complex_embed(z, basis(9, 4))
        assert complex_coords(x, basis(9, 4)) == pytest.approx(z)


def test_complex_coords_rejects_off_plane_points():
    x = parse_element("1+e1+e2").promote(4)
    with pytest.raises(ValueError):
        complex_coords(x, basis(1, 4))
