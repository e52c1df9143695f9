import math

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
    parse_any,
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


def _signed_zero_rows(rng, n):
    """Pairs of rows whose products hinge on signed zeros.

    Zero and -0.0 factors, e0 times -0.0 (the first term, m = 0, of every
    coefficient is -0.0), and random picks from {-0.0, 0.0, -1, 1, 2}.  Where
    every term of a coefficient is -0.0 (at level 0, for one) only a sum
    started from +0.0 gives +0.0, as `cd_mul` does.
    """
    rand = rng.normal(size=n)
    unit = np.zeros(n)
    unit[0] = 1.0
    mixed = [rng.choice([-0.0, 0.0, -1.0, 1.0, 2.0], size=n) for _ in range(4)]
    return [(np.zeros(n), rand), (np.full(n, -0.0), rand), (rand, np.full(n, -0.0)),
            (unit, np.full(n, -0.0)), (np.full(n, -0.0), np.zeros(n)),
            (mixed[0], mixed[1]), (mixed[2], mixed[3])]


@pytest.mark.parametrize("rows", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                  16 * _BLOCK - 1, 16 * _BLOCK, 16 * _BLOCK + 1])
@pytest.mark.parametrize("level", range(5))
def test_mul_batch_matches_scalar_products(rng, level, rows):
    n = 1 << level
    A = rng.normal(size=(rows, n))
    B = rng.normal(size=(rows, n))
    for i, (a, b) in zip(range(rows), _signed_zero_rows(rng, n)):
        A[i], B[i] = a, b
    # the same rows laid out C-ordered, Fortran-ordered, and strided by rows
    # and by columns; then integer rows, converted as cd_mul's input would be
    wide = np.zeros((2 * rows, 2 * n))
    wide[::2, ::2], wide[1::2, 1::2] = A, B
    layouts = [(A, B), (np.asfortranarray(A), np.asfortranarray(B)),
               (wide[::2, ::2], wide[1::2, 1::2])]
    ints = (np.rint(4 * A).astype(np.int64), np.rint(4 * B).astype(np.int64))
    for (X, Y), cases in (((A, B), layouts), (ints, [ints])):
        want = [cd_mul(CDElement(X[i].astype(float)), CDElement(Y[i].astype(float)))
                for i in range(rows)]
        for P, Q in cases:
            got = mul_batch(P, Q)
            assert got.shape == A.shape and got.dtype == np.float64
            for i in range(rows):
                assert got[i].tobytes() == want[i].coeffs.tobytes()


@pytest.mark.parametrize("level", range(5))
def test_mul_batch_puts_non_finite_values_where_cd_mul_does(rng, level):
    n = 1 << level
    rows = 3 * _BLOCK
    A = rng.normal(size=(rows, n))
    B = rng.normal(size=(rows, n))
    special = [np.inf, -np.inf, np.nan, 0.0, -0.0, 1e308]
    for M in (A, B):
        hit = rng.random(size=M.shape) < 0.1
        M[hit] = rng.choice(special, size=int(hit.sum()))
    with np.errstate(all="ignore"):
        got = mul_batch(A, B)
        wants = [cd_mul(CDElement(A[i]), CDElement(B[i])).coeffs for i in range(rows)]
    for i, want in enumerate(wants):
        nan = np.isnan(want)
        # a NaN's sign bit may differ; everything else is bit for bit
        assert np.array_equal(np.isnan(got[i]), nan)
        assert got[i][~nan].tobytes() == want[~nan].tobytes()


def test_mul_batch_allocates_less_than_three_outputs(rng):
    import tracemalloc

    A = rng.normal(size=(100_000, 16))
    B = rng.normal(size=(100_000, 16))
    tracemalloc.start()
    try:
        out = mul_batch(A, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * out.nbytes


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


def _positional_12(x: float) -> str:
    """format_real written with numpy's positional formatter alone."""
    if not math.isfinite(x):
        return str(x)
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return np.format_float_positional(x, precision=12, unique=False,
                                      fractional=False, trim="-")


def test_format_real_spells_every_value_as_numpy_positional():
    # format_real takes Python's .12g spelling when it has no exponent; it
    # must round and trim exactly as numpy's positional formatter does.
    # Seeded values over the whole float range, subnormals, neighbours of
    # powers of ten and of the values that round up to one, decimal ties in
    # the 13th digit, and exact binary ties (n + 0.5, dyadic fractions).
    rng = np.random.default_rng(2025)
    values = (rng.choice([-1.0, 1.0], 100_000) * 10.0 ** rng.uniform(-320, 308, 100_000)).tolist()
    values += (rng.integers(1, 2**52, 20_000) * 5e-324).tolist()
    for k in range(-30, 31):
        for m in (1.0, 1 - 5e-13, 1 + 5e-13, 9.9999999999995, 0.99999999999949, 0.99999999999951):
            x = m * 10.0 ** k
            values += [x, -x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)]
    digits, exps = rng.integers(10**11, 10**12, 40_000).tolist(), rng.integers(-20, 20, 40_000)
    values += [float(f"{d}5e{k}") for d, k in zip(digits, exps.tolist())]
    values += [n + 0.5 for n in rng.integers(10**11, 10**12, 20_000).tolist()]
    values += [n / 2.0**j for n, j in zip(rng.integers(1, 10**13, 20_000).tolist(),
                                         rng.integers(1, 40, 20_000).tolist())]
    values += rng.uniform(-5.0, 5.0, 20_000).tolist() + [math.inf, -math.inf, math.nan, -0.0]
    assert len(values) > 200_000
    assert [x for x in values if format_real(x) != _positional_12(x)] == []


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


def test_complex_coords_rejects_a_nan_coefficient():
    x = CDElement([0.5, math.nan] + [0.0] * 14)
    with pytest.raises(ValueError, match="does not lie on the requested complex slice"):
        complex_coords(x, basis(1, 4))


def test_equal_elements_hash_equally_and_key_sets_and_dicts():
    a, b = parse_element("1+2e3-e9"), CDElement([1, 0, 0, 2, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0])
    assert a == b and a is not b and hash(a) == hash(b)
    assert CDElement([0.0, 1.0]) == CDElement([-0.0, 1.0])
    assert hash(CDElement([0.0, 1.0])) == hash(CDElement([-0.0, 1.0]))
    assert basis(1) != basis(1, 4)  # equal coefficients, different levels
    assert len({a, b, basis(1), basis(1, 4), basis(1, 4) * 1.0}) == 3
    table = {a: "a", basis(1): "e1 at level 1"}
    assert table[b] == "a" and basis(1, 4) not in table


@pytest.mark.parametrize("coeffs, level, message", [
    ([[1.0, 2.0]], None, "coefficients must be a flat sequence"),
    ([1.0, 2.0, 3.0], None, "coefficient count must be a power of two, got 3"),
    ([], None, "coefficient count must be a power of two, got 0"),
    ([1.0] * 4, 1, "level 1 too small for 4 coefficients"),
    ([1.0] * 4, 5, r"level 5 unsupported \(max 4\)"),
    ([1.0] * 32, None, r"level 5 unsupported \(max 4\)"),
], ids=["nested", "three", "empty", "level-too-small", "level-5", "32-coefficients"])
def test_cdelement_constructor_errors(coeffs, level, message):
    with pytest.raises(ValueError, match=message):
        CDElement(coeffs, level=level)


def test_an_element_keeps_a_read_only_copy_of_a_writable_array():
    v = np.zeros(16)
    e = CDElement(v)
    v[0] = 5.0  # the caller's array stays writable and its own
    assert e.coeffs[0] == 0.0
    base = np.zeros((2, 16))
    e = CDElement(base[0])
    h = hash(e)
    base[0, 0] = 7.0
    assert e.coeffs[0] == 0.0 and hash(e) == h == hash(CDElement(np.zeros(16)))
    assert not e.coeffs.flags.writeable
    assert CDElement(e.coeffs).coeffs is e.coeffs  # a read-only array is shared


@pytest.mark.parametrize("e1", [basis(1), basis(1, 4)], ids=["level-1", "level-4"])
def test_a_real_on_either_side_of_plus_and_minus(e1):
    pad = [0.0] * ((1 << e1.level) - 2)
    assert 1 + e1 == e1 + 1 == CDElement([1.0, 1.0] + pad)
    assert e1 - 1 == CDElement([-1.0, 1.0] + pad)
    assert 1 - e1 == CDElement([1.0, -1.0] + pad)
    assert 0.5 - e1 + e1 == CDElement([0.5, 0.0] + pad)


# --- argument errors and foreign operands ------------------------------------


def test_elements_are_immutable_and_leave_foreign_operands_to_python():
    a = basis(1, 2)
    with pytest.raises(AttributeError, match="immutable"):
        a.coeffs = np.zeros(4)
    with pytest.raises(ValueError, match="demote"):
        a.promote(1)
    for op in ("__add__", "__sub__", "__mul__", "__truediv__", "__eq__"):
        assert getattr(a, op)("e1") is NotImplemented, op
    assert a != "e1" and a != [0.0, 1.0, 0.0, 0.0]
    with pytest.raises(TypeError):
        a * "e1"


@pytest.mark.parametrize("call, error, message", [
    (lambda: basis(16), ValueError, "out of range"),
    (lambda: basis(-1), ValueError, "out of range"),
    (lambda: basis(9, level=3), ValueError, "does not fit"),
    (lambda: cd_mul(basis(1), [0.0, 1.0]), TypeError, "CDElement operands"),
    (lambda: cd_mul(basis(1, 2), basis(1, 3)), ValueError, "level"),
    (lambda: cd_mul_recursive(basis(1, 2), basis(1, 3)), ValueError, "level mismatch"),
    (lambda: mul_batch(np.zeros((2, 4)), np.zeros((3, 4))), ValueError, "matching"),
    (lambda: mul_batch(np.zeros((2, 3)), np.zeros((2, 3))), ValueError, "bad dimension"),
    (lambda: mul_batch(np.zeros((2, 32)), np.zeros((2, 32))), ValueError, "bad dimension"),
    (lambda: inner(basis(1, 2), basis(1, 3)), ValueError, "level mismatch"),
    (lambda: multiplication_table(5), ValueError, "unsupported level"),
    (lambda: complex_embed(0.5 + 1j, "e1"), TypeError, "slice unit"),
], ids=["basis-16", "basis-negative", "basis-level", "cd_mul-type", "cd_mul-level",
        "recursive-level", "batch-shapes", "batch-dim-3", "batch-dim-32", "inner-level",
        "table-level", "embed-axis"])
def test_argument_errors(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_each_element_reader_reads_one_kind_and_parse_any_dispatches():
    # parse_element reads text, element_from_json arrays; parse_any is the one
    # place that looks at the kind of input.
    want = basis(1, 4) + basis(10, 4)
    array = [0.0, 1.0] + [0.0] * 8 + [1.0] + [0.0] * 5
    assert parse_element("e1+e10") == element_from_json(array) == want
    with pytest.raises(AttributeError):
        parse_element(want)
    for data in ("e1+e10", {"e1": 1.0}, 1.0, None):
        with pytest.raises(ValueError, match=f"from {type(data).__name__}"):
            element_from_json(data)
    for data in (" e1+e10 ", "[0,1,0,0,0,0,0,0,0,0,1,0,0,0,0,0]", array, tuple(array), want):
        assert parse_any(data) == want
