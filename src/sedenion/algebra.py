"""Cayley-Dickson arithmetic up to the sedenions.

Levels 0..4 of the Cayley-Dickson ladder over the reals: R, C, quaternions,
octonions, sedenions.  An element of level n is a vector of 2**n real
coefficients over the basis e0 (the unit), e1, ..., and the product is defined
by the doubling recursion

    (a + b*e) * (c + d*e) = (a*c - conj(d)*b) + (d*a + b*conj(c)) * e

where an element of level n is split into two level n-1 halves (a, b) and e is
the unit adjoined at level n, together with conj(a + b*e) = conj(a) - b*e.
The recursion fixes the basis labelling: e_{m + 2**n} = e_m * e_{2**n}.

The recursion is the ground truth.  Every basis product is a single signed
basis element, e_m * e_n = +-e_{m XOR n}, so the structure tensor is a signed
permutation (256 nonzeros out of 16**3).  Module import applies the
recursion to basis indices (an integer sign rule, `_basis_sign`) and keeps
one 16x16 sign matrix beside the XOR index m ^ n, which also names the third
index from the other two: e_m * e_n = +-e_k exactly when n = m ^ k.  `cd_mul`,
`mul_batch` and the multiplication matrices gather coefficients through the
XOR index instead of contracting a dense tensor; lower levels use the
top-left corner, which maps into itself.  `mul_batch` folds the signs
into the gather: it stacks each block of b over its negation, so one `take`
gives every signed factor +-b_n at once, and it adds the n terms
a_m * (+-b_n) of each output coefficient in the order m = 0, 1, ..., as
`cd_mul` does.  The recursion on coefficient lists (`cd_mul_recursive`) is
kept as the reference path; on Python ints it keeps the small worked
examples exact.

Level 3 (octonions) is the last normed division algebra; level 4 (sedenions)
has zero divisors and is where the rest of this package lives.
"""

from __future__ import annotations

import json
import math
import re
from typing import Iterable

import numpy as np
from numpy.typing import NDArray

from . import _tol

MAX_LEVEL = 4
DIM = 1 << MAX_LEVEL

__all__ = [
    "MAX_LEVEL",
    "DIM",
    "CDElement",
    "basis",
    "zero",
    "one",
    "cd_mul",
    "cd_mul_recursive",
    "conjugate",
    "inner",
    "norm",
    "multiplication_table",
    "table_csv",
    "verify_table",
    "left_mult_matrix",
    "right_mult_matrix",
    "complex_embed",
    "complex_coords",
    "parse_element",
    "format_element",
    "format_real",
    "mul_batch",
    "parse_any",
    "element_to_json",
    "element_from_json",
]


# ---------------------------------------------------------------------------
# doubling recursion (exact on ints, works on floats too)
# ---------------------------------------------------------------------------


def _conj_list(a: list) -> list:
    return [a[0]] + [-t for t in a[1:]]


def _mul_list(a: list, b: list) -> list:
    """Doubling product on plain coefficient lists of equal power-of-two length."""
    n = len(a)
    if n == 1:
        return [a[0] * b[0]]
    # Sparse factors such as basis elements leave most halves zero; skipping
    # them makes their products roughly linear instead of 4**level calls.
    if not any(a):
        return [0 * b[0]] * n
    if not any(b):
        return [0 * a[0]] * n
    h = n // 2
    a1, a2 = a[:h], a[h:]
    b1, b2 = b[:h], b[h:]
    left = _mul_list(a1, b1)
    right = _mul_list(_conj_list(b2), a2)
    out1 = [x - y for x, y in zip(left, right)]
    left = _mul_list(b2, a1)
    right = _mul_list(a2, _conj_list(b1))
    out2 = [x + y for x, y in zip(left, right)]
    return out1 + out2


def _basis_sign(m: int, n: int, half: int = DIM // 2) -> int:
    """Sign of e_m * e_n = +-e_{m ^ n}, by the doubling recursion on indices.

    With e = e_half adjoined, split each index into a lower part and the
    flag `>= half`; the recursion (a + b*e)(c + d*e) = (a*c - conj(d)*b) +
    (d*a + b*conj(c))*e then gives one product of lower units per level, and
    conj(e_k) = -e_k for every k > 0.
    """
    if half == 0:
        return 1
    if m < half and n < half:
        return _basis_sign(m, n, half // 2)
    if m < half:  # e_m * (e_d e) = (e_d e_m) e
        return _basis_sign(n - half, m, half // 2)
    if n < half:  # (e_b e) * e_n = (e_b conj(e_n)) e
        return (1 if n == 0 else -1) * _basis_sign(m - half, n, half // 2)
    # (e_b e)(e_d e) = -conj(e_d) e_b
    return (-1 if n == half else 1) * _basis_sign(n - half, m - half, half // 2)


# e_m * e_n = _SIGN[m, n] * e_{m ^ n}, and _XOR[m, k] = m ^ k is the n with
# e_m * e_n = +-e_k.  The sign gathers read _SIGN along that index:
# (a*b)_k = sum_m a_m * b_{m^k} * _SGN[m, k], and the matrix of x -> s*x is
# s[_XOR] * _LSGN with _LSGN[k, n] the sign of e_{k^n} * e_n.
_XOR = np.arange(DIM)[:, None] ^ np.arange(DIM)
_SIGN = np.array([[_basis_sign(m, n) for n in range(DIM)] for m in range(DIM)], dtype=float)
_SGN = np.take_along_axis(_SIGN, _XOR, axis=1)
_LSGN = _SIGN[_XOR, np.arange(DIM)]
_EYE = np.eye(DIM)
for _t in (_XOR, _SIGN, _SGN, _LSGN, _EYE):
    _t.flags.writeable = False
del _t
# The (index, sign) tables of `_mul` at each level: read-only top-left corners.
_LEVEL_TABLES = tuple((_XOR[:n, :n], _SGN[:n, :n]) for n in (1, 2, 4, 8, DIM))

# Rows per block in `mul_batch`: its (16, 16, rows) term stack is then 512 KB.
_BLOCK = 256


# ---------------------------------------------------------------------------
# element type
# ---------------------------------------------------------------------------


def _frozen(arr: NDArray[np.float64]) -> NDArray[np.float64]:
    """arr itself when read-only, else a read-only copy: a caller's array stays its own."""
    if arr.flags.writeable:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


class CDElement:
    """Immutable Cayley-Dickson element: a level and a 2**level coefficient vector.

    Equality is exact coefficient equality at equal level; use `isclose` for
    tolerant comparison.  Arithmetic operators promote mixed levels by
    zero-padding; the module-level `cd_mul` / `inner` are strict about levels,
    matching their contracts.
    """

    __slots__ = ("level", "coeffs", "_key")

    def __init__(self, coeffs: Iterable[float], level: int | None = None):
        arr = np.asarray(list(coeffs) if not isinstance(coeffs, np.ndarray) else coeffs,
                         dtype=float)
        if arr.ndim != 1:
            raise ValueError("coefficients must be a flat sequence")
        n = arr.size
        if n == 0 or n & (n - 1):
            raise ValueError(f"coefficient count must be a power of two, got {n}")
        lv = n.bit_length() - 1
        if level is not None:
            if level < lv:
                raise ValueError(f"level {level} too small for {n} coefficients")
            if level > MAX_LEVEL:
                raise ValueError(f"level {level} unsupported (max {MAX_LEVEL})")
            arr = np.concatenate([arr, np.zeros((1 << level) - n)])
            lv = level
        if lv > MAX_LEVEL:
            raise ValueError(f"level {lv} unsupported (max {MAX_LEVEL})")
        object.__setattr__(self, "level", lv)
        object.__setattr__(self, "coeffs", _frozen(arr))

    def __setattr__(self, name, value):
        raise AttributeError("CDElement is immutable")

    # -- construction helpers ------------------------------------------------

    def promote(self, level: int) -> "CDElement":
        if level < self.level:
            raise ValueError("cannot demote without truncation")
        if level == self.level:
            return self
        return CDElement(self.coeffs, level=level)

    @property
    def key(self) -> tuple[float, ...]:
        """Hashable coefficient tuple (always padded to the sedenion level).

        Built on first use and kept: every hash of an element, and of the
        slice units and points built on it, reads this tuple.
        """
        try:
            return self._key
        except AttributeError:
            key = tuple(self.promote(MAX_LEVEL).coeffs)
            object.__setattr__(self, "_key", key)
            return key

    # -- arithmetic ----------------------------------------------------------

    def _pair(self, other: "CDElement") -> tuple["CDElement", "CDElement"]:
        if self.level == other.level:
            return self, other
        lv = max(self.level, other.level)
        return self.promote(lv), other.promote(lv)

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = CDElement([other]).promote(self.level)
        if not isinstance(other, CDElement):
            return NotImplemented
        a, b = self._pair(other)
        return CDElement(a.coeffs + b.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = CDElement([other]).promote(self.level)
        if not isinstance(other, CDElement):
            return NotImplemented
        a, b = self._pair(other)
        return CDElement(a.coeffs - b.coeffs)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return CDElement(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return CDElement(self.coeffs * float(other))
        if not isinstance(other, CDElement):
            return NotImplemented
        a, b = self._pair(other)
        return cd_mul(a, b)

    __rmul__ = __mul__  # reached only for a real left factor, which commutes

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return CDElement(self.coeffs / float(other))
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, CDElement):
            return NotImplemented
        return self.level == other.level and np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self):
        return hash((self.level, self.key))

    def isclose(self, other: "CDElement") -> bool:
        a, b = self._pair(other)
        return bool(np.max(np.abs(a.coeffs - b.coeffs)) <= _tol.ELEMENT_CLOSE)

    # -- queries -------------------------------------------------------------

    def conjugate(self) -> "CDElement":
        out = self.coeffs.copy()
        out[1:] = -out[1:]
        return CDElement(out)

    def norm(self) -> float:
        # np.linalg.norm's own formula, without its overhead; a strided dot
        # can round differently, so the vector is made contiguous as it does
        c = self.coeffs.ravel(order="K")
        return math.sqrt(c @ c)

    @property
    def real(self) -> float:
        return float(self.coeffs[0])

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def __repr__(self):
        return f"CDElement({format_element(self)!r}, level={self.level})"

    def __str__(self):
        return format_element(self)


def basis(k: int, level: int | None = None) -> CDElement:
    """Basis element e_k, at the smallest level containing it by default."""
    if k < 0 or k >= DIM:
        raise ValueError(f"basis index out of range: {k}")
    lv = max(1, k.bit_length()) if k else 0
    lv = lv if level is None else level
    if level is not None and k >= (1 << level):
        raise ValueError(f"e{k} does not fit in level {level}")
    out = np.zeros(1 << lv)
    out[k] = 1.0
    return CDElement(out)


def zero(level: int = MAX_LEVEL) -> CDElement:
    return CDElement(np.zeros(1 << level))


def one(level: int = MAX_LEVEL) -> CDElement:
    return basis(0, level)


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


def cd_mul(a: CDElement, b: CDElement) -> CDElement:
    """Cayley-Dickson product of two elements of the same level.

    Mixed levels are an argument error; callers promote with
    `CDElement.promote` (the `*` operator does this for you).
    """
    if not isinstance(a, CDElement) or not isinstance(b, CDElement):
        raise TypeError("cd_mul expects CDElement operands")
    if a.level != b.level:
        raise ValueError(
            f"level mismatch: {a.level} vs {b.level}; promote the lower one first")
    return CDElement(_mul(a.coeffs, b.coeffs))


def _mul(a: NDArray[np.float64], b: NDArray[np.float64]) -> NDArray[np.float64]:
    """The product formula on two coefficient vectors of one length 2**level.

    `cd_mul` wraps it; the companion search calls it on plain arrays.
    """
    xor, sgn = _LEVEL_TABLES[len(a).bit_length() - 1]
    return np.einsum("m,mk,mk->k", a, b[xor], sgn)


def cd_mul_recursive(a: CDElement, b: CDElement) -> CDElement:
    """Product evaluated directly by the doubling recursion (reference path)."""
    if a.level != b.level:
        raise ValueError("level mismatch")
    return CDElement(_mul_list(list(a.coeffs), list(b.coeffs)))


def mul_batch(a: NDArray[np.float64], b: NDArray[np.float64]) -> NDArray[np.float64]:
    """Row-wise products of two (N, 2**level) coefficient arrays.

    Rows go in blocks, laid out coefficient-major.  Each block of b is stacked
    over its negation, and one `take` with index m ^ k (+ n where the sign
    of e_m * e_{m^k} is negative) gives every signed factor +-b_n as an
    (n, n, rows) stack;
    one multiply by a_m gives every term.  Each output coefficient is then
    summed from zero over m = 0, 1, ... in order, one add per m, so every row
    comes out bitwise equal to `cd_mul` on that row whatever the row count:
    a_m * (-b_n) equals (a_m * b_n) * -1 exactly.  Rows holding inf or NaN
    give non-finite values at the same places as `cd_mul`, but the sign bit
    of a NaN may differ.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError("expected matching (N, dim) arrays")
    n = a.shape[1]
    if n & (n - 1) or n > DIM:
        raise ValueError(f"bad dimension {n}")
    idx = _XOR[:n, :n] + n * (_SGN[:n, :n] < 0)
    out = np.empty(a.shape)
    stack = np.empty((2 * n, _BLOCK))
    terms = np.empty((n, n, _BLOCK))
    acc = np.empty((n, _BLOCK))
    for i in range(0, len(a), _BLOCK):
        rows = min(_BLOCK, len(a) - i)
        s, t, c = stack[:, :rows], terms[..., :rows], acc[:, :rows]
        s[:n] = b[i:i + rows].T
        np.negative(s[:n], out=s[n:])
        # idx is always in range; "clip" only spares `take` a buffered copy
        s.take(idx, axis=0, out=t, mode="clip")
        t *= a[i:i + rows].T.copy()[:, None]
        c[...] = 0.0
        for m in range(n):
            c += t[m]
        out[i:i + rows] = c.T
    return out


def conjugate(a: CDElement) -> CDElement:
    return a.conjugate()


def inner(a: CDElement, b: CDElement) -> float:
    """Euclidean inner product of coefficient vectors (equal levels)."""
    if a.level != b.level:
        raise ValueError("level mismatch")
    return float(np.dot(a.coeffs, b.coeffs))


def norm(a: CDElement) -> float:
    return a.norm()


def _pow2_exponent(v: NDArray[np.float64]) -> int:
    """The e with max|v| in [2**(e-1), 2**e), so v * 2**-e is `_pow2_scaled(v)`; 0 for v = 0."""
    return math.frexp(max(map(abs, v.tolist())))[1]


def _pow2_scaled(v: NDArray[np.float64]) -> NDArray[np.float64]:
    """v times the power of two that puts max|v| in [0.5, 1); zero stays zero.

    A test that depends only on the direction of v gives the same answer on
    the result, whose norms and dot products neither underflow nor overflow.
    The scaling is exact, save for a component below 2**-1021 times the
    largest, which rounds into the subnormal range.
    """
    return np.ldexp(v, -_pow2_exponent(v))


# ---------------------------------------------------------------------------
# multiplication table
# ---------------------------------------------------------------------------


def multiplication_table(level: int = MAX_LEVEL) -> list[list[tuple[int, int]]]:
    """Exact basis products at the given level as (sign, index) pairs.

    `table[m][n]` describes e_m * e_n = sign * e_index.  Levels above 4 are
    unsupported.
    """
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"unsupported level {level} (0..{MAX_LEVEL})")
    n = 1 << level
    signs = _SIGN[:n, :n].astype(int).tolist()
    return [[(s, m ^ k) for k, s in enumerate(row)] for m, row in enumerate(signs)]


def _entry_str(sign: int, k: int) -> str:
    name = "1" if k == 0 else f"e{k}"
    return f"-{name}" if sign < 0 else name


def table_csv() -> str:
    """Sedenion multiplication table as CSV with entries like `e3` / `-e11`."""
    table = multiplication_table()
    n = len(table)
    header = "," + ",".join(_entry_str(1, k) for k in range(n))
    lines = [header]
    for m in range(n):
        cells = ",".join(_entry_str(s, k) for s, k in table[m])
        lines.append(f"{_entry_str(1, m)},{cells}")
    return "\n".join(lines) + "\n"


def verify_table() -> tuple[int, int]:
    """Compare the generated sedenion table with the bundled fixture; returns (matches, total)."""
    from ._reference_table import REFERENCE_TABLE
    table = multiplication_table()
    matches = sum(entry == ref for row, ref_row in zip(table, REFERENCE_TABLE)
                  for entry, ref in zip(row, ref_row))
    return matches, len(table) ** 2


# ---------------------------------------------------------------------------
# multiplication operators and complex embeddings
# ---------------------------------------------------------------------------


def left_mult_matrix(s: CDElement) -> NDArray[np.float64]:
    """Matrix of x -> s*x on the level-4 coefficient space (16x16)."""
    v = s.promote(MAX_LEVEL).coeffs
    # + 0.0 turns -0.0 entries into +0.0, the zero a sum of products gives.
    return v[_XOR] * _LSGN + 0.0


def right_mult_matrix(s: CDElement) -> NDArray[np.float64]:
    """Matrix of x -> x*s on the level-4 coefficient space (16x16)."""
    v = s.promote(MAX_LEVEL).coeffs
    return v[_XOR] * _SGN.T + 0.0


def _axis_vector(axis) -> NDArray[np.float64]:
    """Accept a CDElement or anything exposing one via `.s` (slice units)."""
    s = axis if isinstance(axis, CDElement) else getattr(axis, "s", None)
    if isinstance(s, CDElement):
        return s.promote(MAX_LEVEL).coeffs
    raise TypeError("axis must be a CDElement or a slice unit")


def complex_embed(z: complex, axis) -> CDElement:
    """Embed x + i*y as x + y*I on the slice spanned by 1 and the unit I."""
    v = _axis_vector(axis)
    return CDElement(z.real * _EYE[0] + z.imag * v)


def complex_coords(x: CDElement, axis) -> complex:
    """Coordinates of x in the plane spanned by 1 and the unit I.

    Raises if x does not lie on that plane within `UNIT_EQ * |x|`.
    """
    v = _axis_vector(axis)
    c = x.promote(MAX_LEVEL).coeffs
    re = c[0]
    im = float(np.dot(c[1:], v[1:]))
    residual = np.linalg.norm(c - re * _EYE[0] - im * v)
    if not residual <= _tol.UNIT_EQ * float(np.linalg.norm(c)):  # NaN fails
        raise ValueError("element does not lie on the requested complex slice")
    return complex(re, im)


# ---------------------------------------------------------------------------
# text and JSON formats
# ---------------------------------------------------------------------------

# One additive term: optional sign, then a number, a basis token, or both.
# `e<digits>` is always a basis token, so scientific notation is not part of
# the text grammar (use JSON coefficient arrays for arbitrary floats).
_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?:"
    r"(?P<num>\d+\.?\d*|\.\d+)\s*(?:\*?\s*e(?P<idx1>\d+))?"
    r"|e(?P<idx2>\d+)"
    r")\s*"
)


def parse_element(text: str) -> CDElement:
    """Parse sedenion text like `e1-e10`, `0.5+2e4`, or `-3`.

    Text only: `parse_any` is the reader that also takes a coefficient array
    or an element.  The result uses the smallest level containing every
    mentioned basis element.  Raises ValueError on malformed input and on a
    numeral (or a sum of terms) beyond the float range.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty element text")
    coeffs = np.zeros(DIM)
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse element text at: {s[pos:]!r}")
        if not first and m.group("sign") is None:
            raise ValueError(f"missing +/- between terms in {text!r}")
        sign = -1.0 if m.group("sign") == "-" else 1.0
        num = m.group("num")
        idx = m.group("idx1") or m.group("idx2")
        value = sign * (float(num) if num is not None else 1.0)
        k = int(idx) if idx is not None else 0
        if k >= DIM:
            raise ValueError(f"basis index out of range in {text!r}: e{k}")
        total = float(coeffs[k]) + value
        if not math.isfinite(total):
            raise ValueError(f"number out of the float range: {m.group(0).strip()!r}")
        coeffs[k] = total
        pos = m.end()
        first = False
    top = int(np.max(np.nonzero(coeffs)[0])) if np.any(coeffs) else 0
    lv = max(1, top.bit_length()) if top else 0
    return CDElement(coeffs[: 1 << lv])


def format_real(x: float) -> str:
    """Scalar formatting used across text output: 12 significant digits.

    Positional notation only, never a scientific exponent: inside element
    text `e4` is a basis token, so a coefficient printed as `1e-13` would
    change meaning.  Integers collapse to their plain spelling.  Where `.12g`
    has no exponent it is numpy's spelling, and faster to get.
    """
    if not math.isfinite(x):
        return str(x)
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    if "e" not in (text := f"{x:.12g}"):
        return text
    return np.format_float_positional(x, precision=12, unique=False,
                                      fractional=False, trim="-")


def format_element(a: CDElement) -> str:
    """Inverse of `parse_element`; returns `0` for the zero element."""
    parts: list[str] = []
    for k, v in enumerate(a.coeffs):
        if v == 0.0:
            continue
        mag = format_real(abs(v))
        if k == 0:
            body = mag
        else:
            body = f"e{k}" if mag == "1" else f"{mag}e{k}"
        if not parts:
            parts.append(body if v > 0 else f"-{body}")
        else:
            parts.append(f"+{body}" if v > 0 else f"-{body}")
    return "".join(parts) if parts else "0"


def element_to_json(a: CDElement) -> list[float]:
    return [float(v) for v in a.promote(MAX_LEVEL).coeffs]


def real_from_json(value) -> float:
    """float(value) of a JSON number; a JSON integer past the float range, a
    boolean, a string, or a value float() cannot read (null, a list, an
    object), is a ValueError."""
    try:
        if isinstance(value, (bool, str)):  # float(True) is 1.0, float("2") is 2.0
            raise TypeError
        return float(value)
    except OverflowError:
        raise ValueError(f"number out of the float range: an integer of "
                         f"{len(str(value))} digits") from None
    except TypeError:
        raise ValueError(f"not a number: {json.dumps(value)}") from None


def element_from_json(data) -> CDElement:
    """Build an element from a coefficient array (length a power of two <= 16).

    Arrays only: `parse_any` dispatches text to `parse_element`.  Array
    coefficients must be finite: JSON input may spell NaN or Infinity, and
    one such coordinate would poison every radius, distance and sum.
    """
    if isinstance(data, (list, tuple)):
        values = [real_from_json(v) for v in data]
        if not all(map(math.isfinite, values)):
            raise ValueError(f"coefficients must be finite: {values}")
        return CDElement(values)
    raise ValueError(f"cannot build an element from {type(data).__name__}")


def parse_any(data) -> CDElement:
    """Parse text, JSON-style list, or pass through a CDElement."""
    if isinstance(data, CDElement):
        return data
    if isinstance(data, str):
        stripped = data.strip()
        if stripped.startswith("["):
            return element_from_json(json.loads(stripped))
        return parse_element(stripped)
    return element_from_json(data)
