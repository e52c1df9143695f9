"""Star-power series around a point p of W: radii, domains, evaluation.

A series sum_l (q - p)^{*l} a_l with sedenion coefficients a_l has two
convergence radii.  The slice radius

    R_a = 1 / limsup |a_l|^(1/l)

governs convergence on the center slice, and for every slice unit J the
directional radius

    R_a^{p,J} = 1 / limsup dist(a_l, ker(I_p - J))^(1/l)   (R_a if p real or J = I_p)

governs the reflected disk on the J slice; the supremum R_a^p over companion
slice units K takes at most two values {R_a, R_a^p}, realized (when larger
than R_a) on one kernel curve through I_p.  The convergence domain is

    p real:          the Euclidean ball B*(p, R_a)
    R_a^p = R_a:     the sigma-ball of radius R_a^p
    otherwise:       hyper-sigma-ball(p, R_a, (I_p, K))  intersect  sigma-ball(p, R_a^p)

which on each slice C_J is the intersection of the disk |z_q - z_p| < R_a
with the reflected disk |z_q - conj(z_p)| < R_a^{p,J}, z_q = re + im*i for
q = re + im*J, im >= 0; the lower half of C_J is the slice -J.  Membership,
evaluation, and a grid scan pairing predicted membership with empirical
convergence all live here.

Coefficient sequences are structured (geometric sums, lacunary series, or
finite tables) so the limsup radii are exact for the first two families;
table radii are windowed estimates and explicitly flagged approximate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from .algebra import (
    CDElement,
    DIM,
    MAX_LEVEL,
    _pow2_exponent,
    cd_mul,
    complex_embed,
    format_element,
    parse_any,
    real_from_json,
)
from . import _tol
from .zerodiv import Subspace, kernel_of_left_mult
from .slices import (
    SliceUnit,
    WPoint,
    find_companion,
    HyperSolution,
    axis_sign,
    cker_membership,
    wpoint_from,
)

__all__ = [
    "GeometricSum",
    "Lacunary",
    "TableSeq",
    "SeqSpec",
    "Polynomial",
    "Membership",
    "Verdict",
    "DomainCase",
    "DomainReport",
    "Domain",
    "EvalReport",
    "ScanRow",
    "ScanResult",
    "star_mul",
    "star_pow_center",
    "eval_poly",
    "radius_Ra",
    "radius_RapJ",
    "radius_Rap",
    "domain",
    "domain_report",
    "sigma_contains",
    "hyper_sigma_contains",
    "domain_contains",
    "evaluate_points",
    "evaluate_series",
    "convergence_scan",
    "polar_grid",
    "seq_from_json",
    "seq_to_json",
    "demo_sequence",
]

def _coeff_key(c) -> tuple[float, ...]:
    return parse_any(c).key


_SLICE_MEMO = 16  # bound of the memos of slices, which a command visits one by one


class _Memo(dict):
    """The one memo rule: a missing key k reads make(k, *args), stored after a
    full memo (`size` entries) is emptied, so fresh keys keep memory flat.  Each
    memo lives on the object it describes, a sequence or a Domain."""

    __slots__ = ("size", "make", "args")

    def __init__(self, size: int, make: Callable, *args):
        self.size, self.make, self.args = size, make, args

    def __missing__(self, key):
        if len(self) >= self.size:
            self.clear()
        value = self[key] = self.make(key, *self.args)
        return value


def _keep_memos(a: SeqSpec) -> None:
    """Give the new (frozen) sequence a its memos (`domain`, `_companion_search`)
    and its coefficient rows: one read-only (m, 16) array `rows`, built here
    once, of a table's values or of the ratio-group coefficients beside their
    `ratios` (`_ratio_groups`)."""
    if isinstance(a, TableSeq):
        rows = np.array(a.values).reshape(-1, DIM)
    else:
        vars(a)["ratios"], rows = _ratio_groups(a)
    rows.flags.writeable = False
    vars(a).update(rows=rows, _domains=_Memo(1, Domain, a),
                   _companions=_Memo(_SLICE_MEMO, _companion_search, a))


# ---------------------------------------------------------------------------
# coefficient sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeometricSum:
    """a_l = sum_i c_i * r_i^(-l) for terms (c_i, r_i) with 0 < r_i < inf."""

    terms: tuple[tuple[tuple[float, ...], float], ...]

    def __post_init__(self):
        for _, ratio in self.terms:
            if not 0.0 < ratio < math.inf:
                raise ValueError("geometric ratios must be finite and strictly positive")
        _keep_memos(self)

    @classmethod
    def of(cls, pairs: Iterable[tuple[object, float]]) -> "GeometricSum":
        return cls(tuple((_coeff_key(c), real_from_json(r)) for c, r in pairs))

    def term(self, ell: int) -> NDArray[np.float64]:
        try:
            out = np.zeros(DIM)
            for coeff, ratio in self.terms:
                out += np.asarray(coeff) * ratio ** (-ell)
            return out
        except OverflowError:
            return _saturated(self.terms, ell)


def _saturated(pairs, ell: int) -> NDArray[np.float64]:
    """sum_i c_i * r_i^(-ell) when some power r_i^(-ell) leaves the float range.

    Each component is summed alone over the terms with a nonzero coefficient
    there.  When one of their powers leaves the range the component is
    +-inf, signed by their sum scaled by the largest power; a component no
    term reaches is 0.0.  No OverflowError, NaN or warning comes out.
    """
    out = np.zeros(DIM)
    for k in range(DIM):
        live = [(c[k], r) for c, r in pairs if c[k] != 0.0]
        if not live:
            continue
        try:
            for c, r in live:
                out[k] += c * r ** (-ell)
        except OverflowError:
            lead = (min if ell > 0 else max)(r for _, r in live)
            scaled = sum(c * (lead / r) ** ell for c, r in live)
            out[k] = math.copysign(math.inf, scaled) if scaled else 0.0
    return out


def _on_support(ell):
    """Whether ell (an int or an int array) is a power of two: 1, 2, 4, ..."""
    return (ell >= 1) & ((ell & (ell - 1)) == 0)


@dataclass(frozen=True)
class Lacunary:
    """a_l = c * r^(-l) when l is a power of two (1, 2, 4, ...), else 0."""

    coeff: tuple[float, ...]
    ratio: float

    def __post_init__(self):
        if not 0.0 < self.ratio < math.inf:
            raise ValueError("lacunary ratio must be finite and strictly positive")
        _keep_memos(self)

    @classmethod
    def of(cls, coeff, ratio: float) -> "Lacunary":
        return cls(_coeff_key(coeff), real_from_json(ratio))

    def term(self, ell: int) -> NDArray[np.float64]:
        if not _on_support(ell):
            return np.zeros(DIM)
        try:
            return np.asarray(self.coeff) * self.ratio ** (-ell)
        except OverflowError:
            return _saturated([(self.coeff, self.ratio)], ell)


@dataclass(frozen=True)
class TableSeq:
    """Finitely many explicit coefficients a_0..a_{n-1}; zero beyond.

    Radii for tables are windowed limsup estimates, flagged approximate in
    every report built from them.  Known limits: a back half that underflows
    to exact zeros reads +inf, and a short table whose values each mix several
    decay rates has none in a kernel, so no companion: R_a^p reads R_a.
    """

    values: tuple[tuple[float, ...], ...]
    __post_init__ = _keep_memos

    @classmethod
    def of(cls, values: Iterable) -> "TableSeq":
        return cls(tuple(_coeff_key(v) for v in values))

    def term(self, ell: int) -> NDArray[np.float64]:
        if 0 <= ell < len(self.values):
            return np.asarray(self.values[ell])
        return np.zeros(DIM)


SeqSpec = GeometricSum | Lacunary | TableSeq


def demo_sequence() -> GeometricSum:
    """The bundled two-ratio example: a_l = 1/3^l + (e4+e15)/2^l."""
    return GeometricSum.of([("1", 3.0), ("e4+e15", 2.0)])


def _field(obj, name: str, what: str):
    """obj[name] from parsed sequence JSON; ValueError naming a missing field."""
    if not isinstance(obj, dict) or name not in obj:
        raise ValueError(f"{what} needs a {name!r} field")
    return obj[name]


def _array(obj, name: str, what: str) -> list:
    """The field obj[name] that must be a JSON array; ValueError otherwise."""
    value = _field(obj, name, what)
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} needs a JSON array as {name!r}, not {json.dumps(value)}")
    return value


def seq_from_json(data) -> SeqSpec:
    """Parse `{"kind": "geometric"|"lacunary"|"table", ...}` (dict or JSON text).

    `terms` (an array of objects with `coeff` and `ratio`) and `values` are
    JSON arrays; a ratio is a JSON number; a coefficient is element text or a
    JSON array of numbers.  Anything else is a ValueError.
    """
    if isinstance(data, str):
        data = json.loads(data)
    kind = _field(data, "kind", "sequence JSON")
    if kind == "geometric":
        return GeometricSum.of(
            (_field(t, "coeff", "geometric term"), _field(t, "ratio", "geometric term"))
            for t in _array(data, "terms", "geometric sequence"))
    if kind == "lacunary":
        return Lacunary.of(_field(data, "coeff", "lacunary sequence"),
                           _field(data, "ratio", "lacunary sequence"))
    if kind == "table":
        return TableSeq.of(_array(data, "values", "table sequence"))
    raise ValueError(f"unknown sequence kind: {kind!r}")


def seq_to_json(a: SeqSpec) -> dict:
    if isinstance(a, GeometricSum):
        return {"kind": "geometric",
                "terms": [{"coeff": list(c), "ratio": r} for c, r in a.terms]}
    if isinstance(a, Lacunary):
        return {"kind": "lacunary", "coeff": list(a.coeff), "ratio": a.ratio}
    if isinstance(a, TableSeq):
        return {"kind": "table", "values": [list(v) for v in a.values]}
    raise TypeError(f"not a sequence spec: {type(a).__name__}")


def _ratio_groups(a: GeometricSum | Lacunary) -> tuple[tuple[float, ...], NDArray[np.float64]]:
    """Distinct ratios, ascending, and the rows of their summed coefficients; zero sums dropped.

    Terms sharing a ratio cancel as one coefficient; a pair (c, r), (-c, r)
    contributes nothing to any a_l and must not shrink a radius.  Read once,
    at construction, into the sequence's `ratios` and `rows` (`_keep_memos`).
    """
    if isinstance(a, Lacunary):
        pairs = [(a.ratio, np.asarray(a.coeff))]
    else:
        sums: dict[float, NDArray[np.float64]] = {}
        for coeff, ratio in a.terms:
            cur = sums.setdefault(ratio, np.zeros(DIM))
            cur += np.asarray(coeff)
        pairs = sorted(sums.items())
    groups = [(r, c) for r, c in pairs if c.any()]
    return tuple(r for r, _ in groups), np.array([c for _, c in groups]).reshape(-1, DIM)


# ---------------------------------------------------------------------------
# star polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Polynomial:
    """Polynomial in q with sedenion coefficients on the right of the powers.

    Trailing zero coefficients are trimmed at construction; the zero
    polynomial has an empty coefficient tuple and degree -1.
    """

    coeffs: tuple[CDElement, ...]

    def __post_init__(self):
        cs = [c.promote(MAX_LEVEL) for c in self.coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def of(cls, coeffs: Iterable) -> "Polynomial":
        return cls(tuple(parse_any(c) for c in coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __str__(self):
        return " | ".join(f"q^{i}: {format_element(c)}"
                          for i, c in enumerate(self.coeffs)) or "0"


def star_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    """Cauchy product: coefficient n is sum_k p_k * q_{n-k} (sedenion products)."""
    if not p.coeffs or not q.coeffs:
        return Polynomial(())
    out = [CDElement(np.zeros(DIM)) for _ in range(len(p.coeffs) + len(q.coeffs) - 1)]
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] = out[i + j] + cd_mul(a, b)
    return Polynomial(tuple(out))


def star_pow_center(p: WPoint, ell: int) -> Polynomial:
    """(q - p)^{*ell} expanded in powers of q.

    Coefficient m is binom(ell, m) (-p)^(ell - m), the power taken inside the
    commutative plane through p and the binomial an exact integer rounded
    once to float (correctly rounded for every ell).  The rounding raises
    OverflowError from ell = 1030 on, where binom(ell, ell // 2) > 1.8e308.
    """
    if ell < 0:
        raise ValueError("star power wants a nonnegative exponent")
    return Polynomial(tuple(float(math.comb(ell, j)) * complex_embed((-p.z) ** j, p.axis.s)
                            for j in range(ell, -1, -1)))


def eval_poly(poly: Polynomial, q: WPoint) -> CDElement:
    """sum_i q^i * c_i with q^i computed in the commutative plane through q."""
    acc = CDElement(np.zeros(DIM))
    w = 1.0 + 0.0j
    for c in poly.coeffs:
        acc = acc + cd_mul(complex_embed(w, q.axis.s), c)
        w *= q.z
    return acc


# ---------------------------------------------------------------------------
# radii
# ---------------------------------------------------------------------------

def radius_Ra(a: SeqSpec) -> float:
    """Slice radius 1 / limsup |a_l|^(1/l); +inf for the zero sequence."""
    return _radius(a)[0]


def _radius(a: SeqSpec, ker: Subspace | None = None) -> tuple[float, float]:
    """1 / limsup size(a_l)^(1/l): R_a for the norm, R_a^{p,J} for the distance
    from ker = ker(I_p - J), capped at the norm.

    Every row of `a.rows` is scaled by its power of two (`_pow2_exponent`), so
    no norm or distance underflows or overflows, and one stacked pass takes
    them all, with the rounding of one row at a time (`_matvecs`, `_dots`).
    Ratio groups give the smallest ratio whose coefficient c has size(c) >
    floor * |c| (+inf if none), for the floors PERP_THRESHOLD and CHANNEL_DUST;
    tables give the windowed estimate of `_table_radius`, twice.
    """
    shifts = np.frexp(np.abs(a.rows).max(axis=1))[1]  # `_pow2_exponent` of each row
    c = np.ldexp(a.rows, -shifts[:, None])
    sizes = norms = np.sqrt(_dots(c))
    if ker is not None:
        r = c - _matvecs(ker.basis.T, _matvecs(ker.basis, c))  # `Subspace.distance`
        sizes = np.minimum(np.sqrt(_dots(r)), norms)
    if isinstance(a, TableSeq):
        return (_table_radius(sizes, norms, shifts),) * 2
    return tuple(next((r for r, hit in zip(a.ratios, sizes > floor * norms) if hit), math.inf)
                 for floor in (_tol.PERP_THRESHOLD, _tol.CHANNEL_DUST))


def _table_radius(sizes, norms, shifts) -> float:
    """1 / max ldexp(size, shift)^(1/l) over the back half of the l that count,
    l >= 1, from the sizes, norms and shifts of the scaled values: a value
    counts when it is zero or passes the PERP_THRESHOLD floor."""
    kept = np.flatnonzero((sizes > _tol.PERP_THRESHOLD * norms) | (norms == 0.0))
    window = kept[len(kept) - max(1, len(kept) // 2):]
    radius = math.inf  # min of 1 / root: fl(1/x) is monotone
    for ell, s, shift in zip(window.tolist(), sizes[window].tolist(), shifts[window].tolist()):
        if ell == 0:
            continue
        try:
            root = math.ldexp(s, shift) ** (1.0 / ell)
        except OverflowError:  # size(v) past the float range
            if ell == 1:  # and so is its root, but not the reciprocal
                radius = min(radius, math.ldexp(1.0 / s, -shift))
                continue
            q, r = divmod(shift, ell)  # root first, then scale
            root = math.ldexp(s ** (1.0 / ell) * 2.0 ** (r / ell), q)
        if root > 0.0:
            radius = min(radius, 1.0 / root)
    return radius


def radius_RapJ(a: SeqSpec, p: WPoint, j: SliceUnit) -> float:
    """Directional radius 1 / limsup dist(a_l, ker(I_p - J))^(1/l).

    Equals R_a when p is real or J = +-I_p (ker(I_p - J) is then trivial);
    otherwise only the coefficient components perpendicular to
    ker(I_p - J) count, so it can only be larger (+inf when every
    coefficient sits inside the kernel).
    """
    return radius_Ra(a) if _plane_sign(p, j) else _reflected_radius(a, p.axis, j, radius_Ra(a))[0]


def _reflected_radius(a: SeqSpec, i: SliceUnit, j: SliceUnit, ra: float) -> tuple[float, float]:
    """(r2, r2_in): R_a^{p,J} off the center plane, for a center p on the slice of i = I_p.

    The radius reads p only through its slice unit, through ker(I_p - J).
    r2_in <= r2, equal unless a group lies in the band between the floors.
    Neither is below ra = R_a: ratio groups give R_a's ratio or a later one, but
    a table's window over the l that count may start before R_a's (1/3 < 2^-0.25
    on [1, 3e2, e4+e15, e4+e15] at e1, J = e10), so both are raised to ra.
    """
    r2, r2_in = _radius(a, kernel_of_left_mult(i.s - j.s))
    return max(r2, ra), max(r2_in, ra)


def radius_Rap(a: SeqSpec, p: WPoint) -> tuple[float, SliceUnit | None]:
    """R_a^p, the supremum over companion slice units, and its witness (None
    unless it beats R_a): `domain(p, a).report`.  Tables give estimates: the first
    8 or 20 demo terms hold no value in a kernel, so R_a^p reads R_a, not 3."""
    rep = domain(p, a).report
    return rep.r_ap, rep.witness


# ---------------------------------------------------------------------------
# domain reports and membership
# ---------------------------------------------------------------------------


class DomainCase(Enum):
    REAL_CENTER = "RealCenter"
    SIGMA_BALL_ONLY = "SigmaBallOnly"
    HYPER_INTERSECTION = "HyperIntersection"


class Membership(Enum):
    INTERIOR = "Interior"
    EXTERIOR = "Exterior"
    BOUNDARY = "Boundary"

    @classmethod
    def of(cls, code: int) -> "Membership":
        """The Membership of a code of `Domain.classify`: -1, 0 or +1."""
        return _MEMBERSHIP[code]


class Verdict(Enum):
    CONVERGED = "Converged"
    DIVERGED = "Diverged"
    UNDETERMINED = "Undetermined"


class DomainReport(NamedTuple):
    """Radii and shape of the convergence domain around p.

    `witness` is a slice unit realizing r_ap on its kernel curve; present
    exactly when the domain is a proper hyper-intersection (r_ap > r_a with
    a non-real center).  `approximate` marks table-sequence estimates.
    """

    r_a: float
    r_ap: float
    witness: SliceUnit | None
    case: DomainCase
    approximate: bool = False


_Disks = tuple[complex, float, complex, float, float]


def _companion_search(i: SliceUnit, a: SeqSpec) -> tuple[float, float, SliceUnit | None]:
    """(R_a, R_a^p, witness) for every center on the slice of i = I_p (`Domain`)."""
    ra = radius_Ra(a)
    rap, witness = ra, None
    rows = a.rows if isinstance(a, TableSeq) else a.rows[:1]
    for c in rows[rows.any(axis=1)]:
        k = find_companion(i, CDElement(c))
        if k is not None and (val := _reflected_radius(a, i, k, ra)[0]) > rap:
            rap, witness = val, k
    return ra, rap, witness


def _plane_sign(p: WPoint, j: SliceUnit) -> int:
    """+1 or -1 when C_J is the center plane of p, as J = I_p or J = -I_p, else 0.

    Every slice is the center plane of a real p (+1).  The axis object of p
    itself needs no axis test.
    """
    return 1 if p.is_real or j is p.axis else axis_sign(j, p.axis)


def _slice_disks(p: WPoint, r: float, j: SliceUnit,
                 reflected: Callable[[], tuple[float, float]]) -> _Disks:
    """The two disks (c1, r1, c2, r2, r2_in) of a domain on the slice C_J.

    z = re + im*i is the coordinate of q = re + im*J (im >= 0).  Off the
    center plane of p the disks are |z - z_p| < r and the reflected disk
    |z - conj(z_p)| < r2, with (r2, r2_in) = reflected(), which runs only
    there.  On the center plane (every J for a real p) the domain is the one
    disk of radius r around p as seen from C_J: z_p for J = I_p, conj(z_p)
    for J = -I_p; the second disk repeats that center with infinite radii.
    """
    sign = _plane_sign(p, j)
    if not sign:
        return (p.z, r, p.z.conjugate(), *reflected())
    c = p.z if sign > 0 else p.z.conjugate()
    return c, r, c, math.inf, math.inf


def _domain_disks(j: SliceUnit, p: WPoint, a: SeqSpec, ra: float) -> _Disks:
    """The disks of the domain of a around p on the slice of J (`_slice_disks`)."""
    return _slice_disks(p, ra, j, lambda: _reflected_radius(a, p.axis, j, ra))


class Domain:
    """The convergence domain of the series a around the center p.

    `report` holds the radii, witness and case.  R_a^{p,K} takes at most two
    values {R_a, R_a^p}, the larger only with the slowest-decaying coefficient
    in ker(I_p - K), which fixes K up to curve membership; so one
    `find_companion` on it (on each nonzero value of a table) realizes the
    supremum.  It reads p only through I_p, so the sequence keeps it per unit
    I_p (`_companion_search`): a new center on a known slice gets the same
    result, bit for bit, and a real center needs none.  On each slice C_J the
    domain is two disks that depend only on (p, a, J), kept in a slice memo
    (the only state a Domain changes): one axis test and, off the center
    plane, one kernel for R_a^{p,J}.  A point reads the disks of its slice; a
    real one (on I0) is as far from z_p as from conj(z_p), and R_a^{p,J} >=
    R_a, so the reflected disk never decides it.
    """

    __slots__ = ("p", "a", "report", "_slices")

    def __init__(self, p: WPoint, a: SeqSpec):
        ra, rap, witness = (r := radius_Ra(a), r, None) if p.is_real else a._companions[p.axis]
        case = (DomainCase.REAL_CENTER if p.is_real else DomainCase.SIGMA_BALL_ONLY
                if witness is None else DomainCase.HYPER_INTERSECTION)
        self.p, self.a = p, a
        self.report = DomainReport(r_a=ra, r_ap=rap, witness=witness, case=case,
                                   approximate=isinstance(a, TableSeq))
        self._slices: dict[SliceUnit, _Disks] = _Memo(_SLICE_MEMO, _domain_disks, p, a, ra)

    def disks(self, j: SliceUnit) -> _Disks:
        """The disks (c1, r1, c2, r2, r2_in) of the domain on the slice of J (`_slice_disks`)."""
        return self._slices[j]

    def contains(self, q: WPoint, band: float = _tol.MEMBERSHIP_BAND) -> Membership:
        """Classify q by the two-disk rule of its slice (`_two_disk_rule`).

        Interior / Exterior are strict calls with margin `band`; anything
        within the band of a radius equality is Boundary (the series behavior
        there is not decided by the radii).
        """
        return _MEMBERSHIP[_point_rule(q, self.disks(q.axis), band)]

    def classify(self, re, im, j: SliceUnit,
                 band: float = _tol.MEMBERSHIP_BAND) -> NDArray[np.int8]:
        """Codes -1 (Interior), 0 (Boundary), +1 (Exterior) of the points re + im*J.

        `contains(wpoint_from(re, im, J), band)` point for point: im >= 0 reads
        the disks of J (a real point gets the code of every slice), im < 0 those
        of -J at height |im|.
        """
        re, im = np.asarray(re, dtype=float), np.asarray(im, dtype=float)
        out = np.zeros(im.shape, dtype=np.int8)  # a NaN is Boundary, as in contains
        for half, lower in ((im >= 0.0, False), (im < 0.0, True)):
            if half.any():
                c1, r1, c2, r2, r2_in = self.disks(-j if lower else j)
                x, y = re[half], np.abs(im[half])  # np.hypot rounds as abs(complex)
                out[half] = _two_disk_rule(np.hypot(x - c1.real, y - c1.imag), r1,
                                           np.hypot(x - c2.real, y - c2.imag), r2, r2_in, band)
        return out


def domain(p: WPoint, a: SeqSpec) -> Domain:
    """The Domain of a around p, kept on the sequence object for the last center
    asked about, so the scalar `domain_report` and `domain_contains` stay warm."""
    return a._domains[p]


def domain_report(p: WPoint, a: SeqSpec) -> DomainReport:
    """Radii, witness and case of the domain around p: `domain(p, a).report`."""
    return domain(p, a).report


# The Membership of each code of the two-disk rule; -1 indexes the last.
_MEMBERSHIP = (Membership.BOUNDARY, Membership.EXTERIOR, Membership.INTERIOR)


def _two_disk_rule(d1, r1, d2, r2, r2_in, band):
    """The two-disk rule on the distances d1, d2 from z_q to the disk centers.

    +1 (Exterior) when z_q lies outside either disk (radii r1, r2) by more
    than band, -1 (Interior) when it lies inside both by more than band, the
    second at radius r2_in <= r2, else 0 (Boundary: between r2_in and r2 the
    kernel threshold decides); an int for floats, an int array for arrays.
    A zero distance is a center hit and counts as inside for every radius.
    """
    outside = (d1 > r1 + band) | (d2 > r2 + band)
    inside = ((d1 < r1 - band) | (d1 == 0.0)) & ((d2 < r2_in - band) | (d2 == 0.0))
    return 1 * outside - inside


def _point_rule(q: WPoint, disks: _Disks, band: float) -> int:
    """The two-disk rule at one point q of the slice of the disks."""
    c1, r1, c2, r2, r2_in = disks
    z = complex(q.re, q.im)
    return _two_disk_rule(abs(z - c1), r1, abs(z - c2), r2, r2_in, band)


def sigma_contains(q: WPoint, p: WPoint, r: float) -> bool:
    """Membership of q in the sigma-ball of radius r around p.

    The two-disk rule with reflected radius r off the center plane.  Centers
    always belong (r = 0 included).
    """
    return _point_rule(q, _slice_disks(p, r, q.axis, lambda: (r, r)), 0.0) < 0


def hyper_sigma_contains(q: WPoint, p: WPoint, r: float, j: HyperSolution) -> bool:
    """Membership of q in the hyper-sigma-ball of radius r for the pair J.

    The center must sit on the slice of J.j1, as a real center does for every
    J.j1.  The two-disk rule with reflected radius r, waived (+inf) on slices
    whose axis lies on the kernel curve of J.
    """
    if not _plane_sign(p, j.j1) > 0:
        raise ValueError("hyper-sigma-ball center must lie on the slice of j1")
    disks = _slice_disks(p, r, q.axis,
                         lambda: (math.inf if cker_membership(q.axis, j.j1, j.j2) else r,) * 2)
    return _point_rule(q, disks, 0.0) < 0


def domain_contains(q: WPoint, p: WPoint, a: SeqSpec,
                    band: float = _tol.MEMBERSHIP_BAND) -> Membership:
    """Classify q against the convergence domain of the series around p.

    A thin layer over `domain(p, a).contains(q, band)`.
    """
    return domain(p, a).contains(q, band)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


class EvalReport(NamedTuple):
    """Partial sum with a convergence verdict.

    `tail_norm` is the largest term norm inside the final window of at most
    50 terms (0.0 when q is the center), the quantity the Converged
    criterion compares against tol.
    """

    partial_sum: CDElement
    terms_used: int
    verdict: Verdict
    tail_norm: float


# Terms per block: large enough that numpy's per-call cost is spread over many
# terms, small enough that a point converging after a few dozen terms wastes
# little work past its stopping index.
_BLOCK = 64
# Points evaluated together: a block holds _BLOCK x _CHUNK x 16 floats (2 MB),
# so memory stays flat however many points are asked for.
_CHUNK = 256


def _matvecs(m, rows):
    """m @ row for every row of a stack, with the rounding of one product each."""
    return np.matmul(m, rows[..., None])[..., 0]


def _dots(rows):
    """row @ row for every row of a stack, with the rounding of one product each."""
    return np.matmul(rows[..., None, :], rows[..., :, None])[..., 0, 0]


def _geometric_blocks(a: GeometricSum | Lacunary, mp, live):
    """Channels and block maker of a geometric sum or a gap series.

    Each ratio group has fixed images in each live channel (of the
    coefficient and of its rotation by mp), so a term is Re(zeta) * image +
    Im(zeta) * image summed over them, with zeta the channel step divided by
    the ratio to the power l.  An image below CHANNEL_DUST of its input, both
    read at the scale of `_pow2_scaled(input)`, is a formal annihilation seen
    through rounding and is dropped (None).  A gap series is one group
    (`_evaluate_chunk` zeroes its rows off the support).
    Returns the (plus channel?, ratio) of each channel kept and a function
    (start, zetas) -> terms over a (n, points, channels) stack of powers.
    """
    channels, images = [], []
    for ratio, coeff in zip(a.ratios, a.rows):
        vs = (coeff, mp @ coeff)
        shifts = [-_pow2_exponent(v) for v in vs]  # the scale of _pow2_scaled(v)
        for plus, op in live:
            imgs = [v if op is None else op @ v for v in vs]
            imgs = [img if np.linalg.norm(np.ldexp(img, k)) > _tol.CHANNEL_DUST * np.linalg.norm(
                np.ldexp(v, k)) else None for img, v, k in zip(imgs, vs, shifts)]
            if any(img is not None for img in imgs):
                channels.append((plus, ratio))
                images.append(imgs)

    def block(start, zetas):
        out = np.zeros(zetas.shape[:2] + (DIM,))
        for k, (re_img, im_img) in enumerate(images):
            if re_img is not None:
                out += zetas[:, :, k].real[..., None] * re_img
            if im_img is not None:
                out += zetas[:, :, k].imag[..., None] * im_img
        return out

    return channels, block


def _table_blocks(values, mp, live):
    """Channels and block maker of a table: rows from `values`, rotated by mp."""
    def block(start, zetas):
        coeffs = values[start:start + len(zetas), None, :]
        rotated = _matvecs(mp, coeffs)
        out = np.zeros(zetas.shape[:2] + (DIM,))
        for k, (_, op) in enumerate(live):
            zeta = zetas[:, :, k]
            chan = zeta.real[..., None] * coeffs + zeta.imag[..., None] * rotated
            out += chan if op is None else _matvecs(op, chan)
        return out

    return [(plus, None) for plus, _ in live], block


def _block_stop(norms, quiet, tol):
    """The first stopping index of each point in a block of term norms.

    `norms` is (terms, points).  Diverged at a norm that is non-finite or
    above EVAL_BLOWUP; Converged at the norm that completes EVAL_WINDOW
    nonzero norms in a row below tol, counting on from the `quiet` run each
    point's previous block ended with (exact zeros neither reset nor advance
    the run).  Returns (stop, diverged, runs): the stopping index (the block
    length where nothing stops), whether that stop is Diverged, and the run
    at the end of the block.
    """
    n = len(norms)
    blown = ~np.isfinite(norms) | (norms > _tol.EVAL_BLOWUP)
    loud = norms >= tol
    soft = np.cumsum(~loud & (norms > 0.0), axis=0)
    last_loud = np.maximum.accumulate(
        np.where(loud, np.arange(n)[:, None], -1), axis=0)
    before = np.take_along_axis(soft, np.maximum(last_loud, 0), axis=0)
    runs = soft - np.where(last_loud >= 0, before, -quiet)
    hits = blown | (runs >= _tol.EVAL_WINDOW)
    stop = np.where(hits.any(axis=0), hits.argmax(axis=0), n)
    diverged = blown[np.minimum(stop, n - 1), np.arange(norms.shape[1])]
    return stop, diverged, runs[-1]


def _evaluate_chunk(steps, make_block, rows, max_terms, tol, gaps):
    """Partial sums and verdicts of points on one slice.

    `steps` is (points, channels): the complex step of each point in each
    live channel.  The points run through blocks of the first `rows` terms
    together, and each one leaves the active set at its own stopping index.
    Every term past `rows` is an exact zero, so a point still running there
    finishes in closed form: its sum stays, zero norms fill its window and
    it uses all max_terms terms.  With `gaps` (a gap series) each block's
    rows off the support 1, 2, 4, ... are zeroed, a block with no support row
    is not built, and a point that uses every term is Converged only if its
    last nonzero term was below tol.  Returns one report per point.
    """
    out = [None] * len(steps)
    idx = np.arange(len(steps))
    zetas = np.ones(steps.shape, dtype=complex)
    total = np.zeros((len(steps), DIM))
    quiet = np.zeros(len(steps), dtype=np.intp)
    window = np.zeros((0, len(steps)))  # the last EVAL_WINDOW norms of each point
    for start in range(0, rows, _BLOCK):
        n = min(_BLOCK, rows - start)
        chain = np.empty((n + 1,) + steps.shape, dtype=complex)
        chain[0] = zetas
        chain[1:] = steps
        chain = np.multiply.accumulate(chain, axis=0)
        zetas = chain[n]
        support = _on_support(np.arange(start, start + n))
        if gaps and not support.any():  # n exact zeros: only the window moves
            window = np.concatenate((window, np.zeros((n, len(idx)))))[-_tol.EVAL_WINDOW:]
            continue
        block = make_block(start, chain[:n])
        if gaps:
            block[~support] = 0.0
        norms = np.sqrt(_dots(block))
        stop, diverged, quiet = _block_stop(norms, quiet, tol)
        # The partial sums, in term order: total + row 0 + row 1 + ..., with
        # each point's rows past its stop zeroed.  A sum that starts at +0.0
        # never becomes -0.0, so adding +0.0 leaves all its bits unchanged,
        # and a reduction over the leading axis adds the rows one by one.
        used = np.minimum(stop + 1, len(block))
        block[np.arange(len(block))[:, None] >= used] = 0.0
        block[0] += total
        total = np.add.reduce(block[:used.max()], axis=0)
        norms = np.concatenate((window, norms))
        done = stop < len(block)
        for j in np.flatnonzero(done):
            end = len(window) + stop[j] + 1
            tail = norms[max(0, end - _tol.EVAL_WINDOW):end, j].tolist()
            verdict = Verdict.DIVERGED if diverged[j] else Verdict.CONVERGED
            out[idx[j]] = _report(total[j], start + int(used[j]), verdict, tail)
        keep = ~done
        idx, steps, zetas, total, quiet = (
            x[keep] for x in (idx, steps, zetas, total, quiet))
        window = norms[-_tol.EVAL_WINDOW:, keep]
        if not idx.size:
            break
    zeros = np.zeros((min(_tol.EVAL_WINDOW, max_terms - rows), len(idx)))
    window = np.concatenate((window, zeros))[-_tol.EVAL_WINDOW:]
    for j, i in enumerate(idx):
        tail = window[:, j].tolist()
        if max(tail) < tol and (quiet[j] or not gaps):
            verdict = Verdict.CONVERGED
        elif len(tail) == _tol.EVAL_WINDOW and min(tail) > 1.0 and tail[-1] >= tail[0]:
            verdict = Verdict.DIVERGED
        else:
            verdict = Verdict.UNDETERMINED
        out[i] = _report(total[j], max_terms, verdict, tail)
    return out


def _report(total, terms: int, verdict: Verdict, tail: list[float]) -> EvalReport:
    # a NaN norm reads as inf: Python's max would skip it at the end of the window
    return EvalReport(partial_sum=CDElement(total), terms_used=terms, verdict=verdict,
                      tail_norm=max(math.inf if math.isnan(x) else x for x in tail))


def _channels(q: WPoint, p: WPoint):
    """The rotation mp and the live channels (plus channel?, C) of q's slice.

    Complex powers act through the center axis, or through I_q for a real p.
    On the center plane (a real q lies on it) one channel lives, C_plus for
    I_q = I_p and C_minus for I_q = -I_p, and C is the exact identity (None);
    off it both live, with C_pm = (id -+ M_q M_p)/2.
    """
    mp = (q.axis if p.is_real else p.axis).matrix
    sign = _plane_sign(p, p.axis if q.is_real else q.axis)
    if sign:
        return mp, [(sign > 0, None)]
    prod = q.axis.matrix @ mp
    return mp, [(True, (np.eye(DIM) - prod) / 2.0), (False, (np.eye(DIM) + prod) / 2.0)]


def evaluate_points(qs: Sequence[WPoint], p: WPoint, a: SeqSpec,
                    max_terms: int = 200, tol: float = _tol.EVAL_TOL) -> list[EvalReport]:
    """Partial sums of sum_l (q - p)^{*l} a_l with a verdict, for every q in qs.

    Each monomial is evaluated through the two-channel operator form

        (q - p)^{*l} a = C_plus (w - z)^l a + C_minus (conj(w) - z)^l a

    with w = z_q, z = z_p, complex powers acting through the center axis,
    and C_pm = (id -+ M_q M_p)/2 built from left-multiplication matrices.
    On the center plane (I_q = +-I_p, a real q or a real p) only one channel
    lives, and it is the exact identity: the other operator is only zero up
    to rounding, and a 1e-16-sized operator times a geometrically growing
    power would otherwise poison the sum.

    Points are grouped by slice (whether q is real, and I_q) and run in
    chunks of at most 256 points, 64 terms per point at a time as one
    (64, points, 16) array; each point adds its terms in order up to its own
    stopping index, so every report carries the same rounding as adding one
    term at a time for that point alone.  No floating-point warning escapes:
    a non-finite term is the Diverged verdict.  A center hit (q = p) gets
    a_0 at once.

    Geometric sums and gap series go through their ratio groups, whose four
    channel images (C_pm of the coefficient and of its I_p rotation) are
    computed once; an image that is rounding dust of a formally dead direction
    (every kernel-curve slice has these) is dropped (`_geometric_blocks`), so
    it cannot ride a growing power.  The ratio is folded into the step, never
    raised to a power alone, and a gap series zeroes the terms off its
    support 1, 2, 4, ....  A table is a finite sum: only its
    len(values) terms are computed, and a point still running after them
    keeps its sum, gets zero norms in its window and reports terms_used =
    max_terms, as if the zero terms had been added.

    Verdicts: Converged once 50 nonzero term norms in a row stay below tol
    (summation stops there; exactly-zero terms neither reset nor advance the
    count, so gap sequences cannot fake a quiet stretch); Diverged when a
    term norm passes 1e6 or is not finite, or when the final window sits
    above 1 without decreasing; else Undetermined.  A point that runs all
    max_terms terms is Converged when its final window stays below tol; for
    a gap series, whose window past the last support term holds only exact
    zeros, its last nonzero term must also be below tol.
    """
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")
    center = p.key
    gaps = isinstance(a, Lacunary) and any(a.coeff)  # the zero series has no gaps
    reports: list[EvalReport | None] = [None] * len(qs)
    slices: dict[tuple, list[int]] = {}  # (q real?, axis) -> point indices
    for i, q in enumerate(qs):
        if q.key == center:
            reports[i] = _report(a.term(0), 1, Verdict.CONVERGED, [0.0])
        else:
            slices.setdefault((q.is_real, q.axis), []).append(i)
    with np.errstate(all="ignore"):
        for members in slices.values():
            mp, live = _channels(qs[members[0]], p)
            if isinstance(a, TableSeq):
                channels, make_block = _table_blocks(a.rows, mp, live)
                rows = min(max_terms, len(a.values))
            else:
                channels, make_block = _geometric_blocks(a, mp, live)
                rows = max_terms
            for lo in range(0, len(members), _CHUNK):
                chunk = members[lo:lo + _CHUNK]
                steps = []
                for i in chunk:
                    w, z = qs[i].z, p.z
                    step = {True: w - z, False: w.conjugate() - z}  # C_plus, C_minus
                    # Python complex division: numpy's rounds differently in the last bit
                    steps.append([step[plus] if ratio is None else step[plus] / ratio
                                  for plus, ratio in channels])
                steps = np.array(steps, dtype=complex).reshape(len(chunk), len(channels))
                for i, rep in zip(chunk, _evaluate_chunk(steps, make_block, rows, max_terms,
                                                         tol, gaps)):
                    reports[i] = rep
    return reports


def evaluate_series(q: WPoint, p: WPoint, a: SeqSpec,
                    max_terms: int = 200, tol: float = _tol.EVAL_TOL) -> EvalReport:
    """The report of `evaluate_points` for the single point q."""
    return evaluate_points([q], p, a, max_terms=max_terms, tol=tol)[0]


# ---------------------------------------------------------------------------
# convergence scan
# ---------------------------------------------------------------------------


class ScanRow(NamedTuple):
    theta: float
    re: float
    im: float
    predicted: Membership
    empirical: Verdict
    terms_used: int
    tail_norm: float


class ScanResult(NamedTuple):
    rows: tuple[ScanRow, ...]
    scored: int
    agreed: int

    @property
    def agreement(self) -> float:
        return 1.0 if self.scored == 0 else self.agreed / self.scored


def polar_grid(radii: Sequence[float], thetas: Sequence[float]) -> tuple[NDArray, NDArray]:
    """re and im of r*exp(i*theta), one row per theta: r*cos, r*sin from `math`."""
    r = np.asarray(radii, dtype=float)
    return (np.multiply.outer([math.cos(t) for t in thetas], r),
            np.multiply.outer([math.sin(t) for t in thetas], r))


def convergence_scan(p: WPoint, a: SeqSpec, slice_unit: SliceUnit,
                     radial_grid: Sequence[float], angular_grid: Sequence[float],
                     max_terms: int = 400, tol: float = _tol.EVAL_TOL,
                     band: float = _tol.SCAN_BAND) -> ScanResult:
    """Empirical-vs-predicted sweep over z = r*exp(i*theta) on one slice.

    A point with Im z < 0 lies on the slice of -J; its row keeps the signed
    re and im of z, so re + im*J is the point tested.  Every membership within
    `band` of a radius equality classifies Boundary and is excluded from the
    agreement count; Interior must pair with Converged and Exterior with
    Diverged to score as agreement.  A point whose call depends on the
    kernel threshold of R_a^{p,J} is Boundary as well (`_two_disk_rule`).
    """
    if not radial_grid or not angular_grid:
        raise ValueError("scan grids must be nonempty")
    re, im = polar_grid(radial_grid, angular_grid)
    codes = domain(p, a).classify(re, im, slice_unit, band).ravel().tolist()
    xs, ys = re.ravel().tolist(), im.ravel().tolist()
    qs = [wpoint_from(x, y, slice_unit) for x, y in zip(xs, ys)]
    reports = evaluate_points(qs, p, a, max_terms=max_terms, tol=tol)
    thetas = [theta for theta in angular_grid for _ in radial_grid]
    rows = []
    scored = agreed = 0
    for theta, x, y, code, report in zip(thetas, xs, ys, codes, reports):
        rows.append(ScanRow(theta=theta, re=x, im=y,
                            predicted=_MEMBERSHIP[code], empirical=report.verdict,
                            terms_used=report.terms_used, tail_norm=report.tail_norm))
        if code:
            scored += 1
            agreed += report.verdict is (Verdict.CONVERGED if code < 0 else Verdict.DIVERGED)
    return ScanResult(rows=tuple(rows), scored=scored, agreed=agreed)
