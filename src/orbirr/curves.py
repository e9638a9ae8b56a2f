"""Stacky curves, Q-divisors, and the curve-level Riemann-Roch identity.

Line bundles are modeled purely arithmetically by (free degree, local weight
at each stacky point); the Euler characteristic depends on nothing else.  The
inertia-sum integral is computed with exact cyclotomic sector terms and must
come out integral and equal to the coarse-space floor oracle; a non-integer
total raises instead of returning.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction

from .exact import Cyclotomic, rational, root_of_unity
from .groups import _int_field
from .inertia import CurveSector


class HrrIntegralityError(RuntimeError):
    """The inertia sum failed to be an integer: a convention bug, never data."""


@dataclass(frozen=True)
class StackyCurve:
    """Coarse genus plus stacky points (label, order >= 2)."""

    genus: int
    points: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError("genus must be >= 0")
        labels = [p[0] for p in self.points]
        if len(set(labels)) != len(labels):
            raise ValueError("stacky point labels must be distinct")
        if any(n < 2 for _, n in self.points):
            raise ValueError("stacky point orders must be >= 2")

    def order_of(self, label: str) -> int:
        for lab, n in self.points:
            if lab == label:
                return n
        raise KeyError(label)

    def describe(self) -> str:
        pts = ",".join(f"{lab}:{n}" for lab, n in self.points)
        return f"(g={self.genus}; {pts or 'smooth'})"


@dataclass(frozen=True)
class QDivisor:
    """Divisor class in canonical form: 0 <= weight < order at each point."""

    curve: StackyCurve
    free_degree: int
    weights: tuple[tuple[str, int], ...]

    def weight(self, label: str) -> int:
        for lab, a in self.weights:
            if lab == label:
                return a
        return 0

    def deg(self) -> Fraction:
        total = Fraction(self.free_degree)
        for lab, a in self.weights:
            total += Fraction(a, self.curve.order_of(lab))
        return total

    def floor_deg(self) -> int:
        return self.free_degree

    def __add__(self, other: "QDivisor") -> "QDivisor":
        if other.curve != self.curve:
            raise ValueError("divisors on different curves")
        w = {lab: a for lab, a in self.weights}
        for lab, a in other.weights:
            w[lab] = w.get(lab, 0) + a
        return q_divisor(self.curve, self.free_degree + other.free_degree, w)

    def __sub__(self, other: "QDivisor") -> "QDivisor":
        if other.curve != self.curve:
            raise ValueError("divisors on different curves")
        w = {lab: a for lab, a in self.weights}
        for lab, a in other.weights:
            w[lab] = w.get(lab, 0) - a
        return q_divisor(self.curve, self.free_degree - other.free_degree, w)


def q_divisor(curve: StackyCurve, free_degree: int = 0,
              weights: dict[str, int] | None = None) -> QDivisor:
    """Build a divisor in canonical form, carrying floor(a/n) into the free part."""
    weights = dict(weights or {})
    known = {lab for lab, _ in curve.points}
    unknown = set(weights) - known
    if unknown:
        raise ValueError(f"weights reference unknown points {sorted(unknown)}")
    d = int(free_degree)
    canon = []
    for lab, n in curve.points:
        a = int(weights.get(lab, 0))
        d += a // n
        a %= n
        canon.append((lab, a))
    return QDivisor(curve, d, tuple(canon))


# -- curve invariants -----------------------------------------------------------


def tangent_degree(curve: StackyCurve) -> Fraction:
    """deg T_F = 2 - 2g - sum (n_j - 1)/n_j, exactly."""
    total = Fraction(2 - 2 * curve.genus)
    for _, n in curve.points:
        total -= Fraction(n - 1, n)
    return total


def canonical_divisor(curve: StackyCurve) -> QDivisor:
    """Free part 2g-2 plus weight n_j - 1 at each stacky point."""
    return q_divisor(curve, 2 * curve.genus - 2,
                     {lab: n - 1 for lab, n in curve.points})


def euler_char_oracle(curve: StackyCurve, div: QDivisor) -> int:
    """Independent oracle: classical Riemann-Roch on the coarse pushforward,
    chi = 1 - g + deg floor(D)."""
    return 1 - curve.genus + div.floor_deg()


def sector_contribution(sector: CurveSector, div: QDivisor) -> Cyclotomic:
    """(1/n) zeta^{k a} / (1 - zeta^{-k}) on a twisted sector."""
    if sector.kind != "twisted":
        raise ValueError("untwisted sector is integrated by hrr_integral directly")
    return _sector_term(sector.order, sector.twist_k, div.weight(sector.point_label))


def _sector_term(n: int, k: int, a: int) -> Cyclotomic:
    num = root_of_unity(n, k * a)
    return num / (rational(n) * (rational(1) - root_of_unity(n, -k)))


@functools.lru_cache(maxsize=None)
def _point_total(n: int, a: int) -> Fraction:
    # sum over k of the twisted terms at one stacky point; Galois-invariant,
    # hence rational.
    total = rational(0)
    for k in range(1, n):
        total = total + _sector_term(n, k, a)
    q = total.as_rational()
    if q is None:
        raise AssertionError("point sum failed to be rational (internal bug)")
    return q


def hrr_integral(curve: StackyCurve, div: QDivisor) -> Fraction:
    """Inertia-sum side of Riemann-Roch: untwisted Todd term plus all twisted
    sector contributions.  Raises HrrIntegralityError if not an integer."""
    untwisted = div.deg() + 1 - curve.genus
    for _, n in curve.points:
        untwisted -= Fraction(n - 1, 2 * n)
    total = untwisted
    for lab, n in curve.points:
        total += _point_total(n, div.weight(lab))
    if total.denominator != 1:
        raise HrrIntegralityError(
            f"chi came out non-integral ({total}) on {curve.describe()}")
    return total


def euler_orb(curve: StackyCurve) -> Fraction:
    """Orbifold Euler characteristic: stratum-weighted sum over the coarse
    space; equals the degree of the tangent class (Gauss-Bonnet)."""
    r = len(curve.points)
    total = Fraction(2 - 2 * curve.genus - r)
    for _, n in curve.points:
        total += Fraction(1, n)
    return total


def euler_phy(curve: StackyCurve) -> int:
    """Physicists' Euler characteristic: chi_top of the inertia coarse space."""
    return 2 - 2 * curve.genus + sum(n - 1 for _, n in curve.points)


def gauss_bonnet_coarse(curve: StackyCurve) -> int:
    """chi(O) - chi(Omega) through the inertia integral; equals 2 - 2g."""
    chi_o = hrr_integral(curve, q_divisor(curve))
    chi_k = hrr_integral(curve, canonical_divisor(curve))
    diff = chi_o - chi_k
    assert diff.denominator == 1
    return int(diff)


def from_group_action(quotient_genus: int, branch_orders, group_order: int
                      ) -> tuple[StackyCurve, int]:
    """The stacky curve [X/G] with the given ramification data, plus the genus
    of the cover X from Riemann-Hurwitz.  Rejects inconsistent data."""
    orders = [int(n) for n in branch_orders]
    for n in orders:
        if n < 2 or group_order % n:
            raise ValueError(f"branch order {n} must be >= 2 and divide |G|")
    curve = StackyCurve(quotient_genus,
                        tuple((f"x{i+1}", n) for i, n in enumerate(orders)))
    rhs = group_order * tangent_degree(curve)  # = 2 - 2 g_X
    g_x = (2 - rhs) / 2
    if g_x.denominator != 1 or g_x < 0:
        raise ValueError(
            f"inconsistent ramification data: cover genus would be {g_x}")
    return curve, int(g_x)


# -- JSON interfaces --------------------------------------------------------------


def curve_from_json(spec) -> StackyCurve:
    """{"genus":0,"points":[{"label":"x1","order":2}, ...]}"""
    if isinstance(spec, str):
        spec = json.loads(spec)
    points = spec.get("points", [])
    if not isinstance(points, list) or not all(isinstance(p, dict) for p in points):
        raise ValueError("curve needs a list of point objects 'points', "
                         f"got {json.dumps(points)}")
    pts = tuple((str(p["label"]), _int_field(p, f"point {p['label']!r}", "order"))
                for p in points)
    return StackyCurve(_int_field(spec, "curve", "genus"), pts)


def divisor_from_json(curve: StackyCurve, spec) -> QDivisor:
    """{"free_degree":-2,"weights":{"x1":1,"x2":2,"x3":6}}"""
    if isinstance(spec, str):
        spec = json.loads(spec)
    weights = spec.get("weights", {})
    if not isinstance(weights, dict):
        raise ValueError("divisor needs an object 'weights', "
                         f"got {json.dumps(weights)}")
    free = _int_field(spec, "divisor", "free_degree") if "free_degree" in spec else 0
    return q_divisor(curve, free,
                     {k: _int_field(weights, "divisor 'weights'", k) for k in weights})
