"""Inertia components of BG and of stacky curves, and the twisting map.

For BG the inertia stack is one sector [pt/Z_h] per conjugacy class [h]; a
bundle V pulled back to the sector splits into eigenspaces of the canonical
automorphism h, and the twist is the root-of-unity-weighted sum of the
eigenspace characters.  For a stacky curve the twisted sectors are residual
gerbes, each carrying the tangent weight of its automorphism and the
invertible correction class alpha = 1 - zeta^{-k} of the conormal line.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import Cyclotomic, rational, root_of_unity, weighted_root_sum
from .groups import Perm, PermGroup, cycle_string, pmul, porder, ppow
from .repring import ClassFunction


@dataclass(frozen=True)
class BGSector:
    """One component [pt/Z_h] of the inertia of BG."""

    class_index: int
    automorphism: Perm
    sector_group: PermGroup

    @property
    def label(self) -> str:
        return f"[{cycle_string(self.automorphism)}]"

    @property
    def order(self) -> int:
        return porder(self.automorphism)


def inertia_of_bg(G: PermGroup) -> list[BGSector]:
    """One sector per conjugacy class, in class order."""
    sectors = []
    for i, cls in enumerate(G.conjugacy_classes()):
        sectors.append(BGSector(
            class_index=i,
            automorphism=cls.representative,
            sector_group=G.centralizer_subgroup(i),
        ))
    return sectors


def _twisted_value_table(v: ClassFunction, sector: BGSector) -> list[list[Cyclotomic]]:
    # table[i][c] = v(h^i * g_c) for the class representatives g_c of Z_h
    G = v.group
    h = sector.automorphism
    m = sector.order
    Z = sector.sector_group
    reps = [cls.representative for cls in Z.conjugacy_classes()]
    table = []
    power = ppow(h, 0)
    for i in range(m):
        row = []
        for g in reps:
            prod = pmul(power, g)
            row.append(v.values[G.class_of(prod)])
        table.append(row)
        power = pmul(power, h)
    return table


def eigenspace_characters(v: ClassFunction, sector: BGSector) -> list[ClassFunction]:
    """Characters of the zeta_m^j-eigenspaces of v as Z_h-representations.

    Entry j is g -> (1/m) sum_i zeta_m^{-ij} v(h^i g), located through the
    class fusion of Z_h into the ambient group; all m come from one pass over
    the twisted values.
    """
    m = sector.order
    table = _twisted_value_table(v, sector)
    scale = rational(Fraction(1, m))
    per_j = [[] for _ in range(m)]
    for c in range(len(table[0])):
        for j in range(m):
            per_j[j].append(
                weighted_root_sum(m, ((-i * j, table[i][c]) for i in range(m)))
                * scale)
    return [ClassFunction(sector.sector_group, vals) for vals in per_j]


def rho_twist(v: ClassFunction, sector: BGSector) -> ClassFunction:
    """The twist sum_j zeta_m^j . (zeta_m^j-eigenspace of v) on Z_h.

    Satisfies the closed form g -> v(h g); the identity is what the projector
    acceptance check verifies.
    """
    m = sector.order
    eigs = eigenspace_characters(v, sector)
    vals = [
        weighted_root_sum(m, ((j, eigs[j].values[c]) for j in range(m)))
        for c in range(len(eigs[0].values))
    ]
    return ClassFunction(sector.sector_group, vals)


def twisted_closed_form(v: ClassFunction, sector: BGSector) -> ClassFunction:
    """g -> v(h g) directly; the independent side of the projector identity."""
    table = _twisted_value_table(v, sector)
    return ClassFunction(sector.sector_group, table[1] if sector.order > 1
                         else table[0])


def decompose_on_inertia(v: ClassFunction,
                         sectors: list[BGSector] | None = None
                         ) -> list[tuple[BGSector, ClassFunction]]:
    """Per-sector twists of v over the inertia of BG (linear in v)."""
    if sectors is None:
        sectors = inertia_of_bg(v.group)
    return [(s, rho_twist(v, s)) for s in sectors]


# -- stacky curves -------------------------------------------------------------


@dataclass(frozen=True)
class CurveSector:
    """A component of the inertia of a stacky curve.

    The canonical automorphism of the twisted sector (point_label, twist_k)
    acts on the tangent line by zeta_n^k, hence on the conormal by
    zeta_n^{-k}; alpha = 1 - zeta_n^{-k} is invertible because 1 <= k < n.
    """

    kind: str                      # "untwisted" | "twisted"
    point_label: str | None = None
    order: int | None = None
    twist_k: int | None = None
    tangent_weight: Cyclotomic | None = None
    alpha: Cyclotomic | None = None

    @property
    def label(self) -> str:
        if self.kind == "untwisted":
            return "untwisted"
        return f"{self.point_label}[k={self.twist_k}]"


def curve_sectors(curve) -> list[CurveSector]:
    """Untwisted sector first, then (point, k) in input order, k ascending."""
    sectors = [CurveSector(kind="untwisted")]
    for label, n in curve.points:
        for k in range(1, n):
            alpha = rational(1) - root_of_unity(n, -k)
            if alpha.is_zero():
                raise AssertionError("vanishing alpha on a twisted sector")
            sectors.append(CurveSector(
                kind="twisted", point_label=label, order=n, twist_k=k,
                tangent_weight=root_of_unity(n, k), alpha=alpha,
            ))
    return sectors
