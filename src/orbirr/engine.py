"""Both sides of Riemann-Roch on classifying stacks BG.

The left side is the invariant dimension (global sections on BG); the right
side is the pushforward of the twisted Chern character over the inertia
sectors, one term V(h)/|Z_h| per conjugacy class.  The module also produces
the witness showing that no field-valued multiplicative Chern character on
the coarse side can compute invariants: a nontrivial one-dimensional
character with chi^{tensor m} trivial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chartab import character_table
from .exact import Cyclotomic, rational
from .groups import PermGroup
from .inertia import BGSector, inertia_of_bg
from .repring import (ClassFunction, assert_actual, invariants_dim,
                      irreducible, tensor, trivial_character)


@dataclass(frozen=True)
class HrrBgReport:
    group_name: str
    rep_descriptor: str
    lhs: Fraction
    rhs: Fraction
    per_sector: tuple[tuple[str, Cyclotomic], ...]
    verdict: str  # "equal" | "mismatch"


def hrr_bg_lhs(G: PermGroup, v: ClassFunction) -> Fraction:
    """dim V^G: the Euler characteristic of V on BG."""
    assert_actual(v, "hrr_bg_lhs")
    return invariants_dim(v)


def hrr_bg_rhs(G: PermGroup, v: ClassFunction,
               sectors: list[BGSector] | None = None
               ) -> tuple[Fraction, list[tuple[str, Cyclotomic]]]:
    """sum over classes of V(h)/|Z_h| with the per-sector breakdown.

    Each sector of I_BG is the gerbe point [pt/Z_h]; the twisted Chern value
    at its base point is V(h), the conormal is zero so alpha = 1, and the
    pushforward to the point carries weight 1/|Z_h|.
    """
    if sectors is None:
        sectors = inertia_of_bg(G)
    per_sector: list[tuple[str, Cyclotomic]] = []
    total = rational(0)
    for s in sectors:
        contrib = v.values[s.class_index] * rational(Fraction(1, s.sector_group.order))
        per_sector.append((s.label, contrib))
        total = total + contrib
    q = total.as_rational()
    if q is None:
        raise ValueError("inertia sum of a character failed to be rational")
    return q, per_sector


def verify_hrr_bg(G: PermGroup, v: ClassFunction,
                  descriptor: str = "") -> HrrBgReport:
    lhs = hrr_bg_lhs(G, v)
    rhs, per_sector = hrr_bg_rhs(G, v)
    return HrrBgReport(
        group_name=G.name,
        rep_descriptor=descriptor,
        lhs=lhs,
        rhs=rhs,
        per_sector=tuple(per_sector),
        verdict="equal" if lhs == rhs else "mismatch",
    )


# -- the obstruction witness -------------------------------------------------------


@dataclass(frozen=True)
class ObstructionWitness:
    """A nontrivial 1-dim character chi with chi^{tensor m} trivial.

    dim chi^G = 0 while dim (chi^{tensor m})^G = 1, so no multiplicative
    field-valued Chern character can send V to dim V^G.
    """

    character_index: int
    order: int
    dim_invariants: Fraction
    dim_invariants_power: Fraction


def etale_obstruction_witness(G: PermGroup) -> ObstructionWitness | None:
    """First nontrivial 1-dim character and its tensor order, or None when
    the group is perfect."""
    table = character_table(G)
    triv = trivial_character(G)
    for i, d in enumerate(table.degrees):
        if d != 1:
            continue
        chi = irreducible(G, i)
        if chi == triv:
            continue
        power = chi
        m = 1
        while power != triv:
            power = tensor(power, chi)
            m += 1
            if m > G.order:
                raise AssertionError("runaway order of a 1-dim character")
        return ObstructionWitness(
            character_index=i,
            order=m,
            dim_invariants=invariants_dim(chi),
            dim_invariants_power=invariants_dim(power),
        )
    return None
