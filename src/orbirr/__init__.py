"""orbirr: exact Riemann-Roch identities on BG and stacky curves.

The package verifies, in exact arithmetic over cyclotomic fields, both sides
of the Riemann-Roch formula on the two fully computable families of
Deligne-Mumford stacks: classifying stacks of finite groups and stacky
curves.  See the README for the command-line interface.
"""

from .chartab import CharacterTable, character_table, verify_orthogonality
from .curves import (QDivisor, StackyCurve, canonical_divisor,
                     euler_char_oracle, euler_orb, euler_phy, from_group_action,
                     gauss_bonnet_coarse, hrr_integral, q_divisor,
                     sector_contribution, tangent_degree)
from .engine import (HrrBgReport, ObstructionWitness, etale_obstruction_witness,
                     hrr_bg_lhs, hrr_bg_rhs, verify_hrr_bg)
from .exact import (Cyclotomic, conductor_cap, format_cyclotomic,
                    parse_cyclotomic, rational, root_of_unity,
                    set_conductor_cap)
from .groups import (ConjClass, PermGroup, alternating, catalog, cyclic,
                     dihedral, group_from_json, quaternion, symmetric,
                     trivial_group)
from .inertia import (BGSector, CurveSector, curve_sectors, inertia_of_bg,
                      rho_twist)
from .repring import (ClassFunction, VirtualRep, exterior_power, inner_product,
                      invariants_dim, irreducible, irreducibles,
                      lambda_minus_one, permutation_character,
                      regular_character, rep_from_json, tensor,
                      trivial_character, virtual_rep)

__version__ = "0.1.0"
