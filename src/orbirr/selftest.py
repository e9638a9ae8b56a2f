"""Self-contained verification grids behind the `selftest` CLI command.

Each check calls the public functions it names and compares them with an
independent route:

- char_tables: `character_table` against orthogonality, sum d^2 = |G|,
  d | |G| and the regular character sum_i d_i chi_i;
- bg_hrr: `verify_hrr_bg`, dim V^G against the inertia sum, for every
  irreducible, the regular and the permutation character;
- rho_projector: `rho_twist(v, s)` against `twisted_closed_form(v, s)`
  (g -> v(hg)) and the eigenspace dimensions of `eigenspace_characters`
  against dim v, on every (sector, irreducible); then multiplicativity of
  `rho_twist` on 50 random tensor pairs;
- lambda_matrix: every `exterior_power` lambda^k(chi), 0 <= k <= degree, of
  the permutation character, and `lambda_minus_one(chi)`, against the
  coefficients and the value at t = -1 of det(1 + tP), read off the cycle
  type of each class representative; lambda^(degree+1) must vanish;
- curve_hrr: `hrr_integral` against the coarse oracle on a grid of stacky
  curves and Q-divisors, and `euler_orb` against `tangent_degree`;
- orbifold_237, esum, obstruction: closed forms for the (2,3,7) orbifold,
  sum_k 1/(1 - zeta_n^-k) = (n-1)/2, and the etale obstruction witness.

Every check is an exact identity; a single counterexample marks the whole
check failed and the CLI exits 2.  `inject_mismatch` deliberately perturbs
one character value before checking, to exercise the failure path end to end;
with no group of order > 1 under the cap there is nothing to perturb, and it
raises ValueError instead of passing.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product

from .chartab import CharacterTable, character_table, verify_orthogonality
from .curves import (StackyCurve, euler_char_oracle, euler_orb, euler_phy,
                     gauss_bonnet_coarse, hrr_integral, q_divisor,
                     tangent_degree)
from .engine import etale_obstruction_witness, verify_hrr_bg
from .exact import rational, root_of_unity
from .groups import PermGroup, alternating, catalog
from .inertia import (eigenspace_characters, inertia_of_bg, rho_twist,
                      twisted_closed_form)
from .repring import (ClassFunction, exterior_power, irreducible,
                      irreducibles, lambda_minus_one, permutation_character,
                      regular_character, tensor)


@dataclass
class CheckResult:
    name: str
    instances: int
    failures: int
    ok: bool
    note: str = ""


def check_char_tables(groups: list[PermGroup], inject_mismatch: bool = False
                      ) -> CheckResult:
    instances = failures = 0
    inject_at = next((i for i, G in enumerate(groups) if G.order > 1), -1)
    for gi, G in enumerate(groups):
        table = character_table(G)
        rows = [list(row) for row in table.rows]
        if inject_mismatch and gi == inject_at:
            rows[0][-1] = rows[0][-1] + 1
        probe = CharacterTable(group=G, rows=tuple(tuple(r) for r in rows),
                               degrees=table.degrees, prime=table.prime)
        checks = [
            verify_orthogonality(probe),
            sum(d * d for d in probe.degrees) == G.order,
            all(G.order % d == 0 for d in probe.degrees),
        ]
        # regular character decomposition: sum_i d_i chi_i
        reg = regular_character(G)
        got = ClassFunction(G, [0] * len(rows))
        for d, row in zip(probe.degrees, probe.rows):
            got = got + d * ClassFunction(G, row)
        checks.append(got == reg)
        instances += len(checks)
        failures += sum(0 if c else 1 for c in checks)
    return CheckResult("char_tables", instances, failures, failures == 0)


def check_bg_hrr(groups: list[PermGroup]) -> CheckResult:
    instances = failures = 0
    for G in groups:
        reps = [(f"irreducible {i}", irreducible(G, i))
                for i in range(len(character_table(G).rows))]
        reps.append(("regular", regular_character(G)))
        reps.append(("permutation", permutation_character(G)))
        for label, v in reps:
            report = verify_hrr_bg(G, v, label)
            instances += 1
            if report.verdict != "equal":
                failures += 1
    return CheckResult("bg_hrr", instances, failures, failures == 0,
                       note=f"{instances} identities")


def check_rho_projector(groups: list[PermGroup]) -> CheckResult:
    instances = failures = 0
    sectors_of = {}
    twists = {}  # (group name, sector index, irreducible index) -> rho_twist
    for G in groups:
        sectors_of[G.name] = sectors = inertia_of_bg(G)
        irreps = irreducibles(G)
        for s_idx, sector in enumerate(sectors):
            for i, v in enumerate(irreps):
                instances += 2
                twists[G.name, s_idx, i] = rho = rho_twist(v, sector)
                if rho != twisted_closed_form(v, sector):
                    failures += 1
                dims = sum((e.dim() for e in eigenspace_characters(v, sector)),
                           start=Fraction(0))
                if dims != v.dim():
                    failures += 1
    # multiplicativity of the inertia decomposition on random tensor pairs
    rng = random.Random(2024)
    pool = [G for G in groups if G.order > 1]
    for _ in range(50 if pool else 0):
        G = rng.choice(pool)
        n_irr = len(character_table(G).rows)
        ia, ib = rng.randrange(n_irr), rng.randrange(n_irr)
        ab = tensor(irreducible(G, ia), irreducible(G, ib))
        for s_idx, sector in enumerate(sectors_of[G.name]):
            instances += 1
            if rho_twist(ab, sector) != tensor(twists[G.name, s_idx, ia],
                                               twists[G.name, s_idx, ib]):
                failures += 1
    return CheckResult("rho_projector", instances, failures, failures == 0)


def _det_one_plus_tp(perm) -> list[int]:
    # det(1 + tP) for the permutation matrix P of perm: the product over the
    # cycles c of perm of (1 - (-t)^|c|); coefficient k is the trace of P on
    # the k-th exterior power
    coeffs = [1]
    seen = [False] * len(perm)
    for start in range(len(perm)):
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        if length:
            sign = -(-1) ** length
            coeffs = [a + sign * b for a, b in
                      zip(coeffs + [0] * length, [0] * length + coeffs)]
    return coeffs


def check_lambda_matrix() -> CheckResult:
    from .groups import cyclic, dihedral, symmetric

    instances = failures = 0
    groups = [symmetric(3), symmetric(4), dihedral(4)]
    groups += [cyclic(n) for n in range(1, 9)]
    for G in groups:
        chi = permutation_character(G)
        lams = [exterior_power(chi, k) for k in range(G.degree + 2)]
        lam = lambda_minus_one(chi)
        for cls_idx, cls in enumerate(G.conjugacy_classes()):
            poly = _det_one_plus_tp(cls.representative)
            at_minus_one = sum(c * (-1) ** k for k, c in enumerate(poly))
            instances += 1
            if ([lk.values[cls_idx] for lk in lams[:-1]]
                    != [rational(c) for c in poly]
                    or lam.values[cls_idx] != rational(at_minus_one)):
                failures += 1
        # lambda^k vanishes above the dimension
        instances += 1
        if any(not v.is_zero() for v in lams[-1].values):
            failures += 1
    return CheckResult("lambda_matrix", instances, failures, failures == 0)


def check_curve_hrr(genus_max: int = 2, max_order: int = 8) -> CheckResult:
    # every genus <= genus_max with at most three stacky points of order
    # <= max_order, against every Q-divisor of free degree -3..3
    curves = [StackyCurve(g, tuple((f"x{i+1}", n) for i, n in enumerate(orders)))
              for g in range(genus_max + 1) for r in range(4)
              for orders in combinations_with_replacement(
                  range(2, max_order + 1), r)]
    instances = failures = 0
    for c in curves:
        instances += 1
        if euler_orb(c) != tangent_degree(c):
            failures += 1
        labels = [lab for lab, _ in c.points]
        for d in range(-3, 4):
            for weights in product(*[range(n) for _, n in c.points]):
                div = q_divisor(c, d, dict(zip(labels, weights)))
                instances += 1
                try:
                    if hrr_integral(c, div) != euler_char_oracle(c, div):
                        failures += 1
                except Exception:
                    failures += 1
    return CheckResult("curve_hrr", instances, failures, failures == 0,
                       note=f"{len(curves)} curves")


def check_orbifold_point() -> CheckResult:
    c = StackyCurve(0, (("x1", 2), ("x2", 3), ("x3", 7)))
    checks = [
        tangent_degree(c) == Fraction(-1, 42),
        euler_orb(c) == Fraction(-1, 42),
        euler_phy(c) == 11,
        gauss_bonnet_coarse(c) == 2,
        hrr_integral(c, q_divisor(c)) == 1,
    ]
    failures = sum(0 if ok else 1 for ok in checks)
    return CheckResult("orbifold_237", len(checks), failures, failures == 0)


_ESUM_MAX_N = 50


def check_esum() -> CheckResult:
    instances = failures = 0
    for n in range(2, _ESUM_MAX_N + 1):
        total = rational(0)
        for k in range(1, n):
            total = total + (rational(1) - root_of_unity(n, -k)).inverse()
        instances += 1
        if total != Fraction(n - 1, 2):
            failures += 1
    return CheckResult("esum", instances, failures, failures == 0)


def check_obstruction(groups: list[PermGroup]) -> CheckResult:
    instances = failures = 0
    for G in groups:
        w = etale_obstruction_witness(G)
        instances += 1
        # nontrivial abelianization <=> more than one 1-dim character
        has_abelianization = sum(
            1 for d in character_table(G).degrees if d == 1) > 1
        if has_abelianization:
            if w is None or w.dim_invariants != 0 or w.dim_invariants_power != 1:
                failures += 1
        elif w is not None:
            failures += 1
    a5 = alternating(5)
    instances += 1
    if etale_obstruction_witness(a5) is not None:
        failures += 1
    return CheckResult("obstruction", instances, failures, failures == 0)


def run_selftest(max_group: int = 24, max_order: int = 8, genus_max: int = 2,
                 inject_mismatch: bool = False) -> dict:
    groups = [G for G in catalog() if G.order <= max_group]
    if inject_mismatch and all(G.order == 1 for G in groups):
        raise ValueError(f"nothing to perturb: no catalog group of order > 1 "
                         f"is within the group cap {max_group}")
    results = [
        check_char_tables(groups, inject_mismatch=inject_mismatch),
        check_bg_hrr(groups),
        check_rho_projector(groups),
        check_lambda_matrix(),
        check_curve_hrr(genus_max=genus_max, max_order=max_order),
        check_orbifold_point(),
        check_esum(),
        check_obstruction(groups),
    ]
    return {
        "checks": [asdict(r) for r in results],
        "ok": all(r.ok for r in results),
    }
