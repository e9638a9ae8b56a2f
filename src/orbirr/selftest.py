"""Self-contained verification grids behind the `selftest` CLI command.

Every check is an exact identity; a single counterexample marks the whole
check failed and the CLI exits 2.  `inject_mismatch` deliberately perturbs
one character value before checking, to exercise the failure path end to end.
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
from .exact import rational, root_of_unity, weighted_root_sum
from .groups import PermGroup, alternating, catalog
from .inertia import (eigenspace_characters, inertia_of_bg, rho_twist,
                      twisted_closed_form)
from .repring import (ClassFunction, exterior_power, irreducible,
                      lambda_minus_one, permutation_character,
                      regular_character, tensor)


@dataclass
class CheckResult:
    name: str
    instances: int
    failures: int
    ok: bool
    note: str = ""


def _det_fraction(mat: list[list[Fraction]]) -> Fraction:
    # plain fraction-valued Gaussian elimination; matrices here are tiny
    n = len(mat)
    m = [row[:] for row in mat]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det


def _perm_matrix(perm) -> list[list[Fraction]]:
    n = len(perm)
    return [[Fraction(1 if perm[j] == i else 0) for j in range(n)]
            for i in range(n)]


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


def check_rho_projector(groups: list[PermGroup], pairs: int = 50) -> CheckResult:
    instances = failures = 0
    for G in groups:
        sectors = inertia_of_bg(G)
        n_irr = len(character_table(G).rows)
        for sector in sectors:
            m = sector.order
            for i in range(n_irr):
                v = irreducible(G, i)
                instances += 2
                eigs = eigenspace_characters(v, sector)
                rho = ClassFunction(sector.sector_group, [
                    weighted_root_sum(m, ((j, eigs[j].values[c])
                                          for j in range(m)))
                    for c in range(len(eigs[0].values))
                ])
                if rho != twisted_closed_form(v, sector):
                    failures += 1
                dims = sum((e.dim() for e in eigs), start=Fraction(0))
                if dims != v.dim():
                    failures += 1
    # multiplicativity of the inertia decomposition on random tensor pairs
    rng = random.Random(2024)
    pool = [G for G in groups if G.order > 1]
    sector_cache = {}
    twist_cache = {}
    for _ in range(pairs):
        G = rng.choice(pool)
        if G.name not in sector_cache:
            sector_cache[G.name] = inertia_of_bg(G)
        n_irr = len(character_table(G).rows)
        ia, ib = rng.randrange(n_irr), rng.randrange(n_irr)
        a, b = irreducible(G, ia), irreducible(G, ib)
        ab = tensor(a, b)
        for s_idx, sector in enumerate(sector_cache[G.name]):
            instances += 1
            for key, v in [((G.name, s_idx, ia), a), ((G.name, s_idx, ib), b)]:
                if key not in twist_cache:
                    twist_cache[key] = rho_twist(v, sector)
            lhs = rho_twist(ab, sector)
            rhs = tensor(twist_cache[(G.name, s_idx, ia)],
                         twist_cache[(G.name, s_idx, ib)])
            if lhs != rhs:
                failures += 1
    return CheckResult("rho_projector", instances, failures, failures == 0)


def check_lambda_matrix() -> CheckResult:
    from .groups import cyclic, dihedral, symmetric

    instances = failures = 0
    groups = [symmetric(3), symmetric(4), dihedral(4)]
    groups += [cyclic(n) for n in range(1, 9)]
    for G in groups:
        chi = permutation_character(G)
        lam = lambda_minus_one(chi)
        for cls_idx, cls in enumerate(G.conjugacy_classes()):
            m = _perm_matrix(cls.representative)
            n = len(m)
            id_minus = [[Fraction(1 if i == j else 0) - m[i][j]
                         for j in range(n)] for i in range(n)]
            instances += 1
            if lam.values[cls_idx] != rational(_det_fraction(id_minus)):
                failures += 1
        # lambda^k vanishes above the dimension
        above = exterior_power(chi, G.degree + 1)
        instances += 1
        if any(not v.is_zero() for v in above.values):
            failures += 1
    return CheckResult("lambda_matrix", instances, failures, failures == 0)


def _curve_instances(curve: StackyCurve, degrees: range):
    orders = [n for _, n in curve.points]
    labels = [lab for lab, _ in curve.points]
    for d in degrees:
        for weights in product(*[range(n) for n in orders]):
            yield q_divisor(curve, d, dict(zip(labels, weights)))


def _check_one_curve(curve: StackyCurve, degrees: range) -> tuple[int, int]:
    instances = failures = 0
    if euler_orb(curve) != tangent_degree(curve):
        failures += 1
    instances += 1
    for div in _curve_instances(curve, degrees):
        instances += 1
        try:
            if hrr_integral(curve, div) != euler_char_oracle(curve, div):
                failures += 1
        except Exception:
            failures += 1
    return instances, failures


def check_curve_hrr(genus_max: int = 2, max_order: int = 8, max_points: int = 3,
                    degrees: range = range(-3, 4)) -> CheckResult:
    curves = []
    for g in range(genus_max + 1):
        for r in range(max_points + 1):
            for orders in combinations_with_replacement(
                    range(2, max_order + 1), r):
                pts = tuple((f"x{i+1}", n) for i, n in enumerate(orders))
                curves.append(StackyCurve(g, pts))
    instances = failures = 0
    for c in curves:
        inst, fail = _check_one_curve(c, degrees)
        instances += inst
        failures += fail
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


def check_esum(max_n: int = 50) -> CheckResult:
    instances = failures = 0
    for n in range(2, max_n + 1):
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
