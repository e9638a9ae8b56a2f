"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Every identity is checked with zero tolerance; each test prints one PASS/FAIL
line (run with -s or -rA to see them).  Runtime budgets are asserted where
stated.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from orbirr.chartab import character_table, verify_orthogonality
from orbirr.cli import main as cli_main
from orbirr.curves import (HrrIntegralityError, StackyCurve, euler_char_oracle,
                           euler_orb, euler_phy, gauss_bonnet_coarse,
                           hrr_integral, q_divisor, tangent_degree)
from orbirr.engine import etale_obstruction_witness, verify_hrr_bg
from orbirr.exact import rational, root_of_unity, weighted_root_sum
from orbirr.groups import alternating, cyclic, dihedral, symmetric
from orbirr.inertia import (eigenspace_characters, inertia_of_bg, rho_twist,
                            twisted_closed_form)
from orbirr.repring import (ClassFunction, exterior_power, irreducible,
                            irreducibles, lambda_minus_one,
                            permutation_character, regular_character, tensor)

from exact_oracles import (det_fraction, perm_matrix, reference_table_rows,
                           table_row_multiset)


def report(number: int, description: str, ok: bool, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"{status} criterion {number}: {description}{tail}")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # pay first-call costs (imports, table construction) outside any timed region
    character_table(cyclic(2))


def test_criterion_1_bg_hrr_grid(catalog_groups):
    started = time.perf_counter()
    identities = 0
    ok = True
    for G in catalog_groups:
        reps = [irreducible(G, i) for i in range(len(character_table(G).rows))]
        reps.append(regular_character(G))
        reps.append(permutation_character(G))
        for v in reps:
            r = verify_hrr_bg(G, v)
            identities += 1
            if r.verdict != "equal" or r.lhs != r.rhs:
                ok = False
    elapsed = time.perf_counter() - started
    report(1, "BG Riemann-Roch grid, lhs = rhs exactly",
           ok and identities >= 60 and elapsed < 10.0,
           f"{identities} identities in {elapsed:.2f}s")


def _curve_grid():
    for g in (0, 1, 2):
        for r in range(4):
            for orders in itertools.combinations_with_replacement(
                    range(2, 9), r):
                yield StackyCurve(g, tuple(
                    (f"x{i+1}", n) for i, n in enumerate(orders)))


def test_criterion_2_curve_hrr_grid():
    started = time.perf_counter()
    instances = 0
    ok = True
    for curve in _curve_grid():
        labels = [lab for lab, _ in curve.points]
        orders = [n for _, n in curve.points]
        for d in range(-3, 4):
            for weights in itertools.product(*[range(n) for n in orders]):
                div = q_divisor(curve, d, dict(zip(labels, weights)))
                instances += 1
                try:
                    if hrr_integral(curve, div) != euler_char_oracle(curve, div):
                        ok = False
                except HrrIntegralityError:
                    ok = False
    elapsed = time.perf_counter() - started
    report(2, "stacky-curve Riemann-Roch equals the coarse oracle",
           ok and instances >= 2000 and elapsed < 60.0,
           f"{instances} instances in {elapsed:.2f}s")


def test_criterion_3_orbifold_curve_formulas():
    c237 = StackyCurve(0, (("x1", 2), ("x2", 3), ("x3", 7)))
    ok = (tangent_degree(c237) == Fraction(-1, 42)
          and euler_orb(c237) == Fraction(-1, 42)
          and euler_phy(c237) == 11
          and gauss_bonnet_coarse(c237) == 2)
    for curve in _curve_grid():
        if euler_orb(curve) != tangent_degree(curve):
            ok = False
    report(3, "orbifold-curve formulas at (0;2,3,7) and "
              "euler_orb = tangent_degree on the grid", ok)


def test_criterion_4_e_sum_identity():
    started = time.perf_counter()
    ok = True
    for n in range(2, 51):
        total = rational(0)
        for k in range(1, n):
            total = total + (rational(1) - root_of_unity(n, -k)).inverse()
        if total != Fraction(n - 1, 2):
            ok = False
    elapsed = time.perf_counter() - started
    report(4, "sum of 1/(1-zeta^-k) equals (n-1)/2 for n <= 50",
           ok and elapsed < 5.0, f"{elapsed:.2f}s")


def test_criterion_5_character_tables(catalog_groups):
    ok = True
    for G in catalog_groups:
        table = character_table(G)
        if not verify_orthogonality(table):
            ok = False
        if sum(d * d for d in table.degrees) != G.order:
            ok = False
        if any(G.order % d for d in table.degrees):
            ok = False
        acc = ClassFunction(G, [0] * len(table.rows))
        for d, row in zip(table.degrees, table.rows):
            acc = acc + d * ClassFunction(G, row)
        if acc != regular_character(G):
            ok = False
        if G.order <= 24:
            if table_row_multiset(reference_table_rows(G)) != \
                    table_row_multiset(table.rows):
                ok = False
    report(5, "character tables exact and equal to the independent oracle", ok)


def test_criterion_6_rho_projector(catalog_groups):
    started = time.perf_counter()
    ok = True
    for G in catalog_groups:
        for sector in inertia_of_bg(G):
            m = sector.order
            for v in irreducibles(G):
                eigs = eigenspace_characters(v, sector)
                total_dim = sum((e.dim() for e in eigs), start=Fraction(0))
                if total_dim != v.dim():
                    ok = False
                # rho = sum_j zeta^j . eigenspace_j, then the closed form
                rho = ClassFunction(sector.sector_group, [
                    weighted_root_sum(m, ((j, eigs[j].values[c])
                                          for j in range(m)))
                    for c in range(len(eigs[0].values))
                ])
                if rho != twisted_closed_form(v, sector):
                    ok = False
    rng = random.Random(99)
    pool = [G for G in catalog_groups if G.order > 1]
    sectors_of = {}
    twist = {}
    pairs = 0
    while pairs < 50:
        G = rng.choice(pool)
        if G.name not in sectors_of:
            sectors_of[G.name] = inertia_of_bg(G)
        rows = irreducibles(G)
        ia, ib = rng.randrange(len(rows)), rng.randrange(len(rows))
        a, b = rows[ia], rows[ib]
        for si, sector in enumerate(sectors_of[G.name]):
            for key, v in (((G.name, si, ia), a), ((G.name, si, ib), b)):
                if key not in twist:
                    twist[key] = rho_twist(v, sector)
            if rho_twist(tensor(a, b), sector) != \
                    tensor(twist[(G.name, si, ia)], twist[(G.name, si, ib)]):
                ok = False
        pairs += 1
    elapsed = time.perf_counter() - started
    report(6, "rho projector identity, eigenspace dims, multiplicativity",
           ok and elapsed < 10.0, f"{pairs} tensor pairs, {elapsed:.2f}s")


def test_criterion_7_lambda_vs_matrix_oracle():
    groups = [symmetric(3), symmetric(4), dihedral(4)]
    groups += [cyclic(n) for n in range(1, 9)]
    ok = True
    for G in groups:
        chi = permutation_character(G)
        lam = lambda_minus_one(chi)
        for idx, cls in enumerate(G.conjugacy_classes()):
            mat = perm_matrix(cls.representative)
            n = len(mat)
            id_minus = [[Fraction(1 if i == j else 0) - mat[i][j]
                         for j in range(n)] for i in range(n)]
            if lam.values[idx] != rational(det_fraction(id_minus)):
                ok = False
        above = exterior_power(chi, G.degree + 1)
        if any(not v.is_zero() for v in above.values):
            ok = False
    report(7, "lambda_minus_one equals det(1 - M) on permutation models", ok)


def test_criterion_8_obstruction_witness(catalog_groups):
    ok = True
    for G in catalog_groups:
        w = etale_obstruction_witness(G)
        has_ab = sum(1 for d in character_table(G).degrees if d == 1) > 1
        if has_ab:
            if w is None or w.dim_invariants != 0 or w.dim_invariants_power != 1:
                ok = False
        elif w is not None:
            ok = False
    if etale_obstruction_witness(alternating(5)) is not None:
        ok = False
    report(8, "obstruction witness for nontrivial abelianization, none for A5",
           ok)


def test_criterion_9_determinism_and_exit_codes(capsys):
    argv = ["selftest", "--max-group", "12", "--max-order", "4",
            "--genus-max", "1"]
    code1 = cli_main(list(argv))
    out1 = json.loads(capsys.readouterr().out)
    code2 = cli_main(list(argv))
    out2 = json.loads(capsys.readouterr().out)
    out1.pop("timing_seconds"), out2.pop("timing_seconds")
    ok = code1 == 0 and code2 == 0 and \
        json.dumps(out1, sort_keys=True) == json.dumps(out2, sort_keys=True)
    code3 = cli_main(list(argv) + ["--inject-mismatch"])
    capsys.readouterr()
    ok = ok and code3 == 2
    report(9, "selftest deterministic, injected mismatch exits 2", ok)
