"""Inputs and operations of the in-process workloads: tables, bg_inertia, curves.

`build(name, seed)` returns the operations of one pass in run order.  An
operation is a (key, fn) pair; fn() calls the program and returns
(identities compared, identities that failed, payload).  The payload is
digested when the operation ends, outside its latency, and compared with the
pinned digest of the key, so a fast wrong answer counts as a failure.  Program functions are
looked up on their modules at call time, so a traced run sees its wrappers.

The seed draws the operation order and the random tensor pairs; the program
receives only the generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement, product

from orbirr import chartab, curves, engine, exact, groups, inertia, repring

# tables: many classes and mixed conductors put orthogonality at 80-95% of
# the cyclic and dihedral groups; the S-groups add enumeration, classes and
# Dixon splitting.  No inertia, curve or cache work.
TABLE_GROUPS = {
    "C30": {"type": "cyclic", "order": 30},
    "C36": {"type": "cyclic", "order": 36},
    "D24": {"type": "dihedral", "n": 24},
    "D30": {"type": "dihedral", "n": 30},
    "A6": {"type": "alternating", "n": 6},
    "S6": {"type": "symmetric", "n": 6},
    "S7": {"type": "symmetric", "n": 7},
}

# bg_inertia: few classes, large centralizers, so tables are cheap and the
# work falls on groups, inertia and repring.  A7 skips the twists on its
# identity sector: their cost is the classes of a 2520-generator copy of A7
# (~6 s at the seed), the same mechanism S6 and A6 already exercise.
BG_GROUPS = {
    "S5": ({"type": "symmetric", "n": 5}, True),
    "A6": ({"type": "alternating", "n": 6}, True),
    "S6": ({"type": "symmetric", "n": 6}, True),
    "A7": ({"type": "alternating", "n": 7}, False),
}
# Class counts, so the seed draws tensor pairs before the program runs.
BG_IRREDUCIBLES = {"S5": 7, "A6": 7, "S6": 11, "A7": 9}
TENSOR_PAIRS = 3

# curves: the selftest grid at its defaults, one-point curves of every order
# with every weight, and the e-sum.
GRID = {"genus_max": 2, "max_order": 8, "max_points": 3, "degrees": range(-3, 4)}
ONE_POINT_ORDERS = range(2, 33)
ESUM_ORDERS = range(2, 51)


def canon(x):
    """JSON-ready canonical form of a payload."""
    if isinstance(x, exact.Cyclotomic):
        return exact.format_cyclotomic(x)
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    if isinstance(x, dict):
        return {str(k): canon(v) for k, v in x.items()}
    return x


def digest(payload) -> str:
    text = json.dumps(canon(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


# -- tables --------------------------------------------------------------------


def _table_op(spec):
    def run():
        G = groups.group_from_json(spec)
        table = chartab.character_table(G)
        r = len(table.rows)
        return r * (r + 1) + 1, 0, [table.degrees, table.prime, table.rows]
    return run


def _tables(rng):
    return [(f"table {name}", _table_op(spec)) for name, spec in TABLE_GROUPS.items()]


# -- bg_inertia ----------------------------------------------------------------


def _bg_op(spec, twist_identity, pairs):
    def run():
        G = groups.group_from_json(spec)
        sectors = inertia.inertia_of_bg(G)
        irr = repring.irreducibles(G)
        checked = failed = 0
        hrr = []
        for v in irr + [repring.regular_character(G),
                        repring.permutation_character(G)]:
            lhs = engine.hrr_bg_lhs(G, v)
            rhs, per_sector = engine.hrr_bg_rhs(G, v, sectors)
            checked += 1
            failed += lhs != rhs
            hrr.append([lhs, rhs, per_sector])
        twisted = [s for s in sectors if twist_identity or s.order > 1]
        dims = []
        for s in twisted:
            for v in irr:
                eigs = inertia.eigenspace_characters(v, s)
                rho = inertia.rho_twist(v, s)
                d = [e.dim() for e in eigs]
                checked += 2
                failed += rho != inertia.twisted_closed_form(v, s)
                failed += sum(d) != v.dim()
                dims.append(d)
        for ia, ib in pairs:
            a, b = irr[ia], irr[ib]
            ab = repring.tensor(a, b)
            for s in twisted:
                checked += 1
                failed += inertia.rho_twist(ab, s) != repring.tensor(
                    inertia.rho_twist(a, s), inertia.rho_twist(b, s))
        w = engine.etale_obstruction_witness(G)
        linear = sum(1 for d in chartab.character_table(G).degrees if d == 1)
        checked += 1
        if w is None:
            failed += linear != 1
            witness = None
        else:
            failed += not (w.dim_invariants == 0 and w.dim_invariants_power == 1)
            witness = [w.character_index, w.order, w.dim_invariants,
                       w.dim_invariants_power]
        labels = [[s.label, s.order, s.sector_group.order] for s in sectors]
        return checked, failed, [labels, hrr, dims, witness]
    return run


def _bg_inertia(rng):
    ops = []
    for name, (spec, twist_identity) in BG_GROUPS.items():
        n = BG_IRREDUCIBLES[name]
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(TENSOR_PAIRS)]
        ops.append((f"bg {name}", _bg_op(spec, twist_identity, pairs)))
    return ops


# -- curves --------------------------------------------------------------------


def _curve_op(genus, orders, degrees):
    def run():
        pts = tuple((f"x{i + 1}", n) for i, n in enumerate(orders))
        labels = [lab for lab, _ in pts]
        c = curves.StackyCurve(genus, pts)
        checked = 1
        failed = int(curves.euler_orb(c) != curves.tangent_degree(c))
        values = []
        for d in degrees:
            for weights in product(*[range(n) for n in orders]):
                div = curves.q_divisor(c, d, dict(zip(labels, weights)))
                chi = curves.hrr_integral(c, div)
                checked += 1
                failed += chi != curves.euler_char_oracle(c, div)
                values.append(chi)
        return checked, failed, values
    return run


def _esum_op(n):
    def run():
        one = exact.rational(1)
        total = exact.rational(0)
        for k in range(1, n):
            total = total + (one - exact.root_of_unity(n, -k)).inverse()
        return 1, int(total != Fraction(n - 1, 2)), total
    return run


def _curves(rng):
    ops = []
    for g in range(GRID["genus_max"] + 1):
        for r in range(GRID["max_points"] + 1):
            for orders in combinations_with_replacement(
                    range(2, GRID["max_order"] + 1), r):
                ops.append((f"curve g={g} {list(orders)}",
                            _curve_op(g, orders, GRID["degrees"])))
    ops += [(f"point {n}", _curve_op(0, (n,), range(0, 1)))
            for n in ONE_POINT_ORDERS]
    ops += [(f"esum {n}", _esum_op(n)) for n in ESUM_ORDERS]
    return ops


BUILDERS = {"tables": _tables, "bg_inertia": _bg_inertia, "curves": _curves}


def build(name: str, seed: int) -> list:
    rng = random.Random(seed)
    ops = BUILDERS[name](rng)
    rng.shuffle(ops)
    return ops
