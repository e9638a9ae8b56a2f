"""Command-line front end.

All inputs are JSON, inline or by file path; every report is a single JSON
document on stdout (or --out).  Exact values are printed in the rational /
cyclotomic text syntax next to float approximations for readability; the
exact fields are byte-identical across runs.  Exit codes: 0 success, 1 input
error, 2 any verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from .cache import cache_get_or_compute, default_cache_dir
from .chartab import TableComputationError, character_table
from .curves import (HrrIntegralityError, curve_from_json, divisor_from_json,
                     euler_char_oracle, euler_orb, euler_phy,
                     gauss_bonnet_coarse, hrr_integral, q_divisor,
                     sector_contribution, tangent_degree)
from .engine import etale_obstruction_witness, verify_hrr_bg
from .exact import Cyclotomic, format_cyclotomic
from .groups import DEFAULT_CAP, GroupCapExceeded, cycle_string, group_from_json
from .inertia import curve_sectors
from .repring import rep_from_json
from .selftest import run_selftest


class InputError(ValueError):
    pass


def _load_spec(arg: str):
    text = arg.strip()
    if not text.startswith("{"):
        try:
            text = Path(arg).read_text()
        except OSError as exc:
            raise InputError(f"cannot read input file {arg!r}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {arg!r}: {exc}") from exc


def _approx(x) -> list[float]:
    if isinstance(x, Cyclotomic):
        z = x.to_complex()
        return [z.real, z.imag]
    return [float(x), 0.0]


def _exact(x) -> str:
    if isinstance(x, Cyclotomic):
        return format_cyclotomic(x)
    return str(x)


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _group_report(G) -> dict:
    return {"name": G.name, "degree": G.degree, "order": G.order}


def cmd_chartable(args) -> tuple[dict, int]:
    G = group_from_json(_load_spec(args.group), cap=args.max_group or DEFAULT_CAP)
    table = cache_get_or_compute(G, args.cache_dir)
    classes = [
        {
            "representative": cycle_string(c.representative),
            "one_line": [v + 1 for v in c.representative],
            "size": c.size,
            "rep_order": c.rep_order,
            "centralizer_order": len(c.centralizer),
        }
        for c in G.conjugacy_classes()
    ]
    results = {
        "group": _group_report(G),
        "classes": classes,
        "degrees": list(table.degrees),
        "dixon_prime": table.prime,
        "rows": [[_exact(v) for v in row] for row in table.rows],
    }
    return {"results": results, "verdicts": {"orthogonality": "equal"}}, 0


def cmd_hrr_bg(args) -> tuple[dict, int]:
    G = group_from_json(_load_spec(args.group), cap=args.max_group or DEFAULT_CAP)
    cache_get_or_compute(G, args.cache_dir)
    spec = _load_spec(args.rep)
    v = rep_from_json(G, spec)
    report = verify_hrr_bg(G, v, json.dumps(spec))
    results = {
        "group": _group_report(G),
        "rep": spec,
        "lhs": _exact(report.lhs),
        "lhs_approx": _approx(report.lhs),
        "rhs": _exact(report.rhs),
        "rhs_approx": _approx(report.rhs),
        "per_sector": [
            {"sector": label, "value": _exact(c), "value_approx": _approx(c)}
            for label, c in report.per_sector
        ],
    }
    code = 0 if report.verdict == "equal" else 2
    return {"results": results, "verdicts": {"hrr_bg": report.verdict}}, code


def cmd_hrr_curve(args) -> tuple[dict, int]:
    curve = curve_from_json(_load_spec(args.curve))
    div = (divisor_from_json(curve, _load_spec(args.divisor))
           if args.divisor else q_divisor(curve))
    per_sector = []
    for s in curve_sectors(curve):
        if s.kind != "twisted":
            continue
        c = sector_contribution(s, div)
        per_sector.append(
            {"sector": s.label, "value": _exact(c), "value_approx": _approx(c)})
    lhs = hrr_integral(curve, div)
    rhs = euler_char_oracle(curve, div)
    verdict = "equal" if lhs == rhs else "mismatch"
    results = {
        "curve": {"genus": curve.genus,
                  "points": [{"label": l, "order": n} for l, n in curve.points]},
        "divisor": {"free_degree": div.free_degree,
                    "weights": {l: a for l, a in div.weights}},
        "degree": _exact(div.deg()),
        "hrr_integral": _exact(lhs),
        "coarse_oracle": _exact(Fraction(rhs)),
        "per_sector": per_sector,
    }
    return {"results": results, "verdicts": {"hrr_curve": verdict}}, \
        (0 if verdict == "equal" else 2)


def cmd_euler(args) -> tuple[dict, int]:
    curve = curve_from_json(_load_spec(args.curve))
    td = tangent_degree(curve)
    orb = euler_orb(curve)
    verdict = "equal" if td == orb else "mismatch"
    results = {
        "curve": {"genus": curve.genus,
                  "points": [{"label": l, "order": n} for l, n in curve.points]},
        "tangent_degree": _exact(td),
        "euler_orb": _exact(orb),
        "euler_orb_approx": _approx(orb),
        "euler_phy": euler_phy(curve),
        "gauss_bonnet_coarse": gauss_bonnet_coarse(curve),
        "chi_structure_sheaf": _exact(hrr_integral(curve, q_divisor(curve))),
    }
    return {"results": results, "verdicts": {"gauss_bonnet": verdict}}, \
        (0 if verdict == "equal" else 2)


def cmd_obstruction(args) -> tuple[dict, int]:
    G = group_from_json(_load_spec(args.group), cap=args.max_group or DEFAULT_CAP)
    cache_get_or_compute(G, args.cache_dir)
    w = etale_obstruction_witness(G)
    if w is None:
        results = {"group": _group_report(G), "witness": None}
        return {"results": results, "verdicts": {"obstruction": "none"}}, 0
    table = character_table(G)
    ok = w.dim_invariants == 0 and w.dim_invariants_power == 1
    results = {
        "group": _group_report(G),
        "witness": {
            "character_index": w.character_index,
            "values": [_exact(v) for v in table.rows[w.character_index]],
            "tensor_order": w.order,
            "dim_invariants": _exact(w.dim_invariants),
            "dim_invariants_power": _exact(w.dim_invariants_power),
        },
    }
    verdict = "witness" if ok else "mismatch"
    return {"results": results, "verdicts": {"obstruction": verdict}}, \
        (0 if ok else 2)


def cmd_selftest(args) -> tuple[dict, int]:
    results = run_selftest(
        max_group=args.max_group or 24,
        max_order=args.max_order,
        genus_max=args.genus_max,
        inject_mismatch=args.inject_mismatch,
    )
    code = 0 if results["ok"] else 2
    return {"results": results,
            "verdicts": {c["name"]: ("equal" if c["ok"] else "mismatch")
                         for c in results["checks"]}}, code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbirr",
        description="Exact Riemann-Roch identities on BG and stacky curves.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        p.add_argument("--cache-dir", default=None,
                       help=f"character-table cache (default {default_cache_dir()})")
        p.add_argument("--max-group", type=int, default=None,
                       help="group order cap override")

    p = sub.add_parser("chartable", help="exact character table of a group")
    common(p)
    p.add_argument("--group", required=True, help="group JSON (inline or path)")
    p.set_defaults(func=cmd_chartable)

    p = sub.add_parser("hrr-bg", help="both Riemann-Roch sides on BG")
    common(p)
    p.add_argument("--group", required=True)
    p.add_argument("--rep", required=True, help="representation JSON descriptor")
    p.set_defaults(func=cmd_hrr_bg)

    p = sub.add_parser("hrr-curve", help="both Riemann-Roch sides on a stacky curve")
    common(p)
    p.add_argument("--curve", required=True, help="curve JSON (inline or path)")
    p.add_argument("--divisor", default=None, help="divisor JSON (default 0)")
    p.set_defaults(func=cmd_hrr_curve)

    p = sub.add_parser("euler", help="Euler characteristics of a stacky curve")
    common(p)
    p.add_argument("--curve", required=True)
    p.set_defaults(func=cmd_euler)

    p = sub.add_parser("obstruction",
                       help="witness that the coarse theory has no Chern character")
    common(p)
    p.add_argument("--group", required=True)
    p.set_defaults(func=cmd_obstruction)

    p = sub.add_parser("selftest", help="run the full verification grids")
    common(p)
    p.add_argument("--max-order", type=int, default=8,
                   help="largest stacky-point order in the curve grid")
    p.add_argument("--genus-max", type=int, default=2)
    p.add_argument("--inject-mismatch", action="store_true",
                   help="perturb one table entry to exercise the failure path")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        body, code = args.func(args)
    except (InputError, GroupCapExceeded, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (HrrIntegralityError, TableComputationError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    report = {
        "command": args.command,
        **body,
        "timing_seconds": round(time.perf_counter() - started, 6),
    }
    _emit(report, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
