"""The `cli` workload's invocations: pure data, importable without orbirr.

A closed loop with one client: every `orbirr` invocation is its own process
and starts after the previous one exits.  The cold round gives each
invocation an empty cache directory, so it computes and writes its table; the
warm round points every invocation at a directory the cold round filled, so
it loads and revalidates.  `hrr-bg` leaves out S7: at the seed it spends ~40 s
re-enumerating centralizers (ROADMAP item 3), longer than a whole run.
"""

from __future__ import annotations

import hashlib
import json
import random

GROUPS = {
    "C36": {"type": "cyclic", "order": 36},
    "D30": {"type": "dihedral", "n": 30},
    "S6": {"type": "symmetric", "n": 6},
    "S7": {"type": "symmetric", "n": 7},
}
# Conjugacy class counts, for the number of orthogonality relations each
# table validation compares.
CLASSES = {"C36": 36, "D30": 18, "S6": 11, "S7": 15}
GROUP_COMMANDS = ("chartable", "hrr-bg", "obstruction")
CURVE_237 = {"genus": 0, "points": [{"label": "x1", "order": 2},
                                    {"label": "x2", "order": 3},
                                    {"label": "x3", "order": 7}]}
DIVISOR_237 = {"free_degree": -2, "weights": {"x1": 1, "x2": 2, "x3": 6}}
SELFTEST_ARGS = ["--max-group", "8", "--max-order", "4", "--genus-max", "1"]


def _group_args(command: str, group: str) -> list[str]:
    args = [command, "--group", json.dumps(GROUPS[group])]
    if command == "hrr-bg":
        args += ["--rep", json.dumps({"kind": "permutation"})]
    return args


def invocations(seed: int) -> list[dict]:
    """Invocations in run order.  `cache` is "cold", "warm" or None; `group`
    names the table an invocation validates, if any."""
    rng = random.Random(seed)
    rounds = []
    for temp in ("cold", "warm"):
        batch = [{"key": f"{temp} {cmd} {g}", "args": _group_args(cmd, g),
                  "cache": temp, "group": g}
                 for g in GROUPS for cmd in GROUP_COMMANDS
                 if not (cmd == "hrr-bg" and g == "S7")]
        rng.shuffle(batch)
        rounds += batch
    tail = [
        {"key": "hrr-curve 2-3-7", "cache": None, "group": None,
         "args": ["hrr-curve", "--curve", json.dumps(CURVE_237),
                  "--divisor", json.dumps(DIVISOR_237)]},
        {"key": "euler 2-3-7", "cache": None, "group": None,
         "args": ["euler", "--curve", json.dumps(CURVE_237)]},
        {"key": "selftest reduced", "cache": None, "group": None,
         "args": ["selftest", *SELFTEST_ARGS]},
    ]
    rng.shuffle(tail)
    return rounds + tail


def identities(inv: dict, report: dict) -> int:
    """Exact identities one invocation compares: one per verdict, or the
    selftest's instance count, plus the relations of a validated table."""
    if inv["key"].startswith("selftest"):
        count = sum(c["instances"] for c in report["results"]["checks"])
    else:
        count = len(report["verdicts"])
    if inv["group"]:
        r = CLASSES[inv["group"]]
        count += r * (r + 1) + 1
    return count


def digest(code: int, report: dict) -> str:
    """Digest of an exit code and a report without its timing field."""
    text = json.dumps([code, report], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]
