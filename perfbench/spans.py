"""Span recorder and layer wrappers for traced benchmark runs.

`install(recorder)` replaces the public functions of each `orbirr` module with
wrappers that record a span (name, start, end, parent) per call, in every
module namespace that binds the function, so nothing under `src/` changes.
Spans stay in memory; `summarize` turns them into per-layer self times, where
a span's self time is its duration minus the time its child spans cover.  The
self times of all spans under the root add up to the root's duration, so the
layer buckets partition the traced wall time with no double counting.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute path, span name).  Methods are wrapped on their class.
SPAN_TARGETS = [
    ("orbirr._kernels", "conjugacy_partition", "_kernels.conjugacy_partition"),
    ("orbirr._kernels", "class_constants", "_kernels.class_constants"),
    ("orbirr._kernels", "lookup_rows", "_kernels.lookup_rows"),
    ("orbirr._kernels", "modp_matmul", "_kernels.modp_matmul"),
    ("orbirr._kernels", "modp_rref", "_kernels.modp_rref"),
    ("orbirr._kernels", "modp_nullspace", "_kernels.modp_nullspace"),
    ("orbirr._kernels", "modp_charpoly", "_kernels.modp_charpoly"),
    ("orbirr._kernels", "modp_poly_roots", "_kernels.modp_poly_roots"),
    ("orbirr.groups", "PermGroup.__init__", "groups.PermGroup"),
    ("orbirr.groups", "PermGroup._compute_classes", "groups.classes"),
    ("orbirr.groups", "PermGroup.centralizer_subgroup", "groups.centralizer_subgroup"),
    ("orbirr.chartab", "character_table", "chartab.character_table"),
    ("orbirr.chartab", "verify_orthogonality", "chartab.verify_orthogonality"),
    ("orbirr.exact", "Cyclotomic.inverse", "exact.inverse"),
    ("orbirr.exact", "parse_cyclotomic", "exact.parse_cyclotomic"),
    ("orbirr.repring", "tensor", "repring.tensor"),
    ("orbirr.repring", "inner_product", "repring.inner_product"),
    ("orbirr.repring", "invariants_dim", "repring.invariants_dim"),
    ("orbirr.repring", "exterior_power", "repring.exterior_power"),
    ("orbirr.inertia", "inertia_of_bg", "inertia.inertia_of_bg"),
    ("orbirr.inertia", "rho_twist", "inertia.rho_twist"),
    ("orbirr.inertia", "eigenspace_characters", "inertia.eigenspace_characters"),
    ("orbirr.engine", "verify_hrr_bg", "engine.verify_hrr_bg"),
    ("orbirr.engine", "hrr_bg_lhs", "engine.hrr_bg_lhs"),
    ("orbirr.engine", "hrr_bg_rhs", "engine.hrr_bg_rhs"),
    ("orbirr.engine", "etale_obstruction_witness", "engine.obstruction"),
    ("orbirr.curves", "hrr_integral", "curves.hrr_integral"),
    ("orbirr.cache", "cache_get_or_compute", "cache.get_or_compute"),
    ("orbirr.cache", "_table_from_payload", "cache.load"),
    ("orbirr.cache", "_table_payload", "cache.store"),
    ("orbirr.cli", "cmd_chartable", "cli.command"),
    ("orbirr.cli", "cmd_hrr_bg", "cli.command"),
    ("orbirr.cli", "cmd_hrr_curve", "cli.command"),
    ("orbirr.cli", "cmd_euler", "cli.command"),
    ("orbirr.cli", "cmd_obstruction", "cli.command"),
    ("orbirr.cli", "cmd_selftest", "cli.command"),
    ("orbirr.selftest", "run_selftest", "selftest.run"),
]

# selftest check function -> the name its CheckResult reports
SELFTEST_CHECKS = {"check_char_tables": "char_tables", "check_bg_hrr": "bg_hrr",
                   "check_rho_projector": "rho_projector",
                   "check_lambda_matrix": "lambda_matrix",
                   "check_curve_hrr": "curve_hrr",
                   "check_orbifold_point": "orbifold_237",
                   "check_esum": "esum", "check_obstruction": "obstruction"}
SPAN_TARGETS += [("orbirr.selftest", fn, f"selftest.{check}")
                 for fn, check in SELFTEST_CHECKS.items()]

# Counted, not timed: a span per call would cost more than the operation.
CYCLOTOMIC_OPS = ["__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
                  "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                  "__pow__", "conjugate", "__eq__"]

# Span name -> self-time bucket.  Every bucket is additive.
BUCKET = {name: "kernels.busy_s" for _, _, name in SPAN_TARGETS
          if name.startswith("_kernels.")}
BUCKET.update({
    "groups.PermGroup": "groups.enumerate_s",
    "groups.classes": "groups.classes_s",
    "groups.centralizer_subgroup": "groups.centralizer_subgroup_s",
    "chartab.character_table": "chartab.table_s",
    "chartab.verify_orthogonality": "chartab.validate_s",
    "exact.inverse": "exact.inverse_s",
    "exact.parse_cyclotomic": "exact.parse_s",
    "repring.tensor": "repring.busy_s",
    "repring.inner_product": "repring.busy_s",
    "repring.invariants_dim": "repring.busy_s",
    "repring.exterior_power": "repring.busy_s",
    "inertia.inertia_of_bg": "inertia.inertia_of_bg_s",
    "inertia.rho_twist": "inertia.twist_s",
    "inertia.eigenspace_characters": "inertia.twist_s",
    "engine.verify_hrr_bg": "engine.hrr_bg_s",
    "engine.hrr_bg_lhs": "engine.hrr_bg_s",
    "engine.hrr_bg_rhs": "engine.hrr_bg_s",
    "engine.obstruction": "engine.obstruction_s",
    "curves.hrr_integral": "curves.hrr_integral_s",
    "cache.load": "cache.load_s",
    "cache.store": "cache.store_s",
    "cli.command": "cli.command_s",
    "selftest.run": "selftest.self_s",
    "bench.root": "bench.glue_s",
})
BUCKET.update({f"selftest.{c}": "selftest.self_s" for c in SELFTEST_CHECKS.values()})

SELF_BUCKETS = sorted(set(BUCKET.values()) | {"cli.overhead_s"})


class Recorder:
    """Spans and counters of one process.  Single-threaded by design."""

    def __init__(self):
        self.spans: list = []          # (name, start, end, parent index)
        self._stack: list[int] = []
        self._ops = [0]
        self._max_conductor = [1]
        self.tally = {"inertia.sectors": 0, "groups.sector_elements": 0}

    def wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
        return wrapped

    def root(self, fn):
        """Run fn() as the root span; returns (result, number of spans)."""
        result = self.wrap("bench.root", fn)()
        return result, len(self.spans)

    def counted(self, fn):
        cell = self._ops

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapped

    def counters(self) -> dict:
        from orbirr import curves

        info = curves._point_total.cache_info()
        return {"exact.cyclotomic_ops": self._ops[0],
                "exact.max_conductor": self._max_conductor[0],
                "curves.point_total_hits": info.hits,
                "curves.point_total_misses": info.misses,
                **self.tally}


def _rebind(orig, wrapped) -> None:
    # Replace every binding of `orig` in the orbirr namespaces, so names
    # imported with `from .x import f` go through the wrapper too.
    for modname, mod in list(sys.modules.items()):
        if modname != "orbirr" and not modname.startswith("orbirr."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapped)


def install(rec: Recorder) -> None:
    """Wrap the layer functions of an imported `orbirr` for `rec`."""
    import importlib

    for modname in {m for m, _, _ in SPAN_TARGETS}:
        importlib.import_module(modname)

    def count_sectors(sectors):
        rec.tally["inertia.sectors"] += len(sectors)

    def count_elements(group):
        rec.tally["groups.sector_elements"] += group.order

    after = {"inertia.inertia_of_bg": count_sectors,
             "groups.centralizer_subgroup": count_elements}
    for modname, path, name in SPAN_TARGETS:
        mod = sys.modules[modname]
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, rec.wrap(name, getattr(cls, meth), after.get(name)))
        else:
            orig = getattr(mod, path)
            _rebind(orig, rec.wrap(name, orig, after.get(name)))

    from orbirr import exact

    cyclo = exact.Cyclotomic
    wrapped = {}
    for meth in CYCLOTOMIC_OPS:
        orig = cyclo.__dict__[meth]
        if id(orig) not in wrapped:     # __radd__ is __add__, __rmul__ is __mul__
            wrapped[id(orig)] = rec.counted(orig)
        setattr(cyclo, meth, wrapped[id(orig)])

    check = exact._check_conductor
    top = rec._max_conductor

    def check_conductor(n):
        if n > top[0]:
            top[0] = n
        return check(n)
    exact._check_conductor = check_conductor


def merge_counters(parts: list[dict]) -> dict:
    out: dict = {}
    for part in parts:
        for key, value in part.items():
            if key == "exact.max_conductor":
                out[key] = max(out.get(key, 1), value)
            else:
                out[key] = out.get(key, 0) + value
    return out


def summarize(spans: list, counters: dict) -> dict:
    """Per-layer metrics from a closed span list and the process counters."""
    n = len(spans)
    covered = [0.0] * n
    cache_kids: dict[int, set] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        if parent < 0:
            continue
        p_name, p_start, p_end, _ = spans[parent]
        if start < p_start or end > p_end:
            raise AssertionError(f"span {name} escapes its parent {p_name}")
        covered[parent] += end - start
        if p_name == "cache.get_or_compute":
            cache_kids.setdefault(parent, set()).add(name)

    out = {b: 0.0 for b in SELF_BUCKETS}
    calls: dict[str, int] = {}
    inclusive = {f"selftest.{c}_s": 0.0 for c in SELFTEST_CHECKS.values()}
    cache = {"cache.hits": 0, "cache.misses": 0, "cache.rejected": 0}
    for i, (name, start, end, parent) in enumerate(spans):
        self_time = (end - start) - covered[i]
        calls[name] = calls.get(name, 0) + 1
        if name == "cache.get_or_compute":
            kids = cache_kids.get(i, set())
            if "chartab.character_table" not in kids:
                cache["cache.hits"] += 1
                bucket = "cache.load_s"
            else:
                rejected = "cache.load" in kids
                cache["cache.rejected" if rejected else "cache.misses"] += 1
                bucket = "cache.store_s"
        elif (name == "groups.PermGroup" and parent >= 0
              and spans[parent][0] == "groups.centralizer_subgroup"):
            bucket = "groups.centralizer_subgroup_s"
        else:
            bucket = BUCKET[name]
        out[bucket] += self_time
        if name.startswith("selftest.") and name != "selftest.run":
            inclusive[name + "_s"] += end - start

    def count(prefix):
        return sum(v for k, v in calls.items() if k.startswith(prefix))

    hits = counters.get("curves.point_total_hits", 0)
    misses = counters.get("curves.point_total_misses", 0)
    out.update(inclusive)
    out.update(cache)
    out.update({
        "kernels.calls": count("_kernels."),
        "repring.calls": count("repring."),
        "exact.inverse_calls": calls.get("exact.inverse", 0),
        "curves.hrr_integral_calls": calls.get("curves.hrr_integral", 0),
        "exact.cyclotomic_ops": counters.get("exact.cyclotomic_ops", 0),
        "exact.max_conductor": counters.get("exact.max_conductor", 1),
        "inertia.sectors": counters.get("inertia.sectors", 0),
        "groups.sector_elements": counters.get("groups.sector_elements", 0),
        "curves.point_total_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    })
    return out


def write_spans(path, spans) -> None:
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
