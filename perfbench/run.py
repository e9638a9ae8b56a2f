#!/usr/bin/env python3
"""Layered end-to-end benchmark of orbirr.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Workloads (see NOTES.md for why each was
chosen): tables, bg_inertia, curves, cli.  Every pass of a workload runs in
a fresh interpreter, because the program keeps process-lifetime caches that
a CLI user never finds warm.  Passes repeat until --seconds is spent (at
least one); set-up is probed in separate fresh processes.  Every operation's
output is compared with the digests pinned in expected.json.

With --trace 0 the last line reports the end-to-end metrics of
BENCHMARK.json; with --trace 1 it alternates untraced and traced passes and
reports the per-layer metrics of the median traced pass.  Everything the run
writes stays under .perfbench/ in the checkout; the user's ~/.cache/orbirr
is never touched because HOME and ORBIRR_CACHE point inside the run's
directory.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import cliload  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("tables", "bg_inertia", "curves", "cli")
SETUP_PROBES = 12   # half before the passes, half after
CHILD_TIMEOUT_S = 150   # a hung child is killed well inside a run's 180 s
CLI_STUB = "import sys; from orbirr.cli import main; sys.exit(main())"


@dataclass
class Child:
    code: int
    wall: float
    peak_kb: int
    launched: float
    stdout: str
    stderr: str


@dataclass
class Pass:
    traced: bool
    wall: float
    peak_kb: int
    ops: list = field(default_factory=list)   # [key, seconds, checked, failed, digest, error]
    trace: dict | None = None
    spans_file: Path | None = None
    error: str | None = None


class Run:
    """One benchmark run: its scratch directory, child environment and seed."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.counter = itertools.count()
        home = workdir / "home"
        for d in (home, workdir / "tmp"):
            d.mkdir(parents=True)
        self.env = dict(os.environ)
        self.env.update({
            "PYTHONPATH": str(ROOT / "src"),
            "HOME": str(home),
            "ORBIRR_CACHE": str(home / "orbirr-cache"),
            "XDG_CACHE_HOME": str(home / ".cache"),
            "TMPDIR": str(workdir / "tmp"),
            # fixed string hashing, so set and dict layouts repeat across passes
            "PYTHONHASHSEED": "0",
        })

    def scratch(self, stem: str) -> Path:
        return self.workdir / f"{next(self.counter):04d}-{stem}"

    def child(self, argv: list[str], env: dict | None = None) -> Child:
        """Run argv to completion; its own peak RSS comes from wait4."""
        out_path = self.scratch("stdout")
        err_path = out_path.with_suffix(".err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            launched = time.monotonic()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                    env=env or self.env)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.monotonic() - launched
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall, usage.ru_maxrss, launched,
                     out_path.read_text(), err_path.read_text())

    def worker(self, *args: str) -> tuple[Child, dict | None]:
        c = self.child([sys.executable, str(HERE / "worker.py"), *args])
        if c.code != 0:
            return c, None
        return c, json.loads(c.stdout.strip().splitlines()[-1])

    # -- set-up ------------------------------------------------------------------

    def setup_probe(self) -> float:
        c, out = self.worker("setup", "--workload", self.workload,
                             "--seed", str(self.seed))
        if out is None:
            raise SystemExit(f"set-up failed (exit {c.code}):\n{c.stderr[-2000:]}")
        return out["setup_at"] - c.launched

    # -- passes ----------------------------------------------------------------------

    def run_pass(self, traced: bool) -> Pass:
        if self.workload == "cli":
            return self.cli_pass(traced)
        args = ["pass", "--workload", self.workload, "--seed", str(self.seed)]
        spans_file = self.scratch("spans.jsonl") if traced else None
        if traced:
            args += ["--trace", str(spans_file)]
        c, out = self.worker(*args)
        if out is None:
            return Pass(traced, c.wall, c.peak_kb,
                        error=f"worker exit {c.code}: {c.stderr[-2000:]}")
        return Pass(traced, out["wall_s"], c.peak_kb, out["ops"], out["trace"],
                    spans_file)

    def cli_pass(self, traced: bool) -> Pass:
        invocations = cliload.invocations(self.seed)
        cold_tables: list[Path] = []
        warm = self.scratch("warm-cache")
        p = Pass(traced, 0.0, 0)
        launches = []
        start = time.monotonic()
        for inv in invocations:
            if inv["cache"] == "cold":
                cache_dir = self.scratch("cold-cache")
                if inv["args"][0] == "chartable":
                    cold_tables.append(cache_dir)
            elif inv["cache"] == "warm":
                if not warm.exists():
                    warm.mkdir()
                    for d in cold_tables:
                        for f in d.glob("*.json"):
                            shutil.copy(f, warm / f.name)
                cache_dir = warm
            else:
                cache_dir = self.scratch("no-cache")
            argv = [*inv["args"], "--cache-dir", str(cache_dir)]
            env = None
            if traced:
                trace_file = self.scratch("trace.json")
                env = {**self.env, "PERFBENCH_TRACE": str(trace_file)}
                c = self.child([sys.executable, str(HERE / "launch.py"), *argv], env)
            else:
                trace_file = None
                c = self.child([sys.executable, "-c", CLI_STUB, *argv])
            p.peak_kb = max(p.peak_kb, c.peak_kb)
            try:
                report = json.loads(c.stdout)
            except ValueError:
                report = None
            if report is None:
                p.ops.append([inv["key"], c.wall, 0, 0, None,
                              f"exit {c.code}: {c.stderr[-500:]}"])
                continue
            timing = report.pop("timing_seconds", 0.0)
            checked = cliload.identities(inv, report) if c.code == 0 else 0
            p.ops.append([inv["key"], c.wall, checked, 0,
                          cliload.digest(c.code, report), None])
            launches.append((c, timing, trace_file))
        p.wall = time.monotonic() - start
        if traced:
            self._cli_trace(p, launches)
        return p

    def _cli_trace(self, p: Pass, launches) -> None:
        merged, counters, startup, overhead = [], [], 0.0, 0.0
        for c, timing, trace_file in launches:
            data = json.loads(trace_file.read_text())
            base = len(merged)
            merged += [(n, s, e, q + base if q >= 0 else -1)
                       for n, s, e, q in data["spans"]]
            counters.append(data["counters"])
            startup += data["startup_s"]
            overhead += c.wall - timing
        trace = spans.summarize(merged, spans.merge_counters(counters))
        layers = sum(trace[b] for b in spans.SELF_BUCKETS)
        trace["cli.startup_s"] = startup
        trace["cli.overhead_s"] = overhead
        trace["bench.glue_s"] = p.wall - overhead - layers
        trace["trace.wall_s"] = p.wall
        p.trace = trace
        p.spans_file = self.scratch("spans.jsonl")
        spans.write_spans(p.spans_file, merged)


def judge(p: Pass, expected: dict) -> tuple[int, int, list[str]]:
    """Attempted and failed operations of one pass, and what went wrong."""
    pinned = expected["ops"]
    if p.error:
        return len(pinned), len(pinned), [p.error]
    problems = []
    for key, _, _, failed, dig, error in p.ops:
        if error:
            problems.append(f"{key}: {error}")
        elif failed:
            problems.append(f"{key}: {failed} identities failed")
        elif dig != pinned.get(key):
            problems.append(f"{key}: output digest {dig} != pinned {pinned.get(key)}")
    failed_ops = len(problems)
    missing = set(pinned) - {op[0] for op in p.ops}
    if missing:
        problems.append(f"operations not run: {sorted(missing)}")
    verified = sum(op[2] for op in p.ops)
    if verified != expected["verified"]:
        problems.append(f"verified {verified} != pinned {expected['verified']}")
    if p.trace is not None:
        total = sum(p.trace[b] for b in spans.SELF_BUCKETS)
        # timing_seconds is rounded to 1 us per CLI invocation
        if abs(total - p.trace["trace.wall_s"]) > 1e-6 * len(p.ops) + 1e-9 * total \
                or p.trace["bench.glue_s"] < -1e-6 * len(p.ops):
            problems.append(f"layer self times sum to {total}, traced wall "
                            f"{p.trace['trace.wall_s']}")
    return len(p.ops) + len(missing), failed_ops + len(missing), problems


def end_to_end(untraced: list[Pass], setups: list[float]) -> dict:
    walls = [p.wall for p in untraced]
    lat = [op[1] for p in untraced for op in p.ops]
    wall = statistics.median(walls)
    verified = statistics.median(sum(op[2] for op in p.ops) for p in untraced)
    return {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "verified": verified,
        "verified_per_s": verified / wall,
        "op_p50_s": statistics.median(lat),
        "op_p90_s": statistics.quantiles(lat, n=10, method="inclusive")[8],
        "peak_rss_mb": max(p.peak_kb for p in untraced) / 1024,
    }


def per_layer(run: Run, untraced: list[Pass], traced: list[Pass]) -> tuple[dict, list]:
    ordered = sorted(traced, key=lambda p: p.wall)
    rep = ordered[(len(ordered) - 1) // 2]
    metrics = {"cli.startup_s": 0.0}
    metrics.update(rep.trace)
    metrics["trace.overhead_s"] = rep.wall - statistics.median(p.wall for p in untraced)
    problems = []
    c, out = run.worker("kernels")
    if out is None or not out["ok"]:
        problems.append(f"kernel micro-benchmark failed (exit {c.code}): {c.stderr[-500:]}")
    else:
        metrics.update(out["metrics"])
    keep = ROOT / ".perfbench" / f"spans-{run.workload}.jsonl"
    shutil.copy(rep.spans_file, keep)
    return metrics, problems


def measure(run: Run, seconds: float, trace: bool) -> tuple[dict, int, int, list]:
    setups = [run.setup_probe() for _ in range(SETUP_PROBES // 2)]
    passes: dict[bool, list[Pass]] = {False: [], True: []}
    kinds = [False, True] if trace else [False]
    deadline = time.monotonic() + seconds
    longest = 0.0
    for traced in itertools.cycle(kinds):
        t0 = time.monotonic()
        passes[traced].append(run.run_pass(traced))
        longest = max(longest, time.monotonic() - t0)
        if all(passes[k] for k in kinds) and time.monotonic() + longest > deadline:
            break
    setups += [run.setup_probe() for _ in range(SETUP_PROBES - len(setups))]
    expected = json.loads((HERE / "expected.json").read_text())[run.workload]
    every = passes[False] + passes[True]
    attempted = failed = 0
    problems = []
    for i, p in enumerate(every):
        tried, bad, msgs = judge(p, expected)
        attempted += tried
        failed += bad
        problems += [f"pass {i}: {msg}" for msg in msgs]
    ok_untraced = [p for p in passes[False] if not p.error]
    ok_traced = [p for p in passes[True] if not p.error]
    if not ok_untraced or (trace and not ok_traced):
        raise SystemExit("no pass completed:\n" + "\n".join(problems[:20]))
    if trace:
        metrics, more = per_layer(run, ok_untraced, ok_traced)
        problems += more
    else:
        metrics = end_to_end(ok_untraced, setups)
    for i, p in enumerate(every):
        kind = "traced" if p.traced else "untraced"
        print(f"pass {i} ({kind}): wall {p.wall:.4f} s, {len(p.ops)} operations")
    latencies: dict[str, list[float]] = {}
    for p in ok_untraced:
        for op in p.ops:
            latencies.setdefault(op[0], []).append(op[1])
    slowest = sorted(latencies.items(), key=lambda kv: -statistics.median(kv[1]))
    for key, values in slowest[:8]:
        print(f"op {key}: median {statistics.median(values):.4f} s of {len(values)}")
    return metrics, attempted, failed, problems


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "orbirr" / "__init__.py").is_file():
        sys.exit(f"error: no orbirr sources under {ROOT / 'src'}; "
                 "run from the root of an orbirr checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        run = Run(args.workload, args.seed, workdir)
        metrics, attempted, failed, problems = measure(
            run, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for msg in problems[:20]:
        print(f"FAIL {msg}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
