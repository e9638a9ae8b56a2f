"""One fresh interpreter of the benchmark: a pass, a set-up probe, or the
kernel micro-benchmark.  Prints one JSON object on stdout.

    python3 perfbench/worker.py pass --workload tables --seed 1 [--trace FILE]
    python3 perfbench/worker.py setup --workload cli --seed 1
    python3 perfbench/worker.py kernels

A process-lifetime cache (`_point_total`, `_root_cached`, `euler_phi`,
`cyclotomic_poly`, a group's `_char_table`) must start empty in every pass,
as it does for a user of the CLI, hence one process per pass.  Set-up ends
when `import orbirr` is done and the workload's inputs are built; the parent
reads the monotonic clock before it starts the process.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _import_program(workload: str):
    import orbirr

    src = HERE.parent / "src"
    if not Path(orbirr.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"orbirr imported from {orbirr.__file__}, not from {src}")
    if workload == "cli":
        import orbirr.cli  # noqa: F401


def _setup(workload: str, seed: int):
    _import_program(workload)
    if workload == "cli":
        import cliload
        return cliload.invocations(seed)
    import workloads
    return workloads.build(workload, seed)


def run_pass(workload: str, seed: int, trace_path: str | None) -> dict:
    rec = None
    if trace_path:
        import spans
        rec = spans.Recorder()
        spans.install(rec)
    ops = _setup(workload, seed)
    setup_at = time.monotonic()

    import workloads

    records = []
    checking = [0.0]

    def phase():
        # Each payload is digested as soon as its operation ends and then
        # dropped, so the heap does not grow with earlier results.  The
        # digest time is taken out of the wall time.
        clock = time.perf_counter
        for key, fn in ops:
            start = clock()
            try:
                checked, failed, payload = fn()
                error = None
            except Exception as exc:  # an operation failure is a result
                checked, failed, payload = 0, 0, None
                error = f"{type(exc).__name__}: {exc}"
            done = clock()
            dig = workloads.digest(payload) if error is None else None
            del payload
            checking[0] += clock() - done
            records.append([key, done - start, checked, failed, dig, error])

    start = time.perf_counter()
    if rec is None:
        phase()
        trace = None
    else:
        _, n_spans = rec.root(phase)
        counters = rec.counters()
    wall = time.perf_counter() - start - checking[0]
    if rec is not None:
        closed = rec.spans[:n_spans]
        trace = spans.summarize(closed, counters)
        trace["bench.glue_s"] -= checking[0]
        trace["trace.wall_s"] = closed[0][2] - closed[0][1] - checking[0]
        spans.write_spans(trace_path, closed)

    return {"setup_at": setup_at, "wall_s": wall, "ops": records, "trace": trace}


def kernels(repeat: int = 5) -> dict:
    """Median time of each integer kernel on S7 inputs shaped like the Dixon
    computation: the timings of benchmarks/bench_kernels.py, on the active
    backend only."""
    import numpy as np

    from orbirr import _kernels as kern
    from orbirr.groups import symmetric

    G = symmetric(7)
    elems, order = G._arr, G._lex
    gen_rows = np.array(G.generators, dtype=np.int64)
    gen_inv = np.argsort(gen_rows, axis=1)
    class_of = G.class_of_index()
    classes = G.conjugacy_classes()
    reps_idx = np.array([G.index(c.representative) for c in classes], dtype=np.int64)
    p = 61
    a = G.class_constant_tensor()
    M = np.ascontiguousarray((a % p)[1].T)
    loads = {
        "conjugacy_partition": lambda: kern.conjugacy_partition(
            elems, order, gen_rows, gen_inv),
        "class_constants": lambda: kern.class_constants(
            elems, order, class_of, reps_idx),
        "modp_charpoly": lambda: kern.modp_charpoly(M, p),
        "modp_rref": lambda: kern.modp_rref(M.copy(), p),
        "modp_poly_roots": lambda: kern.modp_poly_roots(kern.modp_charpoly(M, p), p),
    }
    out = {}
    for name, load in loads.items():
        times = []
        for _ in range(repeat):
            t0 = time.perf_counter()
            load()
            times.append(time.perf_counter() - t0)
        out[f"kernels.{name}_s"] = sorted(times)[repeat // 2]
    # a[i, j, k] summed over j counts the members of class i
    sizes = np.array([c.size for c in classes])
    partition = loads["conjugacy_partition"]()
    ok = (int(partition.max()) + 1 == len(classes)
          and bool((a.sum(axis=1) == sizes[:, None]).all()))
    return {"metrics": out, "ok": ok}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["pass", "setup", "kernels"])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", default=None, help="write spans to this file")
    args = parser.parse_args()
    if args.mode == "setup":
        _setup(args.workload, args.seed)
        out = {"setup_at": time.monotonic()}
    elif args.mode == "pass":
        out = run_pass(args.workload, args.seed, args.trace)
    else:
        out = kernels()
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
