"""Benchmark entry point.

    python3 perfbench/run.py --workload fit-multi --seed 1 --seconds 24 --trace 0

Run from the repository root. `--trace 0` measures the end-to-end
metrics; `--trace 1` alternates untraced and traced blocks of operations,
and reports per-layer metrics and the tracing overhead.
`--workload all` runs every workload, each in its own process. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import ctypes
import os

# Pin BLAS to one thread before numpy loads: kec itself fans out over
# threads=2, and the two together must not exceed the machine's cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _one_malloc_arena() -> bool:
    """Make glibc malloc use a single arena for this process.

    By default every thread that allocates gets an arena of its own, and
    memory freed there is kept there. Which pool thread happened to run
    the large Spearman branch then decided whether peak RSS of fit-multi
    read about 400 or 580 MiB (2-vCPU x86 VM, glibc). With one arena the
    figure repeats. Must run before any thread starts.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    m_arena_max = -8  # from glibc's malloc.h
    return bool(libc.mallopt(m_arena_max, 1))


ONE_ARENA = _one_malloc_arena()

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"

SETUP_REPEATS = 3
MIN_OPS = 5
TRACE_BLOCK_S = 1.0

# name -> unit; kept in step with BENCHMARK.json by a test.
END_TO_END = {
    "setup_s": "s",
    "op_ms_mean": "ms",
    "rows_per_s": "rows/s",
    "accuracy": "ratio",
    "peak_rss_mib": "MiB",
    "success_ratio": "ratio",
}


def _per_layer_units() -> dict:
    units = {}
    for k in ("linear", "distance", "spearman"):
        units[f"kernels.cross_s.{k}"] = "s/op"
        units[f"kernels.gelem_per_s.{k}"] = "Gelem/s"
    units["kernels.elems"] = "elem/call"
    units.update({
        "encoder.embed_s": "s/op",
        "encoder.embed_calls": "calls/op",
        "encoder.build_U_s": "s/op",
        "lda.fit_s": "s/op",
        "lda.posterior_s": "s/op",
        "lda.posterior_calls": "calls/op",
        "selection.fit_s": "s/op",
    })
    for k in ("linear", "distance", "spearman"):
        units[f"selection.branch_s.{k}"] = "s/op"
    units.update({
        "selection.predict_new_s": "s/op",
        "selection.cross_entropy_s": "s/op",
        "parallel.map_wall_s": "s/op",
        "parallel.items": "items/op",
        "parallel.overlap": "ratio",
        "io.read_csv_s": "s/op",
        "io.read_csv_mb_per_s": "MB/s",
        "io.save_model_s": "s/op",
        "io.load_model_s": "s/op",
        "cli.train_s": "s/op",
        "cli.predict_s": "s/op",
        "evaluation.embeds_per_fold": "embeds/fold",
        "evaluation.unique_embed_ratio": "ratio",
        "simgen.generate_s": "s/op",
        "simgen.setup_generate_s": "s",
        "data.validate_s": "s/op",
        "data.validate_calls": "calls/op",
    })
    for layer in ("data", "encoder", "kernels", "lda", "selection", "parallel",
                  "io", "cli", "evaluation", "simgen"):
        units[f"{layer}.self_s"] = "s/op"
    units.update({
        "trace.overhead_ms": "ms/op",
        "trace.overhead_ratio": "ratio",
        "trace.spans_per_op": "spans/op",
    })
    return units


PER_LAYER = _per_layer_units()


@dataclass
class Op:
    seconds: float
    rows: int
    kept: object


@dataclass
class Window:
    ops: list
    attempted: int
    failed: int


def _fail(msg: str, code: int = 2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def _import_kec():
    """Import kec from this checkout's src/, never from anywhere else."""
    if not (SRC / "kec" / "__init__.py").is_file():
        _fail(f"no kec sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import kec

    if Path(kec.__file__).resolve().parent != (SRC / "kec").resolve():
        _fail(f"imported kec from {kec.__file__}, not from {SRC}")
    return kec


def _blas_threads():
    """Thread count reported by every OpenBLAS loaded in this process."""
    counts = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                counts[Path(lib).name] = fn()
                break
    return counts


def environment(args, threads) -> dict:
    import numpy as np
    import scipy

    deps = np.show_config(mode="dicts")["Build Dependencies"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{deps['blas']['name']} {deps['blas'].get('version', '?')}",
        "blas_threads": _blas_threads(),
        "kec_threads": threads,
        "malloc_one_arena": ONE_ARENA,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(workload, seconds: float, rec=None, first: int = 0,
            min_ops: int = MIN_OPS) -> Window:
    """Run operations back to back (a closed loop, one client) for `seconds`.

    Operations are numbered from `first`, so windows measured one after
    another never reuse an operation id.
    """
    ops, attempted, failed = [], 0, 0
    deadline = time.perf_counter() + seconds
    i = first
    while time.perf_counter() < deadline or attempted < min_ops:
        if rec is not None:
            rec.op = i
        attempted += 1
        try:
            start = time.perf_counter()
            out = workload.op(i)
            elapsed = time.perf_counter() - start
            ok = workload.check(i, out)
        except Exception:
            traceback.print_exc()
            failed += 1
        else:
            if ok:
                ops.append(Op(elapsed, workload.rows(i), workload.keep(out)))
            else:
                print(f"perfbench: operation {i} failed its check", file=sys.stderr)
                failed += 1
        i += 1
    return Window(ops, attempted, failed)


def _set_up(cls, args):
    workdir = OUT / f"work-{cls.name}-{os.getpid()}"
    workload = cls(args.seed, workdir=str(workdir))
    gc.collect()
    start = time.perf_counter()
    workload.setup()
    return workload, time.perf_counter() - start


def run_workload(args) -> tuple:
    """Measure one workload; returns (result, extra lines for the log)."""
    from workloads import THREADS, WORKLOADS

    cls = WORKLOADS[args.workload]
    env = environment(args, THREADS)
    lines = ["env " + json.dumps(env, sort_keys=True)]
    if args.trace:
        return _run_traced(cls, args, env, lines)

    setup_times = []
    workload = None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
            workload = None  # drop the previous inputs before building new ones
        workload, secs = _set_up(cls, args)
        setup_times.append(secs)
    gc.collect()
    try:
        checks = workload.standalone_checks()
        win = measure(workload, args.seconds)
        ms = [op.seconds * 1e3 for op in win.ops] or [float("nan")]
        busy = sum(op.seconds for op in win.ops)
        # The mean, not the median, operation: on a shared host CPU speed
        # can shift by a third for seconds at a time, and the median of a
        # dozen second-long operations jumps between the two levels from
        # run to run, where the mean moves with the share of time in each.
        values = {
            "setup_s": statistics.median(setup_times),
            "op_ms_mean": busy * 1e3 / len(win.ops) if win.ops else float("nan"),
            "rows_per_s": sum(op.rows for op in win.ops) / busy if busy else 0.0,
            "accuracy": workload.accuracy(),
        }
        extra = workload.extra_metrics(win.ops) if win.ops else {}
        extra["op_ms_p50"] = (statistics.median(ms), "ms")
    finally:
        workload.close()
    attempted = win.attempted + len(checks)
    failed = win.failed + sum(1 for _, ok in checks if not ok)
    values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values["success_ratio"] = 1.0 - failed / attempted
    extra["fail_ratio"] = (failed / attempted, "ratio")
    lines.append(f"operations measured: {len(win.ops)}; setup runs: "
                 f"{', '.join(f'{s:.4f}' for s in setup_times)} s")
    lines += [f"check {'ok  ' if ok else 'FAIL'} {name}" for name, ok in checks]
    lines += [f"  {name:<16} {val!r} {unit}" for name, (val, unit) in extra.items()]
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    _save(args, {"env": env, "extra": extra, "setup_runs": setup_times,
                 "op_ms": ms, **result})
    return result, lines


def _run_traced(cls, args, env, lines) -> tuple:
    import numpy as np

    from spans import Recorder, SETUP_OP, layer_metrics, tracing

    rec = Recorder()
    with tracing(rec):
        workload, _ = _set_up(cls, args)
    plain, traced = Window([], 0, 0), Window([], 0, 0)
    try:
        checks = workload.standalone_checks()
        # Untraced and traced blocks alternate, so a drift in machine speed
        # during the run falls on both sides of the overhead estimate.
        deadline = time.perf_counter() + args.seconds
        first, side = 0, traced
        while time.perf_counter() < deadline or not (plain.ops and traced.ops):
            side = plain if side is traced else traced
            if side is traced:
                with tracing(rec):
                    win = measure(workload, TRACE_BLOCK_S, rec, first, min_ops=1)
            else:
                win = measure(workload, TRACE_BLOCK_S, None, first, min_ops=1)
            side.ops += win.ops
            side.attempted += win.attempted
            side.failed += win.failed
            first += win.attempted
    finally:
        workload.close()
    setup_spans = [s for s in rec.spans if s.op == SETUP_OP]
    window = [s for s in rec.spans if s.op != SETUP_OP]
    values = layer_metrics(window, len(traced.ops))
    values["simgen.setup_generate_s"] = sum(
        s.end - s.start for s in setup_spans if s.name == "simgen.generate"
    )
    p_plain = float(np.median([o.seconds for o in plain.ops])) * 1e3
    p_traced = float(np.median([o.seconds for o in traced.ops])) * 1e3
    values["trace.overhead_ms"] = p_traced - p_plain
    values["trace.overhead_ratio"] = p_traced / p_plain - 1.0
    values["trace.spans_per_op"] = len(window) / max(len(traced.ops), 1)
    attempted = plain.attempted + traced.attempted + len(checks)
    failed = plain.failed + traced.failed + sum(1 for _, ok in checks if not ok)
    lines.append(f"operations measured: {len(plain.ops)} untraced, "
                 f"{len(traced.ops)} traced; spans kept: {len(rec.spans)}")
    lines.append(f"median op: {p_plain:.4f} ms untraced, {p_traced:.4f} ms traced")
    metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT.mkdir(parents=True, exist_ok=True)
    rec.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    _save(args, {"env": env, **result})
    return result, lines


def _save(args, doc) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def run_all(args) -> dict:
    """Every workload in its own process, one after another."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, check=False,
        )
        out = proc.stdout.rstrip("\n").split("\n")
        print(f"== {name}")
        print("\n".join(out[:-1]))
        try:
            result = json.loads(out[-1])
        except json.JSONDecodeError:
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        _print_metrics(result["metrics"])
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = metric
    return combined


def _print_metrics(metrics) -> None:
    for key, m in metrics.items():
        print(f"{key:<34} {m['value']!r} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_kec()
    from workloads import WORKLOADS

    if args.workload == "all":
        result = run_all(args)
    elif args.workload in WORKLOADS:
        result, lines = run_workload(args)
        print("\n".join(lines))
        _print_metrics(result["metrics"])
    else:
        _fail(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
