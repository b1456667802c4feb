"""Benchmark of bandedzeros: one seeded workload per invocation.

    python3 perfbench/run.py --workload trace-sweep --seed 1 --seconds 20 --trace 0

The library is imported from ``src/`` of the checkout holding this file,
never from an installed copy.  A run

1. turns ``--seed`` into the workload's inputs (``workloads.py``);
2. starts ``SETUP_PROBES`` fresh interpreters that import the library and
   make one untimed warm-up call; ``setup_s`` is the median time from
   start to ready;
3. warms up, then runs passes over the inputs until the next pass would
   end after ``--seconds`` (at least one), checking every result;
4. prints a ``meta`` line (versions, kernel, BLAS threads, seed, realised
   inputs), one line per metric, and last one JSON object with the keys
   ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: ``wall_s``, the
time of a typical untraced pass (``typical_pass``); ``setup_s``; and
``peak_rss_mb``, the peak resident memory of this process, which runs
this one workload.  The ``fail_frac`` line gives failed over attempted
operations; the JSON carries it as ``failed`` and ``attempted``.  With
``--trace 1`` untraced and traced passes alternate and the metrics are
the per-layer ones: the self time of the spans around each call into a
module, counters, and ``trace.overhead_s``, the traced minus the
untraced typical pass time.

BLAS runs at most min(nproc, 2) threads.  ``--smoke`` shrinks every size
so that a run takes seconds.  Exit status 0 means a result was printed;
2 means no run could be made (no sources next to this file, bad options).
"""

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOAD_NAMES = ("trace-sweep", "mop-zeros", "monte-carlo", "path-oracle")
SETUP_PROBES = 5
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "recurrence.classical_scheme_s": "s",
    "mop.mop_scheme_s": "s",
    "bandop.trace_table.small_n_s": "s",
    "bandop.trace_table.large_n_s": "s",
    "bandop.truncation_bytes_computed": "bytes",
    "bandop.variance_moment_s": "s",
    "bandop.bounds_s": "s",
    "bandop.build_truncation_s": "s",
    "bandop.reference_s": "s",
    "bandop.mean_moment_s": "s",
    "zeros.spectrum.multi_index_s": "s",
    "zeros.spectrum.tridiagonal_s": "s",
    "zeros.zero_moments_s": "s",
    "zeros.reality_check_s": "s",
    "zeros.points": "count",
    "freeprob.free_conv_s": "s",
    "freeprob.curve_moments_s": "s",
    "freeprob.stieltjes_density_s": "s",
    "measures.kva_moment_s": "s",
    "sampler.mc_moments.gue_s": "s",
    "sampler.mc_moments.wishart_s": "s",
    "sampler.mc_moments.gue_source_s": "s",
    "sampler.mc_moments.wishart_cov_s": "s",
    "sampler.samples": "count",
    "sampler.samples_per_s": "1/s",
    "sampler.shared_rows_frac": "fraction",
    "paths.lattice_sum.none_s": "s",
    "paths.lattice_sum.stay_below_s": "s",
    "paths.lattice_sum.midpoint_s": "s",
    "paths.calls": "count",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small sizes, one setup probe")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def monotonic():
    """A clock shared by every process on the machine."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def setup_time(args):
    """Seconds from starting a fresh interpreter until it is ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--probe"]
    start = monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    word, ready = done.stdout.split()
    if word != "ready":
        raise RuntimeError(f"setup probe printed {done.stdout!r}")
    return float(ready) - start


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def blas_threads(package):
    """Threads of the OpenBLAS bundled with ``package``, or None."""
    libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def measure(workload, inputs, seconds, traced):
    """Alternate untraced and (when ``traced``) traced passes until the next
    pass would end after ``seconds``.  Returns the ledger, and by mode (traced
    or not) the pass times and the operation times of each pass, and the
    per-layer values of each traced pass."""
    from spans import Tracer
    from workloads import Ledger, counting_truncations

    ledger = Ledger()
    walls = {False: [], True: []}
    op_seconds = {False: [], True: []}
    layers = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        tracing = traced and len(walls[True]) < len(walls[False])
        tracer = Tracer(tracing)
        ledger.seconds = {}
        with counting_truncations(tracer) if tracing else contextlib.nullcontext():
            t0 = time.perf_counter()
            workload.run_pass(inputs, tracer, ledger)
            wall = time.perf_counter() - t0
        walls[tracing].append(wall)
        op_seconds[tracing].append(ledger.seconds)
        if tracing:
            layers.append(layer_values(tracer))
        longest = max(longest, wall)
        complete = walls[False] and (walls[True] or not traced)
        if complete and time.perf_counter() - start + longest > seconds:
            return ledger, walls, op_seconds, layers


def typical_pass(walls, op_seconds):
    """Time of a typical pass: each operation's median time over the passes,
    summed, plus the median time spent between operations.  A stall that
    hits one pass shifts no median, so this is steadier than the median of
    whole passes on a shared machine."""
    ops = sum(statistics.median(p[label] for p in op_seconds) for label in op_seconds[0])
    between = statistics.median(w - sum(p.values()) for w, p in zip(walls, op_seconds))
    return ops + between


def layer_values(tracer):
    values = {name + "_s": t for name, t in tracer.self_times().items()}
    values.update(tracer.counts)
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise RuntimeError(f"spans or counters without a per-layer metric: {sorted(unknown)}")
    sampling = sum(t for name, t in values.items() if name.startswith("sampler.mc_moments."))
    samples = values.get("sampler.samples", 0)
    values["sampler.samples_per_s"] = samples / sampling if sampling else 0.0
    return values


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "bandedzeros" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC / 'bandedzeros'}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import bandedzeros

    if Path(bandedzeros.__file__).resolve().parent != SRC / "bandedzeros":
        print(f"error: imported bandedzeros from {bandedzeros.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.probe:
        workload.warm_up()
        print("ready", repr(monotonic()), flush=True)
        return 0

    import numpy
    import scipy

    inputs = workload.make_inputs(args.seed, args.smoke)
    workload.warm_up()
    probes = [setup_time(args) for _ in range(1 if args.smoke else SETUP_PROBES)]
    ledger, walls, op_seconds, layers = measure(workload, inputs, args.seconds, args.trace == 1)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel": bandedzeros.kernel_name(),
        "blas_threads": {
            "requested": BLAS_THREADS,
            "numpy": blas_threads(numpy),
            "scipy": blas_threads(scipy),
        },
        "inputs": inputs,
        "pass_s": {"untraced": walls[False], "traced": walls[True]},
        "setup_probes_s": probes,
    }
    print("meta", json.dumps(meta, sort_keys=True))

    if args.trace:
        values = {
            name: statistics.median(layer.get(name, 0) for layer in layers) for name in PER_LAYER
        }
        values["trace.overhead_s"] = typical_pass(walls[True], op_seconds[True]) - typical_pass(
            walls[False], op_seconds[False]
        )
        if workload.diagnostics is not None:
            values.update(workload.diagnostics(inputs))
        units = PER_LAYER
    else:
        values = {
            "wall_s": typical_pass(walls[False], op_seconds[False]),
            "setup_s": statistics.median(probes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    for name, unit in units.items():
        print(f"{args.workload} {name} = {values[name]:.6g} {unit}")
    if args.trace:
        timed = {n: values[n] for n, u in PER_LAYER.items() if u == "s" and n != "trace.overhead_s"}
        top = max(timed, key=timed.get)
        verdict = "matches" if top.startswith(workload.dominant) else "does NOT match"
        print(
            f"{args.workload} dominant layer {top} ({timed[top]:.3g} s) "
            f"{verdict} {workload.dominant}"
        )
    else:
        print(f"{args.workload} wall_s samples = {len(walls[False])} passes")
    print(
        f"{args.workload} fail_frac = {ledger.failed / ledger.attempted:.6g} "
        f"({ledger.failed} of {ledger.attempted} operations)"
    )
    for failure in ledger.failures[:20]:
        print("FAILED", failure, file=sys.stderr)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
