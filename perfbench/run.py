"""svplab benchmark: timed workloads, an output gate and per-layer traced timings.

Run from the root of a checkout:

    python3 perfbench/run.py --workload layer-p2-refine --seed 0 --seconds 60 --trace 0

Each op is one in-process call to ``svplab.runner.run(config, seed=SEED)``;
``--seed`` is passed through as that run seed.  A pass runs the workload's
ops one after another; ops repeat in turn while one more still fits in
``--seconds`` (every op runs at least once).  Every op's output goes through
the gate in ``workloads.py``.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (mean pass time:
the sum over ops of each op's mean time in the run; on a shared host the
speed of one op swings by up to half, in spells of a second to minutes, and
the mean over the whole run averages those spells out better than the median
or the fastest run does), ``setup_s`` (median over fresh processes of the
time from process start to the first op: importing svplab, numpy and scipy
and loading the configs), ``peak_rss_mb``, ``ok_ratio`` (1 - fail_ratio,
the share of an op's runs that raised or exited 3, averaged over the ops)
and ``oracle_rel_err``.

``--trace 1`` alternates untraced and traced passes and reports per-layer
self times and counts (see ``tracing.py``), the tracing overhead and the
loop remainder; it also requires the traced and untraced passes to write
byte-identical ``report.json`` files.

``--smoke`` runs every op at a coarse h, for the benchmark's own tests
(``python3 -m pytest perfbench/selftest.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every op passed the gate, 1 when one did not, and 2 when the
benchmark cannot run at all (for instance without ``src/svplab``).
"""

from __future__ import annotations

import os

# OpenBLAS reads this when numpy loads; one thread (<= nproc) steadies runs
BLAS_THREADS = 1
os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import LAYER_METRICS, LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, OpOutcome, gate  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio",
    "oracle_rel_err": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here."""


def import_svplab():
    """Import svplab from this checkout's src/, never from elsewhere."""
    pkg = SRC / "svplab"
    if not (pkg / "__init__.py").is_file():
        raise BenchError(f"{pkg} not found: run from the root of a svplab checkout")
    sys.path.insert(0, str(SRC))
    import svplab

    if Path(svplab.__file__).resolve().parent != pkg.resolve():
        raise BenchError(f"svplab imported from {svplab.__file__}, not from {pkg}")
    return svplab


def write_configs(workload, smoke, config_dir):
    """Render each op's template to a config file; returns the paths."""
    config_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for op in workload.ops:
        path = config_dir / f"{op.name}.cfg"
        path.write_text(op.render(smoke=smoke), encoding="utf-8")
        paths.append(path)
    return paths


def load_configs(svplab, paths):
    # looked up on the module at call time, so a tracer's rebinding applies
    return [svplab.config.load_config(str(p)) for p in paths]


# --- set-up time --------------------------------------------------------------

def setup_probe(config_paths):
    """Child side: import, load the configs, report the monotonic clock."""
    svplab = import_svplab()
    load_configs(svplab, config_paths)
    print(repr(time.monotonic()))


def setup_sample(config_paths):
    """One fresh process: seconds from its start to ready-for-first-op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           *map(str, config_paths)]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1]) - start


# --- passes ---------------------------------------------------------------------

def run_op(svplab, op, config, seed, out_dir, oracle_tol):
    """One op through the gate; returns its outcome and report bytes."""
    op_dir = out_dir / op.name
    op_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    try:
        result = svplab.runner.run(config, out_dir=str(op_dir), seed=seed)
    except Exception as exc:  # an op that raises is recorded, not fatal
        seconds = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return OpOutcome(op.name, None, seconds, math.nan,
                         [f"raised {type(exc).__name__}: {exc}"]), None
    seconds = time.perf_counter() - start
    err, errors = gate(op, result.exit_code, result.report, oracle_tol)
    return (OpOutcome(op.name, result.exit_code, seconds, err, errors),
            (op_dir / "report.json").read_bytes())


def run_pass(svplab, workload, configs, seed, out_dir, oracle_tol):
    """One pass over the workload's ops; returns outcomes and report bytes."""
    done = [run_op(svplab, op, config, seed, out_dir, oracle_tol)
            for op, config in zip(workload.ops, configs)]
    return [d[0] for d in done], [d[1] for d in done]


def pass_wall(outcomes):
    return sum(o.seconds for o in outcomes)


def time_left(start, seconds, laps):
    """True while another lap, as long as the median one so far, still fits.

    With no laps yet it is true, so every op (and in a traced run, every
    pass) runs at least once even when it is longer than --seconds.
    """
    if not laps:
        return True
    return time.perf_counter() - start + statistics.median(laps) <= seconds


def measure(svplab, workload, config_paths, args, out_dir, tol):
    """Untraced ops, in turn, until the run's time is up; end-to-end metrics.

    The ops run round-robin and the run stops at the first op that no longer
    fits, so a workload of long ops still uses nearly all of ``--seconds``;
    every op runs at least once.  A pass's time is the sum over ops of each
    op's mean time.  Set-up samples are spread over the run rather than all
    taken at the start, so that they see the same stretch of host time as
    the ops.
    """
    configs = load_configs(svplab, config_paths)
    by_op = [[] for _ in workload.ops]
    setups = []
    start = time.perf_counter()
    for i in itertools.cycle(range(len(workload.ops))):
        times = [o.seconds for o in by_op[i]]
        if not time_left(start, args.seconds, times):
            break
        by_op[i].append(run_op(svplab, workload.ops[i], configs[i], args.seed, out_dir, tol)[0])
        due = len(setups) * args.seconds / SETUP_SAMPLES
        if len(setups) < SETUP_SAMPLES and time.perf_counter() - start >= due:
            setups.append(setup_sample(config_paths))
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(config_paths))
    outcomes = [o for runs in by_op for o in runs]
    errs = [o.oracle_rel_err for o in outcomes if not math.isnan(o.oracle_rel_err)]
    metrics = {
        "wall_s": sum(statistics.mean(o.seconds for o in runs) for runs in by_op),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # per op, so that a last partial pass does not tilt it
        "ok_ratio": 1.0 - statistics.mean(sum(o.failed for o in runs) / len(runs)
                                          for runs in by_op),
        "oracle_rel_err": max(errs, default=math.nan),
    }
    for op, runs in zip(workload.ops, by_op):
        print(f"{op.name}: {len(runs)} runs, s: " + ", ".join(f"{o.seconds:.3f}" for o in runs))
    print("setup_s samples: " + ", ".join(f"{t:.4f}" for t in setups))
    print(f"fail_ratio: {1.0 - metrics['ok_ratio']:.4g} ratio")
    return metrics, outcomes, []


def measure_traced(svplab, workload, config_paths, args, out_dir, tol):
    """Alternating untraced and traced passes; per-layer metrics."""
    problems = []
    tracer = Tracer()
    with tracer:
        configs = load_configs(svplab, config_paths)
    parse_s = tracer.layer_metrics()["config.parse_s"]
    reached = tracer.reached()
    plain_walls, traced, outcomes, span_log, laps = [], [], [], [], []
    start = time.perf_counter()
    while time_left(start, args.seconds, laps):
        lap = time.perf_counter()
        # alternate which mode goes first, so neither always runs warmer
        order = (False, True) if len(traced) % 2 == 0 else (True, False)
        by_mode = {}
        for trace_on in order:
            if trace_on:
                tracer.reset()
                with tracer:
                    by_mode[True] = run_pass(svplab, workload, configs, args.seed, out_dir, tol)
                layers = tracer.layer_metrics()
                reached |= tracer.reached()
                span_log.append(tracer.span_rows())
            else:
                by_mode[False] = run_pass(svplab, workload, configs, args.seed, out_dir, tol)
            outcomes.extend(by_mode[trace_on][0])
        laps.append(time.perf_counter() - lap)
        plain_walls.append(pass_wall(by_mode[False][0]))
        wall = pass_wall(by_mode[True][0])
        layers["config.parse_s"] = parse_s
        layer_sum = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
        layers["bench.traced_wall_s"] = wall
        layers["bench.remainder_s"] = wall - layer_sum
        traced.append(layers)
        print(f"traced pass {len(traced)}: wall_s {wall:.4f} = layer self_s {layer_sum:.4f}"
              f" + remainder {wall - layer_sum:.6f}")
        if wall - layer_sum < -1e-6:
            problems.append("layer self times exceed the traced wall time")
        for op, plain, with_trace in zip(workload.ops, by_mode[False][1], by_mode[True][1]):
            if plain is None or plain != with_trace:
                problems.append(f"{op.name}: report.json differs between traced "
                                f"and untraced passes")
    for group in workload.reaches:
        if not reached & set(group.split("|")):
            problems.append(f"entry point {group} was never called")
    spans_path = OUT_ROOT / f"spans-{workload.name}-seed{args.seed}.json"
    spans_path.write_text(json.dumps({"workload": workload.name, "seed": args.seed,
                                      "passes": span_log}))
    print(f"spans: {spans_path}")
    metrics = {k: statistics.median(t[k] for t in traced) for k in traced[0]}
    metrics["bench.trace_overhead_s"] = (metrics["bench.traced_wall_s"]
                                         - statistics.median(plain_walls))
    print_shape(workload.name, metrics)
    return metrics, outcomes, problems


def print_shape(name, m):
    wall = m["bench.traced_wall_s"]
    post = (m["energetics.self_s"] + m["zones.self_s"] + m["asymptotics.self_s"]
            + m["frequency.optimal_constant_s"])
    print(f"shape {name}: frequency.profile_s {m['frequency.profile_s'] / wall:.1%}, "
          f"post-processing + optimal_constant {post / wall:.1%}, "
          f"solver.self_s {m['solver.self_s'] / wall:.1%} of traced wall_s")


# --- environment ----------------------------------------------------------------

def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads(module):
    """Thread count in effect in the OpenBLAS bundled with numpy or scipy."""
    libdir = Path(module.__file__).resolve().parent.parent / f"{module.__name__}.libs"
    for path in sorted(glob.glob(str(libdir / "libscipy_openblas*.so"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(args):
    import numpy
    import scipy

    libc = ctypes.CDLL(None)
    libc.sysconf.restype = ctypes.c_long
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads_pinned": BLAS_THREADS,
        "openblas_threads_numpy": blas_threads(numpy),
        "openblas_threads_scipy": blas_threads(scipy),
        # glibc _SC_LEVEL2_CACHE_SIZE and _SC_LEVEL3_CACHE_SIZE
        "l2_cache_bytes": libc.sysconf(191),
        "l3_cache_bytes": libc.sysconf(194),
    }


# --- main -----------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every op at a coarse h (the benchmark's own tests)")
    ap.add_argument("--setup-probe", nargs="+", metavar="CONFIG", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe is None and args.workload is None:
        ap.error("--workload is required")
    return args


def bench(args):
    """Run one workload; returns the result object printed last."""
    svplab = import_svplab()
    workload = WORKLOADS[args.workload]
    tol = workload.smoke_oracle_tol if args.smoke else workload.oracle_tol
    out_dir = OUT_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        config_paths = write_configs(workload, args.smoke, out_dir / "configs")
        if args.trace:
            metrics, outcomes, problems = measure_traced(
                svplab, workload, config_paths, args, out_dir / "ops", tol)
            units = {name: spec[0] for name, spec in LAYER_METRICS.items()}
        else:
            metrics, outcomes, problems = measure(
                svplab, workload, config_paths, args, out_dir / "ops", tol)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    rejected = [o for o in outcomes if not o.passed]
    for o in rejected:
        problems.append(f"{o.op}: " + "; ".join(o.errors))
    for problem in dict.fromkeys(problems):
        print(f"GATE: {problem}", file=sys.stderr)
    print("environment: " + json.dumps(environment(args), sort_keys=True))
    for name in units:
        print(f"{name}: {metrics[name]:.6g} {units[name]}")
    return {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": len(rejected),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv=None):
    args = parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.setup_probe)
            return 0
        result = bench(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
