"""armakit benchmark: one workload per run, as a closed loop.

One caller runs one op at a time in this process (``cli-solve`` runs each op
as a child process), for ``--seconds`` of op time; each op's output is
checked after its timer stops.  Run from the root of a checkout::

    python3 perfbench/run.py --workload train --seed 1 --seconds 15 --trace 0

Workloads, metric names and units are read from ``BENCHMARK.json``.  The
last line of stdout is the result, ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The line before it records the machine, the
shapes, the op count and any failure messages.  A traced run alternates
untraced and traced ops, so that the tracing overhead is the difference of
their medians, and writes its spans to ``perfbench/out/``.

``armakit`` is imported from ``src/`` of the checkout and nowhere else; without
it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: set-ups measured per run (this process plus fresh child processes)
SETUP_SAMPLES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    return parser.parse_args(argv)


def limit_threads() -> int:
    """Cap the BLAS and OpenMP thread pools at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        current = os.environ.get(var, "")
        limit = int(current) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(min(limit, nproc))
    return nproc


def machine_info(nproc) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def set_up(name, seed, workdir):
    """Import armakit, generate the seeded inputs and run one warm-up op per input set.

    Returns the workload, the warm-up outcomes and the elapsed seconds.
    """
    start = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[name](seed, workdir)
    warm = [(i, run_op(workload, i)) for i in range(workloads.POOL)]
    return workload, warm, time.perf_counter() - start


def run_op(workload, i, tracer=None):
    try:
        return workload.op(i, tracer)
    except Exception as exc:  # a failed op is counted, not fatal
        return exc


def judge(workload, i, outcome):
    if isinstance(outcome, Exception):
        return f"op {i} raised {type(outcome).__name__}: {outcome}"
    try:
        return workload.check(i, outcome)
    except Exception as exc:
        return f"op {i}: check raised {type(exc).__name__}: {exc}"


def child_setup_seconds(args) -> float:
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed ({done.returncode}): {done.stderr[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "armakit" / "__init__.py").is_file():
        print(f"error: no armakit sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    nproc = limit_threads()
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return run(args, spec, workdir, nproc)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, spec, workdir, nproc) -> int:
    workload, warm, setup_s = set_up(args.workload, args.seed, workdir)
    import armakit

    if not Path(armakit.__file__).resolve().is_relative_to(SRC):
        print(f"error: armakit was imported from {armakit.__file__}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    failures = [message for i, outcome in warm if (message := judge(workload, i, outcome))]
    attempted, failed = len(warm), len(failures)
    once = getattr(workload, "check_once", None)
    once_failure = once() if once else None
    setup_samples = [setup_s]
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    else:
        setup_samples += [child_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]

    untraced, traced = [], []
    spent, i = 0.0, len(warm)
    deadline = time.perf_counter() + 2 * args.seconds + 30
    while (spent < args.seconds or not untraced or (tracer and not traced)) and time.perf_counter() < deadline:
        if tracer and i % 2:
            tracer.install()
            tracer.begin("op")
            start = time.perf_counter()
            outcome = run_op(workload, i, tracer)
            elapsed = time.perf_counter() - start
            tracer.end()
            tracer.uninstall()
            traced.append(elapsed)
        else:
            start = time.perf_counter()
            outcome = run_op(workload, i)
            elapsed = time.perf_counter() - start
            untraced.append(elapsed)
        spent += elapsed
        attempted += 1
        message = judge(workload, i, outcome)
        if message:
            failed += 1
            failures.append(message)
        i += 1

    if tracer:
        from tracing import LAYERS, summarize

        values = summarize(tracer.spans)
        values["trace.op_ms.untraced"] = statistics.median(untraced) * 1e3
        values["trace.overhead_ms"] = values["trace.op_ms.traced"] - values["trace.op_ms.untraced"]
        values["trace.absent"] = len(tracer.absent)
        values.update({f"{layer}.errors": tracer.errors[layer] for layer in LAYERS})
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        wanted = spec["per_layer"]
    else:
        peak_kb = getattr(workload, "peak_rss_kb", None) or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "setup_s": statistics.median(setup_samples),
            "ops_per_s": len(untraced) / sum(untraced),
            "op_ms.p50": statistics.median(untraced) * 1e3,
            "peak_rss_mb": peak_kb / 1024.0,
        }
        wanted = spec["end_to_end"]

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "op": type(workload).__doc__,
        "shapes": workload.shapes,
        "ops_timed": len(untraced) + len(traced),
        "error_rate": failed / attempted,
        "failures": failures[:5] + ([once_failure] if once_failure else []),
        "setup_samples_s": setup_samples,
        "machine": machine_info(nproc),
    }
    if len(untraced) >= 100:
        record["op_ms.p90"] = statistics.quantiles(untraced, n=10)[-1] * 1e3
    if tracer:
        record["absent"] = tracer.absent
    print(json.dumps(record))
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    result = {"correct": failed == 0 and once_failure is None, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
