"""Benchmark runner for braidrep: one workload, one seed, one closed loop.

    python3 perfbench/run.py --workload span-scan --seed 1 --seconds 20 --trace 0

Run from the repository root.  The library is imported from ./src as it
stands; nothing is installed or built.  A single thread runs blocks of
items back to back (a closed loop) until --seconds have passed, finishing
the block it is in.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics.  --trace 1 reports per-layer
metrics instead, per run of block 0 (perfbench/tracing.py patches spans
into braidrep from outside): counts come from one run with Scalar op
counters installed; self times are medians over --seconds of runs that
alternate untraced and traced (spans only), and the tracing overhead is
the median traced-minus-untraced difference of those pairs.  Spans are
written to perfbench/out/.  A line of run context (machine, Python, seed,
input shares) is printed before the result.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from itertools import count
from pathlib import Path
from time import perf_counter

from tracing import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODULES = ("fields", "matrices", "reps", "classify", "samplers", "dims", "cli")
SETUP_REPEATS = 11  # setup_s is the median; the last set-up is the one run
SETUP_BLOCKS = 2  # blocks generated during set-up; later ones on demand


def fresh_import():
    """Import braidrep afresh (dropping any earlier import) and
    return its modules by short name."""
    for name in [n for n in sys.modules if n == "braidrep" or n.startswith("braidrep.")]:
        del sys.modules[name]
    return {name: importlib.import_module("braidrep." + name) for name in MODULES}


def set_up(workload_cls, seed):
    """One set-up: a fresh import plus generating the first blocks.
    Returns (workload, blocks, seconds)."""
    start = perf_counter()
    workload = workload_cls(fresh_import(), seed)
    blocks = {j: workload.block(j) for j in range(SETUP_BLOCKS)}
    return workload, blocks, perf_counter() - start


def run_loop(workload, blocks, seconds):
    """Run blocks 0, 1, ... until seconds have passed; list of results."""
    results = []
    start = perf_counter()
    for j in count():
        if j not in blocks:
            blocks[j] = workload.block(j)
        results.append(workload.run_block(blocks[j]))
        if perf_counter() - start >= seconds:
            return results


def percentile(values, q):
    """The q-th percentile (0 < q < 100), interpolated as statistics does."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(results, setup_s):
    items = [item for block in results for item in block.items]
    times = [item.seconds for item in items]
    failed = sum(not item.ok for item in items)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(block.wall for block in results), "s"),
        "items_per_s": (len(items) / sum(block.wall for block in results), "1/s"),
        "item_p50_ms": (percentile(times, 50) * 1e3, "ms"),
        "item_p90_ms": (percentile(times, 90) * 1e3, "ms"),
        "verified_frac": ((len(items) - failed) / len(items), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return items, metrics


def traced_block(workload, blocks, tracer, modules, count_ops=False):
    """Run block 0 with tracing installed; (result, layer metrics)."""
    tracer.install(modules, count_ops)
    try:
        begin = tracer.mark()
        result = workload.run_block(blocks[0], tracer)
        return result, tracer.layer_metrics(begin, tracer.mark())
    finally:
        tracer.uninstall()


def traced(workload, blocks, seconds, modules):
    tracer = Tracer()
    origin = perf_counter()
    counted, metrics = traced_block(workload, blocks, tracer, modules, count_ops=True)
    plain, runs, per_run = [], [], []
    start = perf_counter()
    while not runs or perf_counter() - start < seconds:
        plain.append(workload.run_block(blocks[0]))
        result, layers = traced_block(workload, blocks, tracer, modules)
        runs.append(result)
        per_run.append(layers)
    for name, (_, unit) in metrics.items():
        if unit == "s":
            metrics[name] = (statistics.median(run[name][0] for run in per_run), unit)
    extra = [t.wall - p.wall for t, p in zip(runs, plain)]
    metrics["trace.overhead_s"] = (statistics.median(extra), "s")
    metrics["trace.overhead_frac"] = (
        statistics.median(e / p.wall for e, p in zip(extra, plain)), "ratio",
    )
    out = HERE / "out" / ("trace-%s-seed%d.jsonl.gz" % (workload.name, workload.seed))
    tracer.write(out, origin)
    items = [item for block in [counted] + plain + runs for item in block.items]
    return items, metrics, {"pairs": len(runs), "spans": len(tracer.spans),
                            "span_file": str(out.relative_to(ROOT))}


def machine():
    cpu = platform.machine() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "braidrep" / "__init__.py").is_file():
        print("error: no braidrep source under %s; run from a repository checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup_times = []
    for _ in range(SETUP_REPEATS):
        workload, blocks, seconds = set_up(WORKLOADS[args.workload], args.seed)
        setup_times.append(seconds)
    context = dict(machine(), workload=args.workload, seed=args.seed, seconds=args.seconds)
    if args.trace:
        modules = {name: sys.modules["braidrep." + name] for name in MODULES}
        items, metrics, extra = traced(workload, blocks, args.seconds, modules)
        context.update(extra)
    else:
        results = run_loop(workload, blocks, args.seconds)
        items, metrics = end_to_end(results, statistics.median(setup_times))
        context["blocks"] = len(results)
    tags = [tag for item in items for tag in item.tags]
    context["items"] = len(items)
    context["shares"] = {tag: tags.count(tag) / len(items) for tag in sorted(set(tags))}
    print(json.dumps({"context": context}))
    failed = sum(not item.ok for item in items)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(items),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
