"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steady.py --workload span-scan --seeds 1-10 [--sets 2] [--out FILE]

Runs perfbench/run.py once per seed and set, one run at a time, with the
settings of BENCHMARK.json.  With --sets 2 the seed list is run twice,
interleaved (seed 1 of set A, seed 1 of set B, seed 2 of set A, ...), so
that the host's drift over minutes falls on both sets alike.  For every
metric it prints, per set, the median over the runs and the spread, the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median; with two sets also the drift, how much worse
set B's median is than set A's as a share of it; and the metric's bound.
--out appends the raw results as one JSON line.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("nan")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"),
                        help="inclusive range, at least two seeds (default 1-10)")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    sets = [[] for _ in range(args.sets)]
    for seed in args.seeds:
        for label, runs in zip("AB", sets):
            cmd = spec["command"] + [
                "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result["context"] = json.loads(lines[-2])["context"]
            runs.append(result)
            print("set %s seed %d: correct=%s attempted=%d failed=%d" % (
                label, seed, result["correct"], result["attempted"], result["failed"]),
                file=sys.stderr)

    head = "%-38s" % "metric" + "".join(" %11s %7s" % ("median " + l, "spread") for l in "AB"[:args.sets])
    print(head + (" %7s" % "drift" if args.sets == 2 else "") + " %6s" % "bound")
    for name in sets[0][0]["metrics"]:
        line = "%-38s" % name
        medians = []
        for runs in sets:
            median, width = spread([run["metrics"][name]["value"] for run in runs])
            medians.append(median)
            line += " %11.5g %7.4f" % (median, width)
        if args.sets == 2:
            sign = -1 if metrics.get(name, {}).get("better") == "higher" else 1
            drift = sign * (medians[1] - medians[0]) / medians[0] if medians[0] else float("nan")
            line += " %+7.4f" % drift
        print(line + " %6s" % metrics.get(name, {}).get("bound", "-"))
    if args.out:
        with open(args.out, "a") as handle:
            handle.write(json.dumps({
                "workload": args.workload, "seconds": spec["run_seconds"],
                "trace": args.trace, "seeds": args.seeds, "sets": sets,
            }) + "\n")


if __name__ == "__main__":
    main()
