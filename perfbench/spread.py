#!/usr/bin/env python3
"""Run perfbench several times with different seeds and report, per
metric, the median, the quartiles and the quartile spread as a share of
the median, flagging a spread above a third of the bound BENCHMARK.json
gives the metric.

Run from the repository root:

    python3 perfbench/spread.py --workloads local-scan,local-agg --runs 10 --save a.json
    python3 perfbench/spread.py --workloads local-scan,local-agg --runs 10 \
        --first-seed 11 --against a.json

Each run is `bash perfbench/run.sh --workload W --seed S --seconds N
--trace T`, with seeds first-seed, first-seed+1, ... --save writes the
medians to a file; --against compares this set's medians with a saved
set and flags a metric whose median is worse by more than its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--save", help="write the medians to this JSON file")
    ap.add_argument("--against", help="compare the medians with those saved in this JSON file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    before = {}
    if args.against:
        with open(args.against) as f:
            before = json.load(f)
    medians = {}
    ok = True
    for w in args.workloads.split(","):
        values = {}
        steal = []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            for line in lines[:-1]:
                detail = json.loads(line).get("detail", {})
                if "window_steal_frac" in detail:
                    steal.append(detail["window_steal_frac"])
            if not res["correct"] or res["failed"]:
                print(f"{w} seed {seed}: incorrect result ({res['failed']} failed)", file=sys.stderr)
                ok = False
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {w} ({args.runs} runs, {seconds} s, trace {args.trace})")
        if steal:
            print(f"  host steal share of the timed windows: median {statistics.median(steal):.3f}, max {max(steal):.3f}")
        for name in sorted(values):
            v = values[name]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name) if args.trace == 0 else None
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = f"  > bound/3 ({bound / 3:.3f})"
            old = before.get(w, {}).get(name)
            if old:
                worse = (med - old) / old if better[name] == "lower" else (old - med) / old
                flag += f"  vs saved {old:.6g}: {worse:+.4f} worse"
                if bound is not None and worse > bound:
                    flag += f" > bound ({bound})"
                    ok = False
            medians.setdefault(w, {})[name] = med
            print(f"  {name:36s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:7.4f}{flag}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(medians, f, indent=1, sort_keys=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
