#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end metrics are.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 1-10] [--sets 2]
                                    [--markdown perfbench/STEADINESS.md]

Runs `perfbench/run.py` once per (set, seed, workload), interleaving the
workloads, and reports for every end-to-end metric of BENCHMARK.json the
median and quartiles of each set (Python's statistics.quantiles, n=4), the
spread (q3 - q1) / median against the metric's bound, and how far the
second set's median moved from the first's in the metric's worse
direction. It summarizes the ungated `cpu_s` and `wall_s` the same way,
read from each run's artifact in perfbench/work/ when the result line does
not carry them. Run it from the repository root; it
reads and writes nothing outside the repository (raw results go to
perfbench/work/).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

# Printed by every run but not gated; summarized for the record.
UNGATED = ("cpu_s", "wall_s")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    elapsed = time.monotonic() - t0
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed with exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: output check failed")
    with open(f"perfbench/work/{workload}-seed{seed}-trace0.json") as f:
        result["artifact_metrics"] = json.load(f)["metrics"]
    return result, elapsed


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf")}


def value(result, name):
    """A metric of one run: from its result line, else from its artifact."""
    if name in result["metrics"]:
        return result["metrics"][name]["value"]
    return result["artifact_metrics"][name]["value"]


def worse_by(first, second, better):
    """Share by which `second` is worse than `first` (negative: better)."""
    if better == "lower":
        return (second - first) / first
    return (first - second) / first


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--markdown", help="also write the summary as markdown to this file")
    ap.add_argument("--from-raw", action="store_true",
                    help="summarize the last run's perfbench/work/steadiness-raw.json instead of running")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    metrics = spec["end_to_end"] + [{"name": n, "bound": "-", "better": "lower"} for n in UNGATED]

    raw_path = "perfbench/work/steadiness-raw.json"
    raw = {}  # (set, workload) -> list of results
    if args.from_raw:
        with open(raw_path) as f:
            for key, results in json.load(f).items():
                s, w = key.split(":")
                raw[(int(s), w)] = results
    else:
        for s in range(args.sets):
            for seed in seeds:
                for w in workloads:
                    result, elapsed = run_once(w, seed, args.seconds)
                    raw.setdefault((s, w), []).append(result)
                    vals = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                    print(f"set {s + 1} {w} seed {seed} ({elapsed:.0f} s): {vals}", flush=True)
                    os.makedirs("perfbench/work", exist_ok=True)
                    with open(raw_path, "w") as f:
                        json.dump({f"{s}:{w}": r for (s, w), r in raw.items()}, f, indent=1)

    host = f"nproc {os.cpu_count()}"
    try:
        with open("/proc/cpuinfo") as f:
            model = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
        host += f", {model}"
    except (OSError, StopIteration):
        pass
    out = [f"Seeds {seeds[0]}..{seeds[-1]} ({len(seeds)} runs per set and workload), "
           f"{args.sets} set(s), run_seconds {args.seconds}, host {host}.", ""]
    header = "| workload | metric | bound |"
    rule = "|---|---|---|"
    for s in range(args.sets):
        header += f" set {s + 1} median | q1 | q3 | spread |"
        rule += "---|---|---|---|"
    if args.sets > 1:
        header += " set 2 vs 1 |"
        rule += "---|"
    out += [header, rule]
    for w in workloads:
        for m in metrics:
            name = m["name"]
            row = f"| {w} | {name} | {m['bound']} |"
            sums = []
            for s in range(args.sets):
                vals = [value(r, name) for r in raw[(s, w)]]
                sm = summarize(vals)
                sums.append(sm)
                row += f" {sm['median']:.4g} | {sm['q1']:.4g} | {sm['q3']:.4g} | {sm['spread']:.3f} |"
            if args.sets > 1:
                row += f" {worse_by(sums[0]['median'], sums[1]['median'], m['better']):+.3f} |"
            out.append(row)
    text = "\n".join(out) + "\n"
    print(text)
    if args.markdown:
        with open(args.markdown, "w") as f:
            f.write(text)


if __name__ == "__main__":
    main()
