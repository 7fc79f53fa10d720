#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarises each metric.

    python3 e2ebench/sweep.py --seeds 1-10 [--workloads a,b] [--traced]
                              [--label NAME] [--out FILE] [--baseline FILE]

For every workload and end-to-end metric it prints the median over seeds and
the interquartile distance as a share of the median (statistics.quantiles,
n=4), and flags metrics whose spread exceeds a third of the bound in
BENCHMARK.json. --traced adds one traced run per workload (first seed) for
the per-layer numbers. --out writes the summary, with every seed's value, as
one point of the committed trajectory (e2ebench/trajectory/). --baseline
compares each median with the same metric of an earlier point and flags a
worsening beyond the bound, the check that two sweeps of the same code agree.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "e2ebench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    elapsed = time.monotonic() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    return detail, result, elapsed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--label", default="")
    parser.add_argument("--out")
    parser.add_argument("--baseline",
                        help="an earlier trajectory point to compare medians with")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    baseline = json.loads(Path(args.baseline).read_text()) if args.baseline else None
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    seeds = parse_seeds(args.seeds)

    summary = {"label": args.label, "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    if args.baseline:
        summary["baseline"] = Path(args.baseline).name
    for workload in workloads:
        values, walls, env = {}, [], None
        for seed in seeds:
            detail, result, elapsed = run_once(workload, seed, seconds, 0)
            env = env or detail["env"]
            walls.append(elapsed)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect output")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {elapsed:.1f} s", file=sys.stderr)
        rows = {}
        print(f"\n{workload} ({len(seeds)} seeds, {max(walls):.1f} s slowest run)")
        for name, vals in values.items():
            q1, q2, q3 = stats.quartiles(vals)
            spread = stats.spread(vals)
            bound = bounds[name]
            flag = "" if spread <= bound / 3 else (" > bound/3" if spread <= bound else " > BOUND")
            print(f"  {name:22s} median {q2:12.6g}  spread {100 * spread:6.2f}%"
                  f"  (bound {100 * bound:.0f}%){flag}")
            rows[name] = {"median": q2, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            if baseline is not None:
                base = baseline["workloads"][workload]["end_to_end"][name]["median"]
                worse = stats.worsening(q2, base, better[name])
                rows[name]["worse_than_baseline"] = worse
                print(f"  {'':22s} vs baseline {100 * worse:+6.2f}%"
                      + (" > BOUND" if worse > bound else ""))
        entry = {"env": env, "end_to_end": rows, "slowest_run_s": max(walls)}
        if args.traced:
            _, result, _ = run_once(workload, seeds[0], seconds, 1)
            entry["per_layer_seed"] = seeds[0]
            entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
        summary["workloads"][workload] = entry

    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
