#!/usr/bin/env python3
"""End-to-end benchmark of the CaPI reproduction: one command per workload.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the harness (e2ebench/CMakeLists.txt, compiling ../src) into
$CARGO_TARGET_DIR or .bench_build, runs one workload, checks its outputs and
prints, as the last line, {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones, computed from the spans the harness records around each
layer call. The line before it carries the environment, sample counts,
quartiles and the percentile each tail was taken at.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
LAYERS = ("support", "cg", "spec", "select", "dyncapi", "xraysim", "binsim",
          "scorepsim", "talpsim", "mpisim", "adapt", "fleet")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "e2ebench"


def build(out_dir):
    if not (ROOT / "src").is_dir():
        fail(f"no program sources at {ROOT / 'src'}")
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (out_dir / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    for cmd in (configure,
                ["cmake", "--build", str(out_dir), "--parallel", str(os.cpu_count() or 1)]):
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}", 1)
    return out_dir / "e2ebench"


# --- end-to-end metrics -------------------------------------------------------

def end_to_end(raw, detail):
    s = raw["samples"]

    def timing(name, samples):
        if len(samples) < 2:  # one set-up or session, as at 410k nodes
            detail[name] = {"n": len(samples), "median": stats.median(samples)}
            return detail[name]["median"]
        q1, q2, q3 = stats.quartiles(samples)
        detail[name] = {"n": len(samples), "q1": q1, "median": q2, "q3": q3}
        return q2

    def tail(name, samples):
        value, percentile = stats.tail(samples)
        detail[name] = {"n": len(samples), "percentile": percentile}
        return value

    def factor(config):
        value = stats.ratio_of_medians(s["run_s." + config], s["run_s.vanilla"])
        detail["overhead_" + config] = {"n": len(s["run_s." + config]),
                                        "base": "median vanilla wall, same run"}
        return value

    return {
        "setup_s": (timing("setup_s", s["setup_s"]), "s"),
        "peak_rss_mb": (raw["counters"]["peak_rss_mb"], "MB"),
        "cg_load_s": (timing("cg_load_s", s["cg_load_s"]), "s"),
        "init_s": (timing("init_s", s["init_s"]), "s"),
        "select_cold_s": (timing("select_cold_s", s["select_cold_s"]), "s"),
        "refine_step_p50_s": (timing("refine_step_p50_s", s["refine_step_s"]), "s"),
        "refine_step_tail_s": (tail("refine_step_tail_s", s["refine_step_s"]), "s"),
        "vanilla_s": (timing("vanilla_s", s["run_s.vanilla"]), "s"),
        "overhead_inactive_x": (factor("inactive"), "x"),
        "overhead_ic_x": (factor("scorep_ic"), "x"),
        "overhead_full_x": (factor("scorep_full"), "x"),
        "overhead_talp_x": (factor("talp_ic"), "x"),
        "overhead_adaptive_x": (factor("adaptive"), "x"),
        "converge_s": (timing("converge_s", s["converge_s"]), "s"),
        "fleet_epoch_p50_s": (timing("fleet_epoch_p50_s", s["fleet_epoch_s"]), "s"),
        "fleet_epoch_tail_s": (tail("fleet_epoch_tail_s", s["fleet_epoch_s"]), "s"),
    }


# --- per-layer metrics --------------------------------------------------------

def load_spans(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    return [{"name": e["name"], "parent": e["args"]["parent"], "step": e["args"]["step"],
             "dur": (e["args"]["end_ns"] - e["args"]["start_ns"]) / 1e9}
            for e in events]


# Spans around one whole program execution (execute() in overhead.cpp), with
# the layer whose cost the run adds on top of the vanilla program.
EXECUTION_SPANS = {
    "binsim.run_vanilla": "binsim",
    "xraysim.run_inactive": "xraysim",
    "scorepsim.run_ic": "scorepsim",
    "scorepsim.run_full": "scorepsim",
    "scorepsim.run_sampled": "scorepsim",
    "adapt.epoch_run": "scorepsim",  # a Score-P run at the controller's policy
    "talpsim.run_ic": "talpsim",
    "mpisim.run_2rank": "mpisim",
}


def self_times(spans, vanilla_s):
    """Seconds per layer not covered by child spans; 'e2e' is harness glue.

    The harness cannot place spans inside a program execution, so an
    execution span charges up to `vanilla_s` (the median vanilla run) to
    binsim and only its excess to the layer the configuration adds.
    """
    covered = defaultdict(float)
    for span in spans:
        if span["parent"] >= 0:
            covered[span["parent"]] += span["dur"]
    per_layer = defaultdict(float)
    for index, span in enumerate(spans):
        own = span["dur"] - covered[index]
        layer = EXECUTION_SPANS.get(span["name"])
        if layer is None:
            layer = span["name"].split(".", 1)[0]
        else:
            program = min(own, vanilla_s)
            per_layer["binsim"] += program
            own -= program
        per_layer[layer] += own
    return per_layer


def per_step_median(spans, name):
    """Median over steps of the summed duration of `name` spans in a step."""
    per_step = defaultdict(float)
    for span in spans:
        if span["name"] == name:
            per_step[span["step"]] += span["dur"]
    return stats.median(list(per_step.values()))


def per_call_median(spans, name):
    return stats.median([span["dur"] for span in spans if span["name"] == name])


def per_layer(raw, spans):
    s, c = raw["samples"], raw["counters"]
    med = {k: stats.median(v) for k, v in s.items()}
    total = lambda name: sum(s[name])  # noqa: E731
    sled_hits_full = med["sled_hits.scorep_full"]

    def event_ns(config, base):
        return (med["run_s." + config] - med["run_s." + base]) / med["sled_hits." + config] * 1e9

    metrics = {
        # refine
        "support.json_parse_s": (per_step_median(spans, "support.json_parse"), "s"),
        "cg.from_json_s": (per_step_median(spans, "cg.from_json"), "s"),
        "spec.parse_s": (per_step_median(spans, "spec.parse"), "s"),
        "cg.csr_snapshot_s": (per_step_median(spans, "cg.csr_snapshot"), "s"),
        "select.pipeline_s": (per_step_median(spans, "select.pipeline"), "s"),
        "select.inline_comp_s": (per_step_median(spans, "select.inline_comp"), "s"),
        "dyncapi.resolve_s": (per_step_median(spans, "dyncapi.resolve"), "s"),
        "dyncapi.apply_ic_s": (per_step_median(spans, "dyncapi.apply_ic"), "s"),
        "select.session_select_s": (per_step_median(spans, "select.session_select"), "s"),
        "select.cache_hit_ratio": (total("refine_cache_hits") / total("refine_cache_stages"),
                                   "ratio"),
        "dyncapi.apply_delta_s": (per_step_median(spans, "dyncapi.apply_delta"), "s"),
        "dyncapi.pages_touched_per_step": (total("refine_pages_touched") / total("refine_steps"),
                                           "count"),
        "dyncapi.functions_flipped_per_step": (
            total("refine_functions_flipped") / total("refine_steps"), "count"),
        # overhead
        "binsim.dynamic_calls": (med["dynamic_calls.vanilla"], "count"),
        "binsim.call_ns": (med["run_s.vanilla"] / med["dynamic_calls.vanilla"] * 1e9, "ns"),
        "xraysim.sled_hits": (sled_hits_full, "count"),
        "xraysim.inactive_sled_ns": (
            (med["run_s.inactive"] - med["run_s.vanilla"]) / sled_hits_full * 1e9, "ns"),
        "scorepsim.event_ns_ic": (event_ns("scorep_ic", "inactive"), "ns"),
        "scorepsim.event_ns_full": (event_ns("scorep_full", "inactive"), "ns"),
        "talpsim.event_ns": (event_ns("talp_ic", "inactive"), "ns"),
        "scorepsim.sampled_event_ns": (event_ns("adaptive", "inactive"), "ns"),
        "adapt.start_s": (per_call_median(spans, "adapt.start"), "s"),
        "adapt.epoch_s": (per_call_median(spans, "adapt.epoch"), "s"),
        "adapt.epoch_run_s": (per_call_median(spans, "adapt.epoch_run"), "s"),
        "adapt.epochs": (med["adapt_epochs"], "count"),
        "adapt.full_regions": (c["adapt_full_regions"], "count"),
        "adapt.sampled_regions": (c["adapt_sampled_regions"], "count"),
        "adapt.distinct_policies": (c["adapt_distinct_policies"], "count"),
        "mpisim.sync_s": (med["run_s.vanilla_2rank"] - med["run_s.vanilla"], "s"),
        # fleet
        "fleet.send_s": (per_step_median(spans, "fleet.send"), "s"),
        "fleet.pump_s": (per_step_median(spans, "fleet.pump"), "s"),
        "fleet.await_s": (per_step_median(spans, "fleet.await"), "s"),
        "fleet.bytes_per_delta_frame": (c["fleet_bytes_in"] / c["fleet_frames_merged"], "bytes"),
        "fleet.bytes_per_policy_frame": (c["fleet_bytes_out"] / c["fleet_policy_frames"],
                                         "bytes"),
        "fleet.baseline_epoch_s": (med["fleet_baseline_epoch_s"], "s"),
        "fleet.gen_s": (per_step_median(spans, "gen.fleet_profiles"), "s"),
    }

    # Self time per layer as a share of all measured (root) span time; the
    # load generator's spans are not part of the measured work.
    selfs = self_times(spans, med["run_s.vanilla"])
    measured = sum(span["dur"] for span in spans
                   if span["parent"] < 0 and not span["name"].startswith("gen."))
    for layer in LAYERS:
        metrics[f"self.{layer}_pct"] = (100.0 * selfs.get(layer, 0.0) / measured, "%")
    metrics["trace.unattributed_pct"] = (100.0 * selfs.get("e2e", 0.0) / measured, "%")
    # Traced and untraced iterations alternate within the traced run; the
    # untraced ones run exactly what the untraced run does. A negative value
    # means the tracing cost is below the noise.
    on = sum(med[f"trace_on.{phase}_s"] for phase in ("refine", "overhead", "fleet"))
    off = sum(med[f"trace_off.{phase}_s"] for phase in ("refine", "overhead", "fleet"))
    metrics["trace.overhead_pct"] = (100.0 * (on / off - 1.0), "%")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    out_dir = build_dir()
    binary = build(out_dir)
    scratch = out_dir / "run"
    traces = out_dir / "traces"
    scratch.mkdir(parents=True, exist_ok=True)
    traces.mkdir(parents=True, exist_ok=True)
    trace_file = traces / f"{args.workload}-{args.seed}.json"

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", str(scratch), "--trace-out", str(trace_file)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    if done.returncode != 0 or not done.stdout.strip():
        fail(f"harness exited with code {done.returncode}", 1)
    raw = json.loads(done.stdout.strip().splitlines()[-1])

    checks = raw["checks"]
    detail = {"env": raw["env"], "checks": checks, "samples": {}}
    if args.trace:
        metrics = per_layer(raw, load_spans(trace_file))
        detail["trace_file"] = str(trace_file.relative_to(ROOT)
                                   if trace_file.is_relative_to(ROOT) else trace_file)
    else:
        metrics = end_to_end(raw, detail["samples"])
    detail["failure_share"] = stats.failure_share(checks["failed"], checks["attempted"])
    print(json.dumps({"detail": detail}))

    correct = checks["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
