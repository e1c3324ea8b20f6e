#!/usr/bin/env python3
"""Repeat the benchmark over seeds and summarize medians and spreads.

    python3 perfbench/baseline.py --runs 10 --seconds 25 [--workloads bounds cli] [--traced] [--write]

Runs ``run.py`` once per (workload, seed), one after another, seeds
1..runs, and prints for every end-to-end metric its median and its spread:
the distance between the first and third quartile of the runs (as
``statistics.quantiles(values, n=4)`` gives them) as a share of the
median.  ``--traced`` adds one traced run per workload and prints the
per-layer metrics.  ``--write`` stores the summary, the traced metrics
and the layer-to-metric map in ``baseline.json`` next to this file,
replacing the entries of the workloads it ran and keeping the others.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bounds", "geometry", "cli")

# Which end-to-end metric each per-layer metric should move, and where.
LAYER_MAP = {
    "enumeration.calls": "requests_per_s, latency_p90_ms on bounds; latency_p90_ms on cli; ~0 on geometry",
    "enumeration.self_s": "requests_per_s, latency_p90_ms on bounds; latency_p90_ms on cli; ~0 on geometry",
    "enumeration.evaluations": "requests_per_s, latency_p90_ms on bounds; latency_p90_ms on cli; ~0 on geometry",
    "enumeration.evals_per_s": "requests_per_s, latency_p90_ms on bounds; latency_p90_ms on cli",
    "enumeration.exact_calls": "requests_per_s, latency_p90_ms on bounds; latency_p90_ms on cli",
    "enumeration.distinct_ratio": "latency_p90_ms on cli (well below 1); ~1 on bounds",
    "noise.enumerations_per_call": "latency_p90_ms on cli; ~1 on bounds",
    "inequalities.self_s": "requests_per_s on bounds",
    "noise.self_s": "requests_per_s on bounds",
    "polytopes.vertices.self_s": "requests_per_s, latency_p90_ms on geometry",
    "polytopes.vertices.rows": "requests_per_s, latency_p90_ms on geometry",
    "polytopes.vertices.distinct_ratio": "requests_per_s, latency_p90_ms on geometry",
    "polytopes.membership.self_s": "requests_per_s, latency_p90_ms on geometry (vertices excluded)",
    "polytopes.membership.iterations": "requests_per_s, latency_p90_ms on geometry",
    "polytopes.facet_check.self_s": "requests_per_s, latency_p90_ms on geometry",
    "polytopes.facet_check.tight_rows": "requests_per_s, latency_p90_ms on geometry",
    "optimize.gram_ascent.self_s": "requests_per_s, latency_p50_ms on cli (gram, scan-theta, reproduce-paper)",
    "optimize.gram_ascent.restarts": "requests_per_s, latency_p50_ms on cli (gram, scan-theta, reproduce-paper)",
    "optimize.gram_ascent.best_sweeps": "requests_per_s, latency_p50_ms on cli (gram, scan-theta, reproduce-paper)",
    "optimize.ratio_probe.self_s": "requests_per_s, latency_p50_ms on cli (gram, scan-theta, reproduce-paper)",
    "optimize.ratio_probe.instances": "requests_per_s, latency_p50_ms on cli (gram, scan-theta, reproduce-paper)",
    "optimize.scan_theta.self_s": "requests_per_s, latency_p50_ms on cli (gram, scan-theta, reproduce-paper)",
    "tsirelson.realize.self_s": "latency_p50_ms on cli (tsirelson, reproduce-paper)",
    "tsirelson.verify.self_s": "latency_p50_ms on cli (tsirelson, reproduce-paper)",
    "tsirelson.max_dim": "latency_p50_ms on cli (tsirelson, reproduce-paper)",
    "quantum.self_s": "latency_p50_ms on cli",
    "webs.self_s": "latency_p50_ms on cli",
    "reproduce.self_s": "latency_p50_ms on cli",
    "reproduce.rows": "latency_p50_ms on cli",
    "cli.self_s": "latency_p50_ms on cli",
    "cli.stdout_bytes": "latency_p50_ms on cli",
    "trace.overhead_ratio": "traced requests_per_s / untraced, per workload",
}


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} requests failed\n"
              f"{done.stderr}", flush=True)
    shares = {}
    for line in lines:
        if line.startswith("self-time share"):
            for item in line.split(": ", 1)[1].split(", "):
                layer, share = item.rsplit(" ", 1)
                shares[layer] = float(share)
    return result, shares


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()

    out = HERE / "baseline.json"
    summary = json.loads(out.read_text()) if args.write and out.exists() else {}
    for key in ("end_to_end", "per_layer", "layer_shares", "settings"):
        summary.setdefault(key, {})
    for workload in args.workloads:
        values = {}
        failed = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, _ = run_once(workload, seed, args.seconds, 0)
            failed[seed] = [result["failed"], result["attempted"]]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)
        rows = {}
        for name, vals in values.items():
            rows[name] = {"median": statistics.median(vals), "spread": spread(vals), "runs": vals}
            print(f"  {workload:8s} {name:16s} median {rows[name]['median']:.5g}  "
                  f"spread {rows[name]['spread']:.3f}", flush=True)
        rows["failed_of_attempted_by_seed"] = failed
        summary["end_to_end"][workload] = rows
        if args.traced:
            result, shares = run_once(workload, args.first_seed, args.seconds, 1)
            summary["per_layer"][workload] = {n: m["value"] for n, m in result["metrics"].items()}
            summary["layer_shares"][workload] = shares
            print(f"  {workload} traced: {shares}", flush=True)
        summary["settings"][workload] = {"runs": args.runs, "seconds": args.seconds,
                                         "seeds": [args.first_seed, args.first_seed + args.runs - 1]}
    if args.write:
        summary["layer_map"] = LAYER_MAP
        out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
