#!/usr/bin/env python3
"""bellbound benchmark: closed-loop workloads with answer checks and traced layers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload bounds --seed 1 --seconds 25 --trace 0

One client in one process sends the next request as soon as the previous
one returns.  The loop runs whole passes over the workload's 100 slots
until the program has been busy for ``--seconds``; every answer is
checked, outside the timed region.  Times are given at a fixed
reference speed of the host (see ``speed``).  With ``--trace 0`` the run
reports the end-to-end metrics.  With ``--trace 1`` it runs the same
requests twice, for half the time each, untraced and then with spans
around every public bellbound function, and reports the per-layer
metrics.  The last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

``--record`` rewrites ``reference.json`` from the current program; do that
only at a commit whose answers are known to be right.
"""

import os
import sys
import time

START = time.perf_counter()

# BLAS and OpenMP read these once, when numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"
WORKLOADS = ("bounds", "geometry", "cli")
SETUP_SAMPLES = 7


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once and print the set-up time (used for setup_s samples)")
    parser.add_argument("--record", action="store_true",
                        help="rewrite reference.json from the current program")
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    return args


def import_workloads():
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    return workloads


def set_up(name, seed):
    """Import, generate the first pass of inputs and warm every layer up."""
    workloads = import_workloads()
    workload = workloads.Workload(name, seed, json.loads(REFERENCE.read_text()))
    for index in range(len(workload.slots)):
        workload.request(index)
    workloads.warm_up()
    elapsed = time.perf_counter() - START
    slowdown = statistics.median(speed.kernel_seconds() for _ in range(9)) / speed.REFERENCE_S
    return workload, elapsed / slowdown


def extra_setup_samples(args) -> list:
    """Set-up times of fresh interpreters, run one after another."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


class Phase:
    """Outcome of one closed-loop phase: whole passes over the slots.

    Latencies are kept twice: as measured, and divided by the host's
    slowdown while the request ran (see ``speed``).  The metrics use the
    second; ``busy``, which decides when the phase ends, the first.
    """

    def __init__(self, slots):
        self.slots = slots
        self.latencies = []
        self.raw = []
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.polytopes_seen = set()
        self.repeat_polytope = 0
        self.stdout_bytes = 0

    def record(self, request, latency, slowdown, problems, result):
        self.latencies.append(latency / slowdown)
        self.raw.append(latency)
        self.busy += latency
        self.count(request, problems)
        if request.polytope is not None:
            self.repeat_polytope += request.polytope in self.polytopes_seen
            self.polytopes_seen.add(request.polytope)
        stdout = getattr(result, "stdout", None)  # CLI requests return what main printed
        if stdout is not None:
            self.stdout_bytes += len(stdout.encode())

    def count(self, request, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{request.label}: {problems[0]}")

    @property
    def passes(self):
        return len(self.raw) // self.slots

    @property
    def throughput(self):
        """Requests per second of program time, at the reference speed."""
        return len(self.latencies) / sum(self.latencies)


def timed_call(request):
    """Run one request; returns (result, latency, error)."""
    start = time.perf_counter()
    try:
        result = request.call()
    except Exception as exc:  # a refused or crashed request is a failed request
        return None, time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    return result, time.perf_counter() - start, None


def check(request, result, error) -> list:
    if error is not None:
        return [error]
    try:
        return request.check(result)
    except Exception as exc:
        return [f"answer check raised {type(exc).__name__}: {exc}"]


def execute(request):
    """Run and check one request; returns (result, latency, problems)."""
    result, latency, error = timed_call(request)
    return result, latency, check(request, result, error)


def run_phase(workload, seconds, tracer=None) -> Phase:
    """Run whole passes until the program has been busy for ``seconds``, at least two."""
    phase = Phase(len(workload.slots))
    index = 0
    while phase.busy < seconds or phase.passes < 2:
        for _ in range(len(workload.slots)):
            request = workload.request(index)
            if tracer is not None:
                tracer.begin_request(index)
            before = speed.kernel_seconds()
            result, latency, error = timed_call(request)
            after = speed.kernel_seconds()
            slowdown = (before + after) / 2 / speed.REFERENCE_S
            phase.record(request, latency, slowdown, check(request, result, error), result)
            index += 1
    if tracer is not None:
        tracer.finish()
    return phase


def percentile(values, q):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def environment():
    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except Exception:  # older numpy has no dict mode; the name is informative only
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def end_to_end(phase, setup_samples):
    lat, raw = phase.latencies, phase.raw
    beyond = sum(1 for x in lat if x > percentile(lat, 0.9))
    slowdown = phase.busy / sum(lat)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rows = [
        ("requests_per_s", phase.throughput, "1/s",
         f"{len(lat)} requests in {phase.passes} passes; as measured {len(raw) / phase.busy:.4g}/s "
         f"in {phase.busy:.2f} s busy, host slowdown {slowdown:.3f}"),
        ("latency_p50_ms", 1e3 * percentile(lat, 0.5), "ms",
         f"n={len(lat)}; as measured {1e3 * percentile(raw, 0.5):.4g} ms"),
        ("latency_p90_ms", 1e3 * percentile(lat, 0.9), "ms",
         f"n={len(lat)}, {beyond} beyond; as measured {1e3 * percentile(raw, 0.9):.4g} ms"),
        ("setup_s", statistics.median(setup_samples), "s",
         f"median of {len(setup_samples)} set-ups: " + " ".join(f"{s:.3f}" for s in setup_samples)),
        ("peak_rss_mb", rss_mb, "MB", "getrusage ru_maxrss"),
    ]
    return rows


def per_layer(traced, plain, tracer):
    """Per-layer metrics of the traced pass, per request unless noted."""
    self_s = tracer.self_times()
    c = tracer.counters
    requests = len(traced.latencies)
    per_req = lambda x: x / requests
    module_self = {}
    for name, seconds in self_s.items():
        module = name.split(".")[0]
        module_self[module] = module_self.get(module, 0.0) + seconds
    enum_s = module_self.get("enumeration", 0.0)
    enumerations = c["enumeration.enumerations"]

    noise_outer, noise_enum = tracer.nested_calls("noise.", "enumeration.max_over_signs")

    mean = lambda total, count: total / count if count else 0.0
    rows = [
        ("enumeration.calls", per_req(enumerations), "1/req"),
        ("enumeration.self_s", per_req(enum_s), "s/req"),
        ("enumeration.evaluations", per_req(c["enumeration.evaluations"]), "1/req"),
        ("enumeration.evals_per_s", mean(c["enumeration.evaluations"], enum_s), "1/s"),
        ("enumeration.exact_calls", per_req(c["enumeration.exact_calls"]), "1/req"),
        ("enumeration.distinct_ratio", mean(tracer.cubes_per_request, enumerations), "ratio"),
        ("noise.enumerations_per_call", mean(noise_enum, noise_outer), "1/call"),
        ("inequalities.self_s", per_req(module_self.get("inequalities", 0.0)), "s/req"),
        ("noise.self_s", per_req(module_self.get("noise", 0.0)), "s/req"),
        ("polytopes.vertices.self_s", per_req(self_s.get("polytopes.vertices", 0.0)), "s/req"),
        ("polytopes.vertices.rows", per_req(c["polytopes.vertices.rows"]), "1/req"),
        ("polytopes.vertices.distinct_ratio",
         mean(len(tracer.vertex_specs), c["polytopes.vertices.calls"]), "ratio"),
        ("polytopes.membership.self_s", per_req(self_s.get("polytopes.membership", 0.0)), "s/req"),
        ("polytopes.membership.iterations",
         mean(c["polytopes.membership.iterations"], c["polytopes.membership.calls"]), "1/call"),
        ("polytopes.facet_check.self_s", per_req(self_s.get("polytopes.facet_check", 0.0)), "s/req"),
        ("polytopes.facet_check.tight_rows",
         mean(c["polytopes.facet_check.tight_rows"], c["polytopes.facet_check.calls"]), "1/call"),
        ("optimize.gram_ascent.self_s", per_req(self_s.get("optimize.gram_ascent", 0.0)), "s/req"),
        ("optimize.gram_ascent.restarts", per_req(c["optimize.gram_ascent.restarts"]), "1/req"),
        ("optimize.gram_ascent.best_sweeps",
         mean(c["optimize.gram_ascent.best_sweeps"], c["optimize.gram_ascent.calls"]), "1/call"),
        ("optimize.ratio_probe.self_s", per_req(self_s.get("optimize.ratio_probe", 0.0)), "s/req"),
        ("optimize.ratio_probe.instances", per_req(c["optimize.ratio_probe.instances"]), "1/req"),
        ("optimize.scan_theta.self_s", per_req(self_s.get("optimize.scan_theta", 0.0)), "s/req"),
        ("tsirelson.realize.self_s", per_req(self_s.get("tsirelson.realize", 0.0)), "s/req"),
        ("tsirelson.verify.self_s", per_req(self_s.get("tsirelson.verify_realization", 0.0)), "s/req"),
        ("tsirelson.max_dim", float(tracer.max_dim), "count"),
        ("quantum.self_s", per_req(module_self.get("quantum", 0.0)), "s/req"),
        ("webs.self_s", per_req(module_self.get("webs", 0.0)), "s/req"),
        ("reproduce.self_s", per_req(module_self.get("reproduce", 0.0)), "s/req"),
        ("reproduce.rows", per_req(c["reproduce.rows"]), "1/req"),
        ("cli.self_s", per_req(module_self.get("cli", 0.0)), "s/req"),
        ("cli.stdout_bytes", per_req(traced.stdout_bytes), "B/req"),
        ("trace.overhead_ratio",
         traced.throughput / plain.throughput, "ratio"),
    ]
    shares = {m: s / traced.busy for m, s in sorted(module_self.items())}
    shares["outside bellbound"] = 1.0 - sum(shares.values())
    return rows, shares


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bellbound" / "__init__.py").is_file():
        print(f"perfbench: no bellbound sources at {SRC}; run it from a full checkout",
              file=sys.stderr)
        return 2
    if args.record:
        reference = import_workloads().record_reference()
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        print(f"wrote {REFERENCE}")
        return 0
    if not REFERENCE.exists():
        print(f"perfbench: {REFERENCE} is missing", file=sys.stderr)
        return 2

    workload, setup_s = set_up(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} closed loop, 1 client, 1 process")
    print("env " + json.dumps(environment(), sort_keys=True))

    if args.trace:
        from tracer import Tracer

        plain = run_phase(workload, args.seconds / 2)
        tracer = Tracer()
        with tracer.installed():
            traced = run_phase(workload, args.seconds / 2, tracer)
        phases = [plain, traced]
        rows, shares = per_layer(traced, plain, tracer)
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(span_file)
        print(f"spans: {len(tracer.spans)} written to {span_file.relative_to(ROOT)}")
        print("self-time share of busy time: " + ", ".join(f"{m} {s:.3f}" for m, s in shares.items()))
        metrics = {name: {"value": value, "unit": unit} for name, value, unit in rows}
    else:
        setup_samples = [setup_s] + extra_setup_samples(args)
        phase = run_phase(workload, args.seconds)
        phases = [phase]
        rows = end_to_end(phase, setup_samples)
        metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in rows}

    main_phase = phases[-1]
    probes = workload.probes()
    for request in probes:
        _, _, problems = execute(request)
        main_phase.count(request, problems)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)

    for row in rows:
        name, value, unit = row[:3]
        note = f" ({row[3]})" if len(row) > 3 else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    print(f"failed_fraction = {failed / attempted:.6g} ({failed} of {attempted} requests, "
          f"{len(probes)} of them reference probes)")
    if main_phase.polytopes_seen:
        repeats = main_phase.repeat_polytope / len(main_phase.latencies)
        print(f"requests on an already-seen polytope: {repeats:.3f}")
    for phase in phases:
        for problem in phase.problems[:20]:
            print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
