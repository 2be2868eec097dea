#!/usr/bin/env python3
"""Build the simulator benchmark and run it.

One workload, as the benchmark contract runs it (the last stdout line is
the JSON result):

    python3 perfbench/run.py --workload viz-guarantee --seed 1 --seconds 30 --trace 0

Every workload, repeated with interleaved ordering (A B C A B C ...), with
per-metric medians and quartiles:

    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --repeat 5

A/B against another checkout that holds the same perfbench/ directory,
alternating which side runs first in each round:

    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --repeat 10 \\
        --baseline ../parent-checkout

Run it from the root of a checkout with nothing else busy on the host:
each workload is a single-thread process, and a busy neighbour core slows
it by about a third (see perfbench/README.md).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ["viz-guarantee", "fabric-flow", "lb-faults"]

# End-to-end metrics: (name, unit), reported from the untraced run.
END_TO_END = [
    ("wall_s", "s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]

# Per-layer metrics: (name, unit, the end-to-end metric it should move).
PER_LAYER = [
    ("sim.events", "count", "wall_s everywhere"),
    ("sim.ns_per_event", "ns", "job_ms_p50 on viz-guarantee"),
    ("sim.start_ms", "ms", "setup_s on fabric-flow"),
    ("sim.drop_ms", "ms", "job_ms_p90 on fabric-flow"),
    ("net.build_ms", "ms", "setup_s"),
    ("net.engine.self_ms", "ms", "job_ms_p90, wall_s on viz-guarantee"),
    ("net.engine.events", "count", "job_ms_p90, wall_s on viz-guarantee"),
    ("net.frames_tx", "count", "wall_s on viz-guarantee"),
    ("net.rx_interrupts", "count", "wall_s on viz-guarantee"),
    ("net.credit_stall_ms", "ms", "model output (simulated time)"),
    ("net.delivered_frac", "ratio", "model output"),
    ("net.fluid.self_ms", "ms", "wall_s, job_ms_p50 on fabric-flow"),
    ("net.fluid.events", "count", "wall_s, job_ms_p50 on fabric-flow"),
    ("net.fluid.ns_per_event", "ns", "wall_s, job_ms_p50 on fabric-flow"),
    ("net.fluid.alloc_us", "us", "job_ms_p50 on fabric-flow"),
    ("core.fig4_err_pct", "%", "accuracy; a speed-only change leaves it"),
    ("dc.self_ms", "ms", "job_ms_p50 on viz-guarantee, wall_s on lb-faults"),
    ("dc.events", "count", "job_ms_p50 on viz-guarantee, wall_s on lb-faults"),
    ("dc.buffers", "count", "wall_s on lb-faults"),
    ("dc.queue_wait_us", "us", "model output (simulated time)"),
    ("dc.retries", "count", "wall_s, peak_rss_mb on lb-faults"),
    ("dc.failovers", "count", "wall_s, peak_rss_mb on lb-faults"),
    ("dc.stream_errors", "count", "wall_s on lb-faults"),
    ("dc.stale", "count", "wall_s on lb-faults"),
    ("dc.availability", "ratio", "model output (useful over attempted)"),
    ("dc.sched_ns", "ns", "job_ms_p50 on lb-faults"),
    ("dc.sched_ns.rr", "ns", "job_ms_p50 on lb-faults"),
    ("dc.sched_ns.dd", "ns", "job_ms_p50 on lb-faults"),
    ("viz.self_ms", "ms", "job_ms_p50 on viz-guarantee"),
    ("viz.outstanding", "count", "anything but 0 is a failed job"),
    ("viz.partial_us_mean", "us", "model output (simulated time)"),
    ("viz.sustained_frac", "ratio", "model output"),
    ("bench.load.self_ms", "ms", "the load generator, not the program"),
    ("trace.overhead_pct", "%", "traced against untraced wall_s"),
    ("trace.attributed_pct", "%", "share of traced host time in named layers"),
    ("host.raw_wall_s", "s", "wall_s before normalising to the reference host"),
    ("host.ref_ms", "ms", "median host-speed sample; the host, not the program"),
]

HERE = os.path.dirname(os.path.abspath(__file__))
PROCESS_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(bench_dir):
    """Build the benchmark binary of the checkout holding `bench_dir`."""
    if bench_dir == HERE:
        target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(bench_dir, "target")
    else:
        # A baseline checkout builds into its own directory.
        target = os.path.join(bench_dir, "target")
    target = os.path.abspath(target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(bench_dir, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: build failed ({' '.join(cmd)})")
    binary = os.path.join(target, "release", "hpsock-perfbench")
    if not os.path.isfile(binary):
        raise SystemExit(f"perfbench: no binary at {binary}")
    return binary


def run_process(binary, workload, seed, seconds, mode):
    """One workload process; returns its parsed JSON result."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          timeout=PROCESS_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: {' '.join(cmd)} exited with {done.returncode}")
    return json.loads(lines[-1])


def measure(binary, workload, seed, seconds, traced):
    """The untraced run, and with `traced` the traced run after it."""
    plain = run_process(binary, workload, seed, seconds, "plain")
    traced_out = run_process(binary, workload, seed, seconds, "traced") if traced else None
    return plain, traced_out


def result(plain, traced):
    """The contract's result object for one workload run."""
    runs = [plain] + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    # A probe is observational: the traced pass must dispatch exactly what
    # the untraced one did.
    if traced and traced["digest_fold"] != plain["digest_fold"]:
        failed += 1
    if traced is None:
        names = END_TO_END
        values = plain["metrics"]
    else:
        names = [(n, u) for n, u, _ in PER_LAYER]
        values = dict(plain["metrics"])
        # Timings come from the untraced run; the traced one adds its own.
        values.update({k: v for k, v in traced["metrics"].items()
                       if k not in plain["metrics"]})
        values["trace.overhead_pct"] = 100.0 * (
            traced["metrics"]["trace.wall_s"] / plain["metrics"]["wall_s"] - 1.0)
    metrics = {n: {"value": float(values.get(n, 0.0)), "unit": u} for n, u in names}
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def report(plain, traced):
    """Human-readable tables, printed before the result line."""
    w = plain["workload"]
    print(f"== {w} (seed {plain['seed']}): {plain['jobs']} jobs, "
          f"{plain['failed']}/{plain['attempted']} failed")
    print(f"   {'shape':<44} {'jobs':>5} {'median ms':>10} {'events':>9}")
    for label, n, ms, events in plain["shapes"]:
        print(f"   {label:<44} {n:>5} {ms:>10.2f} {events:>9}")
    m = plain["metrics"]
    for name, unit in END_TO_END:
        note = ""
        if name.startswith("job_ms"):
            note = f"  (nearest rank over {plain['jobs']} jobs; {plain['beyond_p90']} beyond p90)"
        print(f"   {name:<14} {m[name]:>12.4f} {unit}{note}")
    print(f"   (host times normalised to a {m['host.ref_ms']:.4f} ms reference sample "
          f"-> 1 ms; raw wall_s {m['host.raw_wall_s']:.4f} s)")
    for e in plain["errors"]:
        print(f"   ERROR {e}")
    if traced is None:
        return
    total = sum(ms for _, ms, _ in traced["table_ms"]) or 1.0
    print(f"   traced host time by layer ({traced['failed']}/{traced['attempted']} failed):")
    print(f"   {'layer':<26} {'self ms':>10} {'share':>7} {'dispatches':>11}")
    for name, ms, events in traced["table_ms"]:
        print(f"   {name:<26} {ms:>10.1f} {100 * ms / total:>6.1f}% {int(events):>11}")
    for e in traced["errors"]:
        print(f"   ERROR {e}")
    res = result(plain, traced)
    print(f"   {'per-layer metric':<24} {'value':>16} {'unit':<6} moves")
    for name, unit, moves in PER_LAYER:
        print(f"   {name:<24} {res['metrics'][name]['value']:>16.4f} {unit:<6} {moves}")


def spread(values):
    """(median, q1, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def repeat(args, workloads):
    """Interleaved repeated runs: every round runs every workload once
    (A B C A B C ...), and with a baseline both trees alternate which
    goes first, so minute-scale host drift lands on both sides alike."""
    mine = build(HERE)
    sides = [("this", mine)]
    if args.baseline:
        base_dir = os.path.join(os.path.abspath(args.baseline), "perfbench")
        sides.append(("baseline", build(base_dir)))
    seen = {(s, w): [] for s, _ in sides for w in workloads}
    for r in range(args.repeat):
        seed = args.seed + r
        order = sides if r % 2 == 0 else sides[::-1]
        for w in workloads:
            for side, binary in order:
                plain, _ = measure(binary, w, seed, args.seconds, False)
                seen[(side, w)].append(plain)
                m = plain["metrics"]
                log(f"round {r + 1}/{args.repeat} {side:<8} {w:<14} seed {seed}: "
                    + " ".join(f"{n}={m[n]:.4g}" for n, _ in END_TO_END)
                    + f" raw_wall_s={m['host.raw_wall_s']:.4g} ref_ms={m['host.ref_ms']:.4g}"
                    + f" failed={plain['failed']}/{plain['attempted']}")
    for w in workloads:
        runs = seen[("this", w)]
        print(f"== {w}: {len(runs)} runs, {runs[0]['jobs']} jobs each "
              f"({runs[0]['beyond_p90']} beyond p90), failed "
              f"{sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}")
        head = f"   {'metric':<16} {'unit':<4} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8}"
        if args.baseline:
            head += f" {'base median':>12} {'change':>8} {'wins':>6}"
        print(head)
        # The raw pass time shows how much of the spread the host added.
        for name, unit in END_TO_END + [("host.raw_wall_s", "s")]:
            vals = [r["metrics"][name] for r in runs]
            med, q1, q3 = spread(vals)
            line = (f"   {name:<16} {unit:<4} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                    f"{(q3 - q1) / med:>8.4f}")
            if args.baseline:
                base = [r["metrics"][name] for r in seen[("baseline", w)]]
                bmed = statistics.median(base)
                wins = sum(a < b for a, b in zip(vals, base))
                line += f" {bmed:>12.4f} {100 * (med / bmed - 1):>7.2f}% {wins:>3}/{len(vals)}"
            print(line)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int, default=1,
                    help="rounds of interleaved runs (seeds seed, seed+1, ...)")
    ap.add_argument("--baseline", help="another checkout to alternate with")
    args = ap.parse_args()
    if args.seconds < 1 or args.repeat < 1:
        raise SystemExit("perfbench: --seconds and --repeat must be at least 1")

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    if args.repeat > 1 or args.baseline:
        repeat(args, workloads)
        return
    binary = build(HERE)
    for w in workloads:
        plain, traced = measure(binary, w, args.seed, args.seconds, args.trace == 1)
        report(plain, traced)
    if args.workload != "all":
        print(json.dumps(result(plain, traced)))


if __name__ == "__main__":
    main()
