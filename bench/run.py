#!/usr/bin/env python3
"""cylgauge benchmark: one workload per run, or all three in turn.

    python3 bench/run.py --workload mc-refinement --seed 1 --seconds 35 --trace 0

Runs whole passes over the workload's fixed operation list until the next
pass would end after `--seconds`, checking every output against closed
forms.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  `--workload all` runs
each workload in its own process and prints their results by name.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import MODULES, Tracer, summarize

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORKLOAD_NAMES = ("mc-refinement", "element-quadrature", "cli-readme")
SETUP_REPEATS = 9
TARGET_SE = 1e-3  # time_to_accuracy_s projects the time to this standard error

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "samples_per_s": "samples/s",
    "time_to_accuracy_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer throughputs: trace work key -> (metric name, unit)
RATES = {
    **{
        f"lattice.holonomy_traces.{kind}.N{n}": (f"lattice.holonomy_traces.{kind}.N{n}.links_per_s", "links/s")
        for kind, sites in (("real", (64, 32, 16)), ("complex", (64, 32)))
        for n in sites
    },
    "lattice.sample_complex_batch": ("lattice.sample_complex_batch.values_per_s", "values/s"),
    "spectral.su2_characters_from_traces": ("spectral.su2_characters_from_traces.traces_per_s", "traces/s"),
    "reduction.pushforward_refinement": ("reduction.pushforward_refinement.samples_per_s", "samples/s"),
    "reduction.gram_matrix_refinement": ("reduction.gram_matrix_refinement.samples_per_s", "samples/s"),
    "groups.mul_su2": ("groups.mul_su2.ops_per_s", "ops/s"),
    "groups.mul_u1": ("groups.mul_u1.ops_per_s", "ops/s"),
    "groups.exp_map": ("groups.exp_map.calls_per_s", "calls/s"),
    "groups.polar_decompose": ("groups.polar_decompose.calls_per_s", "calls/s"),
    "groups.haar_integrate": ("groups.haar_integrate.nodes_per_s", "nodes/s"),
    "spectral.heat_kernel": ("spectral.heat_kernel.calls_per_s", "calls/s"),
    "lattice.gauge_transform": ("lattice.gauge_transform.calls_per_s", "calls/s"),
    "coherent.coherent_overlap": ("coherent.coherent_overlap.calls_per_s", "calls/s"),
}
CLI_COMMANDS = (
    "pushforward", "gram", "laplacian-check", "semigroup-check", "euclid-unitarity",
    "coherent-overlap", "geodesic", "radial-laplacian", "submersion-check",
    "heat-kernel-check", "casimir-check", "polar-check", "gauge-check",
)


def per_layer_units():
    """Every per-layer metric with its unit, in a fixed order."""
    units = {}
    for m in MODULES:
        units[f"{m}.self_s"] = "s"
        units[f"{m}.calls"] = "count"
    units.update(dict(RATES.values()))
    units["montecarlo.chunks"] = "count"
    for c in CLI_COMMANDS:
        units[f"cli.{c}.s"] = "s"
    units["trace.spans"] = "count"
    units["trace.overhead_s"] = "s"
    return units


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and args.setup_probe is None:
        parser.error("--workload is required")
    return args


def setup_probe(workload):
    """Child process: seconds to import cylgauge and finish the warm-up."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    workloads.warm_up(workload)
    print(time.perf_counter() - start)


def measure_setup(workload):
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload],
            check=True, capture_output=True, text=True, timeout=120,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_passes(workload, seed, seconds, tracer):
    """Untraced passes, or alternating untraced and traced ones with a
    tracer; each mode starts another pass only while it fits in `seconds`."""
    import workloads

    fn = workloads.WORKLOADS[workload][0]
    modes = (False, True) if tracer else (False,)
    done = {mode: [] for mode in modes}
    no_span = lambda name: contextlib.nullcontext()  # noqa: E731
    start = time.perf_counter()
    for i in itertools.count():
        traced = modes[i % len(modes)]
        if i >= len(modes) and time.perf_counter() - start + done[traced][-1][0] > seconds:
            break
        p = workloads.Pass()
        if traced:
            tracer.install()
        try:
            t0 = time.perf_counter()
            fn(seed, p, tracer.span if traced else no_span)
            wall = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        done[traced].append((wall, p))
    return done


def end_to_end(passes, setup_s):
    # the median of each operation over the passes, summed: host contention
    # that slows part of one pass moves this less than the median pass does
    ops = passes[0][1].op_s
    return {
        "setup_s": setup_s,
        "wall_s": sum(statistics.median(p.op_s[op] for _, p in passes) for op in ops),
        "samples_per_s": statistics.median(p.samples / p.estimator_s for _, p in passes),
        "time_to_accuracy_s": statistics.median(
            p.reference_s * (p.reference_se / TARGET_SE) ** 2 for _, p in passes
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, untraced, traced):
    n = len(traced)
    self_s, calls, work, busy = summarize(tracer.spans)
    values = {}
    for m in MODULES:
        values[f"{m}.self_s"] = self_s[m] / n
        values[f"{m}.calls"] = calls[m] / n
    for key, (name, _) in RATES.items():
        values[name] = work[key] / busy[key] if busy[key] > 0 else 0.0
    values["montecarlo.chunks"] = work["montecarlo.chunks"] / n
    for c in CLI_COMMANDS:
        values[f"cli.{c}.s"] = busy[f"cli.{c}"] / n
    values["trace.spans"] = len(tracer.spans) / n
    values["trace.overhead_s"] = statistics.median(w for w, _ in traced) - statistics.median(
        w for w, _ in untraced
    )
    return values


def run_one(args):
    if not (SRC / "cylgauge" / "__init__.py").is_file():
        sys.stderr.write(f"cylgauge sources not found under {SRC}\n")
        return 2
    os.environ.pop("CYLGAUGE_SEED", None)  # commands without --seed use seed 0
    setup_s = None if args.trace else measure_setup(args.workload)

    sys.path.insert(0, str(SRC))
    import workloads

    workloads.warm_up(args.workload)
    tracer = Tracer() if args.trace else None
    done = run_passes(args.workload, args.seed, args.seconds, tracer)
    passes = [p for runs in done.values() for _, p in runs]
    if args.trace:
        values = per_layer(tracer, done[False], done[True])
        units = per_layer_units()
        workloads.OUT_DIR.mkdir(exist_ok=True)
        tracer.write(workloads.OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
    else:
        values = end_to_end(done[False], setup_s)
        units = END_TO_END_UNITS

    problems = [m for p in passes for m in p.errors + p.mismatches]
    for message in dict.fromkeys(problems):
        sys.stderr.write(f"{args.workload}: {message}\n")
    result = {
        "correct": not any(p.mismatches for p in passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(f"{args.workload}: {len(passes)} passes, attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, so peak memory and set-up stay apart."""
    results = {}
    for workload in WORKLOAD_NAMES:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            return out.returncode
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
