"""Closed-loop benchmark of the adelic library and its CLI.

    python3 perfbench/run.py --workload exact-small --seed 42 --seconds 20 --trace 0

One client issues one library call (or starts one CLI process) at a time and
sends the next only when the previous has returned.  Inputs are generated
from the seed before timing; every answer is checked against a known answer,
and for seed 42 also against golden digests captured from the seed code.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json.  Every
time in them is scaled to a nominal machine speed by reference work timed
between operations (calibrate.py); the raw figures go to the report.  A library
workload's seconds are split over WORKERS fresh worker interpreters, run one
after another, each starting at a different point of the input pool; their
operation times are pooled.  A Python process's speed depends on its memory
layout and hash seed, so several processes per run steady the figures.  On
cli-cold this process is the client, every operation is a fresh process, and
a run times whole cycles of the documented commands (CliCold.timed_count).

--trace 1 runs a fixed operation sequence twice in this process, in blocks
that alternate between untraced and with spans around the library's layer
functions, and prints the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  A fuller report (environment, error and deadline-miss rates, tail
percentile, first errors) goes to perfbench/out/, and the spans of a traced
run too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from collections import Counter
from importlib import metadata
from pathlib import Path

import calibrate
import cli_child
import harness
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: worker interpreters per library run, and set-ups per run (setup_s is their median)
WORKERS = 5
#: import-time probes per traced run; the import metrics are their medians
IMPORT_REPEATS = 3
#: blocks a traced library run alternates between untraced and traced
TRACE_BLOCKS = 10


def environment() -> dict:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "loadavg_at_start": os.getloadavg(),
    }


def run_worker(workload: str, seed: int, seconds: float, part: int = 0,
               importtime: bool = False) -> tuple[dict, str]:
    """One worker interpreter (worker.py): its JSON result, and its stderr."""
    argv = [sys.executable, *(["-X", "importtime"] if importtime else []),
            str(HERE / "worker.py"), workload, str(seed), str(seconds), str(part), str(WORKERS)]
    result = workloads.run_child(argv, timeout=seconds + 120.0)
    if result.returncode != 0:
        raise RuntimeError(f"worker failed: {result.stderr.decode()[-2000:]}")
    return json.loads(result.stdout), result.stderr.decode()


def import_ms(stderr: str) -> dict[str, float]:
    """Import time of adelic, scipy and numpy from ``-X importtime`` output.

    Each is the cumulative time of the outermost imports of that package, so
    scipy's time includes the numpy it imports, and adelic's includes both.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2]
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((depth, name.strip(), int(parts[1])))
    totals = {"adelic": 0.0, "scipy": 0.0, "numpy": 0.0}
    stack: list[tuple[int, str]] = []
    # the output is in post-order; reversed, every import precedes its children
    for depth, name, cumulative_us in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        package = name.split(".")[0]
        if package in totals and all(p.split(".")[0] != package for _, p in stack):
            totals[package] += cumulative_us / 1e3
        stack.append((depth, name))
    return totals


def timed_run(wl, seed: int, seconds: float) -> dict:
    if wl.name == "cli-cold":
        setup_probes = [run_worker(wl.name, seed, 0)[0] for _ in range(WORKERS)]
        entries = wl.inputs(None, seed)
        # one reference start before each invocation; the window reaches the ones on either side
        cal = calibrate.Calibrator(calibrate.cold_start, calibrate.COLD_NOMINAL_S, warmup=1,
                                   window=0.5)
        m = harness.measure(wl, None, entries, count=wl.timed_count(seconds), goldens=wl.goldens(seed),
                            calibrator=cal)
        raw, durations, completed, rss_kb = m.durations, m.scaled, m.completed, m.child_rss_kb
        speeds = [cal.speed()]
        missed = [str(entries[i].args) for i in m.missed]
        errors = [msg for _, msg in m.errors]
        failed = sum(m.error_attempts.values())
    else:
        parts = [run_worker(wl.name, seed, seconds / WORKERS, k)[0] for k in range(WORKERS)]
        setup_probes = parts
        raw = [d for p in parts for d in p["durations"]]
        durations = [d for p in parts for d in p["scaled"]]
        speeds = [p["speed"] for p in parts]
        completed = sum(p["completed"] for p in parts)
        rss_kb = max(p["peak_rss_kb"] for p in parts)
        missed = [a for p in parts for a in p["missed"]]
        errors = [msg for p in parts for _, msg in p["errors"]]
        attempts, error_attempts = Counter(), Counter()
        for p in parts:
            attempts.update(dict(p["attempts"]))
            error_attempts.update(dict(p["error_attempts"]))
        reference = {}
        if wl.name == "numeric":
            # after timing: zeta and gamma against mpmath at every point used
            lib = wl.setup()
            reference = workloads.reference_errors(lib, wl.inputs(lib, seed), sorted(attempts))
            errors += list(reference.values())
        failed = sum(attempts[i] if i in reference else error_attempts[i] for i in attempts)

    setups = [p["setup_s"] for p in setup_probes]
    attempted = len(durations)
    tail_s, tail_pct, beyond = harness.tail(durations)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": completed / sum(durations),
        "op_ms.p50": statistics.median(durations) * 1e3,
        "op_ms.tail": tail_s * 1e3,
        "peak_rss_mb": rss_kb / 1024,
    }
    deadline_bound = attempted if wl.deadline else 0
    details = {
        "machine_speed": statistics.median(speeds),
        "raw.setup_s": statistics.median(p["setup_raw_s"] for p in setup_probes),
        "raw.ops_per_s": completed / sum(raw),
        "raw.op_ms.p50": statistics.median(raw) * 1e3,
        "raw.op_ms.tail": harness.tail(raw)[0] * 1e3,
        "setup_samples_s": setups,
        "op_ms.tail_percentile": tail_pct,
        "op_ms.tail_beyond": beyond,
        "samples": attempted,
        "operation_time_s": sum(raw),
        "error_rate": failed / attempted,
        "deadline_bound": deadline_bound,
        "deadline_missed": len(missed),
        "deadline_miss_rate": len(missed) / deadline_bound if deadline_bound else None,
        "missed_inputs": sorted(set(missed)),
        "golden_checked": wl.goldens(seed) is not None,
        "errors": errors[:40],
    }
    return {"attempted": attempted, "failed": failed, "values": values, "details": details}


def alternating(run_plain, run_traced, total: int, blocks: int):
    """Operations 0..total-1 in blocks, each block untraced and then traced.

    Alternating in short blocks lets a change in machine speed hit both
    sides alike, so their throughput ratio is the cost of the tracing.
    """
    plain, traced = harness.Measurement(), harness.Measurement()
    step = -(-total // blocks)
    for start in range(0, total, step):
        count = min(step, total - start)
        plain.extend(run_plain(start, count))
        traced.extend(run_traced(start, count))
    return plain, traced


def traced_run(wl, seed: int) -> dict:
    """Per-layer metrics from a fixed operation sequence, untraced and traced."""
    lib = wl.setup()
    entries = wl.inputs(lib, seed)
    goldens = wl.goldens(seed)
    if wl.name == "cli-cold":
        plain, traced = alternating(
            lambda start, count: cli_block(wl, entries, goldens, start, count, trace=False),
            lambda start, count: cli_block(wl, entries, goldens, start, count, trace=True),
            wl.trace_ops, blocks=wl.trace_ops,
        )
        traces, imports = cli_traces(traced)
    else:
        t = tracer.Tracer()

        def run_traced(start, count):
            t.install()
            try:
                return harness.measure(wl, lib, entries, count=count, start=start,
                                       goldens=goldens, trace=t, keep=True)
            finally:
                t.uninstall()

        plain, traced = alternating(
            lambda start, count: harness.measure(wl, lib, entries, count=count, start=start,
                                                 goldens=goldens),
            run_traced, wl.trace_ops, blocks=TRACE_BLOCKS,
        )
        traces = [t.export()]
        imports = [
            import_ms(run_worker(wl.name, seed, 0, importtime=True)[1])
            for _ in range(IMPORT_REPEATS)
        ]
    OUT.mkdir(exist_ok=True)
    spans = tracer.write_spans(OUT / f"spans-{wl.name}-seed{seed}.txt", traces)

    stats = tracer.layer_stats(traces)
    values = {}
    for name, s in stats.items():
        for key in ("calls", "self_ms", "distinct_ratio", "max_bits"):
            if key in s:
                values[f"{name}.{key}"] = s[key]
    exact = [
        o for o in traced.outcomes
        if hasattr(o, "family") and lib.registry.family(o.family).exact
    ]
    values["verifier.verify.places_per_op"] = (
        sum(len(o.factors) for o in exact) / len(exact) if exact else 0.0
    )
    for package in ("adelic", "scipy", "numpy"):
        values[f"import.{package}_ms"] = statistics.median(i[package] for i in imports)
    # deadline misses last as long as the deadline, traced or not: left out of both sides
    values["trace.overhead_ratio"] = (
        (plain.completed / plain.completed_s) / (traced.completed / traced.completed_s)
    )

    busy_ms = sum(traced.durations) * 1e3
    layers = Counter()
    for name, s in stats.items():
        layers[name.split(".")[0]] += s["self_ms"]
    attempted = len(plain.durations) + len(traced.durations)
    failed = len(plain.errors) + len(traced.errors)
    details = {
        "operations": wl.trace_ops,
        "spans": spans,
        "traced_busy_ms": busy_ms,
        "self_share_by_layer": {k: v / busy_ms for k, v in sorted(layers.items())},
        "factorize_self_share": stats["rational.factorize"]["self_ms"] / busy_ms,
        "errors": [msg for _, msg in (plain.errors + traced.errors)[:20]],
    }
    return {"attempted": attempted, "failed": failed, "values": values, "details": details}


def cli_block(wl, entries, goldens, start: int, count: int, trace: bool):
    """CLI commands start..start+count-1, each through cli_child.py under -X importtime.

    With trace false the child runs the command without the tracer: the
    baseline of the tracing overhead, the same program otherwise.
    """
    flags = [] if trace else [cli_child.PLAIN]

    def call(lib, entry):
        argv = [sys.executable, "-X", "importtime", str(HERE / "cli_child.py"), *flags, *entry.args]
        return workloads.run_child(argv, timeout=30.0)

    return harness.measure(wl, None, entries, count=count, start=start, goldens=goldens,
                           keep=True, call=call)


def cli_traces(m):
    """The spans and the import times each traced CLI child wrote to its stderr."""
    traces, imports = [], []
    for index, result in enumerate(m.outcomes):
        stderr = result.stderr.decode()
        imports.append(import_ms(stderr))
        for line in stderr.splitlines():
            if line.startswith(cli_child.SPANS_PREFIX):
                trace = json.loads(line[len(cli_child.SPANS_PREFIX):])
                trace["op"] = [index] * len(trace["op"])
                traces.append(trace)
    return traces, imports


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "adelic" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src' / 'adelic'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # one CPU for this process and every child, so that the reference kernel
    # runs where the timed work runs; the closed loop never keeps two busy
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = environment()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = workloads.WORKLOADS[args.workload]
    if args.trace:
        result = traced_run(wl, args.seed)
        declared = spec["per_layer"]
    else:
        result = timed_run(wl, args.seed, args.seconds)
        declared = spec["end_to_end"]
    metrics = {
        m["name"]: {"value": result["values"][m["name"]], "unit": m["unit"]} for m in declared
    }
    report = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "metrics": metrics, "details": result["details"],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1)
    )

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"python {env['python']}  nproc {env['nproc']}  numpy {env['numpy']}  "
          f"scipy {env['scipy']}  loadavg {' '.join(f'{x:.2f}' for x in env['loadavg_at_start'])}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    for name, value in result["details"].items():
        if name != "errors" and not isinstance(value, list):
            print(f"  {name:40s} {value}")
    if not args.trace and wl.name == "cli-cold":
        details = result["details"]
        print(f"  {'cli_ms.p50':40s} {metrics['op_ms.p50']['value']:14.6g} ms")
        print(f"  {'cli_ms.tail':40s} {metrics['op_ms.tail']['value']:14.6g} ms  "
              f"(p{details['op_ms.tail_percentile']:.1f} of {details['samples']}, "
              f"{details['op_ms.tail_beyond']} beyond)")
    for error in result["details"]["errors"]:
        print(f"  ERROR {error}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
