#!/usr/bin/env python3
"""The performance ledger: one command, five workloads, two kinds of run.

One workload, one process (what the benchmark driver calls)::

    python3 benchmarks/ledger/run.py --workload vgg_gist --seed 0 \\
        --seconds 10 --trace 0

prints every metric by name with its unit, checks the outputs, and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` makes the shorter traced pass for the per-layer metrics and writes the
spans to ``benchmarks/ledger/results/trace-<workload>.json``.

All five workloads, each in a fresh subprocess (what a developer calls)::

    python3 benchmarks/ledger/run.py [--seed N] [--runs R] [--out PATH] \\
        [--no-trace] [--smoke]

writes ``benchmarks/ledger/results/ledger.json`` for ``compare.py``.

Nothing under ``src/`` is touched: layers are timed from outside through
their public functions.  See ``README.md`` in this directory.
"""

from time import perf_counter

_PROCESS_START = perf_counter()  # setup_s counts from the first statement

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
RESULTS = HERE / "results"
for _path in (str(REPO / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import metrics  # noqa: E402
from attribution import Spans, null_span  # noqa: E402
from hostspeed import HostSpeedProbe, UnitTimer, reference_ms  # noqa: E402

#: A persisted autotune cache changes setup_s and the picks; the other two
#: pin kernel arms.  The ledger measures the defaults, so it refuses them.
FORBIDDEN_ENV = ("REPRO_KERNEL_PLANS", "REPRO_KERNEL_BACKEND",
                 "REPRO_KERNEL_AUTOTUNE_CACHE")
#: Recorded in the host stamp, never set.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
#: Cold builds per untraced run; setup_s reports the fastest.
SETUP_REPEATS = 3

EXIT_OK, EXIT_INCORRECT, EXIT_USAGE = 0, 1, 2


# ----------------------------------------------------------------------
# Host stamp
# ----------------------------------------------------------------------
def _git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_stamp(seed: int, seconds: float) -> dict:
    """Where and how a result was measured (recorded in every file)."""
    import numpy as np

    from repro.orchestrate.cores import usable_cores

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {})
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} "
                f"{blas.get('version', '')}".strip(),
        "cpu": _cpu_model(),
        "usable_cores": usable_cores(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "seed": seed,
        "scale_factor": seconds / metrics.RUN_SECONDS,
    }


# ----------------------------------------------------------------------
# One workload in this process
# ----------------------------------------------------------------------
def _measure(wl, n_ops, probe, spans=None):
    """Run ops closed-loop, every unit of them between two host-speed
    probe readings.  Returns (the timer, ops that raised)."""
    timer = UnitTimer(probe, spans)
    wl.unit = timer.unit
    failed = 0
    for i in range(n_ops):
        timer.op = i
        if spans is not None:
            spans.op = i
        try:
            wl.op(i)
        except Exception:  # an op failure is counted, not fatal
            traceback.print_exc()
            failed += 1
    wl.unit = null_span
    return timer, failed


def _run_checks(wl):
    try:
        return wl.check()
    except Exception as exc:  # a crashed check is a failed check
        traceback.print_exc()
        return [("checks-completed", False, repr(exc))]


def _cold_setup_s(wl, probe) -> float:
    """One cold build, in seconds at reference host speed."""
    before = probe.slowdown(samples=3)
    wall_s = wl.cold_setup()
    return wall_s / ((before + probe.slowdown(samples=3)) / 2.0)


def _untraced(wl, counts, import_s, smoke, probe):
    import_s /= probe.slowdown(samples=3)
    builds = [_cold_setup_s(wl, probe)
              for _ in range(1 if smoke else SETUP_REPEATS)]
    timer, failed = _measure(wl, counts["timed"], probe)
    values = {
        # The fastest build: a disturbance can only lengthen one.
        "setup_s": import_s + min(builds),
        "op_ms": reference_ms(timer.units),
        "footprint_mib": wl.footprint_mib(),
    }
    slowdown = statistics.median(u.slowdown for u in timer.units)
    print(f"host slowdown x{slowdown:.2f} (op_ms and setup_s are wall time "
          f"over it); plain median of the {counts['timed']} ops "
          f"{statistics.median(timer.op_wall_s()) * 1e3:.3f} ms wall")
    return values, counts["timed"], failed, _run_checks(wl)


def _traced(wl, counts, seed, seconds, probe):
    wl.cold_setup()
    untraced, failed = _measure(wl, counts["trace"], probe)
    spans = Spans()
    wl.begin_trace(spans)
    traced, failed_traced = _measure(wl, counts["trace"], probe, spans)
    wl.end_trace()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    values, checks = wl.layer_metrics(
        spans, [t * 1e3 for t in untraced.op_wall_s()])
    values["diagnostics.tracer.overhead_pct"] = 100.0 * (
        reference_ms(traced.units) / reference_ms(untraced.units) - 1.0)
    values["diagnostics.host_slowdown"] = statistics.median(
        u.slowdown for u in traced.units)
    values["diagnostics.peak_rss_mib"] = peak_rss_mib

    RESULTS.mkdir(exist_ok=True)
    trace_path = RESULTS / f"trace-{wl.spec.name}.json"
    trace_path.write_text(json.dumps({
        "host": host_stamp(seed, seconds),
        "workload": wl.spec.name,
        "spans": spans.to_json(),
        "events": wl.trace_events(),
    }) + "\n")
    print(f"trace: {len(spans.rows)} spans -> {trace_path}")
    return (values, 2 * counts["trace"], failed + failed_traced,
            checks + _run_checks(wl))


def run_single(args) -> int:
    spec = metrics.workload(args.workload)
    counts = metrics.op_counts(spec, args.seconds, args.smoke)
    try:
        import workloads
    except ImportError as exc:
        print(f"ledger: cannot import the program under test "
              f"(expected {REPO / 'src'}): {exc}", file=sys.stderr)
        return EXIT_USAGE
    import_s = perf_counter() - _PROCESS_START
    wl = workloads.make_workload(spec, args.seed, counts)
    probe = HostSpeedProbe()
    if args.trace:
        declared = {m.name: m.unit for m in metrics.PER_LAYER}
        values, ops, failed_ops, checks = _traced(
            wl, counts, args.seed, args.seconds, probe)
        # A workload that bypasses a layer reports 0 for it: that is the
        # predicted reading.
        values = {name: values.get(name, 0.0) for name in declared}
    else:
        declared = {m.name: m.unit for m in metrics.END_TO_END}
        values, ops, failed_ops, checks = _untraced(
            wl, counts, import_s, args.smoke, probe)

    print(f"workload {spec.name}  seed {args.seed}  trace {args.trace}  "
          f"ops {ops}")
    for name, unit in declared.items():
        if values[name] or not args.trace:
            print(f"  {name:<40} {values[name]:>14.4f} {unit}")
    for name, ok, detail in checks:
        print(f"  check {name:<34} {'ok' if ok else 'FAILED'}  {detail}")
    failed = failed_ops + sum(1 for _, ok, _ in checks if not ok)
    result = {
        "correct": failed == 0,
        "attempted": ops + len(checks),
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in declared.items()},
    }
    print(json.dumps(result), flush=True)
    return EXIT_OK if failed == 0 else EXIT_INCORRECT


# ----------------------------------------------------------------------
# All workloads, one fresh subprocess each
# ----------------------------------------------------------------------
def _child(workload: str, seed: int, seconds: float, trace: int,
           smoke: bool) -> dict:
    """Fresh process per run, so plan cache, autotune picks and ru_maxrss
    never leak between workloads."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    t0 = perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    wall_s = perf_counter() - t0
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    print("\n".join(lines if result is None else lines[:-1]))
    return {"workload": workload, "seed": seed, "trace": trace,
            "exit": proc.returncode, "wall_s": wall_s, "result": result}


def _value(run: dict, name: str) -> float:
    return run["result"]["metrics"][name]["value"]


def separation(traced: dict) -> dict:
    """Do the workloads separate the layers as designed?  Informational:
    these record the design at the commit that defined the benchmark and
    never fail a run (an optimisation is allowed to shrink a share)."""
    def get(workload, name):
        return _value(traced[workload], name)

    def codec_share(workload):
        codecs = sum(get(workload, f"encodings.{c}.{p}_ms")
                     for c in metrics.CODECS for p in ("encode", "decode"))
        step = sum(get(workload, f"train.{p}_ms")
                   for p in ("data", "forward", "backward", "optimizer"))
        return codecs / step

    directives = {w: get(w, "memory.recompute.replay_ms")
                  + get(w, "memory.shared_concat.slice_ms") for w in traced}
    plan_pass = sum(get("plan_suite", f"{stage}_ms")
                    for stage in metrics.PLAN_STAGES)
    legs = {leg: get("verify_fuzz", f"verify.{leg}_ms")
            for leg in ("fuzzer.gen", "graph", "encodings", "backends",
                        "distributed")}
    return {
        "codec share of vgg_gist step >= 15%":
            codec_share("vgg_gist") >= 0.15,
        "codec share of vgg_baseline step <= 1%":
            codec_share("vgg_baseline") <= 0.01,
        "recompute + shared-concat time only on densenet_hybrid":
            directives["densenet_hybrid"] > 0
            and all(v == 0 for w, v in directives.items()
                    if w != "densenet_hybrid"),
        "hybrid planner >= 50% of a plan_suite pass":
            get("plan_suite", "memory.hybrid.build_ms") >= 0.5 * plan_pass,
        "verify.graph is the largest verify_fuzz leg":
            max(legs, key=legs.get) == "graph",
    }


def run_suite(args) -> int:
    runs = []
    for w in metrics.WORKLOADS:
        for r in range(args.runs):
            runs.append(_child(w.name, args.seed + r, args.seconds, 0,
                               args.smoke))
        if not args.no_trace:
            runs.append(_child(w.name, args.seed, args.seconds, 1,
                               args.smoke))
    ok = all(run["exit"] == EXIT_OK and run["result"] is not None
             for run in runs)
    report = {"host": host_stamp(args.seed, args.seconds),
              "smoke": args.smoke, "runs": runs}

    if ok:
        from compare import spread

        print(f"\n{'workload':<16} {'metric':<14} {'median':>12} unit   "
              f"spread over {args.runs} run(s) (IQR/median; bound)")
        medians = {}
        for w in metrics.WORKLOADS:
            for m in metrics.END_TO_END:
                values = [_value(run, m.name) for run in runs
                          if run["workload"] == w.name and run["trace"] == 0]
                medians[w.name, m.name] = statistics.median(values)
                iqr = spread(values)
                print(f"{w.name:<16} {m.name:<14} "
                      f"{medians[w.name, m.name]:>12.4f} {m.unit:<6} "
                      f"{'n/a' if iqr is None else format(iqr, '.1%')} "
                      f"({m.bound:.0%})")
        p50 = {w.name: medians[w.name, "op_ms"] for w in metrics.WORKLOADS}
        overhead = 100.0 * (p50["vgg_gist"] / p50["vgg_baseline"] - 1.0)
        report["derived"] = {"train.gist_overhead_pct": overhead}
        print(f"\ntrain.gist_overhead_pct {overhead:.1f} %  (op_ms "
              f"vgg_gist {p50['vgg_gist']:.1f} ms / vgg_baseline "
              f"{p50['vgg_baseline']:.1f} ms - 1; base: vgg_baseline)")
        if not args.no_trace:
            traced = {run["workload"]: run for run in runs if run["trace"]}
            report["separation"] = separation(traced)
            for claim, holds in report["separation"].items():
                print(f"separation: {claim}: {'yes' if holds else 'NO'}")

    out = Path(args.out) if args.out else RESULTS / "ledger.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return EXIT_OK if ok else EXIT_INCORRECT


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=[w.name for w in metrics.WORKLOADS],
                        help="run this one workload in this process "
                             "(default: all five, a subprocess each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(metrics.RUN_SECONDS),
                        help="measuring time the op counts are sized for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 = traced per-layer pass")
    parser.add_argument("--runs", type=int, default=1,
                        help="suite: untraced runs per workload, seeds "
                             "--seed, --seed+1, ...")
    parser.add_argument("--no-trace", action="store_true",
                        help="suite: skip the traced passes")
    parser.add_argument("--out", help="suite: result file "
                        "(default benchmarks/ledger/results/ledger.json)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny op counts (test suite)")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.runs < 1:
        parser.error("--seconds must be positive and --runs at least 1")

    set_vars = [name for name in FORBIDDEN_ENV if name in os.environ]
    if set_vars:
        print(f"ledger: refusing to run with {', '.join(set_vars)} set: "
              "the ledger measures the default kernel dispatch",
              file=sys.stderr)
        return EXIT_USAGE
    return run_single(args) if args.workload else run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
