"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``models`` — list available model names.
* ``summary MODEL`` — ops/params/FLOPs and the graph's layer listing.
* ``mfr MODEL`` — baseline vs Gist footprint (the paper's headline metric).
* ``breakdown MODEL`` — Figure 1/3-style memory breakdown.
* ``overhead MODEL`` — Gist and swapping performance overheads.
* ``train`` — a one-minute scaled training demo across stash policies.
* ``trace`` — traced golden-recipe run: per-step timing/compression
  table, optional invariant checking, golden save/compare.
* ``fuzz`` — differential fuzzing: random graphs through the
  allocator/plan/encoding oracles; exit 1 with a minimized repro on the
  first violation.
* ``plan`` — hybrid memory planner: per-tensor encode/recompute/swap
  decision table plus footprints of every strategy arm.
* ``sweep`` — figure drivers across the model suite as parallel units.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis import format_table
from repro.core import CONFIG_ARMS, Gist, GistConfig, stash_bytes_by_class
from repro.memory import GiB, MiB, build_memory_plan
from repro.models import available_models, build_model
from repro.orchestrate import RunJournal
from repro.train.stash import POLICY_NAMES


def _add_model_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("model", choices=available_models(),
                        help="network to analyse")
    parser.add_argument("--batch-size", type=int, default=64,
                        help="minibatch size (default: 64, the paper's)")


def _add_orchestration_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes; seeds/units are sharded "
                             "deterministically, so any count produces "
                             "byte-identical output (default: 1)")
    parser.add_argument("--journal", metavar="PATH", default=None,
                        help="JSONL run journal; finished units stream to "
                             "it and a re-invocation resumes from it, "
                             "re-running only incomplete units; prints "
                             "'journal hits: N', the units replayed")
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-unit timeout in seconds (needs "
                             "--workers >= 2; a timed-out unit is retried "
                             "then recorded as failed)")


def _print_journal_hits(journal: Optional[RunJournal]) -> None:
    if journal is not None:
        print(f"journal hits: {journal.hits}")


def cmd_models(args: argparse.Namespace) -> int:
    for name in available_models():
        print(name)
    return 0


def cmd_summary(args: argparse.Namespace) -> int:
    graph = build_model(args.model, batch_size=args.batch_size)
    print(graph.summary())
    print(f"\nforward FLOPs: {graph.total_forward_flops() / 1e9:.1f} G")
    return 0


def cmd_mfr(args: argparse.Namespace) -> int:
    graph = build_model(args.model, batch_size=args.batch_size)
    gist = Gist(GistConfig.from_name(args.config, args.model))
    report = gist.measure_mfr(graph, dynamic=args.dynamic)
    print(report)
    plan = gist.apply(graph)
    if args.timeline:
        from repro.analysis import memory_timeline

        baseline_plan = build_memory_plan(graph)
        print(f"\nbaseline: {memory_timeline(baseline_plan.tensors)}")
        print(f"gist:     {memory_timeline(plan.plan.tensors)}\n")
    rows = [
        [d.node_name, d.stash_class, d.encoding,
         d.fp32_bytes / MiB, d.resident_bytes / MiB]
        for d in plan.decisions.values()
    ]
    print(format_table(
        ["feature map", "class", "encoding", "FP32 MiB", "encoded MiB"],
        rows,
    ))
    return 0


def cmd_breakdown(args: argparse.Namespace) -> int:
    graph = build_model(args.model, batch_size=args.batch_size)
    plan = build_memory_plan(graph, include_weights=True,
                             include_workspace=True)
    rows = [
        [cls, nbytes / GiB]
        for cls, nbytes in plan.bytes_by_class().items()
        if nbytes
    ]
    print(format_table(["data structure", "GiB"], rows,
                       title=f"{args.model} @ minibatch {args.batch_size}"))
    stash = stash_bytes_by_class(graph)
    total = sum(stash.values())
    print("\nstashed feature maps by class:")
    for cls, nbytes in stash.items():
        print(f"  {cls:<10} {nbytes / GiB:6.2f} GiB ({nbytes / total:5.1%})")
    return 0


def cmd_overhead(args: argparse.Namespace) -> int:
    from repro.perf import measure_overhead, simulate_swapping

    graph = build_model(args.model, batch_size=args.batch_size)
    gist = measure_overhead(
        graph, GistConfig.from_name(args.config, args.model))
    swap = simulate_swapping(graph)
    print(f"baseline step:  {gist.baseline_s * 1000:8.1f} ms")
    print(f"gist overhead:  {gist.overhead_frac:+8.1%}")
    print(f"vdnn overhead:  {swap.vdnn_overhead:+8.1%}")
    print(f"naive swapping: {swap.naive_overhead:+8.1%}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    from repro.experiments import scaled_study

    _, result = scaled_study(args.policy, args.epochs)
    for epoch, (loss, acc) in enumerate(
        zip(result.epoch_losses, result.test_accuracy), start=1
    ):
        print(f"epoch {epoch}: loss={loss:.3f} accuracy={acc:.1%}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.diagnostics import StepTracer, run_traced

    tracer = StepTracer()
    digest = run_traced(
        args.model,
        args.policy,
        steps=args.steps,
        seed=args.seed,
        tracer=tracer,
        check_invariants=args.check_invariants,
    )
    print(tracer.summary())
    if args.check_invariants:
        print("\ninvariants: round-trip, liveness and aliasing checks clean")
    if args.save_golden:
        digest.save_golden(args.save_golden)
        print(f"\ngolden saved to {args.save_golden}")
    if args.compare_golden:
        comparison = digest.compare_golden(args.compare_golden)
        if comparison:
            print(f"\ngolden match: {args.compare_golden}")
        else:
            print(f"\ngolden MISMATCH vs {args.compare_golden}:")
            for line in comparison.mismatches:
                print(f"  {line}")
            return 1
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.verify import run_fuzz

    journal = RunJournal(args.journal) if args.journal else None
    report = run_fuzz(
        args.seeds,
        start_seed=args.start_seed,
        max_ops=args.max_ops,
        stop_on_first=not args.keep_going,
        strict=args.strict,
        workers=args.workers,
        journal=journal,
        timeout_s=args.timeout,
        rewrite_shapes=args.rewrite_shapes,
        recurrent_shapes=args.recurrent_shapes,
    )
    print(f"seeds run:       {report.seeds_run}")
    print(f"graphs verified: {report.graphs_verified}")
    _print_journal_hits(journal)
    for failure in report.failed_units:
        error = failure["error"]
        print(f"  FAILED {failure['key']} ({error['type']}: "
              f"{error['message']}) payload={failure['payload']}")
    if report.ok:
        print("violations:      none")
        return 0
    print(f"violations:      {len(report.violations)}")
    for v in report.violations:
        subject = f" [{v.subject}]" if v.subject else ""
        print(f"  {v.oracle} (seed {v.seed}){subject}: {v.detail}")
    if report.minimized is not None:
        seed = report.violations[0].seed
        replay = f"repro fuzz --seeds 1 --start-seed {seed}"
        if args.strict:
            replay += " --strict"
        if args.rewrite_shapes:
            replay += " --rewrite-shapes"
        if args.recurrent_shapes:
            replay += " --recurrent-shapes"
        print(f"\nminimized repro ({len(report.minimized.nodes)} nodes, "
              f"replay with: {replay}):")
        print(report.minimized.summary())
    return 1


def cmd_plan(args: argparse.Namespace) -> int:
    from repro.core.policy import HybridPolicy, STRATEGY_HYBRID
    from repro.memory.hybrid import build_hybrid_plan

    graph = build_model(args.model, batch_size=args.batch_size)
    gist = GistConfig.from_name(args.config, args.model)
    policy = HybridPolicy(strategy=args.strategy,
                          cost_budget_frac=args.budget, gist=gist)
    hybrid = build_hybrid_plan(graph, policy)

    rows = []
    for d in hybrid.decisions.values():
        what = d.choice if d.encoding is None else f"{d.choice}:{d.encoding}"
        if d.source_id is not None:
            src = graph.node(d.source_id).name
            what += f" <- {src} ({len(d.chain)} op(s))"
        rows.append([
            d.node_name, d.stash_class, what,
            d.fp32_bytes / MiB, d.resident_bytes / MiB,
            d.cost_s * 1e6, "yes" if d.lossless else "NO",
        ])
    print(format_table(
        ["feature map", "class", "decision", "FP32 MiB", "resident MiB",
         "cost us", "lossless"],
        rows,
        title=f"{args.model} @ minibatch {args.batch_size} — "
              f"{policy.describe()}, budget {policy.cost_budget_frac:.0%} "
              f"of step",
    ))
    print(f"\nbaseline allocated: {hybrid.baseline_allocated_bytes / MiB:8.2f}"
          f" MiB")
    print(f"plan allocated:     {hybrid.allocated_bytes / MiB:8.2f} MiB "
          f"({hybrid.footprint_ratio:.2f}x reduction)")
    print(f"modeled overhead:   {hybrid.overhead_frac:8.1%} of baseline step")
    if args.strategy == STRATEGY_HYBRID:
        for strategy, footprint in sorted(hybrid.pure_footprints.items()):
            marker = (" <- adopted" if strategy == hybrid.fallback_strategy
                      else "")
            print(f"  pure {strategy:<13} {footprint / MiB:8.2f} MiB{marker}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments import run_sweep
    from repro.ioutil import atomic_write_json

    drivers = (None if args.drivers is None
               else [d for d in args.drivers.split(",") if d])
    models = args.models.split(",") if args.models else None
    journal = RunJournal(args.journal) if args.journal else None
    data = run_sweep(
        drivers,
        models=models,
        batch_size=args.batch_size,
        workers=args.workers,
        journal=journal,
        timeout_s=args.timeout,
    )
    out = atomic_write_json(args.out, data)
    for name in data["drivers"]:
        merged = data["figures"][name]
        count = len(merged) if hasattr(merged, "__len__") else int(
            merged is not None)
        print(f"{name:<28} {count:3d} result(s)")
    for failure in data["failed_units"]:
        error = failure["error"] or {"type": "Unscheduled", "message": ""}
        print(f"  FAILED {failure['key']} ({error['type']}: "
              f"{error['message']}) payload={failure['payload']}")
    _print_journal_hits(journal)
    print(f"wrote {out}")
    return 0 if data["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Gist (ISCA 2018) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list model names").set_defaults(
        func=cmd_models
    )

    p = sub.add_parser("summary", help="graph summary")
    _add_model_argument(p)
    p.set_defaults(func=cmd_summary)

    p = sub.add_parser("mfr", help="memory footprint ratio")
    _add_model_argument(p)
    p.add_argument("--config", default="network", choices=CONFIG_ARMS,
                   help="gist configuration (default: paper per-network)")
    p.add_argument("--dynamic", action="store_true",
                   help="use the dynamic-allocation simulator")
    p.add_argument("--timeline", action="store_true",
                   help="show live-memory sparklines (baseline vs gist)")
    p.set_defaults(func=cmd_mfr)

    p = sub.add_parser("breakdown", help="memory breakdown (Figures 1/3)")
    _add_model_argument(p)
    p.set_defaults(func=cmd_breakdown)

    p = sub.add_parser("overhead", help="performance overheads (Figures 9/15)")
    _add_model_argument(p)
    p.add_argument("--config", default="network", choices=CONFIG_ARMS)
    p.set_defaults(func=cmd_overhead)

    p = sub.add_parser("train", help="scaled training demo (Figure 12)")
    p.add_argument("--policy", default="gist-fp8", choices=POLICY_NAMES)
    p.add_argument("--epochs", type=int, default=4)
    p.set_defaults(func=cmd_train)

    from repro.diagnostics.golden import GOLDEN_MODELS

    p = sub.add_parser("trace", help="traced run with golden conformance")
    p.add_argument("--model", default="tiny_cnn",
                   choices=sorted(GOLDEN_MODELS),
                   help="golden-recipe model (default: tiny_cnn)")
    p.add_argument("--policy", default="gist-lossless",
                   choices=POLICY_NAMES,
                   help="stash policy arm (default: gist-lossless)")
    p.add_argument("--steps", type=int, default=3,
                   help="SGD steps to trace (goldens pin 3)")
    p.add_argument("--seed", type=int, default=0,
                   help="master seed for parameters and batches")
    p.add_argument("--check-invariants", action="store_true",
                   help="enable the runtime invariant suite during the run")
    p.add_argument("--save-golden", metavar="PATH",
                   help="write this run's digest as a golden trace")
    p.add_argument("--compare-golden", metavar="PATH",
                   help="compare against a saved golden; exit 1 on mismatch")
    p.set_defaults(func=cmd_trace)

    from repro.verify.fuzzer import DEFAULT_MAX_OPS

    p = sub.add_parser("fuzz", help="differential fuzzing of plans, "
                                    "allocators and encodings")
    p.add_argument("--seeds", type=int, default=100,
                   help="number of consecutive seeds to verify (default: 100)")
    p.add_argument("--start-seed", type=int, default=0,
                   help="first seed (use with --seeds 1 to replay a failure)")
    p.add_argument("--max-ops", type=int, default=DEFAULT_MAX_OPS,
                   help=f"op budget per fuzzed graph (default: "
                        f"{DEFAULT_MAX_OPS})")
    p.add_argument("--keep-going", action="store_true",
                   help="collect every violation instead of stopping and "
                        "minimizing the first one")
    p.add_argument("--strict", action="store_true",
                   help="also enforce the heuristic greedy-size <= first-fit "
                        "ordering (known to fail on some fan-out graphs)")
    p.add_argument("--rewrite-shapes", action="store_true",
                   help="bias generation towards rewrite-pass trigger "
                        "motifs and verify each rewritten graph too")
    p.add_argument("--recurrent-shapes", action="store_true",
                   help="generate unrolled LSTM/RNN sequence graphs and "
                        "run the recurrent-unroll oracle on each")
    _add_orchestration_arguments(p)
    p.set_defaults(func=cmd_fuzz)

    from repro.core.policy import HYBRID_STRATEGIES

    p = sub.add_parser("plan", help="hybrid memory planner "
                                    "(encode x recompute x swap)")
    _add_model_argument(p)
    p.add_argument("--strategy", default="hybrid", choices=HYBRID_STRATEGIES,
                   help="planner arm: a single lever, or 'hybrid' to mix "
                        "them per tensor (default: hybrid)")
    p.add_argument("--budget", type=float, default=0.15, metavar="FRAC",
                   help="step-time overhead budget as a fraction of the "
                        "baseline step (default: 0.15)")
    p.add_argument("--config", default="lossless", choices=CONFIG_ARMS,
                   help="gist switches for the encode lever (default: "
                        "lossless, so every decision is bit-exact)")
    p.set_defaults(func=cmd_plan)

    from repro.experiments import SWEEP_DRIVERS

    p = sub.add_parser("sweep", help="run figure drivers across the model "
                                     "suite as parallel work units")
    p.add_argument("--drivers", default=None, metavar="A,B,...",
                   help="comma-separated driver names (default: every "
                        "driver, i.e. BENCH_figures.json; known: "
                        f"{','.join(sorted(SWEEP_DRIVERS))})")
    p.add_argument("--models", default=None, metavar="M,N,...",
                   help="comma-separated model names "
                        "(default: the paper suite)")
    p.add_argument("--batch-size", type=int, default=64,
                   help="minibatch for the static analyses (default: 64)")
    p.add_argument("--out", default="results/sweep.json", metavar="PATH",
                   help="merged-output JSON path (written atomically; "
                        "default: results/sweep.json)")
    _add_orchestration_arguments(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # e.g. `repro fuzz | head` closing early
        # The command did NOT finish: exit non-zero (the conventional
        # 128+SIGPIPE) so a truncated verification can't read as a pass.
        return 141


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
