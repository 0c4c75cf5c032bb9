"""Job execution: compile validated specs onto the work-unit registry.

Every job compiles to exactly one payload-complete ``serve-job`` work
unit (:func:`compile_job`) whose executor, :func:`run_serve_job`,
dispatches on the job kind and drives the existing subsystem serially
inside the worker process — the pool supplies the concurrency, crash
isolation and journal durability, so nested pools are never needed
(pool workers are daemonic and cannot fork grandchildren).

Each runner is a pure function of the job's canonical params, which is
what makes a journaled result reusable: same fingerprint, same bits.
"""

from __future__ import annotations

from repro.orchestrate.units import WorkUnit
from repro.serve.spec import SPEC_FORMAT, JobSpec, JobSpecError


def compile_job(spec: JobSpec) -> WorkUnit:
    """The single work unit executing ``spec`` (kind ``serve-job``)."""
    return WorkUnit("serve-job", f"job:{spec.fingerprint()[:16]}",
                    spec.payload())


def _run_plan(params: dict) -> dict:
    from repro.core.policy import GistConfig, HybridPolicy
    from repro.graph.fingerprint import graph_fingerprint
    from repro.memory.hybrid import build_hybrid_plan
    from repro.models import build_model
    from repro.rewrite import apply_passes

    graph = build_model(params["model"], batch_size=params["batch_size"])
    if params["rewrite"]:
        graph = apply_passes(graph).graph
    policy = HybridPolicy(
        strategy=params["strategy"], cost_budget_frac=params["budget"],
        gist=GistConfig.from_name(params["config"], params["model"]),
    )
    return {
        "model": params["model"],
        "batch_size": params["batch_size"],
        "rewrite": params["rewrite"],
        "graph_fingerprint": graph_fingerprint(graph),
        "plan": build_hybrid_plan(graph, policy).summary_json(),
    }


def _run_train(params: dict) -> dict:
    from repro.distributed import DistConfig, train_distributed

    config = DistConfig(
        model=params["model"],
        batch_size=params["batch_size"],
        num_shards=params["shards"],
        replicas=1,  # inside a pool worker: shards run inline, in order
        steps=params["steps"],
        wire_codec=params["wire_codec"],
        policy=params["policy"],
        seed=params["seed"],
        num_samples=params["num_samples"],
    )
    result = train_distributed(config)
    return {
        "model": params["model"],
        "digest": result.digest(),
        "losses": result.losses,
        "total_wire_bytes": result.total_wire_bytes,
        "wire_reduction": result.wire_reduction,
    }


def _run_fuzz(params: dict) -> dict:
    from repro.verify import run_fuzz

    report = run_fuzz(
        params["seeds"],
        start_seed=params["start_seed"],
        max_ops=params["max_ops"],
        strict=params["strict"],
        rewrite_shapes=params["rewrite_shapes"],
    )
    return report.to_json()


def _run_sweep(params: dict) -> dict:
    from repro.experiments import run_sweep

    return run_sweep(
        params["drivers"],
        models=params["models"],
        batch_size=params["batch_size"],
    )


_RUNNERS = {
    "plan": _run_plan,
    "train": _run_train,
    "fuzz": _run_fuzz,
    "sweep": _run_sweep,
}


def run_serve_job(payload: dict) -> dict:
    """Work-unit executor for kind ``serve-job`` (runs in any process)."""
    if payload.get("format") != SPEC_FORMAT:
        raise JobSpecError(
            f"serve-job payload format {payload.get('format')!r} "
            f"!= {SPEC_FORMAT}"
        )
    try:
        runner = _RUNNERS[payload["kind"]]
    except KeyError:
        raise JobSpecError(
            f"unknown serve-job kind {payload.get('kind')!r}; "
            f"known: {sorted(_RUNNERS)}"
        ) from None
    return runner(payload["params"])
