"""Declarative job specs: validation, canonicalisation, fingerprints.

A job spec is a small YAML/JSON mapping — *what* to run, never how —
that the serve layer compiles onto the existing work-unit machinery:

.. code-block:: yaml

    kind: train          # train | plan | fuzz | sweep
    name: nightly-tiny   # optional label (not part of the identity)
    model: tiny_cnn
    steps: 2
    seed: 0

Validation fills in every default *before* the spec is fingerprinted,
so two spellings of the same job — one terse, one fully spelled out —
produce the same :meth:`JobSpec.fingerprint` and therefore share one
journal record.  The ``name`` label is deliberately excluded from the
identity: resubmitting a job under a new label is still the same job
(this is what collapses duplicate submissions onto one journal
record).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from repro.orchestrate.units import canonical_json, normalise_json

#: Job kinds the serve layer can compile; each maps onto an existing
#: subsystem (distributed trainer, hybrid planner, fuzzer, sweep driver).
JOB_KINDS = ("train", "plan", "fuzz", "sweep")

#: Bumped when a job's semantics change incompatibly; part of the
#: fingerprint so stale journaled results can never be served.  2: ``plan``
#: jobs price gist decisions with the one codec price (Figs 9/11's).
#: 3: ``sweep`` rows changed shape (Fig 3 per-class bytes, new keys on
#: Figs 8/9/16; the throughput driver is gone).
SPEC_FORMAT = 3


class JobSpecError(ValueError):
    """Raised for malformed or unknown job specs."""


@dataclass(frozen=True)
class JobSpec:
    """A validated, canonicalised job description."""

    kind: str
    params: dict = field(default_factory=dict)
    name: str = ""

    def payload(self) -> dict:
        """The payload-complete dict a ``serve-job`` work unit carries."""
        return {"format": SPEC_FORMAT, "kind": self.kind,
                "params": dict(self.params)}

    def fingerprint(self) -> str:
        """Content address of this job (label-independent)."""
        blob = canonical_json(self.payload())
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Per-kind parameter schemas: name -> (default, checker).  Checkers
# raise JobSpecError with the offending field named.
# ----------------------------------------------------------------------
def _require(condition: bool, message: str) -> None:
    if not condition:
        raise JobSpecError(message)


def _check_model(name) -> str:
    from repro.models import available_models

    _require(isinstance(name, str) and name in available_models(),
             f"unknown model {name!r}; known: {available_models()}")
    return name


def _check_positive_int(label: str):
    def check(value):
        _require(isinstance(value, int) and not isinstance(value, bool)
                 and value > 0, f"{label} must be a positive int, "
                                f"got {value!r}")
        return value
    return check


def _check_non_negative_int(label: str):
    def check(value):
        _require(isinstance(value, int) and not isinstance(value, bool)
                 and value >= 0, f"{label} must be a non-negative int, "
                                 f"got {value!r}")
        return value
    return check


def _check_bool(label: str):
    def check(value):
        _require(isinstance(value, bool), f"{label} must be a bool, "
                                          f"got {value!r}")
        return value
    return check


def _check_choice(label: str, choices):
    def check(value):
        _require(value in choices,
                 f"{label} must be one of {sorted(choices)}, got {value!r}")
        return value
    return check


def _check_budget(value):
    _require(isinstance(value, (int, float)) and not isinstance(value, bool)
             and value >= 0, f"budget must be a fraction >= 0, got {value!r}")
    return float(value)


def _schema(kind: str) -> Dict[str, tuple]:
    if kind == "train":
        from repro.distributed.wire import WIRE_CODECS
        from repro.train.stash import LOSSLESS_POLICY_NAMES

        return {
            "model": ("tiny_cnn", _check_model),
            "batch_size": (16, _check_positive_int("batch_size")),
            "shards": (2, _check_positive_int("shards")),
            "steps": (2, _check_positive_int("steps")),
            "seed": (0, _check_non_negative_int("seed")),
            "wire_codec": ("auto", _check_choice("wire_codec", WIRE_CODECS)),
            "policy": ("baseline",
                       _check_choice("policy", LOSSLESS_POLICY_NAMES)),
            "num_samples": (64, _check_positive_int("num_samples")),
        }
    if kind == "plan":
        from repro.core.policy import CONFIG_ARMS, HYBRID_STRATEGIES

        return {
            "model": ("tiny_cnn", _check_model),
            "batch_size": (8, _check_positive_int("batch_size")),
            "strategy": ("hybrid",
                         _check_choice("strategy", HYBRID_STRATEGIES)),
            "budget": (0.15, _check_budget),
            "config": ("lossless", _check_choice("config", CONFIG_ARMS)),
            "rewrite": (False, _check_bool("rewrite")),
        }
    if kind == "fuzz":
        from repro.verify.fuzzer import DEFAULT_MAX_OPS

        return {
            "seeds": (5, _check_positive_int("seeds")),
            "start_seed": (0, _check_non_negative_int("start_seed")),
            "max_ops": (DEFAULT_MAX_OPS, _check_positive_int("max_ops")),
            "strict": (False, _check_bool("strict")),
            "rewrite_shapes": (False, _check_bool("rewrite_shapes")),
        }
    if kind == "sweep":
        from repro.experiments import DEFAULT_SWEEP_DRIVERS, SWEEP_DRIVERS

        def check_drivers(value):
            _require(isinstance(value, list) and value
                     and all(d in SWEEP_DRIVERS for d in value),
                     f"drivers must be a non-empty list from "
                     f"{sorted(SWEEP_DRIVERS)}, got {value!r}")
            return value

        def check_models(value):
            if value is None:
                return None
            _require(isinstance(value, list) and value,
                     f"models must be null or a non-empty list, "
                     f"got {value!r}")
            for name in value:
                _check_model(name)
            return value

        return {
            "drivers": (list(DEFAULT_SWEEP_DRIVERS), check_drivers),
            "models": (None, check_models),
            "batch_size": (32, _check_positive_int("batch_size")),
        }
    raise JobSpecError(f"unknown job kind {kind!r}; known: {JOB_KINDS}")


def validate_job_spec(raw: dict) -> JobSpec:
    """Validate ``raw`` and return the canonical :class:`JobSpec`.

    Unknown keys are rejected (a typoed field must not silently become
    a default), every known field is checked, and defaults are filled
    in so the spec's fingerprint no longer depends on which fields the
    author spelled out.
    """
    _require(isinstance(raw, dict), f"job spec must be a mapping, "
                                    f"got {type(raw).__name__}")
    raw = normalise_json(raw)
    kind = raw.get("kind")
    _require(kind in JOB_KINDS,
             f"job kind must be one of {list(JOB_KINDS)}, got {kind!r}")
    name = raw.get("name", "")
    _require(isinstance(name, str), f"name must be a string, got {name!r}")
    schema = _schema(kind)
    unknown = sorted(set(raw) - set(schema) - {"kind", "name"})
    _require(not unknown,
             f"unknown field(s) {unknown} for job kind {kind!r}; "
             f"known: {sorted(schema)}")
    params = {}
    for key, (default, check) in sorted(schema.items()):
        params[key] = check(raw[key]) if key in raw else default
    return JobSpec(kind=kind, params=params, name=name)


# ----------------------------------------------------------------------
# Loading specs from disk
# ----------------------------------------------------------------------
def _parse_spec_text(text: str, source: str) -> object:
    stripped = text.lstrip()
    if stripped.startswith(("{", "[")):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise JobSpecError(f"{source}: invalid JSON: {exc}") from None
    try:
        import yaml
    except ImportError:  # pragma: no cover - yaml is in the test image
        raise JobSpecError(
            f"{source}: not JSON and PyYAML is unavailable; "
            f"write the spec as JSON"
        ) from None
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise JobSpecError(f"{source}: invalid YAML: {exc}") from None


def load_job_specs(path) -> List[JobSpec]:
    """Parse one spec file (YAML or JSON) into validated job specs.

    Accepts a single job mapping, a list of job mappings, or a mapping
    with a ``jobs`` list.  Every spec is validated; the first invalid
    one raises :class:`JobSpecError` naming the file.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise JobSpecError(f"cannot read job spec {path}: {exc}") from None
    data = _parse_spec_text(text, str(path))
    if isinstance(data, dict) and "jobs" in data:
        data = data["jobs"]
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list) or not data:
        raise JobSpecError(
            f"{path}: expected a job mapping, a list of jobs or "
            f"{{'jobs': [...]}}, got {type(data).__name__}"
        )
    specs = []
    for index, raw in enumerate(data):
        try:
            specs.append(validate_job_spec(raw))
        except JobSpecError as exc:
            raise JobSpecError(f"{path} (job {index}): {exc}") from None
    return specs
