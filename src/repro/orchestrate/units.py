"""Work units: the payload-complete task description the pool runs.

A unit's ``kind`` names a registered executor function; its ``payload``
is a JSON-serialisable dict that fully determines the computation.  That
restriction is what buys determinism and durability: any worker process
can run any unit from its payload alone, and a journal replay is
indistinguishable from a live run.

Kinds resolve lazily.  Built-in kinds are registered as ``module:attr``
strings so importing :mod:`repro.orchestrate` does not drag in the heavy
verify/experiment stacks; tests may register plain callables (inherited
by forked workers).
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Union

#: kind name -> executor callable or lazy ``"module:attr"`` reference.
_KINDS: Dict[str, Union[Callable[[dict], Any], str]] = {
    "fuzz-seed": "repro.verify.runner:run_fuzz_unit",
    "experiment": "repro.experiments:run_sweep_unit",
    "replica-step": "repro.distributed.replica:run_replica_unit",
    "serve-job": "repro.serve.jobs:run_serve_job",
}


def json_default(value):
    """``json.dumps`` fallback mapping numpy scalars/arrays to plain JSON.

    Sweep and serve configs are frequently built from numpy-derived
    values (``np.int64`` seeds, ``np.float32`` budgets, small arrays);
    these must serialise the same way their round-tripped Python
    equivalents do, or fingerprints and journals diverge.
    """
    # Duck-typed so importing this module never drags in numpy.
    item = getattr(value, "item", None)
    if callable(item) and getattr(value, "shape", None) == ():
        return value.item()  # numpy scalar -> int/float/bool
    tolist = getattr(value, "tolist", None)
    if callable(tolist):
        return value.tolist()  # numpy array -> nested lists
    raise TypeError(
        f"object of type {type(value).__name__} is not JSON-serialisable"
    )


def canonical_json(value) -> str:
    """Canonical JSON text of ``value``: round-trip stable, sorted keys.

    The value is serialised (numpy-aware), parsed back, and serialised
    again, so anything that changes representation across a JSON round
    trip (tuples -> lists, numpy scalars -> Python scalars, int-valued
    floats) reaches its fixed point before being hashed or compared.
    This is the same normalisation the pool applies to unit results.
    """
    once = json.dumps(value, sort_keys=True, default=json_default)
    return json.dumps(json.loads(once), sort_keys=True)


def normalise_json(value):
    """JSON round-trip ``value`` (numpy-aware) to its canonical form."""
    return json.loads(json.dumps(value, sort_keys=True, default=json_default))


def value_digest(value) -> str:
    """SHA-256 hex over ``value``'s :func:`canonical_json` (the stamp a
    journal record carries, and a serve job's result digest)."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class WorkUnit:
    """One schedulable computation.

    Attributes:
        kind: Registered executor name (see :func:`register_kind`).
        key: Unique identifier within a run; journal resume and result
            merging are keyed on it.
        payload: JSON-serialisable arguments; must fully determine the
            computation (no ambient state).
    """

    kind: str
    key: str
    payload: dict = field(default_factory=dict)


def register_kind(name: str,
                  fn: Union[Callable[[dict], Any], str]) -> None:
    """Register (or replace) the executor for a unit kind.

    ``fn`` is either a callable ``payload -> JSON-serialisable result``
    or a lazy ``"module:attr"`` string resolved on first use.
    """
    _KINDS[name] = fn


def resolve_kind(name: str) -> Callable[[dict], Any]:
    """Resolve a kind name to its executor, importing lazily if needed."""
    try:
        fn = _KINDS[name]
    except KeyError:
        raise KeyError(
            f"unknown work-unit kind {name!r}; known: {sorted(_KINDS)}"
        ) from None
    if isinstance(fn, str):
        module_name, _, attr = fn.partition(":")
        fn = getattr(importlib.import_module(module_name), attr)
        _KINDS[name] = fn
    return fn


def payload_fingerprint(unit: WorkUnit) -> str:
    """Short stable hash of a unit's kind + payload.

    Journal records carry it so resume only skips a completed unit when
    the unit still means the same thing (same kind, same payload) — a
    re-invocation with different parameters re-runs everything whose
    meaning changed.

    The payload is canonicalised through :func:`canonical_json` — the
    same JSON normalisation the pool applies to results — so payloads
    carrying numpy scalars/arrays fingerprint instead of raising, and a
    payload fingerprints identically before and after a JSON round trip
    (a journal written by a live run replays for the resumed run even
    when the resubmitted spec was parsed from disk).
    """
    return value_digest([unit.kind, unit.payload])[:16]
