"""Backend-agreement differential oracle (dual-executor style).

Every op in the kernel registry carries several interchangeable arms
(:mod:`repro.kernels.backends`).  This oracle is the contract enforcer:
for each op family it draws shared random inputs, runs **every**
registered arm end-to-end (forward and backward for the layer ops) and
compares each arm's outputs against the family's ground-truth arm —

* an ``exact=True`` arm must match byte for byte
  (:func:`~repro.kernels.plan.bit_identical`: dtype, shape and
  ``tobytes()``, so ``-0.0`` is not ``+0.0`` and a NaN matches itself);
* an ``exact=False`` arm must stay within the tolerance it declared at
  registration, and its integer outputs (argmax maps, CSR meta arrays)
  must still match exactly — tolerances only ever cover float
  accumulation order.

The oracle is part of the tier-1 fuzz battery (:func:`verify_seed` calls
:func:`verify_backends` per seed), so a new arm cannot land without
holding its own contract under randomized shapes, strides, padding, ties
and empty inputs.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.kernels.backends import OpFamily, backends_for, op_families
from repro.kernels.plan import bit_identical
from repro.verify.oracles import Violation

ORACLE_BACKEND_DIFFERENTIAL = "backend-differential"

#: Shared-input trials per op family per seed (shapes re-randomized each
#: trial, so a 25-seed smoke batch covers ~50 signatures per family).
DEFAULT_TRIALS = 2


def _max_abs(arr: np.ndarray) -> float:
    if arr.size == 0:
        return 0.0
    return float(np.max(np.abs(arr.astype(np.float64, copy=False))))


def _compare_outputs(
    family: OpFamily,
    backend,
    ref_out: dict,
    got_out: dict,
) -> List[Violation]:
    """One arm's outputs vs the reference arm's, under the arm's contract."""
    violations: List[Violation] = []
    subject = f"{family.op}:{backend.name}"
    if set(ref_out) != set(got_out):
        return [Violation(
            ORACLE_BACKEND_DIFFERENTIAL,
            f"output keys {sorted(got_out)} != reference "
            f"{sorted(ref_out)}", subject=subject,
        )]
    for key in sorted(ref_out):
        ref = np.asarray(ref_out[key])
        got = np.asarray(got_out[key])
        if got.shape != ref.shape or got.dtype != ref.dtype:
            violations.append(Violation(
                ORACLE_BACKEND_DIFFERENTIAL,
                f"{key}: shape/dtype {got.shape}/{got.dtype} != reference "
                f"{ref.shape}/{ref.dtype}", subject=subject,
            ))
            continue
        must_be_exact = (
            backend.exact or not np.issubdtype(ref.dtype, np.inexact)
        )
        if must_be_exact:
            if not bit_identical(ref, got):
                bits = f"u{ref.itemsize}"
                n_bad = int(np.sum(ref.view(bits) != got.view(bits)))
                err = _max_abs(ref.astype(np.float64)
                               - got.astype(np.float64))
                contract = ("exact" if backend.exact
                            else "tolerance-only-for-floats")
                violations.append(Violation(
                    ORACLE_BACKEND_DIFFERENTIAL,
                    f"{key}: {n_bad} element(s) differ from the "
                    f"{family.reference!r} arm under the {contract} "
                    f"contract (max |err| {err:.3e})", subject=subject,
                ))
            continue
        bound = backend.tolerance * max(1.0, _max_abs(ref))
        err = _max_abs(ref.astype(np.float64) - got.astype(np.float64))
        if err > bound:
            violations.append(Violation(
                ORACLE_BACKEND_DIFFERENTIAL,
                f"{key}: max |err| {err:.3e} exceeds the declared "
                f"tolerance bound {bound:.3e} "
                f"(tolerance={backend.tolerance:g})", subject=subject,
            ))
    return violations


def check_backend_agreement(
    family: OpFamily,
    rng: np.random.Generator,
    trials: int = DEFAULT_TRIALS,
) -> List[Violation]:
    """Run every arm of one family on shared inputs; compare vs reference."""
    violations: List[Violation] = []
    arms = backends_for(family.op)
    reference = next(
        (b for b in arms if b.name == family.reference), None
    )
    if reference is None:
        return [Violation(
            ORACLE_BACKEND_DIFFERENTIAL,
            f"ground-truth arm {family.reference!r} is not registered",
            subject=family.op,
        )]
    for _ in range(max(1, trials)):
        inputs = family.make_inputs(rng)
        try:
            ref_out = family.run(reference, inputs)
        except Exception as exc:  # noqa: BLE001 — a crash IS the finding
            violations.append(Violation(
                ORACLE_BACKEND_DIFFERENTIAL,
                f"reference arm crashed: {type(exc).__name__}: {exc}",
                subject=f"{family.op}:{reference.name}",
            ))
            continue
        for backend in arms:
            if backend.name == reference.name:
                continue
            try:
                got_out = family.run(backend, inputs)
            except Exception as exc:  # noqa: BLE001
                violations.append(Violation(
                    ORACLE_BACKEND_DIFFERENTIAL,
                    f"arm crashed: {type(exc).__name__}: {exc}",
                    subject=f"{family.op}:{backend.name}",
                ))
                continue
            violations += _compare_outputs(family, backend, ref_out,
                                           got_out)
    return violations


def verify_backends(
    seed: int, trials: int = DEFAULT_TRIALS,
    ops: Optional[List[str]] = None,
) -> List[Violation]:
    """Backend-agreement oracle over every op family, seed-deterministic.

    Args:
        seed: Drives the shared-input generator; the same seed always
            exercises the same shapes (the fuzz determinism contract).
        trials: Shared-input draws per family.
        ops: Optional op-name filter (used by the CLI).
    """
    rng = np.random.default_rng(seed + 0xBAC7E57)
    violations: List[Violation] = []
    for family in op_families():
        if ops is not None and family.op not in ops:
            continue
        violations += check_backend_agreement(family, rng, trials=trials)
    return [Violation(v.oracle, v.detail, seed, v.subject)
            for v in violations]
