"""Regression tests for the kernel env switch and backend registry.

``REPRO_KERNEL_BACKEND`` values are validated, and an unknown value
warns instead of silently falling back (the satellite regression this
file pins); an unknown ``GraphExecutor(kernel_backend=...)`` is a
``ValueError``.  The registry side covers the registration contract
(exact XOR tolerance), the exact arm sets the keep rule leaves, and
forced-arm resolution precedence.
"""

import warnings

import pytest

from repro.kernels.backends import (
    FnBackend,
    backends_for,
    default_backend,
    get_backend,
    register_backend,
    registered_ops,
    resolve_forced_backend,
    unregister_backend,
)
from repro.kernels.config import (
    _parse_backend_env,
    backend_override,
    forced_backend,
)


# ----------------------------------------------------------------------
# REPRO_KERNEL_BACKEND: spec parsing + forced resolution
# ----------------------------------------------------------------------
def test_backend_spec_parsing():
    assert _parse_backend_env(None) == {}
    assert _parse_backend_env("auto") == {}
    assert _parse_backend_env("blas-fat") == {"*": "blas-fat"}
    assert _parse_backend_env("conv2d=blas-fat,maxpool2d=reference") == {
        "conv2d": "blas-fat", "maxpool2d": "reference",
    }
    assert _parse_backend_env(" conv2d = blas-fat , auto ") == {
        "conv2d": "blas-fat",
    }


def test_backend_spec_malformed_entry_warns():
    with pytest.warns(RuntimeWarning, match="malformed"):
        assert _parse_backend_env("=blas-fat") == {}


def test_per_op_force_wins_over_bare_name():
    with backend_override("numpy-plan,conv2d=blas-fat"):
        assert forced_backend("conv2d") == "blas-fat"
        assert forced_backend("maxpool2d") == "numpy-plan"
        assert resolve_forced_backend("conv2d").name == "blas-fat"
        assert resolve_forced_backend("maxpool2d").name == "numpy-plan"


def test_bare_name_applies_only_where_registered():
    # blas-fat exists for conv2d only: pools silently keep the chooser.
    with backend_override("blas-fat"):
        assert resolve_forced_backend("conv2d").name == "blas-fat"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_forced_backend("maxpool2d") is None


def test_unknown_backend_name_warns_instead_of_silent_fallback():
    with backend_override("definitely-not-a-backend"):
        with pytest.warns(RuntimeWarning, match="unknown backend"):
            assert resolve_forced_backend("conv2d") is None


# ----------------------------------------------------------------------
# Registry contract
# ----------------------------------------------------------------------
def test_every_op_registers_reference_and_default():
    # Exactly the arms the keep rule (docs/architecture.md §9) leaves.
    assert {op: [b.name for b in backends_for(op)]
            for op in registered_ops()} == {
        "conv2d": ["reference", "blas-fat", "numpy-plan"],
        "csr_build": ["loop", "numpy"],
        "maxpool2d": ["reference", "numpy-plan"],
        "pack_bits": ["loop", "numpy"],
        "pack_nibbles": ["loop", "numpy"],
    }
    for op in registered_ops():
        # The first-listed arm is the family's ground truth; the default
        # is the other side of the A/B.
        assert default_backend(op).name in ("numpy-plan", "numpy")


def test_executor_kwarg_wins_over_env_force():
    class Ctx:
        kernel_backend = "reference"

    with backend_override("numpy-plan"):
        assert resolve_forced_backend("conv2d", Ctx()).name == "reference"
        assert resolve_forced_backend("conv2d").name == "numpy-plan"
        # Codec ops register no ``reference`` arm: the kwarg passes.
        assert resolve_forced_backend("pack_bits", Ctx()) is None


def test_unknown_executor_backend_is_a_precise_error():
    from repro.models import tiny_cnn
    from repro.train import GraphExecutor

    graph = tiny_cnn(batch_size=2)
    with pytest.raises(ValueError) as err:
        GraphExecutor(graph, kernel_backend="no-such-arm")
    message = str(err.value)
    assert "'no-such-arm'" in message
    for name in ("reference", "numpy-plan", "blas-fat", "loop", "numpy"):
        assert name in message


def test_nonexact_arm_without_tolerance_is_rejected():
    with pytest.raises(ValueError, match="error bound"):
        register_backend(FnBackend("pack_bits", "bad-contract",
                                   lambda flat: flat, exact=False,
                                   tolerance=0.0))
    with pytest.raises(KeyError):
        get_backend("pack_bits", "bad-contract")


def test_unregister_is_idempotent():
    unregister_backend("pack_bits", "never-registered")  # no raise
    with pytest.raises(KeyError, match="known:"):
        get_backend("pack_bits", "never-registered")
