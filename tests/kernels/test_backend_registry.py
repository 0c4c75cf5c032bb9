"""Regression tests for the kernel env switches and backend registry.

``REPRO_KERNEL_PLANS`` and ``REPRO_KERNEL_BACKEND`` share a contract:
values are validated, and an unknown value warns instead of silently
falling back (the satellite regression this file pins).  The registry
side covers the registration contract (exact XOR tolerance), forced-arm
resolution precedence, and the autotuner's persisted-selection
round-trip.
"""

import warnings

import numpy as np
import pytest

from repro.kernels import autotune
from repro.kernels import config
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
    _parse_bool_env,
    backend_override,
    forced_backend,
)


# ----------------------------------------------------------------------
# REPRO_KERNEL_PLANS: validated boolean
# ----------------------------------------------------------------------
def test_plans_env_accepts_known_booleans(monkeypatch):
    for raw, expected in [("0", False), ("off", False), ("No", False),
                          ("1", True), ("true", True), ("YES", True)]:
        monkeypatch.setenv("REPRO_TEST_BOOL", raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _parse_bool_env("REPRO_TEST_BOOL", True) is expected


def test_plans_env_unknown_value_warns_and_uses_default(monkeypatch):
    monkeypatch.setenv("REPRO_TEST_BOOL", "banana")
    with pytest.warns(RuntimeWarning, match="not a recognised boolean"):
        assert _parse_bool_env("REPRO_TEST_BOOL", True) is True
    monkeypatch.setenv("REPRO_TEST_BOOL", "banana")
    with pytest.warns(RuntimeWarning):
        assert _parse_bool_env("REPRO_TEST_BOOL", False) is False


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
    assert registered_ops() == [
        "conv2d", "csr_build", "maxpool2d", "pack_bits", "pack_nibbles",
    ]
    for op in registered_ops():
        arms = backends_for(op)
        assert len(arms) >= 2, f"{op} needs at least two arms"
        assert default_backend(op) is not None
        # The first-listed arm is the family's ground-truth arm.
        assert arms[0].name in ("reference", "loop")


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


# ----------------------------------------------------------------------
# Autotune persistence round-trip
# ----------------------------------------------------------------------
def test_autotune_selection_persists_across_cache_clears(tmp_path,
                                                         monkeypatch):
    cache = tmp_path / "autotune.json"
    monkeypatch.setattr(config, "autotune_cache_path", str(cache))
    autotune.clear_selection_cache()
    try:
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, (2, 3, 8, 8)).astype(np.float32)
        w4 = rng.normal(0, 0.5, (4, 3, 3, 3)).astype(np.float32)
        first = autotune.autotuned_backend("conv2d", x, w4, None, 1, 1)
        report = autotune.autotune_report()
        assert len(report) == 1 and report[0]["source"] == "tuned"
        assert cache.exists(), "selection was not persisted"

        # A fresh in-memory cache must reload — and re-verify — the
        # persisted selection instead of re-timing every arm.
        autotune.clear_selection_cache()
        second = autotune.autotuned_backend("conv2d", x, w4, None, 1, 1)
        report = autotune.autotune_report()
        assert second.name == first.name
        assert report[0]["source"] == "persisted"
    finally:
        autotune.clear_selection_cache()


def test_autotune_survives_corrupt_cache_file(tmp_path, monkeypatch):
    cache = tmp_path / "autotune.json"
    cache.write_text("{not json")
    monkeypatch.setattr(config, "autotune_cache_path", str(cache))
    autotune.clear_selection_cache()
    try:
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, (1, 2, 6, 6)).astype(np.float32)
        w4 = rng.normal(0, 0.5, (3, 2, 3, 3)).astype(np.float32)
        chosen = autotune.autotuned_backend("conv2d", x, w4, None, 1, 0)
        assert chosen.name in {b.name for b in backends_for("conv2d")}
        assert autotune.autotune_report()[0]["source"] == "tuned"
    finally:
        autotune.clear_selection_cache()


def test_autotune_cache_from_different_host_warns_and_retunes(tmp_path,
                                                              monkeypatch):
    cache = tmp_path / "autotune.json"
    monkeypatch.setattr(config, "autotune_cache_path", str(cache))
    autotune.clear_selection_cache()
    try:
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, (1, 2, 6, 6)).astype(np.float32)
        w4 = rng.normal(0, 0.5, (3, 2, 3, 3)).astype(np.float32)
        autotune.autotuned_backend("conv2d", x, w4, None, 1, 0)
        assert cache.exists()

        # Forge a cache tuned on a machine with a different core count:
        # its timings are meaningless here, so loading must warn and
        # fall back to re-timing every arm on *this* host.
        import json
        data = json.loads(cache.read_text())
        assert data["host"] == autotune._host_signature()
        data["host"] = {"usable_cores": data["host"]["usable_cores"] + 7}
        cache.write_text(json.dumps(data))

        autotune.clear_selection_cache()
        with pytest.warns(RuntimeWarning, match="host signature"):
            autotune.autotuned_backend("conv2d", x, w4, None, 1, 0)
        assert autotune.autotune_report()[0]["source"] == "tuned"
    finally:
        autotune.clear_selection_cache()


def test_autotune_unstamped_legacy_cache_is_ignored(tmp_path, monkeypatch):
    import json
    cache = tmp_path / "autotune.json"
    # Pre-host-stamp cache layout: selections at top level, no "host".
    cache.write_text(json.dumps({
        "version": 1,
        "selections": {"conv2d|bogus": {"backend": "reference",
                                        "timings_ms": {}}},
    }))
    monkeypatch.setattr(config, "autotune_cache_path", str(cache))
    autotune.clear_selection_cache()
    try:
        with pytest.warns(RuntimeWarning, match="host signature"):
            assert autotune._load_persisted() == {}
    finally:
        autotune.clear_selection_cache()
