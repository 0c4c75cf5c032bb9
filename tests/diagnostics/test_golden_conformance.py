"""Conformance against the checked-in golden traces.

The goldens under ``tests/diagnostics/goldens/`` pin the exact bits —
losses, parameter gradients, decoded stash tensors — of three training
steps for each model/policy arm.  Any numerical drift anywhere in the
stack (layers, kernels, encodings, executor) fails these tests; an
*intentional* change regenerates them with::

    python -m repro trace --model MODEL --policy POLICY \
        --save-golden tests/diagnostics/goldens/MODEL--POLICY.json
"""

from pathlib import Path

import pytest

from repro.diagnostics import (
    GOLDEN_MODELS,
    GOLDEN_POLICIES,
    golden_filename,
    load_golden,
    run_traced,
)

GOLDEN_DIR = Path(__file__).parent / "goldens"
PINNED_MODELS = ("tiny_cnn", "scaled_vgg", "lstm", "densenet")


@pytest.mark.conformance
@pytest.mark.parametrize("model", PINNED_MODELS)
@pytest.mark.parametrize("policy", GOLDEN_POLICIES)
class TestGoldenConformance:
    def test_run_matches_checked_in_golden(self, model, policy):
        path = GOLDEN_DIR / golden_filename(model, policy)
        assert path.exists(), f"golden missing: {path}"
        digest = run_traced(model, policy, steps=3)
        comparison = digest.compare_golden(path)
        assert comparison, "\n".join(comparison.mismatches)


@pytest.mark.conformance
class TestGoldenInventory:
    def test_goldens_are_well_formed(self):
        files = sorted(GOLDEN_DIR.glob("*.json"))
        assert len(files) >= len(PINNED_MODELS) * len(GOLDEN_POLICIES)
        for path in files:
            golden = load_golden(path)
            assert golden.model in GOLDEN_MODELS
            assert path.name == golden_filename(golden.model, golden.policy)
            assert len(golden.steps) == 3

    def test_lossless_gist_trains_bit_identically_to_baseline(self):
        # The paper's lossless claim, as pinned data: identical losses and
        # gradients in every step of the baseline vs gist-lossless goldens.
        for model in PINNED_MODELS:
            base = load_golden(GOLDEN_DIR / golden_filename(model, "baseline"))
            gist = load_golden(
                GOLDEN_DIR / golden_filename(model, "gist-lossless")
            )
            for b, g in zip(base.steps, gist.steps):
                assert b.loss_hash == g.loss_hash
                assert b.grads_hash == g.grads_hash
