"""Tests for GistConfig and the Gist facade."""

import pytest

from repro.core import (
    Gist,
    GistConfig,
    PAPER_DPR_FORMATS,
    build_gist_plan,
    footprint_bytes,
)
from repro.memory import StaticAllocator, build_memory_plan
from repro.models import scaled_vgg


class TestGistConfig:
    def test_defaults_enable_everything(self):
        cfg = GistConfig()
        assert cfg.binarize and cfg.ssdc and cfg.dpr and cfg.inplace
        assert cfg.any_encoding

    def test_lossless_preset(self):
        cfg = GistConfig.lossless()
        assert not cfg.dpr
        assert cfg.binarize and cfg.ssdc and cfg.inplace

    def test_isolation_presets(self):
        b = GistConfig.binarize_only()
        assert b.binarize and not (b.ssdc or b.dpr or b.inplace)
        s = GistConfig.ssdc_only()
        assert s.ssdc and not (s.binarize or s.dpr or s.inplace)
        d = GistConfig.dpr_only("fp10")
        assert d.dpr and d.dpr_format == "fp10"
        assert not (d.binarize or d.ssdc)

    def test_disabled(self):
        cfg = GistConfig.disabled()
        assert not cfg.any_encoding and not cfg.inplace

    def test_for_network_uses_paper_formats(self):
        assert GistConfig.for_network("alexnet").dpr_format == "fp8"
        assert GistConfig.for_network("vgg16").dpr_format == "fp16"
        assert GistConfig.for_network("inception").dpr_format == "fp10"
        # Unknown nets get the safe default.
        assert GistConfig.for_network("mystery").dpr_format == "fp16"

    def test_paper_format_table(self):
        assert PAPER_DPR_FORMATS["overfeat"] == "fp8"

    def test_validation(self):
        with pytest.raises(ValueError):
            GistConfig(dpr_format="fp12")
        with pytest.raises(ValueError):
            GistConfig(rounding="stochastic")

    def test_with_override(self):
        cfg = GistConfig().with_(dpr=False)
        assert not cfg.dpr
        assert cfg.binarize  # others untouched


class TestGistFacade:
    def test_measure_mfr(self):
        g = scaled_vgg(batch_size=8)
        report = Gist(GistConfig.full("fp8")).measure_mfr(g)
        assert report.mfr > 1.2
        assert report.model == "scaled_vgg"
        assert "MFR" in str(report)

    def test_lossy_beats_lossless(self):
        g = scaled_vgg(batch_size=8)
        lossless = Gist(GistConfig.lossless()).measure_mfr(g).mfr
        lossy = Gist(GistConfig.full("fp8")).measure_mfr(g).mfr
        assert lossy > lossless

    def test_dynamic_vs_static(self):
        g = scaled_vgg(batch_size=8)
        gist = Gist(GistConfig.full("fp8"))
        static = gist.measure_mfr(g)
        dynamic = gist.measure_mfr(g, dynamic=True)
        assert dynamic.baseline_bytes <= static.baseline_bytes
        assert dynamic.gist_bytes <= static.gist_bytes

    def test_investigation_mode(self):
        # The investigation baseline (stashed maps unshared on both
        # sides) is the builders' switch; Figs 10 and 13 call them.
        g = scaled_vgg(batch_size=8)
        allocate = StaticAllocator().allocate
        base = allocate(build_memory_plan(g, investigation=True).tensors)
        gist = allocate(build_gist_plan(g, GistConfig.full("fp8"),
                                        investigation=True).plan.tensors)
        assert base.total_bytes / gist.total_bytes > 1.0

    def test_footprint_bytes_baseline_equals_disabled(self):
        g = scaled_vgg(batch_size=8)
        assert footprint_bytes(g, None) == footprint_bytes(
            g, GistConfig.disabled()
        )
