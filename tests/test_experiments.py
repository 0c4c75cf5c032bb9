"""Tests for the one-call experiment drivers."""

from repro import experiments


class TestStaticDrivers:
    def test_figure8(self):
        rows = experiments.figure8_mfr(models=["alexnet"], batch_size=8)
        (row,) = rows
        assert row["network"] == "alexnet"
        assert row["mfr_full"] > row["mfr_lossless"] > 1.0
        assert row["dpr_format"] == "fp8"

    def test_figure3(self):
        from repro.core import STASH_CLASSES

        out = experiments.figure3_stash_classes(models=["vgg16"],
                                                batch_size=8)
        by_class = out["vgg16"]
        assert set(by_class) == set(STASH_CLASSES)
        assert all(isinstance(b, int) for b in by_class.values())
        # Every stashed map but the loss scalar (one FP32 word) has a
        # class, so the bytes sum to Figure 1's stashed total.
        breakdown = experiments.baseline_memory_breakdown(models=["vgg16"],
                                                          batch_size=8)
        total = sum(by_class.values())
        assert total + 4 == breakdown["vgg16"]["stashed_feature_maps"]
        assert by_class["relu_pool"] / total > 0.3

    def test_figure9(self):
        rows = experiments.figure9_overheads(models=["overfeat", "nin"],
                                             batch_size=16)
        for row in rows:
            # Fig 15's arms: CDMA is vDNN's pipeline over a compressed link.
            assert (row["naive_overhead"] > row["vdnn_overhead"]
                    >= row["cdma_overhead"] >= 0), row["network"]
            assert row["energy_ratio_vdnn_over_gist"] > 1.0
            assert row["energy_ratio_vdnn_over_gist"] == (row["vdnn_j"]
                                                          / row["gist_j"])
            assert row["baseline_s"] > 0
            assert row["lossless_overhead"] < row["naive_overhead"]

    def test_figure17(self):
        rows = experiments.figure17_dynamic(models=["nin"], batch_size=8)
        (row,) = rows
        assert (row["dynamic"] < row["dynamic_lossless"]
                < row["dynamic_full"] <= row["dynamic_optimized"])

    def test_figure1_breakdown(self):
        out = experiments.baseline_memory_breakdown(models=["alexnet"],
                                                    batch_size=8)
        assert out["alexnet"]["weights"] > 0
        assert out["alexnet"]["stashed_feature_maps"] > 0


class TestTrainingDrivers:
    def test_figure14_series_shapes(self):
        series = experiments.figure14_ssdc_series(epochs=1, sample_every=8)
        assert series
        lengths = {len(v) for v in series.values()}
        assert len(lengths) == 1  # every layer sampled at the same steps
        for values in series.values():
            assert all(v > 0 for v in values)

    def test_figure16_small(self):
        from repro.perf import DeviceSpec

        # Not exercised at full 12 GB scale here (the bench does that);
        # just verify the driver contract on a small device.
        dev = DeviceSpec("small", 6e12, 300e9, 128 * 1024**2, 10e9)
        rows = experiments.figure16_speedups(depths=(56,), device=dev)
        (row,) = rows
        assert row["gist_batch"] > row["baseline_batch"]
        assert row["speedup"] > 1.0
        assert row["gist_throughput"] >= row["baseline_throughput"] > 0
        assert row["speedup"] == (row["gist_throughput"]
                                  / row["baseline_throughput"])


class TestSweepOnlyDrivers:
    def test_each_runs_on_a_small_model(self):
        # Fig 16 and the one-call drivers are covered above.
        names = [name for name in experiments.STATIC_FIGURE_DRIVERS
                 if not hasattr(experiments, name)]
        assert "figure10_isolation" in names
        out = experiments.run_sweep(names, models=["tiny_cnn"], batch_size=8)
        assert out["ok"], out["failed_units"]
        assert sorted(out["figures"]["figure10_isolation"]["tiny_cnn"]) \
            == sorted(experiments.FIGURE10_ARMS)
