"""Tests for the experiment sweep drivers, run through ``run_sweep``."""

from repro import experiments


def _figures(drivers, models, batch_size=8):
    out = experiments.run_sweep(drivers, models=models,
                                batch_size=batch_size)
    assert out["ok"], out["failed_units"]
    return out["figures"]


class TestStaticDrivers:
    def test_figure8(self):
        (row,) = _figures(["figure8_mfr"], ["alexnet"])["figure8_mfr"]
        assert row["network"] == "alexnet"
        assert row["mfr_full"] > row["mfr_lossless"] > 1.0
        assert row["dpr_format"] == "fp8"

    def test_figure3(self):
        from repro.core import STASH_CLASSES

        figures = _figures(["figure3_stash_classes",
                            "baseline_memory_breakdown"], ["vgg16"])
        by_class = figures["figure3_stash_classes"]["vgg16"]
        assert set(by_class) == set(STASH_CLASSES)
        assert all(isinstance(b, int) for b in by_class.values())
        # Every stashed map but the loss scalar (one FP32 word) has a
        # class, so the bytes sum to Figure 1's stashed total.
        breakdown = figures["baseline_memory_breakdown"]
        total = sum(by_class.values())
        assert total + 4 == breakdown["vgg16"]["stashed_feature_maps"]
        assert by_class["relu_pool"] / total > 0.3

    def test_figure9(self):
        rows = _figures(["figure9_overheads"], ["overfeat", "nin"],
                        batch_size=16)["figure9_overheads"]
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
        (row,) = _figures(["figure17_dynamic"], ["nin"])["figure17_dynamic"]
        assert (row["dynamic"] < row["dynamic_lossless"]
                < row["dynamic_full"] <= row["dynamic_optimized"])

    def test_figure1_breakdown(self):
        out = _figures(["baseline_memory_breakdown"],
                       ["alexnet"])["baseline_memory_breakdown"]
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
        from repro.core import GistConfig
        from repro.models import resnet_cifar
        from repro.perf import DeviceSpec, larger_minibatch_speedup

        # Fig 16's rows run this search at 12 GB on 509-1202 layers; here
        # the contract its row reads, on a small device and depth.
        dev = DeviceSpec("small", 6e12, 300e9, 128 * 1024**2, 10e9)
        report = larger_minibatch_speedup(
            lambda b: resnet_cifar(56, batch_size=b), GistConfig.full("fp10"),
            device=dev, name="resnet-56")
        assert report.gist_batch > report.baseline_batch
        assert report.speedup > 1.0
        assert report.gist_throughput >= report.baseline_throughput > 0
        assert report.speedup == (report.gist_throughput
                                  / report.baseline_throughput)


class TestSweepOnlyDrivers:
    def test_each_runs_on_a_small_model(self):
        from repro.models import available_models

        # Fig 16's deep ResNets are covered above, through their core.
        # The training studies ignore ``models``; one short unit of each
        # runs in tests/orchestrate/test_sweep_units.py.
        names = [name for name, driver in experiments.SWEEP_DRIVERS.items()
                 if name != "figure16_speedups" and "epochs" not in
                 driver.enumerate_units(None, 64)[0].payload]
        figures = _figures(names, ["tiny_cnn"])
        assert sorted(figures["figure10_isolation"]["tiny_cnn"]) \
            == sorted(experiments.FIGURE10_ARMS)
        assert [row["network"] for row in figures["recompute_baseline"]] \
            == list(experiments.CHAIN_NETWORKS)
        # The planner gates every registry model, whatever ``models`` says.
        hybrid = figures["hybrid_planner"]
        assert hybrid["batch_size"] == experiments.HYBRID_BATCH_SIZE
        assert hybrid["budget_frac"] == experiments.HYBRID_BUDGET_FRAC
        assert [row["model"] for row in hybrid["models"]] \
            == list(available_models())
        for row in hybrid["models"]:
            assert row["ok"] == (row["dominance_ok"] and row["budget_ok"]
                                 and not row["oracle_violations"])
